//! The payload-representation differential campaign.
//!
//! The contract under test (docs/RUNTIME.md, "Payload representations"):
//! whether a player ships its edges as a sorted list
//! (`Payload::Edges`) or as a packed bitset (`Payload::EdgeBits`) is a
//! **runtime choice with zero observable effect** — same verdicts, same
//! `CommStats`, same per-phase/player/round/direction tallies, bit for
//! bit. The `bit_len` formula is schema-identical by construction; this
//! suite pins the rest of the stack to that promise across
//!
//!   protocol × k × seed × threads
//!     × density ∈ {sparse, threshold-boundary, dense, complete}
//!     × {Local, Threaded, Tcp, fault-injection}.
//!
//! Every Edges-vs-Bits comparison reuses the SAME `PreparedInput`: a
//! `PlayerState` iterates its share from a `HashSet`, whose order is
//! stable per instance but not across instances, and the capped sim
//! protocols are order-sensitive. Sharing the players isolates the one
//! variable under test — the representation.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use triad::comm::pool::Pool;
use triad::comm::{
    run_simultaneous_collected, run_simultaneous_prepared, CostModel, FaultPlan, FaultRates,
    Payload, PayloadRepr, PlayerSession, PlayerState, Recorder, ServeConfig, SharedRandomness,
    SimMessage, SimultaneousProtocol, Tally, TcpCoordinator, TcpTransport, Welcome,
};
use triad::graph::generators::gnp_with_average_degree;
use triad::graph::partition::{random_disjoint, Partition};
use triad::graph::{Edge, Graph};
use triad::protocols::amplify::{run_amplified_prepared, PreparedInput};
use triad::protocols::baseline::SendEverything;
use triad::protocols::{
    run_chaos_amplified, ChaosRun, Repeatable, SimProtocolKind, SimultaneousTester, TallyRun,
    Tuning, DEFAULT_QUORUM,
};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const EPS: f64 = 0.2;
const REPS: u32 = 3;
const TIMEOUT: Duration = Duration::from_secs(20);

/// One cell of the density axis: a workload whose shares sit on a named
/// side of the `dense_kernel_wins` gate `m·128 ≥ n²`.
struct Density {
    label: &'static str,
    graph: Graph,
}

/// The four densities of the campaign matrix.
///
/// * `sparse` — avg degree 4 on n = 300: every share far below the
///   gate, `Auto` must pick edge lists throughout.
/// * `threshold-boundary` — avg degree 4 on n = 128: shares of ~m/k ≈
///   n²/128 edges straddle the gate, so `Auto` mixes representations
///   within a single round.
/// * `dense` — avg degree 40 on n = 120: every exact share clears the
///   gate, `Auto` must pick bitsets.
/// * `complete` — K₈₀: the extreme point, maximal payloads.
fn densities() -> Vec<Density> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF);
    let sparse = gnp_with_average_degree(300, 4.0, &mut rng);
    let boundary = gnp_with_average_degree(128, 4.0, &mut rng);
    let dense = gnp_with_average_degree(120, 40.0, &mut rng);
    let complete = Graph::from_edges(
        80,
        (0..80u32).flat_map(|u| (u + 1..80).map(move |v| (u, v))),
    );
    vec![
        Density {
            label: "sparse",
            graph: sparse,
        },
        Density {
            label: "threshold-boundary",
            graph: boundary,
        },
        Density {
            label: "dense",
            graph: dense,
        },
        Density {
            label: "complete",
            graph: complete,
        },
    ]
}

/// Every repr-sensitive protocol, built at the given representation.
fn protocol_matrix(
    repr: PayloadRepr,
    d: f64,
    k: usize,
) -> Vec<(&'static str, Box<dyn Repeatable + Sync>)> {
    let tuning = Tuning::practical(EPS).with_repr(repr);
    let _ = k;
    vec![
        (
            "exact",
            Box::new(SendEverything::with_repr(repr)) as Box<dyn Repeatable + Sync>,
        ),
        (
            "sim-low",
            Box::new(SimultaneousTester::new(
                tuning,
                SimProtocolKind::Low { avg_degree: d },
            )),
        ),
        (
            "sim-high",
            Box::new(SimultaneousTester::new(
                tuning,
                SimProtocolKind::High { avg_degree: d },
            )),
        ),
        (
            "sim-oblivious",
            Box::new(SimultaneousTester::new(tuning, SimProtocolKind::Oblivious)),
        ),
    ]
}

/// Field-by-field equality of two tallies — the "transcripts bit for
/// bit" half of the contract.
fn assert_tallies_equal(label: &str, got: &Tally, want: &Tally) {
    assert_eq!(got.total_bits(), want.total_bits(), "{label}: total bits");
    assert_eq!(
        got.per_player_sent(),
        want.per_player_sent(),
        "{label}: per-player bits"
    );
    assert_eq!(got.by_phase(), want.by_phase(), "{label}: by_phase");
    assert_eq!(got.by_player(), want.by_player(), "{label}: by_player");
    assert_eq!(got.by_round(), want.by_round(), "{label}: by_round");
    assert_eq!(
        got.by_direction(),
        want.by_direction(),
        "{label}: by_direction"
    );
    assert_eq!(got.breakdown(), want.breakdown(), "{label}: breakdown");
}

/// The full verdict + accounting comparison for amplified runs.
fn assert_runs_equal(label: &str, got: &TallyRun, want: &TallyRun) {
    assert_eq!(got.outcome, want.outcome, "{label}: outcome");
    assert_eq!(got.stats, want.stats, "{label}: stats");
    assert_tallies_equal(label, &got.transcript, &want.transcript);
}

/// The same, for chaos runs: verdict, accounting, and the fault ledger.
fn assert_chaos_equal(label: &str, got: &ChaosRun, want: &ChaosRun) {
    assert_eq!(got.outcome, want.outcome, "{label}: outcome");
    assert_eq!(got.stats, want.stats, "{label}: stats");
    assert_eq!(got.failures, want.failures, "{label}: failures");
    assert_eq!(got.injected, want.injected, "{label}: injected");
    assert_eq!(got.survived, want.survived, "{label}: survived");
    assert_eq!(got.attempted, want.attempted, "{label}: attempted");
    assert_eq!(
        got.retransmit_bits(),
        want.retransmit_bits(),
        "{label}: retransmit bits"
    );
    assert_tallies_equal(label, &got.tally, &want.tally);
}

/// Local axis: for every density × protocol × k × seed cell, the
/// serial amplified sweep is bit-identical under `Edges`, `Bits`, and
/// `Auto`.
#[test]
fn local_runs_are_bit_identical_across_representations() {
    for density in densities() {
        let g = &density.graph;
        let d = g.average_degree().max(1.0);
        for k in [2usize, 4] {
            let mut rng = ChaCha8Rng::seed_from_u64(k as u64);
            let parts = random_disjoint(g, k, &mut rng);
            let input = PreparedInput::new(g, &parts).unwrap();
            for seed in [3u64, 11] {
                let references = protocol_matrix(PayloadRepr::Edges, d, k);
                for repr in [PayloadRepr::Bits, PayloadRepr::Auto] {
                    for ((name, reference), (_, tester)) in
                        references.iter().zip(protocol_matrix(repr, d, k))
                    {
                        let reference: &(dyn Repeatable + Sync) = reference.as_ref();
                        let tester: &(dyn Repeatable + Sync) = tester.as_ref();
                        let label = format!("{}/{name}/k={k}/seed={seed}/{repr}", density.label);
                        let want =
                            run_amplified_prepared(&Pool::serial(), &reference, &input, REPS, seed)
                                .unwrap_or_else(|e| panic!("{label}: reference failed: {e}"));
                        let got =
                            run_amplified_prepared(&Pool::serial(), &tester, &input, REPS, seed)
                                .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
                        assert_runs_equal(&label, &got, &want);
                    }
                }
            }
        }
    }
}

/// Threaded axis: the pooled amplified sweep at 2 and 4 workers agrees
/// with the serial edge-list reference for every density × protocol
/// cell, under both non-default representations.
#[test]
fn threaded_pools_preserve_representation_independence() {
    let seed = 7u64;
    let k = 3usize;
    for density in densities() {
        let g = &density.graph;
        let d = g.average_degree().max(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let parts = random_disjoint(g, k, &mut rng);
        let input = PreparedInput::new(g, &parts).unwrap();
        let references = protocol_matrix(PayloadRepr::Edges, d, k);
        for repr in [PayloadRepr::Bits, PayloadRepr::Auto] {
            for ((name, reference), (_, tester)) in
                references.iter().zip(protocol_matrix(repr, d, k))
            {
                let reference: &(dyn Repeatable + Sync) = reference.as_ref();
                let tester: &(dyn Repeatable + Sync) = tester.as_ref();
                let want = run_amplified_prepared(&Pool::serial(), &reference, &input, REPS, seed)
                    .unwrap_or_else(|e| panic!("{name}: reference failed: {e}"));
                for threads in [2usize, 4] {
                    let label = format!("{}/{name}/{repr}@{threads}", density.label);
                    let got =
                        run_amplified_prepared(&Pool::new(threads), &tester, &input, REPS, seed)
                            .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
                    assert_runs_equal(&label, &got, &want);
                }
            }
        }
    }
}

/// Fault-injection axis: under a deterministic fault schedule —
/// drops, crashes, corruptions, duplicates — the chaos sweep is
/// bit-identical across representations: same verdict, same fault
/// ledger, same retransmit charges, same tallies. Fault decisions
/// depend only on `(rep, player)` and bits are charged via the
/// schema-identical `bit_len`, so the representation must be invisible
/// even to failures.
#[test]
fn fault_injection_is_bit_identical_across_representations() {
    let seed = 13u64;
    let k = 3usize;
    let plans = [
        (
            "omission",
            FaultPlan::new(0xFA17, FaultRates::omission(0.3)),
        ),
        ("mixed", FaultPlan::new(0xFA18, FaultRates::mixed(0.4))),
    ];
    for density in densities() {
        let g = &density.graph;
        let d = g.average_degree().max(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let parts = random_disjoint(g, k, &mut rng);
        let input = PreparedInput::new(g, &parts).unwrap();
        let references = protocol_matrix(PayloadRepr::Edges, d, k);
        for (plan_name, plan) in &plans {
            for repr in [PayloadRepr::Bits, PayloadRepr::Auto] {
                for ((name, reference), (_, tester)) in
                    references.iter().zip(protocol_matrix(repr, d, k))
                {
                    let reference: &(dyn Repeatable + Sync) = reference.as_ref();
                    let tester: &(dyn Repeatable + Sync) = tester.as_ref();
                    let label = format!("{}/{name}/{plan_name}/{repr}", density.label);
                    let want = run_chaos_amplified(
                        &Pool::serial(),
                        &reference,
                        &input,
                        4,
                        seed,
                        plan,
                        DEFAULT_QUORUM,
                    );
                    let got = run_chaos_amplified(
                        &Pool::serial(),
                        &tester,
                        &input,
                        4,
                        seed,
                        plan,
                        DEFAULT_QUORUM,
                    );
                    assert_chaos_equal(&label, &got, &want);
                }
            }
        }
    }
}

/// Coverage guard for the matrix above: under `Auto`, the density
/// labels really do land on the intended side of the gate, so the
/// differential is exercising both representations rather than
/// silently comparing edge lists to edge lists.
#[test]
fn auto_picks_the_intended_representation_per_density() {
    let densities = densities();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let shared = SharedRandomness::new(1);
    let exact = SendEverything::with_repr(PayloadRepr::Auto);
    let repr_of = |g: &Graph, k: usize, rng: &mut ChaCha8Rng| -> Vec<bool> {
        let parts = random_disjoint(g, k, rng);
        let input = PreparedInput::new(g, &parts).unwrap();
        input
            .players()
            .iter()
            .map(|p| {
                let msg = exact.message(p, &shared);
                msg.payloads()
                    .iter()
                    .all(|pl| matches!(pl, Payload::EdgeBits(_)))
            })
            .collect()
    };
    let sparse = repr_of(&densities[0].graph, 2, &mut rng);
    assert!(
        sparse.iter().all(|bits| !bits),
        "sparse shares must ship as edge lists under Auto"
    );
    let boundary = repr_of(&densities[1].graph, 2, &mut rng);
    // m ≈ n²/128 split two ways: the gate may fall either way per
    // share, but the workload must not be degenerate — at least the
    // gate arithmetic sits within a factor of two of the boundary.
    let m = densities[1].graph.edge_count();
    let n = densities[1].graph.vertex_count();
    assert!(
        (m * 128) * 2 >= n * n && m * 128 <= n * n * 2,
        "threshold-boundary workload drifted off the gate: m={m} n={n}"
    );
    let _ = boundary;
    let dense = repr_of(&densities[2].graph, 2, &mut rng);
    assert!(
        dense.iter().all(|bits| *bits),
        "dense shares must ship as bitsets under Auto"
    );
    let complete = repr_of(&densities[3].graph, 2, &mut rng);
    assert!(
        complete.iter().all(|bits| *bits),
        "complete-graph shares must ship as bitsets under Auto"
    );
}

// ---------------------------------------------------------------------
// TCP axis: the loopback harness, trimmed to what this suite needs.
// ---------------------------------------------------------------------

type SimResponder = Box<dyn FnMut(&PlayerState, &SharedRandomness) -> SimMessage<'static>>;

/// The player side: the same responder `triad connect` builds from the
/// Welcome, so the posted message is the one the in-process transports
/// would have recorded.
fn sim_closure(w: &Welcome) -> SimResponder {
    let mut repr = PayloadRepr::Auto;
    for tok in w.params.split_whitespace() {
        if let Some(("repr", val)) = tok.split_once('=') {
            repr = val.parse().unwrap();
        }
    }
    match w.protocol.as_str() {
        "exact" => Box::new(move |s, r| SendEverything::with_repr(repr).message(s, r).into_owned()),
        _ => Box::new(|_, _| SimMessage::empty()),
    }
}

fn spawn_players(
    addr: SocketAddr,
    shares: Arc<Vec<Vec<Edge>>>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..shares.len())
        .map(|_| {
            let shares = Arc::clone(&shares);
            std::thread::spawn(move || {
                let Ok(session) = PlayerSession::connect(addr, None, TIMEOUT) else {
                    return;
                };
                let w = session.welcome().clone();
                let state =
                    PlayerState::new(w.player as usize, w.n as usize, &shares[w.player as usize]);
                let sim = sim_closure(&w);
                let _ = session.serve_until(&state, sim, None);
            })
        })
        .collect()
}

/// One loopback round: real sockets, real tag-10 frames when the
/// representation is dense. Returns the decoded messages.
fn collect_over_tcp(
    parts: &Partition,
    n: usize,
    seed: u64,
    repr: PayloadRepr,
) -> Vec<SimMessage<'static>> {
    let cfg = ServeConfig {
        k: parts.players(),
        n,
        seed,
        cost_model: CostModel::Coordinator,
        protocol: "exact".to_string(),
        params: format!("eps={EPS} d=4 repr={repr}"),
    };
    let coordinator = TcpCoordinator::bind("127.0.0.1:0").expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr");
    let shares = Arc::new(parts.shares().to_vec());
    let players = spawn_players(addr, shares);
    let mut transport: TcpTransport = coordinator
        .accept_players(&cfg, TIMEOUT)
        .expect("register all players");
    let messages = transport.collect_sim_messages().expect("collect");
    drop(transport);
    for p in players {
        p.join().unwrap();
    }
    messages
}

/// TCP axis: at every density, a loopback round under `Edges` and
/// under `Bits` both match the in-process run at the same
/// representation — and each other. The wire codec (tag 3 edge lists,
/// tag 10 bitset bodies) is invisible to verdicts and accounting.
#[test]
fn tcp_loopback_is_bit_identical_across_representations() {
    let seed = 17u64;
    for density in densities() {
        let g = &density.graph;
        let n = g.vertex_count();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let parts = random_disjoint(g, 3, &mut rng);
        let input = PreparedInput::new(g, &parts).unwrap();
        let shared = SharedRandomness::new(seed);
        let mut runs = Vec::new();
        for repr in [PayloadRepr::Edges, PayloadRepr::Bits] {
            let label = format!("{}/{repr}", density.label);
            let messages = collect_over_tcp(&parts, n, seed, repr);
            if repr == PayloadRepr::Bits {
                assert!(
                    messages
                        .iter()
                        .flat_map(|m| m.payloads().iter())
                        .all(|p| matches!(p, Payload::EdgeBits(_))),
                    "{label}: forced-bits shares must travel as tag-10 bitset bodies"
                );
            }
            let p = SendEverything::with_repr(repr);
            let reference = run_simultaneous_prepared::<_, Tally>(&p, n, input.players(), shared);
            let tcp = run_simultaneous_collected::<_, Tally>(&p, n, messages, shared);
            assert_eq!(tcp.output, reference.output, "{label}: output");
            assert_eq!(tcp.stats, reference.stats, "{label}: stats");
            assert_tallies_equal(&label, &tcp.transcript, &reference.transcript);
            runs.push(tcp);
        }
        let label = format!("{}: edges vs bits over TCP", density.label);
        assert_eq!(runs[0].output, runs[1].output, "{label}: output");
        assert_eq!(runs[0].stats, runs[1].stats, "{label}: stats");
        assert_tallies_equal(&label, &runs[1].transcript, &runs[0].transcript);
    }
}
