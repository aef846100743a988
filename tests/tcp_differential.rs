//! Differential suite for the networked (TCP) coordinator.
//!
//! Three guarantees are pinned here, mirroring `docs/NETWORKING.md`:
//!
//! 1. **Wire transparency** — a fault-free run over loopback TCP is
//!    byte-identical to the in-process transports: same verdict, same
//!    [`CommStats`], same per-phase/player/round/direction rollups. The
//!    recorders charge logical payload bits, never wire bytes, so
//!    framing and checksums must be invisible to the accounting.
//! 2. **Typed degradation** — a player that walks away mid-round
//!    surfaces as a typed [`RunError`] (timeout or transport, never a
//!    panic), and the single-run verdict degrades to `Inconclusive`
//!    exactly as the in-process quorum machinery does. A verdict never
//!    flips to an accept on a faulted run.
//! 3. **Chaos conformance** — a runtime with a fault plan
//!    (`Runtime::with_faults`) over `TcpTransport` on loopback, which
//!    sends its rounds as batch frames, injects the same deterministic
//!    fault schedule as the local chaos run and produces identical
//!    outcomes, stats, and injected-fault counts, repetition by
//!    repetition.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use triad::comm::{
    run_simultaneous_collected, run_simultaneous_prepared, ConnectOptions, CostModel, FaultPlan,
    FaultRates, LocalTransport, Payload, PayloadRepr, PlayerRequest, PlayerSession, PlayerState,
    Recorder, ResumeClaim, RunError, RunErrorKind, Runtime, ServeConfig, SessionOptions,
    SharedRandomness, SharedTransport, SimMessage, SimultaneousProtocol, Tally, TcpCoordinator,
    TcpTransport, Transport, Welcome,
};
use triad::graph::generators::gnp_with_average_degree;
use triad::graph::partition::{random_disjoint, Partition};
use triad::graph::{Edge, Graph};
use triad::protocols::amplify::PreparedInput;
use triad::protocols::baseline::SendEverything;
use triad::protocols::simultaneous::{AlgHigh, AlgLow, Oblivious};
use triad::protocols::{single_run_verdict, ChaosOutcome, Repeatable, Tuning, UnrestrictedTester};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const TIMEOUT: Duration = Duration::from_secs(20);

fn workload(n: usize, k: usize, graph_seed: u64) -> (Graph, Partition) {
    let mut rng = ChaCha8Rng::seed_from_u64(graph_seed);
    let g = gnp_with_average_degree(n, 6.0, &mut rng);
    let parts = random_disjoint(&g, k, &mut rng);
    (g, parts)
}

/// The one-round responder `PlayerSession::serve_until` drives.
type SimResponder = Box<dyn FnMut(&PlayerState, &SharedRandomness) -> SimMessage<'static>>;

/// The player side of every test: the same one-round responder
/// `triad connect` builds from the Welcome, so the posted message is the
/// one the in-process transports would have recorded.
fn sim_closure(w: &Welcome) -> SimResponder {
    let mut eps = 0.2f64;
    let mut d = 8.0f64;
    let mut repr = PayloadRepr::Auto;
    for tok in w.params.split_whitespace() {
        if let Some((key, val)) = tok.split_once('=') {
            match key {
                "eps" => eps = val.parse().unwrap(),
                "d" => d = val.parse().unwrap(),
                "repr" => repr = val.parse().unwrap(),
                _ => {}
            }
        }
    }
    let tuning = Tuning::practical(eps).with_repr(repr);
    match w.protocol.as_str() {
        "low" => {
            let p = AlgLow::new(tuning, d);
            Box::new(move |s, r| p.message(s, r).into_owned())
        }
        "high" => {
            let p = AlgHigh::new(tuning, d);
            Box::new(move |s, r| p.message(s, r).into_owned())
        }
        "oblivious" => {
            let p = Oblivious::new(tuning, w.k as usize);
            Box::new(move |s, r| p.message(s, r).into_owned())
        }
        "exact" => Box::new(move |s, r| SendEverything::with_repr(repr).message(s, r).into_owned()),
        _ => Box::new(|_, _| SimMessage::empty()),
    }
}

/// Spawns one player thread per share. `request_limit` simulates a
/// player that walks away after that many answered requests (the
/// disconnect-mid-round scenario); `None` serves until the coordinator
/// hangs up. Serve errors are ignored: a coordinator that simply drops
/// the socket after its run is a normal ending for a test player.
fn spawn_players(
    addr: SocketAddr,
    shares: Arc<Vec<Vec<Edge>>>,
    request_limit: Option<u64>,
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
                let _ = session.serve_until(&state, sim, request_limit);
            })
        })
        .collect()
}

/// Binds a loopback coordinator, spawns the players, and returns the
/// registered transport plus the player handles to join afterwards.
fn loopback_transport(
    cfg: &ServeConfig,
    shares: Arc<Vec<Vec<Edge>>>,
    request_limit: Option<u64>,
) -> (TcpTransport, Vec<std::thread::JoinHandle<()>>) {
    let coordinator = TcpCoordinator::bind("127.0.0.1:0").expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr");
    let players = spawn_players(addr, shares, request_limit);
    let transport = coordinator
        .accept_players(cfg, TIMEOUT)
        .expect("register all players");
    (transport, players)
}

fn config(protocol: &str, k: usize, n: usize, seed: u64, eps: f64, d: f64) -> ServeConfig {
    config_repr(protocol, k, n, seed, eps, d, PayloadRepr::Auto)
}

#[allow(clippy::too_many_arguments)]
fn config_repr(
    protocol: &str,
    k: usize,
    n: usize,
    seed: u64,
    eps: f64,
    d: f64,
    repr: PayloadRepr,
) -> ServeConfig {
    ServeConfig {
        k,
        n,
        seed,
        cost_model: CostModel::Coordinator,
        protocol: protocol.to_string(),
        params: format!("eps={eps} d={d} repr={repr}"),
    }
}

fn assert_tallies_equal(label: &str, tcp: &Tally, reference: &Tally) {
    assert_eq!(
        tcp.total_bits(),
        reference.total_bits(),
        "{label}: total bits"
    );
    assert_eq!(tcp.by_phase(), reference.by_phase(), "{label}: by phase");
    assert_eq!(tcp.by_player(), reference.by_player(), "{label}: by player");
    assert_eq!(tcp.by_round(), reference.by_round(), "{label}: by round");
    assert_eq!(
        tcp.by_direction(),
        reference.by_direction(),
        "{label}: by direction"
    );
}

#[test]
fn unrestricted_over_tcp_matches_local_bit_for_bit() {
    let (g, parts) = workload(240, 3, 5);
    let input = PreparedInput::new(&g, &parts).unwrap();
    let tester = UnrestrictedTester::new(Tuning::practical(0.2));
    for seed in [3u64, 11] {
        let reference = tester.run_prepared(&input, seed, None).unwrap().run;
        let shares = Arc::new(parts.shares().to_vec());
        let cfg = config("unrestricted", 3, g.vertex_count(), seed, 0.2, 6.0);
        let (transport, players) = loopback_transport(&cfg, shares, None);
        let mut rt: Runtime<Tally> = Runtime::new_with(
            Box::new(transport),
            g.vertex_count(),
            SharedRandomness::new(seed),
            CostModel::Coordinator,
        );
        let outcome = tester.run_on(&mut rt);
        assert_eq!(rt.take_fault(), None, "seed {seed}: fault-free loopback");
        assert_eq!(
            outcome.triangle(),
            reference.outcome.triangle(),
            "seed {seed}"
        );
        assert_eq!(rt.stats(), reference.stats, "seed {seed}: stats");
        assert_tallies_equal(
            &format!("seed {seed}"),
            &rt.into_recorder(),
            &reference.transcript,
        );
        for p in players {
            p.join().unwrap();
        }
    }
}

#[test]
fn simultaneous_over_tcp_matches_prepared_bit_for_bit() {
    let (g, parts) = workload(300, 4, 7);
    let n = g.vertex_count();
    let input = PreparedInput::new(&g, &parts).unwrap();
    let tuning = Tuning::practical(0.2);
    let seed = 3u64;
    let shared = SharedRandomness::new(seed);
    // Each variant: run the referee over messages collected from real
    // sockets, then over messages computed in-process, and demand
    // identical verdicts and accounting.
    let run_tcp = |protocol: &str| {
        let shares = Arc::new(parts.shares().to_vec());
        let cfg = config(protocol, parts.players(), n, seed, 0.2, 6.0);
        let (mut transport, players) = loopback_transport(&cfg, shares, None);
        let messages = transport.collect_sim_messages().expect("collect");
        drop(transport);
        for p in players {
            p.join().unwrap();
        }
        messages
    };
    {
        let p = AlgLow::new(tuning, 6.0);
        let reference = run_simultaneous_prepared::<_, Tally>(&p, n, input.players(), shared);
        let tcp = run_simultaneous_collected::<_, Tally>(&p, n, run_tcp("low"), shared);
        assert_eq!(tcp.output, reference.output, "low: output");
        assert_eq!(tcp.stats, reference.stats, "low: stats");
        assert_tallies_equal("low", &tcp.transcript, &reference.transcript);
    }
    {
        let p = Oblivious::new(tuning, parts.players());
        let reference = run_simultaneous_prepared::<_, Tally>(&p, n, input.players(), shared);
        let tcp = run_simultaneous_collected::<_, Tally>(&p, n, run_tcp("oblivious"), shared);
        assert_eq!(tcp.output, reference.output, "oblivious: output");
        assert_eq!(tcp.stats, reference.stats, "oblivious: stats");
        assert_tallies_equal("oblivious", &tcp.transcript, &reference.transcript);
    }
    {
        let reference = run_simultaneous_prepared::<_, Tally>(
            &SendEverything::default(),
            n,
            input.players(),
            shared,
        );
        let tcp = run_simultaneous_collected::<_, Tally>(
            &SendEverything::default(),
            n,
            run_tcp("exact"),
            shared,
        );
        assert_eq!(tcp.output, reference.output, "exact: output");
        assert_eq!(tcp.stats, reference.stats, "exact: stats");
        assert_tallies_equal("exact", &tcp.transcript, &reference.transcript);
    }
}

#[test]
fn dense_exact_over_tcp_ships_bitsets_and_matches_prepared() {
    // A dense input past the density gate: every share is cheaper as a
    // packed bitset, so the tag-10 wire body carries the whole round.
    // The loopback run must stay bit-identical to the in-process path,
    // and the collected messages must actually BE bitset payloads —
    // otherwise this test would silently stop covering the codec.
    use triad::comm::Payload;
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let g = gnp_with_average_degree(120, 40.0, &mut rng);
    let parts = random_disjoint(&g, 3, &mut rng);
    let n = g.vertex_count();
    let input = PreparedInput::new(&g, &parts).unwrap();
    let seed = 13u64;
    let shared = SharedRandomness::new(seed);
    for repr in [PayloadRepr::Bits, PayloadRepr::Auto] {
        let shares = Arc::new(parts.shares().to_vec());
        let cfg = config_repr("exact", parts.players(), n, seed, 0.2, 40.0, repr);
        let (mut transport, players) = loopback_transport(&cfg, shares, None);
        let messages = transport.collect_sim_messages().expect("collect");
        drop(transport);
        for p in players {
            p.join().unwrap();
        }
        assert!(
            messages
                .iter()
                .flat_map(|m| m.payloads().iter())
                .all(|p| matches!(p, Payload::EdgeBits(_))),
            "{repr}: dense shares must travel as bitset payloads"
        );
        let p = SendEverything::with_repr(repr);
        let reference = run_simultaneous_prepared::<_, Tally>(&p, n, input.players(), shared);
        let tcp = run_simultaneous_collected::<_, Tally>(&p, n, messages, shared);
        assert_eq!(tcp.output, reference.output, "{repr}: output");
        assert_eq!(tcp.stats, reference.stats, "{repr}: stats");
        assert_tallies_equal(&format!("{repr}"), &tcp.transcript, &reference.transcript);
        // The exact baseline's verdict must also be representation-free:
        // the edge-list run agrees with the bitset run.
        let edges_ref = run_simultaneous_prepared::<_, Tally>(
            &SendEverything::with_repr(PayloadRepr::Edges),
            n,
            input.players(),
            shared,
        );
        assert_eq!(tcp.output, edges_ref.output, "{repr}: vs edge-list verdict");
        assert_eq!(
            tcp.stats.total_bits, edges_ref.stats.total_bits,
            "{repr}: vs edge-list bits"
        );
    }
}

#[test]
fn disconnect_mid_round_degrades_to_inconclusive_not_a_flip() {
    // A triangle-free path: the only honest verdicts are a clean accept
    // or an explicit refusal. Players walk away after two answered
    // requests, so the run *must* fault — and the verdict must be
    // Inconclusive, never a silent accept, never a panic.
    let g = Graph::from_edges(60, (0..59).map(|i| (i as u32, i as u32 + 1)));
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let parts = random_disjoint(&g, 3, &mut rng);
    let seed = 4u64;
    let shares = Arc::new(parts.shares().to_vec());
    let cfg = config("unrestricted", 3, g.vertex_count(), seed, 0.2, 2.0);
    let (transport, players) = loopback_transport(&cfg, shares, Some(2));
    let mut rt: Runtime<Tally> = Runtime::new_with(
        Box::new(transport),
        g.vertex_count(),
        SharedRandomness::new(seed),
        CostModel::Coordinator,
    );
    let outcome = UnrestrictedTester::new(Tuning::practical(0.2)).run_on(&mut rt);
    let fault = rt
        .take_fault()
        .expect("walked-away players must fault the run");
    assert!(
        matches!(
            fault.kind(),
            RunErrorKind::Timeout | RunErrorKind::Transport | RunErrorKind::Corrupt
        ),
        "typed delivery error expected, got {fault}"
    );
    // One-sided error survives: no witness can exist here, so the only
    // lawful verdict under a fault is an explicit refusal.
    assert_eq!(
        outcome.triangle(),
        None,
        "fabricated witness on a path graph"
    );
    assert_eq!(
        single_run_verdict(outcome, Some(&fault)),
        ChaosOutcome::Inconclusive
    );
    for p in players {
        p.join().unwrap();
    }
}

#[test]
fn rejoin_within_window_is_bit_identical_to_uninterrupted() {
    // The acceptance bar of the reconnect machinery: a player that is
    // disconnected mid-run and rejoins within the window produces a
    // final verdict, stats, and tally **bit-identical** to the
    // uninterrupted in-process run. The replay happens inside the
    // transport, below the charging layer, so the recorder never sees
    // the interruption (docs/NETWORKING.md).
    let (g, parts) = workload(240, 3, 5);
    let input = PreparedInput::new(&g, &parts).unwrap();
    let tester = UnrestrictedTester::new(Tuning::practical(0.2));
    let seed = 11u64;
    let reference = tester.run_prepared(&input, seed, None).unwrap().run;
    let shares = Arc::new(parts.shares().to_vec());
    let cfg = config("unrestricted", 3, g.vertex_count(), seed, 0.2, 6.0);
    let coordinator = TcpCoordinator::bind("127.0.0.1:0").expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr");
    // Players 1 and 2 serve normally. Player 0 answers two requests,
    // drops its connection, then rejoins with the resume nonce from its
    // Welcome and serves on — the kill-a-player-mid-round scenario.
    let handles: Vec<_> = (0..3u32)
        .map(|j| {
            let shares = Arc::clone(&shares);
            std::thread::spawn(move || {
                let opts = ConnectOptions {
                    slot: Some(j),
                    retries: 40,
                    backoff: Duration::from_millis(10),
                    ..ConnectOptions::default()
                };
                let session = PlayerSession::connect_with(addr, &opts).unwrap();
                let w = session.welcome().clone();
                let state =
                    PlayerState::new(w.player as usize, w.n as usize, &shares[w.player as usize]);
                let mut sim = sim_closure(&w);
                if j == 0 {
                    assert_ne!(w.resume_nonce, 0, "windowed daemon must issue a nonce");
                    let _ = session.serve_until(&state, &mut sim, Some(2));
                    let rejoined = PlayerSession::rejoin_with(
                        addr,
                        &opts,
                        ResumeClaim {
                            slot: w.player,
                            nonce: w.resume_nonce,
                            last_acked: 2,
                        },
                    )
                    .unwrap();
                    let _ = rejoined.serve(&state, sim);
                } else {
                    let _ = session.serve(&state, sim);
                }
            })
        })
        .collect();
    let options = SessionOptions {
        auth_token: None,
        reconnect_window: Duration::from_secs(20),
    };
    let transport = coordinator
        .accept_players_with(&cfg, TIMEOUT, &options)
        .expect("register all players");
    let mut rt: Runtime<Tally> = Runtime::new_with(
        Box::new(transport),
        g.vertex_count(),
        SharedRandomness::new(seed),
        CostModel::Coordinator,
    );
    let outcome = tester.run_on(&mut rt);
    assert_eq!(
        rt.take_fault(),
        None,
        "a rejoin inside the window must be invisible to the run"
    );
    assert_eq!(outcome.triangle(), reference.outcome.triangle());
    assert_eq!(rt.stats(), reference.stats, "stats must be bit-identical");
    assert_tallies_equal("rejoin", &rt.into_recorder(), &reference.transcript);
    for h in handles {
        h.join().unwrap();
    }
}

/// Records every request the wrapped transport delivers to player 0.
struct PlayerZeroLog {
    inner: LocalTransport,
    requests: Arc<Mutex<Vec<PlayerRequest>>>,
}

impl Transport for PlayerZeroLog {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        if player == 0 {
            self.requests.lock().unwrap().push(req.clone());
        }
        self.inner.try_deliver(player, req)
    }
}

#[test]
fn rejoin_inside_a_degree_experiment_round_is_bit_identical() {
    // A player that drops its connection on a degree-experiment batch,
    // before answering it, then rejoins: the coordinator replays the
    // whole batch on the new connection, below the charging layer, so
    // the run equals the in-process one — verdict, stats and tally.
    let (g, parts) = workload(240, 3, 5);
    let n = g.vertex_count();
    let input = PreparedInput::new(&g, &parts).unwrap();
    let tester = UnrestrictedTester::new(Tuning::practical(0.2));
    let seed = 11u64;
    let reference = tester.run_prepared(&input, seed, None).unwrap().run;
    // Where player 0's first degree-experiment round starts, counted in
    // logical requests (the same with or without rounds).
    let log = Arc::new(Mutex::new(Vec::new()));
    let shared = SharedRandomness::new(seed);
    let mut rt: Runtime<Tally> = Runtime::new_with(
        Box::new(PlayerZeroLog {
            inner: LocalTransport::new(n, parts.shares(), shared),
            requests: Arc::clone(&log),
        }),
        n,
        shared,
        CostModel::Coordinator,
    );
    tester.run_on(&mut rt);
    let log = log.lock().unwrap();
    let before = log
        .iter()
        .position(|r| matches!(r, PlayerRequest::SampleHit { .. }))
        .expect("the tester runs degree experiments");
    let round = log[before..]
        .iter()
        .take_while(|r| matches!(r, PlayerRequest::SampleHit { .. }))
        .count();
    assert!(
        round > 1,
        "premise: the experiments travel as a round of {round}"
    );
    // With `before + 1` as its budget, player 0 answers every frame up to
    // the round and walks away on reading the round's batch.
    let limit = before as u64 + 1;
    let shares = Arc::new(parts.shares().to_vec());
    let cfg = config("unrestricted", 3, n, seed, 0.2, 6.0);
    let coordinator = TcpCoordinator::bind("127.0.0.1:0").expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr");
    let handles: Vec<_> = (0..3u32)
        .map(|j| {
            let shares = Arc::clone(&shares);
            std::thread::spawn(move || {
                let opts = ConnectOptions {
                    slot: Some(j),
                    retries: 40,
                    backoff: Duration::from_millis(10),
                    ..ConnectOptions::default()
                };
                let session = PlayerSession::connect_with(addr, &opts).unwrap();
                let w = session.welcome().clone();
                let state =
                    PlayerState::new(w.player as usize, w.n as usize, &shares[w.player as usize]);
                let mut sim = sim_closure(&w);
                if j != 0 {
                    return session.serve(&state, sim).ok();
                }
                let walked = session.serve_until(&state, &mut sim, Some(limit)).unwrap();
                assert_eq!(
                    walked.requests,
                    limit - 1,
                    "dropped on the round, unanswered"
                );
                assert_eq!(walked.farewell, None);
                let claim = ResumeClaim {
                    slot: w.player,
                    nonce: w.resume_nonce,
                    last_acked: 0,
                };
                let rejoined = PlayerSession::rejoin_with(addr, &opts, claim).unwrap();
                rejoined.serve(&state, sim).ok()
            })
        })
        .collect();
    let options = SessionOptions {
        auth_token: None,
        reconnect_window: Duration::from_secs(20),
    };
    let transport = coordinator
        .accept_players_with(&cfg, TIMEOUT, &options)
        .expect("register all players");
    let handle = Arc::new(Mutex::new(transport));
    let mut rt: Runtime<Tally> = Runtime::new_with(
        Box::new(SharedTransport::new(Arc::clone(&handle))),
        n,
        SharedRandomness::new(seed),
        CostModel::Coordinator,
    );
    let outcome = tester.run_on(&mut rt);
    assert_eq!(
        rt.take_fault(),
        None,
        "the rejoin must be invisible to the run"
    );
    assert_eq!(outcome.triangle(), reference.outcome.triangle());
    assert_eq!(rt.stats(), reference.stats, "stats must be bit-identical");
    assert_tallies_equal(
        "rejoin in a round",
        &rt.into_recorder(),
        &reference.transcript,
    );
    handle.lock().unwrap().goodbye("done");
    for h in handles {
        let summary = h.join().unwrap().expect("served to the goodbye");
        assert_eq!(summary.farewell.as_deref(), Some("done"));
    }
}

#[test]
fn window_expiry_degrades_to_inconclusive_and_later_runs_recover() {
    // Persistent-mode liveness: run 0 loses player 0 past the reconnect
    // window — the run records a typed expiry and degrades to
    // Inconclusive, never a flipped verdict. The daemon then proceeds:
    // the window re-arms on the next run's reseed, player 0 rejoins,
    // and run 1 is bit-identical to the uninterrupted reference.
    let g = Graph::from_edges(60, (0..59).map(|i| (i as u32, i as u32 + 1)));
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let parts = random_disjoint(&g, 3, &mut rng);
    let input = PreparedInput::new(&g, &parts).unwrap();
    let tester = UnrestrictedTester::new(Tuning::practical(0.2));
    let (seed0, seed1) = (4u64, 5u64);
    let reference1 = tester.run_prepared(&input, seed1, None).unwrap().run;
    let shares = Arc::new(parts.shares().to_vec());
    let cfg = config("unrestricted", 3, g.vertex_count(), seed0, 0.2, 2.0);
    let coordinator = TcpCoordinator::bind("127.0.0.1:0").expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr");
    let (rearm_tx, rearm_rx) = std::sync::mpsc::channel::<()>();
    let mut rearm_rx = Some(rearm_rx);
    let handles: Vec<_> = (0..3u32)
        .map(|j| {
            let shares = Arc::clone(&shares);
            let rearm_rx = if j == 0 { rearm_rx.take() } else { None };
            std::thread::spawn(move || {
                let opts = ConnectOptions {
                    slot: Some(j),
                    retries: 40,
                    backoff: Duration::from_millis(5),
                    ..ConnectOptions::default()
                };
                let session = PlayerSession::connect_with(addr, &opts).unwrap();
                let w = session.welcome().clone();
                let state =
                    PlayerState::new(w.player as usize, w.n as usize, &shares[w.player as usize]);
                let mut sim = sim_closure(&w);
                if j == 0 {
                    // Walk away in run 0 and sit out the whole window…
                    let _ = session.serve_until(&state, &mut sim, Some(2));
                    // …then rejoin only once run 1's reseed has re-armed
                    // the slot (the main thread signals after
                    // adopt_shared).
                    rearm_rx.unwrap().recv().unwrap();
                    let rejoined = PlayerSession::rejoin_with(
                        addr,
                        &opts,
                        ResumeClaim {
                            slot: w.player,
                            nonce: w.resume_nonce,
                            last_acked: 2,
                        },
                    )
                    .unwrap();
                    let _ = rejoined.serve(&state, sim);
                } else {
                    let _ = session.serve(&state, sim);
                }
            })
        })
        .collect();
    let options = SessionOptions {
        auth_token: None,
        reconnect_window: Duration::from_millis(300),
    };
    let transport = coordinator
        .accept_players_with(&cfg, TIMEOUT, &options)
        .expect("register all players");
    let handle = Arc::new(std::sync::Mutex::new(transport));
    // Run 0: the window expires with nobody rejoining.
    let mut rt0: Runtime<Tally> = Runtime::new_with(
        Box::new(SharedTransport::new(Arc::clone(&handle))),
        g.vertex_count(),
        SharedRandomness::new(seed0),
        CostModel::Coordinator,
    );
    let outcome0 = tester.run_on(&mut rt0);
    let fault = rt0.take_fault().expect("run 0 must fault on expiry");
    assert_eq!(fault.kind(), RunErrorKind::Aborted, "{fault}");
    assert!(
        fault.to_string().contains("reconnect window expired"),
        "{fault}"
    );
    assert_eq!(outcome0.triangle(), None, "no witness on a path graph");
    assert_eq!(
        single_run_verdict(outcome0, Some(&fault)),
        ChaosOutcome::Inconclusive,
        "expiry degrades, never flips"
    );
    // Run 1: the reseed re-arms the detached slot's window; player 0
    // rejoins and the run completes clean — `triad serve --runs R`
    // keeps serving after a degraded run.
    handle
        .lock()
        .unwrap()
        .adopt_shared(SharedRandomness::new(seed1));
    rearm_tx.send(()).unwrap();
    let mut rt1: Runtime<Tally> = Runtime::new_with(
        Box::new(SharedTransport::new(Arc::clone(&handle))),
        g.vertex_count(),
        SharedRandomness::new(seed1),
        CostModel::Coordinator,
    );
    let outcome1 = tester.run_on(&mut rt1);
    assert_eq!(rt1.take_fault(), None, "run 1 must be fault-free");
    assert_eq!(outcome1.triangle(), reference1.outcome.triangle());
    assert_eq!(rt1.stats(), reference1.stats, "run 1 stats");
    assert_tallies_equal("run 1", &rt1.into_recorder(), &reference1.transcript);
    handle.lock().unwrap().goodbye("done");
    drop(handle);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn faulty_tcp_transport_matches_faulty_local_rep_by_rep() {
    // The chaos harness is the conformance suite: the runtime draws the
    // deterministic fault schedule *above* the transport, in the order
    // it consumes answers, so a faulted runtime over TCP rounds must
    // reproduce the local chaos runs exactly — verdict, fault, stats,
    // and injected-fault counts, per repetition.
    let (g, parts) = workload(200, 3, 9);
    let input = PreparedInput::new(&g, &parts).unwrap();
    let tester = UnrestrictedTester::new(Tuning::practical(0.2));
    let plan = FaultPlan::new(77, FaultRates::mixed(0.05));
    let mut faulted = 0;
    for rep in 0..4u32 {
        let seed = 100 + u64::from(rep);
        let reference = tester
            .run_prepared(&input, seed, Some((&plan, rep)))
            .unwrap();
        let shares = Arc::new(parts.shares().to_vec());
        let cfg = config("unrestricted", 3, g.vertex_count(), seed, 0.2, 6.0);
        let (transport, players) = loopback_transport(&cfg, shares, None);
        let mut rt: Runtime<Tally> = Runtime::new_with(
            Box::new(transport),
            g.vertex_count(),
            SharedRandomness::new(seed),
            CostModel::Coordinator,
        )
        .with_faults(plan, rep);
        let outcome = tester.run_on(&mut rt);
        // Every repetition's fault is compared, including one a witness
        // survived.
        assert_eq!(rt.take_fault(), reference.fault, "rep {rep}: fault");
        faulted += usize::from(reference.fault.is_some());
        assert_eq!(
            outcome.triangle(),
            reference.run.outcome.triangle(),
            "rep {rep}: outcome"
        );
        assert_eq!(rt.stats(), reference.run.stats, "rep {rep}: stats");
        assert_eq!(
            rt.injected(),
            reference.injected,
            "rep {rep}: injected faults"
        );
        assert_tallies_equal(
            &format!("rep {rep}"),
            &rt.into_recorder(),
            &reference.run.transcript,
        );
        for p in players {
            p.join().unwrap();
        }
    }
    assert!(faulted > 0, "the plan should leave some repetition faulted");
}
