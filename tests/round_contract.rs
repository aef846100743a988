//! The broadcast round's contract: `Runtime::broadcast_each(reqs, ..)`
//! answers, charges and fails exactly as `reqs.len()` separate
//! `broadcast` calls — same payloads, same first fault, same
//! `CommStats` and the same per-phase/player/round/direction rollups —
//! under every cost model, whether the transport delivers one request
//! at a time (`LocalTransport`) or a frame of the round at once
//! (`TcpTransport` over loopback, or an in-process transport that
//! answers whole frames). Under injected faults the round meets the same
//! faults as the separate requests. The same holds for gathers:
//! `gather_edges_all(reqs)` returns, charges and fails as one
//! `gather_edges` per request. A round larger than
//! `MAX_FRAME_REQUESTS` travels as several frames.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use triad::comm::{
    CostModel, FaultPlan, FaultRates, LocalTransport, Payload, PlayerRequest, PlayerSession,
    PlayerState, RunError, RunErrorKind, Runtime, ServeConfig, SharedRandomness, SharedTransport,
    SimMessage, Tally, TcpCoordinator, Transport, MAX_FRAME_REQUESTS,
};
use triad::graph::generators::gnp_with_average_degree;
use triad::graph::partition::with_duplication;
use triad::graph::{Edge, VertexId};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const N: usize = 60;
const K: usize = 3;
const SEED: u64 = 17;
const MODELS: [CostModel; 3] = [
    CostModel::Coordinator,
    CostModel::Blackboard,
    CostModel::MessagePassing,
];

/// Shares with duplicated edges, so the blackboard's dedup of gathered
/// edges has something to save.
fn shares() -> Vec<Vec<Edge>> {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = gnp_with_average_degree(N, 6.0, &mut rng);
    with_duplication(&g, K, 0.4, &mut rng).shares().to_vec()
}

/// A script: rounds of requests, each sent under its own phase.
type Script = Vec<(&'static str, Vec<PlayerRequest>)>;

/// Rounds of every shape the protocols send: a guess's degree
/// experiments, edge-count experiments, a mix of request kinds
/// (edge-producing ones included), a round of one, an empty round and a
/// round of 300 that travels as several frames.
fn script() -> Script {
    let v = VertexId(3);
    let e = Edge::new(VertexId(1), VertexId(2));
    vec![
        (
            "experiments",
            (1..=20)
                .map(|tag| PlayerRequest::SampleHit { v, tag, p: 0.25 })
                .collect(),
        ),
        (
            "edge-count",
            (21..=25)
                .map(|tag| PlayerRequest::GlobalSampleHit { tag, p: 0.05 })
                .collect(),
        ),
        (
            "mixed",
            vec![
                PlayerRequest::DegreeMsb { v },
                PlayerRequest::LocalEdgeCount,
                PlayerRequest::HasEdge(e),
                PlayerRequest::InducedEdges {
                    tag: 26,
                    p: 0.5,
                    cap: 100,
                },
                PlayerRequest::LocalDegree { v },
            ],
        ),
        ("one", vec![PlayerRequest::EdgeCountMsb]),
        ("empty", Vec::new()),
        (
            "large",
            (0..300u32)
                .map(|i| PlayerRequest::SampleHit {
                    v: VertexId(i % N as u32),
                    tag: 100 + u64::from(i),
                    p: 0.3,
                })
                .collect(),
        ),
    ]
}

/// Rounds of edge-producing requests: both kinds mixed, a round of one
/// and an empty round.
fn gather_script() -> Script {
    let incident = |i: u32| PlayerRequest::IncidentEdgesSampled {
        v: VertexId(i),
        tag: 40 + u64::from(i),
        p: 0.7,
        cap: 5,
    };
    vec![
        (
            "gather-mixed",
            (0..8)
                .map(incident)
                .chain([PlayerRequest::InducedEdges {
                    tag: 50,
                    p: 0.3,
                    cap: 100,
                }])
                .collect(),
        ),
        (
            "gather-one",
            vec![PlayerRequest::InducedEdges {
                tag: 51,
                p: 1.0,
                cap: 1000,
            }],
        ),
        ("gather-empty", Vec::new()),
    ]
}

/// Frames per player that sending `script` round by round takes.
fn frames_of(script: &Script) -> usize {
    script
        .iter()
        .map(|(_, reqs)| reqs.len().div_ceil(MAX_FRAME_REQUESTS))
        .sum()
}

/// Logical requests in `script`.
fn requests_of(script: &Script) -> usize {
    script.iter().map(|(_, reqs)| reqs.len()).sum()
}

type Rows = Vec<Vec<Payload<'static>>>;
type Unions = Vec<Vec<Edge>>;

/// Runs `round` once per script round, each in its own phase and round
/// of the recorder, so every rollup has something to compare.
fn drive<T>(
    rt: &mut Runtime<Tally>,
    script: Script,
    mut round: impl FnMut(&mut Runtime<Tally>, &[PlayerRequest]) -> T,
) -> Vec<T> {
    script
        .iter()
        .map(|(phase, reqs)| {
            let out = rt.phase(phase, |rt| round(rt, reqs));
            rt.next_round();
            out
        })
        .collect()
}

/// The round through `broadcast_each`.
fn as_rounds(rt: &mut Runtime<Tally>) -> Vec<Rows> {
    drive(rt, script(), |rt, reqs| {
        let mut rows = Vec::new();
        rt.broadcast_each(reqs.to_vec(), |row| rows.push(row));
        rows
    })
}

/// The same requests through one `broadcast` each.
fn one_by_one(rt: &mut Runtime<Tally>) -> Vec<Rows> {
    drive(rt, script(), |rt, reqs| {
        reqs.iter().map(|r| rt.broadcast(r.clone())).collect()
    })
}

/// The gathers through `gather_edges_all`.
fn gathers_as_rounds(rt: &mut Runtime<Tally>) -> Vec<Unions> {
    drive(rt, gather_script(), |rt, reqs| {
        rt.gather_edges_all(reqs.to_vec())
    })
}

/// The same gathers through one `gather_edges` each.
fn gathers_one_by_one(rt: &mut Runtime<Tally>) -> Vec<Unions> {
    drive(rt, gather_script(), |rt, reqs| {
        reqs.iter().map(|r| rt.gather_edges(r.clone())).collect()
    })
}

fn assert_same_accounting(label: &str, got: &Runtime<Tally>, want: &Runtime<Tally>) {
    assert_eq!(got.stats(), want.stats(), "{label}: stats");
    let (got, want) = (got.recorder(), want.recorder());
    assert_eq!(got.by_phase(), want.by_phase(), "{label}: by phase");
    assert_eq!(got.by_player(), want.by_player(), "{label}: by player");
    assert_eq!(got.by_round(), want.by_round(), "{label}: by round");
    assert_eq!(
        got.by_direction(),
        want.by_direction(),
        "{label}: by direction"
    );
}

fn runtime(transport: impl Transport + 'static, model: CostModel) -> Runtime<Tally> {
    Runtime::new_with(Box::new(transport), N, SharedRandomness::new(SEED), model)
}

fn local() -> LocalTransport {
    LocalTransport::new(N, &shares(), SharedRandomness::new(SEED))
}

/// A local transport that answers each frame of a round at once, as
/// `TcpTransport` does.
struct InRounds(LocalTransport);

impl Transport for InRounds {
    fn k(&self) -> usize {
        self.0.k()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        self.0.try_deliver(player, req)
    }

    fn try_deliver_round(
        &mut self,
        reqs: &[PlayerRequest],
    ) -> Option<Vec<Result<Vec<Payload<'static>>, RunError>>> {
        let k = self.k();
        Some(
            (0..k)
                .map(|j| reqs.iter().map(|r| self.0.try_deliver(j, r)).collect())
                .collect(),
        )
    }
}

#[test]
fn rounds_match_separate_broadcasts_in_process() {
    for model in MODELS {
        let label = format!("{model:?}");
        let mut round = runtime(local(), model);
        let mut single = runtime(local(), model);
        assert_eq!(as_rounds(&mut round), one_by_one(&mut single), "{label}");
        assert_eq!(round.take_fault(), None, "{label}");
        assert_eq!(single.take_fault(), None, "{label}");
        assert_same_accounting(&label, &round, &single);
        assert!(
            round.stats().total_bits > 0,
            "{label}: the script communicates"
        );

        let mut round = runtime(local(), model);
        let mut single = runtime(local(), model);
        let unions = gathers_as_rounds(&mut round);
        assert_eq!(unions, gathers_one_by_one(&mut single), "{label}: gathers");
        assert_eq!(round.take_fault(), None, "{label}: gathers");
        assert_same_accounting(&format!("{label}, gathers"), &round, &single);
        assert!(
            unions.iter().flatten().filter(|u| u.len() > 1).count() > 3,
            "{label}: the gathers return edges"
        );
    }
}

#[test]
fn rounds_match_separate_broadcasts_under_injected_faults() {
    // A crash-bearing mixed rate: drops, corruptions and duplicates are
    // retried and charged as retransmits, crashes end the round. The
    // runtime draws the fault schedule per player and attempt, in the
    // order it consumes answers, so a round answered a frame at once
    // must hit the same faults at the same requests as separate
    // broadcasts answered one at a time.
    let plan = FaultPlan::new(77, FaultRates::mixed(0.08));
    let mut crashed = 0;
    let mut recovered = 0;
    let mut gather_crashed = 0;
    for rep in 0..12u32 {
        for model in MODELS {
            let label = format!("rep {rep}, {model:?}");
            let mut round = runtime(InRounds(local()), model).with_faults(plan, rep);
            let mut single = runtime(local(), model).with_faults(plan, rep);
            assert_eq!(as_rounds(&mut round), one_by_one(&mut single), "{label}");
            let fault = round.take_fault();
            assert_eq!(fault, single.take_fault(), "{label}: fault");
            assert_same_accounting(&label, &round, &single);
            assert_eq!(
                round.injected(),
                single.injected(),
                "{label}: injected faults"
            );
            crashed += usize::from(fault.is_some_and(|f| f.kind() == RunErrorKind::Transport));
            recovered += usize::from(round.injected().drops > 0);

            let mut round = runtime(InRounds(local()), model).with_faults(plan, rep);
            let mut single = runtime(local(), model).with_faults(plan, rep);
            assert_eq!(
                gathers_as_rounds(&mut round),
                gathers_one_by_one(&mut single),
                "{label}: gathers"
            );
            let fault = round.take_fault();
            assert_eq!(fault, single.take_fault(), "{label}: gather fault");
            assert_same_accounting(&format!("{label}, gathers"), &round, &single);
            assert_eq!(
                round.injected(),
                single.injected(),
                "{label}: gather faults"
            );
            gather_crashed +=
                usize::from(fault.is_some_and(|f| f.kind() == RunErrorKind::Transport));
        }
    }
    assert!(
        gather_crashed > 0,
        "the plan should crash a player mid-gather"
    );
    assert!(
        crashed > 0,
        "the plan should crash a player in some repetition"
    );
    assert!(recovered > 0, "the plan should drop and retry some request");
}

#[test]
fn rounds_over_tcp_match_separate_broadcasts_in_process() {
    let shares = Arc::new(shares());
    let coordinator = TcpCoordinator::bind("127.0.0.1:0").expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr");
    let players: Vec<_> = (0..K)
        .map(|_| {
            let shares = Arc::clone(&shares);
            std::thread::spawn(move || {
                let session = PlayerSession::connect(addr, None, Duration::from_secs(20)).unwrap();
                let w = session.welcome().clone();
                let state = PlayerState::new(w.player as usize, N, &shares[w.player as usize]);
                session
                    .serve(&state, |_, _| SimMessage::empty())
                    .expect("serve to the goodbye")
            })
        })
        .collect();
    let cfg = ServeConfig {
        k: K,
        n: N,
        seed: SEED,
        cost_model: CostModel::Coordinator,
        protocol: "unrestricted".into(),
        params: String::new(),
    };
    let transport = coordinator
        .accept_players(&cfg, Duration::from_secs(20))
        .expect("register every player");
    let handle = Arc::new(Mutex::new(transport));
    let tcp = |model| runtime(SharedTransport::new(Arc::clone(&handle)), model);
    let mut logical = 0;
    for model in MODELS {
        let label = format!("{model:?}");
        let mut round = tcp(model);
        let mut single = runtime(local(), model);
        assert_eq!(as_rounds(&mut round), one_by_one(&mut single), "{label}");
        assert_eq!(round.take_fault(), None, "{label}");
        assert_same_accounting(&label, &round, &single);

        // Separate broadcasts over TCP are rounds of one.
        let mut separate = tcp(model);
        let mut single = runtime(local(), model);
        assert_eq!(
            one_by_one(&mut separate),
            one_by_one(&mut single),
            "{label}: separate"
        );
        assert_same_accounting(&format!("{label}, separate"), &separate, &single);

        let mut round = tcp(model);
        let mut single = runtime(local(), model);
        assert_eq!(
            gathers_as_rounds(&mut round),
            gathers_one_by_one(&mut single),
            "{label}: gathers"
        );
        assert_eq!(round.take_fault(), None, "{label}: gathers");
        assert_same_accounting(&format!("{label}, gathers"), &round, &single);
        let mut separate = tcp(model);
        let mut single = runtime(local(), model);
        assert_eq!(
            gathers_one_by_one(&mut separate),
            gathers_one_by_one(&mut single),
            "{label}: separate gathers"
        );
        assert_same_accounting(&format!("{label}, separate gathers"), &separate, &single);
        logical += 2 * requests_of(&script()) + 2 * requests_of(&gather_script());
    }
    handle.lock().unwrap().goodbye("done");
    let mut requests = 0;
    let mut frames = 0;
    for p in players {
        let summary = p.join().unwrap();
        assert_eq!(summary.farewell.as_deref(), Some("done"));
        requests += summary.requests;
        frames += summary.frames;
    }
    assert_eq!(
        requests as usize,
        K * logical,
        "every logical request was answered once"
    );
    // A round pass sends ⌈len / MAX_FRAME_REQUESTS⌉ frames per round
    // (three for the round of 300); a one-by-one pass sends one frame
    // per request.
    assert_eq!(script().iter().map(|(_, reqs)| reqs.len()).max(), Some(300));
    let per_model = frames_of(&script())
        + requests_of(&script())
        + frames_of(&gather_script())
        + requests_of(&gather_script());
    assert_eq!(frames as usize, K * MODELS.len() * per_model);
}
