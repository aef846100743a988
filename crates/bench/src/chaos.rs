//! Chaos-matrix benchmark — the `BENCH_chaos.json` export.
//!
//! Sweeps fault rate × protocol × player count over a deterministic
//! triangle-free workload and records, per cell, the quorum-gated
//! verdict, per-error-kind failure counts, the faults actually injected,
//! and the recovery traffic charged under
//! [`triad_comm::RETRANSMIT_LABEL`]. Unlike the kernel timings
//! (`BENCH_kernels.json`) every number here is deterministic — same
//! seeds, same plan, same verdict at any thread count — so
//! `BENCH_chaos.json` is byte-diffable across machines.
//!
//! The rate-0 rows are the control group: the fault-free chaos path is
//! byte-identical to the plain amplified path (pinned by
//! `tests/chaos_differential.rs`), so those rows must show zero
//! failures, zero injections and zero retransmitted bits.

use std::sync::Arc;
use std::time::Duration;

use crate::experiments::Scale;
use crate::workloads::bipartite_workload;
use triad_comm::pool::Pool;
use triad_comm::{
    ConnectOptions, CostModel, FaultPlan, FaultRates, PlayerSession, PlayerState, Recorder,
    ResumeClaim, RunError, RunErrorKind, Runtime, ServeConfig, SessionOptions, SharedRandomness,
    SimMessage, Tally, TcpCoordinator,
};
use triad_protocols::amplify::PreparedInput;
use triad_protocols::baseline::SendEverything;
use triad_protocols::{
    run_chaos_amplified, single_run_verdict, ChaosRun, Repeatable, SimProtocolKind,
    SimultaneousTester, Tuning, UnrestrictedTester, DEFAULT_QUORUM,
};

/// One cell of the chaos matrix: one protocol amplified under one fault
/// plan on one workload.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Protocol under amplification.
    pub protocol: String,
    /// Fault mix of the plan (`none` or `mixed`).
    pub faults: String,
    /// Aggregate per-delivery fault rate of the plan.
    pub rate: f64,
    /// Vertex count of the (triangle-free) input.
    pub vertices: usize,
    /// Edge count of the input.
    pub edges: usize,
    /// Number of players.
    pub players: usize,
    /// Scheduled repetitions (all attempted: the input is triangle-free,
    /// so no witness short-circuits the sweep).
    pub repetitions: u32,
    /// The fault plan's seed.
    pub seed: u64,
    /// The survivor quorum applied.
    pub quorum: f64,
    /// The completed chaos run behind the cell.
    pub run: ChaosRun,
}

impl ChaosCell {
    fn to_json(&self) -> String {
        let r = &self.run;
        let mut s = String::from("{");
        s.push_str(&format!("\"protocol\":\"{}\",", self.protocol));
        s.push_str(&format!("\"faults\":\"{}\",", self.faults));
        s.push_str(&format!("\"rate\":{:.3},", self.rate));
        s.push_str(&format!("\"vertices\":{},", self.vertices));
        s.push_str(&format!("\"edges\":{},", self.edges));
        s.push_str(&format!("\"players\":{},", self.players));
        s.push_str(&format!("\"repetitions\":{},", self.repetitions));
        s.push_str(&format!("\"seed\":{},", self.seed));
        s.push_str(&format!("\"quorum\":{:.3},", self.quorum));
        s.push_str(&format!("\"outcome\":\"{}\",", r.outcome.as_str()));
        s.push_str(&format!("\"survived\":{},", r.survived));
        s.push_str(&format!("\"attempted\":{},", r.attempted));
        s.push_str(&format!("\"needed\":{},", r.needed));
        s.push_str(&format!(
            "\"failures\":{{\"transport\":{},\"timeout\":{},\"corrupt\":{},\"aborted\":{}}},",
            r.failures.transport, r.failures.timeout, r.failures.corrupt, r.failures.aborted
        ));
        s.push_str(&format!(
            "\"injected\":{{\"drops\":{},\"corruptions\":{},\"duplicates\":{},\"delays\":{},\"crashes\":{}}},",
            r.injected.drops,
            r.injected.corruptions,
            r.injected.duplicates,
            r.injected.delays,
            r.injected.crashes
        ));
        s.push_str(&format!("\"total_bits\":{},", r.stats.total_bits));
        s.push_str(&format!("\"retransmit_bits\":{}", r.retransmit_bits()));
        s.push('}');
        s
    }
}

/// Runs one chaos cell: `protocol` amplified `repetitions` times on
/// `input` under a [`FaultRates::mixed`] plan at `rate` (rate 0 uses
/// [`FaultRates::none`] and is labelled `none`).
pub fn chaos_cell<T: Repeatable + Sync>(
    pool: &Pool,
    protocol: &str,
    tester: &T,
    input: &PreparedInput<'_>,
    repetitions: u32,
    rate: f64,
    plan_seed: u64,
) -> ChaosCell {
    let (faults, rates) = if rate == 0.0 {
        ("none", FaultRates::none())
    } else {
        ("mixed", FaultRates::mixed(rate))
    };
    let run = run_chaos_amplified(
        pool,
        tester,
        input,
        repetitions,
        11,
        &FaultPlan::new(plan_seed, rates),
        DEFAULT_QUORUM,
    );
    ChaosCell {
        protocol: protocol.to_string(),
        faults: faults.to_string(),
        rate,
        vertices: input.n(),
        edges: input
            .graph()
            .expect("chaos suite prepares its inputs with a graph")
            .edge_count(),
        players: input.k(),
        repetitions,
        seed: plan_seed,
        quorum: DEFAULT_QUORUM,
        run,
    }
}

/// One row of the reconnect matrix: a live loopback daemon run with a
/// scripted mid-run disconnect (`docs/NETWORKING.md`, *Sessions*). The
/// `rejoin` scenario drops player 0 after two answered requests and
/// rejoins it inside a generous window: the interrupted delivery
/// replays below the charging layer, so the verdict, [`CommStats`] and
/// the full tally must match the uninterrupted in-process reference
/// bit for bit (`matches_uninterrupted`). The `expire` scenario lets
/// the window lapse instead: the run records a typed abort and the
/// verdict degrades to `inconclusive` — it never flips to an accept.
///
/// [`CommStats`]: triad_comm::CommStats
#[derive(Debug, Clone)]
pub struct ReconnectCell {
    /// `rejoin` (reconnect inside the window) or `expire` (window
    /// lapses with the slot detached).
    pub scenario: String,
    /// Protocol under test. Requests are answered statelessly from the
    /// seed in force, so any multi-round protocol exercises the replay
    /// path; the matrix uses `unrestricted`.
    pub protocol: String,
    /// Vertex count of the (triangle-free) input.
    pub vertices: usize,
    /// Edge count of the input.
    pub edges: usize,
    /// Number of players.
    pub players: usize,
    /// Reconnect window the daemon served with, in milliseconds.
    pub window_ms: u64,
    /// Shared-randomness seed of the run.
    pub seed: u64,
    /// Single-run quorum verdict (`accepted`, `inconclusive`, or
    /// `triangle-found`) per [`single_run_verdict`].
    pub verdict: String,
    /// Coarse kind of the recorded fault (`none` on a clean run,
    /// `aborted` on window expiry).
    pub fault: String,
    /// Whether verdict, stats, and every tally rollup matched the
    /// uninterrupted in-process reference exactly.
    pub matches_uninterrupted: bool,
    /// Logical payload bits charged before the run ended.
    pub total_bits: u64,
}

impl ReconnectCell {
    fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"scenario\":\"{}\",", self.scenario));
        s.push_str(&format!("\"protocol\":\"{}\",", self.protocol));
        s.push_str(&format!("\"vertices\":{},", self.vertices));
        s.push_str(&format!("\"edges\":{},", self.edges));
        s.push_str(&format!("\"players\":{},", self.players));
        s.push_str(&format!("\"window_ms\":{},", self.window_ms));
        s.push_str(&format!("\"seed\":{},", self.seed));
        s.push_str(&format!("\"verdict\":\"{}\",", self.verdict));
        s.push_str(&format!("\"fault\":\"{}\",", self.fault));
        s.push_str(&format!(
            "\"matches_uninterrupted\":{},",
            self.matches_uninterrupted
        ));
        s.push_str(&format!("\"total_bits\":{}", self.total_bits));
        s.push('}');
        s
    }
}

/// Runs one reconnect scenario over a real loopback daemon. Player 0
/// answers two requests and drops its connection; with `rejoin` it
/// presents its resume nonce and serves on, otherwise it stays away and
/// the slot's window expires. The cell records the verdict, the typed
/// fault (if any), and whether the run matched the uninterrupted
/// in-process reference bit for bit. Every number is deterministic: the
/// disconnect is scripted at a fixed request count, so the same seeds
/// produce the same row on any machine.
pub fn reconnect_cell(
    rejoin: bool,
    window: Duration,
    n: usize,
    d: f64,
    seed: u64,
) -> ReconnectCell {
    let k = 3usize;
    let (g, parts) = bipartite_workload(n, d, k, 7);
    let input = PreparedInput::new(&g, &parts).expect("valid workload");
    let tester = UnrestrictedTester::new(Tuning::practical(0.2));
    let reference = tester
        .run_prepared(&input, seed, None)
        .expect("the unrestricted tester refuses no parameters")
        .run;
    let shares = Arc::new(parts.shares().to_vec());
    let cfg = ServeConfig {
        k,
        n: g.vertex_count(),
        seed,
        cost_model: CostModel::Coordinator,
        protocol: "unrestricted".to_string(),
        params: format!("eps=0.2 d={d}"),
    };
    let coordinator = TcpCoordinator::bind("127.0.0.1:0").expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr");
    let handles: Vec<_> = (0..k as u32)
        .map(|j| {
            let shares = Arc::clone(&shares);
            std::thread::spawn(move || {
                let opts = ConnectOptions {
                    slot: Some(j),
                    retries: 40,
                    backoff: Duration::from_millis(10),
                    ..ConnectOptions::default()
                };
                let Ok(session) = PlayerSession::connect_with(addr, &opts) else {
                    return;
                };
                let w = session.welcome().clone();
                let state =
                    PlayerState::new(w.player as usize, w.n as usize, &shares[w.player as usize]);
                let sim = |_: &PlayerState, _: &SharedRandomness| SimMessage::empty();
                if j == 0 {
                    // The scripted casualty: answer two requests, then
                    // drop the connection mid-round…
                    let _ = session.serve_until(&state, sim, Some(2));
                    if rejoin {
                        // …and come straight back with the resume nonce.
                        if let Ok(back) = PlayerSession::rejoin_with(
                            addr,
                            &opts,
                            ResumeClaim {
                                slot: w.player,
                                nonce: w.resume_nonce,
                                last_acked: 2,
                            },
                        ) {
                            let _ = back.serve(&state, sim);
                        }
                    }
                } else {
                    let _ = session.serve(&state, sim);
                }
            })
        })
        .collect();
    let options = SessionOptions {
        auth_token: None,
        reconnect_window: window,
    };
    let transport = coordinator
        .accept_players_with(&cfg, Duration::from_secs(20), &options)
        .expect("register all players");
    let mut rt: Runtime<Tally> = Runtime::new_with(
        Box::new(transport),
        g.vertex_count(),
        SharedRandomness::new(seed),
        CostModel::Coordinator,
    );
    let outcome = tester.run_on(&mut rt);
    let fault = rt.take_fault();
    let verdict = single_run_verdict(outcome, fault.as_ref());
    let stats = rt.stats();
    let tally = rt.into_recorder();
    let reference_tally = &reference.transcript;
    let matches = fault.is_none()
        && outcome.triangle() == reference.outcome.triangle()
        && stats == reference.stats
        && tally.total_bits() == reference_tally.total_bits()
        && tally.by_phase() == reference_tally.by_phase()
        && tally.by_player() == reference_tally.by_player()
        && tally.by_round() == reference_tally.by_round()
        && tally.by_direction() == reference_tally.by_direction();
    for h in handles {
        let _ = h.join();
    }
    ReconnectCell {
        scenario: if rejoin { "rejoin" } else { "expire" }.to_string(),
        protocol: cfg.protocol,
        vertices: g.vertex_count(),
        edges: g.edge_count(),
        players: k,
        window_ms: window.as_millis() as u64,
        seed,
        verdict: verdict.as_str().to_string(),
        fault: match fault.as_ref().map(RunError::kind) {
            None => "none",
            Some(RunErrorKind::Transport) => "transport",
            Some(RunErrorKind::Timeout) => "timeout",
            Some(RunErrorKind::Corrupt) => "corrupt",
            Some(RunErrorKind::Aborted) => "aborted",
        }
        .to_string(),
        matches_uninterrupted: matches,
        total_bits: tally.total_bits().get(),
    }
}

/// The reconnect matrix appended to `BENCH_chaos.json`: both
/// session-layer scenarios over a live loopback daemon. The `rejoin`
/// row must report `matches_uninterrupted = true` with no fault; the
/// `expire` row must report a typed `aborted` fault and an
/// `inconclusive` verdict. Anything else is a session-layer regression.
pub fn reconnect_suite(scale: Scale) -> Vec<ReconnectCell> {
    let (n, d) = scale.pick((240, 4.0), (400, 6.0));
    let expire_window = Duration::from_millis(scale.pick(150, 300));
    vec![
        reconnect_cell(true, Duration::from_secs(20), n, d, 11),
        reconnect_cell(false, expire_window, n, d, 11),
    ]
}

/// The standard chaos matrix: fault rates × protocols × player counts
/// on triangle-free bipartite workloads, all at the default (unanimous)
/// quorum. Repetitions run on the current worker pool; the numbers are
/// thread-count-invariant.
pub fn chaos_suite(scale: Scale) -> Vec<ChaosCell> {
    let (n, d) = scale.pick((400, 6.0), (2000, 8.0));
    let reps = scale.pick(6, 16);
    let rates: &[f64] = scale.pick(&[0.0, 0.05, 0.2][..], &[0.0, 0.02, 0.05, 0.1, 0.2][..]);
    let ks: &[usize] = scale.pick(&[4][..], &[4, 8][..]);
    let tuning = Tuning::practical(0.2);
    let pool = Pool::current();
    let mut cells = Vec::new();
    for &k in ks {
        let (g, parts) = bipartite_workload(n, d, k, 7);
        let input = PreparedInput::new(&g, &parts).expect("valid workload");
        let unrestricted = UnrestrictedTester::new(tuning);
        let sim_low = SimultaneousTester::new(tuning, SimProtocolKind::Low { avg_degree: d });
        let testers: [(&str, &(dyn Repeatable + Sync)); 3] = [
            ("unrestricted", &unrestricted),
            ("sim-low", &sim_low),
            ("send-everything", &SendEverything::default()),
        ];
        for (pi, (name, tester)) in testers.into_iter().enumerate() {
            for (ri, &rate) in rates.iter().enumerate() {
                // A distinct plan seed per cell so cells don't share
                // fault streams; the derivation is fixed, so the matrix
                // is reproducible end to end.
                let plan_seed = 0xC4A0_5EED ^ ((k as u64) << 16) ^ ((pi as u64) << 8) ^ ri as u64;
                cells.push(chaos_cell(
                    &pool, name, &tester, &input, reps, rate, plan_seed,
                ));
            }
        }
    }
    cells
}

/// Writes the chaos cells followed by the reconnect rows to
/// `<dir>/BENCH_chaos.json` (creating `dir` if needed) and returns the
/// path. Reconnect rows carry a `scenario` key, so consumers of the
/// original schema can filter them out by its presence.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_chaos_json(
    dir: &std::path::Path,
    cells: &[ChaosCell],
    reconnect: &[ReconnectCell],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_chaos.json");
    let body: Vec<String> = cells
        .iter()
        .map(|c| format!("  {}", c.to_json()))
        .chain(reconnect.iter().map(|c| format!("  {}", c.to_json())))
        .collect();
    std::fs::write(&path, format!("[\n{}\n]\n", body.join(",\n")))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_cells() -> Vec<ChaosCell> {
        let (g, parts) = bipartite_workload(200, 4.0, 3, 5);
        let input = PreparedInput::new(&g, &parts).unwrap();
        let pool = Pool::serial();
        vec![
            chaos_cell(
                &pool,
                "send-everything",
                &SendEverything::default(),
                &input,
                4,
                0.0,
                9,
            ),
            chaos_cell(
                &pool,
                "send-everything",
                &SendEverything::default(),
                &input,
                4,
                0.3,
                9,
            ),
        ]
    }

    #[test]
    fn rate_zero_cell_is_a_clean_control() {
        let cells = mini_cells();
        let control = &cells[0];
        assert_eq!(control.faults, "none");
        assert_eq!(control.run.failures.total(), 0);
        assert_eq!(control.run.injected.total(), 0);
        assert_eq!(control.run.retransmit_bits(), 0);
        assert_eq!(control.run.survived, control.run.attempted);
        assert_eq!(control.run.outcome.as_str(), "accepted");
    }

    #[test]
    fn faulted_cell_injects_and_never_flips_the_verdict() {
        let cells = mini_cells();
        let faulted = &cells[1];
        assert_eq!(faulted.faults, "mixed");
        assert!(
            faulted.run.injected.total() > 0,
            "{:?}",
            faulted.run.injected
        );
        // A one-sided tester on a triangle-free input can only accept or
        // refuse — a chaos cell must never invent a witness.
        assert!(matches!(
            faulted.run.outcome.as_str(),
            "accepted" | "inconclusive"
        ));
    }

    #[test]
    fn cells_are_deterministic_across_thread_counts() {
        let (g, parts) = bipartite_workload(200, 4.0, 3, 5);
        let input = PreparedInput::new(&g, &parts).unwrap();
        let serial = chaos_cell(
            &Pool::serial(),
            "send-everything",
            &SendEverything::default(),
            &input,
            5,
            0.25,
            13,
        );
        for threads in [2, 8] {
            let par = chaos_cell(
                &Pool::new(threads),
                "send-everything",
                &SendEverything::default(),
                &input,
                5,
                0.25,
                13,
            );
            assert_eq!(par.to_json(), serial.to_json(), "threads = {threads}");
        }
    }

    #[test]
    fn chaos_json_is_well_formed() {
        let cells = mini_cells();
        let reconnect = vec![reconnect_cell(true, Duration::from_secs(20), 120, 4.0, 3)];
        let dir = std::env::temp_dir().join(format!("triad-chaos-json-{}", std::process::id()));
        let path = write_chaos_json(&dir, &cells, &reconnect).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_chaos.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("]\n"));
        assert!(text.contains("\"outcome\""));
        assert!(text.contains("\"failures\":{\"transport\":"));
        assert!(text.contains("\"injected\":{\"drops\":"));
        assert!(text.contains("\"retransmit_bits\""));
        assert!(text.contains("\"scenario\":\"rejoin\""));
        assert!(text.contains("\"matches_uninterrupted\":true"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejoin_row_matches_the_uninterrupted_reference() {
        // The reconnect matrix's headline number: a mid-run disconnect
        // healed inside the window leaves no trace in the accounting.
        let cell = reconnect_cell(true, Duration::from_secs(20), 120, 4.0, 5);
        assert_eq!(cell.scenario, "rejoin");
        assert_eq!(cell.fault, "none");
        assert_eq!(cell.verdict, "accepted");
        assert!(cell.matches_uninterrupted, "{cell:?}");
        assert!(cell.total_bits > 0);
    }

    #[test]
    fn expire_row_degrades_typed_and_never_flips() {
        let cell = reconnect_cell(false, Duration::from_millis(100), 120, 4.0, 5);
        assert_eq!(cell.scenario, "expire");
        assert_eq!(cell.fault, "aborted");
        // A lost player past the window can only refuse to answer —
        // the verdict must degrade to inconclusive, never accept.
        assert_eq!(cell.verdict, "inconclusive");
        assert!(!cell.matches_uninterrupted);
    }
}
