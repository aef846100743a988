//! Amplified-sweep runtime microbench — the `BENCH_runtime.json` export.
//!
//! Times four implementations of the same amplified sweep (all
//! repetitions of a one-sided tester on a triangle-free input, so no
//! early exit shortens any path):
//!
//! * **naive** — the pre-recorder execution model, reconstructed
//!   faithfully: every repetition re-validates the shares, rebuilds the
//!   per-player states, detaches every message payload into an owned
//!   clone, and logs a full [`Transcript`] that is absorbed into the
//!   merged event log;
//! * **full** — the current full-transcript path over a
//!   [`PreparedInput`] (players built once, payloads borrowed);
//! * **tally** — the fast path: prepared input plus the zero-allocation
//!   [`Tally`] recorder;
//! * **pooled** — the tally fast path with the prepared players shared
//!   across the workers of a deterministic pool: repetitions are
//!   sharded, results merged in repetition order.
//!
//! Outcomes and total bit counts are asserted equal across all three
//! while timing, so a speedup can never be reported for a path that
//! silently changed the cost accounting. Like `BENCH_kernels.json` the
//! numbers are wall-clock and machine-dependent — not byte-diffable;
//! reference numbers live in EXPERIMENTS.md. See `docs/RUNTIME.md` for
//! the recorder and prepared-input design.

use crate::experiments::Scale;
use crate::kernels::time_best;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use triad_comm::pool::Pool;
use triad_comm::{
    run_simultaneous_prepared, CommStats, CostModel, PayloadRepr, PlayerState, Recorder, Runtime,
    SharedRandomness, SimMessage, SimultaneousProtocol, Tally, Transcript,
};
use triad_graph::partition::{random_disjoint, Partition};
use triad_graph::{Graph, GraphBuilder, Triangle};
use triad_protocols::amplify::{rep_seed, run_amplified_prepared, PreparedInput};
use triad_protocols::baseline::SendEverything;
use triad_protocols::simultaneous::{AlgHigh, AlgLow};
use triad_protocols::{ProtocolRun, TestOutcome, Tuning, UnrestrictedTester};

/// Wraps a simultaneous protocol so every message payload is detached
/// into an owned clone — reconstructing the pre-`Cow` allocation
/// behavior for the naive reference path.
struct OwnedMessages<'p, P>(&'p P);

impl<P: SimultaneousProtocol> SimultaneousProtocol for OwnedMessages<'_, P> {
    type Output = P::Output;

    fn message<'a>(&self, player: &'a PlayerState, shared: &SharedRandomness) -> SimMessage<'a> {
        self.0.message(player, shared).into_owned()
    }

    fn referee(
        &self,
        n: usize,
        messages: &[SimMessage],
        shared: &SharedRandomness,
    ) -> Self::Output {
        self.0.referee(n, messages, shared)
    }
}

/// One protocol's measured sweep timings (milliseconds).
#[derive(Debug, Clone)]
pub struct RuntimeTiming {
    /// Protocol under amplification.
    pub protocol: String,
    /// Vertex count of the (triangle-free) input.
    pub vertices: usize,
    /// Edge count of the input.
    pub edges: usize,
    /// Number of players.
    pub players: usize,
    /// Amplification repetitions (all executed: the input is
    /// triangle-free, so the sweep never exits early).
    pub repetitions: u32,
    /// Pre-recorder execution model: per-rep validate + player rebuild +
    /// owned payload clones + full transcript, milliseconds.
    pub naive_ms: f64,
    /// Current full-transcript path over a prepared input, milliseconds.
    pub full_ms: f64,
    /// Prepared input + `Tally` fast path, milliseconds.
    pub tally_ms: f64,
    /// Tally fast path with the prepared players shared across a
    /// multi-worker pool, milliseconds. Verdict, stats and bits are
    /// asserted identical to the serial paths (docs/PARALLELISM.md).
    pub pooled_ms: f64,
    /// Worker count of the pooled run.
    pub pool_workers: usize,
    /// Total bits of the sweep (agreed on by every path timed here).
    pub total_bits: u64,
}

impl RuntimeTiming {
    /// Naive sweep time divided by tally fast-path time — the headline
    /// `≥5×` number of the amplified-sweep microbench.
    pub fn speedup(&self) -> f64 {
        self.naive_ms / self.tally_ms.max(1e-9)
    }

    /// Full-transcript-on-prepared-input time divided by tally time —
    /// what the recorder choice alone buys.
    pub fn recorder_speedup(&self) -> f64 {
        self.full_ms / self.tally_ms.max(1e-9)
    }

    /// Serial tally time divided by pooled tally time — what sharing the
    /// prepared players across pool workers buys on top of the fast
    /// path.
    pub fn parallel_speedup(&self) -> f64 {
        self.tally_ms / self.pooled_ms.max(1e-9)
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"protocol\":\"{}\",", self.protocol));
        s.push_str(&format!("\"vertices\":{},", self.vertices));
        s.push_str(&format!("\"edges\":{},", self.edges));
        s.push_str(&format!("\"players\":{},", self.players));
        s.push_str(&format!("\"repetitions\":{},", self.repetitions));
        s.push_str(&format!("\"naive_ms\":{:.3},", self.naive_ms));
        s.push_str(&format!("\"full_ms\":{:.3},", self.full_ms));
        s.push_str(&format!("\"tally_ms\":{:.3},", self.tally_ms));
        s.push_str(&format!("\"pooled_ms\":{:.3},", self.pooled_ms));
        s.push_str(&format!("\"pool_workers\":{},", self.pool_workers));
        s.push_str(&format!("\"total_bits\":{},", self.total_bits));
        s.push_str(&format!("\"speedup\":{:.3},", self.speedup()));
        s.push_str(&format!(
            "\"recorder_speedup\":{:.3},",
            self.recorder_speedup()
        ));
        s.push_str(&format!(
            "\"parallel_speedup\":{:.3}",
            self.parallel_speedup()
        ));
        s.push('}');
        s
    }
}

/// A deterministic triangle-free (bipartite) workload: `n/2 · d/2`
/// random cross edges, randomly partitioned across `k` players. Shared
/// with the chaos matrix ([`crate::chaos`]): a triangle-free input
/// guarantees no early exit, so every scheduled repetition runs.
pub fn bipartite_workload(n: usize, d: f64, k: usize, seed: u64) -> (Graph, Partition) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let half = (n / 2) as u32;
    let target = (n as f64 * d / 2.0) as usize;
    let mut b = GraphBuilder::new(n);
    for _ in 0..target {
        let u = rng.gen_range(0..half);
        let v = rng.gen_range(half..n as u32);
        b.add_edge(triad_graph::Edge::new(
            triad_graph::VertexId(u),
            triad_graph::VertexId(v),
        ));
    }
    let g = b.build();
    let partition = random_disjoint(&g, k, &mut rng);
    (g, partition)
}

/// The naive sweep: everything the pre-recorder path paid per
/// repetition, reconstructed with today's public APIs.
fn naive_sweep<P: SimultaneousProtocol<Output = Option<Triangle>>>(
    protocol: &P,
    g: &Graph,
    partition: &Partition,
    reps: u32,
    base_seed: u64,
) -> (Option<Triangle>, CommStats, u64) {
    let wrapped = OwnedMessages(protocol);
    let mut stats = CommStats::default();
    let mut transcript = Transcript::new(partition.players());
    for r in 0..reps {
        // Per-rep validation + player construction, as every per-run
        // entry point performed before PreparedInput existed.
        let input = PreparedInput::new(g, partition).expect("valid workload");
        let run = run_simultaneous_prepared::<_, Transcript>(
            &wrapped,
            input.n(),
            input.players(),
            SharedRandomness::new(rep_seed(base_seed, r)),
        );
        stats = stats.merged(run.stats);
        transcript.absorb(&run.transcript);
        if let Some(t) = run.output {
            return (Some(t), stats, transcript.total_bits().get());
        }
    }
    (None, stats, transcript.total_bits().get())
}

/// The recorder-generic prepared sweep: players built once, repetitions
/// re-roll only the randomness.
fn prepared_sweep<P, R>(
    protocol: &P,
    input: &PreparedInput<'_>,
    reps: u32,
    base_seed: u64,
) -> (Option<Triangle>, CommStats, u64)
where
    P: SimultaneousProtocol<Output = Option<Triangle>>,
    R: Recorder,
{
    let mut stats = CommStats::default();
    let mut recorder = R::with_players(input.k());
    for r in 0..reps {
        let run = run_simultaneous_prepared::<_, R>(
            protocol,
            input.n(),
            input.players(),
            SharedRandomness::new(rep_seed(base_seed, r)),
        );
        stats = stats.merged(run.stats);
        recorder.absorb(&run.transcript);
        if let Some(t) = run.output {
            return (Some(t), stats, recorder.total_bits().get());
        }
    }
    (None, stats, recorder.total_bits().get())
}

/// Worker count of the pooled timing row. Fixed (rather than the
/// machine's parallelism) so the row means the same thing everywhere;
/// determinism makes the *results* identical at any worker count
/// regardless.
const POOL_WORKERS: usize = 4;

/// The tally fast path with the prepared players shared across the
/// workers of `pool`: repetitions are sharded, results are merged in
/// repetition order, so the outcome is identical to the serial sweep.
fn pooled_sweep<P>(
    pool: &Pool,
    protocol: &P,
    input: &PreparedInput<'_>,
    reps: u32,
    base_seed: u64,
) -> (Option<Triangle>, CommStats, u64)
where
    P: SimultaneousProtocol<Output = Option<Triangle>> + Sync,
{
    let runs = pool.ordered_map_until(
        reps as usize,
        |r| {
            run_simultaneous_prepared::<_, Tally>(
                protocol,
                input.n(),
                input.players(),
                SharedRandomness::new(rep_seed(base_seed, r as u32)),
            )
        },
        |run| run.output.is_some(),
    );
    let mut stats = CommStats::default();
    let mut recorder = Tally::with_players(input.k());
    let mut out = None;
    for run in runs {
        stats = stats.merged(run.stats);
        recorder.absorb(&run.transcript);
        if let Some(t) = run.output {
            out = Some(t);
            break;
        }
    }
    (out, stats, recorder.total_bits().get())
}

/// Times one protocol's amplified sweep on all three paths, asserting
/// verdicts and bit totals agree.
///
/// # Panics
///
/// Panics if any path disagrees on the outcome or the total bits — a
/// cost-accounting bug, not a measurement problem.
pub fn time_sweep<P: SimultaneousProtocol<Output = Option<Triangle>> + Sync>(
    name: &str,
    protocol: &P,
    g: &Graph,
    partition: &Partition,
    reps: u32,
    timing_reps: usize,
    base_seed: u64,
) -> RuntimeTiming {
    let input = PreparedInput::new(g, partition).expect("valid workload");
    let (naive_ms, naive) = time_best(timing_reps, || {
        naive_sweep(protocol, g, partition, reps, base_seed)
    });
    let (full_ms, full) = time_best(timing_reps, || {
        prepared_sweep::<_, Transcript>(protocol, &input, reps, base_seed)
    });
    let (tally_ms, tally) = time_best(timing_reps, || {
        prepared_sweep::<_, Tally>(protocol, &input, reps, base_seed)
    });
    let pool = Pool::new(POOL_WORKERS);
    let (pooled_ms, pooled) = time_best(timing_reps, || {
        pooled_sweep(&pool, protocol, &input, reps, base_seed)
    });
    assert_eq!(full.0, naive.0, "{name}: outcome diverged (full)");
    assert_eq!(tally.0, naive.0, "{name}: outcome diverged (tally)");
    assert_eq!(pooled.0, naive.0, "{name}: outcome diverged (pooled)");
    assert_eq!(full.1, naive.1, "{name}: stats diverged (full)");
    assert_eq!(tally.1, naive.1, "{name}: stats diverged (tally)");
    assert_eq!(pooled.1, naive.1, "{name}: stats diverged (pooled)");
    assert_eq!(tally.2, naive.2, "{name}: total bits diverged");
    assert_eq!(pooled.2, naive.2, "{name}: total bits diverged (pooled)");
    RuntimeTiming {
        protocol: name.to_string(),
        vertices: g.vertex_count(),
        edges: g.edge_count(),
        players: partition.players(),
        repetitions: reps,
        naive_ms,
        full_ms,
        tally_ms,
        pooled_ms,
        pool_workers: POOL_WORKERS,
        total_bits: naive.2,
    }
}

/// A serial full-transcript sweep over the single runs `run_rep(seed)`
/// produces, stopping at the first witness.
fn transcript_sweep(
    k: usize,
    reps: u32,
    base_seed: u64,
    run_rep: impl Fn(u64) -> ProtocolRun,
) -> (TestOutcome, CommStats, u64) {
    let mut stats = CommStats::default();
    let mut transcript = Transcript::new(k);
    for r in 0..reps {
        let run = run_rep(rep_seed(base_seed, r));
        stats = stats.merged(run.stats);
        transcript.absorb(&run.transcript);
        if run.outcome.found_triangle() {
            return (run.outcome, stats, transcript.total_bits().get());
        }
    }
    (
        TestOutcome::NoTriangleFound,
        stats,
        transcript.total_bits().get(),
    )
}

/// Times the unrestricted (interactive) tester's amplified sweep.
///
/// The naive path here is a serial loop over the public
/// [`UnrestrictedTester::run`], which re-validates and rebuilds the
/// players every repetition and logs full transcripts; `full` is
/// prepared players with a [`Transcript`]; `tally` is
/// [`run_amplified_prepared`]. The
/// unrestricted tester is the event-heavy case: each repetition records
/// per-player requests and responses across several phases, so this row
/// is where the recorder choice itself shows up.
///
/// # Panics
///
/// Panics on verdict or bit-total divergence between the paths.
pub fn time_unrestricted_sweep(
    tuning: Tuning,
    g: &Graph,
    partition: &Partition,
    reps: u32,
    timing_reps: usize,
    base_seed: u64,
) -> RuntimeTiming {
    let tester = UnrestrictedTester::new(tuning);
    let input = PreparedInput::new(g, partition).expect("valid workload");
    let serial = Pool::serial();
    let (naive_ms, naive) = time_best(timing_reps, || {
        transcript_sweep(input.k(), reps, base_seed, |seed| {
            tester.run(g, partition, seed).expect("valid workload")
        })
    });
    let (full_ms, full) = time_best(timing_reps, || {
        transcript_sweep(input.k(), reps, base_seed, |seed| {
            let mut rt = Runtime::prepared_with(
                input.n(),
                input.shared_players(),
                SharedRandomness::new(seed),
                CostModel::Coordinator,
            );
            let outcome = tester.run_on(&mut rt);
            ProtocolRun {
                outcome,
                stats: rt.stats(),
                transcript: rt.into_recorder(),
            }
        })
    });
    assert_eq!(full.0, naive.0, "unrestricted: outcome diverged (full)");
    let (tally_ms, tally) = time_best(timing_reps, || {
        let run = run_amplified_prepared(&serial, &tester, &input, reps, base_seed)
            .expect("valid workload");
        (run.outcome, run.stats, run.transcript.total_bits().get())
    });
    let pool = Pool::new(POOL_WORKERS);
    let (pooled_ms, pooled) = time_best(timing_reps, || {
        let run = run_amplified_prepared(&pool, &tester, &input, reps, base_seed)
            .expect("valid workload");
        (run.outcome, run.stats, run.transcript.total_bits().get())
    });
    assert_eq!(tally.0, naive.0, "unrestricted: outcome diverged");
    assert_eq!(pooled.0, naive.0, "unrestricted: outcome diverged (pooled)");
    assert_eq!(full.1, naive.1, "unrestricted: stats diverged (full)");
    assert_eq!(tally.1, naive.1, "unrestricted: stats diverged (tally)");
    assert_eq!(pooled.1, naive.1, "unrestricted: stats diverged (pooled)");
    assert_eq!(full.2, naive.2, "unrestricted: total bits diverged (full)");
    assert_eq!(tally.2, naive.2, "unrestricted: total bits diverged");
    assert_eq!(
        pooled.2, naive.2,
        "unrestricted: total bits diverged (pooled)"
    );
    RuntimeTiming {
        protocol: "unrestricted".to_string(),
        vertices: g.vertex_count(),
        edges: g.edge_count(),
        players: partition.players(),
        repetitions: reps,
        naive_ms,
        full_ms,
        tally_ms,
        pooled_ms,
        pool_workers: POOL_WORKERS,
        total_bits: naive.2,
    }
}

/// The standard runtime suite: the whole-input baseline (the allocation
/// worst case the borrowed payloads target), the two degree-aware §3.4
/// testers, and the interactive unrestricted tester, all on
/// triangle-free inputs so every repetition runs.
pub fn runtime_suite(scale: Scale) -> Vec<RuntimeTiming> {
    let timing_reps = scale.pick(2, 3);
    let (n, d, k) = scale.pick((1000, 8.0, 4), (6000, 10.0, 4));
    let reps = scale.pick(8, 24);
    let (g, parts) = bipartite_workload(n, d, k, 7);
    let tuning = Tuning::practical(0.2);
    vec![
        time_unrestricted_sweep(tuning, &g, &parts, reps, timing_reps, 11),
        time_sweep(
            "send-everything",
            &SendEverything::default(),
            &g,
            &parts,
            reps,
            timing_reps,
            11,
        ),
        time_sweep(
            "sim-low",
            &AlgLow::new(tuning, d),
            &g,
            &parts,
            reps,
            timing_reps,
            11,
        ),
        time_sweep(
            "sim-high",
            &AlgHigh::new(tuning, d),
            &g,
            &parts,
            reps,
            timing_reps,
            11,
        ),
        dense_payload_sweep(scale, timing_reps),
    ]
}

/// The dense-payload row: a bipartite workload thick enough that every
/// exact share clears the `dense_kernel_wins` gate, run with the
/// baseline forced onto `Payload::EdgeBits` — so the sweep exercises
/// the packed-bitset message path (borrowed `share_bitset`, bitset
/// referee union) end to end. Bit totals are asserted equal across
/// paths as everywhere else; the representation is charged identically
/// by construction.
fn dense_payload_sweep(scale: Scale, timing_reps: usize) -> RuntimeTiming {
    let (n, d, k) = scale.pick((400, 40.0, 3), (1200, 80.0, 3));
    let reps = scale.pick(8, 24);
    let (g, parts) = bipartite_workload(n, d, k, 9);
    time_sweep(
        "send-everything-dense-bits",
        &SendEverything::with_repr(PayloadRepr::Bits),
        &g,
        &parts,
        reps,
        timing_reps,
        11,
    )
}

/// Writes timings to `<dir>/BENCH_runtime.json` (creating `dir` if
/// needed) and returns the path. When `sessions` is given, its
/// scheduler-saturation sweep is appended as the final row (protocol
/// `scheduler-sessions`, queries/sec at 1/2/4/8 workers).
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_runtime_json(
    dir: &std::path::Path,
    timings: &[RuntimeTiming],
    sessions: Option<&crate::sessions::SessionSaturation>,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_runtime.json");
    let mut body: Vec<String> = timings
        .iter()
        .map(|t| format!("  {}", t.to_json()))
        .collect();
    if let Some(s) = sessions {
        body.push(format!("  {}", s.to_json()));
    }
    std::fs::write(&path, format!("[\n{}\n]\n", body.join(",\n")))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_paths_agree_and_time() {
        let (g, parts) = bipartite_workload(400, 6.0, 3, 5);
        let t = time_sweep(
            "send-everything",
            &SendEverything::default(),
            &g,
            &parts,
            4,
            1,
            3,
        );
        assert_eq!(t.players, 3);
        assert_eq!(t.repetitions, 4);
        assert!(t.total_bits > 0);
        assert!(t.speedup() > 0.0);
        assert!(t.recorder_speedup() > 0.0);
        assert!(t.parallel_speedup() > 0.0);
        assert_eq!(t.pool_workers, 4);
    }

    #[test]
    fn dense_payload_row_runs_on_bitsets() {
        let t = dense_payload_sweep(Scale::Quick, 1);
        assert_eq!(t.protocol, "send-everything-dense-bits");
        assert!(t.total_bits > 0);
        // The forced representation must not change the accounting: an
        // edge-list run over the same workload agrees bit for bit.
        let (g, parts) = bipartite_workload(400, 40.0, 3, 9);
        let e = time_sweep(
            "reference-edges",
            &SendEverything::with_repr(PayloadRepr::Edges),
            &g,
            &parts,
            Scale::Quick.pick(8, 24),
            1,
            11,
        );
        assert_eq!(t.total_bits, e.total_bits);
        assert_eq!(t.vertices, e.vertices);
        assert_eq!(t.edges, e.edges);
    }

    #[test]
    fn runtime_json_is_well_formed() {
        let (g, parts) = bipartite_workload(300, 6.0, 3, 5);
        let timings = vec![time_sweep(
            "send-everything",
            &SendEverything::default(),
            &g,
            &parts,
            3,
            1,
            3,
        )];
        let dir = std::env::temp_dir().join(format!("triad-runtime-json-{}", std::process::id()));
        let sessions = crate::sessions::session_saturation(Scale::Quick, 2);
        let path = write_runtime_json(&dir, &timings, Some(&sessions)).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_runtime.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("]\n"));
        assert!(text.contains("\"speedup\""));
        assert!(text.contains("\"recorder_speedup\""));
        assert!(text.contains("\"pooled_ms\""));
        assert!(text.contains("\"parallel_speedup\""));
        assert!(text.contains("\"protocol\":\"scheduler-sessions\""));
        assert!(text.contains("\"qps_8\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
