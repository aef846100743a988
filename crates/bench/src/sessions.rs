//! Scheduler saturation microbench — the `sessions` row of
//! `BENCH_runtime.json` and the engine behind `triad bench --sessions`.
//!
//! The workload is many independent query sessions (triangle-free
//! bipartite inputs, so no early exit shortens any of them) submitted
//! to one [`SessionBatch`] and driven over worker pools of 1, 2, 4 and
//! 8 threads. The measured quantity is throughput — **queries per
//! second** — at each worker count; the results themselves (verdicts,
//! stats, tally totals) are asserted identical across every worker
//! count while timing, so a throughput number can never be reported
//! for a schedule that changed an answer. Sessions cycle over a small
//! set of distinct inputs, so the run also exercises the shared
//! prepared-input cache (hits are asserted). Wall-clock numbers are
//! machine-dependent — not byte-diffable; see `docs/RUNTIME.md`
//! ("Sessions and scheduling").

use crate::experiments::Scale;
use crate::runtime::bipartite_workload;
use std::time::Instant;
use triad_comm::{Pool, Recorder};
use triad_protocols::session::{SessionBatch, SessionSpec, SessionTester};
use triad_protocols::{SimProtocolKind, SimultaneousTester, Tuning};

/// The worker counts every saturation sweep measures.
pub const SESSION_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A measured session-throughput sweep: queries/sec at each worker
/// count of [`SESSION_WORKER_COUNTS`], plus the workload geometry.
#[derive(Debug, Clone)]
pub struct SessionSaturation {
    /// Number of sessions in the batch.
    pub sessions: usize,
    /// Amplification repetitions per session (all run: the inputs are
    /// triangle-free).
    pub reps: u32,
    /// Distinct (graph, partition) inputs the sessions cycle over.
    pub distinct_inputs: usize,
    /// Vertices per input graph.
    pub vertices: usize,
    /// Edges of the first input graph (all are generated alike).
    pub edges: usize,
    /// Players per session.
    pub players: usize,
    /// Queries/sec at each worker count, aligned with
    /// [`SESSION_WORKER_COUNTS`].
    pub qps: [f64; 4],
    /// Workers actually used at each sweep point: the requested count
    /// clamped to the machine's available parallelism
    /// ([`Pool::clamped`]). Oversubscribing a CPU-bound scoped pool
    /// only adds context-switch overhead — on a single-core runner the
    /// old unclamped 8-worker pool measured *slower* than 1 worker —
    /// so the sweep never runs more workers than cores and records
    /// what it ran.
    pub effective_workers: [usize; 4],
    /// Total bits across all sessions (agreed on by every worker
    /// count — asserted while timing).
    pub total_bits: u64,
    /// Prepared-input cache hits of one batch run
    /// (`sessions - distinct_inputs`).
    pub cache_hits: usize,
    /// Speculative repetitions discarded at each worker count
    /// (`SessionResults::discarded`), aligned with
    /// [`SESSION_WORKER_COUNTS`]; 0 at one worker.
    pub discarded: [usize; 4],
}

impl SessionSaturation {
    /// Throughput at 8 workers over throughput at 1 worker.
    pub fn saturation_speedup(&self) -> f64 {
        self.qps[3] / self.qps[0].max(1e-9)
    }

    /// The row's JSON object (`"protocol":"scheduler-sessions"` keeps
    /// it greppable next to the per-protocol timing rows).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str("\"protocol\":\"scheduler-sessions\",");
        s.push_str(&format!("\"sessions\":{},", self.sessions));
        s.push_str(&format!("\"repetitions\":{},", self.reps));
        s.push_str(&format!("\"distinct_inputs\":{},", self.distinct_inputs));
        s.push_str(&format!("\"vertices\":{},", self.vertices));
        s.push_str(&format!("\"edges\":{},", self.edges));
        s.push_str(&format!("\"players\":{},", self.players));
        for ((w, qps), eff) in SESSION_WORKER_COUNTS
            .iter()
            .zip(self.qps)
            .zip(self.effective_workers)
        {
            s.push_str(&format!("\"qps_{w}\":{qps:.1},"));
            s.push_str(&format!("\"effective_workers_{w}\":{eff},"));
        }
        s.push_str(&format!("\"total_bits\":{},", self.total_bits));
        s.push_str(&format!("\"cache_hits\":{},", self.cache_hits));
        s.push_str(&format!(
            "\"saturation_speedup\":{:.3}",
            self.saturation_speedup()
        ));
        s.push('}');
        s
    }
}

/// A comparable digest of one session's result: verdict, bits, and the
/// stats triple — everything the equality assertion needs without
/// holding the tallies alive.
type SessionDigest = (bool, u64, u64, u64, u64);

fn digest(results: &triad_protocols::SessionResults) -> Vec<SessionDigest> {
    results
        .iter()
        .map(|r| {
            let run = r.as_ref().expect("saturation workload is valid");
            (
                run.outcome.found_triangle(),
                run.transcript.total_bits().get(),
                run.stats.total_bits,
                run.stats.messages,
                run.stats.rounds,
            )
        })
        .collect()
}

/// Runs the saturation sweep: `sessions` sessions over
/// [`SESSION_WORKER_COUNTS`] worker pools, returning queries/sec per
/// worker count.
///
/// # Panics
///
/// Panics if any worker count produces different results than the
/// single-worker schedule — a scheduler determinism bug, not a
/// measurement problem.
pub fn session_saturation(scale: Scale, sessions: usize) -> SessionSaturation {
    let sessions = sessions.max(1);
    let (n, d, k) = scale.pick((400, 6.0, 4), (1000, 8.0, 4));
    let reps = scale.pick(2, 4);
    let distinct = 3.min(sessions);
    let inputs: Vec<_> = (0..distinct)
        .map(|i| bipartite_workload(n, d, k, 7 + i as u64))
        .collect();
    let tester = SessionTester::Simultaneous(SimultaneousTester::new(
        Tuning::practical(0.2),
        SimProtocolKind::Low { avg_degree: d },
    ));

    let mut batch = SessionBatch::new();
    for s in 0..sessions {
        let (g, parts) = &inputs[s % distinct];
        batch.submit(SessionSpec {
            graph: g,
            partition: parts,
            tester: tester.clone(),
            seed: 1000 + s as u64,
            reps,
        });
    }

    let mut qps = [0.0f64; 4];
    let mut effective_workers = [1usize; 4];
    let mut discarded = [0usize; 4];
    let mut reference: Option<Vec<SessionDigest>> = None;
    let mut cache_hits = 0;
    for (i, &workers) in SESSION_WORKER_COUNTS.iter().enumerate() {
        // Clamped to available parallelism: an oversubscribed pool
        // measures scheduler thrash, not scheduler throughput (the
        // results are identical either way — only wall-clock differs).
        let pool = Pool::clamped(workers);
        effective_workers[i] = pool.threads();
        let start = Instant::now();
        let results = batch.run(&pool);
        let secs = start.elapsed().as_secs_f64();
        qps[i] = sessions as f64 / secs.max(1e-9);
        cache_hits = results.cache_hits;
        discarded[i] = results.discarded;
        assert_eq!(results.cache_misses, distinct, "one build per input");
        let d = digest(&results);
        match &reference {
            Some(r) => assert_eq!(r, &d, "results diverged at {workers} workers"),
            None => reference = Some(d),
        }
    }
    let reference = reference.expect("at least one worker count ran");
    SessionSaturation {
        sessions,
        reps,
        distinct_inputs: distinct,
        vertices: n,
        edges: inputs[0].0.edge_count(),
        players: k,
        qps,
        effective_workers,
        total_bits: reference.iter().map(|d| d.2).sum(),
        cache_hits,
        discarded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_sweep_runs_and_agrees() {
        let s = session_saturation(Scale::Quick, 8);
        assert_eq!(s.sessions, 8);
        assert_eq!(s.distinct_inputs, 3);
        assert_eq!(s.cache_hits, 5);
        assert_eq!(s.discarded[0], 0, "one worker never speculates");
        assert!(s.total_bits > 0);
        assert!(s.qps.iter().all(|&q| q > 0.0));
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        for (req, eff) in SESSION_WORKER_COUNTS.iter().zip(s.effective_workers) {
            assert_eq!(eff, (*req).min(hw), "sweep pools must be clamped");
        }
        let json = s.to_json();
        assert!(json.contains("\"protocol\":\"scheduler-sessions\""));
        for w in SESSION_WORKER_COUNTS {
            assert!(json.contains(&format!("\"qps_{w}\":")), "{json}");
            assert!(
                json.contains(&format!("\"effective_workers_{w}\":")),
                "{json}"
            );
        }
    }

    #[test]
    fn tiny_batches_are_clamped_sanely() {
        let s = session_saturation(Scale::Quick, 1);
        assert_eq!(s.sessions, 1);
        assert_eq!(s.distinct_inputs, 1);
        assert_eq!(s.cache_hits, 0);
    }
}
