//! Naive-vs-kernel wall-clock timings — the `BENCH_kernels.json` export.
//!
//! Times the pre-kernel reference implementations
//! (`triad_graph::kernels::naive`) against the degree-ordered forward
//! kernel, the pool-parallel kernel, and the
//! [`triad_graph::kernels::DeletionView`]-based greedy hitting loop, on
//! the standard workload families. Counts and
//! removal sequences are asserted equal while timing, so a speedup can
//! never be reported for a kernel that silently changed the answer.
//!
//! [`time_store_workload`] adds the out-of-core tier: the same forward
//! and pool-parallel kernels over an mmap-backed
//! [`triad_graph::CsrStore`] (no owned edge list, no `Graph`; the one
//! owned structure is the full-row transpose the kernels need, timed
//! on its own), with peak-RSS and owned-allocation evidence recorded
//! next to the timings, plus one prepared protocol run whose shares are
//! partitioned straight off the mapping. Naive, bitset, and greedy
//! columns are `null` for store rows: the naive references are
//! deliberately untimed at out-of-core sizes (hours, not milliseconds)
//! and the `n × n` bitset does not exist at n = 10⁶.
//!
//! Timings are wall-clock and therefore machine-dependent: unlike
//! `BENCH_costs.json`, this file is *not* byte-diffable across runs. The
//! reference numbers live in `EXPERIMENTS.md`.

use crate::experiments::Scale;
use crate::workloads::{clique_plus_path, dense_core_workload, planted_far};
use std::time::Instant;
use triad_comm::pool::Pool;
use triad_graph::kernels::{self, naive, BitsetAdjacency, Forward};
use triad_graph::{distance, CsrStore, Graph};

/// One workload's measured kernel-vs-naive timings (milliseconds).
///
/// In-memory rows fill the naive/bitset/greedy columns; store rows
/// (out-of-core CSR) leave them `None` and fill the evidence columns
/// (`peak_rss_mb`, `transpose_ms`, `store_owned_bytes`, `file_bytes`,
/// `mapped`, `sim_test_ms`) instead.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Workload name.
    pub workload: String,
    /// Vertex count.
    pub vertices: usize,
    /// Edge count.
    pub edges: usize,
    /// Triangle count (agreed on by every implementation timed here).
    pub triangles: u64,
    /// Naive per-edge full-merge count, milliseconds (`None` for store
    /// rows — untimed at out-of-core sizes).
    pub naive_count_ms: Option<f64>,
    /// Forward-kernel count, milliseconds.
    pub kernel_count_ms: f64,
    /// Pool-parallel forward-kernel count, milliseconds.
    pub par_count_ms: f64,
    /// Word-parallel AND-popcount bitset count (build + sweep),
    /// milliseconds — the dense referee path behind
    /// [`triad_graph::kernels::dense_kernel_wins`] (`None` for store
    /// rows: the `n × n` bitmap does not exist at out-of-core scale).
    pub bitset_count_ms: Option<f64>,
    /// Threads used for the parallel measurement.
    pub par_threads: usize,
    /// Rebuild-per-removal greedy hitting loop, milliseconds (`None`
    /// when the workload is too large to time the naive loop).
    pub naive_greedy_ms: Option<f64>,
    /// DeletionView greedy hitting loop, milliseconds.
    pub view_greedy_ms: Option<f64>,
    /// Edges removed by the greedy loop (both variants, verified equal).
    pub greedy_removed: Option<usize>,
    /// Peak resident set size of the process (`VmHWM`), in MiB, read
    /// after the kernels ran — the "no materialized edge list" evidence
    /// for store rows.
    pub peak_rss_mb: Option<f64>,
    /// Building the store's full neighbor rows (the transpose of its
    /// forward rows) on their first use, milliseconds.
    pub transpose_ms: Option<f64>,
    /// Bytes of owned memory held by the store after the kernels ran:
    /// the full rows, plus the decoded sections when not mapped.
    pub store_owned_bytes: Option<usize>,
    /// On-disk CSR file size in bytes.
    pub file_bytes: Option<u64>,
    /// Whether the store row ran over an `mmap` backing (`false` =
    /// buffered read-into-`Vec` fallback).
    pub mapped: Option<bool>,
    /// One prepared simultaneous-protocol run whose shares were
    /// partitioned straight off the store's borrowed slices,
    /// milliseconds.
    pub sim_test_ms: Option<f64>,
}

impl KernelTiming {
    /// Naive count time divided by kernel count time (`None` when the
    /// naive reference was not timed).
    pub fn count_speedup(&self) -> Option<f64> {
        self.naive_count_ms
            .map(|n| n / self.kernel_count_ms.max(1e-9))
    }

    /// Forward-kernel time divided by bitset-kernel time: > 1 means
    /// the word-parallel intersection beats the edge-list referee path
    /// on this workload (`None` when the bitset was not timed).
    pub fn bitset_speedup(&self) -> Option<f64> {
        self.bitset_count_ms
            .map(|b| self.kernel_count_ms / b.max(1e-9))
    }

    /// Rebuild-loop time divided by view-loop time, when both ran.
    pub fn greedy_speedup(&self) -> Option<f64> {
        match (self.naive_greedy_ms, self.view_greedy_ms) {
            (Some(n), Some(v)) => Some(n / v.max(1e-9)),
            _ => None,
        }
    }

    fn to_json(&self) -> String {
        fn opt_ms(v: Option<f64>) -> String {
            v.map_or_else(|| "null".into(), |v| format!("{v:.3}"))
        }
        let mut s = String::from("{");
        s.push_str(&format!("\"workload\":\"{}\",", self.workload));
        s.push_str(&format!("\"vertices\":{},", self.vertices));
        s.push_str(&format!("\"edges\":{},", self.edges));
        s.push_str(&format!("\"triangles\":{},", self.triangles));
        s.push_str(&format!(
            "\"naive_count_ms\":{},",
            opt_ms(self.naive_count_ms)
        ));
        s.push_str(&format!("\"kernel_count_ms\":{:.3},", self.kernel_count_ms));
        s.push_str(&format!("\"par_count_ms\":{:.3},", self.par_count_ms));
        s.push_str(&format!("\"par_threads\":{},", self.par_threads));
        s.push_str(&format!(
            "\"bitset_count_ms\":{},",
            opt_ms(self.bitset_count_ms)
        ));
        s.push_str(&format!(
            "\"bitset_speedup\":{},",
            opt_ms(self.bitset_speedup())
        ));
        s.push_str(&format!(
            "\"count_speedup\":{},",
            opt_ms(self.count_speedup())
        ));
        s.push_str(&format!(
            "\"naive_greedy_ms\":{},",
            opt_ms(self.naive_greedy_ms)
        ));
        s.push_str(&format!(
            "\"view_greedy_ms\":{},",
            opt_ms(self.view_greedy_ms)
        ));
        s.push_str(&format!(
            "\"greedy_removed\":{},",
            self.greedy_removed
                .map_or_else(|| "null".into(), |r| r.to_string())
        ));
        s.push_str(&format!(
            "\"greedy_speedup\":{},",
            opt_ms(self.greedy_speedup())
        ));
        s.push_str(&format!("\"peak_rss_mb\":{},", opt_ms(self.peak_rss_mb)));
        s.push_str(&format!("\"transpose_ms\":{},", opt_ms(self.transpose_ms)));
        s.push_str(&format!(
            "\"store_owned_bytes\":{},",
            self.store_owned_bytes
                .map_or_else(|| "null".into(), |b| b.to_string())
        ));
        s.push_str(&format!(
            "\"file_bytes\":{},",
            self.file_bytes
                .map_or_else(|| "null".into(), |b| b.to_string())
        ));
        s.push_str(&format!(
            "\"mapped\":{},",
            self.mapped.map_or_else(|| "null".into(), |m| m.to_string())
        ));
        s.push_str(&format!("\"sim_test_ms\":{}", opt_ms(self.sim_test_ms)));
        s.push('}');
        s
    }
}

/// Peak resident set size of this process (`VmHWM` from
/// `/proc/self/status`) in MiB, when the platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Best-of-`reps` wall-clock time of `f`, in milliseconds, together with
/// the (identical across reps) result of the final run. Shared with the
/// amplified-sweep timings of [`crate::runtime`].
pub(crate) fn time_best<T: PartialEq + std::fmt::Debug, F: FnMut() -> T>(
    reps: usize,
    mut f: F,
) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        if let Some(prev) = &result {
            assert!(prev == &r, "timed function is not deterministic");
        }
        result = Some(r);
    }
    (best, result.expect("at least one rep ran"))
}

/// Times all counting kernels (and, when `with_greedy`, both greedy
/// hitting loops) on one workload, asserting the implementations agree.
/// The parallel column runs on the caller's `pool` — [`kernel_suite`]
/// passes the pool sized from the global `--threads` / `TRIAD_THREADS`
/// setting, so the recorded `par_threads` reflects the configured
/// fan-out instead of whatever the harness happened to default to.
///
/// # Panics
///
/// Panics if any kernel disagrees with its naive reference — a
/// correctness bug, not a measurement problem.
pub fn time_workload(
    name: &str,
    g: &Graph,
    with_greedy: bool,
    reps: usize,
    pool: &Pool,
) -> KernelTiming {
    let (naive_count_ms, naive_count) = time_best(reps, || naive::count_triangles(g));
    let (kernel_count_ms, kernel_count) = time_best(reps, || kernels::count_triangles(g));
    let (par_count_ms, par_count) = time_best(reps, || kernels::count_triangles_par(g, pool));
    let (bitset_count_ms, bitset_count) =
        time_best(reps, || BitsetAdjacency::build(g).count_all(g));
    assert_eq!(kernel_count, naive_count, "{name}: kernel count diverged");
    assert_eq!(par_count, naive_count, "{name}: parallel count diverged");
    assert_eq!(bitset_count, naive_count, "{name}: bitset count diverged");
    let (naive_greedy_ms, view_greedy_ms, greedy_removed) = if with_greedy {
        let (nms, nseq) = time_best(reps, || naive::greedy_hitting_removal(g));
        let (vms, vseq) = time_best(reps, || distance::greedy_hitting_removal(g));
        assert_eq!(vseq, nseq, "{name}: greedy removal sequence diverged");
        (Some(nms), Some(vms), Some(vseq.len()))
    } else {
        (None, None, None)
    };
    KernelTiming {
        workload: name.to_string(),
        vertices: g.vertex_count(),
        edges: g.edge_count(),
        triangles: naive_count,
        naive_count_ms: Some(naive_count_ms),
        kernel_count_ms,
        par_count_ms,
        bitset_count_ms: Some(bitset_count_ms),
        par_threads: pool.threads(),
        naive_greedy_ms,
        view_greedy_ms,
        greedy_removed,
        peak_rss_mb: None,
        transpose_ms: None,
        store_owned_bytes: None,
        file_bytes: None,
        mapped: None,
        sim_test_ms: None,
    }
}

/// Times the forward and pool-parallel kernels over an out-of-core
/// [`CsrStore`], never an in-memory [`Graph`]: edges come from the
/// store's forward rows (the mapping, or the owned fallback) and degrees
/// from the degree table the store counts on first use. Also runs one
/// prepared simultaneous-protocol test whose shares are partitioned
/// straight off the store, and records the allocation evidence of that
/// work: peak RSS, the store's owned bytes, the file size, and whether
/// the backing is mapped. The transpose behind full neighbor rows, which
/// none of it reads, is timed last, after the evidence is read.
///
/// # Panics
///
/// Panics if the serial and parallel counts disagree.
pub fn time_store_workload(name: &str, store: &CsrStore, reps: usize, pool: &Pool) -> KernelTiming {
    let (kernel_count_ms, kernel_count) = time_best(reps, || {
        let fwd = Forward::build(store);
        fwd.count_range(store, 0..store.edge_count())
    });
    let (par_count_ms, par_count) = time_best(reps, || kernels::count_triangles_par(store, pool));
    assert_eq!(par_count, kernel_count, "{name}: parallel count diverged");
    // One graph-free protocol run: shares partitioned off the store's
    // slices, prepared without ever materializing a Graph.
    let d = store.average_degree();
    let (sim_test_ms, _) = time_best(reps, || {
        let parts = triad_graph::partition::by_vertex(store, 4);
        let input =
            triad_protocols::amplify::PreparedInput::from_partition(store.vertex_count(), &parts)
                .expect("by_vertex shares are in range");
        let tester = triad_protocols::SimultaneousTester::new(
            triad_protocols::Tuning::practical(0.2),
            triad_protocols::SimProtocolKind::Low { avg_degree: d },
        );
        triad_protocols::amplify::Repeatable::run_prepared(&tester, &input, 7, None)
            .expect("prepared store run")
            .run
            .outcome
            .found_triangle()
    });
    // The kernels read only degrees and forward rows, so the heap and
    // peak RSS they report are read before the full-row transpose, which
    // is built last only to time it.
    let store_owned_bytes = store.owned_bytes();
    let peak_rss_mb = peak_rss_mb();
    let start = Instant::now();
    store.full_rows();
    let transpose_ms = start.elapsed().as_secs_f64() * 1e3;
    KernelTiming {
        workload: name.to_string(),
        vertices: store.vertex_count(),
        edges: store.edge_count(),
        triangles: kernel_count,
        naive_count_ms: None,
        kernel_count_ms,
        par_count_ms,
        bitset_count_ms: None,
        par_threads: pool.threads(),
        naive_greedy_ms: None,
        view_greedy_ms: None,
        greedy_removed: None,
        peak_rss_mb,
        transpose_ms: Some(transpose_ms),
        store_owned_bytes: Some(store_owned_bytes),
        file_bytes: Some(store.file_bytes()),
        mapped: Some(store.mapped()),
        sim_test_ms: Some(sim_test_ms),
    }
}

/// The standard kernel timing suite: planted ε-far, dense-core (the
/// skewed-degree adversary where the naive `Θ(m·Δ)` merges hurt most)
/// and clique-plus-path workloads, ordered smallest to largest so the
/// last entry is the headline number. All parallel columns run on the
/// pool sized by the global `--threads` / `TRIAD_THREADS` configuration.
pub fn kernel_suite(scale: Scale) -> Vec<KernelTiming> {
    let reps = scale.pick(2, 3);
    let pool = Pool::current();
    let mut out = Vec::new();

    // Greedy-loop comparison: sized so the rebuild-per-removal naive
    // loop stays tractable.
    let (gn, gd) = scale.pick((600, 6.0), (1600, 6.0));
    let w = planted_far(gn, gd, 0.2, 4, 7);
    out.push(time_workload(
        &format!("planted-far-greedy-n{gn}"),
        &w.graph,
        true,
        reps,
        &pool,
    ));

    // Counting: clique embedded in a path (all triangles in one dense
    // spot), then a dense-core skewed instance, then the large planted
    // ε-far instance.
    let (cn, cc) = scale.pick((1200, 40), (4000, 96));
    out.push(time_workload(
        &format!("clique-plus-path-n{cn}-c{cc}"),
        &clique_plus_path(cn, cc),
        false,
        reps,
        &pool,
    ));
    let (dn, hubs) = scale.pick((1500, 6), (6000, 12));
    let (_, w) = dense_core_workload(dn, hubs, 4, 7);
    out.push(time_workload(
        &format!("dense-core-n{dn}-h{hubs}"),
        &w.graph,
        false,
        reps,
        &pool,
    ));
    let (pn, pd) = scale.pick((2000, 6.0), (20000, 8.0));
    let w = planted_far(pn, pd, 0.2, 4, 7);
    out.push(time_workload(
        &format!("planted-far-n{pn}"),
        &w.graph,
        false,
        reps,
        &pool,
    ));
    out
}

/// Writes timings to `<dir>/BENCH_kernels.json` (creating `dir` if
/// needed) and returns the path. The JSON is a flat array of timing
/// objects, hand-rolled like every other exporter in this repository.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_kernels_json(
    dir: &std::path::Path,
    timings: &[KernelTiming],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_kernels.json");
    let body: Vec<String> = timings
        .iter()
        .map(|t| format!("  {}", t.to_json()))
        .collect();
    std::fs::write(&path, format!("[\n{}\n]\n", body.join(",\n")))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_a_workload_verifies_agreement() {
        let w = planted_far(300, 6.0, 0.2, 4, 3);
        let t = time_workload("test", &w.graph, true, 1, &Pool::new(2));
        assert_eq!(t.edges, w.graph.edge_count());
        assert_eq!(t.par_threads, 2, "pool sizing must be recorded");
        assert!(t.triangles > 0, "ε-far planted graphs have triangles");
        assert!(t.greedy_removed.unwrap() > 0);
        assert!(t.count_speedup().unwrap() > 0.0);
        assert!(t.bitset_speedup().unwrap() > 0.0);
        assert!(t.greedy_speedup().unwrap() > 0.0);
    }

    #[test]
    fn store_rows_time_kernels_over_the_mapping() {
        let w = planted_far(240, 6.0, 0.2, 4, 3);
        let dir = std::env::temp_dir().join(format!("triad-kernels-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.csr");
        triad_graph::store::write_csr(&path, &w.graph).unwrap();
        let store = CsrStore::open(&path).unwrap();
        let backing = store.owned_bytes();
        let t = time_store_workload("store-test", &store, 1, &Pool::serial());
        assert_eq!(t.edges, w.graph.edge_count());
        // The kernels' heap is the degree table's 4n bytes; the transpose
        // timed after them is not counted.
        assert_eq!(
            t.store_owned_bytes,
            Some(backing + 4 * store.vertex_count())
        );
        assert!(store.owned_bytes() > backing + 4 * store.vertex_count());
        assert_eq!(
            t.triangles,
            naive::count_triangles(&w.graph),
            "store kernels must count the same triangles"
        );
        assert!(t.naive_count_ms.is_none() && t.bitset_count_ms.is_none());
        assert_eq!(t.file_bytes, Some(store.file_bytes()));
        assert_eq!(t.mapped, Some(store.mapped()));
        assert!(t.sim_test_ms.is_some() && t.transpose_ms.is_some());
        let json = t.to_json();
        assert!(json.contains("\"transpose_ms\":"), "{json}");
        assert!(json.contains("\"naive_count_ms\":null"), "{json}");
        assert!(json.contains("\"file_bytes\":"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kernels_json_is_well_formed() {
        let w = planted_far(200, 6.0, 0.2, 4, 3);
        let pool = Pool::serial();
        let timings = vec![
            time_workload("with-greedy", &w.graph, true, 1, &pool),
            time_workload("without-greedy", &w.graph, false, 1, &pool),
        ];
        let dir = std::env::temp_dir().join(format!("triad-kernels-json-{}", std::process::id()));
        let path = write_kernels_json(&dir, &timings).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_kernels.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("]\n"));
        assert_eq!(text.matches("\"workload\"").count(), 2);
        assert_eq!(text.matches("\"bitset_speedup\"").count(), 2);
        assert_eq!(text.matches("\"greedy_speedup\":null").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
