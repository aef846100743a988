//! Differential conformance for the triangle kernel layer.
//!
//! Every fast path in `triad::graph::kernels` is pinned against the
//! preserved pre-kernel reference implementations
//! (`triad::graph::kernels::naive`) on a seed × generator matrix, and
//! the parallel kernels additionally across a thread-count matrix
//! (1, 2, 8 — plus whatever `TRIAD_THREADS` says when CI runs the
//! thread matrix). The contract (docs/KERNELS.md, docs/PARALLELISM.md):
//!
//! * counts, enumerations and triangle-edge filters are equal to the
//!   naive implementations, bit for bit, at any thread count;
//! * the view-based greedy loops (`distance::greedy_hitting_removal`,
//!   `triangles::greedy_triangle_packing`) produce the *same sequences*
//!   as the rebuild-per-removal loops they replaced;
//! * two runs of the greedy removal yield the identical `Vec` — the
//!   `HashSet`-iteration-order nondeterminism is gone;
//! * `distance::exact_distance` (forbidden-set pruned, view-backed) is
//!   unchanged on small instances;
//! * `triangle_edges_par` allocates per edge, not per triangle, measured
//!   on a clique by a counting global allocator in this test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use triad::comm::pool::Pool;
use triad::graph::generators::{far_graph, gnp, TripartiteMu};
use triad::graph::kernels::{self, naive, DeletionView, SerialExecutor};
use triad::graph::{distance, triangles, Graph};

const SEEDS: [u64; 4] = [1, 7, 42, 1000003];
const THREADS: [usize; 3] = [1, 2, 8];

/// Counts the bytes each thread has live, and its peak.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Charges `delta` bytes to this thread.
fn charge(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counters
// are thread-local `Cell`s whose const initialisers never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size() as isize);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        charge(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            charge(new_size as isize - layout.size() as isize);
        }
        out
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak number of bytes this
/// thread had allocated on top of what was live when `f` started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get) - base;
    (out, peak.max(0) as usize)
}

/// The generator matrix: one small instance per (kind, seed).
fn workloads(seed: u64) -> Vec<(String, Graph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    out.push((format!("gnp-sparse-{seed}"), gnp(120, 0.03, &mut rng)));
    out.push((format!("gnp-dense-{seed}"), gnp(48, 0.25, &mut rng)));
    out.push((
        format!("planted-far-{seed}"),
        far_graph(160, 6.0, 0.2, &mut rng).expect("far_graph parameters are valid"),
    ));
    out.push((
        format!("tripartite-{seed}"),
        TripartiteMu::new(24, 1.0).sample(&mut rng).graph().clone(),
    ));
    out
}

#[test]
fn kernel_counts_and_enumerations_match_naive() {
    for seed in SEEDS {
        for (name, g) in workloads(seed) {
            assert_eq!(
                kernels::count_triangles(&g),
                naive::count_triangles(&g),
                "{name}: count"
            );
            assert_eq!(
                kernels::enumerate_triangles(&g),
                naive::enumerate_triangles(&g),
                "{name}: enumeration"
            );
            assert_eq!(
                kernels::triangle_edges(&g),
                naive::triangle_edges(&g),
                "{name}: triangle edges"
            );
            // Witnesses may differ between kernel and naive scan, but
            // both must agree on existence and be real triangles.
            match (kernels::find_triangle(&g), naive::find_triangle(&g)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(a.exists_in(&g), "{name}: kernel witness invalid");
                    assert!(b.exists_in(&g), "{name}: naive witness invalid");
                }
                (a, b) => panic!("{name}: existence disagreement {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn parallel_kernels_are_thread_count_independent() {
    for seed in SEEDS {
        for (name, g) in workloads(seed) {
            let count = naive::count_triangles(&g);
            let edges = naive::triangle_edges(&g);
            for threads in THREADS {
                let pool = Pool::new(threads);
                assert_eq!(
                    kernels::count_triangles_par(&g, &pool),
                    count,
                    "{name} @ {threads} threads: count"
                );
                assert_eq!(
                    kernels::triangle_edges_par(&g, &pool),
                    edges,
                    "{name} @ {threads} threads: triangle edges"
                );
            }
        }
    }
}

#[test]
fn parallel_triangle_edges_on_a_clique_allocate_per_edge_not_per_triangle() {
    // K_160: 12 720 edges, 669 920 triangles. One index per triangle
    // edge would be 16 MB; the shared marks are one byte per edge.
    let n = 160u32;
    let g = Graph::from_edges(
        n as usize,
        (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))),
    );
    let m = g.edge_count();
    let edges = naive::triangle_edges(&g);
    assert_eq!(edges.len(), m);
    for threads in THREADS {
        assert_eq!(
            kernels::triangle_edges_par(&g, &Pool::new(threads)),
            edges,
            "clique @ {threads} threads: triangle edges"
        );
    }
    // The serial executor runs every shard on this thread, so the
    // per-thread peak is the kernel's whole footprint.
    let (serial, peak) = peak_of(|| kernels::triangle_edges_par(&g, &SerialExecutor));
    assert_eq!(serial, edges);
    assert!(
        peak <= 32 * m + (64 << 10),
        "triangle_edges_par allocated {peak} bytes for {m} edges"
    );
}

#[test]
fn view_based_greedy_removal_matches_the_rebuild_loop_sequence_for_sequence() {
    for seed in SEEDS {
        for (name, g) in workloads(seed) {
            let fast = distance::greedy_hitting_removal(&g);
            let slow = naive::greedy_hitting_removal(&g);
            assert_eq!(fast, slow, "{name}: removal sequences differ");
        }
    }
}

#[test]
fn greedy_removal_is_deterministic_across_runs() {
    for seed in SEEDS {
        for (name, g) in workloads(seed) {
            let a = distance::greedy_hitting_removal(&g);
            let b = distance::greedy_hitting_removal(&g);
            assert_eq!(a, b, "{name}: two runs disagreed");
        }
    }
}

#[test]
fn view_removal_leaves_the_graph_triangle_free() {
    for seed in SEEDS {
        for (name, g) in workloads(seed) {
            let removed: std::collections::HashSet<_> =
                distance::greedy_hitting_removal(&g).into_iter().collect();
            let stripped = g.without_edges(&removed);
            assert!(
                !triangles::contains_triangle(&stripped),
                "{name}: triangles survive the hitting set"
            );
            // The same holds when checked on the view itself, without a
            // rebuild.
            let mut view = DeletionView::new(&g);
            for e in &removed {
                assert!(view.delete_edge(*e), "{name}: removal not a live edge");
            }
            assert!(view.find_triangle().is_none(), "{name}: live triangle left");
        }
    }
}

#[test]
fn view_based_packing_matches_the_hashset_loop() {
    for seed in SEEDS {
        for (name, g) in workloads(seed) {
            assert_eq!(
                triangles::greedy_triangle_packing(&g),
                naive::greedy_triangle_packing(&g),
                "{name}: packings differ"
            );
        }
    }
}

#[test]
fn exact_distance_is_unchanged_on_small_instances() {
    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..3 {
            let g = gnp(12, 0.3, &mut rng);
            if g.edge_count() > 30 {
                continue;
            }
            let exact = distance::exact_distance(&g, 30);
            let bounds = distance::distance_bounds(&g);
            assert!(bounds.lower <= exact && exact <= bounds.upper);
        }
    }
}
