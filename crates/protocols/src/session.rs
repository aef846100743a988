//! Multi-tenant query sessions.
//!
//! A *session* is one independent triangle-freeness query: a graph, an
//! edge partition, a protocol, a public seed and a repetition budget —
//! exactly what one `triad test` invocation runs. This module batches
//! many sessions and drives them over a single worker [`Pool`] through
//! the [`triad_comm::scheduler`], with two guarantees:
//!
//! * **Byte-identical results.** Each session's verdict, stats and
//!   [`Tally`](triad_comm::Tally) are exactly what
//!   [`run_amplified_prepared`](crate::amplify::run_amplified_prepared)
//!   would return for that session alone, at any worker count. A
//!   standalone sweep is a one-session batch of the same job
//!   (`amplify::PreparedSession`), the scheduler hands back each
//!   session's serial repetition prefix, and both paths reduce through
//!   the same fold (`amplify::reduce_prefix`); enforced by
//!   `tests/scheduler_differential.rs`.
//! * **Shared preparation.** Sessions on the same (graph, partition)
//!   content share one [`PreparedInput`] — shares validated once,
//!   `Arc<Vec<PlayerState>>` built once — so a thousand sessions over
//!   one graph pay a single player build. The cache key is a splitmix64
//!   content hash guarded by (n, m, k); see [`SessionBatch::run`].

use std::collections::HashMap;

use crate::amplify::{reduce_prefix, PreparedInput, PreparedSession, Repeatable};
use crate::baseline::SendEverything;
use crate::outcome::{ProtocolError, Rep, TallyRun};
use crate::{SimultaneousTester, UnrestrictedTester};
use triad_comm::scheduler::{run_sessions, SessionHandle};
use triad_comm::{mix64, FaultPlan, Pool};
use triad_graph::partition::Partition;
use triad_graph::Graph;

/// The protocol family a session runs. Each variant delegates
/// [`Repeatable`] to the wrapped tester, so a session behaves exactly
/// like the tester it wraps.
#[derive(Debug, Clone)]
pub enum SessionTester {
    /// The unrestricted-model tester (§3 of the paper).
    Unrestricted(UnrestrictedTester),
    /// A one-round simultaneous tester (AlgHigh/AlgLow/Oblivious).
    Simultaneous(SimultaneousTester),
    /// The exact send-everything baseline.
    Exact(SendEverything),
}

impl Repeatable for SessionTester {
    fn run_prepared(
        &self,
        input: &PreparedInput<'_>,
        seed: u64,
        faults: Option<(&FaultPlan, u32)>,
    ) -> Result<Rep, ProtocolError> {
        match self {
            SessionTester::Unrestricted(t) => t.run_prepared(input, seed, faults),
            SessionTester::Simultaneous(t) => t.run_prepared(input, seed, faults),
            SessionTester::Exact(t) => t.run_prepared(input, seed, faults),
        }
    }
}

/// One query: which input, which protocol, which public coins, how
/// many amplification repetitions. Borrows the graph and partition —
/// thousands of specs over one graph are thousands of cheap references.
#[derive(Debug, Clone)]
pub struct SessionSpec<'g> {
    /// The input graph.
    pub graph: &'g Graph,
    /// The edge partition across players.
    pub partition: &'g Partition,
    /// The protocol to run.
    pub tester: SessionTester,
    /// Base public seed; repetition `r` uses
    /// [`rep_seed`](crate::amplify::rep_seed)`(seed, r)`, exactly as a
    /// standalone sweep would.
    pub seed: u64,
    /// Amplification repetitions (`0` is treated as `1`, matching
    /// [`run_amplified_prepared`](crate::amplify::run_amplified_prepared)).
    pub reps: u32,
}

/// The prepared-input cache key: a content hash of the graph's edge
/// list and the partition's shares, guarded by the cheap structural
/// facts. Two sessions share a [`PreparedInput`] iff their keys match;
/// a spurious share would need a full 64-bit hash collision *and*
/// identical (n, m, k).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct InputKey {
    content: u64,
    vertices: usize,
    edges: usize,
    players: usize,
}

fn input_key(g: &Graph, partition: &Partition) -> InputKey {
    let fold_edge = |h: u64, e: &triad_graph::Edge| {
        mix64(h ^ (((e.u().index() as u64) << 32) | e.v().index() as u64))
    };
    let mut h = mix64(g.vertex_count() as u64 ^ 0x9E37_79B9_7F4A_7C15);
    h = g.edges().iter().fold(h, fold_edge);
    for share in partition.shares() {
        h = mix64(h ^ 0xD1B5_4A32_D192_ED03 ^ share.len() as u64);
        h = share.iter().fold(h, fold_edge);
    }
    InputKey {
        content: h,
        vertices: g.vertex_count(),
        edges: g.edge_count(),
        players: partition.players(),
    }
}

/// A batch of sessions to run together over one pool.
///
/// ```
/// use rand::SeedableRng;
/// use triad_comm::Pool;
/// use triad_graph::generators::far_graph;
/// use triad_graph::partition::random_disjoint;
/// use triad_protocols::session::{SessionBatch, SessionSpec, SessionTester};
/// use triad_protocols::{SimProtocolKind, SimultaneousTester, Tuning};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let g = far_graph(300, 8.0, 0.2, &mut rng)?;
/// let parts = random_disjoint(&g, 4, &mut rng);
/// let tester = SessionTester::Simultaneous(SimultaneousTester::new(
///     Tuning::practical(0.2),
///     SimProtocolKind::Low { avg_degree: 8.0 },
/// ));
/// let mut batch = SessionBatch::new();
/// let handles: Vec<_> = (0..16)
///     .map(|s| {
///         batch.submit(SessionSpec {
///             graph: &g,
///             partition: &parts,
///             tester: tester.clone(),
///             seed: s,
///             reps: 4,
///         })
///     })
///     .collect();
/// let results = batch.run(&Pool::new(2));
/// // 16 sessions, one player build: the input was prepared once.
/// assert_eq!(results.cache_misses, 1);
/// assert_eq!(results.cache_hits, 15);
/// for h in handles {
///     let run = results.get(h).as_ref().expect("session failed");
///     assert!(run.outcome.found_triangle());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SessionBatch<'g> {
    specs: Vec<SessionSpec<'g>>,
}

impl<'g> SessionBatch<'g> {
    /// An empty batch.
    pub fn new() -> Self {
        SessionBatch { specs: Vec::new() }
    }

    /// Queues a session; the handle redeems its result after
    /// [`run`](Self::run). Handles are submission-order indices.
    pub fn submit(&mut self, spec: SessionSpec<'g>) -> SessionHandle {
        self.specs.push(spec);
        SessionHandle::new(self.specs.len() - 1)
    }

    /// Number of queued sessions.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if nothing was submitted.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Runs every queued session over `pool`, stealing work across
    /// sessions, and returns the per-session results.
    ///
    /// Inputs are prepared once per distinct (graph, partition) content
    /// and shared; a session whose shares fail validation gets its
    /// [`ProtocolError`] as a result without disturbing the others. The
    /// content hash runs once per distinct borrowed (graph, partition)
    /// pair, not once per session.
    pub fn run(&self, pool: &Pool) -> SessionResults {
        // Prepare each distinct input once (hit/miss counted per spec).
        // Specs usually share a few borrowed inputs, so each borrow is
        // hashed once, memoized by its address pair; the cache itself is
        // keyed by content, so separately allocated equal inputs still
        // share one preparation.
        let mut cache: HashMap<InputKey, Result<PreparedInput<'g>, ProtocolError>> = HashMap::new();
        let mut hashed: HashMap<(*const Graph, *const Partition), InputKey> = HashMap::new();
        let mut keys = Vec::with_capacity(self.specs.len());
        let mut cache_hits = 0;
        let mut cache_misses = 0;
        for spec in &self.specs {
            let key = *hashed
                .entry((spec.graph, spec.partition))
                .or_insert_with(|| input_key(spec.graph, spec.partition));
            match cache.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => cache_hits += 1,
                std::collections::hash_map::Entry::Vacant(slot) => {
                    cache_misses += 1;
                    slot.insert(PreparedInput::new(spec.graph, spec.partition));
                }
            }
            keys.push(key);
        }

        // Sessions with a valid input become scheduler jobs; the rest
        // resolve immediately to their validation error.
        let mut jobs = Vec::new();
        let mut job_spec_index = Vec::new();
        let mut results: Vec<Option<Result<TallyRun, ProtocolError>>> =
            (0..self.specs.len()).map(|_| None).collect();
        for (i, (spec, key)) in self.specs.iter().zip(&keys).enumerate() {
            match &cache[key] {
                Ok(input) => {
                    jobs.push(PreparedSession {
                        tester: &spec.tester,
                        input,
                        seed: spec.seed,
                        reps: spec.reps.max(1) as usize,
                    });
                    job_spec_index.push(i);
                }
                Err(e) => results[i] = Some(Err(e.clone())),
            }
        }

        let run = run_sessions(pool, &jobs);
        for ((job, prefix), &i) in jobs.iter().zip(run.prefixes).zip(&job_spec_index) {
            results[i] = Some(reduce_prefix(job.input.k(), prefix));
        }

        SessionResults {
            results: results
                .into_iter()
                .map(|r| r.expect("every session resolved"))
                .collect(),
            cache_hits,
            cache_misses,
            discarded: run.discarded,
        }
    }
}

/// The results of a [`SessionBatch::run`], redeemable by handle.
#[derive(Debug)]
pub struct SessionResults {
    results: Vec<Result<TallyRun, ProtocolError>>,
    /// Sessions that reused another session's prepared input.
    pub cache_hits: usize,
    /// Distinct inputs prepared (validated + player states built).
    pub cache_misses: usize,
    /// Repetitions the scheduler computed past their session's stopping
    /// point and threw away ([`SessionPrefixes::discarded`]); 0 at one
    /// worker.
    ///
    /// [`SessionPrefixes::discarded`]: triad_comm::scheduler::SessionPrefixes::discarded
    pub discarded: usize,
}

impl SessionResults {
    /// The result of the session behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if `handle` did not come from the batch that produced
    /// these results.
    pub fn get(&self, handle: SessionHandle) -> &Result<TallyRun, ProtocolError> {
        &self.results[handle.index()]
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` if the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Results in submission order.
    pub fn iter(&self) -> impl Iterator<Item = &Result<TallyRun, ProtocolError>> {
        self.results.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amplify::run_amplified_prepared;
    use crate::{SimProtocolKind, Tuning};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use triad_graph::generators::far_graph;
    use triad_graph::partition::random_disjoint;
    use triad_graph::{Edge, VertexId};

    fn low_tester() -> SessionTester {
        SessionTester::Simultaneous(SimultaneousTester::new(
            Tuning::practical(0.2),
            SimProtocolKind::Low { avg_degree: 6.0 },
        ))
    }

    #[test]
    fn batched_sessions_match_standalone_sweeps() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = far_graph(300, 6.0, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let input = PreparedInput::new(&g, &parts).unwrap();
        let tester = low_tester();

        let mut batch = SessionBatch::new();
        let handles: Vec<_> = (0..6)
            .map(|s| {
                batch.submit(SessionSpec {
                    graph: &g,
                    partition: &parts,
                    tester: tester.clone(),
                    seed: 100 + s,
                    reps: 5,
                })
            })
            .collect();
        for threads in [1, 2, 4] {
            let results = batch.run(&Pool::new(threads));
            for (s, h) in handles.iter().enumerate() {
                let alone =
                    run_amplified_prepared(&Pool::serial(), &tester, &input, 5, 100 + s as u64)
                        .unwrap();
                let batched = results.get(*h).as_ref().unwrap();
                assert_eq!(batched.outcome, alone.outcome, "s{s} t{threads}");
                assert_eq!(batched.stats, alone.stats, "s{s} t{threads}");
                assert_eq!(batched.transcript, alone.transcript, "s{s} t{threads}");
            }
        }
    }

    #[test]
    fn shared_input_is_prepared_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let g1 = far_graph(200, 6.0, 0.2, &mut rng).unwrap();
        let g2 = far_graph(220, 6.0, 0.2, &mut rng).unwrap();
        let p1 = random_disjoint(&g1, 3, &mut rng);
        let p2 = random_disjoint(&g2, 3, &mut rng);
        let tester = low_tester();
        let mut batch = SessionBatch::new();
        for s in 0..10 {
            let (g, p) = if s % 2 == 0 { (&g1, &p1) } else { (&g2, &p2) };
            batch.submit(SessionSpec {
                graph: g,
                partition: p,
                tester: tester.clone(),
                seed: s,
                reps: 2,
            });
        }
        let results = batch.run(&Pool::new(2));
        assert_eq!(results.cache_misses, 2, "two distinct inputs");
        assert_eq!(results.cache_hits, 8);
        assert_eq!(results.len(), 10);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn invalid_session_fails_alone() {
        let g = Graph::from_edges(10, [(0, 1), (1, 2), (0, 2)]);
        let good = Partition::new(vec![
            vec![Edge::new(VertexId(0), VertexId(1))],
            vec![
                Edge::new(VertexId(1), VertexId(2)),
                Edge::new(VertexId(0), VertexId(2)),
            ],
        ]);
        // Vertex 99 is outside the graph: validation must fail.
        let bad = Partition::new(vec![
            vec![Edge::new(VertexId(0), VertexId(99))],
            vec![Edge::new(VertexId(1), VertexId(2))],
        ]);
        let tester = SessionTester::Exact(SendEverything::default());
        let mut batch = SessionBatch::new();
        let h_good = batch.submit(SessionSpec {
            graph: &g,
            partition: &good,
            tester: tester.clone(),
            seed: 0,
            reps: 1,
        });
        let h_bad = batch.submit(SessionSpec {
            graph: &g,
            partition: &bad,
            tester,
            seed: 0,
            reps: 1,
        });
        let results = batch.run(&Pool::new(2));
        let run = results.get(h_good).as_ref().expect("valid session runs");
        assert!(run.outcome.found_triangle());
        assert!(matches!(
            results.get(h_bad),
            Err(ProtocolError::InvalidInput(_))
        ));
    }

    #[test]
    fn distinct_partitions_of_one_graph_do_not_collide() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let g = far_graph(150, 6.0, 0.2, &mut rng).unwrap();
        let p1 = random_disjoint(&g, 3, &mut rng);
        let p2 = random_disjoint(&g, 4, &mut rng);
        assert_ne!(input_key(&g, &p1), input_key(&g, &p2));
        assert_eq!(input_key(&g, &p1), input_key(&g, &p1));
    }

    #[test]
    fn empty_batch_runs() {
        let results = SessionBatch::new().run(&Pool::new(2));
        assert!(results.is_empty());
        assert_eq!(results.cache_misses, 0);
    }
}
