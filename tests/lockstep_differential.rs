//! The unrestricted tester in lockstep: what its waves must keep from
//! the one-at-a-time search they replace.
//!
//! * `approx_degrees` over a wave equals one `approx_degree` call per
//!   vertex: same estimates, bits, rollups and tag counter afterwards.
//! * On triangle-free inputs `find_triangle_vee` (suspect waves, then
//!   candidate waves of 1, 2, 4, …) charges exactly what a test-local
//!   search that estimates one suspect and tries one candidate at a time
//!   charges; only the round count differs.
//! * On inputs with triangles the waves find the same witness, and when
//!   the `c`-th candidate closes at most `c − 1` later candidates were
//!   sampled and posted.
//! * A query on `net-interactive`'s input shape travels in at most 120
//!   frames per player.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use triad::comm::{
    CostModel, LocalTransport, Payload, PayloadRepr, PlayerRequest, RunError, Runtime,
    SharedRandomness, Tally, Transport,
};
use triad::graph::generators::far_graph;
use triad::graph::partition::{random_disjoint, with_duplication, Partition};
use triad::graph::{buckets, Edge, Graph, GraphBuilder, Triangle, VertexId};
use triad::protocols::blocks::{approx_degree, approx_degrees};
use triad::protocols::unrestricted::{find_triangle_vee, sample_edges_at, Candidate};
use triad::protocols::{Tuning, UnrestrictedTester};
use triad_bench::workloads::bipartite_workload;

const MODELS: [CostModel; 3] = [
    CostModel::Coordinator,
    CostModel::Blackboard,
    CostModel::MessagePassing,
];

/// Frames and logical requests one player was sent, by request label.
#[derive(Debug, Default)]
struct Census {
    frames: Vec<u64>,
    requests: BTreeMap<&'static str, u64>,
}

/// A local transport that answers rounds itself, counting one frame per
/// player per round or single delivery, and each request player 0 is
/// sent under its label.
struct Counting {
    inner: LocalTransport,
    census: Arc<Mutex<Census>>,
}

impl Counting {
    fn new(partition: &Partition, n: usize, seed: u64) -> (Self, Arc<Mutex<Census>>) {
        let census = Arc::new(Mutex::new(Census {
            frames: vec![0; partition.shares().len()],
            ..Census::default()
        }));
        let inner = LocalTransport::new(n, partition.shares(), SharedRandomness::new(seed));
        let counting = Counting {
            inner,
            census: Arc::clone(&census),
        };
        (counting, census)
    }
}

impl Transport for Counting {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        let mut census = self.census.lock().unwrap();
        census.frames[player] += 1;
        if player == 0 {
            *census.requests.entry(req.label()).or_default() += 1;
        }
        drop(census);
        self.inner.try_deliver(player, req)
    }

    fn try_deliver_round(
        &mut self,
        reqs: &[PlayerRequest],
    ) -> Option<Vec<Result<Vec<Payload<'static>>, RunError>>> {
        let mut census = self.census.lock().unwrap();
        for frames in &mut census.frames {
            *frames += 1;
        }
        for req in reqs {
            *census.requests.entry(req.label()).or_default() += 1;
        }
        drop(census);
        Some(
            (0..self.k())
                .map(|j| reqs.iter().map(|r| self.inner.try_deliver(j, r)).collect())
                .collect(),
        )
    }
}

fn local(partition: &Partition, n: usize, seed: u64, model: CostModel) -> Runtime<Tally> {
    Runtime::local_with(n, partition.shares(), SharedRandomness::new(seed), model)
}

/// Every accounting rollup except the round ones, which waves change.
fn assert_same_bill(label: &str, got: &Runtime<Tally>, want: &Runtime<Tally>) {
    let (g, w) = (got.stats(), want.stats());
    assert_eq!(g.total_bits, w.total_bits, "{label}: bits");
    assert_eq!(g.messages, w.messages, "{label}: messages");
    assert_eq!(
        g.max_player_sent_bits, w.max_player_sent_bits,
        "{label}: max player"
    );
    let (g, w) = (got.recorder(), want.recorder());
    assert_eq!(g.by_phase(), w.by_phase(), "{label}: by phase");
    assert_eq!(g.by_player(), w.by_player(), "{label}: by player");
    assert_eq!(g.by_direction(), w.by_direction(), "{label}: by direction");
    assert_eq!(g.breakdown(), w.breakdown(), "{label}: by label");
}

#[test]
fn a_wave_of_estimates_equals_one_estimate_per_vertex() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let g = far_graph(240, 6.0, 0.2, &mut rng).unwrap();
    let tuning = Tuning::practical(0.2);
    // Vertices 240.. hold no edge. The wave mixes them with the graph's,
    // under heavy duplication so the estimates take several shrink
    // steps, and repeats one vertex.
    let n = g.vertex_count() + 20;
    let mut wave: Vec<VertexId> = (0..n as u32).step_by(7).map(VertexId).collect();
    wave.push(wave[3]);
    let mut steps = HashSet::new();
    for (dup, seed) in [(0.0, 5u64), (0.7, 6)] {
        let partition = if dup > 0.0 {
            with_duplication(&g, 4, dup, &mut rng)
        } else {
            random_disjoint(&g, 4, &mut rng)
        };
        for model in MODELS {
            let label = format!("duplication {dup}, {model:?}");
            let mut waved = local(&partition, n, seed, model);
            let together = waved.phase("approx-degree", |rt| approx_degrees(rt, &wave, &tuning));
            let mut single = local(&partition, n, seed, model);
            let one_by_one: Vec<_> = wave
                .iter()
                .map(|&v| single.phase("approx-degree", |rt| approx_degree(rt, v, &tuning)))
                .collect();
            assert_eq!(together, one_by_one, "{label}: estimates");
            assert_same_bill(&label, &waved, &single);
            assert_eq!(waved.stats(), single.stats(), "{label}: stats");
            assert_eq!(
                waved.recorder().by_round(),
                single.recorder().by_round(),
                "{label}: by round"
            );
            assert_eq!(waved.fresh_tag(), single.fresh_tag(), "{label}: tags");
            steps.extend(together.iter().map(|e| e.rounds));
        }
    }
    assert!(
        steps.contains(&0) && steps.iter().any(|&s| s >= 2),
        "the wave mixes short-circuited and multi-step estimates: {steps:?}"
    );
}

/// The bucket window's widening, as in the search.
const FILTER_ALPHA: f64 = 3.0;

/// Algorithm 3 estimating one suspect at a time.
fn candidates_one_at_a_time(
    rt: &mut Runtime<Tally>,
    bucket: usize,
    tuning: &Tuning,
) -> Vec<Candidate> {
    let (n, k) = (rt.n(), rt.k());
    let budget = tuning.sample_budget(n, k);
    let target = tuning.candidate_target(n);
    let lo = buckets::d_minus(bucket) as f64 / FILTER_ALPHA;
    let hi = buckets::d_plus(bucket) as f64 * FILTER_ALPHA;
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut batch = (4 * target).min(budget);
    let mut examined = 0usize;
    let tag = rt.fresh_tag();
    loop {
        let shared = rt.shared();
        let mut samples: Vec<VertexId> = Vec::new();
        let req = PlayerRequest::SuspectSample {
            bucket,
            k,
            perm_tag: tag,
            count: batch,
        };
        for resp in rt.broadcast(req) {
            if let Payload::Vertices(vs) = resp {
                samples.extend(vs);
            }
        }
        samples.sort_unstable_by_key(|v| shared.vertex_rank(tag, *v));
        samples.dedup();
        samples.truncate(batch);
        for v in samples.iter().skip(examined) {
            if out.len() >= target || examined >= budget {
                break;
            }
            examined += 1;
            if !seen.insert(*v) {
                continue;
            }
            let est = rt.phase("approx-degree", |rt| approx_degree(rt, *v, tuning));
            if est.value >= lo && est.value <= hi {
                out.push(Candidate {
                    vertex: *v,
                    degree_estimate: est.value,
                });
            }
        }
        let exhausted = samples.len() < batch;
        if out.len() >= target || examined >= budget || batch >= budget || exhausted {
            return out;
        }
        batch = budget;
    }
}

/// What the one-at-a-time search did in a bucket.
struct Serial {
    found: Option<Triangle>,
    /// Candidates sampled, up to and including the one that closed.
    sampled: usize,
    /// Samples posted for closing.
    posted: usize,
}

/// Algorithm 5 trying one candidate at a time.
fn vee_one_at_a_time(rt: &mut Runtime<Tally>, bucket: usize, tuning: &Tuning) -> Serial {
    let candidates = rt.phase("find-candidates", |rt| {
        candidates_one_at_a_time(rt, bucket, tuning)
    });
    let mut serial = Serial {
        found: None,
        sampled: 0,
        posted: 0,
    };
    for candidate in candidates {
        serial.sampled += 1;
        let sampled = rt.phase("sample-edges", |rt| sample_edges_at(rt, candidate, tuning));
        if sampled.len() < 2 {
            continue;
        }
        serial.posted += 1;
        rt.next_round();
        serial.found = rt.phase("close-triangle", |rt| {
            rt.broadcast(PlayerRequest::FindClosingTriangle { edges: sampled })
                .into_iter()
                .find_map(|resp| match resp {
                    Payload::Triangle(Some(t)) => Some(t),
                    _ => None,
                })
        });
        if serial.found.is_some() {
            break;
        }
    }
    serial
}

/// The buckets a run of the tester scans on these inputs, and a margin.
const BUCKETS: std::ops::Range<usize> = 0..6;

#[test]
fn on_triangle_free_inputs_the_waves_charge_what_one_at_a_time_charges() {
    let tuning = Tuning::practical(0.2);
    let mut compared = 0;
    for (k, seed) in [(2usize, 3u64), (4, 4)] {
        let (g, partition) = bipartite_workload(400, 8.0, k, seed);
        let n = g.vertex_count();
        for bucket in BUCKETS {
            for model in MODELS {
                let label = format!("k {k}, bucket {bucket}, {model:?}");
                let mut waved = local(&partition, n, seed, model);
                assert_eq!(find_triangle_vee(&mut waved, bucket, &tuning), None);
                let mut single = local(&partition, n, seed, model);
                let serial = vee_one_at_a_time(&mut single, bucket, &tuning);
                assert_eq!(serial.found, None, "{label}");
                assert_same_bill(&label, &waved, &single);
                assert!(waved.stats().rounds <= single.stats().rounds, "{label}");
                assert_eq!(waved.fresh_tag(), single.fresh_tag(), "{label}: tags");
                compared += usize::from(serial.posted > 1);
            }
        }
    }
    assert!(compared > 0, "some bucket posts several candidates");
}

/// A bipartite input with a triangle planted at every `every`-th vertex
/// of its second side (closing two of its neighbours), so that most
/// candidates sit on no triangle and the search often closes late.
fn sparse_triangles(n: usize, every: usize, seed: u64) -> Graph {
    let (g, _) = bipartite_workload(n, 8.0, 1, seed);
    let mut b = GraphBuilder::new(n);
    b.extend_edges(g.edges().iter().copied());
    for r in (n / 2..n).step_by(every) {
        if let [a, c, ..] = g.neighbors(VertexId(r as u32)) {
            b.add_edge(Edge::new(*a, *c));
        }
    }
    b.build()
}

#[test]
fn when_the_c_th_candidate_closes_at_most_c_minus_1_more_are_sent() {
    let tuning = Tuning::practical(0.2);
    let mut closed = Vec::new();
    for seed in 0..6u64 {
        let g = sparse_triangles(400, 20, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let partition = random_disjoint(&g, 4, &mut rng);
        let n = g.vertex_count();
        for bucket in BUCKETS {
            let mut single = local(&partition, n, seed, CostModel::Coordinator);
            let serial = vee_one_at_a_time(&mut single, bucket, &tuning);
            let (transport, census) = Counting::new(&partition, n, seed);
            let mut waved = Runtime::<Tally>::new_with(
                Box::new(transport),
                n,
                SharedRandomness::new(seed),
                CostModel::Coordinator,
            );
            let found = find_triangle_vee(&mut waved, bucket, &tuning);
            assert_eq!(found, serial.found, "seed {seed}, bucket {bucket}");
            let census = census.lock().unwrap();
            let count = |label| census.requests.get(label).copied().unwrap_or(0) as usize;
            let (sampled, posted) = (count("incident_sampled"), count("close_triangle"));
            match serial.found {
                None => assert_eq!((sampled, posted), (serial.sampled, serial.posted)),
                Some(t) => {
                    assert!(t.exists_in(&g), "one-sided error");
                    // The c-th candidate closed; the waves may have sent
                    // up to c − 1 more.
                    let c = serial.sampled;
                    let later = c - 1;
                    let label = format!("seed {seed}, bucket {bucket}, c {c}");
                    assert!(sampled >= serial.sampled && posted >= serial.posted);
                    assert!(sampled <= serial.sampled + later, "{label}: {sampled}");
                    assert!(posted <= serial.posted + later, "{label}: {posted}");
                    closed.push(c);
                }
            }
        }
    }
    assert!(
        closed.iter().filter(|&&c| c > 2).count() >= 5,
        "searches close after speculation: {closed:?}"
    );
}

#[test]
fn a_query_on_the_net_interactive_shape_travels_in_at_most_120_frames_per_player() {
    let tuning = Tuning::practical(0.2).with_repr(PayloadRepr::Auto);
    for seed in 1..=3u64 {
        let (g, partition) = bipartite_workload(1000, 8.0, 2, seed);
        let n = g.vertex_count();
        let (transport, census) = Counting::new(&partition, n, seed);
        let mut rt = Runtime::<Tally>::new_with(
            Box::new(transport),
            n,
            SharedRandomness::new(seed),
            CostModel::Coordinator,
        );
        let outcome = UnrestrictedTester::new(tuning).run_on(&mut rt);
        assert!(outcome.accepts(), "seed {seed}: the input is bipartite");
        let census = census.lock().unwrap();
        let requests: u64 = census.requests.values().sum();
        for (player, &frames) in census.frames.iter().enumerate() {
            println!("seed {seed}, player {player}: {requests} requests in {frames} frames");
            assert!(
                frames <= 120,
                "seed {seed}, player {player}: {frames} frames"
            );
        }
    }
}
