//! `sessions-mixed`: one `SessionBatch` of 460 sessions, run again and
//! again on `Pool::clamped(nproc)`.
//!
//! The batch mixes all five testers over eight small inputs, two of
//! each kind: triangle-free, ε-far, small ε-far, and ε-far dense enough
//! that `PayloadRepr::Auto` ships the exact baseline's shares as
//! bitsets. Sessions per (tester, input) are weighted so that no tester
//! family takes more than half of the serial time: an unrestricted
//! session on a triangle-free input costs tens of times any other
//! session, so there is one per such input. One query is one batch; set-up is generating the
//! inputs and building the batch.

use crate::trace::{Trace, Tracer};
use crate::{
    fold, jnum, jstr, median_setup, phases, report_tracing, stats, sub_seed, Ctx, Loop, Report,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use triad_comm::{PayloadRepr, Pool};
use triad_graph::partition::{random_disjoint, Partition};
use triad_graph::Graph;
use triad_protocols::amplify::{run_amplified_prepared, PreparedInput};
use triad_protocols::baseline::SendEverything;
use triad_protocols::session::{SessionBatch, SessionResults, SessionSpec, SessionTester};
use triad_protocols::{SimProtocolKind, SimultaneousTester, Tuning, UnrestrictedTester};

const PLAYERS: usize = 4;
const REPS: u32 = 3;
const EPSILON: f64 = 0.2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

struct InputSpec {
    n: usize,
    d: f64,
    far: bool,
}

/// Two inputs of each kind, so no single random graph sets the batch's
/// cost.
const INPUTS: [InputSpec; 8] = [
    TRIANGLE_FREE,
    TRIANGLE_FREE,
    FAR,
    FAR,
    FAR_SMALL,
    FAR_SMALL,
    DENSE_FAR,
    DENSE_FAR,
];
const TRIANGLE_FREE: InputSpec = InputSpec {
    n: 600,
    d: 6.0,
    far: false,
};
const FAR: InputSpec = InputSpec {
    n: 600,
    d: 8.0,
    far: true,
};
const FAR_SMALL: InputSpec = InputSpec {
    n: 300,
    d: 6.0,
    far: true,
};
/// Each of the four shares holds ~2000 edges ≥ 400²/128, so the density
/// gate picks bitsets.
const DENSE_FAR: InputSpec = InputSpec {
    n: 400,
    d: 40.0,
    far: true,
};
const DENSE_INPUTS: [usize; 2] = [6, 7];

const FAMILIES: [&str; 5] = ["unrestricted", "low", "high", "oblivious", "exact"];
const SERIAL_SPANS: [&str; 5] = [
    "amplify.serial.unrestricted",
    "amplify.serial.low",
    "amplify.serial.high",
    "amplify.serial.oblivious",
    "amplify.serial.exact",
];
const SERIAL_METRICS: [&str; 5] = [
    "amplify.serial_ms.unrestricted",
    "amplify.serial_ms.low",
    "amplify.serial_ms.high",
    "amplify.serial_ms.oblivious",
    "amplify.serial_ms.exact",
];
/// Sessions per batch for each tester family (rows, in `FAMILIES`
/// order) and input (columns, in `INPUTS` order).
const MIX: [[usize; 8]; 5] = [[1, 1, 2, 2, 2, 2, 1, 1], [20; 8], [20; 8], [6; 8], [10; 8]];

struct Input {
    graph: Graph,
    partition: Partition,
    far: bool,
}

fn generate(seed: u64) -> Result<Vec<Input>, String> {
    INPUTS
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 10 + i as u64));
            let graph = if spec.far {
                triad_graph::generators::far_graph(spec.n, spec.d, EPSILON, &mut rng)
                    .map_err(|e| e.to_string())?
            } else {
                crate::bipartite(spec.n, spec.d, &mut rng)
            };
            let partition = random_disjoint(&graph, PLAYERS, &mut rng);
            Ok(Input {
                graph,
                partition,
                far: spec.far,
            })
        })
        .collect()
}

fn tester(family: usize, d: f64) -> SessionTester {
    let tuning = Tuning::practical(EPSILON).with_repr(PayloadRepr::Auto);
    match FAMILIES[family] {
        "unrestricted" => SessionTester::Unrestricted(UnrestrictedTester::new(tuning)),
        "low" => SessionTester::Simultaneous(SimultaneousTester::new(
            tuning,
            SimProtocolKind::Low { avg_degree: d },
        )),
        "high" => SessionTester::Simultaneous(SimultaneousTester::new(
            tuning,
            SimProtocolKind::High { avg_degree: d },
        )),
        "oblivious" => {
            SessionTester::Simultaneous(SimultaneousTester::new(tuning, SimProtocolKind::Oblivious))
        }
        _ => SessionTester::Exact(SendEverything::with_repr(PayloadRepr::Auto)),
    }
}

/// One session of the batch: tester family, input and public seed.
struct Session {
    family: usize,
    input: usize,
    seed: u64,
}

fn plan(seed: u64) -> Vec<Session> {
    let mut sessions = Vec::new();
    for (family, row) in MIX.iter().enumerate() {
        for (input, &count) in row.iter().enumerate() {
            for _ in 0..count {
                let id = sessions.len() as u64;
                sessions.push(Session {
                    family,
                    input,
                    seed: sub_seed(seed, 1000 + id),
                });
            }
        }
    }
    sessions
}

fn build_batch<'g>(inputs: &'g [Input], sessions: &[Session]) -> SessionBatch<'g> {
    let mut batch = SessionBatch::new();
    for s in sessions {
        let input = &inputs[s.input];
        batch.submit(SessionSpec {
            graph: &input.graph,
            partition: &input.partition,
            tester: tester(s.family, input.graph.average_degree()),
            seed: s.seed,
            reps: REPS,
        });
    }
    batch
}

/// Checks one batch's results and returns its digest. Wrong answers go
/// to `report.mismatches`, session errors to `report.failed`.
fn check(
    results: &SessionResults,
    inputs: &[Input],
    sessions: &[Session],
    q: u32,
    report: &mut Report,
) -> Vec<(bool, u64)> {
    let mut digest = Vec::with_capacity(sessions.len());
    for (i, (s, result)) in sessions.iter().zip(results.iter()).enumerate() {
        let input = &inputs[s.input];
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                if report.failed == 0 {
                    report.note("first_error", jstr(&format!("batch {q} session {i}: {e}")));
                }
                report.failed += 1;
                digest.push((false, 0));
                continue;
            }
        };
        match run.outcome.triangle() {
            Some(t) if !t.exists_in(&input.graph) => report.mismatch(format!(
                "batch {q} session {i}: reported triangle {t} is not in the graph"
            )),
            None if input.far && FAMILIES[s.family] == "exact" => report.mismatch(format!(
                "batch {q} session {i}: the exact baseline missed an ε-far input"
            )),
            _ => {}
        }
        digest.push((run.outcome.found_triangle(), run.stats.total_bits));
    }
    digest
}

/// Runs every session alone on `Pool::serial` over freshly prepared
/// inputs, timing each, and checks each result equals the batch's.
fn replay(
    results: &SessionResults,
    inputs: &[Input],
    sessions: &[Session],
    tracer: &Tracer,
    q: u32,
    report: &mut Report,
) {
    let prepared: Vec<_> = inputs
        .iter()
        .map(|input| {
            tracer.span("player.prepare", 0, q, |_| {
                PreparedInput::new(&input.graph, &input.partition)
            })
        })
        .collect();
    let serial = Pool::serial();
    for (i, (s, batch_result)) in sessions.iter().zip(results.iter()).enumerate() {
        let Ok(input) = &prepared[s.input] else {
            continue;
        };
        let t = tester(s.family, inputs[s.input].graph.average_degree());
        let alone = tracer.span(SERIAL_SPANS[s.family], 0, q, |_| {
            run_amplified_prepared(&serial, &t, input, REPS, s.seed)
        });
        let same = match (&alone, batch_result) {
            (Ok(a), Ok(b)) => a.outcome == b.outcome && a.stats == b.stats,
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !same {
            report.mismatch(format!(
                "batch {q} session {i}: the batch and a serial run disagree"
            ));
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = ctx.args.seed;
    let sessions = plan(seed);
    let (setup_s, inputs) = median_setup(SETUPS, &mut report, || {
        let inputs = generate(seed)?;
        std::hint::black_box(build_batch(&inputs, &sessions));
        Ok(inputs)
    })?;
    let batch = build_batch(&inputs, &sessions);
    for dense in DENSE_INPUTS.map(|i| &inputs[i]) {
        let n = dense.graph.vertex_count();
        if !dense
            .partition
            .shares()
            .iter()
            .all(|share| PayloadRepr::Auto.use_bits(share.len(), n))
        {
            return Err("a dense input is too sparse for bitset payloads".into());
        }
    }
    let pool = Pool::clamped(crate::sys::nproc());
    report.note("sessions", sessions.len().to_string());
    report.note("pool_threads", pool.threads().to_string());
    let far_sessions = sessions.iter().filter(|s| inputs[s.input].far).count();
    report.note("eps_far_queries", far_sessions.to_string());

    // One unmeasured batch warms the caches; its results are the
    // reference every later batch must repeat.
    let first = batch.run(&pool);
    report.attempted += sessions.len() as u64;
    let reference = check(&first, &inputs, &sessions, 0, &mut report);
    let total_bits: u64 = reference.iter().map(|&(_, b)| b).sum();
    let detected = sessions
        .iter()
        .zip(&reference)
        .filter(|(s, &(found, _))| inputs[s.input].far && found)
        .count();
    let hash = reference
        .iter()
        .fold(0, |h, &(found, bits)| fold(fold(h, u64::from(found)), bits));
    report
        .digest
        .push(("detected".into(), detected.to_string()));
    report.digest.push(("bits".into(), total_bits.to_string()));
    report
        .digest
        .push(("hash".into(), jstr(&format!("{hash:016x}"))));

    let tracer = &ctx.tracer;
    let mut q = 0u32;
    let mut per_s = Vec::new();
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let mut measure = |seconds: f64, report: &mut Report| {
        Loop::run(seconds, || {
            q += 1;
            report.attempted += sessions.len() as u64;
            let start = Instant::now();
            let qs = tracer.begin("query", 0, q);
            let s = tracer.begin("session.batch_run", qs.id, q);
            let results = batch.run(&pool);
            tracer.end(s);
            tracer.end(qs);
            let wall = start.elapsed().as_secs_f64();
            per_s.push(sessions.len() as f64 / wall);
            if check(&results, &inputs, &sessions, q, report) != reference {
                report.mismatch(format!("batch {q}: results differ from the first batch"));
            }
            if tracer.enabled() {
                hits.push(results.cache_hits as f64);
                misses.push(results.cache_misses as f64);
                replay(&results, &inputs, &sessions, tracer, q, report);
            }
            Some(wall * 1e3)
        })
    };

    let (untraced, traced) = phases(ctx, |seconds| measure(seconds, &mut report));
    let Some(traced) = traced else {
        report.metric("setup_s", setup_s);
        untraced.report_latency(&mut report);
        report.metric("queries_per_s", stats::median(&per_s));
        report.metric("bits_per_query", total_bits as f64 / sessions.len() as f64);
        report.metric("detect_rate", detected as f64 / far_sessions.max(1) as f64);
        report.note("cpu_share", jnum(untraced.cpu_share()));
        return Ok(report);
    };

    let trace = Trace::new(tracer.spans());
    let family_ms: Vec<f64> = SERIAL_SPANS
        .iter()
        .map(|name| stats::median(&trace.per_query_ms(name)))
        .collect();
    // Σ serial session time ÷ (workers × batch wall time), per batch.
    let mut serial_by_batch = trace.by_query_ms(SERIAL_SPANS[0]);
    for name in &SERIAL_SPANS[1..] {
        for (q, ms) in trace.by_query_ms(name) {
            *serial_by_batch.entry(q).or_default() += ms;
        }
    }
    let walls = trace.by_query_ms("query");
    let efficiency: Vec<f64> = serial_by_batch
        .iter()
        .filter_map(|(q, serial)| {
            walls
                .get(q)
                .map(|wall| serial / (pool.threads() as f64 * wall))
        })
        .collect();
    for (metric, &ms) in SERIAL_METRICS.iter().zip(&family_ms) {
        report.metric(metric, ms);
    }
    let serial_total: f64 = family_ms.iter().sum();
    let largest = family_ms.iter().copied().fold(0.0, f64::max);
    report.note(
        "largest_family_share",
        jnum(largest / serial_total.max(1e-9)),
    );
    report.metric(
        "player.prepare_ms",
        stats::median(&trace.per_query_ms("player.prepare")),
    );
    report.metric("session.cache_hits", stats::median(&hits));
    report.metric("session.cache_misses", stats::median(&misses));
    report.metric("scheduler.efficiency", stats::median(&efficiency));
    report_tracing(&mut report, &untraced, &traced, &trace);
    Ok(report)
}
