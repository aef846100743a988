//! `store-1m`: the `triad test --graph-file` path over an out-of-core
//! graph of 10⁶ vertices.
//!
//! Set-up streams G(n = 10⁶, d = 8) into a binary CSR file with
//! `write_csr`, as `triad gen --kind gnp --format csr` does. Each query
//! then does what `triad test --graph-file FILE --k 4 --scheme vertex
//! --protocol low --reps 3` does: open the store, partition it by
//! vertex among four players, build the player states, and run the
//! amplified `low` tester with d taken from the store. Every query uses
//! the same public seed, so all queries do identical work. The query's
//! inputs are released after its verdict, outside its latency.

use crate::trace::{Trace, Tracer};
use crate::{fold, jstr, median_setup, phases, report_tracing, stats, sub_seed, Ctx, Loop, Report};
use std::path::{Path, PathBuf};
use std::time::Instant;
use triad_comm::{Pool, SharedRandomness, SimMessage, SimultaneousProtocol};
use triad_graph::store::{write_csr, GnpStream};
use triad_graph::{AsCsr, CsrStore};
use triad_protocols::amplify::{rep_seed, run_amplified_prepared, PreparedInput};
use triad_protocols::simultaneous::AlgLow;
use triad_protocols::{SimProtocolKind, SimultaneousTester, TallyRun, TestOutcome, Tuning};

const N: usize = 1_000_000;
const D: f64 = 8.0;
const PLAYERS: usize = 4;
const REPS: u32 = 3;
const EPSILON: f64 = 0.2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Removes the CSR file when the run ends, however it ends.
struct ScratchFile(PathBuf);

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn tuning() -> Tuning {
    // What `triad test` uses by default.
    Tuning::practical(EPSILON).with_repr(Default::default())
}

/// One finished query, with the inputs it built still alive so the
/// traced run can replay its repetitions before they are released.
struct Query {
    latency_ms: f64,
    run: TallyRun,
    avg_degree: f64,
    /// Edges the players posted over the replayed repetitions (traced
    /// queries only).
    posted_edges: Option<u64>,
}

fn query(
    path: &Path,
    tracer: &Tracer,
    q: u32,
    seed: u64,
    report: &mut Report,
) -> Result<Query, String> {
    let start = Instant::now();
    let qs = tracer.begin("query", 0, q);
    let s = tracer.begin("store.open", qs.id, q);
    let store = CsrStore::open(path).map_err(|e| format!("open {path:?}: {e}"));
    tracer.end(s);
    let store = store?;
    let s = tracer.begin("partition.by_vertex", qs.id, q);
    let parts = triad_graph::partition::by_vertex(&store, PLAYERS);
    tracer.end(s);
    let s = tracer.begin("player.prepare", qs.id, q);
    let input = PreparedInput::from_partition(store.vertex_count(), &parts);
    tracer.end(s);
    let input = input.map_err(|e| format!("prepare: {e}"))?;
    let avg_degree = store.average_degree();
    let tester = SimultaneousTester::new(tuning(), SimProtocolKind::Low { avg_degree });
    let s = tracer.begin("amplify.run", qs.id, q);
    let run = run_amplified_prepared(&Pool::current(), &tester, &input, REPS, seed);
    tracer.end(s);
    tracer.end(qs);
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;

    let run = match run {
        Ok(run) => run,
        Err(e) => {
            report.failed += 1;
            return Err(format!("query {q} failed: {e}"));
        }
    };
    // One-sided error: a reported triangle must be in the stored graph.
    if let Some(t) = run.outcome.triangle() {
        if t.edges().iter().any(|&e| store.edge_index(e).is_none()) {
            report.mismatch(format!(
                "query {q}: reported triangle {t} is not in the graph"
            ));
        }
    }
    let posted_edges = tracer
        .enabled()
        .then(|| replay(&input, avg_degree, seed, &run, tracer, q, report));
    let s = tracer.begin("player.release", 0, q);
    drop(input);
    drop(parts);
    drop(store);
    tracer.end(s);
    Ok(Query {
        latency_ms,
        run,
        avg_degree,
        posted_edges,
    })
}

/// Replays the amplified run's repetitions serially through
/// `SimultaneousProtocol::{message, referee}`, timing each side, and
/// checks that the replay reaches the same verdict and bits. Returns
/// the number of edges the players posted.
fn replay(
    input: &PreparedInput<'_>,
    avg_degree: f64,
    seed: u64,
    run: &TallyRun,
    tracer: &Tracer,
    q: u32,
    report: &mut Report,
) -> u64 {
    let protocol = AlgLow::new(tuning(), avg_degree);
    let n = input.n();
    let mut bits = 0u64;
    let mut posted = 0u64;
    let mut outcome = TestOutcome::NoTriangleFound;
    for r in 0..REPS {
        let shared = SharedRandomness::new(rep_seed(seed, r));
        let s = tracer.begin("simultaneous.message", 0, q);
        let messages: Vec<SimMessage> = input
            .players()
            .iter()
            .map(|p| protocol.message(p, &shared))
            .collect();
        tracer.end(s);
        bits += messages.iter().map(|m| m.bit_len(n).get()).sum::<u64>();
        posted += messages
            .iter()
            .map(|m| m.edges().count() as u64)
            .sum::<u64>();
        let s = tracer.begin("simultaneous.referee", 0, q);
        let found = protocol.referee(n, &messages, &shared);
        tracer.end(s);
        if let Some(t) = found {
            outcome = TestOutcome::TriangleFound(t);
            break;
        }
    }
    if outcome != run.outcome || bits != run.stats.total_bits {
        report.mismatch(format!(
            "query {q}: serial replay gave {outcome:?} / {bits} bits, the amplified run {:?} / {} bits",
            run.outcome, run.stats.total_bits
        ));
    }
    posted
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = ctx.args.seed;
    let path = ctx
        .scratch
        .join(format!("store-1m-{}.csr", std::process::id()));
    let _cleanup = ScratchFile(path.clone());
    let graph_seed = sub_seed(seed, 1);
    let (setup_s, summary) = median_setup(SETUPS, &mut report, || {
        let stream = GnpStream::with_average_degree(N, D, graph_seed).map_err(|e| e.to_string())?;
        write_csr(&path, &stream).map_err(|e| format!("write {path:?}: {e}"))
    })?;
    report.note("vertices", summary.vertices.to_string());
    report.note("edges", summary.edges.to_string());
    report.note("file_bytes", summary.file_bytes.to_string());
    report.note("pool_threads", Pool::current().threads().to_string());
    report.note("eps_far_queries", "0");

    let query_seed = sub_seed(seed, 2);
    let tracer = &ctx.tracer;
    // One unmeasured query lets the allocator and page cache settle.
    let first = query(&path, tracer, 0, query_seed, &mut report)?;
    report.note("warmup_ms", crate::jnum(first.latency_ms));
    report.note("avg_degree", crate::jnum(first.avg_degree));
    let verdict = match first.run.outcome.triangle() {
        Some(t) => format!("triangle {t}"),
        None => "accepted".into(),
    };
    report.digest.push(("verdict".into(), jstr(&verdict)));
    report
        .digest
        .push(("bits".into(), first.run.stats.total_bits.to_string()));
    report.digest.push((
        "hash".into(),
        jstr(&format!(
            "{:016x}",
            fold(
                fold(0, first.run.stats.total_bits),
                u64::from(first.run.outcome.found_triangle())
            )
        )),
    ));

    let mut q = 0u32;
    let mut posted = Vec::new();
    let mut measure = |seconds: f64, report: &mut Report| {
        Loop::run(seconds, || {
            q += 1;
            report.attempted += 1;
            match query(&path, tracer, q, query_seed, report) {
                Ok(done) => {
                    if done.run.stats != first.run.stats || done.run.outcome != first.run.outcome {
                        report.mismatch(format!(
                            "query {q}: same seed gave {:?} / {} bits, the first query {:?} / {} bits",
                            done.run.outcome,
                            done.run.stats.total_bits,
                            first.run.outcome,
                            first.run.stats.total_bits
                        ));
                    }
                    posted.extend(done.posted_edges.map(|p| p as f64));
                    Some(done.latency_ms)
                }
                Err(_) => None,
            }
        })
    };

    let (untraced, traced) = phases(ctx, |seconds| measure(seconds, &mut report));
    let Some(traced) = traced else {
        report.metric("setup_s", setup_s);
        untraced.report_latency(&mut report);
        report.metric("queries_per_s", untraced.per_s());
        report.metric("bits_per_query", first.run.stats.total_bits as f64);
        // No query here is on an ε-far input, so none can be missed.
        report.metric("detect_rate", 1.0);
        report.note("cpu_share", crate::jnum(untraced.cpu_share()));
        return Ok(report);
    };

    let trace = Trace::new(tracer.spans());
    let med = |name: &str| stats::median(&trace.per_query_ms(name));
    report.metric("store.open_ms", med("store.open"));
    report.metric("partition.by_vertex_ms", med("partition.by_vertex"));
    report.metric("player.prepare_ms", med("player.prepare"));
    report.metric("player.release_ms", med("player.release"));
    report.metric("amplify.run_ms", med("amplify.run"));
    report.metric("simultaneous.message_ms", med("simultaneous.message"));
    report.metric("simultaneous.referee_ms", med("simultaneous.referee"));
    report.metric("simultaneous.posted_edges", stats::median(&posted));
    report_tracing(&mut report, &untraced, &traced, &trace);
    Ok(report)
}
