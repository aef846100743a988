//! `perfbench` — the end-to-end and per-layer benchmark of the triad
//! workspace.
//!
//! ```text
//! perfbench --workload <store-1m|sessions-mixed|net-interactive>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one query in flight, measured for
//! `--seconds`, its inputs made from `--seed`. With `--trace 0` the last
//! line of standard output is one JSON object holding the end-to-end
//! metrics; with `--trace 1` the first half of the time is measured
//! untraced and the second half traced, and the object holds the
//! per-layer metrics. Every output is checked; a wrong answer prints
//! `"correct": false` and exits with code 1. Earlier lines print the
//! machine descriptor, the drift probes and a digest of verdicts and
//! bits. See `README.md` beside this file for what each workload and
//! metric is for.

mod net;
mod sessions;
mod stats;
mod store;
mod sys;
mod trace;

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use triad_graph::{Edge, Graph, GraphBuilder, VertexId};

/// The end-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_ms", "ms"),
    ("query_ms_p90", "ms"),
    ("queries_per_s", "1/s"),
    ("bits_per_query", "bits"),
    ("detect_rate", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, printed by every traced run (0 where the
/// workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 28] = [
    ("store.open_ms", "ms"),
    ("partition.by_vertex_ms", "ms"),
    ("player.prepare_ms", "ms"),
    ("player.release_ms", "ms"),
    ("amplify.run_ms", "ms"),
    ("simultaneous.message_ms", "ms"),
    ("simultaneous.referee_ms", "ms"),
    ("simultaneous.posted_edges", "count"),
    ("session.cache_hits", "count"),
    ("session.cache_misses", "count"),
    ("amplify.serial_ms.unrestricted", "ms"),
    ("amplify.serial_ms.low", "ms"),
    ("amplify.serial_ms.high", "ms"),
    ("amplify.serial_ms.oblivious", "ms"),
    ("amplify.serial_ms.exact", "ms"),
    ("scheduler.efficiency", "ratio"),
    ("daemon.census_ms", "ms"),
    ("daemon.connect_ms", "ms"),
    ("tcp.reseed_ms", "ms"),
    ("runtime.requests_per_query", "count"),
    ("runtime.self_ms", "ms"),
    ("tcp.round_trip_us", "us"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.bytes_per_query", "bytes"),
    ("process.cpu_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["store-1m", "sessions-mixed", "net-interactive"];

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A seed for one purpose (`tag`) derived from the run's `--seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    triad_comm::mix64(triad_comm::mix64(seed) ^ tag)
}

/// Renders `s` as a JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `x` as a JSON number (non-finite values, which no metric
/// should produce, become 0).
pub fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Renders `(key, already-rendered JSON value)` pairs as an object.
pub fn jobj(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", jstr(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Everything a workload hands back to be printed.
#[derive(Debug, Default)]
pub struct Report {
    /// Queries (sessions, for sessions-mixed) attempted.
    pub attempted: u64,
    /// Queries that ended in a typed error, an inconclusive verdict or
    /// a session error.
    pub failed: u64,
    /// Wrong answers: every entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload-specific descriptor entries (rendered JSON values).
    pub notes: Vec<(String, String)>,
    /// The verdict-and-bits digest entries (rendered JSON values).
    pub digest: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_string(), value.into()));
    }

    pub fn mismatch(&mut self, what: String) {
        // A broken workload could repeat one mismatch thousands of
        // times; the first few tell the story.
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }
}

/// Per-run context shared by the workloads.
pub struct Ctx {
    pub args: Args,
    pub tracer: Arc<Tracer>,
    /// Where the run may write scratch files (inside the checkout).
    pub scratch: PathBuf,
}

/// A random bipartite graph on `n` vertices with average degree about
/// `d`: triangle-free by construction.
pub fn bipartite(n: usize, d: f64, rng: &mut ChaCha8Rng) -> Graph {
    let half = (n / 2) as u32;
    let mut b = GraphBuilder::new(n);
    for _ in 0..(n as f64 * d / 2.0) as usize {
        let u = rng.gen_range(0..half);
        let v = rng.gen_range(half..n as u32);
        b.add_edge(Edge::new(VertexId(u), VertexId(v)));
    }
    b.build()
}

/// Folds `x` into a running digest.
pub fn fold(h: u64, x: u64) -> u64 {
    triad_comm::mix64(h ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The latencies of a closed loop plus its wall and CPU time.
#[derive(Debug, Default)]
pub struct Loop {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Loop {
    /// Runs `query()` at least once and again until `seconds` have
    /// passed or it returns `None` (the loop cannot go on); each call
    /// returns the latency it measured, in milliseconds.
    pub fn run(seconds: f64, mut query: impl FnMut() -> Option<f64>) -> Loop {
        let cpu0 = sys::process_cpu_s();
        let start = Instant::now();
        let mut latencies_ms = Vec::new();
        while let Some(ms) = query() {
            latencies_ms.push(ms);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        Loop {
            latencies_ms,
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: sys::process_cpu_s() - cpu0,
        }
    }

    pub fn median_ms(&self) -> f64 {
        stats::median(&self.latencies_ms)
    }

    pub fn cpu_share(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cpu_s / self.wall_s
        } else {
            0.0
        }
    }

    /// Completed queries per second of loop time.
    pub fn per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.latencies_ms.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// The latency metrics every workload reports from its untraced
    /// loop, plus the sample counts behind them.
    pub fn report_latency(&self, report: &mut Report) {
        report.metric("query_ms", self.median_ms());
        report.metric("query_ms_p90", stats::quantile(&self.latencies_ms, 0.9));
        report.note("samples", self.latencies_ms.len().to_string());
        report.note(
            "beyond_p90",
            stats::beyond(&self.latencies_ms, 0.9).to_string(),
        );
    }
}

/// Runs `measure` untraced for all of `--seconds` or, in a traced run,
/// untraced for the first half and traced for the second. Returns the
/// untraced loop and the traced one, if any.
pub fn phases(ctx: &Ctx, mut measure: impl FnMut(f64) -> Loop) -> (Loop, Option<Loop>) {
    if !ctx.args.trace {
        return (measure(ctx.args.seconds), None);
    }
    let untraced = measure(ctx.args.seconds / 2.0);
    ctx.tracer.set_enabled(true);
    let traced = measure(ctx.args.seconds / 2.0);
    ctx.tracer.set_enabled(false);
    (untraced, Some(traced))
}

/// The per-layer metrics every workload's traced run reports.
pub fn report_tracing(report: &mut Report, untraced: &Loop, traced: &Loop, trace: &trace::Trace) {
    report.metric("process.cpu_share", untraced.cpu_share());
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced.median_ms() / untraced.median_ms() - 1.0),
    );
    report.metric("trace.unattributed_pct", trace.unattributed_pct("query"));
    report.note("untraced_samples", untraced.latencies_ms.len().to_string());
    report.note("traced_samples", traced.latencies_ms.len().to_string());
}

/// Times `setups` repetitions of `f` and returns the median in seconds
/// plus the value of the last repetition; the spread of the repetitions
/// goes to the descriptor.
pub fn median_setup<T>(
    setups: usize,
    report: &mut Report,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups.max(1) {
        // Drop the previous repetition's value first, so each set-up
        // starts from the same state.
        drop(last.take());
        let start = Instant::now();
        let value = f()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let last = last.expect("at least one set-up ran");
    report.note("setups", times.len().to_string());
    report.note(
        "setup_s_quartiles",
        format!(
            "[{},{},{}]",
            jnum(stats::quantile(&times, 0.25)),
            jnum(stats::median(&times)),
            jnum(stats::quantile(&times, 0.75))
        ),
    );
    Ok((stats::median(&times), last))
}

/// Times the drift probes in a child process, so their 64 MiB table
/// never counts toward this process's peak memory.
fn probe() -> String {
    let child = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .arg("--probe")
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    match child {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "null".into(),
    }
}

fn run() -> Result<i32, String> {
    if std::env::args().nth(1).as_deref() == Some("--probe") {
        println!(
            "{}",
            jobj(&[
                ("cpu_ms".into(), jnum(sys::cpu_probe_ms())),
                ("mem_ms".into(), jnum(sys::memory_probe_ms())),
            ])
        );
        return Ok(0);
    }
    let args = parse_args()?;
    let nproc = sys::nproc();
    if args.workload != "sessions-mixed" {
        // Only sessions-mixed exists to use every core. net-interactive
        // shares one CPU between coordinator and players, as cross-CPU
        // wake-ups otherwise dominate its round trips;
        // store-1m, serial but for its amplified run, no longer waits on
        // a second CPU that a shared machine may be slow to give it.
        // Threads and the probe processes started from here on inherit
        // the mask.
        sys::pin_to_one_cpu()?;
    }
    // Pools are sized from the CPUs this process may use, never from
    // the environment.
    triad_comm::pool::set_threads(sys::nproc());
    let probe_start = probe();
    let ticks_start = sys::cpu_ticks();
    let scratch = PathBuf::from(".perfbench").join("tmp");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("cannot create {scratch:?}: {e}"))?;
    let scratch_fs = sys::filesystem_of(&scratch);
    let ctx = Ctx {
        tracer: Arc::new(Tracer::new(false)),
        scratch,
        args: args.clone(),
    };

    let mut report = match args.workload.as_str() {
        "store-1m" => store::run(&ctx)?,
        "sessions-mixed" => sessions::run(&ctx)?,
        "net-interactive" => net::run(&ctx)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if !args.trace {
        report.metric("peak_rss_mb", sys::peak_rss_mb());
        let ok = report.attempted.saturating_sub(report.failed) as f64;
        report.metric("ok_ratio", ok / report.attempted.max(1) as f64);
    }
    let trace_file = if args.trace {
        let dir = PathBuf::from(".perfbench").join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        ctx.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        jstr(&path.display().to_string())
    } else {
        "null".into()
    };
    // Best effort: the scratch directory is empty by now unless another
    // run shares it.
    let _ = std::fs::remove_dir(&ctx.scratch);

    let mut descriptor = vec![
        ("workload".to_string(), jstr(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), jnum(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("cpu_model".into(), jstr(&sys::cpu_model())),
        ("affinity".into(), jstr(&sys::affinity())),
        (
            "scratch_dir".into(),
            jstr(&ctx.scratch.display().to_string()),
        ),
        ("scratch_fs".into(), jstr(&scratch_fs)),
        ("trace_file".into(), trace_file),
        ("probe_start".into(), probe_start),
    ];
    descriptor.extend(report.notes.iter().cloned());
    let ticks_end = sys::cpu_ticks();
    let steal = ticks_end.0.saturating_sub(ticks_start.0) as f64;
    let total = ticks_end.1.saturating_sub(ticks_start.1).max(1) as f64;
    descriptor.push(("steal_pct".into(), jnum(100.0 * steal / total)));
    descriptor.push(("probe_end".into(), probe()));
    println!("{}", jobj(&[("descriptor".into(), jobj(&descriptor))]));
    let mut digest = vec![("workload".to_string(), jstr(&args.workload))];
    digest.extend(report.digest.iter().cloned());
    println!("{}", jobj(&[("digest".into(), jobj(&digest))]));
    for m in &report.mismatches {
        println!("{}", jobj(&[("mismatch".into(), jstr(m))]));
    }

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        metrics.push((
            name.to_string(),
            jobj(&[("value".into(), jnum(value)), ("unit".into(), jstr(unit))]),
        ));
    }
    let correct = report.mismatches.is_empty();
    println!(
        "{}",
        jobj(&[
            ("correct".into(), correct.to_string()),
            ("attempted".into(), report.attempted.to_string()),
            ("failed".into(), report.failed.to_string()),
            ("metrics".into(), jobj(&metrics)),
        ])
    );
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
