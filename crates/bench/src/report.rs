//! One protocol execution rendered as an exportable
//! [`CostReport`] — the engine behind `triad report` and the
//! `BENCH_*.json` files.
//!
//! The CLI and the bench harness both need "generate an input, run a
//! protocol, summarize the cost against the paper's bound"; this module
//! is that pipeline so the two emit byte-identical schemas.

use crate::experiments::Scale;
use crate::predict;
use crate::workloads::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use triad_comm::{CostReport, Recorder, ReportParams};
use triad_graph::generators;
use triad_graph::partition::random_disjoint;
use triad_protocols::{
    baseline::run_send_everything, ProtocolError, ProtocolRun, SimProtocolKind, SimultaneousTester,
    Tuning, UnrestrictedTester,
};

/// The protocol names `triad report` accepts, in display order.
pub const PROTOCOLS: &[&str] = &[
    "unrestricted",
    "sim-low",
    "sim-high",
    "sim-oblivious",
    "exact",
];

/// The generator names `triad report` accepts, in display order.
pub const GENERATORS: &[&str] = &["planted", "gnp", "powerlaw", "dense-core"];

/// Errors from assembling or running a report.
#[derive(Debug, Clone)]
pub enum ReportError {
    /// Unknown protocol or generator name, or bad parameters.
    Usage(String),
    /// The protocol itself rejected the input.
    Protocol(ProtocolError),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Usage(msg) => write!(f, "{msg}"),
            ReportError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<ProtocolError> for ReportError {
    fn from(e: ProtocolError) -> Self {
        ReportError::Protocol(e)
    }
}

/// Generates the named workload at `(n, d, eps, k)` and partitions it
/// randomly among the players.
///
/// # Errors
///
/// Returns [`ReportError::Usage`] on an unknown generator name or
/// parameters the generator rejects.
pub fn generate(
    generator: &str,
    n: usize,
    d: f64,
    eps: f64,
    k: usize,
    seed: u64,
) -> Result<Workload, ReportError> {
    if k == 0 {
        return Err(ReportError::Usage("k must be positive".into()));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = match generator {
        "planted" => generators::far_graph(n, d, eps, &mut rng)
            .map_err(|e| ReportError::Usage(e.to_string()))?,
        "gnp" => generators::gnp_with_average_degree(n, d, &mut rng),
        "powerlaw" => generators::ChungLu::new(n, d, 2.5)
            .map_err(|e| ReportError::Usage(e.to_string()))?
            .sample(&mut rng),
        "dense-core" => generators::dense_core(n, 4, &mut rng)
            .map_err(|e| ReportError::Usage(e.to_string()))?
            .graph()
            .clone(),
        other => {
            return Err(ReportError::Usage(format!(
                "unknown generator `{other}` (expected one of {})",
                GENERATORS.join(", ")
            )))
        }
    };
    let partition = random_disjoint(&graph, k, &mut rng);
    Ok(Workload {
        n,
        d: graph.average_degree(),
        k,
        graph,
        partition,
    })
}

/// Runs the named protocol over an already-generated workload.
///
/// # Errors
///
/// Returns [`ReportError::Usage`] on an unknown protocol name and
/// [`ReportError::Protocol`] when the run itself fails.
pub fn run_protocol(
    protocol: &str,
    w: &Workload,
    eps: f64,
    seed: u64,
) -> Result<ProtocolRun, ReportError> {
    let tuning = Tuning::practical(eps);
    let run = match protocol {
        "unrestricted" => UnrestrictedTester::new(tuning).run(&w.graph, &w.partition, seed)?,
        "sim-low" => SimultaneousTester::new(
            tuning,
            SimProtocolKind::Low {
                avg_degree: w.d.max(0.1),
            },
        )
        .run(&w.graph, &w.partition, seed)?,
        "sim-high" => SimultaneousTester::new(
            tuning,
            SimProtocolKind::High {
                avg_degree: w.d.max(0.1),
            },
        )
        .run(&w.graph, &w.partition, seed)?,
        "sim-oblivious" => SimultaneousTester::new(tuning, SimProtocolKind::Oblivious).run(
            &w.graph,
            &w.partition,
            seed,
        )?,
        "exact" => run_send_everything(&w.graph, &w.partition, seed)?,
        other => {
            return Err(ReportError::Usage(format!(
                "unknown protocol `{other}` (expected one of {})",
                PROTOCOLS.join(", ")
            )))
        }
    };
    Ok(run)
}

/// Builds a [`CostReport`] from a finished run, attaching the paper's
/// predicted bound when the protocol has one. The run's parameters
/// arrive bundled as a [`ReportParams`] (the same struct the report
/// embeds), not as a positional argument list.
pub fn report_for_run(params: ReportParams, run: &ProtocolRun) -> CostReport {
    let (protocol, n, d, k) = (params.protocol.clone(), params.n, params.d, params.k);
    let report =
        CostReport::from_tally(params, run.outcome_str(), run.stats, run.transcript.tally());
    match predict::for_protocol(&protocol, n, d, k) {
        Some(p) => report.with_predicted(p.formula, p.bits),
        None => report,
    }
}

/// The full `triad report` pipeline: generate, run, summarize.
///
/// # Errors
///
/// Returns [`ReportError::Usage`] on unknown names or bad parameters
/// and [`ReportError::Protocol`] when the run fails.
///
/// # Example
///
/// ```
/// let report = triad_bench::report::run_report(
///     "sim-low", "planted", 256, 4, 6.0, 0.2, 7,
/// ).unwrap();
/// let phase_sum: u64 = report.phases.iter().map(|r| r.bits).sum();
/// assert_eq!(phase_sum, report.total_bits);
/// ```
pub fn run_report(
    protocol: &str,
    generator: &str,
    n: usize,
    k: usize,
    d: f64,
    eps: f64,
    seed: u64,
) -> Result<CostReport, ReportError> {
    let w = generate(generator, n, d, eps, k, seed)?;
    let run = run_protocol(protocol, &w, eps, seed)?;
    let params = ReportParams {
        protocol: protocol.to_string(),
        generator: generator.to_string(),
        n,
        k,
        d: w.d,
        eps,
        seed,
    };
    Ok(report_for_run(params, &run))
}

/// The standard cost suite: every protocol on the planted workload at
/// pinned parameters and seed, so the resulting `BENCH_costs.json` is
/// byte-for-byte diffable across revisions.
///
/// Protocols run in parallel on the configured pool
/// ([`triad_comm::pool::Pool::current`]); reports are emitted in
/// registry order, so the JSON bytes do not depend on the thread count.
///
/// # Panics
///
/// Panics if a protocol run fails — the parameters are pinned, so a
/// failure is a regression, not an input problem.
pub fn standard_suite(scale: Scale) -> Vec<CostReport> {
    standard_suite_with(&triad_comm::pool::Pool::current(), scale)
}

/// [`standard_suite`] on an explicit pool.
///
/// # Panics
///
/// Panics if a protocol run fails (see [`standard_suite`]).
pub fn standard_suite_with(pool: &triad_comm::pool::Pool, scale: Scale) -> Vec<CostReport> {
    let (n, d, k, seed) = scale.pick((512, 6.0, 4, 7), (4096, 8.0, 8, 7));
    pool.ordered_map(PROTOCOLS.len(), |i| {
        let p = PROTOCOLS[i];
        run_report(p, "planted", n, k, d, 0.2, seed)
            .unwrap_or_else(|e| panic!("standard suite {p}: {e}"))
    })
}

/// Writes reports to `<dir>/BENCH_<name>.json` (creating `dir` if
/// needed) and returns the path.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_bench_json(
    dir: &std::path::Path,
    name: &str,
    reports: &[CostReport],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let file = std::fs::File::create(&path)?;
    triad_comm::write_reports_json(reports, std::io::BufWriter::new(file))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_protocol_reports_partitioned_phases() {
        for protocol in PROTOCOLS {
            let r = run_report(protocol, "planted", 256, 4, 6.0, 0.2, 11)
                .unwrap_or_else(|e| panic!("{protocol}: {e}"));
            assert_eq!(r.params.protocol, *protocol);
            let phase_sum: u64 = r.phases.iter().map(|x| x.bits).sum();
            assert_eq!(
                phase_sum, r.total_bits,
                "{protocol}: phases must partition total"
            );
            let player_sum: u64 = r.per_player.iter().map(|x| x.bits).sum();
            assert_eq!(
                player_sum, r.total_bits,
                "{protocol}: players must partition total"
            );
            let p = r
                .predicted
                .as_ref()
                .expect("all five protocols have bounds");
            assert!(p.bits > 0.0);
        }
    }

    #[test]
    fn every_generator_yields_a_runnable_workload() {
        for generator in GENERATORS {
            let r = run_report("exact", generator, 240, 3, 6.0, 0.2, 5)
                .unwrap_or_else(|e| panic!("{generator}: {e}"));
            assert!(r.total_bits > 0, "{generator}");
        }
    }

    #[test]
    fn unknown_names_are_usage_errors() {
        assert!(matches!(
            run_report("nope", "planted", 128, 2, 4.0, 0.2, 0),
            Err(ReportError::Usage(_))
        ));
        assert!(matches!(
            run_report("exact", "nope", 128, 2, 4.0, 0.2, 0),
            Err(ReportError::Usage(_))
        ));
    }

    #[test]
    fn standard_suite_writes_diffable_bench_json() {
        let reports = standard_suite(Scale::Quick);
        assert_eq!(reports.len(), PROTOCOLS.len());
        let dir = std::env::temp_dir().join(format!("triad-bench-json-{}", std::process::id()));
        let path = write_bench_json(&dir, "costs", &reports).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_costs.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.matches("\"schema_version\"").count(),
            PROTOCOLS.len(),
            "one report object per protocol"
        );
        // Pinned seeds: a second run must produce identical bytes.
        let again = standard_suite(Scale::Quick);
        let mut buf = Vec::new();
        triad_comm::write_reports_json(&again, &mut buf).unwrap();
        assert_eq!(
            text.as_bytes(),
            buf.as_slice(),
            "BENCH json must be deterministic"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unrestricted_report_names_search_phases() {
        let r = run_report("unrestricted", "planted", 300, 4, 6.0, 0.2, 3).unwrap();
        let keys: Vec<&str> = r.phases.iter().map(|x| x.key.as_str()).collect();
        assert!(
            keys.iter()
                .any(|k| *k == "estimate-degree" || *k == "find-candidates"),
            "expected search phases in {keys:?}"
        );
    }
}
