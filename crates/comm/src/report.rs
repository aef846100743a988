//! The cost-report schema shared by `triad report` and the bench harness.
//!
//! A [`CostReport`] is the structured summary of one protocol execution:
//! the run's parameters, its [`CommStats`] totals, the per-phase and
//! per-player rollups of its [`Tally`], and (optionally) the paper's
//! predicted cost for those parameters. The CLI emits one report per
//! invocation; the bench harness emits `BENCH_*.json` arrays of them so
//! measured costs stay diffable across revisions. The JSON schema is
//! documented in `docs/OBSERVABILITY.md`.

use crate::recorder::Tally;
use crate::transcript::{CommStats, Rollup};

/// Version stamped into every exported report; bump on schema changes.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// The run parameters a report records alongside its measurements.
#[derive(Debug, Clone)]
pub struct ReportParams {
    /// Protocol name as invoked (e.g. `sim-oblivious`).
    pub protocol: String,
    /// Input-generator name (e.g. `planted`).
    pub generator: String,
    /// Vertex count.
    pub n: usize,
    /// Number of players.
    pub k: usize,
    /// Average degree of the generated input.
    pub d: f64,
    /// Farness parameter ε.
    pub eps: f64,
    /// The run's seed.
    pub seed: u64,
}

/// The paper's predicted cost for a run's parameters, next to the
/// measurement.
#[derive(Debug, Clone)]
pub struct PredictedBound {
    /// The asymptotic formula, as written in the paper (e.g. `k·√n`).
    pub formula: String,
    /// The formula evaluated at the run's parameters (no hidden
    /// constants or log factors).
    pub bits: f64,
    /// `measured / predicted` — the constant-plus-polylog factor the
    /// asymptotic notation hides.
    pub ratio: f64,
}

/// A structured cost report for one protocol execution.
///
/// # Example
///
/// ```
/// use triad_comm::{BitCost, CostReport, Direction, Recorder, ReportParams, Tally};
///
/// let mut t = Tally::with_players(2);
/// t.set_phase("sample");
/// t.record(Some(0), Direction::ToCoordinator, BitCost(12), "edges");
/// let params = ReportParams {
///     protocol: "demo".into(),
///     generator: "planted".into(),
///     n: 64,
///     k: 2,
///     d: 4.0,
///     eps: 0.2,
///     seed: 7,
/// };
/// let report = CostReport::from_tally(params, "accepted", t.stats(), &t);
/// assert_eq!(report.total_bits, 12);
/// let phase_sum: u64 = report.phases.iter().map(|r| r.bits).sum();
/// assert_eq!(phase_sum, report.total_bits);
/// assert!(report.to_json().contains("\"protocol\": \"demo\""));
/// ```
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Schema version ([`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The run's parameters.
    pub params: ReportParams,
    /// The verdict, as a stable string (`triangle-found` / `accepted`).
    pub outcome: String,
    /// Total bits exchanged.
    pub total_bits: u64,
    /// Communication rounds used.
    pub rounds: u64,
    /// Messages exchanged.
    pub messages: u64,
    /// Largest number of bits any single player sent.
    pub max_player_sent_bits: u64,
    /// Per-phase bit/message rollup; bit totals sum to `total_bits`.
    pub phases: Vec<Rollup>,
    /// Per-player bit/message rollup; bit totals sum to `total_bits`.
    pub per_player: Vec<Rollup>,
    /// The paper's predicted cost, when a formula exists for the protocol.
    pub predicted: Option<PredictedBound>,
}

impl CostReport {
    /// Builds a report from a finished run's statistics and the rollups
    /// of its recorder's [`Tally`] (a [`Transcript`]'s is
    /// [`Recorder::tally`]).
    ///
    /// [`Transcript`]: crate::transcript::Transcript
    /// [`Recorder::tally`]: crate::recorder::Recorder::tally
    pub fn from_tally(
        params: ReportParams,
        outcome: &str,
        stats: CommStats,
        tally: &Tally,
    ) -> Self {
        CostReport {
            schema_version: REPORT_SCHEMA_VERSION,
            params,
            outcome: outcome.to_string(),
            total_bits: stats.total_bits,
            rounds: stats.rounds,
            messages: stats.messages,
            max_player_sent_bits: stats.max_player_sent_bits,
            phases: tally.by_phase(),
            per_player: tally.by_player(),
            predicted: None,
        }
    }

    /// Attaches the paper's predicted cost; the ratio is derived from the
    /// report's measured total.
    #[must_use]
    pub fn with_predicted(mut self, formula: impl Into<String>, bits: f64) -> Self {
        let ratio = if bits > 0.0 {
            self.total_bits as f64 / bits
        } else {
            f64::NAN
        };
        self.predicted = Some(PredictedBound {
            formula: formula.into(),
            bits,
            ratio,
        });
        self
    }

    /// Renders the report as a stable, diffable JSON object.
    pub fn to_json(&self) -> String {
        self.json_indented("")
    }

    fn json_indented(&self, indent: &str) -> String {
        let p = &self.params;
        let mut out = String::new();
        out.push_str(&format!("{indent}{{\n"));
        out.push_str(&format!(
            "{indent}  \"schema_version\": {},\n",
            self.schema_version
        ));
        out.push_str(&format!(
            "{indent}  \"protocol\": \"{}\",\n",
            json_escape(&p.protocol)
        ));
        out.push_str(&format!(
            "{indent}  \"generator\": \"{}\",\n",
            json_escape(&p.generator)
        ));
        out.push_str(&format!("{indent}  \"n\": {},\n", p.n));
        out.push_str(&format!("{indent}  \"k\": {},\n", p.k));
        out.push_str(&format!("{indent}  \"d\": {},\n", json_f64(p.d)));
        out.push_str(&format!("{indent}  \"eps\": {},\n", json_f64(p.eps)));
        out.push_str(&format!("{indent}  \"seed\": {},\n", p.seed));
        out.push_str(&format!(
            "{indent}  \"outcome\": \"{}\",\n",
            json_escape(&self.outcome)
        ));
        out.push_str(&format!("{indent}  \"total_bits\": {},\n", self.total_bits));
        out.push_str(&format!("{indent}  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!("{indent}  \"messages\": {},\n", self.messages));
        out.push_str(&format!(
            "{indent}  \"max_player_sent_bits\": {},\n",
            self.max_player_sent_bits
        ));
        out.push_str(&format!(
            "{indent}  \"phases\": {},\n",
            rollup_array_json(&self.phases, &format!("{indent}  "))
        ));
        out.push_str(&format!(
            "{indent}  \"per_player\": {},\n",
            rollup_array_json(&self.per_player, &format!("{indent}  "))
        ));
        match &self.predicted {
            Some(b) => out.push_str(&format!(
                "{indent}  \"predicted\": {{\"formula\": \"{}\", \"bits\": {}, \"ratio\": {}}}\n",
                json_escape(&b.formula),
                json_f64(b.bits),
                json_f64(b.ratio)
            )),
            None => out.push_str(&format!("{indent}  \"predicted\": null\n")),
        }
        out.push_str(&format!("{indent}}}"));
        out
    }

    /// Renders the report as an aligned human-readable summary.
    pub fn to_text(&self) -> String {
        let p = &self.params;
        let mut out = String::new();
        out.push_str(&format!(
            "{} on {} (n = {}, k = {}, d = {:.2}, eps = {}, seed = {})\n",
            p.protocol, p.generator, p.n, p.k, p.d, p.eps, p.seed
        ));
        out.push_str(&format!("outcome: {}\n", self.outcome));
        out.push_str(&format!(
            "{} bits, {} rounds, {} messages, max player message {} bits\n",
            self.total_bits, self.rounds, self.messages, self.max_player_sent_bits
        ));
        if let Some(b) = &self.predicted {
            out.push_str(&format!(
                "paper bound {} = {:.0} bits (measured/predicted = {:.2})\n",
                b.formula, b.bits, b.ratio
            ));
        }
        out.push_str("per-phase:\n");
        for r in &self.phases {
            out.push_str(&format!(
                "  {:<22} {:>10} bits  {:>8} messages\n",
                r.key, r.bits, r.messages
            ));
        }
        out.push_str("per-player:\n");
        for r in &self.per_player {
            out.push_str(&format!(
                "  {:<22} {:>10} bits  {:>8} messages\n",
                r.key, r.bits, r.messages
            ));
        }
        out
    }
}

/// Writes a slice of reports as one JSON array (the `BENCH_*.json`
/// format).
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_reports_json<W: std::io::Write>(
    reports: &[CostReport],
    mut w: W,
) -> std::io::Result<()> {
    writeln!(w, "[")?;
    for (i, r) in reports.iter().enumerate() {
        let sep = if i + 1 < reports.len() { "," } else { "" };
        writeln!(w, "{}{}", r.json_indented("  "), sep)?;
    }
    writeln!(w, "]")
}

/// Renders a rollup slice as a JSON array (`indent` prefixes each
/// element line).
fn rollup_array_json(rows: &[Rollup], indent: &str) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{indent}  {{\"key\":\"{}\",\"bits\":{},\"messages\":{}}}",
                r.key, r.bits, r.messages
            )
        })
        .collect();
    format!("[\n{}\n{indent}]", body.join(",\n"))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitCost;
    use crate::recorder::Recorder;
    use crate::transcript::Direction;

    fn demo_report() -> CostReport {
        let mut t = Tally::with_players(2);
        t.set_phase("sample");
        t.record(Some(0), Direction::ToCoordinator, BitCost(10), "edges");
        t.set_phase("close");
        t.record(Some(1), Direction::ToCoordinator, BitCost(4), "bit");
        let params = ReportParams {
            protocol: "sim-low".into(),
            generator: "planted".into(),
            n: 100,
            k: 2,
            d: 8.0,
            eps: 0.2,
            seed: 3,
        };
        CostReport::from_tally(params, "accepted", t.stats(), &t)
    }

    #[test]
    fn rollups_sum_to_total() {
        let r = demo_report();
        assert_eq!(r.total_bits, 14);
        assert_eq!(r.phases.iter().map(|x| x.bits).sum::<u64>(), r.total_bits);
        assert_eq!(
            r.per_player.iter().map(|x| x.bits).sum::<u64>(),
            r.total_bits
        );
    }

    #[test]
    fn predicted_ratio_uses_measured_total() {
        let r = demo_report().with_predicted("k·√n", 20.0);
        let b = r.predicted.as_ref().unwrap();
        assert_eq!(b.formula, "k·√n");
        assert!((b.ratio - 14.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn json_contains_schema_and_parses_as_flat_fields() {
        let r = demo_report().with_predicted("k·√n", 20.0);
        let json = r.to_json();
        for needle in [
            "\"schema_version\": 1",
            "\"protocol\": \"sim-low\"",
            "\"generator\": \"planted\"",
            "\"total_bits\": 14",
            "\"phases\":",
            "\"per_player\":",
            "\"predicted\":",
            "\"formula\": \"k·√n\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in\n{json}");
        }
    }

    #[test]
    fn array_writer_separates_reports() {
        let rs = vec![demo_report(), demo_report()];
        let mut buf = Vec::new();
        write_reports_json(&rs, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"schema_version\"").count(), 2);
    }

    #[test]
    fn text_rendering_lists_phases() {
        let r = demo_report();
        let text = r.to_text();
        assert!(text.contains("per-phase:"));
        assert!(text.contains("sample"));
        assert!(text.contains("14 bits"));
    }
}
