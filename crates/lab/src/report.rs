//! Scaling-report emission: Markdown + CSV + JSON on top of a
//! [`SweepAggregate`].
//!
//! Every emitted file is a pure function of the simulation *results*, never
//! of machine speed: wall-clock means live in a separate `timing.csv` that
//! stays **out** of the equality-checked report set, so an uninterrupted run
//! and a killed-and-resumed run produce byte-identical `report.md`,
//! `cells.csv`, `fits.csv` and `report.json` (the CI kill-and-resume check
//! diffs exactly those four).

use crate::aggregate::SweepAggregate;
use crate::error::LabError;
use geogossip_analysis::json::JsonValue;
use geogossip_analysis::Table;
use geogossip_sim::scenario::format_epsilon;
use std::path::{Path, PathBuf};

/// A finished sweep report, ready to render.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Campaign name (the sweep's `name`).
    pub sweep: String,
    /// How many cells the sweep expands to — aggregated cells below this
    /// count mean the campaign is **partial** (killed or `--max-cells`), and
    /// every emitted file says so rather than passing off partial fits as
    /// the full comparison.
    pub expected_cells: u64,
    /// The aggregate behind the report.
    pub aggregate: SweepAggregate,
}

impl SweepReport {
    /// Wraps an aggregate under its campaign name; `expected_cells` is the
    /// sweep's full cell count (`SweepSpec::cell_count`).
    pub fn new(sweep: impl Into<String>, expected_cells: u64, aggregate: SweepAggregate) -> Self {
        SweepReport {
            sweep: sweep.into(),
            expected_cells,
            aggregate,
        }
    }

    /// Whether every cell of the campaign is represented in the aggregate.
    pub fn complete(&self) -> bool {
        self.aggregate.cells.len() as u64 == self.expected_cells
    }

    /// Per-cell summary table (full-precision, result fields only).
    pub fn cells_table(&self) -> Table {
        let mut table = Table::new(vec![
            "cell",
            "name",
            "protocol",
            "group",
            "n",
            "epsilon",
            "trials",
            "converged",
            "mean-tx",
            "tx-ci-lower",
            "tx-ci-upper",
            "median-tx",
            "p95-tx",
            "mean-hops",
            "hops-ci-lower",
            "hops-ci-upper",
            "mean-ticks",
            "ticks-ci-lower",
            "ticks-ci-upper",
            "median-ticks",
            "mean-rounds",
            "mean-final-error",
        ]);
        for cell in &self.aggregate.cells {
            table.add_row(vec![
                cell.index.to_string(),
                cell.name.clone(),
                cell.protocol.clone(),
                cell.coords.to_string(),
                cell.n.to_string(),
                format_epsilon(cell.epsilon),
                cell.trials.to_string(),
                cell.converged.to_string(),
                format!("{}", cell.mean_transmissions),
                format!("{}", cell.ci_transmissions.lower),
                format!("{}", cell.ci_transmissions.upper),
                format!("{}", cell.median_transmissions),
                format!("{}", cell.p95_transmissions),
                format!("{}", cell.mean_hops),
                format!("{}", cell.ci_hops.lower),
                format!("{}", cell.ci_hops.upper),
                format!("{}", cell.mean_ticks),
                format!("{}", cell.ci_ticks.lower),
                format!("{}", cell.ci_ticks.upper),
                format!("{}", cell.median_ticks),
                format!("{}", cell.mean_rounds),
                format!("{}", cell.mean_final_error),
            ]);
        }
        table
    }

    /// Fitted-exponent table — the headline numbers, with their confidence
    /// intervals.
    pub fn fits_table(&self) -> Table {
        let mut table = Table::new(vec![
            "protocol",
            "group",
            "points",
            "excluded-cells",
            "exponent",
            "exponent-ci-lower",
            "exponent-ci-upper",
            "exponent-stderr",
            "prefactor",
            "r-squared",
        ]);
        for fit in &self.aggregate.fits {
            table.add_row(vec![
                fit.protocol.clone(),
                fit.coords.to_string(),
                fit.points.to_string(),
                fit.excluded.to_string(),
                format!("{}", fit.detail.fit.exponent),
                format!("{}", fit.interval.lower),
                format!("{}", fit.interval.upper),
                format!("{}", fit.detail.exponent_stderr),
                format!("{}", fit.detail.fit.prefactor),
                format!("{}", fit.detail.fit.r_squared),
            ]);
        }
        table
    }

    /// Wall-clock means per cell (timing observability; excluded from the
    /// equality-checked report set by living in its own file).
    pub fn timing_table(&self) -> Table {
        let mut table = Table::new(vec!["cell", "name", "mean-seconds", "mean-engine-seconds"]);
        for cell in &self.aggregate.cells {
            table.add_row(vec![
                cell.index.to_string(),
                cell.name.clone(),
                format!("{}", cell.mean_seconds),
                format!("{}", cell.mean_engine_seconds),
            ]);
        }
        table
    }

    /// The human-readable report: summary tables plus the verdict list.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# Sweep report: `{}`\n\n", self.sweep));
        out.push_str(&format!(
            "{} of {} cells, {} fitted series, {} verdicts.\n\n",
            self.aggregate.cells.len(),
            self.expected_cells,
            self.aggregate.fits.len(),
            self.aggregate.verdicts.len()
        ));
        if !self.complete() {
            out.push_str(
                "**PARTIAL CAMPAIGN** — not every cell has results yet; the fits and \
                 verdicts below cover only the completed cells. Resume the sweep \
                 (`--resume`) for the full comparison.\n\n",
            );
        }

        out.push_str("## Fitted scaling exponents (`cost ≈ C·n^k`)\n\n");
        if self.aggregate.fits.is_empty() {
            out.push_str("No series had enough sizes to fit (need ≥ 2 values of `n`).\n\n");
        } else {
            let mut fits = Table::new(vec![
                "protocol",
                "group",
                "points",
                "exponent k",
                "95% CI",
                "prefactor",
                "R²",
            ]);
            for fit in &self.aggregate.fits {
                fits.add_row(vec![
                    fit.protocol.clone(),
                    fit.coords.to_string(),
                    fit.points.to_string(),
                    format!("{:.3}", fit.detail.fit.exponent),
                    fit.interval_text(""),
                    format!("{:.4}", fit.detail.fit.prefactor),
                    format!("{:.4}", fit.detail.fit.r_squared),
                ]);
            }
            out.push_str(&fits.to_markdown());
            out.push('\n');
            let excluded: usize = self.aggregate.fits.iter().map(|f| f.excluded).sum();
            if excluded > 0 {
                out.push_str(&format!(
                    "{excluded} cell(s) with non-converged trials were excluded from the \
                     fits (their transmission counts are cap-saturated, not cost-to-ε).\n\n"
                ));
            }
        }

        out.push_str("## Verdicts\n\n");
        if self.aggregate.verdicts.is_empty() {
            out.push_str("No scaling claims applicable to this sweep's protocols.\n\n");
        } else {
            for verdict in &self.aggregate.verdicts {
                out.push_str(&format!("- {verdict}\n"));
            }
            out.push('\n');
        }

        out.push_str("## Cells\n\n");
        let mut cells = Table::new(vec![
            "cell",
            "protocol",
            "n",
            "ε",
            "converged",
            "mean tx (95% CI)",
            "median tx",
            "p95 tx",
            "mean ticks",
            "mean final error",
        ]);
        for cell in &self.aggregate.cells {
            cells.add_row(vec![
                cell.index.to_string(),
                cell.protocol.clone(),
                cell.n.to_string(),
                format_epsilon(cell.epsilon),
                format!("{}/{}", cell.converged, cell.trials),
                format!(
                    "{:.0} [{:.0}, {:.0}]",
                    cell.mean_transmissions,
                    cell.ci_transmissions.lower,
                    cell.ci_transmissions.upper
                ),
                format!("{:.0}", cell.median_transmissions),
                format!("{:.0}", cell.p95_transmissions),
                format!("{:.0}", cell.mean_ticks),
                format!("{:.3e}", cell.mean_final_error),
            ]);
        }
        out.push_str(&cells.to_markdown());
        out
    }

    /// The structured report document (result fields only — no wall-clock).
    pub fn to_json_value(&self) -> JsonValue {
        let cells = self
            .aggregate
            .cells
            .iter()
            .map(|c| {
                JsonValue::object(vec![
                    ("cell", c.index.into()),
                    ("name", JsonValue::string(c.name.clone())),
                    ("protocol", JsonValue::string(c.protocol.clone())),
                    ("group", JsonValue::string(c.coords.to_string())),
                    ("n", c.n.into()),
                    ("epsilon", c.epsilon.into()),
                    ("trials", c.trials.into()),
                    ("converged", c.converged.into()),
                    ("mean-transmissions", c.mean_transmissions.into()),
                    (
                        "transmissions-ci",
                        JsonValue::Array(vec![
                            c.ci_transmissions.lower.into(),
                            c.ci_transmissions.upper.into(),
                        ]),
                    ),
                    ("median-transmissions", c.median_transmissions.into()),
                    ("p95-transmissions", c.p95_transmissions.into()),
                    ("mean-hops", c.mean_hops.into()),
                    ("mean-ticks", c.mean_ticks.into()),
                    ("median-ticks", c.median_ticks.into()),
                    ("mean-rounds", c.mean_rounds.into()),
                    ("mean-final-error", c.mean_final_error.into()),
                ])
            })
            .collect();
        let fits = self
            .aggregate
            .fits
            .iter()
            .map(|f| {
                JsonValue::object(vec![
                    ("protocol", JsonValue::string(f.protocol.clone())),
                    ("group", JsonValue::string(f.coords.to_string())),
                    ("points", f.points.into()),
                    ("excluded-cells", f.excluded.into()),
                    ("exponent", f.detail.fit.exponent.into()),
                    (
                        "exponent-ci",
                        JsonValue::Array(vec![f.interval.lower.into(), f.interval.upper.into()]),
                    ),
                    ("exponent-stderr", f.detail.exponent_stderr.into()),
                    ("prefactor", f.detail.fit.prefactor.into()),
                    ("r-squared", f.detail.fit.r_squared.into()),
                ])
            })
            .collect();
        let verdicts = self
            .aggregate
            .verdicts
            .iter()
            .map(|v| {
                JsonValue::object(vec![
                    ("claim", JsonValue::string(v.claim.clone())),
                    ("holds", JsonValue::Bool(v.holds)),
                    ("details", JsonValue::string(v.details.clone())),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("sweep", JsonValue::string(self.sweep.clone())),
            ("cells-expected", self.expected_cells.into()),
            ("complete", JsonValue::Bool(self.complete())),
            ("cells", JsonValue::Array(cells)),
            ("fits", JsonValue::Array(fits)),
            ("verdicts", JsonValue::Array(verdicts)),
        ])
    }

    /// Writes the full report set into `dir` (created if missing):
    /// `report.md`, `cells.csv`, `fits.csv`, `report.json` (deterministic —
    /// the kill-and-resume equality set) plus `timing.csv` (wall-clock,
    /// excluded from equality). Returns the written paths.
    pub fn write_dir(&self, dir: &Path) -> Result<Vec<PathBuf>, LabError> {
        let io_err = |path: &Path| {
            let shown = path.display().to_string();
            move |e: std::io::Error| LabError::Io(format!("cannot write `{shown}`: {e}"))
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| LabError::Io(format!("cannot create `{}`: {e}", dir.display())))?;
        let files = [
            ("report.md", self.markdown()),
            ("cells.csv", self.cells_table().to_csv()),
            ("fits.csv", self.fits_table().to_csv()),
            ("report.json", self.to_json_value().pretty() + "\n"),
            ("timing.csv", self.timing_table().to_csv()),
        ];
        let mut written = Vec::with_capacity(files.len());
        for (name, contents) in files {
            let path = dir.join(name);
            std::fs::write(&path, contents).map_err(io_err(&path))?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::SweepAggregator;
    use crate::log::{CellCoords, CellRecord, TrialOutcome};

    fn aggregate() -> SweepAggregate {
        aggregate_over(&[64, 128, 256])
    }

    /// Geographic and affine series over `sizes`, in cell order.
    fn aggregate_over(sizes: &[usize]) -> SweepAggregate {
        let mut agg = SweepAggregator::new();
        for (i, n) in sizes.iter().enumerate() {
            for (j, (protocol, k)) in [("geographic", 1.5f64), ("affine-idealized", 1.02)]
                .iter()
                .enumerate()
            {
                let cost = (2.0 * (*n as f64).powf(*k)).round() as u64;
                let index = j * sizes.len() + i;
                agg.push(&CellRecord {
                    index: index as u64,
                    name: format!("demo/c{index:04}-{protocol}-n{n}"),
                    protocol: (*protocol).into(),
                    coords: CellCoords::parse("unit-square/uniform-square/cc=1.5/eps=0.05")
                        .unwrap(),
                    n: *n,
                    epsilon: 0.05,
                    trials: vec![TrialOutcome {
                        converged: true,
                        transmissions: cost,
                        routing: cost / 2,
                        local: cost - cost / 2,
                        control: 0,
                        rounds: 10,
                        ticks: 10,
                        final_error: 0.04,
                        seconds: 0.5,
                        engine_seconds: 0.4,
                    }],
                });
            }
        }
        agg.finish()
    }

    #[test]
    fn markdown_report_carries_exponents_cis_and_verdicts() {
        let report = SweepReport::new("demo", 6, aggregate());
        let md = report.markdown();
        assert!(md.contains("# Sweep report: `demo`"));
        assert!(md.contains("exponent k"));
        assert!(md.contains("95% CI"));
        assert!(md.contains("PASS"));
        assert!(md.contains("strictly below geographic"));
    }

    #[test]
    fn csv_tables_have_one_row_per_cell_and_fit() {
        let report = SweepReport::new("demo", 6, aggregate());
        assert_eq!(report.cells_table().len(), 6);
        assert_eq!(report.fits_table().len(), 2);
        assert_eq!(report.timing_table().len(), 6);
        let csv = report.fits_table().to_csv();
        assert!(csv.starts_with("protocol,group,points,excluded-cells,exponent,"));
    }

    #[test]
    fn partial_campaigns_are_flagged_in_markdown_and_json() {
        let complete = SweepReport::new("demo", 6, aggregate());
        assert!(complete.complete());
        assert!(!complete.markdown().contains("PARTIAL CAMPAIGN"));
        let doc = JsonValue::parse(&complete.to_json_value().pretty()).unwrap();
        assert_eq!(doc.get("complete").and_then(JsonValue::as_bool), Some(true));

        // The same aggregate presented against a 12-cell campaign is partial.
        let partial = SweepReport::new("demo", 12, aggregate());
        assert!(!partial.complete());
        assert!(partial.markdown().contains("PARTIAL CAMPAIGN"));
        assert!(partial.markdown().contains("6 of 12 cells"));
        let doc = JsonValue::parse(&partial.to_json_value().pretty()).unwrap();
        assert_eq!(
            doc.get("complete").and_then(JsonValue::as_bool),
            Some(false)
        );
        assert_eq!(
            doc.get("cells-expected").and_then(JsonValue::as_u64),
            Some(12)
        );
    }

    #[test]
    fn json_report_parses_back() {
        let report = SweepReport::new("demo", 6, aggregate());
        let doc = JsonValue::parse(&report.to_json_value().pretty()).unwrap();
        assert_eq!(doc.get("sweep").and_then(JsonValue::as_str), Some("demo"));
        assert_eq!(
            doc.get("cells")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len(),
            6
        );
        assert_eq!(
            doc.get("fits").and_then(JsonValue::as_array).unwrap().len(),
            2
        );
        // Result-only: wall-clock fields never enter the JSON report.
        assert!(!report.to_json_value().pretty().contains("seconds"));
    }

    /// A fit through two sizes has no residual degree of freedom: its
    /// verdicts and the Markdown fit table say so instead of printing a
    /// zero-width interval, while the CSV keeps the numbers.
    #[test]
    fn two_point_fits_print_no_interval() {
        let report = SweepReport::new("two", 4, aggregate_over(&[64, 128]));
        assert!(report.aggregate.fits.iter().all(|f| f.detail.dof == 0));
        assert_eq!(report.aggregate.verdicts.len(), 2);
        for verdict in &report.aggregate.verdicts {
            assert!(
                verdict.details.contains("(no CI: 2 points"),
                "{}",
                verdict.details
            );
            assert!(!verdict.details.contains("95% CI"), "{}", verdict.details);
        }
        let md = report.markdown();
        assert!(
            md.contains("— fitted k = 1.500 (no CI: 2 points, R² = 1.000)\n"),
            "{md}"
        );
        assert_eq!(md.matches("| no CI: 2 points |").count(), 2, "{md}");
        assert!(!md.contains("95% CI ["), "{md}");
        assert!(!report.fits_table().to_csv().contains("no CI"));
    }

    #[test]
    fn write_dir_emits_the_full_report_set() {
        let dir = std::env::temp_dir().join("geogossip-lab-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let report = SweepReport::new("demo", 6, aggregate());
        let written = report.write_dir(&dir).unwrap();
        assert_eq!(written.len(), 5);
        for name in [
            "report.md",
            "cells.csv",
            "fits.csv",
            "report.json",
            "timing.csv",
        ] {
            assert!(dir.join(name).is_file(), "missing {name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
