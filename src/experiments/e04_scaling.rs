//! E4 — The headline table: scaling exponents of the transmission cost.
//!
//! For each protocol, measure the transmissions needed to reach a fixed
//! relative accuracy across a ladder of network sizes and fit
//! `cost ≈ C·n^k` in log–log space. The paper's comparison (Section 1.2):
//!
//! | protocol | predicted exponent |
//! |---|---|
//! | pairwise (Boyd et al.) | ≈ 2 |
//! | geographic (Dimakis et al.) | ≈ 1.5 |
//! | affine hierarchy (this paper) | 1 + o(1) |
//!
//! The experiment also reports the number of *long-range rounds* used by the
//! affine protocol, whose `O(√n·log n)` growth at the top level is the
//! Lemma-1 mechanism behind the headline exponent.
//!
//! The whole grid is a list of [`ScenarioSpec`]s executed by
//! [`Runner::run_all`](geogossip_sim::scenario::Runner::run_all): sizes ×
//! protocols × trials run in parallel across cores, bit-identically to a
//! sequential loop. Every protocol runs on the master seed, so all four share
//! the instance at each size. The exponent fits and the ordering verdicts
//! come from the sweep lab: each report goes through a
//! [`SweepAggregator`], which fits and judges them exactly as it does a
//! committed sweep's `report.md`.

use super::{ExperimentOutput, Scale, COMPARISON_PROTOCOLS};
use geogossip_analysis::{fit_power_law, Table};
use geogossip_core::registry::builtin_runner;
use geogossip_lab::{CellRecord, SweepAggregator};
use geogossip_sim::scenario::{ScenarioSpec, SweepCell};

/// The paper's exponent for each of [`COMPARISON_PROTOCOLS`], in order.
const PREDICTIONS: [&str; 4] = ["≈ 2", "≈ 1.5", "1 + o(1)", "1 + o(1) (plus polylog)"];

/// Runs experiment E4.
pub fn run(scale: Scale, seed: u64) -> ExperimentOutput {
    let (sizes, epsilon, trials): (&[usize], f64, u64) = match scale {
        Scale::Smoke => (&[64, 128], 0.1, 1),
        Scale::Quick => (&[128, 256, 512, 1024], 0.05, 1),
        Scale::Full => (&[128, 256, 512, 1024, 2048, 4096], 0.05, 3),
    };
    let protocols = COMPARISON_PROTOCOLS;

    // One spec per (protocol, n); the runner interleaves the grid trial-major
    // so every worker gets a mix of sizes.
    let specs: Vec<ScenarioSpec> = protocols
        .iter()
        .flat_map(|&protocol| {
            sizes.iter().map(move |&n| {
                ScenarioSpec::standard(protocol, n, epsilon)
                    .with_seed(seed)
                    .with_trials(trials)
            })
        })
        .collect();
    let reports = builtin_runner()
        .run_all(&specs)
        .expect("standard specs are valid");
    let report_for = |p_idx: usize, n_idx: usize| &reports[p_idx * sizes.len() + n_idx];

    // The lab fits only the sizes at which every trial converged, so a run
    // that hit its stall floor cannot distort an exponent (it is still shown
    // in the table, marked with an asterisk).
    let mut aggregator = SweepAggregator::new();
    for (index, (spec, report)) in specs.into_iter().zip(&reports).enumerate() {
        let cell = SweepCell {
            index: index as u64,
            spec,
        };
        aggregator.push(&CellRecord::new(&cell, report));
    }
    let aggregate = aggregator.finish();

    let mut table = Table::new(vec![
        "n",
        "pairwise tx",
        "geographic tx",
        "affine idealized tx",
        "affine recursive tx",
        "affine top-level rounds",
    ]);
    let mut rounds_points: (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for (n_idx, &n) in sizes.iter().enumerate() {
        let mut row = vec![n.to_string()];
        let mut rounds_for_n = 0.0;
        for (p_idx, &protocol) in protocols.iter().enumerate() {
            let report = report_for(p_idx, n_idx);
            let tx_mean = report.summary.mean_transmissions;
            let mark = if report.all_converged() { "" } else { "*" };
            row.push(format!("{tx_mean:.0}{mark}"));
            if protocol == "affine-idealized" {
                rounds_for_n = report.summary.mean_rounds;
                if report.all_converged() {
                    rounds_points.0.push(n as f64);
                    rounds_points.1.push(rounds_for_n);
                }
            }
        }
        row.push(format!("{rounds_for_n:.0}"));
        table.add_row(row);
    }

    let mut summary = Vec::new();
    for (protocol, prediction) in protocols.iter().zip(PREDICTIONS) {
        summary.push(match aggregate.fits.iter().find(|f| f.protocol == *protocol) {
            Some(fit) => format!(
                "{protocol}: fitted exponent {}, paper predicts {prediction}",
                fit.exponent_text()
            ),
            None => format!(
                "{protocol}: too few converged sizes to fit an exponent (entries marked * did not reach ε)"
            ),
        });
    }
    if let Some(rounds_fit) = fit_power_law(&rounds_points.0, &rounds_points.1) {
        summary.push(format!(
            "affine top-level rounds grow as n^{:.2} (paper: O(√n·log(n/ε)) at the top level)",
            rounds_fit.exponent
        ));
    }
    summary.push("entries marked * did not reach the target accuracy (stall floor of nested local averaging); they are excluded from the fits".into());
    summary.extend(aggregate.verdicts.iter().map(ToString::to_string));

    ExperimentOutput {
        id: "E4".into(),
        title: format!("transmissions to reach relative error {epsilon} vs network size (east-west gradient field)"),
        table,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_fits_exponents() {
        let out = run(Scale::Smoke, 4);
        assert_eq!(out.table.len(), 2);
        assert!(out.summary.iter().any(|s| s.contains("fitted exponent")));
    }

    /// Two sizes leave the fit no degree of freedom: every exponent line says
    /// so instead of printing a zero-width interval, and still gives R².
    #[test]
    fn two_point_fits_print_no_interval() {
        let out = run(Scale::Smoke, 4);
        let fits: Vec<&String> = out
            .summary
            .iter()
            .filter(|s| s.contains("fitted exponent"))
            .collect();
        assert_eq!(fits.len(), 4, "{fits:?}");
        for line in fits {
            assert!(line.contains("(no CI: 2 points, R² = "), "{line}");
            assert!(!line.contains("CI ["), "{line}");
        }
    }
}
