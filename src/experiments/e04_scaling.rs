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
//! sequential loop.

use super::{ExperimentOutput, Scale, COMPARISON_PROTOCOLS};
use geogossip_analysis::{fit_power_law, fit_power_law_detailed, PowerLawFitDetail, Table};
use geogossip_core::registry::builtin_runner;
use geogossip_sim::scenario::ScenarioSpec;

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

    let mut table = Table::new(vec![
        "n",
        "pairwise tx",
        "geographic tx",
        "affine idealized tx",
        "affine recursive tx",
        "affine top-level rounds",
    ]);
    // Per protocol: the (n, mean transmissions) points of CONVERGED runs only,
    // so a run that hit its stall floor cannot distort the exponent fit (it is
    // still shown in the table, marked with an asterisk).
    let mut points: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); protocols.len()];
    let mut rounds_points: (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());

    for (n_idx, &n) in sizes.iter().enumerate() {
        let mut row = vec![n.to_string()];
        let mut rounds_for_n = 0.0;
        for (p_idx, &protocol) in protocols.iter().enumerate() {
            let report = report_for(p_idx, n_idx);
            let tx_mean = report.summary.mean_transmissions;
            if report.all_converged() {
                points[p_idx].0.push(n as f64);
                points[p_idx].1.push(tx_mean);
                row.push(format!("{tx_mean:.0}"));
            } else {
                row.push(format!("{tx_mean:.0}*"));
            }
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
    let predictions = ["≈ 2", "≈ 1.5", "1 + o(1)", "1 + o(1) (plus polylog)"];
    let mut labels = Vec::new();
    let mut exponents = Vec::new();
    for (p_idx, _) in protocols.iter().enumerate() {
        let label = &report_for(p_idx, 0).protocol_label;
        labels.push(label.as_str());
        if let Some(detail) = fit_power_law_detailed(&points[p_idx].0, &points[p_idx].1) {
            exponents.push(detail.fit.exponent);
            summary.push(format!(
                "{label}: fitted exponent {}, paper predicts {}",
                exponent_text(&detail),
                predictions[p_idx]
            ));
        } else {
            exponents.push(f64::NAN);
            summary.push(format!(
                "{label}: too few converged sizes to fit an exponent (entries marked * did not reach ε)"
            ));
        }
    }
    if let Some(rounds_fit) = fit_power_law(&rounds_points.0, &rounds_points.1) {
        summary.push(format!(
            "affine top-level rounds grow as n^{:.2} (paper: O(√n·log(n/ε)) at the top level)",
            rounds_fit.exponent
        ));
    }
    summary.push("entries marked * did not reach the target accuracy (stall floor of nested local averaging); they are excluded from the fits".into());
    summary.extend(ordering_verdicts(&labels, &exponents));

    ExperimentOutput {
        id: "E4".into(),
        title: format!("transmissions to reach relative error {epsilon} vs network size (east-west gradient field)"),
        table,
        summary,
    }
}

/// `k = …` with its 95% interval and R². A fit through two sizes has no
/// residual degree of freedom, so it gets no interval rather than a
/// zero-width one.
fn exponent_text(detail: &PowerLawFitDetail) -> String {
    let k = detail.fit.exponent;
    if detail.dof == 0 {
        return format!("k = {k:.2} (no CI: 2 points)");
    }
    let ci = detail.exponent_interval(1.96);
    format!(
        "k = {k:.2} (95% CI [{:.2}, {:.2}], R² = {:.3})",
        ci.lower, ci.upper, detail.fit.r_squared
    )
}

/// One verdict per affine variant on the paper's ordering
/// `affine < geographic < pairwise`. `labels` and `exponents` follow
/// [`COMPARISON_PROTOCOLS`]: pairwise, geographic, then the affine variants;
/// a `NaN` exponent marks a protocol that could not be fitted.
fn ordering_verdicts(labels: &[&str], exponents: &[f64]) -> Vec<String> {
    let (pairwise, geographic) = (exponents[0], exponents[1]);
    labels
        .iter()
        .zip(exponents)
        .skip(2)
        .map(|(label, &affine)| {
            let verdict = if [affine, geographic, pairwise].iter().any(|k| k.is_nan()) {
                "not checked: an exponent could not be fitted"
            } else if affine < geographic && geographic < pairwise {
                "holds"
            } else {
                "DOES NOT HOLD at these sizes"
            };
            format!("exponent ordering {label} < geographic < pairwise: {verdict}")
        })
        .collect()
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
    /// so instead of printing a zero-width interval.
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
            assert!(line.contains("(no CI: 2 points)"), "{line}");
            assert!(!line.contains("CI ["), "{line}");
        }
    }

    /// Each affine variant gets its own ordering verdict under its own
    /// label, and a variant that breaks the ordering reads DOES NOT HOLD even
    /// when the other one holds.
    #[test]
    fn ordering_is_checked_for_every_affine_variant() {
        let labels = ["pairwise", "geographic", "idealized", "recursive"];
        let verdicts = ordering_verdicts(&labels, &[1.82, 1.33, 1.01, 2.27]);
        assert_eq!(
            verdicts,
            [
                "exponent ordering idealized < geographic < pairwise: holds",
                "exponent ordering recursive < geographic < pairwise: DOES NOT HOLD at these sizes",
            ]
        );
        let unfitted = ordering_verdicts(&labels, &[1.82, 1.33, f64::NAN, 1.1]);
        assert!(unfitted[0].ends_with("not checked: an exponent could not be fitted"));
        assert!(unfitted[1].ends_with("holds"));

        let out = run(Scale::Smoke, 4);
        let lines: Vec<&String> = out
            .summary
            .iter()
            .filter(|s| s.starts_with("exponent ordering"))
            .collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("idealized"), "{}", lines[0]);
        assert!(lines[1].contains("recursive"), "{}", lines[1]);
    }
}
