//! E3 — Convergence trajectories: ℓ₂ error versus transmissions.
//!
//! The figure-shaped experiment: on one fixed network instance, run every
//! protocol and record the relative error as a function of the cumulative
//! transmission count. The table prints the series at a fixed grid of error
//! levels ("transmissions needed to first reach error ≤ x"), which is the
//! textual form of the usual error-vs-cost figure.
//!
//! All four protocols are one scenario batch: the specs share the seed and
//! topology, so the runner builds the **same** network and field for each
//! (placement/values streams do not depend on the protocol), while the run
//! streams stay independent through the per-protocol seed tags.

use super::{ExperimentOutput, Scale, COMPARISON_PROTOCOLS};
use geogossip_analysis::Table;
use geogossip_core::registry::builtin_runner;
use geogossip_sim::scenario::ScenarioSpec;
use geogossip_sim::ConvergenceTrace;

/// Error levels reported in the table (the "x axis" of the figure).
pub const ERROR_LEVELS: [f64; 5] = [0.5, 0.2, 0.1, 0.05, 0.02];

fn format_crossing(trace: &ConvergenceTrace, level: f64) -> String {
    match trace.transmissions_to_reach(level) {
        Some(tx) => tx.to_string(),
        None => "—".into(),
    }
}

/// Runs experiment E3.
pub fn run(scale: Scale, seed: u64) -> ExperimentOutput {
    let n = match scale {
        Scale::Smoke => 128,
        Scale::Quick => 512,
        Scale::Full => 1024,
    };
    let epsilon = *ERROR_LEVELS.last().expect("levels are non-empty");
    let specs: Vec<ScenarioSpec> = COMPARISON_PROTOCOLS
        .iter()
        .map(|&protocol| ScenarioSpec::standard(protocol, n, epsilon).with_seed(seed))
        .collect();
    let reports = builtin_runner()
        .run_all(&specs)
        .expect("standard specs are valid");
    let traces: Vec<&ConvergenceTrace> = reports.iter().map(|r| &r.trials[0].trace).collect();

    let mut table = Table::new(vec![
        "error level",
        "pairwise (Boyd) tx",
        "geographic (Dimakis) tx",
        "affine idealized tx",
        "affine recursive tx",
    ]);
    for &level in &ERROR_LEVELS {
        let mut row = vec![format!("{level}")];
        row.extend(traces.iter().map(|t| format_crossing(t, level)));
        table.add_row(row);
    }

    let ordering_holds = match (
        traces[0].transmissions_to_reach(epsilon),
        traces[1].transmissions_to_reach(epsilon),
    ) {
        (Some(pw), Some(geo)) => geo < pw,
        _ => false,
    };

    ExperimentOutput {
        id: "E3".into(),
        title: format!("error-vs-transmissions trajectories on one G(n={n}, 1.5√(log n/n)) instance (east-west gradient field)"),
        table,
        summary: vec![
            format!(
                "geographic gossip beats pairwise gossip at the target error: {}",
                if ordering_holds { "yes (as the paper's §1.1 comparison predicts)" } else { "NO" }
            ),
            "the affine columns show long-range cost dominated by control/local traffic at small n;".into(),
            "their advantage is in the scaling exponent (experiment E4), not in absolute cost at laptop sizes.".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_rows() {
        let out = run(Scale::Smoke, 3);
        assert_eq!(out.table.len(), ERROR_LEVELS.len());
        // The pairwise-vs-geographic ordering is only expected to show at
        // realistic sizes (Quick/Full); at the smoke size (n = 128) the radius
        // is so large that the two baselines are close, so the smoke test only
        // checks that the harness produced a verdict either way.
        assert!(out.summary[0].contains("yes") || out.summary[0].contains("NO"));
    }
}
