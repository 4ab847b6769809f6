//! E9 — Uniformity of the geographically-addressed partner distribution.
//!
//! Geographic gossip contacts "the node nearest a uniformly random position",
//! whose law is proportional to Voronoi-cell areas; rejection sampling is used
//! in \[5\] (and inherited by the paper) to make it roughly uniform over nodes.
//! The experiment draws many partners under three selectors — uniform by
//! index (the ideal), nearest-to-position (no correction), and
//! rejection-sampled — and reports two skew statistics.

use super::{ExperimentOutput, Scale};
use crate::workload::standard_network;
use geogossip_analysis::Table;
use geogossip_geometry::point::NodeId;
use geogossip_routing::target::{TargetSelector, TargetStats};
use geogossip_sim::SeedStream;

/// Runs experiment E9.
pub fn run(scale: Scale, seed: u64) -> ExperimentOutput {
    let (n, draws, probes): (usize, usize, usize) = match scale {
        Scale::Smoke => (256, 5_000, 20_000),
        Scale::Quick => (1024, 50_000, 200_000),
        Scale::Full => (2048, 100_000, 500_000),
    };
    let seeds = SeedStream::new(seed);
    let network = standard_network(n, &seeds, 9);
    let caller = NodeId(0);
    let mut rng = seeds.stream("e9");

    let selectors = vec![
        ("uniform by index (ideal)", TargetSelector::UniformByIndex),
        (
            "nearest to uniform position",
            TargetSelector::NearestToUniformPosition,
        ),
        (
            "rejection sampled (as in [5])",
            TargetSelector::rejection_sampled(&network, probes, 20, &mut rng),
        ),
    ];

    let mut table = Table::new(vec![
        "partner selector",
        "draws",
        "max frequency / uniform",
        "normalized χ² dispersion",
    ]);
    let mut dispersions = Vec::new();
    for (name, selector) in &selectors {
        let stats = TargetStats::collect(&network, selector, caller, draws, &mut rng);
        let chi = stats.normalized_chi_square(caller);
        dispersions.push(chi);
        table.add_row(vec![
            (*name).into(),
            stats.total.to_string(),
            format!("{:.2}", stats.max_over_uniform(caller)),
            format!("{chi:.2}"),
        ]);
    }

    let improvement = dispersions[1] / dispersions[2].max(1e-9);
    ExperimentOutput {
        id: "E9".into(),
        title: format!("partner-distribution uniformity on n = {n} (single caller, {draws} draws)"),
        table,
        summary: vec![
            format!(
                "rejection sampling reduces the χ² dispersion of the raw geographic selector by {improvement:.1}× (1.0 ≈ perfectly uniform)"
            ),
            "verdict: geographic addressing alone is mildly non-uniform; rejection sampling flattens it as [5] claims".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_orders_selectors_sensibly() {
        let out = run(Scale::Smoke, 9);
        assert_eq!(out.table.len(), 3);
        let ideal: f64 = out.table.rows()[0][3].parse().unwrap();
        let raw: f64 = out.table.rows()[1][3].parse().unwrap();
        // The ideal selector is at least as uniform as raw geographic
        // addressing.
        assert!(ideal <= raw + 0.5);
    }
}
