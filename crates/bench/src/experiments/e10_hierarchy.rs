//! E10 — Shape of the hierarchical partition.
//!
//! Section 4.1 claims the recursion depth is `ℓ ~ log log n` and that w.h.p.
//! each sensor is the leader of at most one square (cell centers are well
//! separated). The experiment builds the practical-threshold hierarchy across
//! sizes and reports depth, cell counts, leaf populations and leader
//! conflicts; it also reports the paper-faithful `(log n)^8` threshold, which
//! never splits at laptop sizes (README.md, "Paper substitutions", item 1).

use super::{ExperimentOutput, Scale};
use geogossip_analysis::Table;
use geogossip_geometry::{PartitionConfig, SquarePartition};
use geogossip_sim::scenario::PlacementSpec;
use geogossip_sim::SeedStream;

/// Runs experiment E10.
pub fn run(scale: Scale, seed: u64) -> ExperimentOutput {
    let sizes: &[usize] = match scale {
        Scale::Smoke => &[256, 1024],
        Scale::Quick => &[256, 1024, 4096, 16384, 65536],
        Scale::Full => &[256, 1024, 4096, 16384, 65536, 262144],
    };
    let seeds = SeedStream::new(seed);
    let mut table = Table::new(vec![
        "n",
        "levels ℓ (practical threshold)",
        "log₂ log₂ n",
        "total cells",
        "leaf cells",
        "mean leaf population",
        "leader conflicts",
        "levels with paper's (log n)^8 threshold",
    ]);
    let mut conflicts_total = 0usize;

    for &n in sizes {
        let points = PlacementSpec::UniformSquare.sample(n, &mut seeds.trial("e10", n as u64));
        let practical = SquarePartition::build(&points, PartitionConfig::practical(n));
        let faithful = SquarePartition::build(&points, PartitionConfig::paper_faithful(n));
        let leaf_count = practical.leaves().count();
        let mean_leaf: f64 = practical
            .leaves()
            .map(|c| c.members().len() as f64)
            .sum::<f64>()
            / leaf_count.max(1) as f64;
        let conflicts = practical.leader_conflicts();
        conflicts_total += conflicts;
        let loglog = (n as f64).log2().log2();
        table.add_row(vec![
            n.to_string(),
            practical.levels().to_string(),
            format!("{loglog:.1}"),
            practical.num_cells().to_string(),
            leaf_count.to_string(),
            format!("{mean_leaf:.1}"),
            conflicts.to_string(),
            faithful.levels().to_string(),
        ]);
    }

    ExperimentOutput {
        id: "E10".into(),
        title: "hierarchy depth, leaf sizes and leader separation".into(),
        table,
        summary: vec![
            format!(
                "total leader conflicts across all sizes: {conflicts_total} (paper: zero w.h.p.)"
            ),
            "the practical threshold yields Θ(log log n)-growth depth; the paper's literal (log n)^8 threshold never splits at these sizes — see README.md, Paper substitutions, item 1".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_reports_depths() {
        let out = run(Scale::Smoke, 10);
        assert_eq!(out.table.len(), 2);
        let levels_small: usize = out.table.rows()[0][1].parse().unwrap();
        let levels_large: usize = out.table.rows()[1][1].parse().unwrap();
        assert!(levels_large >= levels_small);
        // The paper-faithful threshold never splits at these sizes.
        let faithful: usize = out.table.rows()[0][7].parse().unwrap();
        assert_eq!(faithful, 1);
    }
}
