//! One module per experiment, E1–E10. Each module's header states the
//! paper's claim it measures and how.
//!
//! The paper contains no numbered tables or figures (it is purely
//! analytical), so each experiment reifies one quantitative claim of the
//! text. Every experiment is a pure function from a [`Scale`] and a master
//! seed to an [`ExperimentOutput`]; [`EXPERIMENTS`] lists them in order, and
//! `geogossip experiment <E1..E10|all> [--scale smoke|quick|full] [--seed S]`
//! runs them and prints the result.
//!
//! Every experiment builds its instances through the scenario API
//! ([`geogossip_sim::scenario`]) or its topology machinery, so the network
//! model (uniform placement, standard connectivity radius), the seeding
//! scheme and the execution path are identical across experiments and across
//! the protocols being compared. They run on
//! [`builtin_runner`](geogossip_core::registry::builtin_runner), the
//! shared-memory engine without the message-passing runtime.

use geogossip_analysis::Table;

pub mod e01_lemma1;
pub mod e02_lemma2;
pub mod e03_trajectories;
pub mod e04_scaling;
pub mod e05_routing;
pub mod e06_connectivity;
pub mod e07_occupancy;
pub mod e08_coefficient;
pub mod e09_uniformity;
pub mod e10_hierarchy;

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds — used by the test-suite.
    Smoke,
    /// A few minutes — the default for the CLI.
    Quick,
    /// The full-scale sizes each experiment module sets.
    Full,
}

impl Scale {
    /// Parses a scale name (`smoke`/`quick`/`full`); anything else is
    /// `None`.
    pub fn parse(arg: &str) -> Option<Self> {
        match arg {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// The result of one experiment: the table to print plus free-form summary
/// lines (fitted exponents, pass/fail verdicts, caveats).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutput {
    /// Experiment identifier, e.g. `"E4"`.
    pub id: String,
    /// One-line title.
    pub title: String,
    /// The main result table.
    pub table: Table,
    /// Additional summary lines printed after the table.
    pub summary: Vec<String>,
}

impl ExperimentOutput {
    /// Renders the output for a terminal: title, Markdown table, summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {}: {} ==\n\n{}",
            self.id,
            self.title,
            self.table.to_markdown()
        );
        for line in &self.summary {
            out.push('\n');
            out.push_str(line);
        }
        out.push('\n');
        out
    }
}

/// Standard seed used by the CLI so every experiment's table is regenerable
/// verbatim.
pub const DEFAULT_SEED: u64 = 20070612;

/// An experiment's entry point: scale and master seed in, output out.
pub type ExperimentFn = fn(Scale, u64) -> ExperimentOutput;

/// Every experiment by id, in presentation order.
pub const EXPERIMENTS: [(&str, ExperimentFn); 10] = [
    ("E1", e01_lemma1::run),
    ("E2", e02_lemma2::run),
    ("E3", e03_trajectories::run),
    ("E4", e04_scaling::run),
    ("E5", e05_routing::run),
    ("E6", e06_connectivity::run),
    ("E7", e07_occupancy::run),
    ("E8", e08_coefficient::run),
    ("E9", e09_uniformity::run),
    ("E10", e10_hierarchy::run),
];

/// The four protocols of the paper's comparison, in presentation order
/// (used by E3 and E4).
pub const COMPARISON_PROTOCOLS: [&str; 4] = [
    "pairwise",
    "geographic",
    "affine-idealized",
    "affine-recursive",
];

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_core::registry::builtin_runner;
    use geogossip_sim::field::{Field, InitialCondition};
    use geogossip_sim::scenario::{ScenarioSpec, TopologySpec};
    use geogossip_sim::SeedStream;

    #[test]
    fn standard_network_is_connected_and_reproducible() {
        let seeds = SeedStream::new(1);
        let a = TopologySpec::standard(256).build(&seeds, 0);
        let b = TopologySpec::standard(256).build(&seeds, 0);
        assert!(a.is_connected());
        assert_eq!(a.positions(), b.positions());
        let c = TopologySpec::standard(256).build(&seeds, 1);
        assert_ne!(a.positions(), c.positions());
    }

    #[test]
    fn all_comparison_protocols_converge_on_a_small_instance() {
        let runner = builtin_runner();
        for protocol in COMPARISON_PROTOCOLS {
            for field in [
                Field::Condition(InitialCondition::Spike),
                Field::SpatialGradient,
            ] {
                let spec = ScenarioSpec::standard(protocol, 128, 0.1)
                    .with_seed(2)
                    .with_field(field);
                let report = runner.run(&spec).expect("standard spec is valid");
                assert!(
                    report.all_converged(),
                    "{protocol} did not converge on {field}"
                );
                assert!(report.summary.mean_transmissions > 0.0);
            }
        }
    }

    #[test]
    fn protocol_labels_are_distinct() {
        let runner = builtin_runner();
        let labels: std::collections::HashSet<String> = COMPARISON_PROTOCOLS
            .iter()
            .map(|p| {
                runner
                    .run(&ScenarioSpec::standard(p, 128, 0.5).with_seed(3))
                    .expect("valid spec")
                    .protocol_label
            })
            .collect();
        assert_eq!(labels.len(), COMPARISON_PROTOCOLS.len());
    }
}
