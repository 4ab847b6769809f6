//! One module per experiment, E1–E10. Each module's header states the
//! paper's claim it measures and how.
//!
//! Every experiment is a pure function from a [`Scale`] and a master seed to
//! an [`ExperimentOutput`]; the binaries in `src/bin/` only parse arguments,
//! call the function, and print the result.

use geogossip_analysis::Table;
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds — used by the test-suite.
    Smoke,
    /// A few minutes — the default for the binaries.
    Quick,
    /// The full-scale sizes each experiment module sets.
    Full,
}

impl Scale {
    /// Parses a scale from a command-line argument (`smoke`/`quick`/`full`);
    /// unknown strings fall back to `Quick`.
    pub fn from_arg(arg: Option<&str>) -> Self {
        match arg {
            Some("smoke") => Scale::Smoke,
            Some("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }
}

/// The result of one experiment: the table to print plus free-form summary
/// lines (fitted exponents, pass/fail verdicts, caveats).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Standard seed used by the binaries so every experiment's table is
/// regenerable verbatim.
pub const DEFAULT_SEED: u64 = 20070612;
