//! Statistics, regression and table rendering for the gossip experiments.
//!
//! Every experiment (E1–E10 in the root package's `src/experiments/`) reduces
//! simulation output to one of a few statistical summaries:
//!
//! * [`stats`] — streaming mean/variance/min/max, quantiles, and confidence
//!   intervals over repeated trials;
//! * [`regression`] — ordinary least squares and log–log power-law fits, used
//!   to extract the scaling exponents the paper's headline claim is about
//!   (`~n²` vs `~n^1.5` vs `~n^{1+o(1)}`);
//! * [`concentration`] — Chernoff-style occupancy checks for the partition
//!   (Section 3's `|#(□_i)/√n − 1| < 1/10` claim);
//! * [`table`] — plain-text/Markdown table rendering and CSV/JSON emission so
//!   `geogossip experiment` prints exactly the rows the modules compute;
//! * [`histogram`] — log-bucketed (power-of-two) histograms with exactly
//!   associative merges, backing the telemetry layer's wall-clock phase
//!   profiles;
//! * [`json`] — a minimal JSON document model (parser + writer) backing the
//!   scenario spec/report and sweep serialization (the vendored `serde` is a
//!   no-op stand-in, so JSON is hand-rendered throughout the workspace).
//!
//! # Example
//!
//! ```
//! use geogossip_analysis::regression::fit_power_law;
//! // Perfect n^1.5 data recovers exponent 1.5.
//! let xs: [f64; 4] = [64.0, 128.0, 256.0, 512.0];
//! let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x.powf(1.5)).collect();
//! let fit = fit_power_law(&xs, &ys).unwrap();
//! assert!((fit.exponent - 1.5).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concentration;
pub mod histogram;
pub mod json;
pub mod regression;
pub mod stats;
pub mod table;

pub use concentration::OccupancyCheck;
pub use histogram::LogHistogram;
pub use json::JsonValue;
pub use regression::{
    fit_power_law, fit_power_law_detailed, linear_fit, linear_fit_detailed, LinearFit,
    LinearFitDetail, PowerLawFit, PowerLawFitDetail,
};
pub use stats::{ConfidenceInterval, P2Quantile, Summary};
pub use table::Table;
