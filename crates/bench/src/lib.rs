//! Experiment harness for the paper reproduction.
//!
//! The paper contains no numbered tables or figures (it is purely analytical),
//! so the [`experiments`] module defines ten experiments E1–E10, each
//! reifying one quantitative claim of the text that its module header
//! states. This crate implements every experiment as a library function
//! returning a [`geogossip_analysis::Table`] plus a small summary, and
//! exposes one binary per experiment
//! (`cargo run --release -p geogossip-bench --bin e4_scaling_exponents`).
//!
//! Every experiment accepts a [`Scale`] so that the same code path backs
//! three uses:
//!
//! * [`Scale::Smoke`] — seconds; used by the test-suite to keep the harness
//!   honest,
//! * [`Scale::Quick`] — a few minutes; the default for the binaries,
//! * [`Scale::Full`] — the full-scale sizes each experiment module sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod legacy;
pub mod timing;
pub mod workload;

pub use experiments::{ExperimentOutput, Scale};
