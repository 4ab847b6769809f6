//! Scenarios as data: declarative experiment descriptions and a runner
//! facade.
//!
//! The paper's headline claim is a *comparison* — pairwise (Boyd et al.) vs
//! geographic (Dimakis et al.) vs affine gossip — across network regimes.
//! This module makes every such comparison a **data change instead of a code
//! change**: a [`ScenarioSpec`] composes
//!
//! * a [`TopologySpec`] — size, [`PlacementSpec`] (uniform / clustered /
//!   perforated), radius regime, and surface
//!   ([`geogossip_geometry::Topology`]: unit square or torus),
//! * a [`Field`](crate::field::Field) — the initial measurement vector,
//! * a [`ProtocolSpec`] — a registry name plus serde parameters,
//! * a [`StopCondition`](crate::StopCondition) — validated so `epsilon > 0`
//!   and finite,
//! * a trial count and a master seed,
//!
//! and the [`Runner`] executes it: per trial it derives placement / field /
//! run RNG streams from `(seed, trial)`, builds the protocol through a
//! [`ProtocolFactory`] (the registry lives in `geogossip_core::registry`,
//! above this crate), drives the engine, and returns a structured
//! [`ScenarioReport`] with per-trial costs and summary statistics. Trials run
//! rayon-parallel under the workspace's determinism contract: results are
//! bit-identical to a sequential loop.
//!
//! Specs round-trip through JSON ([`ScenarioSpec::to_json`] /
//! [`ScenarioSpec::from_json`]); the `geogossip` CLI binary is a thin wrapper
//! over exactly this module.
//!
//! # Schema stability
//!
//! The JSON schema (`scenarios/*.json`) is part of the public API: unknown
//! keys at every level of a scenario or sweep, unknown protocol parameters,
//! unknown field / surface tokens are **errors** naming their spec path, and
//! new capabilities are added as new optional keys with defaults, never by
//! repurposing existing ones.
//!
//! # Example
//!
//! ```
//! use geogossip_sim::scenario::ScenarioSpec;
//!
//! let spec = ScenarioSpec::standard("pairwise", 128, 0.1).with_trials(2);
//! let json = spec.to_json();
//! let parsed = ScenarioSpec::from_json(&json).unwrap();
//! assert_eq!(parsed, spec);
//! // Executing the spec needs a protocol registry; see
//! // `geogossip_core::registry::builtin_runner`.
//! ```

pub mod report;
pub mod runner;
pub mod spec;
pub mod sweep;

pub use report::{format_epsilon, reports_table, ScenarioReport, ScenarioSummary, TrialCost};
pub use runner::{ProtocolFactory, Runner};
pub use spec::{
    ParamMap, ParamValue, PlacementSpec, ProtocolSpec, RadiusSpec, ScenarioSpec, TopologySpec,
    STANDARD_MAX_TICKS, STANDARD_RADIUS_CONSTANT, STANDARD_SEED,
};
pub use sweep::{derive_cell_seed, SweepCell, SweepSpec};
