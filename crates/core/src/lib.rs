//! Gossip averaging protocols on geometric random graphs.
//!
//! This is the core crate of the workspace: it implements the paper's
//! contribution — **geographic gossip via non-convex affine combinations**
//! (Narayanan, PODC 2007) — together with the two baselines it is compared
//! against and the complete-graph models its analysis rests on.
//!
//! # Protocols
//!
//! * [`pairwise::PairwiseGossip`] — the Boyd et al. baseline: on each clock
//!   tick a sensor averages with a uniformly random *neighbor*. `Õ(n²)`
//!   transmissions to ε-average on `G(n, r)`.
//! * [`geographic::GeographicGossip`] — the Dimakis et al. baseline: on each
//!   tick a sensor greedily routes to the node nearest a uniformly random
//!   position and the two average. `Õ(n^1.5)` transmissions.
//! * [`affine`] — this paper: a hierarchical square partition with per-cell
//!   leaders; leaders exchange values using *affine* (non-convex) coefficients
//!   as large as `Ω(√n)` and then re-average their cells locally, driving the
//!   total cost to `n^{1+o(1)}`. Provided both as an idealised round-based
//!   recursion ([`affine::round_based`]) and as the paper's literal
//!   state-machine protocol ([`affine::state_machine`]).
//! * [`model`] — the Lemma 1 / Lemma 2 complete-graph dynamics used to verify
//!   the contraction and perturbation bounds directly.
//!
//! # Example
//!
//! ```
//! use geogossip_core::prelude::*;
//! use geogossip_geometry::sampling::sample_unit_square;
//! use geogossip_graph::GeometricGraph;
//! use geogossip_sim::{AsyncEngine, SeedStream, StopCondition};
//!
//! let seeds = SeedStream::new(7);
//! let pts = sample_unit_square(256, &mut seeds.stream("placement"));
//! let graph = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
//! let values = InitialCondition::Spike.generate(graph.len(), &mut seeds.stream("values"));
//!
//! let mut protocol = PairwiseGossip::new(&graph, values).expect("valid network");
//! let mut engine = AsyncEngine::new(graph.len());
//! let report = engine.run(
//!     &mut protocol,
//!     StopCondition::at_epsilon(0.1).with_max_ticks(2_000_000),
//!     &mut seeds.stream("run"),
//! );
//! assert!(report.converged());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod convergence;
pub mod error;
pub mod field;
pub mod geographic;
pub mod model;
pub mod pairwise;
pub mod registry;
pub mod state;
pub mod update;

pub use error::ProtocolError;
pub use registry::{builtin_runner, ProtocolRegistry};
pub use state::{GossipState, InitialCondition};

/// Convenient re-exports of the types most callers need.
pub mod prelude {
    pub use crate::affine::round_based::{
        LocalAveraging, RoundBasedActivation, RoundBasedAffineGossip, RoundBasedConfig,
    };
    pub use crate::affine::state_machine::{AffineStateMachine, ScheduleParams};
    pub use crate::convergence::contraction_rate;
    pub use crate::error::ProtocolError;
    pub use crate::field::Field;
    pub use crate::geographic::GeographicGossip;
    pub use crate::model::{AffineCompleteGraph, PerturbedAffineCompleteGraph};
    pub use crate::pairwise::PairwiseGossip;
    pub use crate::registry::{builtin_runner, ProtocolRegistry};
    pub use crate::state::{GossipState, InitialCondition};
    pub use crate::update::{affine_exchange, convex_average, AffineCoefficient};
}
