//! # geogossip
//!
//! A reproduction of *Geographic Gossip on Geometric Random Graphs via Affine
//! Combinations* (Hariharan Narayanan, PODC 2007): distributed averaging on
//! sensor networks where long-range exchanges use **non-convex affine
//! combinations** between the leaders of a hierarchical square partition,
//! bringing the transmission count down to `n^{1+o(1)}` from the `Õ(n^{1.5})`
//! of plain geographic gossip and the `Õ(n²)` of nearest-neighbor gossip.
//!
//! This meta-crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geometry`] | `geogossip-geometry` | points, rectangles, spatial grid, the hierarchical square partition |
//! | [`graph`] | `geogossip-graph` | geometric random graphs `G(n, r)`, connectivity, degrees |
//! | [`routing`] | `geogossip-routing` | greedy geographic routing, cell flooding, partner selection |
//! | [`sim`] | `geogossip-sim` | Poisson clocks, the asynchronous engine, transmission accounting |
//! | [`core`] | `geogossip-core` | the gossip protocols (pairwise, geographic, hierarchical affine) and the Lemma 1/2 models |
//! | [`net`] | `geogossip-net` | message-passing runtime: sensor actors, typed messages, the deterministic simulated scheduler |
//! | [`analysis`] | `geogossip-analysis` | statistics, power-law fits, occupancy checks, table rendering |
//! | [`lab`] | `geogossip-lab` | sweep lab: checkpointed parameter-grid campaigns, streaming aggregation, scaling verdicts |
//! | [`telemetry`] | `geogossip-telemetry` | deterministic structured events, phase timers, the unified metrics registry |
//!
//! # Quickstart
//!
//! ```
//! use geogossip::core::prelude::*;
//! use geogossip::geometry::sampling::sample_unit_square;
//! use geogossip::graph::GeometricGraph;
//! use geogossip::sim::SeedStream;
//!
//! // 1. Place 256 sensors uniformly at random and connect them at the
//! //    standard radius r = 2·sqrt(log n / n).
//! let seeds = SeedStream::new(42);
//! let positions = sample_unit_square(256, &mut seeds.stream("placement"));
//! let network = GeometricGraph::build_at_connectivity_radius(positions, 2.0);
//!
//! // 2. Give every sensor an initial measurement (here: a single spike).
//! let values = InitialCondition::Spike.generate(network.len(), &mut seeds.stream("values"));
//!
//! // 3. Run the paper's protocol (round-based form) until the ℓ₂ error has
//! //    dropped below 5% of its initial value, and inspect the cost.
//! let mut protocol = RoundBasedAffineGossip::new(
//!     &network,
//!     values,
//!     RoundBasedConfig::idealized(network.len()),
//! )?;
//! let report = protocol.run_until(0.05, &mut seeds.stream("run"));
//! assert!(report.converged);
//! println!("transmissions: {}", report.transmissions.total());
//! # Ok::<(), geogossip::core::ProtocolError>(())
//! ```
//!
//! The runnable examples in `examples/` walk through the same flow
//! (`quickstart`), a three-way protocol comparison (`compare_protocols`), a
//! scaling study (`scaling_study`) and a routing/hierarchy demonstration
//! (`network_anatomy`). Every quantitative claim of the paper has one
//! experiment module, E1–E10, in [`experiments`], whose header states the
//! claim; `geogossip experiment all --scale smoke` runs them all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use geogossip_analysis as analysis;
pub use geogossip_core as core;
pub use geogossip_geometry as geometry;
pub use geogossip_graph as graph;
pub use geogossip_lab as lab;
pub use geogossip_net as net;
pub use geogossip_routing as routing;
pub use geogossip_sim as sim;
pub use geogossip_telemetry as telemetry;

pub mod experiments;

/// The builtin protocol registry with the message-passing runtime attached.
///
/// This is [`geogossip_core::builtin_runner`] plus [`net::NetRuntime`]: specs
/// without a `transport` key run on the shared-memory engine exactly as
/// before (bit-identically — the net layer is never constructed), and specs
/// with one run on the simulated message-passing scheduler.
pub fn builtin_runner() -> sim::scenario::Runner {
    geogossip_core::builtin_runner().with_transport(Box::new(geogossip_net::NetRuntime))
}
