//! Routing substrate for geographic gossip.
//!
//! Both the Dimakis et al. baseline and the paper's hierarchical protocol move
//! packets between *non-adjacent* sensors by greedy geographic routing, and the
//! paper's `Activate.square`/`Deactivate.square` subroutines reach every member
//! of a square by flooding restricted to that square. This crate implements:
//!
//! * [`greedy`] — greedy geographic forwarding: at every hop the packet moves
//!   to the neighbor closest (in Euclidean distance) to the target position,
//!   stopping when no neighbor improves on the current node. Hop counts and
//!   dead-end failures are reported, never hidden.
//! * [`flood`] — flooding restricted to a subset of nodes (a square of the
//!   hierarchical partition), with transmission accounting.
//! * [`target`] — selection of a "uniformly random node" by sampling a uniform
//!   position and routing to the nearest sensor, with optional rejection
//!   sampling to flatten the node distribution (the trick used in \[5\] and
//!   inherited by the paper).
//!
//! # Example
//!
//! ```
//! use geogossip_graph::GeometricGraph;
//! use geogossip_geometry::{connectivity_radius, sampling::sample_unit_square};
//! use geogossip_routing::greedy::route_to_node;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let pts = sample_unit_square(400, &mut ChaCha8Rng::seed_from_u64(5));
//! let g = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
//! let outcome = route_to_node(&g, 0.into(), 399.into());
//! assert!(outcome.delivered);
//! assert!(outcome.hops >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flood;
pub mod greedy;
pub mod target;

pub use flood::{flood_cell, FloodOutcome};
pub use greedy::{
    round_trip, route_terminus, route_terminus_masked, route_terminus_to_node,
    route_terminus_to_node_masked, route_to_node, route_to_position, route_to_position_into,
    FastRoute, RouteOutcome,
};
pub use target::{TargetSelector, TargetStats};
