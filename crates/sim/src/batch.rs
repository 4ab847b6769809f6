//! Tick batching: the engine's intra-trial parallel path.
//!
//! The Poisson tick stream of the paper's gossip protocols has a structural
//! property this module exploits: **every random decision of a tick is
//! value-independent**. Which sensor wakes, which neighbor or target position
//! it draws, and where greedy routing delivers the packet depend only on the
//! static graph and the RNG stream — never on the gossip values. Only the
//! *averaging* (and the stop condition watching it) reads mutable state. A
//! batch of ticks can therefore be
//!
//! 1. **drawn** sequentially (cheap: a handful of RNG draws per tick, in
//!    exactly the order the sequential engine draws them),
//! 2. **resolved** concurrently (the expensive greedy route walks — pure
//!    functions of the static graph, parallelised over the whole batch with
//!    an order-preserving map), and
//! 3. **committed** sequentially in draw order (required bit-for-bit: the
//!    gossip state's incremental `Σ(x−x̄)²` cache folds non-associative
//!    floating-point deltas, so commits must replay in the exact order the
//!    sequential engine applies them — the *batch draw-order contract*).
//!
//! Reports, traces, metrics, and RNG end state therefore stay bit-identical
//! to [`crate::engine::AsyncEngine::run`].
//!
//! # Footprints, for the day commits run concurrently
//!
//! Nothing gates on conflicts today, because commits replay in draw order.
//! Concurrent commits would be sound only among ticks with disjoint
//! **footprints**, and a footprint must over-approximate every sensor a tick
//! can read, write, or relay through — relays included, not just endpoints.
//! For pairwise gossip that is the two partners. For a geographic round from
//! `s` towards target `t` it is the disk of radius `d(s, t)` around `t` (every
//! greedy hop is strictly closer to `t` than `s`, so the outbound route and
//! the partner lie inside) united with the disk of radius `2·d(s, t)` around
//! `s` (the return route, by the triangle inequality). Footprints may only
//! ever grow: over-approximation costs parallelism, under-approximation is a
//! silent data race. On geographic instances these corridors cover most of
//! the unit square, so conflict-free groups would rarely exceed one tick.

use crate::clock::Tick;
use crate::engine::Activation;
use crate::error::ProtocolError;
use crate::metrics::TransmissionCounter;
use geogossip_geometry::point::NodeId;
use geogossip_geometry::Point;
use geogossip_graph::GeometricGraph;
use geogossip_routing::greedy::{route_terminus, route_terminus_to_node};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Default number of ticks pre-drawn per batch by the parallel engine path.
pub const DEFAULT_TICK_BATCH: usize = 1024;

/// Worker threads of the global pool — what a `threads: 0`-style "auto"
/// setting should resolve to (honours `RAYON_NUM_THREADS`).
pub fn available_threads() -> usize {
    rayon::current_num_threads()
}

/// Intra-trial parallelism settings: how many threads may work on one trial
/// and how many ticks the engine pre-draws per batch.
///
/// Carried by the optional `parallelism` key of a scenario spec; when the key
/// is absent the sequential path runs and no batch buffer is ever built (the
/// no-key-no-wrapper convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelSpec {
    /// Maximum worker threads for one trial's tick loop (≥ 1; 1 keeps the
    /// batched structure but resolves inline on the calling thread).
    pub threads: usize,
    /// Ticks pre-drawn per batch (≥ 1). Larger batches amortise the
    /// per-batch snapshot and pool overhead; smaller ones waste fewer
    /// pre-drawn ticks when a run stops mid-batch. Defaults to
    /// [`DEFAULT_TICK_BATCH`].
    pub batch: usize,
}

impl ParallelSpec {
    /// Settings with the given thread cap and the default batch size.
    pub fn with_threads(threads: usize) -> Self {
        ParallelSpec {
            threads,
            batch: DEFAULT_TICK_BATCH,
        }
    }

    /// Replaces the batch size (builder style).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Checks both knobs are usable (strictly positive).
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.threads == 0 {
            return Err(ProtocolError::invalid(
                "parallelism.threads",
                "thread count must be at least 1",
            ));
        }
        if self.batch == 0 {
            return Err(ProtocolError::invalid(
                "parallelism.batch",
                "tick batch size must be at least 1",
            ));
        }
        Ok(())
    }
}

/// The value-independent decisions of one tick, drawn sequentially from the
/// run RNG with **exactly** the draws the protocol's `on_tick` would consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TickPlan {
    /// The tick has no effect on values or transmissions.
    Skip {
        /// Whether the activated sensor was isolated (pairwise gossip counts
        /// these activations; geographic sub-2-node no-ops do not).
        isolated: bool,
    },
    /// Pairwise exchange with a neighbor already known at draw time.
    Pair {
        /// The drawn neighbor.
        partner: NodeId,
    },
    /// Geographic round towards a uniformly drawn position; the partner is
    /// whoever greedy routing stops at (resolved later, off the RNG stream).
    RoutePosition {
        /// The drawn target position.
        target: Point,
    },
    /// Geographic round towards a selector-drawn node.
    RouteNode {
        /// The drawn destination node.
        target: NodeId,
    },
}

/// A [`TickPlan`] with its heavy, value-independent work done: greedy routes
/// walked, partner and hop counts known. Producing one reads only the static
/// graph, so a whole batch resolves concurrently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResolvedPlan {
    /// No state effect (see [`TickPlan::Skip`]).
    Skip {
        /// Forwarded isolation flag.
        isolated: bool,
    },
    /// Pairwise exchange (nothing to resolve).
    Pair {
        /// The drawn neighbor.
        partner: NodeId,
    },
    /// A routed geographic round.
    Route {
        /// The exchange partner (the outbound route's terminus).
        partner: NodeId,
        /// Hops of the outbound route.
        outbound_hops: usize,
        /// Whether the outbound route dead-ended short of a selector-drawn
        /// destination (counted as a failed route *before* the
        /// partner-is-self check, matching the sequential step exactly).
        outbound_failed: bool,
        /// Return route `(hops, delivered)`; `None` when the partner is the
        /// caller itself (a free no-op round — no packet leaves the caller).
        back: Option<(usize, bool)>,
    },
}

/// A protocol whose ticks can be split into a sequential RNG-draw stage and a
/// concurrent resolution stage (see the module docs for the contract).
///
/// Implementations must guarantee, for every tick:
///
/// * [`BatchActivation::draw_plan`] consumes **exactly** the RNG draws
///   [`Activation::on_tick`] would, in the same order, and
/// * [`BatchActivation::commit_plan`] applied to the resolved plan reproduces
///   `on_tick`'s state mutations, transmission charges, and metric counters
///   **exactly**, including the order of error-cache updates.
pub trait BatchActivation: Activation {
    /// The static network the protocol runs on (the route resolution
    /// source).
    fn network(&self) -> &GeometricGraph;

    /// Draws the tick's value-independent decisions from `rng`.
    fn draw_plan(&self, tick: Tick, rng: &mut dyn RngCore) -> TickPlan;

    /// Applies a resolved tick to the protocol state, bit-identically to what
    /// [`Activation::on_tick`] would have done for the same draws.
    fn commit_plan(&mut self, tick: Tick, resolved: &ResolvedPlan, tx: &mut TransmissionCounter);
}

/// Resolves a plan's heavy work: pure in the static graph, no RNG, no state.
pub fn resolve_plan(graph: &GeometricGraph, source: NodeId, plan: &TickPlan) -> ResolvedPlan {
    match *plan {
        TickPlan::Skip { isolated } => ResolvedPlan::Skip { isolated },
        TickPlan::Pair { partner } => ResolvedPlan::Pair { partner },
        TickPlan::RoutePosition { target } => {
            let outcome = route_terminus(graph, source, target);
            finish_route(graph, source, outcome.terminus, outcome.hops, false)
        }
        TickPlan::RouteNode { target } => {
            let (outcome, delivered) = route_terminus_to_node(graph, source, target);
            finish_route(graph, source, outcome.terminus, outcome.hops, !delivered)
        }
    }
}

fn finish_route(
    graph: &GeometricGraph,
    source: NodeId,
    partner: NodeId,
    outbound_hops: usize,
    outbound_failed: bool,
) -> ResolvedPlan {
    let back = if partner == source {
        None
    } else {
        let (route, delivered) = route_terminus_to_node(graph, partner, source);
        Some((route.hops, delivered))
    };
    ResolvedPlan::Route {
        partner,
        outbound_hops,
        outbound_failed,
        back,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_geometry::sampling::sample_unit_square;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: usize, seed: u64) -> GeometricGraph {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        GeometricGraph::build_at_connectivity_radius(pts, 2.0)
    }

    #[test]
    fn parallel_spec_validates_its_knobs() {
        assert!(ParallelSpec::with_threads(4).validate().is_ok());
        assert!(ParallelSpec::with_threads(0).validate().is_err());
        assert!(ParallelSpec::with_threads(2)
            .with_batch(0)
            .validate()
            .is_err());
        assert_eq!(ParallelSpec::with_threads(1).batch, DEFAULT_TICK_BATCH);
    }

    #[test]
    fn resolve_skip_and_pair_pass_through() {
        let g = graph(32, 1);
        assert_eq!(
            resolve_plan(&g, NodeId(3), &TickPlan::Skip { isolated: true }),
            ResolvedPlan::Skip { isolated: true }
        );
        assert_eq!(
            resolve_plan(&g, NodeId(3), &TickPlan::Pair { partner: NodeId(5) }),
            ResolvedPlan::Pair { partner: NodeId(5) }
        );
    }

    #[test]
    fn resolve_route_to_node_matches_direct_routing() {
        let g = graph(128, 2);
        let source = NodeId(0);
        let target = NodeId(100);
        let plan = TickPlan::RouteNode { target };
        let ResolvedPlan::Route {
            partner,
            outbound_hops,
            outbound_failed,
            back,
        } = resolve_plan(&g, source, &plan)
        else {
            panic!("routed plan must resolve to a route");
        };
        let (outcome, delivered) = route_terminus_to_node(&g, source, target);
        assert_eq!(partner, outcome.terminus);
        assert_eq!(outbound_hops, outcome.hops);
        assert_eq!(outbound_failed, !delivered);
        if partner != source {
            let (expected_back, expected_delivered) = route_terminus_to_node(&g, partner, source);
            assert_eq!(back, Some((expected_back.hops, expected_delivered)));
        } else {
            assert_eq!(back, None);
        }
    }
}
