//! The Dimakis et al. baseline: geographic gossip.
//!
//! On each clock tick the activated sensor draws a target *position* uniformly
//! at random from the unit square, greedily routes a packet with its value to
//! the node nearest that position, and the two nodes replace their values with
//! the average (Section 1.1 of the paper, citing \[5\]). Each exchange costs a
//! routed round trip of `Θ(sqrt(n / log n))` hops, but because the contacted
//! partner is (roughly) uniform over the whole network, only `Õ(n)` exchanges
//! are needed — `Õ(n^1.5)` transmissions in total.

use crate::error::ProtocolError;
use crate::state::GossipState;
use crate::update::convex_average;
use geogossip_graph::GeometricGraph;
use geogossip_routing::greedy::{
    route_terminus, route_terminus_masked, route_terminus_to_node, route_terminus_to_node_masked,
};
use geogossip_routing::target::TargetSelector;
use geogossip_sim::batch::{BatchActivation, ResolvedPlan, TickPlan};
use geogossip_sim::clock::Tick;
use geogossip_sim::engine::{Activation, SquaredError};
use geogossip_sim::fault::{FaultContext, FaultSupport};
use geogossip_sim::metrics::TransmissionCounter;
use rand::{Rng, RngCore};

/// The geographic gossip protocol of Dimakis, Sarwate and Wainwright.
///
/// # Example
///
/// ```
/// use geogossip_core::prelude::*;
/// use geogossip_graph::GeometricGraph;
/// use geogossip_geometry::sampling::sample_unit_square;
/// use geogossip_sim::{AsyncEngine, StopCondition};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(4);
/// let pts = sample_unit_square(128, &mut rng);
/// let graph = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
/// let values = InitialCondition::Spike.generate(graph.len(), &mut rng);
/// let mut gossip = GeographicGossip::new(&graph, values)?;
/// let report = AsyncEngine::new(graph.len())
///     .run(&mut gossip, StopCondition::at_epsilon(0.2).with_max_ticks(200_000), &mut rng);
/// assert!(report.converged());
/// # Ok::<(), geogossip_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GeographicGossip<'a> {
    graph: &'a GeometricGraph,
    state: GossipState,
    selector: TargetSelector,
    exchanges: u64,
    failed_routes: u64,
}

impl<'a> GeographicGossip<'a> {
    /// Creates the protocol with the plain "nearest node to a uniform
    /// position" partner selection (no rejection sampling).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::EmptyNetwork`] for an empty graph and
    /// [`ProtocolError::ValueLengthMismatch`] when the value vector length
    /// does not match the node count.
    pub fn new(graph: &'a GeometricGraph, initial_values: Vec<f64>) -> Result<Self, ProtocolError> {
        Self::with_selector(
            graph,
            initial_values,
            TargetSelector::NearestToUniformPosition,
        )
    }

    /// Creates the protocol with an explicit partner-selection strategy
    /// (e.g. [`TargetSelector::rejection_sampled`] as in the original paper,
    /// or [`TargetSelector::UniformByIndex`] as an idealised reference).
    ///
    /// # Errors
    ///
    /// Same as [`GeographicGossip::new`].
    pub fn with_selector(
        graph: &'a GeometricGraph,
        initial_values: Vec<f64>,
        selector: TargetSelector,
    ) -> Result<Self, ProtocolError> {
        if graph.is_empty() {
            return Err(ProtocolError::EmptyNetwork);
        }
        if initial_values.len() != graph.len() {
            return Err(ProtocolError::ValueLengthMismatch {
                nodes: graph.len(),
                values: initial_values.len(),
            });
        }
        Ok(GeographicGossip {
            graph,
            state: GossipState::new(initial_values),
            selector,
            exchanges: 0,
            failed_routes: 0,
        })
    }

    /// The current gossip state.
    pub fn state(&self) -> &GossipState {
        &self.state
    }

    /// Number of completed long-range exchanges.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Number of rounds whose return route dead-ended (the exchange is still
    /// performed — the partner was reached — but the hop count reflects the
    /// partial return path).
    pub fn failed_routes(&self) -> u64 {
        self.failed_routes
    }

    /// One tick of the protocol — the zero-cost generic hot path. The
    /// object-safe [`Activation::on_tick`] forwards here with a `dyn` RNG;
    /// monomorphised callers (benchmarks, custom drivers) keep full inlining.
    #[inline]
    pub fn step<R: Rng + ?Sized>(&mut self, tick: Tick, tx: &mut TransmissionCounter, rng: &mut R) {
        if self.graph.len() < 2 {
            return;
        }
        let s = tick.node;
        // 1. Pick the partner: either directly via the selector (uniform by
        //    index / rejection sampled) or as "whoever greedy routing towards
        //    a uniform position stops at". Both legs use the allocation-free
        //    walk — only terminus and hop count are needed on this hot path.
        let (partner, outbound_hops) = match &self.selector {
            TargetSelector::NearestToUniformPosition => {
                let target = geogossip_geometry::sampling::uniform_point_in(
                    geogossip_geometry::unit_square(),
                    rng,
                );
                let outcome = route_terminus(self.graph, s, target);
                (outcome.terminus, outcome.hops)
            }
            selector => {
                let Some(partner) = selector.draw(self.graph, s, rng) else {
                    return;
                };
                let (outcome, delivered) = route_terminus_to_node(self.graph, s, partner);
                if !delivered {
                    self.failed_routes += 1;
                }
                (outcome.terminus, outcome.hops)
            }
        };
        if partner == s {
            // The random position landed in s's own Voronoi cell; the round is
            // a no-op and costs nothing (no packet leaves s).
            return;
        }
        // 2. The partner routes its value back to s.
        let (back, back_delivered) = route_terminus_to_node(self.graph, partner, s);
        if !back_delivered {
            self.failed_routes += 1;
        }
        // 3. Both replace their values by the average.
        let (new_s, new_p) = convex_average(
            self.state.value(s.index()),
            self.state.value(partner.index()),
        );
        self.state.set(s.index(), new_s);
        self.state.set(partner.index(), new_p);
        tx.charge_routing((outbound_hops + back.hops) as u64);
        self.exchanges += 1;
    }

    /// One tick under fault injection. Routing skips dead sensors (the walk
    /// degrades gracefully: it stops at the nearest *live* local minimum, so
    /// a round whose target region has died exchanges with the closest
    /// surviving sensor instead); a dropped round still pays every routed hop
    /// but applies no averaging; stale endpoints keep their old value.
    pub fn step_faulty<R: Rng + ?Sized>(
        &mut self,
        tick: Tick,
        tx: &mut TransmissionCounter,
        rng: &mut R,
        faults: &FaultContext<'_>,
    ) {
        if self.graph.len() < 2 {
            return;
        }
        let s = tick.node;
        let alive = faults.alive_mask();
        let (partner, outbound_hops) = match &self.selector {
            TargetSelector::NearestToUniformPosition => {
                let target = geogossip_geometry::sampling::uniform_point_in(
                    geogossip_geometry::unit_square(),
                    rng,
                );
                let outcome = if alive.is_empty() {
                    route_terminus(self.graph, s, target)
                } else {
                    route_terminus_masked(self.graph, s, target, alive)
                };
                (outcome.terminus, outcome.hops)
            }
            selector => {
                let Some(partner) = selector.draw(self.graph, s, rng) else {
                    return;
                };
                let (outcome, delivered) = if alive.is_empty() {
                    route_terminus_to_node(self.graph, s, partner)
                } else {
                    route_terminus_to_node_masked(self.graph, s, partner, alive)
                };
                if !delivered {
                    self.failed_routes += 1;
                }
                (outcome.terminus, outcome.hops)
            }
        };
        if partner == s {
            return;
        }
        let (back, back_delivered) = if alive.is_empty() {
            route_terminus_to_node(self.graph, partner, s)
        } else {
            route_terminus_to_node_masked(self.graph, partner, s, alive)
        };
        if !back_delivered {
            self.failed_routes += 1;
        }
        // The packets travelled the full route either way: a dropped round is
        // cost without progress.
        tx.charge_routing((outbound_hops + back.hops) as u64);
        if faults.dropped {
            return;
        }
        let (new_s, new_p) = convex_average(
            self.state.value(s.index()),
            self.state.value(partner.index()),
        );
        if !faults.is_stale(s.index()) {
            self.state.set(s.index(), new_s);
        }
        if !faults.is_stale(partner.index()) {
            self.state.set(partner.index(), new_p);
        }
        self.exchanges += 1;
    }
}

impl Activation for GeographicGossip<'_> {
    fn on_tick(&mut self, tick: Tick, tx: &mut TransmissionCounter, rng: &mut dyn RngCore) {
        self.step(tick, tx, rng);
    }

    fn as_batch(&mut self) -> Option<&mut dyn BatchActivation> {
        Some(self)
    }

    fn fault_support(&self) -> FaultSupport {
        FaultSupport::all()
    }

    fn on_tick_faulty(
        &mut self,
        tick: Tick,
        tx: &mut TransmissionCounter,
        rng: &mut dyn RngCore,
        faults: &FaultContext<'_>,
    ) {
        self.step_faulty(tick, tx, rng, faults);
    }

    fn relative_error(&self) -> f64 {
        self.state.relative_error()
    }

    fn squared_error(&self) -> Option<SquaredError> {
        Some(SquaredError {
            current_sq: self.state.deviation_sq(),
            initial: self.state.initial_deviation(),
        })
    }

    fn name(&self) -> &str {
        "geographic (Dimakis)"
    }

    fn params(&self) -> Vec<(String, String)> {
        vec![("selector".into(), format!("{:?}", self.selector))]
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("exchanges".into(), self.exchanges as f64),
            ("failed_routes".into(), self.failed_routes as f64),
        ]
    }
}

impl BatchActivation for GeographicGossip<'_> {
    fn network(&self) -> &GeometricGraph {
        self.graph
    }

    fn draw_plan(&self, tick: Tick, rng: &mut dyn RngCore) -> TickPlan {
        if self.graph.len() < 2 {
            return TickPlan::Skip { isolated: false };
        }
        match &self.selector {
            TargetSelector::NearestToUniformPosition => {
                let target = geogossip_geometry::sampling::uniform_point_in(
                    geogossip_geometry::unit_square(),
                    rng,
                );
                TickPlan::RoutePosition { target }
            }
            selector => match selector.draw(self.graph, tick.node, rng) {
                Some(target) => TickPlan::RouteNode { target },
                None => TickPlan::Skip { isolated: false },
            },
        }
    }

    fn commit_plan(&mut self, tick: Tick, resolved: &ResolvedPlan, tx: &mut TransmissionCounter) {
        match *resolved {
            ResolvedPlan::Skip { .. } => {}
            ResolvedPlan::Route {
                partner,
                outbound_hops,
                outbound_failed,
                back,
            } => {
                // Failed-route accounting happens before the partner-is-self
                // early return, exactly as in the sequential step.
                if outbound_failed {
                    self.failed_routes += 1;
                }
                let Some((back_hops, back_delivered)) = back else {
                    return;
                };
                if !back_delivered {
                    self.failed_routes += 1;
                }
                let s = tick.node;
                let (new_s, new_p) = convex_average(
                    self.state.value(s.index()),
                    self.state.value(partner.index()),
                );
                self.state.set(s.index(), new_s);
                self.state.set(partner.index(), new_p);
                tx.charge_routing((outbound_hops + back_hops) as u64);
                self.exchanges += 1;
            }
            ResolvedPlan::Pair { .. } => {
                unreachable!("geographic gossip never plans a pairwise exchange")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::PairwiseGossip;
    use crate::state::InitialCondition;
    use geogossip_geometry::sampling::sample_unit_square;
    use geogossip_sim::engine::{AsyncEngine, StopCondition};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: usize, seed: u64) -> GeometricGraph {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        GeometricGraph::build_at_connectivity_radius(pts, 2.0)
    }

    #[test]
    fn construction_validates_inputs() {
        let g = graph(10, 1);
        assert!(GeographicGossip::new(&g, vec![0.0; 10]).is_ok());
        assert!(GeographicGossip::new(&g, vec![0.0; 11]).is_err());
        let empty = GeometricGraph::build(Vec::new(), 0.1);
        assert!(GeographicGossip::new(&empty, Vec::new()).is_err());
    }

    #[test]
    fn converges_on_a_connected_graph() {
        let g = graph(128, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let mut gossip = GeographicGossip::new(&g, values).unwrap();
        let report = AsyncEngine::new(g.len()).run(
            &mut gossip,
            StopCondition::at_epsilon(0.05).with_max_ticks(500_000),
            &mut rng,
        );
        assert!(
            report.converged(),
            "stopped with error {}",
            report.final_error
        );
        assert!(report.transmissions.routing() > 0);
        assert_eq!(report.transmissions.local(), 0);
    }

    #[test]
    fn conserves_the_mean() {
        let g = graph(96, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let values = InitialCondition::Ramp.generate(g.len(), &mut rng);
        let mut gossip = GeographicGossip::new(&g, values).unwrap();
        let _ = AsyncEngine::new(g.len()).run(
            &mut gossip,
            StopCondition::at_epsilon(0.1).with_max_ticks(200_000),
            &mut rng,
        );
        assert!(gossip.state().mass_drift() < 1e-9);
    }

    #[test]
    fn uses_fewer_ticks_than_pairwise_on_the_same_instance() {
        // Geographic gossip mixes like the complete graph, so it needs many
        // fewer clock ticks (rounds) than nearest-neighbor gossip; that is the
        // whole point of paying √n hops per round. A spike decays quickly under
        // purely local averaging at first, so the asymptotic gap only shows
        // once the target is tight enough that pairwise is limited by the
        // geometric graph's spectral gap — hence the 1% target here.
        let g = graph(512, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let stop = StopCondition::at_epsilon(0.01).with_max_ticks(10_000_000);

        let mut geo = GeographicGossip::new(&g, values.clone()).unwrap();
        let geo_report =
            AsyncEngine::new(g.len()).run(&mut geo, stop, &mut ChaCha8Rng::seed_from_u64(8));

        let mut pw = PairwiseGossip::new(&g, values).unwrap();
        let pw_report =
            AsyncEngine::new(g.len()).run(&mut pw, stop, &mut ChaCha8Rng::seed_from_u64(8));

        assert!(geo_report.converged() && pw_report.converged());
        assert!(
            geo_report.ticks < pw_report.ticks,
            "geographic gossip used {} ticks, pairwise {}",
            geo_report.ticks,
            pw_report.ticks
        );
    }

    #[test]
    fn rejection_sampled_selector_also_converges() {
        let g = graph(128, 9);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let selector = TargetSelector::rejection_sampled(&g, 10_000, 10, &mut rng);
        let values = InitialCondition::Bimodal.generate(g.len(), &mut rng);
        let mut gossip = GeographicGossip::with_selector(&g, values, selector).unwrap();
        let report = AsyncEngine::new(g.len()).run(
            &mut gossip,
            StopCondition::at_epsilon(0.1).with_max_ticks(500_000),
            &mut rng,
        );
        assert!(report.converged());
    }

    #[test]
    fn faulty_step_matches_plain_step_without_faults() {
        let g = graph(96, 12);
        let mut rng_a = ChaCha8Rng::seed_from_u64(13);
        let mut rng_b = rng_a.clone();
        let values = InitialCondition::Spike.generate(g.len(), &mut rng_a);
        let _ = InitialCondition::Spike.generate(g.len(), &mut rng_b);
        let mut plain = GeographicGossip::new(&g, values.clone()).unwrap();
        let mut faulty = GeographicGossip::new(&g, values).unwrap();
        let mut clock_a = geogossip_sim::GlobalPoissonClock::new(g.len());
        let mut clock_b = geogossip_sim::GlobalPoissonClock::new(g.len());
        let mut tx_a = TransmissionCounter::new();
        let mut tx_b = TransmissionCounter::new();
        let none = FaultContext::new(false, &[], &[]);
        for _ in 0..2_000 {
            let ta = clock_a.next_tick(&mut rng_a);
            let tb = clock_b.next_tick(&mut rng_b);
            plain.step(ta, &mut tx_a, &mut rng_a);
            faulty.step_faulty(tb, &mut tx_b, &mut rng_b, &none);
        }
        assert_eq!(plain.state().values(), faulty.state().values());
        assert_eq!(tx_a.total(), tx_b.total());
        assert_eq!(plain.exchanges(), faulty.exchanges());
    }

    #[test]
    fn dropped_rounds_pay_their_hops_without_averaging() {
        let g = graph(96, 14);
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let mut gossip = GeographicGossip::new(&g, values).unwrap();
        let mut clock = geogossip_sim::GlobalPoissonClock::new(g.len());
        let mut tx = TransmissionCounter::new();
        let before = gossip.state().values().to_vec();
        let dropped = FaultContext::new(true, &[], &[]);
        for _ in 0..500 {
            let tick = clock.next_tick(&mut rng);
            gossip.step_faulty(tick, &mut tx, &mut rng, &dropped);
        }
        assert_eq!(gossip.state().values(), &before[..]);
        assert_eq!(gossip.exchanges(), 0);
        assert!(tx.routing() > 0, "dropped rounds still pay routed hops");
    }

    #[test]
    fn routes_exchange_with_a_live_partner_when_the_target_region_is_dead() {
        let g = graph(256, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let values = InitialCondition::Ramp.generate(g.len(), &mut rng);
        // Kill the right half of the square; all activations come from live
        // sensors (the wrapper guarantees that), so only routing sees death.
        let alive: Vec<bool> = (0..g.len()).map(|i| g.position(i.into()).x < 0.5).collect();
        let mut gossip = GeographicGossip::new(&g, values).unwrap();
        let mut clock = geogossip_sim::GlobalPoissonClock::new(g.len());
        let mut tx = TransmissionCounter::new();
        let ctx = FaultContext::new(false, &alive, &[]);
        let before = gossip.state().values().to_vec();
        let mut exchanged = 0u64;
        for _ in 0..2_000 {
            let tick = clock.next_tick(&mut rng);
            if !alive[tick.node.index()] {
                continue;
            }
            gossip.step_faulty(tick, &mut tx, &mut rng, &ctx);
            exchanged = gossip.exchanges();
        }
        assert!(exchanged > 0, "live sensors keep exchanging");
        // Dead sensors never move: they are neither partners nor termini.
        for (i, (&b, &a)) in before
            .iter()
            .zip(gossip.state().values().iter())
            .enumerate()
        {
            if !alive[i] {
                assert_eq!(b, a, "dead sensor {i} changed value");
            }
        }
    }

    #[test]
    fn draw_and_commit_replay_the_sequential_step_bit_for_bit() {
        use rand::RngCore;
        let g = graph(128, 18);
        for selector in [
            TargetSelector::NearestToUniformPosition,
            TargetSelector::UniformByIndex,
        ] {
            let mut rng_seq = ChaCha8Rng::seed_from_u64(19);
            let mut rng_batch = rng_seq.clone();
            let values = InitialCondition::Spike.generate(g.len(), &mut rng_seq);
            let _ = InitialCondition::Spike.generate(g.len(), &mut rng_batch);
            let mut seq =
                GeographicGossip::with_selector(&g, values.clone(), selector.clone()).unwrap();
            let mut batch = GeographicGossip::with_selector(&g, values, selector).unwrap();
            let mut clock_seq = geogossip_sim::GlobalPoissonClock::new(g.len());
            let mut clock_batch = clock_seq.clone();
            let mut tx_seq = TransmissionCounter::new();
            let mut tx_batch = TransmissionCounter::new();
            for _ in 0..2_000 {
                let ta = clock_seq.next_tick(&mut rng_seq);
                seq.step(ta, &mut tx_seq, &mut rng_seq);
                let tb = clock_batch.next_tick(&mut rng_batch);
                let plan = batch.draw_plan(tb, &mut rng_batch);
                let resolved = geogossip_sim::batch::resolve_plan(&g, tb.node, &plan);
                batch.commit_plan(tb, &resolved, &mut tx_batch);
                // The RNG streams must stay in lockstep after every tick.
                assert_eq!(rng_seq.next_u64(), rng_batch.next_u64());
            }
            assert_eq!(seq.state().values(), batch.state().values());
            assert_eq!(tx_seq.total(), tx_batch.total());
            assert_eq!(seq.exchanges(), batch.exchanges());
            assert_eq!(seq.failed_routes(), batch.failed_routes());
        }
    }

    #[test]
    fn single_node_network_is_a_noop() {
        use geogossip_geometry::Point;
        let g = GeometricGraph::build(vec![Point::new(0.5, 0.5)], 0.1);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut gossip = GeographicGossip::new(&g, vec![3.0]).unwrap();
        let report = AsyncEngine::new(1).run(
            &mut gossip,
            StopCondition::at_epsilon(0.5).with_max_ticks(10),
            &mut rng,
        );
        // A single node is already "averaged".
        assert!(report.converged());
        assert_eq!(report.transmissions.total(), 0);
    }
}
