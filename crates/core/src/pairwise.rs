//! The Boyd et al. baseline: pairwise gossip with a random neighbor.
//!
//! On each clock tick the activated sensor `s` sends its value to a neighbor
//! `v` chosen uniformly at random from its adjacency list, receives `v`'s
//! value, and both set their value to the average (Section 1.1 of the paper,
//! citing Boyd et al. \[1\]). One round costs 2 transmissions. On a geometric
//! random graph at the connectivity radius the number of transmissions to
//! ε-average scales as `Õ(n²)` — the quantity experiment E4 measures.

use crate::error::ProtocolError;
use crate::state::GossipState;
use crate::update::convex_average;
use geogossip_geometry::point::NodeId;
use geogossip_graph::GeometricGraph;
use geogossip_sim::batch::{BatchActivation, ResolvedPlan, TickPlan};
use geogossip_sim::clock::Tick;
use geogossip_sim::engine::{Activation, SquaredError};
use geogossip_sim::fault::{FaultContext, FaultSupport};
use geogossip_sim::metrics::TransmissionCounter;
use rand::{Rng, RngCore};

/// The pairwise (nearest-neighbor) gossip protocol.
///
/// Holds a reference to the network it runs on; the network never changes
/// during a run.
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
/// let mut rng = ChaCha8Rng::seed_from_u64(3);
/// let pts = sample_unit_square(128, &mut rng);
/// let graph = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
/// let values = InitialCondition::Bimodal.generate(graph.len(), &mut rng);
/// let mut gossip = PairwiseGossip::new(&graph, values)?;
/// let report = AsyncEngine::new(graph.len())
///     .run(&mut gossip, StopCondition::at_epsilon(0.2).with_max_ticks(500_000), &mut rng);
/// assert!(report.converged());
/// # Ok::<(), geogossip_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PairwiseGossip<'a> {
    graph: &'a GeometricGraph,
    state: GossipState,
    exchanges: u64,
    isolated_activations: u64,
}

impl<'a> PairwiseGossip<'a> {
    /// Creates the protocol over `graph` with the given initial values.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::EmptyNetwork`] for an empty graph and
    /// [`ProtocolError::ValueLengthMismatch`] when the value vector length
    /// does not match the node count.
    pub fn new(graph: &'a GeometricGraph, initial_values: Vec<f64>) -> Result<Self, ProtocolError> {
        if graph.is_empty() {
            return Err(ProtocolError::EmptyNetwork);
        }
        if initial_values.len() != graph.len() {
            return Err(ProtocolError::ValueLengthMismatch {
                nodes: graph.len(),
                values: initial_values.len(),
            });
        }
        Ok(PairwiseGossip {
            graph,
            state: GossipState::new(initial_values),
            exchanges: 0,
            isolated_activations: 0,
        })
    }

    /// The current gossip state.
    pub fn state(&self) -> &GossipState {
        &self.state
    }

    /// Number of completed neighbor exchanges.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Number of activations of sensors that had no neighbor to talk to.
    pub fn isolated_activations(&self) -> u64 {
        self.isolated_activations
    }

    /// One tick of the protocol — the zero-cost generic hot path. The
    /// object-safe [`Activation::on_tick`] forwards here with a `dyn` RNG;
    /// monomorphised callers (benchmarks, custom drivers) keep full inlining.
    #[inline]
    pub fn step<R: Rng + ?Sized>(&mut self, tick: Tick, tx: &mut TransmissionCounter, rng: &mut R) {
        let s = tick.node.index();
        let neighbors = self.graph.neighbors(tick.node);
        if neighbors.is_empty() {
            // An isolated sensor can only wait; the paper's connectivity
            // assumption makes this a measure-zero event at the standard
            // radius, but we count it rather than panic.
            self.isolated_activations += 1;
            return;
        }
        let v = neighbors[rng.gen_range(0..neighbors.len())] as usize;
        let (new_s, new_v) = convex_average(self.state.value(s), self.state.value(v));
        self.state.set(s, new_s);
        self.state.set(v, new_v);
        // One packet each way.
        tx.charge_local(2);
        self.exchanges += 1;
    }

    /// One tick under fault injection. A dead partner is never selected (the
    /// uniform choice is over *live* neighbors only); a dropped exchange still
    /// costs its two packets but applies no averaging; a stale endpoint keeps
    /// its old value while its partner updates normally — which is exactly
    /// what makes stale sensors drag the achievable error floor.
    pub fn step_faulty<R: Rng + ?Sized>(
        &mut self,
        tick: Tick,
        tx: &mut TransmissionCounter,
        rng: &mut R,
        faults: &FaultContext<'_>,
    ) {
        let s = tick.node.index();
        let neighbors = self.graph.neighbors(tick.node);
        let v = if faults.any_dead() {
            let live = neighbors
                .iter()
                .filter(|&&v| faults.is_alive(v as usize))
                .count();
            if live == 0 {
                self.isolated_activations += 1;
                return;
            }
            let pick = rng.gen_range(0..live);
            neighbors
                .iter()
                .copied()
                .filter(|&v| faults.is_alive(v as usize))
                .nth(pick)
                .expect("pick < live neighbor count") as usize
        } else {
            if neighbors.is_empty() {
                self.isolated_activations += 1;
                return;
            }
            neighbors[rng.gen_range(0..neighbors.len())] as usize
        };
        // The packets travel either way: a dropped exchange is cost without
        // progress.
        tx.charge_local(2);
        if faults.dropped {
            return;
        }
        let (new_s, new_v) = convex_average(self.state.value(s), self.state.value(v));
        if !faults.is_stale(s) {
            self.state.set(s, new_s);
        }
        if !faults.is_stale(v) {
            self.state.set(v, new_v);
        }
        self.exchanges += 1;
    }
}

impl Activation for PairwiseGossip<'_> {
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
        "pairwise (Boyd)"
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("exchanges".into(), self.exchanges as f64),
            (
                "isolated_activations".into(),
                self.isolated_activations as f64,
            ),
        ]
    }
}

impl BatchActivation for PairwiseGossip<'_> {
    fn network(&self) -> &GeometricGraph {
        self.graph
    }

    fn draw_plan(&self, tick: Tick, rng: &mut dyn RngCore) -> TickPlan {
        let neighbors = self.graph.neighbors(tick.node);
        if neighbors.is_empty() {
            return TickPlan::Skip { isolated: true };
        }
        let v = neighbors[rng.gen_range(0..neighbors.len())] as usize;
        TickPlan::Pair { partner: NodeId(v) }
    }

    fn commit_plan(&mut self, tick: Tick, resolved: &ResolvedPlan, tx: &mut TransmissionCounter) {
        match *resolved {
            ResolvedPlan::Skip { isolated: true } => self.isolated_activations += 1,
            ResolvedPlan::Skip { isolated: false } => {}
            ResolvedPlan::Pair { partner } => {
                let s = tick.node.index();
                let v = partner.index();
                let (new_s, new_v) = convex_average(self.state.value(s), self.state.value(v));
                self.state.set(s, new_s);
                self.state.set(v, new_v);
                tx.charge_local(2);
                self.exchanges += 1;
            }
            ResolvedPlan::Route { .. } => {
                unreachable!("pairwise gossip never plans a routed round")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::InitialCondition;
    use geogossip_geometry::sampling::sample_unit_square;
    use geogossip_geometry::Point;
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
        assert!(PairwiseGossip::new(&g, vec![0.0; 10]).is_ok());
        assert!(matches!(
            PairwiseGossip::new(&g, vec![0.0; 9]),
            Err(ProtocolError::ValueLengthMismatch { .. })
        ));
        let empty = GeometricGraph::build(Vec::new(), 0.1);
        assert!(matches!(
            PairwiseGossip::new(&empty, Vec::new()),
            Err(ProtocolError::EmptyNetwork)
        ));
    }

    #[test]
    fn converges_on_a_connected_graph() {
        let g = graph(128, 2);
        assert!(g.is_connected());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let values = InitialCondition::Bimodal.generate(g.len(), &mut rng);
        let mut gossip = PairwiseGossip::new(&g, values).unwrap();
        let report = AsyncEngine::new(g.len()).run(
            &mut gossip,
            StopCondition::at_epsilon(0.05).with_max_ticks(2_000_000),
            &mut rng,
        );
        assert!(
            report.converged(),
            "stopped with error {}",
            report.final_error
        );
        // Every exchange costs exactly 2 local transmissions.
        assert_eq!(report.transmissions.total(), 2 * gossip.exchanges());
        assert_eq!(report.transmissions.routing(), 0);
    }

    #[test]
    fn conserves_the_mean() {
        let g = graph(64, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let values = InitialCondition::Uniform.generate(g.len(), &mut rng);
        let mut gossip = PairwiseGossip::new(&g, values).unwrap();
        let _ = AsyncEngine::new(g.len()).run(
            &mut gossip,
            StopCondition::at_epsilon(0.1).with_max_ticks(500_000),
            &mut rng,
        );
        assert!(gossip.state().mass_drift() < 1e-9);
    }

    #[test]
    fn isolated_sensors_are_counted_not_fatal() {
        // Two sensors far apart, radius too small to connect them.
        let g = GeometricGraph::build(vec![Point::new(0.1, 0.1), Point::new(0.9, 0.9)], 0.01);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut gossip = PairwiseGossip::new(&g, vec![0.0, 1.0]).unwrap();
        let report = AsyncEngine::new(g.len()).run(
            &mut gossip,
            StopCondition::at_epsilon(0.01).with_max_ticks(100),
            &mut rng,
        );
        assert!(!report.converged());
        assert_eq!(gossip.isolated_activations(), 100);
        assert_eq!(report.transmissions.total(), 0);
    }

    #[test]
    fn faulty_step_matches_plain_step_without_faults() {
        let g = graph(64, 9);
        let mut rng_a = ChaCha8Rng::seed_from_u64(10);
        let mut rng_b = rng_a.clone();
        let values = InitialCondition::Bimodal.generate(g.len(), &mut rng_a);
        let _ = InitialCondition::Bimodal.generate(g.len(), &mut rng_b);
        let mut plain = PairwiseGossip::new(&g, values.clone()).unwrap();
        let mut faulty = PairwiseGossip::new(&g, values).unwrap();
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
    fn dropped_exchanges_cost_packets_but_change_nothing() {
        let g = graph(32, 11);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let values = InitialCondition::Bimodal.generate(g.len(), &mut rng);
        let mut gossip = PairwiseGossip::new(&g, values).unwrap();
        let mut clock = geogossip_sim::GlobalPoissonClock::new(g.len());
        let mut tx = TransmissionCounter::new();
        let before = gossip.state().values().to_vec();
        let dropped = FaultContext::new(true, &[], &[]);
        for _ in 0..100 {
            let tick = clock.next_tick(&mut rng);
            gossip.step_faulty(tick, &mut tx, &mut rng, &dropped);
        }
        assert_eq!(gossip.state().values(), &before[..]);
        assert_eq!(gossip.exchanges(), 0);
        assert_eq!(tx.total(), 200, "drops still cost two packets each");
    }

    #[test]
    fn dead_neighbors_are_never_selected_and_stale_nodes_never_move() {
        // Line graph 0–1–2: node 1 dead, node 2 stale.
        let g = GeometricGraph::build(
            vec![
                Point::new(0.1, 0.5),
                Point::new(0.2, 0.5),
                Point::new(0.3, 0.5),
            ],
            0.12,
        );
        let alive = [true, false, true];
        let stale = [false, false, true];
        let mut gossip = PairwiseGossip::new(&g, vec![0.0, 10.0, 1.0]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut tx = TransmissionCounter::new();
        let ctx = FaultContext::new(false, &alive, &stale);
        // Node 0's only neighbor (1) is dead: isolated, nothing charged.
        gossip.step_faulty(
            Tick {
                index: 1,
                time: 0.1,
                node: 0.into(),
            },
            &mut tx,
            &mut rng,
            &ctx,
        );
        assert_eq!(gossip.isolated_activations(), 1);
        assert_eq!(tx.total(), 0);
        assert_eq!(gossip.state().value(0), 0.0);
        // Node 2 is stale: its activation averages the partner but keeps its
        // own value. Its only live... node 1 is its only neighbor and dead.
        gossip.step_faulty(
            Tick {
                index: 2,
                time: 0.2,
                node: 2.into(),
            },
            &mut tx,
            &mut rng,
            &ctx,
        );
        assert_eq!(gossip.isolated_activations(), 2);
        // Revive node 1, keep node 2 stale: 2's activation must select 1
        // (its only neighbor), move 1 toward the average, and keep 2 fixed.
        let all_alive = [true, true, true];
        let ctx = FaultContext::new(false, &all_alive, &stale);
        gossip.step_faulty(
            Tick {
                index: 3,
                time: 0.3,
                node: 2.into(),
            },
            &mut tx,
            &mut rng,
            &ctx,
        );
        assert_eq!(gossip.state().value(2), 1.0, "stale sensors never update");
        assert_eq!(
            gossip.state().value(1),
            5.5,
            "the live partner still averages"
        );
        assert_eq!(gossip.exchanges(), 1);
    }

    #[test]
    fn draw_and_commit_replay_the_sequential_step_bit_for_bit() {
        let g = graph(96, 14);
        let mut rng_seq = ChaCha8Rng::seed_from_u64(15);
        let mut rng_batch = rng_seq.clone();
        let values = InitialCondition::Bimodal.generate(g.len(), &mut rng_seq);
        let _ = InitialCondition::Bimodal.generate(g.len(), &mut rng_batch);
        let mut seq = PairwiseGossip::new(&g, values.clone()).unwrap();
        let mut batch = PairwiseGossip::new(&g, values).unwrap();
        let mut clock_seq = geogossip_sim::GlobalPoissonClock::new(g.len());
        let mut clock_batch = clock_seq.clone();
        let mut tx_seq = TransmissionCounter::new();
        let mut tx_batch = TransmissionCounter::new();
        for _ in 0..3_000 {
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
        assert_eq!(seq.isolated_activations(), batch.isolated_activations());
    }

    #[test]
    fn error_is_monotonically_nonincreasing_under_convex_updates() {
        let g = graph(64, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let mut gossip = PairwiseGossip::new(&g, values).unwrap();
        let mut clock = geogossip_sim::GlobalPoissonClock::new(g.len());
        let mut tx = TransmissionCounter::new();
        let mut prev = gossip.relative_error();
        for _ in 0..5_000 {
            let tick = clock.next_tick(&mut rng);
            gossip.on_tick(tick, &mut tx, &mut rng);
            let cur = gossip.relative_error();
            assert!(cur <= prev + 1e-12, "convex averaging increased the error");
            prev = cur;
        }
    }
}
