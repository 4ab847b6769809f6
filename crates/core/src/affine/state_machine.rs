//! The paper's asynchronous protocol, literally (Section 4.2).
//!
//! Every sensor keeps a `local.state`, leaders additionally keep a
//! `global.state` and a `counter` for each square they lead. On a sensor's own
//! clock tick:
//!
//! * a **level-0 sensor** whose `local.state` is `on` runs `Near`: it averages
//!   (convexly) with a random neighbor inside its leaf square;
//! * a **leader** whose `global.state` is `on`
//!   * re-activates its square when its counter is 0 (`Activate.square`:
//!     flooding `local.state := on` for leaf squares, switching child leaders'
//!     `global.state` on for higher squares),
//!   * with a small probability runs `Far`: it picks another square of the
//!     same depth (a sibling) uniformly at random, routes its value to that
//!     square's leader geographically, and both leaders apply the **affine**
//!     update `x ← x + (2/5)·E#(□)·(x' − x)`; both counters reset so both
//!     squares re-average afterwards,
//!   * participates in `Near` like everyone else while its leaf square is
//!     active, and
//!   * deactivates its square once the counter passes the square's latency.
//!
//! The rates come from a [`ScheduleParams`]: [`ScheduleParams::practical`]
//! derives runnable latencies/probabilities from the hierarchy (preserving the
//! structural property that long-range exchanges are much rarer than local
//! averaging periods), while [`ScheduleParams::from_paper_schedule`] plugs in
//! the literal — astronomically conservative — formulas of Section 4.1 for
//! small demonstrations. See README.md, "Paper substitutions", item 4.

use crate::affine::hierarchy::{leader_exchange, CellRows, Hierarchy};
use crate::affine::round_based::CoefficientRule;
use crate::affine::schedule::PaperSchedule;
use crate::error::ProtocolError;
use crate::state::GossipState;
use crate::update::convex_average;
use geogossip_geometry::point::NodeId;
use geogossip_geometry::PartitionConfig;
use geogossip_graph::GeometricGraph;
use geogossip_routing::flood::flood_cell;
use geogossip_routing::greedy::route_terminus_to_node;
use geogossip_sim::clock::Tick;
use geogossip_sim::engine::{Activation, SquaredError};
use geogossip_sim::fault::{FaultContext, FaultSupport};
use geogossip_sim::metrics::TransmissionCounter;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Per-depth scheduling parameters for the asynchronous protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleParams {
    /// How many of its own clock ticks a depth-`r` leader keeps its square
    /// active (averaging locally) before deactivating it.
    pub latency_by_depth: Vec<u64>,
    /// Probability that a depth-`r` leader attempts a long-range exchange on
    /// one of its own clock ticks.
    pub far_probability_by_depth: Vec<f64>,
}

impl ScheduleParams {
    /// Derives runnable parameters from the hierarchy.
    ///
    /// * Leaf squares stay active for `⌈m·ln(m+2)⌉` leader ticks (`m` =
    ///   expected leaf population) — enough for pairwise gossip to average a
    ///   poly-log-sized, internally well-connected cell.
    /// * A depth-`r` square with `k` children stays active long enough for its
    ///   children to perform `Θ(k·log k)` long-range exchanges at their own
    ///   far rate.
    /// * The far probability at depth `r` is `1/(far_factor · latency_r)`, so
    ///   a square is w.h.p. dormant (already deactivated) when its leader
    ///   engages in a long-range exchange — the structural property the
    ///   paper's `n^{-a}` factor exists to guarantee.
    /// * The root never deactivates and never goes long-range (it has no
    ///   sibling).
    ///
    /// # Panics
    ///
    /// Panics if `far_factor < 1`.
    pub fn practical(hierarchy: &Hierarchy, far_factor: f64) -> Self {
        assert!(far_factor >= 1.0, "far_factor must be at least 1");
        let levels = hierarchy.levels();
        let mut latency = vec![u64::MAX; levels];
        let mut far_prob = vec![0.0_f64; levels];

        // Expected population and child count per depth (averages over
        // populated cells).
        for depth in (0..levels).rev() {
            let cells = hierarchy.populated_cells_at_depth(depth);
            if cells.is_empty() {
                latency[depth] = 1;
                far_prob[depth] = 0.0;
                continue;
            }
            let avg_members: f64 = cells
                .iter()
                .map(|&c| hierarchy.members(c).len() as f64)
                .sum::<f64>()
                / cells.len() as f64;
            let avg_children: f64 = cells
                .iter()
                .map(|&c| hierarchy.populated_children(c).len() as f64)
                .sum::<f64>()
                / cells.len() as f64;

            let is_leaf_depth = avg_children < 2.0;
            let lat = if is_leaf_depth {
                (avg_members.max(2.0) * (avg_members + 2.0).ln()).ceil()
            } else {
                // Children exchange at rate k·far_prob[depth+1] per unit time;
                // we need Θ(k·ln k) exchanges.
                let k = avg_children.max(2.0);
                let child_far = far_prob
                    .get(depth + 1)
                    .copied()
                    .filter(|p| *p > 0.0)
                    .unwrap_or(1.0);
                ((k.ln() + 2.0) / child_far).ceil()
            };
            if depth == 0 {
                latency[0] = u64::MAX;
                far_prob[0] = 0.0;
            } else {
                latency[depth] = lat.min(1e15) as u64;
                far_prob[depth] = 1.0 / (far_factor * lat.max(1.0));
            }
        }
        ScheduleParams {
            latency_by_depth: latency,
            far_probability_by_depth: far_prob,
        }
    }

    /// Converts the paper's literal cascade into schedule parameters
    /// (saturating latencies at `u64::MAX`). Only useful for demonstrations —
    /// the latencies exceed any realistic simulation budget.
    pub fn from_paper_schedule(schedule: &PaperSchedule) -> Self {
        let levels = schedule.levels();
        let mut latency = Vec::with_capacity(levels);
        let mut far_prob = Vec::with_capacity(levels);
        for depth in 0..levels {
            let lat = schedule.latency_at(depth);
            latency.push(if lat >= u64::MAX as f64 {
                u64::MAX
            } else {
                lat.ceil() as u64
            });
            far_prob.push(schedule.far_probability_at(depth).clamp(0.0, 1.0));
        }
        ScheduleParams {
            latency_by_depth: latency,
            far_probability_by_depth: far_prob,
        }
    }

    fn latency(&self, depth: usize) -> u64 {
        self.latency_by_depth
            .get(depth)
            .copied()
            .unwrap_or(u64::MAX)
    }

    fn far_probability(&self, depth: usize) -> f64 {
        self.far_probability_by_depth
            .get(depth)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Counters describing the state machine's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateMachineStats {
    /// Completed `Near` exchanges.
    pub near_exchanges: u64,
    /// Completed `Far` (long-range affine) exchanges.
    pub far_exchanges: u64,
    /// `Activate.square` invocations.
    pub activations: u64,
    /// `Deactivate.square` invocations.
    pub deactivations: u64,
    /// Leader routings that dead-ended before their destination.
    pub failed_routes: u64,
}

/// The asynchronous affine-gossip state machine.
///
/// Drives through [`geogossip_sim::AsyncEngine`] like the baselines; the
/// engine's clock tick is exactly the paper's "clock of `s` ticks" event.
///
/// # Example
///
/// ```no_run
/// use geogossip_core::prelude::*;
/// use geogossip_graph::GeometricGraph;
/// use geogossip_geometry::sampling::sample_unit_square;
/// use geogossip_sim::{AsyncEngine, StopCondition};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(21);
/// let pts = sample_unit_square(256, &mut rng);
/// let graph = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
/// let values = InitialCondition::Spike.generate(graph.len(), &mut rng);
/// let mut protocol = AffineStateMachine::practical(&graph, values)?;
/// let report = AsyncEngine::new(graph.len()).run(
///     &mut protocol,
///     StopCondition::at_epsilon(0.2).with_max_ticks(3_000_000),
///     &mut rng,
/// );
/// assert!(report.converged());
/// # Ok::<(), geogossip_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AffineStateMachine<'a> {
    graph: &'a GeometricGraph,
    hierarchy: Hierarchy,
    state: GossipState,
    schedule: ScheduleParams,
    coefficient: CoefficientRule,
    /// `local.state` per sensor.
    local_state: Vec<bool>,
    /// `global.state` per cell (indexed by partition arena index).
    global_state: Vec<bool>,
    /// `counter` per cell.
    counter: Vec<u64>,
    /// Cells led by each sensor.
    led_cells: Vec<Vec<usize>>,
    /// Sibling (same parent, populated, excluding self) cells per cell.
    siblings: Vec<Vec<usize>>,
    /// `Near`'s partner rows by leaf cell, built on the leaf's first use.
    cell_rows: CellRows,
    stats: StateMachineStats,
}

impl<'a> AffineStateMachine<'a> {
    /// Creates the protocol with an explicit hierarchy configuration,
    /// schedule, and coefficient rule.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Hierarchy::build`] and the usual
    /// size checks.
    pub fn new(
        graph: &'a GeometricGraph,
        initial_values: Vec<f64>,
        partition: PartitionConfig,
        schedule_factory: impl FnOnce(&Hierarchy) -> ScheduleParams,
        coefficient: CoefficientRule,
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
        let hierarchy = Hierarchy::build(graph, partition)?;
        let schedule = schedule_factory(&hierarchy);
        let num_cells = hierarchy.partition().num_cells();

        let mut led_cells = vec![Vec::new(); graph.len()];
        let mut siblings = vec![Vec::new(); num_cells];
        for (idx, cell) in hierarchy.partition().cells().iter().enumerate() {
            if let Some(leader) = cell.leader() {
                led_cells[leader.index()].push(idx);
            }
            siblings[idx] = hierarchy
                .partition()
                .siblings(idx)
                .into_iter()
                .filter(|&s| !hierarchy.members(s).is_empty())
                .collect();
        }

        let mut machine = AffineStateMachine {
            graph,
            cell_rows: CellRows::new(&hierarchy),
            hierarchy,
            state: GossipState::new(initial_values),
            schedule,
            coefficient,
            local_state: vec![false; graph.len()],
            global_state: vec![false; num_cells],
            counter: vec![0; num_cells],
            led_cells,
            siblings,
            stats: StateMachineStats::default(),
        };
        // Initialisation: the root square's global.state is on, everything
        // else off (Section 4.2, "During initialization").
        machine.global_state[0] = true;
        Ok(machine)
    }

    /// Creates the protocol with the practical partition, practical schedule
    /// (far factor 2) and the paper's coefficient rule.
    ///
    /// # Errors
    ///
    /// Same as [`AffineStateMachine::new`].
    pub fn practical(
        graph: &'a GeometricGraph,
        initial_values: Vec<f64>,
    ) -> Result<Self, ProtocolError> {
        Self::new(
            graph,
            initial_values,
            PartitionConfig::practical(graph.len()),
            |h| ScheduleParams::practical(h, 2.0),
            CoefficientRule::paper(),
        )
    }

    /// The current gossip state.
    pub fn state(&self) -> &GossipState {
        &self.state
    }

    /// The hierarchy the protocol runs on.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Activity statistics.
    pub fn stats(&self) -> StateMachineStats {
        self.stats
    }

    /// Whether the square at arena index `cell` is currently enabled
    /// (`global.state = on`). Exposed for tests and experiments.
    pub fn square_enabled(&self, cell: usize) -> bool {
        self.global_state[cell]
    }

    /// `Near(s)`: average with a uniformly random neighbor inside `s`'s leaf
    /// square (Section 4.2). A dropped exchange still costs its two packets
    /// but applies no averaging; stale endpoints keep their old value.
    fn near<R: Rng + ?Sized>(
        &mut self,
        s: usize,
        tx: &mut TransmissionCounter,
        rng: &mut R,
        faults: &FaultContext<'_>,
    ) {
        let leaf = self.hierarchy.leaf_of(NodeId(s));
        let row = self.hierarchy.members(leaf).binary_search(&s);
        let rows = self.cell_rows.of(self.graph, &self.hierarchy, leaf);
        let partners = rows.neighbors(row.expect("a sensor is a member of its leaf"));
        if partners.is_empty() {
            return;
        }
        let v = partners[rng.gen_range(0..partners.len())] as usize;
        tx.charge_local(2);
        if faults.dropped {
            return;
        }
        let (ns, nv) = convex_average(self.state.value(s), self.state.value(v));
        if !faults.is_stale(s) {
            self.state.set(s, ns);
        }
        if !faults.is_stale(v) {
            self.state.set(v, nv);
        }
        self.stats.near_exchanges += 1;
    }

    /// `Far(s)` for the square at arena index `cell`: affine exchange with the
    /// leader of a uniformly random sibling square (Section 4.2). A dropped
    /// exchange pays the full round trip but applies no affine update and
    /// resets no counter — the squares just keep averaging; stale leaders
    /// keep their own value.
    fn far<R: Rng + ?Sized>(
        &mut self,
        cell: usize,
        tx: &mut TransmissionCounter,
        rng: &mut R,
        faults: &FaultContext<'_>,
    ) {
        let target_cell = self.siblings[cell][rng.gen_range(0..self.siblings[cell].len())];
        let (failed, landed) = leader_exchange(
            self.graph,
            &self.hierarchy,
            &mut self.state,
            self.coefficient,
            [cell, target_cell],
            tx,
            faults,
        );
        self.stats.failed_routes += failed;
        if landed {
            self.stats.far_exchanges += 1;
            // Both squares must re-average: reset both counters so the next
            // tick of each leader re-activates its square (paper step 5 of
            // the round, and `counter ← 0` in Far).
            self.counter[cell] = 0;
            self.counter[target_cell] = 0;
        }
    }

    /// `Activate.square(s)` when `on`, `Deactivate.square(s)` otherwise
    /// (Section 4.2): switch the square's interior on or off. A leaf square
    /// (fewer than two populated children) floods `local.state` over its
    /// members; a higher square routes a control packet to each child leader
    /// and sets that child's `global.state`.
    fn switch_square(&mut self, cell: usize, on: bool, tx: &mut TransmissionCounter) {
        if let Some(leader) = self.hierarchy.leader(cell) {
            let children = self.hierarchy.populated_children(cell);
            if children.len() < 2 {
                let outcome = flood_cell(self.graph, self.hierarchy.members(cell), leader);
                tx.charge_control(outcome.transmissions as u64);
                for node in outcome.reached {
                    self.local_state[node.index()] = on;
                }
            } else {
                for &child in children {
                    if let Some(child_leader) = self.hierarchy.leader(child) {
                        let (route, delivered) =
                            route_terminus_to_node(self.graph, leader, child_leader);
                        self.stats.failed_routes += u64::from(!delivered);
                        tx.charge_control(route.hops as u64);
                        self.global_state[child] = on;
                    }
                }
            }
        }
        if on {
            self.stats.activations += 1;
        } else {
            self.stats.deactivations += 1;
        }
    }

    /// The leader-side protocol for one square on one clock tick of its leader
    /// (Section 4.2, the "Level greater than 0" branch).
    ///
    /// The paper sets the long-range rate `n^{-a}/time(…)` so low that w.h.p.
    /// no `Far` ever happens while the leader's own square is still active
    /// (Section 6). Running with practical rates we enforce that correctness
    /// condition *structurally* instead of probabilistically: a leader only
    /// attempts `Far` once its square's averaging window has elapsed (counter
    /// at or past the latency). Without this guard a second long-range kick
    /// can land before the first one has been spread over the square, and the
    /// non-convex coefficient then amplifies the residual — the instability
    /// the paper's rate separation exists to rule out.
    fn square_tick<R: Rng + ?Sized>(
        &mut self,
        cell: usize,
        tx: &mut TransmissionCounter,
        rng: &mut R,
        faults: &FaultContext<'_>,
    ) {
        let depth = self.hierarchy.partition().cell(cell).depth();
        if !self.global_state[cell] {
            return;
        }
        if self.counter[cell] == 0 {
            self.switch_square(cell, true, tx);
        }
        let latency = self.schedule.latency(depth);
        if self.counter[cell] < latency {
            // Averaging window: let the square's interior work; switch it off
            // exactly once when the window ends.
            self.counter[cell] += 1;
            if self.counter[cell] == latency {
                self.switch_square(cell, false, tx);
            }
        } else {
            // Quiescent: the square is deactivated, so a long-range exchange
            // cannot interfere with its internal averaging. A successful Far
            // resets the counter, which re-activates the square on the
            // leader's next tick.
            let p_far = self.schedule.far_probability(depth);
            if p_far > 0.0 && !self.siblings[cell].is_empty() && rng.gen::<f64>() < p_far {
                self.far(cell, tx, rng, faults);
            }
        }
    }
}

impl AffineStateMachine<'_> {
    /// One tick of the protocol — the zero-cost generic hot path. The
    /// object-safe [`Activation::on_tick`] forwards here with a `dyn` RNG.
    #[inline]
    pub fn step<R: Rng + ?Sized>(&mut self, tick: Tick, tx: &mut TransmissionCounter, rng: &mut R) {
        let none = FaultContext::new(false, &[], &[]);
        self.step_faulty(tick, tx, rng, &none);
    }

    /// One tick under fault injection: data-plane exchanges (`Near`, `Far`)
    /// honour drops and stale sensors, while the control plane
    /// (`Activate.square` / `Deactivate.square`) is assumed reliable — losing
    /// control floods would wedge the state machine rather than degrade it,
    /// which is a different failure model than lossy data transmission.
    pub fn step_faulty<R: Rng + ?Sized>(
        &mut self,
        tick: Tick,
        tx: &mut TransmissionCounter,
        rng: &mut R,
        faults: &FaultContext<'_>,
    ) {
        let s = tick.node.index();
        // Leader duties for every square this sensor leads (usually at most
        // one; ties at small n are handled by iterating).
        for k in 0..self.led_cells[s].len() {
            self.square_tick(self.led_cells[s][k], tx, rng, faults);
        }
        // Everyone — leaders included — participates in local averaging while
        // their leaf square is active.
        if self.local_state[s] {
            self.near(s, tx, rng, faults);
        }
    }
}

impl Activation for AffineStateMachine<'_> {
    fn on_tick(&mut self, tick: Tick, tx: &mut TransmissionCounter, rng: &mut dyn RngCore) {
        self.step(tick, tx, rng);
    }

    fn fault_support(&self) -> FaultSupport {
        // Churn is out of scope for the hierarchical protocol: killing a
        // leader would orphan its square, which needs leader re-election to
        // degrade gracefully — not silently wrong behavior.
        FaultSupport::loss_and_stale()
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
        "affine (state machine)"
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let stats = self.stats();
        vec![
            ("far_exchanges".into(), stats.far_exchanges as f64),
            ("near_exchanges".into(), stats.near_exchanges as f64),
            ("activations".into(), stats.activations as f64),
            ("deactivations".into(), stats.deactivations as f64),
            ("failed_routes".into(), stats.failed_routes as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let g = graph(100, 1);
        assert!(AffineStateMachine::practical(&g, vec![0.0; 100]).is_ok());
        assert!(AffineStateMachine::practical(&g, vec![0.0; 7]).is_err());
        let empty = GeometricGraph::build(Vec::new(), 0.1);
        assert!(AffineStateMachine::practical(&empty, Vec::new()).is_err());
    }

    #[test]
    fn practical_schedule_orders_rates_correctly() {
        let g = graph(400, 2);
        let hierarchy = Hierarchy::build(&g, PartitionConfig::practical(400)).unwrap();
        let sched = ScheduleParams::practical(&hierarchy, 2.0);
        // The root never goes long-range and never deactivates.
        assert_eq!(sched.far_probability_by_depth[0], 0.0);
        assert_eq!(sched.latency_by_depth[0], u64::MAX);
        // Non-root levels go long-range much more rarely than once per
        // latency period.
        for depth in 1..hierarchy.levels() {
            let p = sched.far_probability_by_depth[depth];
            let lat = sched.latency_by_depth[depth] as f64;
            assert!(p > 0.0);
            assert!(p <= 1.0 / lat + 1e-12, "far rate too high at depth {depth}");
        }
    }

    #[test]
    fn paper_schedule_params_are_enormous() {
        let g = graph(256, 3);
        let hierarchy = Hierarchy::build(&g, PartitionConfig::practical(256)).unwrap();
        let paper = PaperSchedule::new(256, hierarchy.levels(), 1e-3, 1e-2, 1.0);
        let sched = ScheduleParams::from_paper_schedule(&paper);
        assert!(sched.latency_by_depth[0] > 1_000_000_000);
        assert!(sched.far_probability_by_depth[1] < 1e-9);
    }

    #[test]
    fn state_machine_converges_on_a_small_network() {
        // A spike can only be averaged by moving mass between squares, so this
        // exercises the full Near/Far/Activate/Deactivate cycle: purely local
        // averaging bottoms out around 0.25 for these cell sizes and the 0.2
        // target needs long-range exchanges.
        let g = graph(224, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let mut protocol = AffineStateMachine::practical(&g, values).unwrap();
        let report = AsyncEngine::new(g.len()).run(
            &mut protocol,
            StopCondition::at_epsilon(0.2).with_max_ticks(6_000_000),
            &mut rng,
        );
        assert!(
            report.converged(),
            "state machine stuck at error {} after {} ticks (far {}, near {})",
            report.final_error,
            report.ticks,
            protocol.stats().far_exchanges,
            protocol.stats().near_exchanges
        );
        let stats = protocol.stats();
        assert!(stats.far_exchanges > 0, "no long-range exchanges happened");
        assert!(stats.near_exchanges > 0, "no local exchanges happened");
        assert!(stats.activations > 0);
    }

    #[test]
    fn dropped_data_exchanges_leave_values_untouched_but_the_control_plane_runs() {
        let g = graph(224, 10);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let mut protocol = AffineStateMachine::practical(&g, values).unwrap();
        let before = protocol.state().values().to_vec();
        let mut clock = geogossip_sim::GlobalPoissonClock::new(g.len());
        let mut tx = TransmissionCounter::new();
        let dropped = FaultContext::new(true, &[], &[]);
        for _ in 0..50_000 {
            let tick = clock.next_tick(&mut rng);
            protocol.step_faulty(tick, &mut tx, &mut rng, &dropped);
        }
        assert_eq!(protocol.state().values(), &before[..]);
        let stats = protocol.stats();
        assert_eq!(stats.near_exchanges, 0);
        assert_eq!(stats.far_exchanges, 0);
        assert!(stats.activations > 0, "the control plane keeps running");
        assert!(tx.total() > 0, "dropped exchanges still cost transmissions");
    }

    #[test]
    fn mass_is_conserved_by_the_state_machine() {
        let g = graph(224, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let values = InitialCondition::Uniform.generate(g.len(), &mut rng);
        let mut protocol = AffineStateMachine::practical(&g, values).unwrap();
        let _ = AsyncEngine::new(g.len()).run(
            &mut protocol,
            StopCondition::at_epsilon(0.3).with_max_ticks(1_500_000),
            &mut rng,
        );
        assert!(protocol.state().mass_drift() < 1e-9);
    }

    #[test]
    fn root_square_is_enabled_at_start_and_children_get_enabled() {
        let g = graph(300, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let mut protocol = AffineStateMachine::practical(&g, values).unwrap();
        assert!(protocol.square_enabled(0));
        // Run a short burst; the root leader's first tick activates children.
        let _ = AsyncEngine::new(g.len()).run(
            &mut protocol,
            StopCondition::at_epsilon(1e-12).with_max_ticks(20_000),
            &mut rng,
        );
        let enabled_children = protocol
            .hierarchy()
            .populated_children(0)
            .iter()
            .filter(|&&c| protocol.square_enabled(c))
            .count();
        assert!(
            enabled_children >= 2,
            "children of the root were never enabled"
        );
    }
}
