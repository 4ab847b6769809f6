//! The idealised round-based form of the hierarchical affine protocol.
//!
//! This implementation follows the Section-3 overview (generalised to the full
//! Section-4 hierarchy) as a *nested round* recursion rather than as the
//! asynchronous state machine:
//!
//! * a **round of a cell** picks two of its populated child cells uniformly at
//!   random, runs the leader exchange the state machine's `Far` runs too
//!   (greedy geographic routing, both directions, then `x ← x + α(x' − x)`
//!   with `α = (2/5)·#(child)` at the smaller realized child population),
//!   and then re-averages both children internally; the top level and every
//!   inner level run this one round;
//! * **re-averaging a child** either recurses (rounds of the child's own
//!   children, then pairwise gossip inside leaves) or, in the idealised
//!   [`LocalAveraging::Exact`] mode, sets every member to the child's mean at
//!   a cost of `2·|child|` transmissions (an aggregation/broadcast flood —
//!   the cheapest physically implementable stand-in).
//!
//! The top level is one schedule of steps: the first pre-averages every
//! top-level cell, each later one is a round of the root, until the measured
//! global relative error drops below the target, which is what the
//! experiments actually need. [`RoundBasedAffineGossip::run_until`] loops the
//! step and [`RoundBasedActivation`] takes one per engine tick. A partition
//! that never splits is one leaf cell: the first step averages it, and the
//! schedule halts. Inner levels use the paper's `O(ñ·log(ñ/ε_r))` round
//! counts with a configurable constant. The paper's accuracy cascade
//! `ε_{r+1} = ε_r/(25·n^{7/2+a})` (Section 4.1) is replaced by a
//! configurable per-level decay factor — README.md, "Paper substitutions",
//! item 3 — because the literal cascade is unreachable in floating point for
//! any interesting `n`.

use crate::affine::hierarchy::{leader_exchange, CellRows, Hierarchy};
use crate::error::ProtocolError;
use crate::state::GossipState;
use crate::update::{convex_average, AffineCoefficient};
use geogossip_geometry::PartitionConfig;
use geogossip_graph::GeometricGraph;
use geogossip_sim::clock::Tick;
use geogossip_sim::engine::{Activation, Clocking, SquaredError};
use geogossip_sim::fault::FaultContext;
use geogossip_sim::metrics::{ConvergenceTrace, TracePoint, TransmissionCounter};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// How the affine coefficient of a leader exchange is chosen.
///
/// The paper writes the coefficient as `(2/5)·E#(□)`, the *expected* cell
/// population, because in its regime (`E# ≥ (log n)^8`) the Chernoff bound
/// makes the realized population indistinguishable from the expectation. At
/// simulable sizes the expected leaf population is small (tens), occupancy
/// fluctuates by ±50%, and an `E#`-based coefficient can exceed the realized
/// population — making the effective mixing weight larger than 1 and the
/// exchange divergent. The implementation therefore scales the coefficient by
/// the **realized** population handed in by the caller (README.md, "Paper
/// substitutions", item 2); in the paper's regime the two coincide.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoefficientRule {
    /// `α = fraction · #(□)` — the paper uses `fraction = 2/5` (Section 4.2).
    FractionOfPopulation(f64),
    /// A fixed coefficient independent of the cell size; `Fixed(0.5)` is the
    /// convex baseline used in the E8 ablation.
    Fixed(f64),
}

impl CoefficientRule {
    /// The paper's rule `α = (2/5)·#(□)`.
    pub fn paper() -> Self {
        CoefficientRule::FractionOfPopulation(0.4)
    }

    /// The convex-combination rule `α = 1/2` (what previous gossip protocols
    /// use; the ablation baseline).
    pub fn convex() -> Self {
        CoefficientRule::Fixed(0.5)
    }

    /// The coefficient for an exchange between cells of (realized) population
    /// `cell_population`.
    pub fn coefficient(&self, cell_population: f64) -> AffineCoefficient {
        match *self {
            CoefficientRule::FractionOfPopulation(f) => {
                AffineCoefficient::new(f * cell_population.max(1.0))
            }
            CoefficientRule::Fixed(alpha) => AffineCoefficient::new(alpha),
        }
    }
}

/// How a cell is re-averaged internally after its leader took part in a
/// long-range exchange.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LocalAveraging {
    /// Idealised: set every member to the cell mean, charging `2·|cell|`
    /// transmissions (convergecast + broadcast along a flooding tree). Used to
    /// exhibit the paper's asymptotic shape without the polylogarithmic
    /// constants of nested gossip.
    Exact,
    /// Faithful: recurse through the hierarchy and run pairwise gossip inside
    /// leaf cells until the within-cell relative error drops below the
    /// current level's accuracy target. `LEAF_EXCHANGE_FACTOR` caps the
    /// number of pairwise exchanges at `8 · m²` for a leaf of `m` members (a
    /// safety net for internally disconnected leaves).
    Gossip,
}

/// Per-level accuracy decay: a level that must reach `ε_r` asks each child
/// cell for `ε_{r+1} = ε_r · EPSILON_DECAY`.
const EPSILON_DECAY: f64 = 0.1;

/// Cap on a leaf's pairwise exchanges, as a multiple of `m²` for a leaf of
/// `m` members.
const LEAF_EXCHANGE_FACTOR: f64 = 8.0;

/// Configuration of the round-based protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundBasedConfig {
    /// How the hierarchical partition is built.
    pub partition: PartitionConfig,
    /// Affine coefficient rule for leader exchanges.
    pub coefficient: CoefficientRule,
    /// Local re-averaging mode.
    pub local_averaging: LocalAveraging,
    /// Safety cap on the number of top-level rounds.
    pub max_top_rounds: u64,
}

impl RoundBasedConfig {
    /// Faithful configuration: paper coefficient, recursive local averaging,
    /// practical partition.
    pub fn practical(n: usize) -> Self {
        RoundBasedConfig {
            partition: PartitionConfig::practical(n),
            coefficient: CoefficientRule::paper(),
            local_averaging: LocalAveraging::Gossip,
            max_top_rounds: 100_000,
        }
    }

    /// Idealised configuration: paper coefficient, exact (flood-based) local
    /// averaging. Exhibits the `n^{1+o(1)}` shape without nested-gossip
    /// constants.
    pub fn idealized(n: usize) -> Self {
        RoundBasedConfig {
            local_averaging: LocalAveraging::Exact,
            ..Self::practical(n)
        }
    }

    /// The Section-3 overview: a single level of `~√n` cells, exact local
    /// averaging.
    pub fn section3_overview(n: usize) -> Self {
        RoundBasedConfig {
            partition: PartitionConfig::top_level_only(n),
            local_averaging: LocalAveraging::Exact,
            ..Self::practical(n)
        }
    }

    /// Replaces the coefficient rule (used by the E8 ablation).
    pub fn with_coefficient(mut self, rule: CoefficientRule) -> Self {
        self.coefficient = rule;
        self
    }

    /// The ranges of the numeric settings: the coefficient (a population
    /// fraction or a fixed value) finite and strictly positive, and at least
    /// one top round. Needs no network, so the registry's params check calls
    /// it too, and the errors name the spec keys (`coefficient-fraction`, …).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidParameter`] for the first setting out of
    /// range.
    pub(crate) fn validate(&self) -> Result<(), ProtocolError> {
        let (coefficient_key, coefficient) = match self.coefficient {
            CoefficientRule::FractionOfPopulation(fraction) => ("coefficient-fraction", fraction),
            CoefficientRule::Fixed(alpha) => ("coefficient-fixed", alpha),
        };
        if !(coefficient.is_finite() && coefficient > 0.0) {
            return Err(ProtocolError::invalid(
                coefficient_key,
                "must be strictly positive",
            ));
        }
        if self.max_top_rounds == 0 {
            return Err(ProtocolError::invalid(
                "max-top-rounds",
                "must be a whole number of at least 1, got 0",
            ));
        }
        Ok(())
    }
}

/// Counters describing one run of the round-based protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Number of top-level rounds executed.
    pub top_rounds: u64,
    /// Total number of leader-to-leader affine exchanges (all levels).
    pub long_range_exchanges: u64,
    /// Total number of pairwise exchanges inside leaf cells.
    pub local_exchanges: u64,
    /// Number of leader routings that dead-ended before their destination.
    pub failed_routes: u64,
    /// Number of leaf-averaging passes that hit their exchange cap before
    /// reaching the accuracy target (internally disconnected leaves).
    pub stalled_local_passes: u64,
}

/// Result of [`RoundBasedAffineGossip::run_until`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundBasedReport {
    /// Whether the global error target was reached.
    pub converged: bool,
    /// Final relative ℓ₂ error.
    pub final_error: f64,
    /// Transmission counters (routing / local / control).
    pub transmissions: TransmissionCounter,
    /// Error-vs-cost trace sampled once per top-level round.
    pub trace: ConvergenceTrace,
    /// Protocol statistics.
    pub stats: RoundStats,
}

/// The round-based hierarchical affine gossip protocol.
///
/// # Example
///
/// ```
/// use geogossip_core::prelude::*;
/// use geogossip_graph::GeometricGraph;
/// use geogossip_geometry::sampling::sample_unit_square;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(11);
/// let pts = sample_unit_square(512, &mut rng);
/// let graph = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
/// let values = InitialCondition::Spike.generate(graph.len(), &mut rng);
/// let mut gossip = RoundBasedAffineGossip::new(
///     &graph, values, RoundBasedConfig::idealized(graph.len()),
/// )?;
/// let report = gossip.run_until(0.01, &mut rng);
/// assert!(report.converged);
/// # Ok::<(), geogossip_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RoundBasedAffineGossip<'a> {
    graph: &'a GeometricGraph,
    hierarchy: Hierarchy,
    state: GossipState,
    config: RoundBasedConfig,
    stats: RoundStats,
    /// Leaf-gossip partner rows by arena cell index, built on the cell's
    /// first exchange.
    cell_rows: CellRows,
}

impl<'a> RoundBasedAffineGossip<'a> {
    /// Creates the protocol over `graph` with the given initial values and
    /// configuration.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::EmptyNetwork`] / [`ProtocolError::ValueLengthMismatch`]
    ///   for malformed inputs.
    /// * [`ProtocolError::DegeneratePartition`] when the partition splits
    ///   into fewer than two populated top-level cells.
    /// * [`ProtocolError::InvalidParameter`] for a setting outside the
    ///   ranges [`RoundBasedConfig`] checks (the coefficient strictly
    ///   positive, at least one top round).
    pub fn new(
        graph: &'a GeometricGraph,
        initial_values: Vec<f64>,
        config: RoundBasedConfig,
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
        config.validate()?;
        let hierarchy = Hierarchy::build(graph, config.partition)?;
        Ok(RoundBasedAffineGossip {
            graph,
            cell_rows: CellRows::new(&hierarchy),
            hierarchy,
            state: GossipState::new(initial_values),
            config,
            stats: RoundStats::default(),
        })
    }

    /// The current gossip state.
    pub fn state(&self) -> &GossipState {
        &self.state
    }

    /// The hierarchy the protocol runs on.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> RoundStats {
        self.stats
    }

    /// Runs top-level rounds until the global relative error is at or below
    /// `epsilon` (or the round cap is hit) and returns the full report.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1]`.
    pub fn run_until<R: Rng + ?Sized>(&mut self, epsilon: f64, rng: &mut R) -> RoundBasedReport {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        let mut tx = TransmissionCounter::new();
        let mut trace = ConvergenceTrace::new();
        trace.push(TracePoint {
            transmissions: 0,
            ticks: 0,
            relative_error: self.state.relative_error(),
        });
        let mut run = self.start(epsilon);
        loop {
            self.advance(&mut run, &mut tx, rng);
            let error = self.state.relative_error();
            trace.push(TracePoint {
                transmissions: tx.total(),
                ticks: self.stats.top_rounds,
                relative_error: error,
            });
            if error <= epsilon || run.halted {
                break;
            }
        }

        RoundBasedReport {
            converged: self.state.relative_error() <= epsilon,
            final_error: self.state.relative_error(),
            transmissions: tx,
            trace,
            stats: self.stats,
        }
    }

    /// A fresh top-level schedule for a run targeting `epsilon`.
    fn start(&self, epsilon: f64) -> TopLevel {
        let child_epsilon = (epsilon * EPSILON_DECAY).max(f64::MIN_POSITIVE);
        TopLevel {
            child_epsilon,
            ..TopLevel::default()
        }
    }

    /// One step of the top-level schedule, the unit both [`Self::run_until`]
    /// and [`RoundBasedActivation`] advance by, so the two consume the RNG
    /// in the same order.
    ///
    /// The first step is the Section-3 pre-averaging pass: "Suppose that A
    /// has been run on each subsquare", so every top-level cell is averaged
    /// internally before leaders start exchanging. A root with fewer than
    /// two populated children has nobody to exchange with: the first step
    /// averages it as a leaf instead, and the schedule halts. Every later
    /// step is one round of the root. If the error has not improved by at
    /// least 1% over a full window of rounds (several complete passes over
    /// the top cells), the run has hit the floor imposed by imperfect local
    /// averaging and halts rather than looping to the `max_top_rounds` cap,
    /// where it halts too.
    fn advance<R: Rng + ?Sized>(
        &mut self,
        run: &mut TopLevel,
        tx: &mut TransmissionCounter,
        rng: &mut R,
    ) {
        if run.halted {
            return;
        }
        let top_cells = self.hierarchy.populated_children(0).len();
        if run.pre_averaged {
            self.cell_round(0, run.child_epsilon, tx, rng);
            self.stats.top_rounds += 1;
        } else if top_cells < 2 {
            self.average_cell(0, run.child_epsilon, tx, rng);
            run.halted = true;
        } else {
            self.average_children(0, run.child_epsilon, tx, rng);
        }
        let (error, rounds) = (self.state.relative_error(), self.stats.top_rounds);
        if !run.pre_averaged || error < run.best_error * 0.99 {
            run.best_error = error;
            run.stall_at = rounds + (20 * top_cells.max(2)) as u64;
        }
        run.pre_averaged = true;
        run.halted |= rounds >= run.stall_at || rounds >= self.config.max_top_rounds;
    }

    /// One round of cell `cell`: pick two distinct populated children
    /// uniformly at random, exchange their leaders, and re-average both to
    /// `child_epsilon`. The top level and every inner level run it.
    fn cell_round<R: Rng + ?Sized>(
        &mut self,
        cell: usize,
        child_epsilon: f64,
        tx: &mut TransmissionCounter,
        rng: &mut R,
    ) {
        let children = self.hierarchy.populated_children(cell);
        let m = children.len();
        let i = children[rng.gen_range(0..m)];
        let j = loop {
            let cand = children[rng.gen_range(0..m)];
            if cand != i {
                break cand;
            }
        };
        let (failed, landed) = leader_exchange(
            self.graph,
            &self.hierarchy,
            &mut self.state,
            self.config.coefficient,
            [i, j],
            tx,
            &FaultContext::new(false, &[], &[]),
        );
        self.stats.failed_routes += failed;
        self.stats.long_range_exchanges += u64::from(landed);
        self.average_cell(i, child_epsilon, tx, rng);
        self.average_cell(j, child_epsilon, tx, rng);
    }

    /// Re-averages every populated child of `cell` to `child_epsilon`.
    fn average_children<R: Rng + ?Sized>(
        &mut self,
        cell: usize,
        child_epsilon: f64,
        tx: &mut TransmissionCounter,
        rng: &mut R,
    ) {
        for k in 0..self.hierarchy.populated_children(cell).len() {
            let child = self.hierarchy.populated_children(cell)[k];
            self.average_cell(child, child_epsilon, tx, rng);
        }
    }

    /// Re-averages cell `cell_idx` internally to accuracy `epsilon_r`.
    fn average_cell<R: Rng + ?Sized>(
        &mut self,
        cell_idx: usize,
        epsilon_r: f64,
        tx: &mut TransmissionCounter,
        rng: &mut R,
    ) {
        if self.hierarchy.members(cell_idx).len() <= 1 {
            return;
        }
        match self.config.local_averaging {
            LocalAveraging::Exact => self.exact_average(cell_idx, tx),
            LocalAveraging::Gossip => {
                let m = self.hierarchy.populated_children(cell_idx).len();
                if m < 2 {
                    self.leaf_gossip(cell_idx, epsilon_r, tx, rng);
                } else {
                    // The affine exchanges are only stable when every child is
                    // already internally averaged ("Suppose that A has been
                    // run on each subsquare", Section 3) — otherwise a child
                    // leader's value does not represent its cell and the
                    // non-convex coefficient amplifies the discrepancy. So
                    // first re-establish that precondition, then run rounds of
                    // child-leader exchanges until the cell's internal spread
                    // is below the accuracy target, capped at the paper's
                    // O(m·log(m/ε)) round count times a safety factor.
                    let child_epsilon = (epsilon_r * EPSILON_DECAY).max(f64::MIN_POSITIVE);
                    self.average_children(cell_idx, child_epsilon, tx, rng);
                    let planned = (m as f64 * (m as f64 / epsilon_r).max(std::f64::consts::E).ln())
                        .ceil() as u64;
                    let cap = planned.saturating_mul(4).max(8);
                    let mut rounds = 0u64;
                    let spread = |gossip: &Self| {
                        cell_spread(gossip.hierarchy.members(cell_idx), &gossip.state)
                    };
                    while spread(self) > epsilon_r && rounds < cap {
                        self.cell_round(cell_idx, child_epsilon, tx, rng);
                        rounds += 1;
                    }
                    if rounds >= cap && spread(self) > epsilon_r {
                        self.stats.stalled_local_passes += 1;
                    }
                }
            }
        }
    }

    /// Idealised local averaging: every member takes the cell mean; cost is
    /// one convergecast plus one broadcast over the cell (2 transmissions per
    /// member), charged as control traffic.
    fn exact_average(&mut self, cell_idx: usize, tx: &mut TransmissionCounter) {
        let members = self.hierarchy.members(cell_idx);
        let sum: f64 = members.iter().map(|&m| self.state.value(m)).sum();
        let mean = sum / members.len() as f64;
        for &m in members {
            self.state.set(m, mean);
        }
        tx.charge_control(2 * members.len() as u64);
    }

    /// Pairwise gossip restricted to the members of a leaf cell, run until the
    /// within-cell relative deviation drops below `epsilon_r` or
    /// `LEAF_EXCHANGE_FACTOR · m²` exchanges were attempted.
    fn leaf_gossip<R: Rng + ?Sized>(
        &mut self,
        cell_idx: usize,
        epsilon_r: f64,
        tx: &mut TransmissionCounter,
        rng: &mut R,
    ) {
        let members = self.hierarchy.members(cell_idx);
        let m = members.len();
        let cap = ((LEAF_EXCHANGE_FACTOR * (m * m) as f64).ceil() as u64).max(16);
        if cell_spread(members, &self.state) <= epsilon_r {
            return;
        }
        let rows = self.cell_rows.of(self.graph, &self.hierarchy, cell_idx);
        let mut attempts = 0u64;
        loop {
            // A batch of exchanges between error checks keeps the check cost
            // (O(m)) amortised. Attempts are counted even when a member has no
            // in-cell neighbor, so internally disconnected leaves cannot spin
            // forever.
            for _ in 0..m {
                attempts += 1;
                let k = rng.gen_range(0..m);
                let partners = rows.neighbors(k);
                if partners.is_empty() {
                    continue;
                }
                let u = members[k];
                let v = partners[rng.gen_range(0..partners.len())] as usize;
                let (nu, nv) = convex_average(self.state.value(u), self.state.value(v));
                self.state.set(u, nu);
                self.state.set(v, nv);
                tx.charge_local(2);
                self.stats.local_exchanges += 1;
            }
            if cell_spread(members, &self.state) <= epsilon_r {
                return;
            }
            if attempts >= cap {
                self.stats.stalled_local_passes += 1;
                return;
            }
        }
    }
}

/// Relative spread of the values inside a cell: the ℓ₂ deviation of the
/// members' values around the cell mean, normalised by `max(|mean|, 1)`.
/// This is the quantity the accuracy cascade `ε_r` of Section 4.1 bounds.
fn cell_spread(members: &[usize], state: &GossipState) -> f64 {
    if members.len() <= 1 {
        return 0.0;
    }
    let mean = members.iter().map(|&i| state.value(i)).sum::<f64>() / members.len() as f64;
    let dev: f64 = members
        .iter()
        .map(|&i| {
            let d = state.value(i) - mean;
            d * d
        })
        .sum::<f64>()
        .sqrt();
    dev / mean.abs().max(1.0)
}

/// Where a run stands in the top-level schedule that
/// [`RoundBasedAffineGossip::advance`] steps.
#[derive(Debug, Clone, Default)]
struct TopLevel {
    /// The accuracy every top-level cell is re-averaged to.
    child_epsilon: f64,
    /// The lowest error so far that improved on the one before by 1%.
    best_error: f64,
    /// The round count at which the run halts unless the error improves.
    stall_at: u64,
    pre_averaged: bool,
    halted: bool,
}

/// The round-based protocol as a **self-paced [`Activation`]**, so it can be
/// boxed, registered, and driven by the engine like the tick-driven
/// protocols.
///
/// One engine tick is one step of the top-level schedule
/// [`RoundBasedAffineGossip::run_until`] loops: the first tick runs the
/// Section-3 pre-averaging pass over the top-level cells, every later tick
/// runs one top-level round. Because the adapter reports
/// [`Clocking::SelfPaced`], the engine draws **no** Poisson clock randomness,
/// so a run through the engine consumes the RNG in exactly the order
/// `run_until` does — the scenario determinism test
/// (`tests/scenario_api.rs`) pins the two paths to bit-identical results.
/// Stalls (no ≥1% improvement over a full window of rounds, or the
/// `max_top_rounds` cap) surface through [`Activation::halted`].
#[derive(Debug, Clone)]
pub struct RoundBasedActivation<'a> {
    inner: RoundBasedAffineGossip<'a>,
    run: TopLevel,
    effective_alpha_top: f64,
}

impl<'a> RoundBasedActivation<'a> {
    /// Creates the adapter for a run targeting relative error `epsilon`
    /// (the per-level accuracy cascade derives from it).
    ///
    /// # Errors
    ///
    /// Everything [`RoundBasedAffineGossip::new`] reports, plus
    /// [`ProtocolError::InvalidParameter`] when `epsilon` is not strictly
    /// positive and finite.
    pub fn new(
        graph: &'a GeometricGraph,
        initial_values: Vec<f64>,
        config: RoundBasedConfig,
        epsilon: f64,
    ) -> Result<Self, ProtocolError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(ProtocolError::invalid(
                "epsilon",
                "round-based target must be strictly positive and finite",
            ));
        }
        let inner = RoundBasedAffineGossip::new(graph, initial_values, config)?;
        let effective_alpha_top = inner
            .hierarchy
            .populated_children(0)
            .first()
            .map(|&c| {
                let population = inner.hierarchy.members(c).len() as f64;
                config.coefficient.coefficient(population).value()
            })
            .unwrap_or(0.0);
        Ok(RoundBasedActivation {
            run: inner.start(epsilon),
            inner,
            effective_alpha_top,
        })
    }

    /// The wrapped protocol (hierarchy, state, statistics).
    pub fn inner(&self) -> &RoundBasedAffineGossip<'a> {
        &self.inner
    }
}

impl Activation for RoundBasedActivation<'_> {
    fn on_tick(&mut self, _tick: Tick, tx: &mut TransmissionCounter, rng: &mut dyn RngCore) {
        self.inner.advance(&mut self.run, tx, rng);
    }

    fn relative_error(&self) -> f64 {
        self.inner.state.relative_error()
    }

    fn squared_error(&self) -> Option<SquaredError> {
        Some(SquaredError {
            current_sq: self.inner.state.deviation_sq(),
            initial: self.inner.state.initial_deviation(),
        })
    }

    fn name(&self) -> &str {
        match self.inner.config.local_averaging {
            LocalAveraging::Exact => "affine (idealized local avg)",
            LocalAveraging::Gossip => "affine (recursive local avg)",
        }
    }

    fn params(&self) -> Vec<(String, String)> {
        let config = &self.inner.config;
        vec![
            ("coefficient".into(), format!("{:?}", config.coefficient)),
            (
                "local_averaging".into(),
                format!("{:?}", config.local_averaging),
            ),
            (
                "max_top_rounds".into(),
                format!("{}", config.max_top_rounds),
            ),
        ]
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let stats = self.inner.stats;
        vec![
            ("top_rounds".into(), stats.top_rounds as f64),
            (
                "long_range_exchanges".into(),
                stats.long_range_exchanges as f64,
            ),
            ("local_exchanges".into(), stats.local_exchanges as f64),
            ("failed_routes".into(), stats.failed_routes as f64),
            (
                "stalled_local_passes".into(),
                stats.stalled_local_passes as f64,
            ),
            ("effective_alpha_top".into(), self.effective_alpha_top),
        ]
    }

    fn rounds(&self) -> Option<u64> {
        Some(self.inner.stats.top_rounds)
    }

    fn halted(&self) -> bool {
        self.run.halted
    }

    fn clocking(&self) -> Clocking {
        Clocking::SelfPaced
    }

    fn trace_interval(&self) -> Option<u64> {
        // One trace point per top-level round, exactly like `run_until`'s
        // report trace (the engine's default `n`-tick interval would collapse
        // a sub-`n`-round run to its endpoints).
        Some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::InitialCondition;
    use geogossip_geometry::point::NodeId;
    use geogossip_geometry::sampling::sample_unit_square;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: usize, seed: u64) -> GeometricGraph {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        GeometricGraph::build_at_connectivity_radius(pts, 2.0)
    }

    #[test]
    fn construction_validates_inputs() {
        let g = graph(100, 1);
        assert!(
            RoundBasedAffineGossip::new(&g, vec![0.0; 100], RoundBasedConfig::practical(100))
                .is_ok()
        );
        assert!(
            RoundBasedAffineGossip::new(&g, vec![0.0; 99], RoundBasedConfig::practical(100))
                .is_err()
        );
        let bad = RoundBasedConfig::practical(100).with_coefficient(CoefficientRule::Fixed(0.0));
        assert!(RoundBasedAffineGossip::new(&g, vec![0.0; 100], bad).is_err());
        let mut bad = RoundBasedConfig::practical(100);
        bad.max_top_rounds = 0;
        assert!(RoundBasedAffineGossip::new(&g, vec![0.0; 100], bad).is_err());
    }

    #[test]
    fn idealized_mode_converges_quickly() {
        let g = graph(512, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::idealized(g.len())).unwrap();
        let report = gossip.run_until(0.01, &mut rng);
        assert!(report.converged, "error stuck at {}", report.final_error);
        assert!(report.stats.top_rounds > 0);
        assert!(report.transmissions.routing() > 0);
        assert!(report.transmissions.control() > 0);
    }

    #[test]
    fn recursive_gossip_mode_converges() {
        // n = 384 gives a three-level hierarchy, so this exercises the nested
        // recursion (leaf gossip inside child-leader rounds inside top-level
        // rounds). The target is modest: nested gossip's accuracy floor at
        // this size is governed by the ε_r cascade, and experiment E4
        // (`geogossip experiment E4`) tracks the achievable accuracy;
        // the unit test only requires solid convergence well below the
        // pre-averaging plateau (~0.4).
        let g = graph(384, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let values = InitialCondition::Bimodal.generate(g.len(), &mut rng);
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::practical(g.len())).unwrap();
        let report = gossip.run_until(0.2, &mut rng);
        assert!(report.converged, "error stuck at {}", report.final_error);
        assert!(report.stats.local_exchanges > 0);
        assert!(report.transmissions.local() > 0);
    }

    #[test]
    fn mass_is_conserved() {
        let g = graph(400, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let values = InitialCondition::Uniform.generate(g.len(), &mut rng);
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::idealized(g.len())).unwrap();
        let _ = gossip.run_until(0.01, &mut rng);
        assert!(
            gossip.state().mass_drift() < 1e-9,
            "drift {}",
            gossip.state().mass_drift()
        );
    }

    #[test]
    fn section3_overview_converges() {
        let g = graph(512, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let values = InitialCondition::Ramp.generate(g.len(), &mut rng);
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::section3_overview(g.len()))
                .unwrap();
        let report = gossip.run_until(0.02, &mut rng);
        assert!(report.converged);
        // Single-level hierarchy: only root rounds, no nested long-range
        // exchanges beyond the top level.
        assert_eq!(gossip.hierarchy().levels(), 2);
    }

    #[test]
    fn convex_coefficient_converges_more_slowly_than_paper_coefficient() {
        // E8's headline: with convex leader exchanges (α = 1/2) each contact
        // moves only ~1/√n of a cell's mass, so many more top-level rounds are
        // needed than with the paper's α = 2√n/5.
        let g = graph(512, 10);
        let values = InitialCondition::Spike.generate(g.len(), &mut ChaCha8Rng::seed_from_u64(11));
        let mut base = RoundBasedConfig::idealized(g.len());
        base.max_top_rounds = 20_000;

        let mut paper = RoundBasedAffineGossip::new(
            &g,
            values.clone(),
            base.with_coefficient(CoefficientRule::paper()),
        )
        .unwrap();
        let paper_report = paper.run_until(0.05, &mut ChaCha8Rng::seed_from_u64(12));

        let mut convex = RoundBasedAffineGossip::new(
            &g,
            values,
            base.with_coefficient(CoefficientRule::convex()),
        )
        .unwrap();
        let convex_report = convex.run_until(0.05, &mut ChaCha8Rng::seed_from_u64(12));

        assert!(paper_report.converged);
        assert!(
            !convex_report.converged
                || convex_report.stats.top_rounds > 2 * paper_report.stats.top_rounds,
            "convex rounds {} vs paper rounds {}",
            convex_report.stats.top_rounds,
            paper_report.stats.top_rounds
        );
    }

    #[test]
    fn trace_is_monotone_in_cost() {
        let g = graph(256, 13);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let values = InitialCondition::Spike.generate(g.len(), &mut rng);
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::idealized(g.len())).unwrap();
        let report = gossip.run_until(0.05, &mut rng);
        let pts = report.trace.points();
        assert!(pts
            .windows(2)
            .all(|w| w[0].transmissions <= w[1].transmissions));
    }

    #[test]
    fn activation_adapter_matches_run_until_bit_for_bit() {
        use geogossip_sim::{AsyncEngine, StopCondition};
        let g = graph(384, 21);
        let values = InitialCondition::Spike.generate(g.len(), &mut ChaCha8Rng::seed_from_u64(22));
        let epsilon = 0.05;
        for config in [
            RoundBasedConfig::idealized(g.len()),
            RoundBasedConfig::practical(g.len()),
        ] {
            let mut direct = RoundBasedAffineGossip::new(&g, values.clone(), config).unwrap();
            let direct_report = direct.run_until(epsilon, &mut ChaCha8Rng::seed_from_u64(77));

            let mut adapter =
                RoundBasedActivation::new(&g, values.clone(), config, epsilon).unwrap();
            let engine_report = AsyncEngine::new(g.len()).run(
                &mut adapter,
                StopCondition::at_epsilon(epsilon).with_max_ticks(200_000_000),
                &mut ChaCha8Rng::seed_from_u64(77),
            );

            assert_eq!(engine_report.converged(), direct_report.converged);
            assert_eq!(
                engine_report.transmissions.total(),
                direct_report.transmissions.total()
            );
            assert_eq!(
                adapter.inner().stats().top_rounds,
                direct_report.stats.top_rounds
            );
            assert_eq!(
                engine_report.final_error.to_bits(),
                direct_report.final_error.to_bits(),
                "final errors diverged for {config:?}"
            );
        }
    }

    #[test]
    fn a_partition_that_never_splits_is_averaged_as_one_leaf_cell() {
        // At n = 16 the practical partition does not split: the root is the
        // only populated cell, so there is no leader to exchange with. The
        // first step averages the root as a leaf (leaf gossip or the exact
        // flood), on both execution paths, and the schedule halts.
        use geogossip_sim::{AsyncEngine, StopCondition};
        let g = graph(16, 31);
        let values = InitialCondition::Spike.generate(g.len(), &mut ChaCha8Rng::seed_from_u64(32));
        let epsilon = 0.05;
        for config in [
            RoundBasedConfig::idealized(g.len()),
            RoundBasedConfig::practical(g.len()),
        ] {
            let mut direct = RoundBasedAffineGossip::new(&g, values.clone(), config).unwrap();
            assert!(direct.hierarchy().populated_children(0).len() < 2);
            let report = direct.run_until(epsilon, &mut ChaCha8Rng::seed_from_u64(33));
            assert!(
                report.converged,
                "{config:?}: stuck at {}",
                report.final_error
            );
            assert!(report.transmissions.total() > 0, "{config:?}");

            let mut adapter =
                RoundBasedActivation::new(&g, values.clone(), config, epsilon).unwrap();
            let engine_report = AsyncEngine::new(g.len()).run(
                &mut adapter,
                StopCondition::at_epsilon(epsilon).with_max_ticks(1_000),
                &mut ChaCha8Rng::seed_from_u64(33),
            );
            assert!(engine_report.converged(), "{config:?}: engine path");
            assert_eq!(
                engine_report.transmissions.total(),
                report.transmissions.total()
            );
        }
    }

    #[test]
    fn activation_adapter_rejects_bad_epsilon() {
        let g = graph(128, 23);
        let values = vec![0.0; g.len()];
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(RoundBasedActivation::new(
                &g,
                values.clone(),
                RoundBasedConfig::idealized(g.len()),
                bad
            )
            .is_err());
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn run_until_rejects_bad_epsilon() {
        let g = graph(128, 15);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let values = vec![0.0; g.len()];
        let mut gossip =
            RoundBasedAffineGossip::new(&g, values, RoundBasedConfig::idealized(g.len())).unwrap();
        let _ = gossip.run_until(0.0, &mut rng);
    }

    #[test]
    fn cached_rows_are_graph_rows_filtered_to_the_cell() {
        use geogossip_geometry::Topology;
        use geogossip_sim::field::Field;
        use geogossip_sim::scenario::{PlacementSpec, RadiusSpec, TopologySpec};
        use std::collections::HashSet;

        let n = 384;
        let clustered = PlacementSpec::Clustered {
            clusters: 6,
            spread: 0.1,
        };
        let mut multi_leaf_cells = 0;
        for (placement, surface) in [
            (PlacementSpec::UniformSquare, Topology::UnitSquare),
            (PlacementSpec::UniformSquare, Topology::Torus),
            (clustered, Topology::UnitSquare),
        ] {
            let topology = TopologySpec {
                n,
                placement,
                radius: RadiusSpec::ConnectivityConstant(2.0),
                surface,
            };
            let g = topology.build_with_rng(&mut ChaCha8Rng::seed_from_u64(4));
            for partition in [
                PartitionConfig::practical(n),
                PartitionConfig::with_threshold(n, 4.0),
            ] {
                let values = Field::SpatialGradient.values(&g, &mut ChaCha8Rng::seed_from_u64(4));
                let config = RoundBasedConfig {
                    partition,
                    ..RoundBasedConfig::practical(n)
                };
                let mut gossip = RoundBasedAffineGossip::new(&g, values, config).unwrap();
                // The first step is the pre-averaging pass, at ε·decay = 0.01.
                let mut run = gossip.start(0.1);
                gossip.advance(
                    &mut run,
                    &mut TransmissionCounter::new(),
                    &mut ChaCha8Rng::seed_from_u64(5),
                );

                let h = &gossip.hierarchy;
                let mut cached = 0;
                for (cell, rows) in gossip.cell_rows.cells().iter().enumerate() {
                    let Some(rows) = rows else { continue };
                    cached += 1;
                    let members = h.members(cell);
                    let member_set: HashSet<usize> = members.iter().copied().collect();
                    assert_eq!(rows.len(), members.len());
                    for (k, &u) in members.iter().enumerate() {
                        let expected: Vec<u32> = g
                            .neighbors(NodeId(u))
                            .iter()
                            .copied()
                            .filter(|&v| member_set.contains(&(v as usize)))
                            .collect();
                        assert_eq!(rows.neighbors(k), expected, "cell {cell}, member {u}");
                    }
                    let leaf = h.leaf_of(NodeId(members[0]));
                    if members.iter().any(|&v| h.leaf_of(NodeId(v)) != leaf) {
                        multi_leaf_cells += 1;
                    }
                }
                assert!(cached > 0, "no cell gossiped for {partition:?}");
            }
        }
        // A gossip cell is not always an arena leaf: the low threshold on
        // clustered sensors leaves cells with one populated child whose
        // members lie in several leaves, so the cache cannot be keyed by
        // `Hierarchy::leaf_of`.
        assert!(multi_leaf_cells > 0, "no gossip cell spans several leaves");
    }
}
