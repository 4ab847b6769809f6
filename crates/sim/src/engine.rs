//! A minimal asynchronous simulation driver.
//!
//! The engine owns the global Poisson clock and the metrics; a protocol is any
//! [`Activation`] implementor that reacts to "the clock of sensor `v` ticked"
//! by mutating its own state and charging transmissions. The engine stops when
//! a caller-supplied [`StopCondition`] is met, and returns a compact
//! [`EngineReport`].
//!
//! Keeping the engine this small is deliberate: the paper's protocols differ
//! only in what happens on a tick, so the engine is the single place where the
//! time model and the stopping logic live.
//!
//! # One run kernel, the overhauled tick loop, and its preserved reference
//!
//! Every tick loop — [`AsyncEngine::run`], [`AsyncEngine::run_parallel`],
//! and the `geogossip-net` scheduler — stops, counts, and traces through one
//! [`RunKernel`]. The kernel checks convergence in the **squared domain**
//! (the protocol's cached `Σ(x−x̄)²` against a precomputed
//! `≳ ε²·‖x(0)−x̄·1‖²` threshold via [`Activation::squared_error`] — zero
//! sqrt/divides per tick; any apparent crossing is confirmed with the exact
//! [`Activation::relative_error`] before stopping, so the stopping tick cannot
//! drift), and caps the convergence trace by stride doubling
//! ([`AsyncEngine::max_trace_points`]). [`AsyncEngine::run`] is the hot path:
//! it draws ticks from a [`BatchedPoissonClock`] (same RNG stream as the
//! sequential clock, gap arithmetic deferred into block reductions). The
//! pre-overhaul loop is preserved verbatim as [`AsyncEngine::run_reference`],
//! and the parity property tests (`tests/engine_parity.rs` at the workspace
//! root) pin the two paths bit-identical — same reports, same termini and hop
//! counts, same RNG consumption — whenever the trace stays under the cap.
//!
//! # Object safety and the generic hot path
//!
//! [`Activation`] is **dyn-compatible**: `on_tick` takes its randomness as
//! `&mut dyn RngCore`, so protocols can be boxed, stored in registries, and
//! driven uniformly (`Box<dyn Activation>` — see [`crate::scenario`]).
//! Protocol implementations keep a zero-cost path by writing their tick logic
//! once, as an inherent generic method that takes the fault context
//! (`fn step_faulty<R: Rng + ?Sized>(...)`), and forwarding `on_tick` (with
//! the empty [`FaultContext`](crate::fault::FaultContext)) and
//! [`Activation::on_tick_faulty`] to it. Pairwise and geographic gossip
//! write that body as the draw → resolve → commit stages of
//! [`crate::batch`], which their [`crate::batch::BatchActivation`] impls
//! reuse. The only dynamic dispatch on the hot path is then the RNG vtable
//! (a handful of virtual `next_u64` calls per tick, measured within noise of
//! the fully monomorphised path; `BENCH_baseline.json`, `dyn_dispatch`).

use crate::clock::{BatchedPoissonClock, GlobalPoissonClock, Tick};
use crate::metrics::{ConvergenceTrace, TracePoint, TransmissionCounter};
use geogossip_geometry::point::NodeId;
use geogossip_telemetry::{Event, NoProbe, Probe};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// A protocol's convergence metric exposed in the squared domain, for the
/// engine's sqrt-free per-tick stop check.
///
/// The contract (relative to [`Activation::relative_error`]):
/// `relative_error() == sqrt(current_sq) / initial` up to a few ulps of
/// floating-point evaluation. The engine only ever uses these values as a
/// **conservative pre-filter** — "is the squared deviation still clearly above
/// the squared threshold?" — and confirms any apparent crossing with the exact
/// `relative_error()` comparison, so a protocol whose squared view is a few
/// ulps off can never stop early or at a different tick than the exact check
/// would.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SquaredError {
    /// Current centered squared deviation `Σ (x_i − x̄)²` (the numerator of
    /// the relative error, squared). Must be `O(1)` amortised — the engine
    /// reads it every tick.
    pub current_sq: f64,
    /// Initial deviation `‖x(0) − x̄·1‖` (the *unsquared* denominator of the
    /// relative error). Constant over a run; the engine reads it once to
    /// precompute the squared threshold.
    pub initial: f64,
}

/// How an [`Activation`] consumes simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Clocking {
    /// Tick-driven: the engine draws Poisson clock ticks (an `Exp(n)` gap plus
    /// a uniformly random sensor per tick) from the run's RNG and hands them
    /// to the protocol. This is the paper's asynchronous time model.
    Poisson,
    /// Self-paced: the protocol defines its own round structure (e.g. the
    /// round-based affine recursion) and consumes **no** clock randomness;
    /// the engine feeds it synthetic ticks `1, 2, 3, …` assigned to sensor 0.
    /// The run's RNG is then consumed exclusively by the protocol itself,
    /// which keeps self-paced runs bit-identical to hand-driven round loops.
    SelfPaced,
}

/// A protocol that can be driven by the engine: it reacts to a clock tick by
/// updating its state, charging transmissions, and reporting its current
/// relative error.
///
/// The trait is object-safe; `Box<dyn Activation>` is the currency of the
/// protocol registry. Implementations should put their tick logic in one
/// inherent generic method that takes the fault context, and forward both
/// `on_tick` and `on_tick_faulty` to it (see the module docs).
pub trait Activation {
    /// Handles the tick of `tick.node`, charging any transmissions to `tx` and
    /// using `rng` for the protocol's own randomness.
    fn on_tick(&mut self, tick: Tick, tx: &mut TransmissionCounter, rng: &mut dyn RngCore);

    /// Current relative ℓ₂ error `‖x − x̄·1‖ / ‖x(0) − x̄·1‖`.
    ///
    /// The engine calls this after **every** tick to decide whether to stop,
    /// so implementations must make it cheap — `O(1)` amortised. Protocols
    /// backed by `GossipState` get this for free from its incremental
    /// centered-norm tracking.
    fn relative_error(&self) -> f64;

    /// Stable protocol name, e.g. `"pairwise"`; used in tables and reports.
    fn name(&self) -> &str {
        "anonymous"
    }

    /// Human-readable configuration parameters, for reports.
    fn params(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    /// Protocol-specific numeric outcomes (exchange counts, internal bounds),
    /// read after a run; keys are free-form but should be stable per protocol.
    fn metrics(&self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// The protocol's own "round" counter, when it has a natural round
    /// structure distinct from engine ticks (the round-based affine protocol
    /// reports top-level rounds here). `None` means "ticks are the rounds".
    fn rounds(&self) -> Option<u64> {
        None
    }

    /// Whether the protocol can make no further progress (e.g. a stall
    /// detector fired or an internal round cap was hit). The engine stops
    /// with [`StopReason::ProtocolStalled`] when this turns true.
    fn halted(&self) -> bool {
        false
    }

    /// How this protocol consumes simulated time (defaults to the Poisson
    /// model).
    fn clocking(&self) -> Clocking {
        Clocking::Poisson
    }

    /// Preferred trace sampling interval in ticks, when the protocol has a
    /// natural reporting granularity. Self-paced round protocols return
    /// `Some(1)` so the trace records every round (a tick there already does
    /// `O(n)` work, and sampling at the engine's default `n`-tick interval
    /// would collapse a sub-`n`-round run to its endpoints). `None` defers to
    /// the engine's configured interval.
    fn trace_interval(&self) -> Option<u64> {
        None
    }

    /// The squared-domain view of the convergence metric, when the protocol
    /// can expose it in `O(1)` (see [`SquaredError`] for the contract).
    ///
    /// Protocols backed by `GossipState` forward to its cached centered
    /// squared norm, which lets the engine's per-tick stop check run without
    /// any sqrt or divide; the default `None` keeps the exact
    /// [`Activation::relative_error`] check per tick, so implementing this is
    /// purely an optimisation, never a behaviour change.
    fn squared_error(&self) -> Option<SquaredError> {
        None
    }

    /// Which fault kinds this protocol can model under fault injection (see
    /// [`crate::fault`]). The default declares **no** support, so the
    /// scenario runner rejects fault specs for protocols that have not
    /// implemented the semantics — faults are never silently ignored.
    fn fault_support(&self) -> crate::fault::FaultSupport {
        crate::fault::FaultSupport::default()
    }

    /// Handles a tick under fault injection: like [`Activation::on_tick`],
    /// plus the per-tick [`FaultContext`](crate::fault::FaultContext) (drop
    /// decision, liveness mask, stale set). Only the
    /// [`FaultyActivation`](crate::fault::FaultyActivation) wrapper calls
    /// this, and only for live sensors of a faulty scenario — the engine
    /// itself still drives [`Activation::on_tick`]. The default forwards to
    /// `on_tick`, ignoring the context. Fault-aware protocols forward both
    /// hooks to one body, `on_tick` with the empty context, and must keep
    /// their *protocol* randomness draws identical to the fault-free path so
    /// loss/stale injection never perturbs partner selection.
    fn on_tick_faulty(
        &mut self,
        tick: Tick,
        tx: &mut TransmissionCounter,
        rng: &mut dyn RngCore,
        faults: &crate::fault::FaultContext<'_>,
    ) {
        let _ = faults;
        self.on_tick(tick, tx, rng);
    }

    /// Handles a tick with a live telemetry probe attached: like
    /// [`Activation::on_tick`], plus the probe, so wrappers that observe
    /// per-tick outcomes (the fault layer's dead/lost/stale activations) can
    /// emit events. Engines call this **only** when a probe is attached and
    /// enabled; the unprobed hot path still calls `on_tick`, so the default
    /// forward here costs nothing when telemetry is off. Overrides must keep
    /// the simulation behaviour (state changes, charges, RNG draws) identical
    /// to `on_tick` — a probe is a pure observer.
    fn on_tick_probed(
        &mut self,
        tick: Tick,
        tx: &mut TransmissionCounter,
        rng: &mut dyn RngCore,
        probe: &mut dyn Probe,
    ) {
        let _ = probe;
        self.on_tick(tick, tx, rng);
    }

    /// The protocol's batched view, when its ticks can be split into a
    /// sequential RNG-draw stage and a concurrent resolution stage (see
    /// [`crate::batch::BatchActivation`]). The default declares no support,
    /// so wrappers (fault injection) and protocols with value-dependent
    /// randomness fall back to the sequential engine path automatically —
    /// parallelism is an execution strategy, never a semantics change.
    fn as_batch(&mut self) -> Option<&mut dyn crate::batch::BatchActivation> {
        None
    }
}

/// When the engine should stop driving a protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StopCondition {
    /// Stop once the relative error is at or below this value.
    pub epsilon: f64,
    /// Hard cap on the number of clock ticks (safety net for non-converging
    /// configurations); `None` means no cap.
    pub max_ticks: Option<u64>,
    /// Hard cap on the number of transmissions; `None` means no cap.
    pub max_transmissions: Option<u64>,
}

impl StopCondition {
    /// Stop at relative error `epsilon`, with generous default caps
    /// (`10^8` ticks, `10^9` transmissions) so runaway runs terminate.
    pub fn at_epsilon(epsilon: f64) -> Self {
        StopCondition {
            epsilon,
            max_ticks: Some(100_000_000),
            max_transmissions: Some(1_000_000_000),
        }
    }

    /// Replaces the tick cap.
    pub fn with_max_ticks(mut self, max: u64) -> Self {
        self.max_ticks = Some(max);
        self
    }

    /// Replaces the transmission cap.
    pub fn with_max_transmissions(mut self, max: u64) -> Self {
        self.max_transmissions = Some(max);
        self
    }

    /// Checks that the error target is usable: strictly positive and finite.
    ///
    /// A non-positive or non-finite `epsilon` would make the engine run until
    /// a budget cap silently; scenario validation surfaces it as an error
    /// instead.
    pub fn validate(&self) -> Result<(), crate::error::ProtocolError> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(crate::error::ProtocolError::invalid(
                "epsilon",
                format!(
                    "stop target must be strictly positive and finite, got {}",
                    self.epsilon
                ),
            ));
        }
        Ok(())
    }
}

/// Why the engine stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The error target was reached.
    Converged,
    /// The tick cap was hit first.
    TickBudgetExhausted,
    /// The transmission cap was hit first.
    TransmissionBudgetExhausted,
    /// The protocol reported ([`Activation::halted`]) that it can make no
    /// further progress (stall detector or internal round cap).
    ProtocolStalled,
    /// The error stopped being finite: the values blew up, and the run can
    /// no longer reach its target.
    Diverged,
}

impl StopReason {
    /// Stable kebab-case token used by telemetry event streams.
    pub fn token(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::TickBudgetExhausted => "tick-budget-exhausted",
            StopReason::TransmissionBudgetExhausted => "transmission-budget-exhausted",
            StopReason::ProtocolStalled => "protocol-stalled",
            StopReason::Diverged => "diverged",
        }
    }
}

/// Summary of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineReport {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Final transmission counters.
    pub transmissions: TransmissionCounter,
    /// Number of global clock ticks consumed.
    pub ticks: u64,
    /// Simulation time at the end of the run.
    pub time: f64,
    /// Final relative error.
    pub final_error: f64,
    /// Error-vs-cost trace sampled every `sample_every` ticks.
    pub trace: ConvergenceTrace,
}

impl EngineReport {
    /// Whether the run reached its error target.
    pub fn converged(&self) -> bool {
        self.reason == StopReason::Converged
    }
}

/// Default cap on recorded [`TracePoint`]s per run (initial sample plus
/// interior samples; the final sample is always appended on top). Beyond the
/// cap the engine doubles its sampling stride and thins the trace to match,
/// so a `10^6`-tick run keeps a bounded, evenly-strided trace instead of
/// accumulating one point per interval forever.
pub const DEFAULT_MAX_TRACE_POINTS: usize = 4096;

/// Multiplicative slack applied to the squared stop threshold so the
/// squared-domain pre-filter is strictly conservative.
///
/// The exact check compares `fl(fl(sqrt(S)) / D) ≤ ε`; whenever it holds,
/// real arithmetic gives `S ≤ (ε·D)²·(1 + O(δ))` with `δ = 2⁻⁵³`, so a
/// threshold of `fl(fl(ε·D)²)` inflated by `1 + 10⁻⁹` (nine orders of
/// magnitude more slack than the accumulated rounding) can never reject a
/// state the exact check would accept. States inside the slack band simply
/// fall through to the exact check. [`RunKernel`] is its only user.
const SQ_THRESHOLD_SLACK: f64 = 1.0 + 1e-9;

/// The part of a run every tick loop shares: the stopping rule, the tick and
/// transmission counts, the capped convergence trace, the
/// [`Event::ConvergenceCrossed`] and [`Event::TickCommitted`] events, and the
/// final [`EngineReport`].
///
/// A loop owns only how it draws a tick and how it applies one. Each
/// iteration asks [`RunKernel::stop_reason`] first; if the run goes on, the
/// loop draws and applies one tick, charging its transmissions to
/// [`RunKernel::tx`], and hands the tick to [`RunKernel::commit`].
/// [`RunKernel::finish`] builds the report. [`AsyncEngine::run`],
/// [`AsyncEngine::run_parallel`] and the `geogossip-net` scheduler all drive
/// this one kernel, so they stop at the same tick and record the same trace
/// by construction.
///
/// The protocol's views (squared error, exact error, halt flag) come in as
/// values and closures, so any protocol shape can drive the kernel. Methods
/// that may emit take the probe generically: driven with [`NoProbe`], a run
/// compiles all event code away.
#[derive(Debug)]
pub struct RunKernel {
    stop: StopCondition,
    /// `(ε·‖x(0)−x̄·1‖)²` inflated by [`SQ_THRESHOLD_SLACK`], when the
    /// protocol exposes its squared error.
    threshold_hi: Option<f64>,
    ticks: u64,
    tx: TransmissionCounter,
    trace: ConvergenceTrace,
    stride: u64,
    max_trace_points: usize,
}

impl RunKernel {
    /// Starts a run: records the initial trace sample and precomputes the
    /// squared stop threshold. `stride` is the trace sampling interval in
    /// ticks and `max_trace_points` the trace cap (see
    /// [`AsyncEngine::max_trace_points`]); `initial_error` and `squared` are
    /// the protocol's views before its first tick.
    pub fn new(
        stop: StopCondition,
        stride: u64,
        max_trace_points: usize,
        initial_error: f64,
        squared: Option<SquaredError>,
    ) -> Self {
        let mut trace = ConvergenceTrace::new();
        trace.push(TracePoint {
            transmissions: 0,
            ticks: 0,
            relative_error: initial_error,
        });
        // The threshold deliberately overshoots by `SQ_THRESHOLD_SLACK`;
        // crossings are confirmed with the exact check, which keeps the
        // stopping tick bit-identical to the reference loop.
        let threshold_hi = squared.map(|sq| {
            let target = stop.epsilon * sq.initial;
            (target * target) * SQ_THRESHOLD_SLACK
        });
        RunKernel {
            stop,
            threshold_hi,
            ticks: 0,
            tx: TransmissionCounter::new(),
            trace,
            stride: stride.max(1),
            max_trace_points,
        }
    }

    /// Ticks committed so far.
    #[inline]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The run's transmission counter, which each applied tick is charged to.
    #[inline]
    pub fn tx(&mut self) -> &mut TransmissionCounter {
        &mut self.tx
    }

    /// Whether the run stops before the next tick, and why.
    ///
    /// Checks, in order: the squared-domain pre-filter on `squared`, the
    /// exact confirmation `relative_error() ≤ ε`, divergence, `halted`, the
    /// tick budget, and the transmission budget. [`Event::ConvergenceCrossed`]
    /// is emitted only on a confirmed crossing. A run has diverged once its
    /// squared error is +∞ or NaN or, for a protocol without a squared
    /// error, once its exact error is not finite: such an error never comes
    /// back down, so the run stops at once instead of ticking on to a budget.
    #[inline]
    pub fn stop_reason<Pr: Probe + ?Sized>(
        &self,
        squared: Option<SquaredError>,
        relative_error: impl Fn() -> f64,
        halted: bool,
        probe: &mut Pr,
    ) -> Option<StopReason> {
        // While the squared deviation is clearly above the squared
        // threshold, skip the exact (sqrt + divide) comparison entirely.
        let clearly_above = match (self.threshold_hi, squared) {
            (Some(hi), Some(sq)) => sq.current_sq > hi,
            _ => false,
        };
        if !clearly_above {
            let error = relative_error();
            if error <= self.stop.epsilon {
                if probe.enabled() {
                    probe.on_event(Event::ConvergenceCrossed {
                        tick: self.ticks,
                        transmissions: self.tx.total(),
                        relative_error: relative_error(),
                    });
                }
                return Some(StopReason::Converged);
            }
            if squared.is_none() && !error.is_finite() {
                return Some(StopReason::Diverged);
            }
        }
        if squared.is_some_and(|sq| !sq.current_sq.is_finite()) {
            return Some(StopReason::Diverged);
        }
        if halted {
            return Some(StopReason::ProtocolStalled);
        }
        if self.stop.max_ticks.is_some_and(|m| self.ticks >= m) {
            return Some(StopReason::TickBudgetExhausted);
        }
        if self
            .stop
            .max_transmissions
            .is_some_and(|m| self.tx.total() >= m)
        {
            return Some(StopReason::TransmissionBudgetExhausted);
        }
        None
    }

    /// Records an applied tick: emits [`Event::TickCommitted`], then takes a
    /// trace sample when the tick index is a multiple of the stride.
    ///
    /// When the trace reaches its cap, the stride doubles and the recorded
    /// samples are thinned to it ([`ConvergenceTrace::thin_to_stride`]), so
    /// the trace is exactly "sampled at the final stride throughout".
    #[inline]
    pub fn commit<Pr: Probe + ?Sized>(
        &mut self,
        tick: Tick,
        relative_error: impl FnOnce() -> f64,
        probe: &mut Pr,
    ) {
        self.ticks = tick.index;
        if probe.enabled() {
            probe.on_event(Event::TickCommitted {
                tick: tick.index,
                node: tick.node.index() as u32,
                transmissions: self.tx.total(),
            });
        }
        if tick.index.is_multiple_of(self.stride) {
            while self.trace.len() >= self.max_trace_points {
                self.stride = self.stride.saturating_mul(2);
                self.trace.thin_to_stride(self.stride);
            }
            if tick.index.is_multiple_of(self.stride) {
                self.trace.push(TracePoint {
                    transmissions: self.tx.total(),
                    ticks: tick.index,
                    relative_error: relative_error(),
                });
            }
        }
    }

    /// Ends the run: appends the final trace sample and builds the report.
    /// `time` is the simulation time at the stop and `final_error` the
    /// protocol's relative error then.
    pub fn finish(mut self, reason: StopReason, time: f64, final_error: f64) -> EngineReport {
        self.trace.push(TracePoint {
            transmissions: self.tx.total(),
            ticks: self.ticks,
            relative_error: final_error,
        });
        EngineReport {
            reason,
            transmissions: self.tx,
            ticks: self.ticks,
            time,
            final_error,
            trace: self.trace,
        }
    }
}

/// The asynchronous engine: a Poisson clock plus bookkeeping.
#[derive(Debug, Clone)]
pub struct AsyncEngine {
    n: usize,
    sample_every: u64,
    max_trace_points: usize,
}

impl AsyncEngine {
    /// Creates an engine for a network of `n` sensors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a Poisson clock needs at least one sensor");
        AsyncEngine {
            n,
            sample_every: (n as u64).max(1),
            max_trace_points: DEFAULT_MAX_TRACE_POINTS,
        }
    }

    /// Sets how many ticks elapse between consecutive trace samples
    /// (default: one sample per `n` ticks ≈ one per unit of simulated time).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn sample_every(mut self, every: u64) -> Self {
        assert!(every > 0, "sampling interval must be positive");
        self.sample_every = every;
        self
    }

    /// Sets the cap on recorded trace samples (default
    /// [`DEFAULT_MAX_TRACE_POINTS`]). When the trace reaches the cap, the
    /// engine doubles its sampling stride and thins the recorded samples to
    /// the new stride ([`ConvergenceTrace::thin_to_stride`]), so arbitrarily
    /// long runs hold a bounded trace whose points are exactly the multiples
    /// of the final stride. The final sample is appended on top of the cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is smaller than 2 (the trace must have room for the
    /// initial sample and at least one interior sample).
    pub fn max_trace_points(mut self, cap: usize) -> Self {
        assert!(cap >= 2, "trace cap must allow at least two samples");
        self.max_trace_points = cap;
        self
    }

    /// Drives `protocol` until `stop` is satisfied, returning the run report.
    ///
    /// `protocol` may be unsized (`&mut dyn Activation`), so boxed registry
    /// protocols and concrete ones go through the same driver. Self-paced
    /// protocols ([`Clocking::SelfPaced`]) receive synthetic sequential ticks
    /// and leave the RNG entirely to the protocol; Poisson protocols share it
    /// with the clock exactly as before.
    ///
    /// This is the overhauled hot loop: batched clock, plus the
    /// [`RunKernel`]'s squared-domain stop pre-filter and strided trace cap
    /// (see the module docs). It is pinned bit-identical to
    /// [`AsyncEngine::run_reference`] whenever the trace stays under
    /// [`AsyncEngine::max_trace_points`].
    pub fn run<P, R>(&mut self, protocol: &mut P, stop: StopCondition, rng: &mut R) -> EngineReport
    where
        P: Activation + ?Sized,
        R: RngCore + ?Sized,
    {
        // `NoProbe::enabled()` is a compile-time `false`: this call
        // monomorphizes to exactly the pre-telemetry loop, with no event
        // construction and no probe branch surviving codegen (pinned by
        // `tests/telemetry_parity.rs`).
        self.run_with(protocol, stop, rng, NoProbe)
    }

    /// Like [`AsyncEngine::run`], but streaming deterministic events into
    /// `probe`: one [`Event::TickCommitted`] per tick, plus
    /// [`Event::ConvergenceCrossed`] when the stop check first confirms the
    /// threshold. Event content derives only from simulation state, so the
    /// stream is byte-identical across reruns; the report and RNG consumption
    /// are identical to the unprobed run.
    pub fn run_probed<P, R>(
        &mut self,
        protocol: &mut P,
        stop: StopCondition,
        rng: &mut R,
        probe: &mut dyn Probe,
    ) -> EngineReport
    where
        P: Activation + ?Sized,
        R: RngCore + ?Sized,
    {
        self.run_with(protocol, stop, rng, probe)
    }

    /// A kernel for one run of `protocol`, sampling the trace at the
    /// protocol's preferred interval, else at the engine's.
    fn kernel<P: Activation + ?Sized>(&self, protocol: &P, stop: StopCondition) -> RunKernel {
        RunKernel::new(
            stop,
            protocol.trace_interval().unwrap_or(self.sample_every),
            self.max_trace_points,
            protocol.relative_error(),
            protocol.squared_error(),
        )
    }

    fn run_with<P, R, Pr>(
        &mut self,
        protocol: &mut P,
        stop: StopCondition,
        rng: &mut R,
        mut probe: Pr,
    ) -> EngineReport
    where
        P: Activation + ?Sized,
        R: RngCore + ?Sized,
        Pr: Probe,
    {
        let self_paced = protocol.clocking() == Clocking::SelfPaced;
        let mut kernel = self.kernel(&*protocol, stop);
        let mut clock = BatchedPoissonClock::new(self.n);

        let reason = loop {
            if let Some(reason) = kernel.stop_reason(
                protocol.squared_error(),
                || protocol.relative_error(),
                protocol.halted(),
                &mut probe,
            ) {
                break reason;
            }
            let tick = if self_paced {
                let index = kernel.ticks() + 1;
                Tick {
                    time: index as f64,
                    index,
                    node: NodeId(0),
                }
            } else {
                clock.next_tick(&mut *rng)
            };
            // `&mut &mut R` coerces to `&mut dyn RngCore` via the blanket
            // `RngCore for &mut R` impl, without requiring `R: Sized`.
            let mut reborrow = &mut *rng;
            if probe.enabled() {
                protocol.on_tick_probed(tick, kernel.tx(), &mut reborrow, &mut probe);
            } else {
                protocol.on_tick(tick, kernel.tx(), &mut reborrow);
            }
            kernel.commit(tick, || protocol.relative_error(), &mut probe);
        };

        let time = if self_paced {
            kernel.ticks() as f64
        } else {
            clock.now()
        };
        kernel.finish(reason, time, protocol.relative_error())
    }

    /// Drives `protocol` like [`AsyncEngine::run`], but with intra-trial
    /// parallelism: ticks are pre-drawn in batches, their value-independent
    /// heavy work (greedy route walks) is resolved concurrently across the
    /// batch, and commits replay sequentially in draw order (see
    /// [`crate::batch`] for why each stage is where it is).
    ///
    /// **Bit-identical to the sequential paths**: reports, traces, metric
    /// counters, and the RNG end state match [`AsyncEngine::run`] and
    /// [`AsyncEngine::run_reference`] exactly, for every thread count and
    /// batch size — pinned by `tests/parallel_engine_parity.rs`. The RNG must
    /// be `Clone` because a run that stops mid-batch rewinds to the batch
    /// start and redraws exactly the committed ticks, leaving the generator
    /// in the same state the sequential engine leaves it in.
    ///
    /// Self-paced protocols have no Poisson tick stream to batch and are
    /// delegated to [`AsyncEngine::run`] unchanged.
    pub fn run_parallel<P, R>(
        &mut self,
        protocol: &mut P,
        stop: StopCondition,
        rng: &mut R,
        par: crate::batch::ParallelSpec,
    ) -> EngineReport
    where
        P: crate::batch::BatchActivation + ?Sized,
        R: RngCore + Clone,
    {
        self.run_parallel_with(protocol, stop, rng, par, NoProbe)
    }

    /// Like [`AsyncEngine::run_parallel`], but streaming deterministic events
    /// into `probe`. Events are emitted from the sequential commit loop in
    /// draw order, so the stream is byte-identical to
    /// [`AsyncEngine::run_probed`]'s for every thread count and batch size;
    /// a mid-batch stop emits nothing for the rewound (uncommitted) ticks.
    pub fn run_parallel_probed<P, R>(
        &mut self,
        protocol: &mut P,
        stop: StopCondition,
        rng: &mut R,
        par: crate::batch::ParallelSpec,
        probe: &mut dyn Probe,
    ) -> EngineReport
    where
        P: crate::batch::BatchActivation + ?Sized,
        R: RngCore + Clone,
    {
        self.run_parallel_with(protocol, stop, rng, par, probe)
    }

    fn run_parallel_with<P, R, Pr>(
        &mut self,
        protocol: &mut P,
        stop: StopCondition,
        rng: &mut R,
        par: crate::batch::ParallelSpec,
        mut probe: Pr,
    ) -> EngineReport
    where
        P: crate::batch::BatchActivation + ?Sized,
        R: RngCore + Clone,
        Pr: Probe,
    {
        use crate::batch::{resolve_plan, ResolvedPlan, TickPlan};
        use rayon::prelude::*;

        if protocol.clocking() == Clocking::SelfPaced {
            return self.run_with(protocol, stop, rng, probe);
        }
        let mut kernel = self.kernel(&*protocol, stop);
        let mut clock = BatchedPoissonClock::new(self.n);
        let batch_cap = par.batch.max(1);
        let mut planned: Vec<(Tick, TickPlan)> = Vec::with_capacity(batch_cap);

        let reason = 'run: loop {
            // Snapshot the randomness so a mid-batch stop can rewind: the
            // batched clock clones its pending gap buffer, so replaying the
            // committed ticks reproduces the identical reduction schedule.
            let rng_snapshot = rng.clone();
            let clock_snapshot = clock.clone();

            // Stage 1 (sequential): draw the batch's randomness in exactly
            // the order the sequential loop draws it — clock gap + node, then
            // the protocol's own draws, per tick. Capping the batch at the
            // remaining tick budget is an optimisation only; the rewind
            // below stays the general fallback.
            let remaining = stop
                .max_ticks
                .map_or(u64::MAX, |m| m.saturating_sub(kernel.ticks()))
                .max(1);
            let batch = (batch_cap as u64).min(remaining) as usize;
            planned.clear();
            for _ in 0..batch {
                let tick = clock.next_tick(&mut *rng);
                let mut reborrow = &mut *rng;
                let plan = protocol.draw_plan(tick, &mut reborrow);
                planned.push((tick, plan));
            }

            // Stage 2 (concurrent): resolve the whole batch's routing. Route
            // walks are pure functions of the static graph — value- and
            // order-independent — and the order-preserving parallel map
            // keeps results bit-identical for every thread count. Batches
            // with no routed work skip the pool.
            let graph = protocol.network();
            let needs_routing = planned.iter().any(|(_, p)| {
                matches!(
                    p,
                    TickPlan::RoutePosition { .. } | TickPlan::RouteNode { .. }
                )
            });
            let resolved: Vec<ResolvedPlan> = if needs_routing {
                let plans = &planned;
                rayon::with_max_threads(par.threads, || {
                    (0..plans.len())
                        .into_par_iter()
                        .map(|i| resolve_plan(graph, plans[i].0.node, &plans[i].1, &[]))
                        .collect()
                })
            } else {
                planned
                    .iter()
                    .map(|(tick, plan)| resolve_plan(graph, tick.node, plan, &[]))
                    .collect()
            };

            // Stage 3 (sequential): commit in draw order — the batch
            // draw-order contract — with the kernel's stop check ahead of
            // every tick, exactly as in the sequential loop.
            for (committed, (&(tick, _), resolved)) in planned.iter().zip(&resolved).enumerate() {
                if let Some(reason) = kernel.stop_reason(
                    protocol.squared_error(),
                    || protocol.relative_error(),
                    protocol.halted(),
                    &mut probe,
                ) {
                    // The batch over-drew the RNG: rewind to the batch start
                    // and redraw exactly the committed ticks (plans discarded
                    // — the draws are what matters), leaving generator and
                    // clock in the states the sequential engine leaves them.
                    *rng = rng_snapshot;
                    clock = clock_snapshot;
                    for _ in 0..committed {
                        let tick = clock.next_tick(&mut *rng);
                        let mut reborrow = &mut *rng;
                        let _ = protocol.draw_plan(tick, &mut reborrow);
                    }
                    break 'run reason;
                }
                protocol.commit_plan(tick, resolved, kernel.tx());
                kernel.commit(tick, || protocol.relative_error(), &mut probe);
            }
        };

        kernel.finish(reason, clock.now(), protocol.relative_error())
    }

    /// The pre-overhaul tick loop, preserved **verbatim** (sequential
    /// [`GlobalPoissonClock`], exact `relative_error` comparison every tick,
    /// unbounded trace) for the engine parity property tests — the same
    /// keep-the-reference discipline as `GeometricGraph::build_reference`.
    ///
    /// Production callers should use [`AsyncEngine::run`]; the two are
    /// bit-identical (reports and RNG consumption) whenever the trace stays
    /// under the cap, which the parity suite pins.
    pub fn run_reference<P, R>(
        &mut self,
        protocol: &mut P,
        stop: StopCondition,
        rng: &mut R,
    ) -> EngineReport
    where
        P: Activation + ?Sized,
        R: RngCore + ?Sized,
    {
        let mut clock = GlobalPoissonClock::new(self.n);
        clock.reset();
        let self_paced = protocol.clocking() == Clocking::SelfPaced;
        let sample_every = protocol
            .trace_interval()
            .unwrap_or(self.sample_every)
            .max(1);
        let mut ticks: u64 = 0;
        let mut tx = TransmissionCounter::new();
        let mut trace = ConvergenceTrace::new();
        trace.push(TracePoint {
            transmissions: 0,
            ticks: 0,
            relative_error: protocol.relative_error(),
        });

        // The convergence predicate is evaluated after every tick:
        // `relative_error` is O(1) for GossipState-backed protocols (the
        // centered norm is maintained incrementally), so runs stop exactly at
        // the crossing tick instead of overshooting by up to a full sampling
        // interval as the pre-incremental implementation did. The trace is
        // still sampled at the configured interval to keep reports compact.
        let reason = loop {
            if protocol.relative_error() <= stop.epsilon {
                break StopReason::Converged;
            }
            if protocol.halted() {
                break StopReason::ProtocolStalled;
            }
            if stop.max_ticks.is_some_and(|m| ticks >= m) {
                break StopReason::TickBudgetExhausted;
            }
            if stop.max_transmissions.is_some_and(|m| tx.total() >= m) {
                break StopReason::TransmissionBudgetExhausted;
            }
            let tick = if self_paced {
                ticks += 1;
                Tick {
                    time: ticks as f64,
                    index: ticks,
                    node: NodeId(0),
                }
            } else {
                let tick = clock.next_tick(&mut *rng);
                ticks = tick.index;
                tick
            };
            // `&mut &mut R` coerces to `&mut dyn RngCore` via the blanket
            // `RngCore for &mut R` impl, without requiring `R: Sized`.
            let mut reborrow = &mut *rng;
            protocol.on_tick(tick, &mut tx, &mut reborrow);
            if tick.index.is_multiple_of(sample_every) {
                trace.push(TracePoint {
                    transmissions: tx.total(),
                    ticks: tick.index,
                    relative_error: protocol.relative_error(),
                });
            }
        };

        trace.push(TracePoint {
            transmissions: tx.total(),
            ticks,
            relative_error: protocol.relative_error(),
        });
        EngineReport {
            reason,
            transmissions: tx,
            ticks,
            time: if self_paced {
                ticks as f64
            } else {
                clock.now()
            },
            final_error: protocol.relative_error(),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A toy protocol whose error halves every `n` ticks and which charges one
    /// local transmission per tick.
    struct Halver {
        n: u64,
        error: f64,
    }

    impl Activation for Halver {
        fn on_tick(&mut self, tick: Tick, tx: &mut TransmissionCounter, _rng: &mut dyn RngCore) {
            tx.charge_local(1);
            if tick.index.is_multiple_of(self.n) {
                self.error /= 2.0;
            }
        }
        fn relative_error(&self) -> f64 {
            self.error
        }
    }

    #[test]
    fn engine_converges_and_reports() {
        let mut engine = AsyncEngine::new(10);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut proto = Halver { n: 10, error: 1.0 };
        let report = engine.run(&mut proto, StopCondition::at_epsilon(1e-3), &mut rng);
        assert!(report.converged());
        assert!(report.final_error <= 1e-3);
        assert_eq!(report.transmissions.total(), report.ticks);
        assert!(report.trace.len() >= 2);
        assert!(report.time > 0.0);
    }

    #[test]
    fn tick_budget_stops_nonconverging_runs() {
        struct Stuck;
        impl Activation for Stuck {
            fn on_tick(&mut self, _t: Tick, tx: &mut TransmissionCounter, _r: &mut dyn RngCore) {
                tx.charge_local(1);
            }
            fn relative_error(&self) -> f64 {
                1.0
            }
        }
        let mut engine = AsyncEngine::new(5);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let stop = StopCondition::at_epsilon(1e-9).with_max_ticks(100);
        let report = engine.run(&mut Stuck, stop, &mut rng);
        assert_eq!(report.reason, StopReason::TickBudgetExhausted);
        assert_eq!(report.ticks, 100);
    }

    #[test]
    fn a_diverged_run_stops_at_its_first_non_finite_error() {
        /// Error 1 until tick 5, +∞ from then on; `blown` is the squared
        /// view it reports from tick 5, and `None` means it has none.
        struct BlowsUp {
            ticks: u64,
            blown: Option<f64>,
        }
        impl Activation for BlowsUp {
            fn on_tick(&mut self, tick: Tick, tx: &mut TransmissionCounter, _r: &mut dyn RngCore) {
                tx.charge_local(1);
                self.ticks = tick.index;
            }
            fn relative_error(&self) -> f64 {
                if self.ticks >= 5 {
                    f64::INFINITY
                } else {
                    1.0
                }
            }
            fn squared_error(&self) -> Option<SquaredError> {
                let current_sq = if self.ticks >= 5 { self.blown? } else { 1.0 };
                self.blown.map(|_| SquaredError {
                    current_sq,
                    initial: 1.0,
                })
            }
        }
        for blown in [None, Some(f64::INFINITY), Some(f64::NAN)] {
            let mut engine = AsyncEngine::new(5);
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            let stop = StopCondition::at_epsilon(1e-9).with_max_ticks(1000);
            let mut proto = BlowsUp { ticks: 0, blown };
            let report = engine.run(&mut proto, stop, &mut rng);
            assert_eq!(report.reason, StopReason::Diverged, "{blown:?}");
            assert_eq!(report.ticks, 5, "{blown:?}");
            assert_eq!(report.final_error, f64::INFINITY);
            assert_eq!(report.reason.token(), "diverged");
        }
    }

    #[test]
    fn transmission_budget_stops_runs() {
        struct Chatty;
        impl Activation for Chatty {
            fn on_tick(&mut self, _t: Tick, tx: &mut TransmissionCounter, _r: &mut dyn RngCore) {
                tx.charge_routing(50);
            }
            fn relative_error(&self) -> f64 {
                1.0
            }
        }
        let mut engine = AsyncEngine::new(5);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let stop = StopCondition::at_epsilon(1e-9).with_max_transmissions(200);
        let report = engine.run(&mut Chatty, stop, &mut rng);
        assert_eq!(report.reason, StopReason::TransmissionBudgetExhausted);
        assert!(report.transmissions.total() >= 200);
    }

    #[test]
    fn already_converged_protocol_uses_no_ticks() {
        let mut engine = AsyncEngine::new(5);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut proto = Halver { n: 1, error: 0.0 };
        let report = engine.run(&mut proto, StopCondition::at_epsilon(0.5), &mut rng);
        assert!(report.converged());
        assert_eq!(report.ticks, 0);
        assert_eq!(report.transmissions.total(), 0);
    }

    #[test]
    fn trace_is_sampled_at_requested_interval() {
        let mut engine = AsyncEngine::new(10).sample_every(7);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut proto = Halver { n: 20, error: 1.0 };
        let report = engine.run(
            &mut proto,
            StopCondition::at_epsilon(0.1).with_max_ticks(100),
            &mut rng,
        );
        // Initial + one per 7 ticks + final.
        assert!(report.trace.len() >= 3);
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_sampling_interval_rejected() {
        let _ = AsyncEngine::new(3).sample_every(0);
    }

    /// A self-paced protocol that records the node ids it was handed and
    /// halts itself after a fixed number of rounds.
    struct SelfPacedCounter {
        rounds: u64,
        cap: u64,
        draws: Vec<u64>,
    }

    impl Activation for SelfPacedCounter {
        fn on_tick(&mut self, tick: Tick, tx: &mut TransmissionCounter, rng: &mut dyn RngCore) {
            assert_eq!(tick.node, NodeId(0));
            assert_eq!(tick.index, self.rounds + 1);
            self.draws.push(rng.next_u64());
            tx.charge_control(1);
            self.rounds += 1;
            if self.rounds >= self.cap {
                // The halt is observed by the engine before the next tick.
            }
        }
        fn relative_error(&self) -> f64 {
            1.0
        }
        fn rounds(&self) -> Option<u64> {
            Some(self.rounds)
        }
        fn halted(&self) -> bool {
            self.rounds >= self.cap
        }
        fn clocking(&self) -> Clocking {
            Clocking::SelfPaced
        }
        fn trace_interval(&self) -> Option<u64> {
            Some(1)
        }
    }

    #[test]
    fn self_paced_protocols_get_sequential_ticks_and_all_the_randomness() {
        let mut engine = AsyncEngine::new(7);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut proto = SelfPacedCounter {
            rounds: 0,
            cap: 5,
            draws: Vec::new(),
        };
        let report = engine.run(&mut proto, StopCondition::at_epsilon(1e-6), &mut rng);
        assert_eq!(report.reason, StopReason::ProtocolStalled);
        assert_eq!(report.ticks, 5);
        assert_eq!(proto.rounds, 5);
        // The clock consumed nothing: the protocol's draws equal the first
        // five raw outputs of an identically seeded generator.
        let mut reference = ChaCha8Rng::seed_from_u64(6);
        let expected: Vec<u64> = (0..5)
            .map(|_| rand::RngCore::next_u64(&mut reference))
            .collect();
        assert_eq!(proto.draws, expected);
    }

    #[test]
    fn protocol_trace_interval_overrides_engine_sampling() {
        // The engine is sized for a large network (default sampling every
        // 1000 ticks), but the protocol asks for per-tick samples; without
        // the override a 5-round run would collapse to its endpoints.
        let mut engine = AsyncEngine::new(1000);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut proto = SelfPacedCounter {
            rounds: 0,
            cap: 5,
            draws: Vec::new(),
        };
        let report = engine.run(&mut proto, StopCondition::at_epsilon(1e-6), &mut rng);
        // Initial point + one per round + final.
        assert_eq!(report.trace.len(), 7);
    }

    /// A protocol that never converges, for driving the loop a fixed number
    /// of ticks.
    struct Stuck;
    impl Activation for Stuck {
        fn on_tick(&mut self, _t: Tick, tx: &mut TransmissionCounter, _r: &mut dyn RngCore) {
            tx.charge_local(1);
        }
        fn relative_error(&self) -> f64 {
            1.0
        }
    }

    /// The trace cap doubles the stride and thins in place, so the sampled
    /// ticks are exactly the multiples of the final stride (satellite pin:
    /// a long run cannot accumulate unbounded `TracePoint`s).
    #[test]
    fn trace_cap_doubles_stride_and_pins_sampled_ticks() {
        let mut engine = AsyncEngine::new(5).sample_every(1).max_trace_points(5);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let stop = StopCondition::at_epsilon(1e-9).with_max_ticks(40);
        let report = engine.run(&mut Stuck, stop, &mut rng);
        let ticks: Vec<u64> = report.trace.points().iter().map(|p| p.ticks).collect();
        // Per-tick sampling under cap 5 over 40 ticks settles at stride 16
        // ({0, 16, 32}); the final sample (tick 40) is appended on top.
        assert_eq!(ticks, vec![0, 16, 32, 40]);
        assert_eq!(report.reason, StopReason::TickBudgetExhausted);
    }

    #[test]
    fn trace_cap_bounds_million_tick_runs() {
        let mut engine = AsyncEngine::new(3).sample_every(1);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let stop = StopCondition::at_epsilon(1e-9).with_max_ticks(1_000_000);
        let report = engine.run(&mut Stuck, stop, &mut rng);
        assert_eq!(report.ticks, 1_000_000);
        // Initial + interior capped at DEFAULT_MAX_TRACE_POINTS + final.
        assert!(report.trace.len() <= DEFAULT_MAX_TRACE_POINTS + 1);
        assert!(report.trace.len() > DEFAULT_MAX_TRACE_POINTS / 4);
    }

    #[test]
    #[should_panic(expected = "trace cap")]
    fn tiny_trace_cap_rejected() {
        let _ = AsyncEngine::new(3).max_trace_points(1);
    }

    /// A protocol exposing the squared-domain stop hook; its error halves on
    /// every tick that is a multiple of `n`.
    struct SqHalver {
        n: u64,
        error: f64,
    }

    impl Activation for SqHalver {
        fn on_tick(&mut self, tick: Tick, tx: &mut TransmissionCounter, _rng: &mut dyn RngCore) {
            tx.charge_local(1);
            if tick.index.is_multiple_of(self.n) {
                self.error /= 2.0;
            }
        }
        fn relative_error(&self) -> f64 {
            self.error
        }
        fn squared_error(&self) -> Option<SquaredError> {
            Some(SquaredError {
                current_sq: self.error * self.error,
                initial: 1.0,
            })
        }
    }

    /// The squared-domain pre-filter must stop at exactly the tick the exact
    /// per-tick comparison stops at.
    #[test]
    fn squared_stop_filter_matches_reference_stopping_tick() {
        for epsilon in [0.5, 0.1, 1e-3, 1e-6] {
            let stop = StopCondition::at_epsilon(epsilon);
            let mut fast = AsyncEngine::new(10);
            let report_fast = fast.run(
                &mut SqHalver { n: 7, error: 1.0 },
                stop,
                &mut ChaCha8Rng::seed_from_u64(11),
            );
            let mut reference = AsyncEngine::new(10);
            let report_reference = reference.run_reference(
                &mut SqHalver { n: 7, error: 1.0 },
                stop,
                &mut ChaCha8Rng::seed_from_u64(11),
            );
            assert_eq!(report_fast, report_reference);
            assert!(report_fast.converged());
        }
    }

    #[test]
    fn engine_drives_boxed_dyn_protocols() {
        let mut engine = AsyncEngine::new(4);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut boxed: Box<dyn Activation> = Box::new(Halver { n: 4, error: 1.0 });
        let report = engine.run(&mut *boxed, StopCondition::at_epsilon(0.1), &mut rng);
        assert!(report.converged());
    }

    #[test]
    fn stop_condition_validation_rejects_bad_epsilon() {
        assert!(StopCondition::at_epsilon(0.1).validate().is_ok());
        assert!(StopCondition::at_epsilon(0.0).validate().is_err());
        assert!(StopCondition::at_epsilon(-1.0).validate().is_err());
        assert!(StopCondition::at_epsilon(f64::NAN).validate().is_err());
        assert!(StopCondition::at_epsilon(f64::INFINITY).validate().is_err());
    }
}
