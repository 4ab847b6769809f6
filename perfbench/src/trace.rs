//! The traced pass's instruments: in-memory spans around the calls into each
//! layer, a forwarding `Activation` that times `on_tick` on ticks chosen by
//! index, and a counting `Probe` for the net runtime's message events.
//!
//! None of them steers the simulation, so a traced trial's report equals the
//! untraced one bit for bit; the benchmark checks that on every traced run.

use geogossip_sim::batch::BatchActivation;
use geogossip_sim::clock::Tick;
use geogossip_sim::engine::{Activation, Clocking, SquaredError};
use geogossip_sim::fault::{FaultContext, FaultSupport};
use geogossip_sim::metrics::TransmissionCounter;
use geogossip_telemetry::{Event, Probe};
use rand::RngCore;
use std::time::Instant;

/// One call into a layer, in seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `graph.build` or `engine.run`.
    pub name: &'static str,
    /// The trial the call belongs to (the spans of one trial share it).
    pub trial: u64,
    /// Start, in seconds since the tracer's origin.
    pub start_s: f64,
    /// End, in seconds since the tracer's origin.
    pub end_s: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// `on_tick` calls timed by [`SampledActivation`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickSample {
    /// Ticks whose `on_tick` was timed.
    pub timed_ticks: u64,
    /// Nanoseconds spent in those calls.
    pub timed_ns: f64,
}

/// Nanoseconds one timed region costs with nothing inside it: two clock
/// reads, taken off every sampled tick.
pub fn timer_overhead_ns() -> f64 {
    const READS: u32 = 100_000;
    let mut total = std::time::Duration::ZERO;
    for _ in 0..READS {
        let start = Instant::now();
        std::hint::black_box(());
        total += start.elapsed();
    }
    total.as_nanos() as f64 / f64::from(READS)
}

/// An in-memory [`Probe`] that counts the message-passing runtime's events
/// instead of writing them out (the JSONL sink writes gigabytes of tick
/// events on these workloads). The counts accumulate over every trial it
/// observes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageCounts {
    /// `message-dispatched` events.
    pub dispatched: u64,
    /// `message-delivered` events.
    pub delivered: u64,
    /// `message-dropped` events.
    pub dropped: u64,
    /// `message-retried` events.
    pub retried: u64,
}

impl Probe for MessageCounts {
    fn on_event(&mut self, event: Event) {
        match event {
            Event::MessageDispatched { .. } => self.dispatched += 1,
            Event::MessageDelivered { .. } => self.delivered += 1,
            Event::MessageDropped { .. } => self.dropped += 1,
            Event::MessageRetried { .. } => self.retried += 1,
            _ => {}
        }
    }
}

/// Most ticks between two timed `on_tick` calls of a Poisson-clocked
/// protocol: a clock read costs about a third of a `pairwise` tick.
pub const MAX_TICK_STRIDE: u64 = 64;

/// Everything one traced pass records.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    /// [`timer_overhead_ns`], measured when the tracer was made.
    pub timer_ns: f64,
    /// Ticks between two timed `on_tick` calls of a Poisson-clocked
    /// protocol.
    pub stride: u64,
    /// Spans in the order they ended.
    pub spans: Vec<Span>,
    /// Seconds the sequential engine's trials spent in `on_tick` (the
    /// protocol's step), each trial's sample extrapolated to all its ticks.
    pub step_s: f64,
    /// Message events of the net runtime's trials; the runtime reports to
    /// it directly.
    pub messages: MessageCounts,
}

impl Tracer {
    /// An empty tracer whose clock starts now, for an engine whose untraced
    /// ticks take `tick_ns` each.
    ///
    /// The sampling stride is the smallest power of two that keeps timing
    /// below 1% of the engine's time, at most [`MAX_TICK_STRIDE`]: cheap
    /// ticks are sampled sparsely, and expensive ones, whose cost varies with
    /// route length, all get timed so the extrapolated step time is exact.
    pub fn new(tick_ns: f64) -> Self {
        let timer_ns = timer_overhead_ns();
        let wanted = (100.0 * timer_ns / tick_ns).ceil().max(1.0) as u64;
        Tracer {
            timer_ns,
            stride: wanted.next_power_of_two().min(MAX_TICK_STRIDE),
            origin: Instant::now(),
            spans: Vec::new(),
            step_s: 0.0,
            messages: MessageCounts::default(),
        }
    }

    /// Records a span.
    pub fn span(&mut self, name: &'static str, trial: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            trial,
            start_s: start.saturating_duration_since(self.origin).as_secs_f64(),
            end_s: end.saturating_duration_since(self.origin).as_secs_f64(),
        });
    }

    /// Adds one trial's tick sample, extrapolated to its `ticks`, after
    /// taking the cost of timing an empty call off every timed tick.
    pub fn absorb_ticks(&mut self, sample: TickSample, ticks: u64) {
        if sample.timed_ticks > 0 {
            let per_tick = sample.timed_ns / sample.timed_ticks as f64 - self.timer_ns;
            self.step_s += per_tick.max(0.0) * ticks as f64 * 1e-9;
        }
    }

    /// Seconds summed over the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }
}

/// A forwarding [`Activation`] that times the wrapped protocol's `on_tick`
/// on every `stride`-th tick by index and forwards every other trait method
/// untouched, so the engine sees the same protocol.
pub struct SampledActivation<'p, 'g> {
    inner: &'p mut (dyn Activation + 'g),
    stride: u64,
    sample: TickSample,
}

impl<'p, 'g> SampledActivation<'p, 'g> {
    /// Wraps `inner`, timing ticks whose index is a multiple of `stride`.
    pub fn new(inner: &'p mut (dyn Activation + 'g), stride: u64) -> Self {
        SampledActivation {
            inner,
            stride: stride.max(1),
            sample: TickSample::default(),
        }
    }

    /// The timed ticks so far.
    pub fn sample(&self) -> TickSample {
        self.sample
    }
}

impl Activation for SampledActivation<'_, '_> {
    fn on_tick(&mut self, tick: Tick, tx: &mut TransmissionCounter, rng: &mut dyn RngCore) {
        if tick.index.is_multiple_of(self.stride) {
            let start = Instant::now();
            self.inner.on_tick(tick, tx, rng);
            self.sample.timed_ns += start.elapsed().as_nanos() as f64;
            self.sample.timed_ticks += 1;
        } else {
            self.inner.on_tick(tick, tx, rng);
        }
    }

    fn relative_error(&self) -> f64 {
        self.inner.relative_error()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn params(&self) -> Vec<(String, String)> {
        self.inner.params()
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        self.inner.metrics()
    }

    fn rounds(&self) -> Option<u64> {
        self.inner.rounds()
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn clocking(&self) -> Clocking {
        self.inner.clocking()
    }

    fn trace_interval(&self) -> Option<u64> {
        self.inner.trace_interval()
    }

    fn squared_error(&self) -> Option<SquaredError> {
        self.inner.squared_error()
    }

    fn fault_support(&self) -> FaultSupport {
        self.inner.fault_support()
    }

    fn on_tick_faulty(
        &mut self,
        tick: Tick,
        tx: &mut TransmissionCounter,
        rng: &mut dyn RngCore,
        faults: &FaultContext<'_>,
    ) {
        self.inner.on_tick_faulty(tick, tx, rng, faults);
    }

    fn on_tick_probed(
        &mut self,
        tick: Tick,
        tx: &mut TransmissionCounter,
        rng: &mut dyn RngCore,
        probe: &mut dyn Probe,
    ) {
        self.inner.on_tick_probed(tick, tx, rng, probe);
    }

    fn as_batch(&mut self) -> Option<&mut dyn BatchActivation> {
        self.inner.as_batch()
    }
}
