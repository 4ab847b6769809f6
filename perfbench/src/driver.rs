//! Drives a workload's trials through the layers' public entry points, one
//! trial at a time, and times every call from outside.
//!
//! The trial body is `Runner::run_trial`'s, spelled with public calls
//! (`TopologySpec::build`, `Field::values`, `ProtocolFactory::build`, then
//! `AsyncEngine::run` / `run_parallel` or `TransportRuntime::run_trial`), so
//! set-up and engine time are measured around each call instead of read
//! from `TrialCost::phases`: under a multi-worker pool those laps absorb
//! other trials' work (README.md, findings).

use crate::host;
use crate::trace::{SampledActivation, Tracer};
use geogossip_core::ProtocolRegistry;
use geogossip_net::NetRuntime;
use geogossip_sim::engine::{AsyncEngine, Clocking};
use geogossip_sim::error::ProtocolError;
use geogossip_sim::fault::FAULT_STREAM_LABEL;
use geogossip_sim::scenario::{ProtocolFactory, ScenarioSpec, TrialCost};
use geogossip_sim::transport::{TransportRuntime, NET_STREAM_LABEL};
use geogossip_sim::SeedStream;
use geogossip_telemetry::Probe;
use std::time::Instant;

/// The layers the benchmark drives: the built-in protocol registry and the
/// message-passing runtime.
pub struct Layers {
    registry: ProtocolRegistry,
    runtime: NetRuntime,
}

impl Layers {
    /// The built-in registry and runtime.
    pub fn new() -> Self {
        Layers {
            registry: ProtocolRegistry::builtin(),
            runtime: NetRuntime::new(),
        }
    }
}

impl Default for Layers {
    fn default() -> Self {
        Self::new()
    }
}

/// Seconds one trial spent in set-up and in the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrialTimes {
    /// CPU seconds, summed over the process's threads, of
    /// `TopologySpec::build`, `Field::values` and `ProtocolFactory::build`
    /// (the net runtime builds its actors inside the run). CPU time, not
    /// wall time: the graph build splits across the pool, and whether the
    /// host lets the second vCPU run during a millisecond build halves or
    /// doubles its wall time from one run to the next.
    pub setup_s: f64,
    /// Wall-clock seconds of the engine or `TransportRuntime::run_trial`
    /// call.
    pub engine_s: f64,
}

/// One trial's outcome and timings.
#[derive(Debug, Clone)]
pub struct TrialRun {
    /// The trial's report, shaped like `Runner::run`'s.
    pub cost: TrialCost,
    /// The trial's per-call times.
    pub times: TrialTimes,
}

/// One pass over a workload's trials, in trial order.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Each trial's outcome; an error counts as a failed operation.
    pub trials: Vec<Result<TrialRun, ProtocolError>>,
    /// Wall-clock seconds of the whole pass.
    pub wall_s: f64,
}

impl Pass {
    /// Set-up CPU seconds summed over the pass's trials.
    pub fn setup_s(&self) -> f64 {
        self.ok_trials().map(|t| t.times.setup_s).sum()
    }

    /// Engine seconds summed over the pass's trials.
    pub fn engine_s(&self) -> f64 {
        self.ok_trials().map(|t| t.times.engine_s).sum()
    }

    /// The trials that ran without error.
    pub fn ok_trials(&self) -> impl Iterator<Item = &TrialRun> {
        self.trials.iter().filter_map(|t| t.as_ref().ok())
    }
}

/// Runs every trial of `spec` in order, one at a time.
pub fn run_pass(layers: &Layers, spec: &ScenarioSpec, mut tracer: Option<&mut Tracer>) -> Pass {
    let start = Instant::now();
    let trials = (0..spec.trials)
        .map(|trial| run_trial(layers, spec, trial, tracer.as_deref_mut()))
        .collect();
    Pass {
        trials,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Times `f`, recording a span when tracing.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    trial: u64,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> T,
) -> (T, f64) {
    let start = Instant::now();
    let value = f(tracer);
    let end = Instant::now();
    if let Some(tracer) = tracer.as_deref_mut() {
        tracer.span(name, trial, start, end);
    }
    (value, (end - start).as_secs_f64())
}

/// One trial: placement → field → protocol → engine, every stream derived
/// from `(spec.seed, trial)` exactly as `Runner::run_trial` derives it.
///
/// With a tracer, the sequential engine drives the protocol through a
/// [`SampledActivation`] and the net runtime reports to the tracer's
/// message counts; the parallel engine records only the coarse spans.
pub fn run_trial(
    layers: &Layers,
    spec: &ScenarioSpec,
    trial: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<TrialRun, ProtocolError> {
    let trial_start = Instant::now();
    let tag = layers
        .registry
        .seed_tag(&spec.protocol.name)
        .ok_or_else(|| ProtocolError::UnknownProtocol {
            name: spec.protocol.name.clone(),
        })?;
    if !spec.faults.is_none() {
        return Err(ProtocolError::invalid(
            "faults",
            "the benchmark drives fault-free workloads only",
        ));
    }
    let seeds = SeedStream::new(spec.seed);
    let setup_start = host::cpu_time_s();
    let (graph, _) = timed(&mut tracer, "graph.build", trial, |_| {
        spec.topology.build(&seeds, trial)
    });
    let (values, _) = timed(&mut tracer, "field.values", trial, |_| {
        spec.field.values(&graph, &mut seeds.trial("values", trial))
    });
    let mut rng = seeds.trial("run", trial ^ (tag << 32));

    if let Some(transport) = &spec.transport {
        let setup_s = host::cpu_time_s() - setup_start;
        let mut net_rng = seeds.trial(NET_STREAM_LABEL, trial);
        let fault_rng = seeds.trial(FAULT_STREAM_LABEL, trial);
        let (outcome, engine_s) = timed(&mut tracer, "net.run_trial", trial, |tracer| {
            layers.runtime.run_trial(
                &spec.protocol,
                transport,
                &spec.faults,
                &graph,
                values,
                spec.stop,
                &mut rng,
                &mut net_rng,
                fault_rng,
                tracer
                    .as_deref_mut()
                    .map(|t| &mut t.messages as &mut dyn Probe),
            )
        });
        let outcome = outcome?;
        let report = outcome.report;
        return Ok(TrialRun {
            cost: TrialCost {
                converged: report.converged(),
                transmissions: report.transmissions,
                rounds: outcome.rounds.unwrap_or(report.ticks),
                ticks: report.ticks,
                final_error: report.final_error,
                metrics: outcome.metrics,
                trace: report.trace,
                seconds: trial_start.elapsed().as_secs_f64(),
                engine_seconds: engine_s,
                phases: Vec::new(),
            },
            times: TrialTimes { setup_s, engine_s },
        });
    }

    let (protocol, _) = timed(&mut tracer, "core.build", trial, |_| {
        layers
            .registry
            .build(&spec.protocol, &graph, values, spec.stop.epsilon, &mut rng)
    });
    let setup_s = host::cpu_time_s() - setup_start;
    let mut protocol = protocol?;
    let mut engine = AsyncEngine::new(graph.len());
    let (report, engine_s) = timed(&mut tracer, "engine.run", trial, |tracer| {
        match (spec.parallelism, tracer.as_deref_mut()) {
            (Some(par), _) => match protocol.as_batch() {
                Some(batch) => engine.run_parallel(batch, spec.stop, &mut rng, par),
                None => engine.run(&mut *protocol, spec.stop, &mut rng),
            },
            (None, None) => engine.run(&mut *protocol, spec.stop, &mut rng),
            (None, Some(tracer)) => {
                let stride = match protocol.clocking() {
                    Clocking::Poisson => tracer.stride,
                    Clocking::SelfPaced => 1,
                };
                let mut sampled = SampledActivation::new(&mut *protocol, stride);
                let report = engine.run(&mut sampled, spec.stop, &mut rng);
                tracer.absorb_ticks(sampled.sample(), report.ticks);
                report
            }
        }
    });
    Ok(TrialRun {
        cost: TrialCost {
            converged: report.converged(),
            transmissions: report.transmissions,
            rounds: protocol.rounds().unwrap_or(report.ticks),
            ticks: report.ticks,
            final_error: report.final_error,
            metrics: protocol.metrics(),
            trace: report.trace,
            seconds: trial_start.elapsed().as_secs_f64(),
            engine_seconds: engine_s,
            phases: Vec::new(),
        },
        times: TrialTimes { setup_s, engine_s },
    })
}

/// Bit-for-bit equality of two trial reports: `TrialCost`'s semantic
/// equality plus the exact bits of the final error.
pub fn same_report(a: &TrialCost, b: &TrialCost) -> bool {
    a == b && a.final_error.to_bits() == b.final_error.to_bits()
}

/// Whether a trial met its target: converged with final error ≤ ε.
pub fn converged_within(cost: &TrialCost, epsilon: f64) -> bool {
    cost.converged && cost.final_error <= epsilon
}
