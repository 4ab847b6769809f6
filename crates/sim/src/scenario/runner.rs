//! The `Runner` facade: executes [`ScenarioSpec`]s against a protocol
//! factory, with rayon-parallel trials under the workspace's
//! determinism-under-rayon contract.

use crate::engine::{Activation, AsyncEngine};
use crate::error::ProtocolError;
use crate::fault::{FaultyActivation, FAULT_STREAM_LABEL};
use crate::rng::SeedStream;
use crate::scenario::report::{ScenarioReport, TrialCost};
use crate::scenario::spec::{ProtocolSpec, ScenarioSpec};
use crate::transport::{TransportRuntime, NET_STREAM_LABEL};
use geogossip_graph::GeometricGraph;
use geogossip_telemetry::{Event, EventBuffer, PhaseTimer, Probe};
use rand::RngCore;
use rayon::prelude::*;

/// Resolves protocol names from a [`ScenarioSpec`] into runnable
/// [`Activation`] instances.
///
/// The canonical implementation is `geogossip_core::registry::ProtocolRegistry`
/// (the trait lives here, below the protocol crate, so the scenario layer
/// stays protocol-agnostic and new protocols plug in without touching the
/// runner).
pub trait ProtocolFactory: Send + Sync {
    /// The names this factory resolves, in presentation order.
    fn names(&self) -> Vec<String>;

    /// The seed tag mixed into the per-trial run stream for `name`
    /// (`seeds.trial("run", trial ^ (tag << 32))`), or `None` for unknown
    /// names. Distinct tags keep different protocols on the same instance
    /// statistically independent; the built-in tags reproduce the historical
    /// per-protocol streams bit-for-bit.
    fn seed_tag(&self, name: &str) -> Option<u64>;

    /// Checks `spec`'s params as [`ProtocolFactory::build`] reads them,
    /// without a graph, so [`Runner::check`] refuses bad params before the
    /// first trial. The default accepts every spec: such a factory's params
    /// are checked only when `build` runs.
    fn check(&self, spec: &ProtocolSpec) -> Result<(), ProtocolError> {
        let _ = spec;
        Ok(())
    }

    /// Builds a protocol instance over `graph` with the given initial values.
    ///
    /// `epsilon` is the scenario's stop target (round-based protocols derive
    /// their internal accuracy cascade from it); `rng` is the trial's run
    /// stream — builders that need randomness (random coefficients, rejection
    /// sampling) draw from it, others must leave it untouched.
    fn build<'a>(
        &self,
        spec: &ProtocolSpec,
        graph: &'a GeometricGraph,
        values: Vec<f64>,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn Activation + 'a>, ProtocolError>;
}

/// Executes scenarios: builds the per-trial network, field and protocol, and
/// drives the engine — in parallel across trials and scenarios.
///
/// # Determinism
///
/// Results are **bit-identical** to a sequential loop: every trial derives
/// all of its RNG streams from `(spec.seed, trial index)` via
/// [`SeedStream::trial`] and shares nothing, and the vendored rayon stand-in
/// preserves input order on collect. The run stream additionally mixes in the
/// protocol's seed tag, so different protocols compared on the same topology
/// see the same networks and fields but independent run randomness — exactly
/// the historical `run_protocol` contract.
pub struct Runner {
    factory: Box<dyn ProtocolFactory>,
    transport: Option<Box<dyn TransportRuntime>>,
}

impl Runner {
    /// Creates a runner over the given protocol factory. Specs carrying a
    /// `transport` key are rejected until a message-passing runtime is
    /// attached with [`Runner::with_transport`].
    pub fn new(factory: Box<dyn ProtocolFactory>) -> Self {
        Runner {
            factory,
            transport: None,
        }
    }

    /// Attaches a message-passing runtime (builder style), enabling specs
    /// with a `transport` key. The canonical wiring is
    /// `geogossip::builtin_runner()`, which pairs the built-in protocol
    /// registry with `geogossip_net::NetRuntime`.
    pub fn with_transport(mut self, runtime: Box<dyn TransportRuntime>) -> Self {
        self.transport = Some(runtime);
        self
    }

    /// The factory backing this runner (for listing protocols).
    pub fn factory(&self) -> &dyn ProtocolFactory {
        &*self.factory
    }

    /// Checks `spec` the way every run does before its first trial: the
    /// spec's own validation, a protocol name the factory knows, the
    /// protocol's params ([`ProtocolFactory::check`]), and, for a spec with a
    /// `transport` key, an attached message-passing runtime that can run its
    /// protocol ([`TransportRuntime::check`]). `geogossip validate` calls
    /// this, so a spec it accepts is not refused by these checks when it
    /// runs.
    ///
    /// # Errors
    ///
    /// The first failed check's [`ProtocolError`].
    pub fn check(&self, spec: &ScenarioSpec) -> Result<(), ProtocolError> {
        self.prepare(spec).map(drop)
    }

    /// [`Runner::check`], returning the protocol's seed tag.
    fn prepare(&self, spec: &ScenarioSpec) -> Result<u64, ProtocolError> {
        spec.validate()?;
        let tag = self.resolve_tag(spec)?;
        self.factory.check(&spec.protocol)?;
        if spec.transport.is_some() {
            self.transport_runtime()?.check(&spec.protocol)?;
        }
        Ok(tag)
    }

    /// Runs one scenario, parallelising its trials across cores.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioReport, ProtocolError> {
        let tag = self.prepare(spec)?;
        let outcomes: Vec<Result<(TrialCost, String), ProtocolError>> = (0..spec.trials)
            .into_par_iter()
            .map(|trial| self.run_trial(spec, tag, trial, None))
            .collect();
        let mut label = spec.protocol.name.clone();
        let mut trials = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            let (cost, trial_label) = outcome?;
            label = trial_label;
            trials.push(cost);
        }
        Ok(ScenarioReport::new(spec.clone(), label, trials))
    }

    /// Runs several scenarios as one parallel workload.
    ///
    /// The flattened grid is **trial-major** (`(s₀,t₀), (s₁,t₀), …, (s₀,t₁),
    /// …`) so that workers splitting it into contiguous chunks each receive a
    /// mix of scenarios — laying it out scenario-major would park every
    /// expensive largest-`n` trial in the same trailing chunk and serialise
    /// them on one core. Results are reassembled by index, so the reports are
    /// identical to calling [`Runner::run`] per spec.
    pub fn run_all(&self, specs: &[ScenarioSpec]) -> Result<Vec<ScenarioReport>, ProtocolError> {
        let mut tags = Vec::with_capacity(specs.len());
        for spec in specs {
            tags.push(self.prepare(spec)?);
        }
        let max_trials = specs.iter().map(|s| s.trials).max().unwrap_or(0);
        let grid: Vec<(usize, u64)> = (0..max_trials)
            .flat_map(|t| {
                specs
                    .iter()
                    .enumerate()
                    .filter(move |(_, s)| t < s.trials)
                    .map(move |(i, _)| (i, t))
            })
            .collect();
        let flat: Vec<Result<(TrialCost, String), ProtocolError>> = grid
            .clone()
            .into_par_iter()
            .map(|(i, trial)| self.run_trial(&specs[i], tags[i], trial, None))
            .collect();

        // Reassemble per scenario in trial order.
        let mut per_spec: Vec<Vec<(TrialCost, String)>> = specs
            .iter()
            .map(|s| Vec::with_capacity(s.trials as usize))
            .collect();
        for ((i, _trial), outcome) in grid.into_iter().zip(flat) {
            per_spec[i].push(outcome?);
        }
        Ok(specs
            .iter()
            .zip(per_spec)
            .map(|(spec, outcomes)| {
                let label = outcomes
                    .last()
                    .map(|(_, l)| l.clone())
                    .unwrap_or_else(|| spec.protocol.name.clone());
                let trials = outcomes.into_iter().map(|(c, _)| c).collect();
                ScenarioReport::new(spec.clone(), label, trials)
            })
            .collect())
    }

    /// Runs one scenario with a telemetry probe attached.
    ///
    /// Trials still execute in parallel; each one records into a private
    /// [`EventBuffer`] and the buffers are replayed into `probe` in trial
    /// order after the join, so the observed stream is byte-identical to a
    /// sequential run regardless of thread count. The report is identical to
    /// [`Runner::run`]'s — events observe the simulation, never steer it.
    pub fn run_probed(
        &self,
        spec: &ScenarioSpec,
        probe: &mut dyn Probe,
    ) -> Result<ScenarioReport, ProtocolError> {
        let tag = self.prepare(spec)?;
        let outcomes: Vec<Result<(TrialCost, String, EventBuffer), ProtocolError>> = (0..spec
            .trials)
            .into_par_iter()
            .map(|trial| {
                let mut buffer = EventBuffer::new();
                self.run_trial(spec, tag, trial, Some(&mut buffer))
                    .map(|(cost, label)| (cost, label, buffer))
            })
            .collect();
        let mut label = spec.protocol.name.clone();
        let mut trials = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            let (cost, trial_label, buffer) = outcome?;
            label = trial_label;
            trials.push(cost);
            buffer.replay(probe);
        }
        Ok(ScenarioReport::new(spec.clone(), label, trials))
    }

    fn resolve_tag(&self, spec: &ScenarioSpec) -> Result<u64, ProtocolError> {
        self.factory
            .seed_tag(&spec.protocol.name)
            .ok_or_else(|| ProtocolError::UnknownProtocol {
                name: spec.protocol.name.clone(),
            })
    }

    fn transport_runtime(&self) -> Result<&dyn TransportRuntime, ProtocolError> {
        self.transport.as_deref().ok_or_else(|| {
            ProtocolError::invalid(
                "transport",
                "this runner has no message-passing runtime attached \
                 (use `geogossip::builtin_runner()`)",
            )
        })
    }

    /// One trial: placement → field → protocol → engine, every stream derived
    /// from `(spec.seed, trial)`. Wall-clock timings (whole trial and the
    /// `graph`/`field`/`build`/`engine` phase laps) ride along in the
    /// [`TrialCost`]; they are observability only and excluded from report
    /// equality.
    ///
    /// `probe = None` is the hot path: the engine monomorphizes over the
    /// zero-sized `NoProbe` and the trial is bit-identical to a probe-free
    /// build. A probed trial emits `TrialStarted` first and `TrialFinished`
    /// last, bracketing the engine's own stream.
    fn run_trial(
        &self,
        spec: &ScenarioSpec,
        tag: u64,
        trial: u64,
        mut probe: Option<&mut dyn Probe>,
    ) -> Result<(TrialCost, String), ProtocolError> {
        let trial_start = std::time::Instant::now();
        let mut timer = PhaseTimer::start();
        if let Some(probe) = probe.as_deref_mut() {
            probe.on_event(Event::TrialStarted {
                scenario: spec.name.clone(),
                trial,
            });
        }
        let seeds = SeedStream::new(spec.seed);
        let graph = spec.topology.build(&seeds, trial);
        timer.lap("graph");
        let values = spec.field.values(&graph, &mut seeds.trial("values", trial));
        timer.lap("field");
        let mut rng = seeds.trial("run", trial ^ (tag << 32));
        if let Some(transport) = &spec.transport {
            // The message-passing transport replaces the factory/engine path
            // wholesale. Its protocol builders consume the run stream exactly
            // as the factory's would, all latency/wire-reliability randomness
            // comes from the dedicated net stream, and node-fault (stale set,
            // churn schedule) construction draws come from the dedicated
            // fault stream — so the default-transport path below stays
            // byte-identical whether or not a runtime is attached. The
            // incoherent overlap (activation loss + transport) is rejected by
            // `ScenarioSpec::validate` before any trial starts.
            let runtime = self.transport_runtime()?;
            let mut net_rng = seeds.trial(NET_STREAM_LABEL, trial);
            let fault_rng = seeds.trial(FAULT_STREAM_LABEL, trial);
            // The runtime builds its own protocol actors inside the run, so
            // the `build` lap is ≈0 here and the `engine` lap covers the
            // whole scheduler run — matching `engine_seconds`.
            timer.lap("build");
            let outcome = runtime.run_trial(
                &spec.protocol,
                transport,
                &spec.faults,
                &graph,
                values,
                spec.stop,
                &mut rng,
                &mut net_rng,
                fault_rng,
                probe.as_deref_mut(),
            )?;
            let engine_seconds = timer.lap("engine");
            let report = outcome.report;
            if let Some(probe) = probe.as_deref_mut() {
                probe.on_event(Event::TrialFinished {
                    scenario: spec.name.clone(),
                    trial,
                    reason: report.reason.token().to_string(),
                    ticks: report.ticks,
                    transmissions: report.transmissions.total(),
                });
            }
            let cost = TrialCost {
                converged: report.converged(),
                transmissions: report.transmissions,
                rounds: outcome.rounds.unwrap_or(report.ticks),
                ticks: report.ticks,
                final_error: report.final_error,
                metrics: outcome.metrics,
                trace: report.trace,
                seconds: trial_start.elapsed().as_secs_f64(),
                engine_seconds,
                phases: timer.into_laps(),
            };
            return Ok((cost, outcome.label));
        }
        let mut protocol =
            self.factory
                .build(&spec.protocol, &graph, values, spec.stop.epsilon, &mut rng)?;
        if !spec.faults.is_none() {
            // Fault injection wraps the protocol only when the spec asks for
            // it; the fault stream is dedicated, so the clock/run streams —
            // and therefore every no-fault trial — stay byte-identical.
            spec.faults
                .check_support(&spec.protocol.name, protocol.fault_support())?;
            protocol = Box::new(FaultyActivation::new(
                protocol,
                &spec.faults,
                graph.len(),
                seeds.trial(FAULT_STREAM_LABEL, trial),
            ));
        }
        timer.lap("build");
        // The parallel path engages only when the spec asks for it AND the
        // protocol exposes the batched interface; a fault-wrapped or
        // batch-unaware protocol falls through to the sequential loop, which
        // is bit-identical anyway (parallelism is an execution strategy,
        // never a semantics change). The probed and unprobed arms call
        // distinct monomorphizations of the same loop; their reports are
        // identical.
        let mut engine = AsyncEngine::new(graph.len());
        let report = match probe.as_deref_mut() {
            Some(probe) => match spec.parallelism {
                Some(par) => match protocol.as_batch() {
                    Some(batch) => {
                        engine.run_parallel_probed(batch, spec.stop, &mut rng, par, probe)
                    }
                    None => engine.run_probed(&mut *protocol, spec.stop, &mut rng, probe),
                },
                None => engine.run_probed(&mut *protocol, spec.stop, &mut rng, probe),
            },
            None => match spec.parallelism {
                Some(par) => match protocol.as_batch() {
                    Some(batch) => engine.run_parallel(batch, spec.stop, &mut rng, par),
                    None => engine.run(&mut *protocol, spec.stop, &mut rng),
                },
                None => engine.run(&mut *protocol, spec.stop, &mut rng),
            },
        };
        let engine_seconds = timer.lap("engine");
        if let Some(probe) = probe {
            probe.on_event(Event::TrialFinished {
                scenario: spec.name.clone(),
                trial,
                reason: report.reason.token().to_string(),
                ticks: report.ticks,
                transmissions: report.transmissions.total(),
            });
        }
        let label = protocol.name().to_string();
        let cost = TrialCost {
            converged: report.converged(),
            transmissions: report.transmissions,
            rounds: protocol.rounds().unwrap_or(report.ticks),
            ticks: report.ticks,
            final_error: report.final_error,
            metrics: protocol.metrics(),
            trace: report.trace,
            seconds: trial_start.elapsed().as_secs_f64(),
            engine_seconds,
            phases: timer.into_laps(),
        };
        Ok((cost, label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Tick;
    use crate::fault::{ChurnEvent, FaultContext, FaultSpec, FaultSupport};
    use crate::metrics::TransmissionCounter;
    use rand::Rng;

    /// A stand-in protocol for runner tests: converges once the accumulated
    /// random drift crosses a threshold, so the outcome depends on every RNG
    /// stream the runner derives.
    struct DriftProtocol {
        error: f64,
        fingerprint: f64,
    }

    impl Activation for DriftProtocol {
        fn on_tick(&mut self, _tick: Tick, tx: &mut TransmissionCounter, rng: &mut dyn RngCore) {
            tx.charge_local(1);
            self.error *= 0.9 + 0.05 * rng.gen::<f64>();
        }
        fn fault_support(&self) -> FaultSupport {
            FaultSupport::loss_and_stale()
        }
        fn on_tick_faulty(
            &mut self,
            _tick: Tick,
            tx: &mut TransmissionCounter,
            rng: &mut dyn RngCore,
            faults: &FaultContext<'_>,
        ) {
            tx.charge_local(1);
            let step = 0.9 + 0.05 * rng.gen::<f64>();
            if !faults.dropped {
                self.error *= step;
            }
        }
        fn relative_error(&self) -> f64 {
            self.error
        }
        fn name(&self) -> &str {
            "drift"
        }
        fn metrics(&self) -> Vec<(String, f64)> {
            vec![("fingerprint".into(), self.fingerprint)]
        }
    }

    struct DriftFactory;

    impl ProtocolFactory for DriftFactory {
        fn names(&self) -> Vec<String> {
            vec!["drift".into()]
        }
        fn seed_tag(&self, name: &str) -> Option<u64> {
            (name == "drift").then_some(11)
        }
        fn build<'a>(
            &self,
            spec: &ProtocolSpec,
            _graph: &'a GeometricGraph,
            values: Vec<f64>,
            _epsilon: f64,
            _rng: &mut dyn RngCore,
        ) -> Result<Box<dyn Activation + 'a>, ProtocolError> {
            spec.reject_unknown(&[])?;
            Ok(Box::new(DriftProtocol {
                error: 1.0,
                fingerprint: values.iter().sum(),
            }))
        }
    }

    fn spec(trials: u64, seed: u64) -> ScenarioSpec {
        ScenarioSpec::standard("drift", 32, 0.05)
            .with_trials(trials)
            .with_seed(seed)
    }

    #[test]
    fn runs_are_deterministic_and_trial_streams_differ() {
        let runner = Runner::new(Box::new(DriftFactory));
        let a = runner.run(&spec(3, 5)).unwrap();
        let b = runner.run(&spec(3, 5)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.trials.len(), 3);
        assert!(a.all_converged());
        // Different trials see different randomness.
        assert_ne!(a.trials[0].ticks, a.trials[1].ticks);
        // Different seeds change the outcome.
        let c = runner.run(&spec(3, 6)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn run_all_matches_individual_runs() {
        let runner = Runner::new(Box::new(DriftFactory));
        let specs = vec![spec(2, 5), spec(3, 7)];
        let batch = runner.run_all(&specs).unwrap();
        let individual: Vec<ScenarioReport> =
            specs.iter().map(|s| runner.run(s).unwrap()).collect();
        assert_eq!(batch, individual);
    }

    #[test]
    fn unknown_protocols_are_rejected_by_name() {
        let runner = Runner::new(Box::new(DriftFactory));
        let bad = ScenarioSpec::standard("no-such-protocol", 32, 0.1);
        assert!(matches!(
            runner.run(&bad),
            Err(ProtocolError::UnknownProtocol { name }) if name == "no-such-protocol"
        ));
    }

    #[test]
    fn invalid_specs_are_rejected_before_any_work() {
        let runner = Runner::new(Box::new(DriftFactory));
        let bad = ScenarioSpec::standard("drift", 32, -0.5);
        assert!(matches!(
            runner.run(&bad),
            Err(ProtocolError::InvalidParameter { name, .. }) if name == "epsilon"
        ));
    }

    #[test]
    fn drops_inflate_cost_and_are_counted() {
        let runner = Runner::new(Box::new(DriftFactory));
        let plain = runner.run(&spec(2, 5)).unwrap();
        let lossy = runner
            .run(&spec(2, 5).with_faults(FaultSpec {
                drop_rate: 0.5,
                ..FaultSpec::default()
            }))
            .unwrap();
        assert!(lossy.all_converged());
        for (p, l) in plain.trials.iter().zip(&lossy.trials) {
            // Every dropped activation is cost without progress.
            assert!(l.ticks > p.ticks, "drops must slow convergence");
            let dropped = l
                .metrics
                .iter()
                .find(|(k, _)| k == "dropped_activations")
                .expect("fault metrics ride along")
                .1;
            assert!(dropped > 0.0);
        }
        // The no-fault run carries no fault metrics at all.
        assert!(plain.trials[0]
            .metrics
            .iter()
            .all(|(k, _)| k != "dropped_activations"));
    }

    #[test]
    fn unsupported_fault_kinds_are_rejected_before_the_engine_runs() {
        let runner = Runner::new(Box::new(DriftFactory));
        let churny = spec(1, 5).with_faults(FaultSpec {
            churn: vec![ChurnEvent {
                fraction: 0.25,
                at_tick: 10,
                rejoin_tick: None,
            }],
            ..FaultSpec::default()
        });
        let err = runner.run(&churny).expect_err("drift cannot churn");
        assert!(err.to_string().contains("churn"), "got `{err}`");
    }

    #[test]
    fn transport_specs_need_an_attached_runtime() {
        let runner = Runner::new(Box::new(DriftFactory));
        let netted = spec(1, 5).with_transport(crate::transport::TransportSpec::default());
        let err = runner.run(&netted).expect_err("no runtime attached");
        assert!(matches!(
            &err,
            ProtocolError::InvalidParameter { name, .. } if name == "transport"
        ));
        assert!(err.to_string().contains("runtime"), "got `{err}`");
    }

    #[test]
    fn transport_plus_activation_loss_is_rejected_with_the_spec_path() {
        // Wire-level loss lives in `transport.reliability.drop`; activation
        // loss riding along would double-model the lossy medium, so the
        // overlap is rejected at validation with the `faults` path named.
        let runner = Runner::new(Box::new(DriftFactory));
        let both = spec(1, 5)
            .with_faults(FaultSpec {
                drop_rate: 0.5,
                ..FaultSpec::default()
            })
            .with_transport(crate::transport::TransportSpec::default());
        let err = runner.run(&both).expect_err("loss + transport");
        assert!(matches!(
            &err,
            ProtocolError::InvalidParameter { name, .. } if name == "faults.drop-rate"
        ));
        assert!(err.to_string().contains("reliability"), "got `{err}`");
    }

    #[test]
    fn transport_plus_stale_faults_passes_validation() {
        // Node-level faults (stale, churn) are coherent with a transport; on
        // this runtime-less runner the spec must sail past validation and
        // fail only on the missing runtime.
        let runner = Runner::new(Box::new(DriftFactory));
        let both = spec(1, 5)
            .with_faults(FaultSpec {
                stale_fraction: 0.1,
                ..FaultSpec::default()
            })
            .with_transport(crate::transport::TransportSpec::default());
        let err = runner.run(&both).expect_err("no runtime attached");
        assert!(matches!(
            &err,
            ProtocolError::InvalidParameter { name, .. } if name == "transport"
        ));
        assert!(err.to_string().contains("runtime"), "got `{err}`");
    }

    #[test]
    fn unknown_params_fail_loudly() {
        let runner = Runner::new(Box::new(DriftFactory));
        let mut s = spec(1, 5);
        s.protocol = ProtocolSpec::named("drift").with_number("typo", 1.0);
        assert!(matches!(
            runner.run(&s),
            Err(ProtocolError::InvalidParameter { name, .. }) if name == "typo"
        ));
    }
}
