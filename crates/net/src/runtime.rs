//! The [`TransportRuntime`] implementation plugged into the scenario runner.
//!
//! [`NetRuntime`] maps a protocol spec onto the message-passing actors,
//! decoding its params with the shared-memory registry's own decoders (same
//! known keys, same wording), builds the shared-memory engine's
//! node-fault state ([`NodeFaults`]) from the dedicated `"faults"` trial
//! stream when the spec asks for churn or stale nodes, runs the
//! [`NetScheduler`] once over the boxed actors, and returns the oracle-keyed
//! metrics with the fault counters ([`NodeFaults::metrics`], when faulted)
//! and the message ledger appended — the unreliable-wire counters only when
//! the reliability block is lossy, so lossless runs keep the exact metric
//! schema of a bare transport run.

use crate::protocols::{GeographicNet, PairwiseNet};
use crate::scheduler::{NetProtocol, NetScheduler};
use geogossip_core::registry::{geographic_params, GeographicParams};
use geogossip_graph::GeometricGraph;
use geogossip_routing::TargetSelector;
use geogossip_sim::engine::StopCondition;
use geogossip_sim::fault::{FaultSpec, NodeFaults};
use geogossip_sim::scenario::ProtocolSpec;
use geogossip_sim::transport::{TransportRuntime, TransportSpec, TransportTrial};
use geogossip_sim::ProtocolError;
use geogossip_telemetry::Probe;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

/// The message-passing runtime for the scenario runner's `transport` key.
///
/// Protocols with message-passing implementations: `pairwise` and
/// `geographic` (selectors `nearest-position` and `uniform-index`). The
/// hierarchical affine protocols are round-based — they do not run on the
/// asynchronous activation clock this runtime simulates — and
/// `rejection-sampled` partner selection is a shared-memory precomputation;
/// both are rejected with errors naming the offending spec path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetRuntime;

impl NetRuntime {
    /// Creates the runtime (stateless; one instance serves every trial).
    pub fn new() -> Self {
        NetRuntime
    }
}

/// What the runtime runs for a protocol spec: its actor set and the
/// parameters the actors take.
enum NetPlan {
    Pairwise,
    Geographic(TargetSelector),
}

impl NetPlan {
    /// The runtime's dispatch, and so its one list of the protocols it can
    /// run: [`TransportRuntime::check`] and [`TransportRuntime::run_trial`]
    /// both go through it. It decodes params with the shared-memory
    /// registry's own decoders, so the two read the same keys, and it names
    /// the offending spec path on refusal.
    fn for_spec(protocol: &ProtocolSpec) -> Result<Self, ProtocolError> {
        match protocol.name.as_str() {
            "pairwise" => {
                protocol.reject_unknown(&[])?;
                Ok(NetPlan::Pairwise)
            }
            "geographic" => match geographic_params(protocol)? {
                GeographicParams::NearestPosition => Ok(NetPlan::Geographic(
                    TargetSelector::NearestToUniformPosition,
                )),
                GeographicParams::UniformIndex => {
                    Ok(NetPlan::Geographic(TargetSelector::UniformByIndex))
                }
                GeographicParams::RejectionSampled { .. } => Err(ProtocolError::invalid(
                    "protocol.selector",
                    "`rejection-sampled` has no message-passing implementation \
                     (its acceptance table is a shared-memory precomputation); \
                     use nearest-position or uniform-index, or drop the \
                     `transport` key",
                )),
            },
            other => Err(ProtocolError::invalid(
                "transport",
                format!(
                    "protocol `{other}` has no message-passing implementation \
                     (available: pairwise, geographic)"
                ),
            )),
        }
    }
}

impl TransportRuntime for NetRuntime {
    fn check(&self, protocol: &ProtocolSpec) -> Result<(), ProtocolError> {
        NetPlan::for_spec(protocol).map(drop)
    }

    fn run_trial(
        &self,
        protocol: &ProtocolSpec,
        transport: &TransportSpec,
        faults: &FaultSpec,
        graph: &GeometricGraph,
        values: Vec<f64>,
        stop: StopCondition,
        rng: &mut dyn RngCore,
        net_rng: &mut dyn RngCore,
        mut fault_rng: ChaCha8Rng,
        probe: Option<&mut (dyn Probe + '_)>,
    ) -> Result<TransportTrial, ProtocolError> {
        transport.validate()?;
        if faults.drop_rate > 0.0 {
            // Defense in depth: `ScenarioSpec::validate` rejects this
            // combination before any trial runs; a direct caller gets the
            // same spec-path-named refusal.
            return Err(ProtocolError::invalid(
                "faults.drop-rate",
                "activation loss has no message-passing form; use \
                 `transport.reliability.drop` for wire-level loss",
            ));
        }
        let plan = NetPlan::for_spec(protocol)?;
        // Activation loss is refused above, so the fault stream is consumed
        // only here, exactly as the engine consumes it at a zero drop rate.
        let mut nodes =
            (!faults.is_none()).then(|| NodeFaults::new(faults, graph.len(), &mut fault_rng));
        let mut net: Box<dyn NetProtocol + '_> = match plan {
            NetPlan::Pairwise => Box::new(PairwiseNet::new(graph, values)?),
            NetPlan::Geographic(selector) => {
                Box::new(GeographicNet::with_selector(graph, values, selector)?)
            }
        };
        let (report, ledger) = NetScheduler::new(graph.len()).run_wire_probed(
            &mut *net,
            stop,
            transport.latency,
            transport.reliability,
            nodes.as_mut(),
            rng,
            net_rng,
            probe,
        );
        let mut metrics = net.metrics();
        if let Some(nodes) = &nodes {
            // Activation loss is refused above, so no activation is dropped.
            metrics.extend(nodes.metrics(0));
        }
        metrics.extend(ledger.metrics());
        if !transport.reliability.is_lossless() {
            metrics.extend(ledger.reliability_metrics());
        }
        Ok(TransportTrial {
            label: net.name().to_string(),
            report,
            rounds: None,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_sim::fault::ChurnEvent;
    use geogossip_sim::transport::{LatencyModel, ReliabilitySpec, RetryPolicy};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: usize, seed: u64) -> GeometricGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let positions = geogossip_geometry::sampling::sample_unit_square(n, &mut rng);
        GeometricGraph::build_at_connectivity_radius(positions, 2.0)
    }

    fn spike(n: usize) -> Vec<f64> {
        let mut values = vec![0.0; n];
        values[0] = n as f64;
        values
    }

    fn run_faulted(
        protocol: &ProtocolSpec,
        transport: &TransportSpec,
        faults: &FaultSpec,
        graph: &GeometricGraph,
    ) -> Result<TransportTrial, ProtocolError> {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut net_rng = ChaCha8Rng::seed_from_u64(12);
        NetRuntime::new().run_trial(
            protocol,
            transport,
            faults,
            graph,
            spike(graph.len()),
            StopCondition::at_epsilon(0.25).with_max_ticks(200_000),
            &mut rng,
            &mut net_rng,
            ChaCha8Rng::seed_from_u64(13),
            None,
        )
    }

    fn run(
        protocol: &ProtocolSpec,
        transport: &TransportSpec,
        graph: &GeometricGraph,
    ) -> Result<TransportTrial, ProtocolError> {
        run_faulted(protocol, transport, &FaultSpec::default(), graph)
    }

    fn keys(trial: &TransportTrial) -> Vec<&str> {
        trial.metrics.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn pairwise_and_geographic_run_and_report_ledger_metrics() {
        let graph = graph(48, 1);
        for (spec, label) in [
            (ProtocolSpec::named("pairwise"), "pairwise (Boyd)"),
            (ProtocolSpec::named("geographic"), "geographic (Dimakis)"),
        ] {
            let trial = run(&spec, &TransportSpec::default(), &graph).unwrap();
            assert_eq!(trial.label, label);
            assert!(trial.report.converged());
            assert!(trial.rounds.is_none());
            let keys = keys(&trial);
            assert!(keys.contains(&"exchanges"));
            assert!(keys.contains(&"messages_sent"));
            assert!(keys.contains(&"messages_delivered"));
            assert!(keys.contains(&"messages_in_flight_peak"));
            // Lossless, fault-free runs keep the historical metric schema.
            assert!(!keys.contains(&"messages_dropped"));
            assert!(!keys.contains(&"dead_activations"));
        }
    }

    #[test]
    fn lossy_reliability_appends_the_wire_counters() {
        let graph = graph(48, 5);
        let transport = TransportSpec {
            reliability: ReliabilitySpec {
                drop: 0.2,
                duplicate: 0.05,
                retry: RetryPolicy::default(),
            },
            ..TransportSpec::default()
        };
        let trial = run(&ProtocolSpec::named("pairwise"), &transport, &graph).unwrap();
        assert!(trial.report.converged());
        let keys = keys(&trial);
        for key in [
            "messages_dropped",
            "messages_duplicated",
            "messages_retried",
            "rounds_abandoned",
        ] {
            assert!(keys.contains(&key), "missing {key}: {keys:?}");
        }
        let dropped = trial
            .metrics
            .iter()
            .find(|(k, _)| k == "messages_dropped")
            .unwrap()
            .1;
        assert!(dropped > 0.0);
    }

    #[test]
    fn faulted_runs_append_the_oracle_fault_counters() {
        let graph = graph(48, 6);
        let faults = FaultSpec {
            drop_rate: 0.0,
            stale_fraction: 0.1,
            churn: vec![ChurnEvent {
                fraction: 0.2,
                at_tick: 50,
                rejoin_tick: Some(500),
            }],
        };
        let trial = run_faulted(
            &ProtocolSpec::named("geographic"),
            &TransportSpec::default(),
            &faults,
            &graph,
        )
        .unwrap();
        let keys = keys(&trial);
        for key in ["dropped_activations", "dead_activations", "stale_nodes"] {
            assert!(keys.contains(&key), "missing {key}: {keys:?}");
        }
        let stale = trial
            .metrics
            .iter()
            .find(|(k, _)| k == "stale_nodes")
            .unwrap()
            .1;
        assert_eq!(stale, (0.1f64 * 48.0).floor());
    }

    #[test]
    fn activation_loss_is_refused_by_the_runtime_itself() {
        let graph = graph(16, 7);
        let faults = FaultSpec {
            drop_rate: 0.5,
            stale_fraction: 0.0,
            churn: Vec::new(),
        };
        let err = run_faulted(
            &ProtocolSpec::named("pairwise"),
            &TransportSpec::default(),
            &faults,
            &graph,
        )
        .unwrap_err();
        assert!(err.to_string().contains("faults.drop-rate"), "{err}");
        assert!(
            err.to_string().contains("transport.reliability.drop"),
            "{err}"
        );
    }

    #[test]
    fn unknown_protocols_and_selectors_name_the_spec_path() {
        let graph = graph(16, 2);
        let err = run(
            &ProtocolSpec::named("affine-complete"),
            &TransportSpec::default(),
            &graph,
        )
        .unwrap_err();
        assert!(err.to_string().contains("transport"), "{err}");
        assert!(err.to_string().contains("affine-complete"), "{err}");

        let err = run(
            &ProtocolSpec::named("geographic").with_text("selector", "rejection-sampled"),
            &TransportSpec::default(),
            &graph,
        )
        .unwrap_err();
        assert!(err.to_string().contains("protocol.selector"), "{err}");

        let err = run(
            &ProtocolSpec::named("geographic").with_text("selector", "bogus"),
            &TransportSpec::default(),
            &graph,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown selector `bogus`"),
            "{err}"
        );

        let err = run(
            &ProtocolSpec::named("pairwise").with_number("cap", 3.0),
            &TransportSpec::default(),
            &graph,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown parameter"), "{err}");
    }

    #[test]
    fn bad_transport_specs_are_rejected_before_running() {
        let graph = graph(16, 3);
        let bad = TransportSpec::with_latency(LatencyModel::Fixed(-1.0));
        let err = run(&ProtocolSpec::named("pairwise"), &bad, &graph).unwrap_err();
        assert!(err.to_string().contains("transport.latency.fixed"), "{err}");

        let mut bad = TransportSpec::default();
        bad.reliability.drop = 1.5;
        let err = run(&ProtocolSpec::named("pairwise"), &bad, &graph).unwrap_err();
        assert!(
            err.to_string().contains("transport.reliability.drop"),
            "{err}"
        );
    }

    #[test]
    fn exponential_latency_still_converges_and_uses_the_net_stream() {
        let graph = graph(48, 4);
        let transport = TransportSpec::with_latency(LatencyModel::Exponential { mean: 0.001 });
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut net_rng = ChaCha8Rng::seed_from_u64(22);
        let pristine = net_rng.clone();
        let trial = NetRuntime::new()
            .run_trial(
                &ProtocolSpec::named("pairwise"),
                &transport,
                &FaultSpec::default(),
                &graph,
                spike(graph.len()),
                StopCondition::at_epsilon(0.25).with_max_ticks(200_000),
                &mut rng,
                &mut net_rng,
                ChaCha8Rng::seed_from_u64(23),
                None,
            )
            .unwrap();
        assert!(trial.report.converged());
        // The latency model drew from the dedicated net stream.
        let mut pristine = pristine;
        assert_ne!(net_rng.next_u64(), pristine.next_u64());
    }
}
