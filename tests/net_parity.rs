//! Instant-schedule oracle pins for the message-passing runtime.
//!
//! The shared-memory protocols are the oracle: on the instant-lossless
//! schedule the net scheduler must reproduce the `AsyncEngine` **bit for
//! bit** — same stop reason, same tick count, same simulation time, same
//! transmission totals, every trace point, the same final error bits, and
//! the same `"run"`-stream RNG end state — across protocols, topologies, and
//! partner selectors. The dedicated `"net"` stream is part of the schema:
//! instant and fixed schedules draw nothing from it.
//!
//! At the runner level, a spec carrying `transport: {latency: "instant"}`
//! must produce the very trials the bare spec produces, with only the
//! message-ledger metrics appended — and a spec without a `transport` key
//! never constructs the net layer at all.

use geogossip::analysis::json::JsonValue;
use geogossip::builtin_runner;
use geogossip::core::prelude::*;
use geogossip::graph::GeometricGraph;
use geogossip::net::{GeographicNet, NetProtocol, NetScheduler, PairwiseNet};
use geogossip::routing::TargetSelector;
use geogossip::sim::scenario::{Runner, ScenarioSpec, TrialCost};
use geogossip::sim::transport::{LatencyModel, TransportSpec};
use geogossip::sim::{AsyncEngine, ChurnEvent, EngineReport, FaultSpec, StopCondition};
use geogossip::telemetry::{Event, Probe};
use geogossip_geometry::sampling::sample_unit_square;
use geogossip_geometry::Topology;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn graph(n: usize, topology: Topology, seed: u64) -> GeometricGraph {
    let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
    let radius = geogossip_geometry::connectivity_radius(n, 2.0).min(0.49);
    GeometricGraph::build_with_topology(pts, radius, topology)
}

/// Metric keys only the net runtime appends.
const LEDGER_KEYS: [&str; 3] = [
    "messages_sent",
    "messages_delivered",
    "messages_in_flight_peak",
];

/// Runs the oracle on the engine and the actors on the net scheduler from
/// identically seeded run RNGs, and asserts bit-identity of the reports and
/// RNG end states. `latency` must be a schedule that draws nothing from the
/// net stream (instant; the identity claim is only made for instant).
fn assert_net_matches_oracle<P, N>(run_seed: u64, oracle: P, net: N)
where
    P: FnOnce(&mut ChaCha8Rng) -> EngineReport,
    N: FnOnce(&mut ChaCha8Rng, &mut ChaCha8Rng) -> EngineReport,
{
    let mut oracle_rng = ChaCha8Rng::seed_from_u64(run_seed);
    let mut net_rng_run = oracle_rng.clone();
    let mut net_stream = ChaCha8Rng::seed_from_u64(run_seed ^ 0x7e7);
    let net_stream_untouched = net_stream.clone();

    let oracle_report = oracle(&mut oracle_rng);
    let net_report = net(&mut net_rng_run, &mut net_stream);

    assert_eq!(
        net_report, oracle_report,
        "EngineReports diverged on the instant schedule"
    );
    assert_eq!(
        net_report.time.to_bits(),
        oracle_report.time.to_bits(),
        "simulation time not bit-identical"
    );
    assert_eq!(
        net_report.final_error.to_bits(),
        oracle_report.final_error.to_bits(),
        "final error not bit-identical"
    );
    assert_eq!(net_report.trace.points(), oracle_report.trace.points());
    let mut net_stream_untouched = net_stream_untouched;
    for _ in 0..4 {
        assert_eq!(
            net_rng_run.next_u64(),
            oracle_rng.next_u64(),
            "run-stream RNG consumption diverged"
        );
        assert_eq!(
            net_stream.next_u64(),
            net_stream_untouched.next_u64(),
            "the instant schedule drew from the net stream"
        );
    }
}

#[test]
fn instant_pairwise_is_bit_identical_to_the_engine_oracle() {
    for (seed, topology) in [(7u64, Topology::UnitSquare), (8, Topology::Torus)] {
        let n = 96;
        let g = graph(n, topology, seed);
        let values =
            InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(seed ^ 0x5fa));
        let stop = StopCondition::at_epsilon(0.05).with_max_ticks(400_000);

        assert_net_matches_oracle(
            seed ^ 0x41,
            |rng| {
                let mut protocol = PairwiseGossip::new(&g, values.clone()).expect("valid oracle");
                AsyncEngine::new(n).run(&mut protocol, stop, rng)
            },
            |rng, net_rng| {
                let mut actors = PairwiseNet::new(&g, values.clone()).expect("valid actors");
                let (report, ledger) = NetScheduler::new(n).run(
                    &mut actors,
                    stop,
                    LatencyModel::Instant,
                    rng,
                    net_rng,
                );
                assert_eq!(ledger.in_flight(), 0, "instant messages left in flight");
                report
            },
        );
    }
}

#[test]
fn instant_geographic_is_bit_identical_for_both_selectors() {
    for (seed, topology) in [(17u64, Topology::UnitSquare), (18, Topology::Torus)] {
        for selector in [
            TargetSelector::NearestToUniformPosition,
            TargetSelector::UniformByIndex,
        ] {
            let n = 96;
            let g = graph(n, topology, seed);
            let values =
                InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(seed ^ 0xce0));
            let stop = StopCondition::at_epsilon(0.05).with_max_ticks(400_000);

            assert_net_matches_oracle(
                seed ^ 0x52,
                |rng| {
                    let mut protocol =
                        GeographicGossip::with_selector(&g, values.clone(), selector.clone())
                            .expect("valid oracle");
                    AsyncEngine::new(n).run(&mut protocol, stop, rng)
                },
                |rng, net_rng| {
                    let mut actors =
                        GeographicNet::with_selector(&g, values.clone(), selector.clone())
                            .expect("valid actors");
                    let (report, _) = NetScheduler::new(n).run(
                        &mut actors,
                        stop,
                        LatencyModel::Instant,
                        rng,
                        net_rng,
                    );
                    report
                },
            );
        }
    }
}

/// The protocol counters must agree with the oracle as well (exchanges,
/// failed routes, isolated activations — same keys, same values).
#[test]
fn instant_metrics_match_the_oracle_counters() {
    let n = 96;
    let g = graph(n, Topology::UnitSquare, 23);
    let values = InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(0xa1));
    let stop = StopCondition::at_epsilon(0.05).with_max_ticks(400_000);

    let mut oracle_rng = ChaCha8Rng::seed_from_u64(0xb2);
    let mut net_run = oracle_rng.clone();
    let mut oracle = GeographicGossip::new(&g, values.clone()).expect("valid oracle");
    let _ = AsyncEngine::new(n).run(&mut oracle, stop, &mut oracle_rng);
    use geogossip::sim::Activation;
    let oracle_metrics = oracle.metrics();

    let mut actors =
        GeographicNet::with_selector(&g, values, TargetSelector::NearestToUniformPosition)
            .expect("valid actors");
    let mut net_rng = ChaCha8Rng::seed_from_u64(0xc3);
    let _ = NetScheduler::new(n).run(
        &mut actors,
        stop,
        LatencyModel::Instant,
        &mut net_run,
        &mut net_rng,
    );
    assert_eq!(actors.metrics(), oracle_metrics);
}

/// Strips the ledger-only metrics, leaving what the oracle would report.
fn without_ledger_metrics(trial: &TrialCost) -> TrialCost {
    let mut stripped = trial.clone();
    stripped
        .metrics
        .retain(|(k, _)| !LEDGER_KEYS.contains(&k.as_str()));
    stripped
}

#[test]
fn instant_transport_specs_match_bare_specs_at_the_runner_level() {
    let runner = builtin_runner();
    for name in ["pairwise", "geographic"] {
        for surface in [Topology::UnitSquare, Topology::Torus] {
            let mut bare = ScenarioSpec::standard(name, 96, 0.1)
                .with_trials(2)
                .with_seed(71);
            bare.topology.surface = surface;
            bare.stop = bare.stop.with_max_ticks(2_000_000);
            let transported = bare.clone().with_transport(TransportSpec::default());

            let bare_report = runner.run(&bare).expect("bare spec runs");
            let net_report = runner.run(&transported).expect("transport spec runs");

            assert_eq!(net_report.protocol_label, bare_report.protocol_label);
            assert_eq!(net_report.trials.len(), bare_report.trials.len());
            for (net_trial, bare_trial) in net_report.trials.iter().zip(&bare_report.trials) {
                // The net trial is the bare trial plus the message ledger.
                assert_eq!(
                    &without_ledger_metrics(net_trial),
                    bare_trial,
                    "{name}/{surface:?}: instant transport changed the trial"
                );
                for key in LEDGER_KEYS {
                    assert!(
                        net_trial.metric(key).is_some(),
                        "{name}/{surface:?}: missing ledger metric {key}"
                    );
                    assert!(
                        bare_trial.metric(key).is_none(),
                        "{name}/{surface:?}: bare run grew a ledger metric {key}"
                    );
                }
                // Instant-lossless: everything sent was delivered.
                assert_eq!(
                    net_trial.metric("messages_sent"),
                    net_trial.metric("messages_delivered")
                );
            }
        }
    }
}

/// The `activation-dead` and `activation-stale` lines of a probed run, in
/// stream order.
#[derive(Default)]
struct NodeFaultLines(Vec<String>);

impl Probe for NodeFaultLines {
    fn on_event(&mut self, event: Event) {
        if matches!(
            event,
            Event::ActivationDead { .. } | Event::ActivationStale { .. }
        ) {
            self.0.push(event.to_jsonl());
        }
    }
}

/// Runs `spec` probed, returning its trials and its node-fault event lines.
fn run_with_fault_events(runner: &Runner, spec: &ScenarioSpec) -> (Vec<TrialCost>, Vec<String>) {
    let mut lines = NodeFaultLines::default();
    let report = runner
        .run_probed(spec, &mut lines)
        .expect("faulted spec runs");
    (report.trials, lines.0)
}

/// Churn and stale sensors on the instant schedule: the net runtime must make
/// the faulted engine's fault decisions at the same ticks, so each trial is
/// the bare faulted trial plus the message ledger.
#[test]
fn instant_transport_with_churn_and_stale_sensors_matches_the_faulted_engine() {
    let runner = builtin_runner();
    let faults = FaultSpec {
        drop_rate: 0.0,
        stale_fraction: 0.1,
        churn: vec![
            ChurnEvent {
                fraction: 0.3,
                at_tick: 100,
                rejoin_tick: Some(2_000),
            },
            ChurnEvent {
                fraction: 0.1,
                at_tick: 500,
                rejoin_tick: None,
            },
        ],
    };
    for (name, selector) in [
        ("pairwise", None),
        ("geographic", Some("nearest-position")),
        ("geographic", Some("uniform-index")),
    ] {
        for surface in [Topology::UnitSquare, Topology::Torus] {
            let mut bare = ScenarioSpec::standard(name, 96, 0.1)
                .with_trials(2)
                .with_seed(83)
                .with_faults(faults.clone());
            if let Some(selector) = selector {
                bare.protocol = bare.protocol.with_text("selector", selector);
            }
            bare.topology.surface = surface;
            bare.stop = bare.stop.with_max_ticks(20_000);
            let transported = bare.clone().with_transport(TransportSpec::default());

            let (bare_trials, bare_events) = run_with_fault_events(&runner, &bare);
            let (net_trials, net_events) = run_with_fault_events(&runner, &transported);
            let case = format!("{name}/{selector:?}/{surface:?}");
            assert_eq!(net_trials.len(), bare_trials.len());
            for (net_trial, bare_trial) in net_trials.iter().zip(&bare_trials) {
                assert!(
                    bare_trial.metric("dead_activations").unwrap_or(0.0) > 0.0,
                    "{case}: no sensor's tick fell while it was dead"
                );
                assert_eq!(
                    &without_ledger_metrics(net_trial),
                    bare_trial,
                    "{case}: instant transport changed the faulted trial"
                );
            }
            assert!(
                bare_events.iter().any(|l| l.contains("activation-stale")),
                "{case}: no stale activation was emitted"
            );
            assert_eq!(
                net_events, bare_events,
                "{case}: dead/stale activation events differ"
            );
        }
    }
}

/// Renders `spec` to JSON, splices in an explicit `transport` object, and
/// parses it back — the JSON path must land on the builder-made spec.
fn respec_with_transport_json(spec: &ScenarioSpec, transport: JsonValue) -> ScenarioSpec {
    let mut doc = JsonValue::parse(&spec.to_json()).expect("spec renders valid JSON");
    match &mut doc {
        JsonValue::Object(entries) => entries.push(("transport".into(), transport)),
        _ => panic!("spec JSON is an object"),
    }
    ScenarioSpec::from_json(&doc.render()).expect("spec with explicit transport parses")
}

#[test]
fn json_spelled_transport_matches_the_builder_spelling() {
    let base = ScenarioSpec::standard("pairwise", 64, 0.1)
        .with_trials(1)
        .with_seed(73);
    for (json, latency) in [
        (JsonValue::string("instant"), LatencyModel::Instant),
        (
            JsonValue::object(vec![("fixed", 0.002.into())]),
            LatencyModel::Fixed(0.002),
        ),
        (
            JsonValue::object(vec![(
                "exp",
                JsonValue::object(vec![("mean", 0.002.into())]),
            )]),
            LatencyModel::Exponential { mean: 0.002 },
        ),
    ] {
        let spliced = respec_with_transport_json(&base, JsonValue::object(vec![("latency", json)]));
        let built = base
            .clone()
            .with_transport(TransportSpec::with_latency(latency));
        assert_eq!(spliced, built);
    }
}

#[test]
fn non_instant_schedules_are_reproducible_and_account_for_in_flight_mass() {
    let runner = builtin_runner();
    let mut base = ScenarioSpec::standard("pairwise", 96, 0.1)
        .with_trials(2)
        .with_seed(79);
    base.stop = base.stop.with_max_ticks(4_000_000);
    let delayed =
        base.clone()
            .with_transport(TransportSpec::with_latency(LatencyModel::Exponential {
                mean: 0.002,
            }));

    let first = runner.run(&delayed).expect("delayed spec runs");
    let second = runner.run(&delayed).expect("delayed spec runs again");
    assert_eq!(first, second, "latency runs must be reproducible");

    for trial in &first.trials {
        assert!(trial.converged, "modest latency must not stall gossip");
        let sent = trial.metric("messages_sent").expect("ledger present");
        let delivered = trial.metric("messages_delivered").expect("ledger present");
        assert!(sent >= delivered, "delivered more than was sent");
        assert!(trial.metric("messages_in_flight_peak").unwrap_or(0.0) >= 1.0);
    }
}
