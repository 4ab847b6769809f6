//! Telemetry isolation pins for the observability subsystem.
//!
//! The telemetry layer is strictly additive, split along the repo's
//! reproducibility equality line:
//!
//! * **No probe, no telemetry.** An unprobed run goes through the `NoProbe`
//!   monomorphization (engine) or an untaken `Option::None` branch (net
//!   scheduler, runner) and must be **bit-identical** to the pre-telemetry
//!   code: same `EngineReport` (reason, ticks, simulation-time bits,
//!   transmissions, every trace point), same scenario reports, and the same
//!   RNG end states — the telemetry twin of `tests/fault_parity.rs`.
//! * **A probe observes, it never steers.** Attaching a probe must not change
//!   any of the above either: event content derives only from simulation
//!   state, never from the wall clock, and no probe branch consumes RNG.
//! * **The event stream is deterministic.** Rendered through `JsonlSink`, a
//!   probed run's stream is byte-identical across reruns and across engine
//!   thread counts (parallel trials buffer per-trial and replay in trial
//!   order; the parallel engine emits at the same logical positions as the
//!   sequential loop).

use geogossip::builtin_runner;
use geogossip::core::prelude::*;
use geogossip::graph::GeometricGraph;
use geogossip::net::{GeographicNet, NetProtocol, NetScheduler, PairwiseNet};
use geogossip::sim::scenario::ScenarioSpec;
use geogossip::sim::transport::{LatencyModel, ReliabilitySpec};
use geogossip::sim::{AsyncEngine, EngineReport, ParallelSpec, StopCondition, TransportSpec};
use geogossip::telemetry::{Event, EventBuffer, JsonlSink};
use geogossip_geometry::sampling::sample_unit_square;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn graph(n: usize, seed: u64) -> GeometricGraph {
    let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
    let radius = geogossip_geometry::connectivity_radius(n, 2.0).min(0.49);
    GeometricGraph::build_with_topology(pts, radius, geogossip_geometry::Topology::UnitSquare)
}

/// Runs `build_protocol`'s instance unprobed and probed (an `EventBuffer`
/// attached), from identically seeded RNGs, and asserts the engine reports
/// and RNG end states match bit-for-bit. Returns the recorded events.
fn assert_probe_is_pure_observer<P, F>(
    n: usize,
    stop: StopCondition,
    run_seed: u64,
    mut build_protocol: F,
) -> Vec<Event>
where
    P: geogossip::sim::Activation,
    F: FnMut() -> P,
{
    let mut rng_bare = ChaCha8Rng::seed_from_u64(run_seed);
    let mut rng_probed = rng_bare.clone();

    let mut bare_protocol = build_protocol();
    let bare: EngineReport = AsyncEngine::new(n).run(&mut bare_protocol, stop, &mut rng_bare);

    let mut buffer = EventBuffer::new();
    let mut probed_protocol = build_protocol();
    let probed: EngineReport =
        AsyncEngine::new(n).run_probed(&mut probed_protocol, stop, &mut rng_probed, &mut buffer);

    assert_eq!(bare, probed, "EngineReports diverged under a probe");
    assert_eq!(
        bare.time.to_bits(),
        probed.time.to_bits(),
        "simulation time not bit-identical"
    );
    for _ in 0..4 {
        assert_eq!(
            rng_bare.next_u64(),
            rng_probed.next_u64(),
            "protocol RNG consumption diverged under a probe"
        );
    }
    assert!(!buffer.is_empty(), "probed engine run must emit events");
    buffer.into_events()
}

#[test]
fn engine_probe_is_a_pure_observer_and_emits_one_event_per_tick() {
    let n = 96;
    let g = graph(n, 7);
    let values = InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(0x5fa));
    let stop = StopCondition::at_epsilon(0.05).with_max_ticks(400_000);

    for (seed, build) in [
        (0x11u64, 0usize), // pairwise
        (0x22, 1),         // geographic
        (0x33, 2),         // affine
    ] {
        let events = match build {
            0 => assert_probe_is_pure_observer(n, stop, seed, || {
                PairwiseGossip::new(&g, values.clone()).expect("valid instance")
            }),
            1 => assert_probe_is_pure_observer(n, stop, seed, || {
                GeographicGossip::new(&g, values.clone()).expect("valid instance")
            }),
            _ => assert_probe_is_pure_observer(n, stop, seed, || {
                AffineStateMachine::practical(&g, values.clone()).expect("valid instance")
            }),
        };
        // One TickCommitted per tick, in tick order, plus exactly one
        // convergence crossing for a converging run.
        let ticks: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::TickCommitted { tick, .. } => Some(*tick),
                _ => None,
            })
            .collect();
        assert!(ticks.windows(2).all(|w| w[1] == w[0] + 1));
        let crossings = events
            .iter()
            .filter(|e| matches!(e, Event::ConvergenceCrossed { .. }))
            .count();
        assert_eq!(crossings, 1, "converging run emits one crossing");
    }
}

#[test]
fn parallel_engine_probe_matches_sequential_stream_and_report() {
    let n = 96;
    let g = graph(n, 9);
    let values = InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(0x9fa));
    let stop = StopCondition::at_epsilon(0.05).with_max_ticks(400_000);

    let run_sequential = || {
        let mut rng = ChaCha8Rng::seed_from_u64(0x44);
        let mut protocol = GeographicGossip::new(&g, values.clone()).expect("valid instance");
        let mut buffer = EventBuffer::new();
        let report = AsyncEngine::new(n).run_probed(&mut protocol, stop, &mut rng, &mut buffer);
        (report, buffer)
    };
    let run_parallel = |threads: usize| {
        let mut rng = ChaCha8Rng::seed_from_u64(0x44);
        let mut protocol = GeographicGossip::new(&g, values.clone()).expect("valid instance");
        let mut buffer = EventBuffer::new();
        let report = AsyncEngine::new(n).run_parallel_probed(
            &mut protocol,
            stop,
            &mut rng,
            ParallelSpec::with_threads(threads),
            &mut buffer,
        );
        (report, buffer)
    };

    let (seq_report, seq_events) = run_sequential();
    for threads in [1usize, 4] {
        let (par_report, par_events) = run_parallel(threads);
        assert_eq!(seq_report, par_report, "threads={threads}");
        assert_eq!(
            seq_events, par_events,
            "event stream diverged at threads={threads}"
        );
    }
}

#[test]
fn net_scheduler_probe_is_a_pure_observer() {
    let n = 128;
    let g = graph(n, 12);
    let values = InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(0xcfa));
    let stop = StopCondition::at_epsilon(0.1).with_max_ticks(100_000);

    let run = |probe: Option<&mut EventBuffer>| {
        let mut actors = GeographicNet::new(&g, values.clone()).expect("valid actors");
        let mut rng = ChaCha8Rng::seed_from_u64(0x55);
        let mut net_rng = ChaCha8Rng::seed_from_u64(0x56);
        let (report, ledger) = match probe {
            Some(buffer) => NetScheduler::new(n).run_wire_probed(
                &mut actors,
                stop,
                LatencyModel::Instant,
                ReliabilitySpec {
                    drop: 0.2,
                    duplicate: 0.05,
                    ..ReliabilitySpec::default()
                },
                None,
                &mut rng,
                &mut net_rng,
                Some(buffer),
            ),
            None => NetScheduler::new(n).run_wire(
                &mut actors,
                stop,
                LatencyModel::Instant,
                ReliabilitySpec {
                    drop: 0.2,
                    duplicate: 0.05,
                    ..ReliabilitySpec::default()
                },
                None,
                &mut rng,
                &mut net_rng,
            ),
        };
        (report, ledger, rng.next_u64(), net_rng.next_u64())
    };

    let (bare_report, bare_ledger, bare_rng, bare_net_rng) = run(None);
    let mut buffer = EventBuffer::new();
    let (probed_report, probed_ledger, probed_rng, probed_net_rng) = run(Some(&mut buffer));

    assert_eq!(bare_report, probed_report, "net reports diverged");
    assert_eq!(
        bare_report.time.to_bits(),
        probed_report.time.to_bits(),
        "net simulation time not bit-identical"
    );
    assert_eq!(bare_ledger, probed_ledger, "message ledgers diverged");
    assert_eq!(bare_rng, probed_rng, "protocol RNG diverged");
    assert_eq!(bare_net_rng, probed_net_rng, "net RNG diverged");

    // The lossy wire must surface its activity in the stream, and the
    // message events must reconcile with the ledger exactly.
    let events = buffer.into_events();
    let count = |f: fn(&Event) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    assert_eq!(
        count(|e| matches!(e, Event::MessageDispatched { .. })),
        probed_ledger.sent,
        "one dispatch event per wire copy (duplicates count into `sent`)"
    );
    assert_eq!(
        count(|e| matches!(e, Event::MessageDropped { .. })),
        probed_ledger.dropped
    );
    assert_eq!(
        count(|e| matches!(e, Event::MessageDelivered { .. })),
        probed_ledger.delivered
    );
    assert_eq!(
        count(|e| matches!(e, Event::MessageRetried { .. })),
        probed_ledger.retried
    );
    assert!(count(|e| matches!(e, Event::RouteResolved { .. })) > 0);
}

/// The engine and the net scheduler stop, count, and trace through one run
/// kernel, so on the instant lossless wire they must emit the same
/// `tick-committed` and `convergence-crossed` events for the same instance
/// and seeds.
#[test]
fn engine_and_net_scheduler_emit_the_same_kernel_events() {
    let n = 128;
    let g = graph(n, 13);
    let values = InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(0xdfa));
    let stop = StopCondition::at_epsilon(0.05).with_max_ticks(400_000);

    let kernel_events = |buffer: EventBuffer| -> Vec<Event> {
        buffer
            .into_events()
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::TickCommitted { .. } | Event::ConvergenceCrossed { .. }
                )
            })
            .collect()
    };
    let run_both = |oracle: &mut dyn geogossip::sim::Activation, actors: &mut dyn NetProtocol| {
        let mut engine_buffer = EventBuffer::new();
        AsyncEngine::new(n).run_probed(
            oracle,
            stop,
            &mut ChaCha8Rng::seed_from_u64(0x66),
            &mut engine_buffer,
        );
        let mut net_buffer = EventBuffer::new();
        NetScheduler::new(n).run_wire_probed(
            actors,
            stop,
            LatencyModel::Instant,
            ReliabilitySpec::default(),
            None,
            &mut ChaCha8Rng::seed_from_u64(0x66),
            &mut ChaCha8Rng::seed_from_u64(0x67),
            Some(&mut net_buffer),
        );
        (kernel_events(engine_buffer), kernel_events(net_buffer))
    };

    let pairwise = run_both(
        &mut PairwiseGossip::new(&g, values.clone()).expect("valid instance"),
        &mut PairwiseNet::new(&g, values.clone()).expect("valid actors"),
    );
    let geographic = run_both(
        &mut GeographicGossip::new(&g, values.clone()).expect("valid instance"),
        &mut GeographicNet::new(&g, values.clone()).expect("valid actors"),
    );
    for (name, (engine, net)) in [("pairwise", pairwise), ("geographic", geographic)] {
        assert!(
            matches!(engine.last(), Some(Event::ConvergenceCrossed { .. })),
            "{name}: the engine run must converge"
        );
        assert_eq!(engine, net, "{name}: kernel event streams differ");
    }
}

/// Renders a probed scenario run to JSONL bytes through the real sink.
fn probed_stream(runner: &geogossip::sim::scenario::Runner, spec: &ScenarioSpec) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    let report = runner.run_probed(spec, &mut sink).expect("probed run");
    let unprobed = runner.run(spec).expect("unprobed run");
    assert_eq!(
        report, unprobed,
        "`{}`: probed scenario report diverged from the unprobed run",
        spec.name
    );
    sink.finish().expect("in-memory sink cannot fail")
}

#[test]
fn scenario_streams_are_byte_identical_across_reruns_and_thread_counts() {
    let runner = builtin_runner();
    let mut spec = ScenarioSpec::standard("geographic", 96, 0.1)
        .with_trials(3)
        .with_seed(63);
    spec.stop = spec.stop.with_max_ticks(400_000);

    let baseline = probed_stream(&runner, &spec);
    assert!(!baseline.is_empty());
    assert_eq!(
        probed_stream(&runner, &spec),
        baseline,
        "rerun must be byte-identical"
    );
    for threads in [1usize, 4] {
        let mut threaded = spec.clone();
        threaded.parallelism = Some(ParallelSpec::with_threads(threads));
        assert_eq!(
            probed_stream(&runner, &threaded),
            baseline,
            "stream diverged at threads={threads}"
        );
    }

    // Trial brackets arrive in trial order even though trials run in
    // parallel: trial-started 0 … trial-finished 0 … trial-started 1 ….
    let text = String::from_utf8(baseline).expect("JSONL is UTF-8");
    let order: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"trial-started\"") || l.contains("\"trial-finished\""))
        .collect();
    assert_eq!(order.len(), 6);
    for (i, line) in order.iter().enumerate() {
        let kind = if i % 2 == 0 {
            "trial-started"
        } else {
            "trial-finished"
        };
        assert!(
            line.contains(kind) && line.contains(&format!("\"trial\":{}", i / 2)),
            "line {i} out of order: {line}"
        );
    }
}

#[test]
fn transport_scenario_streams_are_byte_identical_across_reruns() {
    let runner = builtin_runner();
    let mut spec = ScenarioSpec::standard("geographic", 96, 0.1)
        .with_trials(2)
        .with_seed(64)
        .with_transport(TransportSpec::default());
    spec.stop = spec.stop.with_max_ticks(100_000);

    let baseline = probed_stream(&runner, &spec);
    assert_eq!(
        probed_stream(&runner, &spec),
        baseline,
        "transport rerun must be byte-identical"
    );
    let text = String::from_utf8(baseline).expect("JSONL is UTF-8");
    assert!(text.contains("\"route-resolved\""));
    assert!(text.contains("\"message-dispatched\""));
    assert!(text.contains("\"message-delivered\""));
}

#[test]
fn unprobed_scenario_runs_carry_no_telemetry_residue() {
    // The public `run` path and the probed path with the probe absent must
    // agree bit-for-bit with each other — and the report JSON (the equality
    // surface) must not mention telemetry at all: phase laps live outside
    // the serialized document.
    let runner = builtin_runner();
    let mut spec = ScenarioSpec::standard("pairwise", 96, 0.1)
        .with_trials(2)
        .with_seed(65);
    spec.stop = spec.stop.with_max_ticks(2_000_000);

    let first = runner.run(&spec).expect("runs");
    let second = runner.run(&spec).expect("runs again");
    assert_eq!(first, second);
    let json = first.to_json();
    assert!(
        !json.contains("phases"),
        "phase laps leaked into report JSON"
    );
    // But the in-process report does carry the laps, for the CLI timing line
    // and the telemetry sinks.
    assert!(first.trials.iter().all(|t| !t.phases.is_empty()));
    let totals = first.phase_totals();
    assert_eq!(
        totals.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
        vec!["graph", "field", "build", "engine"]
    );
}
