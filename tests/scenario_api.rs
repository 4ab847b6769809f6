//! Integration tests for the scenario API redesign:
//!
//! 1. `ScenarioSpec` round-trips through JSON (JSON → spec → JSON).
//! 2. Every built-in protocol resolves by name through the registry and runs.
//! 3. The `Runner` is **bit-identical** to the pre-redesign
//!    `run_protocol_trials` harness for the four comparison protocols — the
//!    legacy path (direct protocol construction and seed derivation, exactly
//!    as the retired `ProtocolKind` match did it) is reimplemented inline
//!    here as the reference.

use geogossip::core::prelude::*;
use geogossip::core::registry::builtin_runner;
use geogossip::geometry::sampling::sample_unit_square;
use geogossip::graph::GeometricGraph;
use geogossip::sim::field::Field;
use geogossip::sim::scenario::{PlacementSpec, ProtocolSpec, RadiusSpec, ScenarioSpec};
use geogossip::sim::{AsyncEngine, EngineReport, SeedStream, StopCondition};
use geogossip_geometry::{Point, Rect, Topology};

#[test]
fn scenario_spec_round_trips_through_json() {
    // A spec touching every schema branch: clustered placement, absolute
    // radius, torus surface, protocol params of all three kinds, a disabled
    // cap.
    let mut spec = ScenarioSpec::standard("affine-recursive", 384, 0.07)
        .with_trials(4)
        .with_seed(99)
        .with_field(Field::Condition(InitialCondition::Uniform));
    spec.name = "round-trip".into();
    spec.topology.placement = PlacementSpec::Clustered {
        clusters: 3,
        spread: 0.1,
    };
    spec.topology.radius = RadiusSpec::Absolute(0.12);
    spec.topology.surface = Topology::Torus;
    spec.protocol = ProtocolSpec::named("affine-recursive")
        .with_number("epsilon-decay", 0.2)
        .with_text("note", "ignored-by-validation-until-built");
    spec.stop.max_transmissions = None;

    let json = spec.to_json();
    let parsed = ScenarioSpec::from_json(&json).expect("round trip parses");
    assert_eq!(parsed, spec);
    assert_eq!(
        parsed.to_json(),
        json,
        "JSON → spec → JSON is a fixed point"
    );

    // Perforated placement too.
    spec.topology.placement = PlacementSpec::Perforated {
        hole: Rect::new(Point::new(0.4, 0.4), Point::new(0.6, 0.6)),
    };
    let reparsed = ScenarioSpec::from_json(&spec.to_json()).expect("perforated parses");
    assert_eq!(reparsed, spec);
}

#[test]
fn every_builtin_protocol_resolves_by_name_and_runs() {
    let runner = builtin_runner();
    let names = runner.factory().names();
    assert!(
        names.len() >= 7,
        "expected the full builtin registry, got {names:?}"
    );
    for name in names {
        // A loose target plus a small tick cap: this asserts resolution and a
        // healthy run, not convergence.
        let mut spec = ScenarioSpec::standard(&name, 128, 0.5);
        spec.stop = spec.stop.with_max_ticks(20_000);
        let report = runner
            .run(&spec)
            .unwrap_or_else(|e| panic!("`{name}` failed to run: {e}"));
        assert_eq!(report.summary.trials, 1);
        assert!(!report.protocol_label.is_empty());
    }
}

/// The pre-redesign cost record, byte-comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LegacyCost {
    converged: bool,
    transmissions: u64,
    rounds: u64,
    final_error_bits: u64,
}

impl LegacyCost {
    fn from_engine(report: &EngineReport) -> Self {
        LegacyCost {
            converged: report.converged(),
            transmissions: report.transmissions.total(),
            rounds: report.ticks,
            final_error_bits: report.final_error.to_bits(),
        }
    }
}

/// The retired `run_protocol` harness, verbatim: standard network at radius
/// constant 1.5, gradient field, per-protocol seed tag folded into the run
/// stream, engine for the tick-driven protocols and `run_until` for the
/// round-based ones.
fn legacy_run_protocol(
    tag: u64,
    n: usize,
    epsilon: f64,
    seeds: &SeedStream,
    trial: u64,
) -> LegacyCost {
    let positions = sample_unit_square(n, &mut seeds.trial("placement", trial));
    let network = GeometricGraph::build_at_connectivity_radius(positions, 1.5);
    let values: Vec<f64> = network.positions().iter().map(|p| p.x).collect();
    let mut rng = seeds.trial("run", trial ^ (tag << 32));
    let stop = StopCondition::at_epsilon(epsilon).with_max_ticks(200_000_000);
    match tag {
        0 => {
            let mut p = PairwiseGossip::new(&network, values).expect("valid instance");
            LegacyCost::from_engine(&AsyncEngine::new(n).run(&mut p, stop, &mut rng))
        }
        1 => {
            let mut p = GeographicGossip::new(&network, values).expect("valid instance");
            LegacyCost::from_engine(&AsyncEngine::new(n).run(&mut p, stop, &mut rng))
        }
        2 | 3 => {
            let config = if tag == 2 {
                RoundBasedConfig::idealized(n)
            } else {
                RoundBasedConfig::practical(n)
            };
            let mut p =
                RoundBasedAffineGossip::new(&network, values, config).expect("valid instance");
            let report = p.run_until(epsilon, &mut rng);
            LegacyCost {
                converged: report.converged,
                transmissions: report.transmissions.total(),
                rounds: report.stats.top_rounds,
                final_error_bits: report.final_error.to_bits(),
            }
        }
        _ => unreachable!("legacy harness had four protocols"),
    }
}

#[test]
fn runner_is_bit_identical_to_the_legacy_harness() {
    let protocols = [
        ("pairwise", 0u64),
        ("geographic", 1),
        ("affine-idealized", 2),
        ("affine-recursive", 3),
    ];
    let (n, epsilon, trials, seed) = (128usize, 0.1f64, 3u64, 20070612u64);
    let runner = builtin_runner();
    let seeds = SeedStream::new(seed);

    for (name, tag) in protocols {
        let spec = ScenarioSpec::standard(name, n, epsilon)
            .with_trials(trials)
            .with_seed(seed);
        assert_eq!(
            runner.factory().seed_tag(name),
            Some(tag),
            "registry seed tag drifted for {name}"
        );
        let report = runner.run(&spec).expect("standard spec runs");
        assert_eq!(report.trials.len(), trials as usize);
        for (trial, cost) in report.trials.iter().enumerate() {
            let legacy = legacy_run_protocol(tag, n, epsilon, &seeds, trial as u64);
            let via_runner = LegacyCost {
                converged: cost.converged,
                transmissions: cost.transmissions.total(),
                rounds: cost.rounds,
                final_error_bits: cost.final_error.to_bits(),
            };
            assert_eq!(
                via_runner, legacy,
                "{name} trial {trial}: runner diverged from the legacy harness"
            );
        }
    }
}

/// Splices a raw `transport` JSON fragment into an otherwise valid spec and
/// parses the result — the spec-level path for transport hard errors.
fn parse_spec_with_transport(transport_json: &str) -> Result<ScenarioSpec, String> {
    let base = ScenarioSpec::standard("pairwise", 64, 0.1).to_json();
    let doc = base
        .trim_end()
        .strip_suffix('}')
        .expect("spec JSON ends with a brace");
    let spliced = format!("{doc},\n  \"transport\": {transport_json}\n}}");
    ScenarioSpec::from_json(&spliced).map_err(|e| e.to_string())
}

/// Unknown keys and malformed shapes under `transport` hard-error at parse
/// time, and every message names the offending spec path — the same contract
/// the `faults` schema pins.
#[test]
fn transport_unknown_keys_and_bad_shapes_hard_error_with_spec_paths() {
    for (bad, fragment) in [
        (r#"{"latencyy": "instant"}"#, "unknown transport key"),
        (r#"[1, 2]"#, "`transport` must be an object"),
        (
            r#"{"latency": "warp"}"#,
            "unknown `transport.latency` model",
        ),
        (
            r#"{"latency": {"fixd": 0.1}}"#,
            "unknown transport.latency key",
        ),
        (
            r#"{"latency": {"fixed": "fast"}}"#,
            "`transport.latency.fixed` must be a number",
        ),
        (
            r#"{"latency": {"exp": {"mena": 0.1}}}"#,
            "unknown transport.latency.exp key",
        ),
        (
            r#"{"reliability": [1, 2]}"#,
            "`transport.reliability` must be an object",
        ),
        (
            r#"{"reliability": {"drp": 0.1}}"#,
            "unknown transport.reliability key",
        ),
        (
            r#"{"reliability": {"drop": "often"}}"#,
            "`transport.reliability.drop` must be a number",
        ),
        (
            r#"{"reliability": {"retry": {"timout": 1.0}}}"#,
            "unknown transport.reliability.retry key",
        ),
        (
            r#"{"reliability": {"retry": {"max-retries": 1.5}}}"#,
            "`transport.reliability.retry.max-retries` must be a non-negative whole number",
        ),
    ] {
        let err = parse_spec_with_transport(bad)
            .expect_err(&format!("spec with transport {bad} was accepted"));
        assert!(
            err.contains(fragment),
            "error for {bad} was `{err}`, expected `{fragment}`"
        );
    }
}

/// Out-of-range latency parameters are rejected by validation with the
/// `transport.latency.…` spec path in the message.
#[test]
fn transport_out_of_range_values_name_the_spec_path() {
    for (bad, path) in [
        (r#"{"latency": {"fixed": -0.5}}"#, "transport.latency.fixed"),
        (
            r#"{"latency": {"exp": {"mean": 0.0}}}"#,
            "transport.latency.exp.mean",
        ),
        (
            r#"{"reliability": {"drop": 1.0}}"#,
            "transport.reliability.drop",
        ),
        (
            r#"{"reliability": {"duplicate": -0.1}}"#,
            "transport.reliability.duplicate",
        ),
        (
            r#"{"reliability": {"retry": {"timeout": 0.0}}}"#,
            "transport.reliability.retry.timeout",
        ),
        (
            r#"{"reliability": {"retry": {"backoff": 0.5}}}"#,
            "transport.reliability.retry.backoff",
        ),
    ] {
        let err = parse_spec_with_transport(bad)
            .expect_err(&format!("spec with transport {bad} was accepted"));
        assert!(err.contains(path), "error for {bad} was `{err}`");
    }
    // The happy paths still parse, for contrast.
    for good in [
        r#"{"latency": "instant"}"#,
        r#"{"latency": {"fixed": 0.5}}"#,
        r#"{"latency": {"exp": {"mean": 0.25}}}"#,
        r#"{"reliability": {"drop": 0.3, "duplicate": 0.05}}"#,
        r#"{"latency": {"fixed": 0.002},
            "reliability": {"drop": 0.1,
                            "retry": {"timeout": 0.5, "backoff": 2.0, "max-retries": 4}}}"#,
    ] {
        let spec = parse_spec_with_transport(good).expect(good);
        assert!(spec.transport.is_some());
    }
}

/// Networks beyond `u32::MAX` sensors are rejected by validation, naming
/// `topology.n`: the CSR adjacency indexes nodes as `u32`, so `validate`
/// must refuse what `run` cannot build.
#[test]
fn topology_n_beyond_u32_hard_errors_with_spec_path() {
    let spec = |n: u64| {
        ScenarioSpec::from_json(&format!(
            r#"{{"topology": {{"n": {n}}}, "protocol": {{"name": "pairwise"}}, "stop": {{"epsilon": 0.5}}}}"#
        ))
    };
    let err = spec(u64::from(u32::MAX) + 1)
        .expect_err("a spec with n = 2^32 was accepted")
        .to_string();
    assert!(err.contains("topology.n"), "got `{err}`");
    // The largest size the adjacency can index still validates.
    spec(u64::from(u32::MAX)).expect("n = u32::MAX validates");
}

/// Activation loss (`faults.drop-rate`) cannot be combined with a transport
/// spec — wire loss lives in `transport.reliability.drop` — and the refusal
/// names the key the user must delete. Node churn and stale sensors, by
/// contrast, now run on the net layer.
#[test]
fn transport_refuses_activation_loss_but_runs_churn_and_stale() {
    let runner = geogossip::builtin_runner();
    let mut spec = ScenarioSpec::standard("pairwise", 64, 0.2)
        .with_transport(geogossip::sim::TransportSpec::default());
    spec.stop = spec.stop.with_max_ticks(100_000);
    spec.faults = geogossip::sim::FaultSpec {
        drop_rate: 0.1,
        ..geogossip::sim::FaultSpec::default()
    };
    let err = runner.run(&spec).expect_err("faults + transport accepted");
    let text = err.to_string();
    assert!(text.contains("faults.drop-rate"), "got `{text}`");
    assert!(text.contains("transport.reliability.drop"), "got `{text}`");

    spec.faults = geogossip::sim::FaultSpec {
        stale_fraction: 0.1,
        ..geogossip::sim::FaultSpec::default()
    };
    let report = runner.run(&spec).expect("stale faults + transport run");
    let keys: Vec<&str> = report.trials[0]
        .metrics
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert!(keys.contains(&"stale_nodes"), "got {keys:?}");
}

#[test]
fn torus_scenarios_run_and_use_denser_adjacency() {
    let runner = builtin_runner();
    let mut planar = ScenarioSpec::standard("pairwise", 256, 0.2).with_trials(1);
    let mut torus = planar.clone();
    torus.topology.surface = Topology::Torus;
    planar.name = "planar".into();
    torus.name = "torus".into();
    let reports = runner.run_all(&[planar, torus]).expect("specs run");
    assert!(reports.iter().all(|r| r.all_converged()));
    // Same placement stream; the torus adds seam edges, so pairwise mixing is
    // at least as fast in ticks on average. (Not asserted strictly — just
    // sanity that both produced work.)
    assert!(reports[0].summary.mean_transmissions > 0.0);
    assert!(reports[1].summary.mean_transmissions > 0.0);
}
