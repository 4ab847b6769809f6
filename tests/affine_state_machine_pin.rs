//! Output pins for the asynchronous affine state machine
//! (`affine-state-machine`) and the idealized round-based recursion
//! (`affine-idealized`).
//!
//! `tests/fault_parity.rs` and `tests/telemetry_parity.rs` compare the state
//! machine only with itself, and `tests/scenario_api.rs` compares
//! `affine-idealized` only with `run_until`, so a change that moved both
//! sides of those comparisons alike would pass them. These pins hold the
//! absolute output of one trial through the scenario runner instead: the
//! ticks, the transmissions by kind, the bits of the final error and every
//! protocol metric. Any change in an RNG draw, in the partner a draw picks,
//! or in what an exchange charges moves them.

use geogossip::builtin_runner;
use geogossip::geometry::Topology;
use geogossip::sim::field::Field;
use geogossip::sim::scenario::ScenarioSpec;
use geogossip::sim::{FaultSpec, StopCondition};

/// What a pin records about one trial.
#[derive(Debug, PartialEq)]
struct Pin {
    converged: bool,
    ticks: u64,
    routing: u64,
    local: u64,
    control: u64,
    final_error_bits: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs trial 0 of `protocol` at ε = 0.05 on a spatial gradient, with at
/// most 400 000 ticks.
fn run(protocol: &str, n: usize, surface: Topology, faults: FaultSpec) -> Pin {
    let mut spec = ScenarioSpec::standard(protocol, n, 0.05)
        .with_field(Field::SpatialGradient)
        .with_faults(faults);
    spec.topology.surface = surface;
    spec.stop = StopCondition::at_epsilon(0.05).with_max_ticks(400_000);
    let report = builtin_runner().run(&spec).expect("pinned spec runs");
    let trial = &report.trials[0];
    Pin {
        converged: trial.converged,
        ticks: trial.ticks,
        routing: trial.transmissions.routing(),
        local: trial.transmissions.local(),
        control: trial.transmissions.control(),
        final_error_bits: trial.final_error.to_bits(),
        metrics: trial.metrics.clone(),
    }
}

fn metrics(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn no_faults() -> FaultSpec {
    FaultSpec::default()
}

#[test]
fn state_machine_unit_square_output_is_pinned() {
    let pin = run(
        "affine-state-machine",
        256,
        Topology::UnitSquare,
        no_faults(),
    );
    assert_eq!(
        pin,
        Pin {
            converged: true,
            ticks: 245_612,
            routing: 498,
            local: 217_324,
            control: 4_947,
            final_error_bits: 0x3fa9_8ae7_4a49_e1c3,
            metrics: metrics(&[
                ("far_exchanges", 78.0),
                ("near_exchanges", 108_662.0),
                ("activations", 172.0),
                ("deactivations", 135.0),
                ("failed_routes", 0.0),
            ]),
        }
    );
}

#[test]
fn state_machine_torus_output_is_pinned() {
    // Leaf cells never straddle the seam, so the in-leaf rows, the floods
    // and every value match the unit square's; only the leader walks are
    // shorter.
    let pin = run("affine-state-machine", 256, Topology::Torus, no_faults());
    assert_eq!(
        pin,
        Pin {
            converged: true,
            ticks: 245_612,
            routing: 394,
            local: 217_324,
            control: 4_947,
            final_error_bits: 0x3fa9_8ae7_4a49_e1c3,
            metrics: metrics(&[
                ("far_exchanges", 78.0),
                ("near_exchanges", 108_662.0),
                ("activations", 172.0),
                ("deactivations", 135.0),
                ("failed_routes", 0.0),
            ]),
        }
    );
}

#[test]
fn state_machine_under_drops_and_stale_sensors_is_pinned() {
    // Covers `Far`'s drop path (the round trip is charged, no counter
    // resets) and the stale paths of `Near` and `Far`.
    let faults = FaultSpec {
        drop_rate: 0.1,
        stale_fraction: 0.05,
        ..FaultSpec::default()
    };
    let pin = run("affine-state-machine", 256, Topology::UnitSquare, faults);
    assert_eq!(
        pin,
        Pin {
            converged: false,
            ticks: 400_000,
            routing: 954,
            local: 366_672,
            control: 7_964,
            final_error_bits: 0x3fe6_369d_2237_cec3,
            metrics: metrics(&[
                ("far_exchanges", 133.0),
                ("near_exchanges", 165_162.0),
                ("activations", 283.0),
                ("deactivations", 213.0),
                ("failed_routes", 0.0),
                ("dropped_activations", 39_490.0),
                ("dead_activations", 0.0),
                ("stale_nodes", 12.0),
            ]),
        }
    );
}

#[test]
fn idealized_recursion_output_is_pinned() {
    let pin = run("affine-idealized", 1024, Topology::UnitSquare, no_faults());
    assert_eq!(
        pin,
        Pin {
            converged: true,
            ticks: 210,
            routing: 2_200,
            local: 0,
            control: 26_066,
            final_error_bits: 0x3fa9_891c_ac01_8f8c,
            metrics: metrics(&[
                ("top_rounds", 209.0),
                ("long_range_exchanges", 209.0),
                ("local_exchanges", 0.0),
                ("failed_routes", 0.0),
                ("stalled_local_passes", 0.0),
                ("effective_alpha_top", 12.8),
            ]),
        }
    );
}
