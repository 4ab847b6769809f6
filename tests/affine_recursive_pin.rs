//! Output pins for the round-based affine protocol with recursive local
//! averaging (the `affine-recursive` registry entry).
//!
//! `tests/scenario_api.rs` checks that the engine adapter and `run_until`
//! agree, but both run the same leaf-gossip code, so neither would notice a
//! change in the partners that code draws. These pins hold the absolute
//! output instead: the transmission total, the round and leaf-exchange
//! counts, and the bits of the final error, for three instances. Any change
//! in the RNG draw order or in the partner a draw picks moves them.

use geogossip::core::prelude::*;
use geogossip::geometry::{PartitionConfig, Topology};
use geogossip::sim::field::Field;
use geogossip::sim::scenario::{PlacementSpec, RadiusSpec, TopologySpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// What a pin records about one run.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    transmissions: u64,
    top_rounds: u64,
    local_exchanges: u64,
    final_error_bits: u64,
}

/// Builds the instance from `seed` and runs it to `epsilon` from `seed + 1`.
fn run(
    placement: PlacementSpec,
    surface: Topology,
    n: usize,
    partition: PartitionConfig,
    seed: u64,
    epsilon: f64,
) -> Pin {
    let topology = TopologySpec {
        n,
        placement,
        radius: RadiusSpec::ConnectivityConstant(2.0),
        surface,
    };
    let graph = topology.build_with_rng(&mut ChaCha8Rng::seed_from_u64(seed));
    let values = Field::SpatialGradient.values(&graph, &mut ChaCha8Rng::seed_from_u64(seed));
    let config = RoundBasedConfig {
        partition,
        ..RoundBasedConfig::practical(n)
    };
    let mut gossip = RoundBasedAffineGossip::new(&graph, values, config).unwrap();
    let report = gossip.run_until(epsilon, &mut ChaCha8Rng::seed_from_u64(seed + 1));
    assert!(report.converged, "error stuck at {}", report.final_error);
    Pin {
        transmissions: report.transmissions.total(),
        top_rounds: report.stats.top_rounds,
        local_exchanges: report.stats.local_exchanges,
        final_error_bits: report.final_error.to_bits(),
    }
}

#[test]
fn uniform_unit_square_output_is_pinned() {
    let pin = run(
        PlacementSpec::UniformSquare,
        Topology::UnitSquare,
        512,
        PartitionConfig::practical(512),
        1,
        0.05,
    );
    assert_eq!(
        pin,
        Pin {
            transmissions: 567_502,
            top_rounds: 81,
            local_exchanges: 280_365,
            final_error_bits: 0x3fa8_6b21_0291_8f73,
        }
    );
}

#[test]
fn uniform_torus_output_is_pinned() {
    let pin = run(
        PlacementSpec::UniformSquare,
        Topology::Torus,
        512,
        PartitionConfig::practical(512),
        2,
        0.05,
    );
    assert_eq!(
        pin,
        Pin {
            transmissions: 645_634,
            top_rounds: 93,
            local_exchanges: 318_990,
            final_error_bits: 0x3fa8_ef2d_f821_930d,
        }
    );
}

#[test]
fn clustered_low_threshold_output_is_pinned() {
    // A split threshold of 4 on clustered sensors leaves gossip cells with a
    // single populated child whose members spread over several arena leaves
    // (two such cells here): the case where a cell's members and a leaf's
    // members differ.
    let pin = run(
        PlacementSpec::Clustered {
            clusters: 6,
            spread: 0.1,
        },
        Topology::UnitSquare,
        384,
        PartitionConfig::with_threshold(384, 4.0),
        4,
        0.2,
    );
    assert_eq!(
        pin,
        Pin {
            transmissions: 1_009_933,
            top_rounds: 72,
            local_exchanges: 492_327,
            final_error_bits: 0x3fc7_0fbe_1c77_4c2f,
        }
    );
}
