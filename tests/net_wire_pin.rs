//! Output pins for the lossy message-passing wire.
//!
//! `tests/net_parity.rs` compares the instant wire against the shared-memory
//! engine and `tests/net_reliability.rs` compares a lossless block against no
//! block, so both would miss a change that moves a *lossy* run the same way
//! on either side. These pins hold the absolute output of one geographic and
//! one pairwise run through [`NetRuntime::run_trial`] instead. Each run puts
//! every part of the wire to work: exponential latency (messages reorder in
//! flight), drops, duplicate copies, retransmissions and abandoned rounds,
//! plus stale sensors and churn (messages reach dead recipients). A change
//! in the net stream's draw order, the dedup rule, the retry schedule or the
//! fault masks moves the stop tick, the transmission counts, the ledger
//! metrics, the bits of the final error or an RNG end state.

use geogossip::geometry::Topology;
use geogossip::net::NetRuntime;
use geogossip::sim::engine::StopReason;
use geogossip::sim::fault::{ChurnEvent, FaultSpec};
use geogossip::sim::field::Field;
use geogossip::sim::scenario::{PlacementSpec, ProtocolSpec, RadiusSpec, TopologySpec};
use geogossip::sim::transport::{
    LatencyModel, ReliabilitySpec, RetryPolicy, TransportRuntime, TransportSpec,
};
use geogossip::sim::StopCondition;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What a pin records about one run.
#[derive(Debug, PartialEq)]
struct Pin {
    reason: StopReason,
    ticks: u64,
    /// Local, routing and control transmissions.
    transmissions: [u64; 3],
    final_error_bits: u64,
    metrics: Vec<(String, f64)>,
    /// The next word of the run stream and of the net stream.
    rng_end: [u64; 2],
}

/// Runs `protocol` on a 96-node unit-square instance built from `seed` over
/// a lossy, reordering wire with stale sensors and one churn wave.
fn run(protocol: ProtocolSpec, seed: u64, max_ticks: u64) -> Pin {
    let topology = TopologySpec {
        n: 96,
        placement: PlacementSpec::UniformSquare,
        radius: RadiusSpec::ConnectivityConstant(2.0),
        surface: Topology::UnitSquare,
    };
    let graph = topology.build_with_rng(&mut ChaCha8Rng::seed_from_u64(seed));
    let values = Field::SpatialGradient.values(&graph, &mut ChaCha8Rng::seed_from_u64(seed));
    let transport = TransportSpec {
        latency: LatencyModel::Exponential { mean: 0.004 },
        reliability: ReliabilitySpec {
            drop: 0.2,
            duplicate: 0.1,
            retry: RetryPolicy {
                timeout: 0.02,
                backoff: 2.0,
                max_retries: 1,
            },
        },
    };
    let faults = FaultSpec {
        drop_rate: 0.0,
        stale_fraction: 0.05,
        churn: vec![ChurnEvent {
            fraction: 0.2,
            at_tick: max_ticks / 4,
            rejoin_tick: Some(max_ticks / 2),
        }],
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed + 1);
    let mut net_rng = ChaCha8Rng::seed_from_u64(seed + 2);
    let trial = NetRuntime::new()
        .run_trial(
            &protocol,
            &transport,
            &faults,
            &graph,
            values,
            StopCondition::at_epsilon(1e-3).with_max_ticks(max_ticks),
            &mut rng,
            &mut net_rng,
            ChaCha8Rng::seed_from_u64(seed + 3),
            None,
        )
        .unwrap();
    let metric = |key: &str| {
        trial
            .metrics
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no metric `{key}`"))
            .1
    };
    // The run must have exercised every part of the wire and the faults.
    for key in [
        "messages_sent",
        "messages_delivered",
        "messages_in_flight_peak",
        "messages_dropped",
        "messages_duplicated",
        "messages_retried",
        "rounds_abandoned",
        "dead_activations",
        "stale_nodes",
    ] {
        assert!(metric(key) > 0.0, "`{key}` is 0: {:?}", trial.metrics);
    }
    let tx = trial.report.transmissions;
    Pin {
        reason: trial.report.reason,
        ticks: trial.report.ticks,
        transmissions: [tx.local(), tx.routing(), tx.control()],
        final_error_bits: trial.report.final_error.to_bits(),
        metrics: trial.metrics,
        rng_end: [rng.next_u64(), net_rng.next_u64()],
    }
}

fn metrics(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

#[test]
fn lossy_geographic_output_is_pinned() {
    let pin = run(ProtocolSpec::named("geographic"), 11, 6_000);
    assert_eq!(
        pin,
        Pin {
            reason: StopReason::TickBudgetExhausted,
            ticks: 6_000,
            transmissions: [0, 21_789, 0],
            final_error_bits: 0x3fd6_106d_85d6_0bcc,
            metrics: metrics(&[
                ("exchanges", 4_665.0),
                ("failed_routes", 1.0),
                ("dropped_activations", 0.0),
                ("dead_activations", 296.0),
                ("stale_nodes", 4.0),
                ("messages_sent", 29_856.0),
                ("messages_delivered", 24_297.0),
                ("messages_in_flight_peak", 9.0),
                ("messages_dropped", 5_552.0),
                ("messages_duplicated", 2_192.0),
                ("messages_retried", 4_574.0),
                ("rounds_abandoned", 977.0),
            ]),
            rng_end: [17_055_040_168_968_095_216, 8_944_555_753_547_165_737],
        }
    );
}

#[test]
fn lossy_pairwise_output_is_pinned() {
    let pin = run(ProtocolSpec::named("pairwise"), 21, 20_000);
    assert_eq!(
        pin,
        Pin {
            reason: StopReason::TickBudgetExhausted,
            ticks: 20_000,
            transmissions: [44_616, 0, 0],
            final_error_bits: 0x3fd1_7f03_d922_4f43,
            metrics: metrics(&[
                ("exchanges", 16_859.0),
                ("isolated_activations", 0.0),
                ("dropped_activations", 0.0),
                ("dead_activations", 982.0),
                ("stale_nodes", 4.0),
                ("messages_sent", 71_132.0),
                ("messages_delivered", 58_149.0),
                ("messages_in_flight_peak", 11.0),
                ("messages_dropped", 12_980.0),
                ("messages_duplicated", 5_413.0),
                ("messages_retried", 10_825.0),
                ("rounds_abandoned", 2_154.0),
            ]),
            rng_end: [3_666_371_653_292_017_511, 15_880_852_465_655_340_512],
        }
    );
}
