//! Message-passing runtime: sensor actors, typed protocol messages, and a
//! deterministic simulated scheduler.
//!
//! The shared-memory protocols in `geogossip-core` model the paper's
//! assumption that communication is instantaneous relative to the mean clock
//! slot: an activated sensor reads and writes its partner's value directly.
//! This crate re-expresses pairwise and geographic gossip as **actors** that
//! only ever exchange explicit, typed [`Message`]s — route requests forwarded
//! hop by hop, value replies, commit handshakes — delivered by a
//! deterministic event-driven [`NetScheduler`] with a pluggable
//! [`LatencyModel`](geogossip_sim::LatencyModel).
//!
//! Two properties anchor the design:
//!
//! * **Instant-schedule oracle pin.** On the instant-lossless schedule the
//!   net runs are *bit-identical* to the shared-memory engine: same termini,
//!   same transmission counts, same stop tick, same final RNG states
//!   (`tests/net_parity.rs`). The shared-memory protocols stay the oracle;
//!   the message decomposition adds no behavior until latency does.
//! * **Stream-label discipline.** Latency draws consume a dedicated `"net"`
//!   seed stream ([`geogossip_sim::NET_STREAM_LABEL`]); activation randomness
//!   is untouched, and degenerate schedules (instant, fixed) draw nothing at
//!   all. The set of streams a configuration consumes is part of its schema.
//!
//! Non-instant schedules are where the crate earns its keep: messages carry
//! values that may be stale on arrival, random latencies reorder messages in
//! flight, and a per-trial [`MessageLedger`] reports the true message economy
//! (sent / delivered / in-flight peak) next to the protocol's transmission
//! charges. The sweep lab's `transport` axis measures how convergence and
//! cost degrade as mean latency grows.
//!
//! The wire itself can be unreliable: a `transport.reliability` block adds
//! per-message drop and duplication probabilities with a timeout / backoff /
//! retry-cap ARQ (see the frozen draw order on [`scheduler`]), and the
//! `faults` block's node churn and stale-value sensors run on this layer
//! through the shared-memory engine's own node-fault state,
//! [`NodeFaults`](geogossip_sim::fault::NodeFaults), built from the same
//! `"faults"` stream and advanced by the same per-tick call, so a
//! `transport` key never changes *which* sensors fail. The actors draw their
//! partners and targets with the shared-memory protocols' own draw stage
//! (`geogossip_core::pairwise::draw_partner`,
//! `geogossip_core::geographic::draw_target`); only the round's message
//! flow is theirs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod message;
pub mod protocols;
pub mod runtime;
pub mod scheduler;

pub use message::Message;
pub use protocols::{GeographicNet, PairwiseNet};
pub use runtime::NetRuntime;
pub use scheduler::{MessageLedger, NetContext, NetProtocol, NetScheduler};

#[cfg(test)]
mod parity_smoke {
    use super::*;
    use geogossip_core::prelude::PairwiseGossip;
    use geogossip_graph::GeometricGraph;
    use geogossip_sim::engine::{AsyncEngine, StopCondition};
    use geogossip_sim::transport::LatencyModel;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// In-crate smoke for the oracle pin (the full matrix lives in
    /// `tests/net_parity.rs`): pairwise on the instant schedule must
    /// reproduce the shared-memory engine bit for bit.
    #[test]
    fn instant_pairwise_matches_the_shared_memory_engine() {
        let mut placement = ChaCha8Rng::seed_from_u64(77);
        let positions = geogossip_geometry::sampling::sample_unit_square(64, &mut placement);
        let graph = GeometricGraph::build_at_connectivity_radius(positions, 2.0);
        let mut values = vec![0.0; graph.len()];
        values[0] = graph.len() as f64;
        let stop = StopCondition::at_epsilon(0.1).with_max_ticks(500_000);

        let mut oracle_rng = ChaCha8Rng::seed_from_u64(99);
        let mut net_run_rng = oracle_rng.clone();

        let mut oracle = PairwiseGossip::new(&graph, values.clone()).unwrap();
        let oracle_report = AsyncEngine::new(graph.len()).run(&mut oracle, stop, &mut oracle_rng);

        let mut net = PairwiseNet::new(&graph, values).unwrap();
        let mut net_rng = ChaCha8Rng::seed_from_u64(1234);
        let (net_report, ledger) = NetScheduler::new(graph.len()).run(
            &mut net,
            stop,
            LatencyModel::Instant,
            &mut net_run_rng,
            &mut net_rng,
        );

        assert_eq!(net_report.reason, oracle_report.reason);
        assert_eq!(net_report.ticks, oracle_report.ticks);
        assert_eq!(net_report.time.to_bits(), oracle_report.time.to_bits());
        assert_eq!(
            net_report.final_error.to_bits(),
            oracle_report.final_error.to_bits()
        );
        assert_eq!(
            net_report.transmissions.total(),
            oracle_report.transmissions.total()
        );
        assert_eq!(net_report.trace.points(), oracle_report.trace.points());
        // Identical activation-stream consumption.
        for _ in 0..4 {
            assert_eq!(net_run_rng.next_u64(), oracle_rng.next_u64());
        }
        // Everything sent was delivered within its tick.
        assert_eq!(ledger.in_flight(), 0);
    }
}
