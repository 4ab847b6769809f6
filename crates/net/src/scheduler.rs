//! The deterministic simulated scheduler driving sensor actors.
//!
//! [`NetScheduler::run`] drives sensor actors through the same run kernel as
//! the shared-memory engine ([`RunKernel`]), which owns the stop checks, the
//! squared-domain convergence fast path, the trace stride cap, the
//! transmission count, and the `convergence-crossed` / `tick-committed`
//! events. The scheduler owns only how a tick is drawn — a Poisson
//! activation clock consuming the identical `"run"` RNG stream — and how it
//! is applied, through the message queue. On the instant-lossless schedule
//! every message a tick produces is delivered before the kernel checks the
//! next tick, so reports are **bit-identical** to the shared-memory oracle —
//! pinned by `tests/net_parity.rs`.
//!
//! # Determinism contract
//!
//! * Activations (clock gaps, tick→node assignment, protocol partner draws)
//!   consume the caller's `rng` — the same `"run"`-stream generator the
//!   shared-memory engine would use, in the same order.
//! * Message *latency* draws consume a separate `net_rng` (the dedicated
//!   `"net"` seed stream). The [`LatencyModel::Instant`] and
//!   [`LatencyModel::Fixed`] schedules draw **nothing** from it, so switching
//!   among them can never perturb activation randomness.
//! * Messages scheduled for the same delivery time are delivered in send
//!   order ([`geogossip_sim::EventQueue`]'s FIFO sequence tie-break); distinct
//!   times are delivered in time order, which under random latency reorders
//!   messages in flight exactly as a real network would.
//!
//! # Reliability draw order (frozen)
//!
//! With a [`ReliabilitySpec`] in play, every dispatch consumes draws from the
//! `"net"` stream in this order: the **latency** sample first (whatever the
//! schedule draws — nothing for instant/fixed), then the **drop** draw *only
//! if* `drop > 0`, then the **duplicate** draw *only if* `duplicate > 0` and
//! the message survived the wire. A lossless reliability block
//! (`drop == duplicate == 0`) therefore consumes exactly the draws a bare
//! transport does and stays bit-identical to it — pinned by
//! `tests/net_reliability.rs`.
//!
//! Dropped messages were already **charged** by their `send_*` call
//! (charge-before-drop, like activation loss in the shared-memory engine);
//! if the retry budget allows, a retransmission timer is scheduled at
//! `timeout · backoff^(attempt-1)` after the send, and when it fires the
//! retransmission charges the same transmission kind again and re-enters the
//! wire with the **same message id**. A duplicated message schedules its copy
//! at the *same* delivery time (no second latency draw), immediately after
//! the original in FIFO order; receivers suppress redeliveries of an
//! already-processed id, so handlers stay exactly-once.
//!
//! Suppression needs only the id of the last envelope handed to a handler.
//! A copy is queued at its original's time `t` with the very next sequence
//! number, so nothing already queued sorts between the two, and whatever is
//! queued once the original pops is sent at `t` or later with a larger
//! sequence number, so it sorts after the copy: `(time, sequence)` order
//! pops the copy immediately after its original. A retry is scheduled only
//! after a drop, so no id is delivered by two attempts. A redelivered id
//! therefore always directly follows its first delivery, and comparing
//! against the last handled id suppresses exactly what a set of every seen
//! id would, in O(1) time and memory.

use crate::fault::NetFaultPlan;
use crate::message::Message;
use geogossip_geometry::point::NodeId;
use geogossip_sim::engine::{
    EngineReport, RunKernel, SquaredError, StopCondition, DEFAULT_MAX_TRACE_POINTS,
};
use geogossip_sim::metrics::TransmissionCounter;
use geogossip_sim::transport::{LatencyModel, ReliabilitySpec};
use geogossip_sim::{EventQueue, GlobalPoissonClock};
use geogossip_telemetry::{Event, Probe};
use rand::{Rng, RngCore};

/// How a message's transmission was charged, so a retransmission can charge
/// the same kind again (charge-before-drop extends to every attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// One local transmission per attempt (`charge_local(1)`).
    Local,
    /// One routing transmission per attempt (`charge_routing(1)`).
    Routed,
    /// Uncharged (commit handshakes and dead-end handoffs).
    Free,
}

/// What a queued envelope does when its time arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EnvelopeKind {
    /// Deliver the message to its recipient's actor.
    Deliver,
    /// A retransmission timer: re-charge `charge` and re-enter the wire as
    /// attempt number `attempt` (same message id as the original).
    Retry {
        /// The attempt number this retransmission will be (original = 1).
        attempt: u32,
        /// The transmission kind the original send charged.
        charge: ChargeKind,
    },
}

/// An in-flight message: who it is addressed to and what it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// The sensor the message is addressed to.
    pub to: NodeId,
    /// The message payload.
    pub message: Message,
    /// Deduplication id (0 on the lossless path, where ids are never needed).
    pub(crate) id: u64,
    /// Delivery vs. retransmission timer.
    pub(crate) kind: EnvelopeKind,
}

/// Message-economy accounting for one run: everything the transport layer
/// moved, independent of what the protocol chose to charge.
///
/// `sent - delivered - dropped` messages were still in flight when the run
/// stopped (abandoned; their effects never apply). On the instant-lossless
/// schedule the queue drains within every tick, so `sent == delivered` and
/// the in-flight peak only reflects intra-tick cascades. Duplicate copies
/// count in `sent` (and `duplicated`); suppressed redeliveries and messages
/// discarded at a dead recipient still count in `delivered` — they left the
/// wire, their handler just never ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageLedger {
    /// Messages handed to the transport (including uncharged commits and
    /// duplicate copies).
    pub sent: u64,
    /// Messages that left the wire at their recipient (including suppressed
    /// duplicates and deliveries discarded at dead sensors).
    pub delivered: u64,
    /// Largest number of messages simultaneously in flight.
    pub in_flight_peak: u64,
    /// Messages the unreliable wire dropped (every attempt counts).
    pub dropped: u64,
    /// Duplicate copies the wire injected.
    pub duplicated: u64,
    /// Retransmissions (re-charged re-entries of a dropped message).
    pub retried: u64,
    /// Messages abandoned after their last permitted attempt was dropped.
    pub rounds_abandoned: u64,
}

impl MessageLedger {
    /// Messages still in flight (sent but neither delivered nor dropped).
    pub fn in_flight(&self) -> u64 {
        self.sent - self.delivered - self.dropped
    }

    /// The ledger as named metrics, appended to a trial's metric list.
    /// These three keys are historical and appear on every net trial.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("messages_sent".to_string(), self.sent as f64),
            ("messages_delivered".to_string(), self.delivered as f64),
            (
                "messages_in_flight_peak".to_string(),
                self.in_flight_peak as f64,
            ),
        ]
    }

    /// The unreliable-wire counters, appended **only** when the transport's
    /// reliability block is lossy (a lossless run must keep the exact metric
    /// list of a bare transport run — the schema-stability invariant).
    pub fn reliability_metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("messages_dropped".to_string(), self.dropped as f64),
            ("messages_duplicated".to_string(), self.duplicated as f64),
            ("messages_retried".to_string(), self.retried as f64),
            ("rounds_abandoned".to_string(), self.rounds_abandoned as f64),
        ]
    }
}

/// The sending surface handed to actors during activations and message
/// deliveries. `now` is the activation tick time (for activations) or the
/// message's own arrival time (for deliveries), so cascaded sends are
/// scheduled relative to when the sender actually acted.
pub struct NetContext<'a, 'p> {
    pub(crate) now: f64,
    pub(crate) latency: LatencyModel,
    pub(crate) reliability: ReliabilitySpec,
    pub(crate) net_rng: &'a mut dyn RngCore,
    pub(crate) queue: &'a mut EventQueue<Envelope>,
    pub(crate) tx: &'a mut TransmissionCounter,
    pub(crate) ledger: &'a mut MessageLedger,
    pub(crate) next_id: &'a mut u64,
    pub(crate) alive: &'a [bool],
    pub(crate) stale: &'a [bool],
    pub(crate) probe: Option<&'a mut (dyn Probe + 'p)>,
}

impl<'a, 'p> NetContext<'a, 'p> {
    /// The simulation time the current activation or delivery runs at.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Whether any sensor is currently dead (empty mask means all alive).
    pub fn any_dead(&self) -> bool {
        !self.alive.is_empty()
    }

    /// Whether sensor `i` is currently alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive.get(i).copied().unwrap_or(true)
    }

    /// Whether sensor `i` is frozen as a stale-value node.
    pub fn is_stale(&self, i: usize) -> bool {
        self.stale.get(i).copied().unwrap_or(false)
    }

    /// The liveness mask for masked routing — empty while every sensor
    /// lives, so masked code paths stay dormant (same convention as the
    /// shared-memory `FaultContext`).
    pub fn alive_mask(&self) -> &'a [bool] {
        self.alive
    }

    /// Emits a telemetry event to the attached probe, if any. Events must
    /// derive only from simulation state (sim-time, ids, counters) — never
    /// the wall clock — so probed streams stay byte-identical across reruns.
    pub fn emit(&mut self, event: Event) {
        if let Some(probe) = self.probe.as_deref_mut() {
            probe.on_event(event);
        }
    }

    /// Whether a telemetry probe is attached and enabled (lets handlers skip
    /// building events that would go nowhere).
    pub fn probed(&self) -> bool {
        self.probe.as_ref().is_some_and(|p| p.enabled())
    }

    /// Sends a one-hop local message, charged as one local transmission.
    pub fn send_local(&mut self, to: NodeId, message: Message) {
        self.tx.charge_local(1);
        let id = self.fresh_id();
        self.dispatch(to, message, ChargeKind::Local, id, 1);
    }

    /// Forwards a message one routing hop, charged as one routing
    /// transmission. Per-hop charges over a greedy round trip sum to exactly
    /// the lump `charge_routing(outbound + back)` of the shared-memory oracle.
    pub fn send_routed(&mut self, to: NodeId, message: Message) {
        self.tx.charge_routing(1);
        let id = self.fresh_id();
        self.dispatch(to, message, ChargeKind::Routed, id, 1);
    }

    /// Sends a message without charging any transmission: commit handshakes
    /// (the oracle's single-step double write never counted a transmission)
    /// and dead-end handoffs (the oracle's shared-memory fallback read). The
    /// message still travels through the queue and the ledger counts it.
    pub fn send_free(&mut self, to: NodeId, message: Message) {
        let id = self.fresh_id();
        self.dispatch(to, message, ChargeKind::Free, id, 1);
    }

    /// A fresh dedup id on the lossy path; 0 (never checked) when lossless.
    fn fresh_id(&mut self) -> u64 {
        if self.reliability.is_lossless() {
            0
        } else {
            *self.next_id += 1;
            *self.next_id
        }
    }

    /// Puts one attempt of a message on the wire. The draw order documented
    /// on the module is frozen here: latency, then drop (only if `drop > 0`),
    /// then duplicate (only if `duplicate > 0` and the message survived).
    pub(crate) fn dispatch(
        &mut self,
        to: NodeId,
        message: Message,
        charge: ChargeKind,
        id: u64,
        attempt: u32,
    ) {
        let delay = self.latency.sample(self.net_rng);
        self.ledger.sent += 1;
        self.ledger.in_flight_peak = self.ledger.in_flight_peak.max(self.ledger.in_flight());
        self.emit(Event::MessageDispatched {
            id,
            to: to.index() as u32,
            sim_time: self.now,
        });
        let rel = self.reliability;
        if rel.is_lossless() {
            self.queue.schedule(
                self.now + delay,
                Envelope {
                    to,
                    message,
                    id,
                    kind: EnvelopeKind::Deliver,
                },
            );
            return;
        }
        let dropped = rel.drop > 0.0 && self.net_rng.gen::<f64>() < rel.drop;
        if dropped {
            self.ledger.dropped += 1;
            self.emit(Event::MessageDropped {
                id,
                to: to.index() as u32,
                attempt,
                sim_time: self.now,
            });
            if attempt <= rel.retry.max_retries {
                // Exponential backoff: the k-th retransmission fires
                // timeout·backoff^(k-1) after the attempt it replaces.
                let pause = rel.retry.timeout * rel.retry.backoff.powi(attempt as i32 - 1);
                self.queue.schedule(
                    self.now + pause,
                    Envelope {
                        to,
                        message,
                        id,
                        kind: EnvelopeKind::Retry {
                            attempt: attempt + 1,
                            charge,
                        },
                    },
                );
            } else {
                self.ledger.rounds_abandoned += 1;
            }
            return;
        }
        self.queue.schedule(
            self.now + delay,
            Envelope {
                to,
                message,
                id,
                kind: EnvelopeKind::Deliver,
            },
        );
        if rel.duplicate > 0.0 && self.net_rng.gen::<f64>() < rel.duplicate {
            // The copy shares the original's delivery time (no second
            // latency draw) and lands right behind it in FIFO order; the
            // receiver's dedup makes it a no-op.
            self.ledger.duplicated += 1;
            self.ledger.sent += 1;
            self.ledger.in_flight_peak = self.ledger.in_flight_peak.max(self.ledger.in_flight());
            self.emit(Event::MessageDispatched {
                id,
                to: to.index() as u32,
                sim_time: self.now,
            });
            self.queue.schedule(
                self.now + delay,
                Envelope {
                    to,
                    message,
                    id,
                    kind: EnvelopeKind::Deliver,
                },
            );
        }
    }
}

/// A gossip protocol expressed as per-sensor actors: activations initiate
/// rounds, message handlers advance them. The scheduler owns time, the event
/// queue, and transmission/trace accounting; the protocol owns values and its
/// own round counters.
///
/// Handlers deliberately receive no activation RNG: the shared-memory oracle
/// consumes all of a tick's randomness inside the activation, so denying
/// handlers access to it makes stream divergence unrepresentable.
pub trait NetProtocol {
    /// A sensor's Poisson clock ticked: start a round (or record why not).
    fn on_activation(&mut self, node: NodeId, ctx: &mut NetContext<'_, '_>, rng: &mut dyn RngCore);

    /// A message addressed to `at` arrived.
    fn on_message(&mut self, at: NodeId, message: Message, ctx: &mut NetContext<'_, '_>);

    /// Current ℓ₂ error relative to the initial error (the stop metric).
    fn relative_error(&self) -> f64;

    /// Squared-domain error pair for the engine's convergence fast path.
    fn squared_error(&self) -> Option<SquaredError>;

    /// Display name; matches the shared-memory protocol it mirrors.
    fn name(&self) -> &str;

    /// Protocol counters (same keys as the shared-memory oracle).
    fn metrics(&self) -> Vec<(String, f64)>;
}

/// The simulated event-driven scheduler.
///
/// Like `AsyncEngine::new`, it samples the trace once per `n` ticks and
/// thins it geometrically above [`DEFAULT_MAX_TRACE_POINTS`]; unlike the
/// engine, it has no setter for either.
#[derive(Debug, Clone)]
pub struct NetScheduler {
    n: usize,
}

impl NetScheduler {
    /// A scheduler for a network of `n` sensors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (protocol constructors reject empty networks
    /// before a scheduler is ever built).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "the net scheduler needs at least one sensor");
        NetScheduler { n }
    }

    /// Runs `protocol` on a reliable wire with no node faults — the
    /// historical entry point; shorthand for [`NetScheduler::run_wire`] with
    /// a default (lossless) reliability block and no fault plan.
    pub fn run(
        &mut self,
        protocol: &mut dyn NetProtocol,
        stop: StopCondition,
        latency: LatencyModel,
        rng: &mut dyn RngCore,
        net_rng: &mut dyn RngCore,
    ) -> (EngineReport, MessageLedger) {
        self.run_wire(
            protocol,
            stop,
            latency,
            ReliabilitySpec::default(),
            None,
            rng,
            net_rng,
        )
    }

    /// Runs `protocol` under the given latency schedule, wire reliability,
    /// and optional node-fault plan until `stop` is met.
    ///
    /// `rng` is the activation stream (the runner's `"run"` trial stream);
    /// `net_rng` is the dedicated `"net"` trial stream consumed only by
    /// latency models that actually draw and by the drop/duplicate decisions
    /// of a lossy reliability block (see the module docs for the frozen draw
    /// order). `faults`, when present, must be pre-built from the dedicated
    /// `"faults"` trial stream; churn advances before each tick's activation
    /// and dead sensors consume their tick without acting, exactly like the
    /// shared-memory orchestrator.
    ///
    /// The stop check, the trace, and the report come from the engine's
    /// [`RunKernel`]; the scheduler adds only the two `deliver_due` drains
    /// around each activation. Pending messages (and retransmission timers)
    /// due by the tick's exact time are processed *before* the tick's
    /// activation (network catches up to the clock), and the activation's
    /// own cascade is drained *after* it (instant messages land within their
    /// tick). Stop checks therefore observe exactly the oracle's
    /// transmission totals on the instant schedule.
    #[allow(clippy::too_many_arguments)]
    pub fn run_wire(
        &mut self,
        protocol: &mut dyn NetProtocol,
        stop: StopCondition,
        latency: LatencyModel,
        reliability: ReliabilitySpec,
        faults: Option<&mut NetFaultPlan>,
        rng: &mut dyn RngCore,
        net_rng: &mut dyn RngCore,
    ) -> (EngineReport, MessageLedger) {
        self.run_wire_probed(
            protocol,
            stop,
            latency,
            reliability,
            faults,
            rng,
            net_rng,
            None,
        )
    }

    /// Runs `protocol` exactly like [`NetScheduler::run_wire`] — same loop,
    /// same draws, same report — while streaming telemetry events into
    /// `probe`. `run_wire` is this with `probe = None`; the unprobed path
    /// never constructs an event.
    #[allow(clippy::too_many_arguments)]
    pub fn run_wire_probed(
        &mut self,
        protocol: &mut dyn NetProtocol,
        stop: StopCondition,
        latency: LatencyModel,
        reliability: ReliabilitySpec,
        mut faults: Option<&mut NetFaultPlan>,
        rng: &mut dyn RngCore,
        net_rng: &mut dyn RngCore,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> (EngineReport, MessageLedger) {
        let mut clock = GlobalPoissonClock::new(self.n);
        let mut queue: EventQueue<Envelope> = EventQueue::new();
        let mut ledger = MessageLedger::default();
        let mut next_id: u64 = 0;
        // The id of the last envelope handed to a handler (see the module
        // docs for why one id suffices). Lossy ids start at 1, and lossless
        // ids are all 0 and never checked.
        let mut last_handled: u64 = 0;
        let mut kernel = RunKernel::new(
            stop,
            self.n as u64,
            DEFAULT_MAX_TRACE_POINTS,
            protocol.relative_error(),
            protocol.squared_error(),
        );

        let reason = loop {
            // A `NetProtocol` has no halt signal: only the error target and
            // the budgets stop a net run.
            if let Some(reason) = kernel.stop_reason(
                protocol.squared_error(),
                || protocol.relative_error(),
                false,
                &mut probe,
            ) {
                break reason;
            }

            let tick = clock.next_tick(&mut *rng);

            // Churn applies before the tick's activation is processed, then a
            // dead sensor's tick is consumed with nothing else — the same
            // ordering as the shared-memory orchestrator.
            if let Some(plan) = faults.as_deref_mut() {
                plan.advance_schedule(tick.index);
            }
            let node_dead = faults
                .as_deref()
                .is_some_and(|plan| !plan.is_alive(tick.node.index()));
            if node_dead {
                if let Some(plan) = faults.as_deref_mut() {
                    plan.record_dead_activation();
                }
                if let Some(probe) = probe.as_deref_mut() {
                    probe.on_event(Event::ActivationDead {
                        tick: tick.index,
                        node: tick.node.index() as u32,
                    });
                }
            }
            let (alive, stale): (&[bool], &[bool]) = faults
                .as_deref()
                .map_or((&[][..], &[][..]), |plan| plan.slices());

            deliver_due(
                protocol,
                &mut queue,
                tick.time,
                latency,
                reliability,
                net_rng,
                kernel.tx(),
                &mut ledger,
                &mut next_id,
                &mut last_handled,
                alive,
                stale,
                probe.as_deref_mut(),
            );
            if !node_dead {
                if stale.get(tick.node.index()).copied().unwrap_or(false) {
                    if let Some(probe) = probe.as_deref_mut() {
                        probe.on_event(Event::ActivationStale {
                            tick: tick.index,
                            node: tick.node.index() as u32,
                        });
                    }
                }
                let mut ctx = NetContext {
                    now: tick.time,
                    latency,
                    reliability,
                    net_rng: &mut *net_rng,
                    queue: &mut queue,
                    tx: kernel.tx(),
                    ledger: &mut ledger,
                    next_id: &mut next_id,
                    alive,
                    stale,
                    probe: probe.as_deref_mut(),
                };
                protocol.on_activation(tick.node, &mut ctx, rng);
            }
            deliver_due(
                protocol,
                &mut queue,
                tick.time,
                latency,
                reliability,
                net_rng,
                kernel.tx(),
                &mut ledger,
                &mut next_id,
                &mut last_handled,
                alive,
                stale,
                probe.as_deref_mut(),
            );
            kernel.commit(tick, || protocol.relative_error(), &mut probe);
        };

        let final_error = protocol.relative_error();
        (kernel.finish(reason, clock.now(), final_error), ledger)
    }
}

/// Processes every queued event due at or before `horizon`, in (time, send
/// sequence) order. Deliveries run at the event's own time, so a handler's
/// cascaded sends schedule from that moment — an instant cascade keeps
/// landing inside the same drain. Retransmission timers re-charge and
/// re-dispatch; deliveries to dead sensors are discarded; a delivery whose
/// nonzero id equals `last_handled`, the id of the last envelope handed to a
/// handler, is a redelivery and is suppressed (both still count as
/// `delivered` — they left the wire). The module docs show why a redelivery
/// always directly follows the delivery it repeats.
#[allow(clippy::too_many_arguments)]
fn deliver_due(
    protocol: &mut dyn NetProtocol,
    queue: &mut EventQueue<Envelope>,
    horizon: f64,
    latency: LatencyModel,
    reliability: ReliabilitySpec,
    net_rng: &mut dyn RngCore,
    tx: &mut TransmissionCounter,
    ledger: &mut MessageLedger,
    next_id: &mut u64,
    last_handled: &mut u64,
    alive: &[bool],
    stale: &[bool],
    mut probe: Option<&mut (dyn Probe + '_)>,
) {
    while queue.peek_time().is_some_and(|t| t <= horizon) {
        let event = queue.pop().expect("peek_time saw a due event");
        let Envelope {
            to,
            message,
            id,
            kind,
        } = event.payload;
        match kind {
            EnvelopeKind::Retry { attempt, charge } => {
                ledger.retried += 1;
                match charge {
                    ChargeKind::Local => tx.charge_local(1),
                    ChargeKind::Routed => tx.charge_routing(1),
                    ChargeKind::Free => {}
                }
                if let Some(probe) = probe.as_deref_mut() {
                    probe.on_event(Event::MessageRetried {
                        id,
                        to: to.index() as u32,
                        attempt,
                        sim_time: event.time,
                    });
                }
                let mut ctx = NetContext {
                    now: event.time,
                    latency,
                    reliability,
                    net_rng: &mut *net_rng,
                    queue,
                    tx,
                    ledger,
                    next_id,
                    alive,
                    stale,
                    probe: probe.as_deref_mut(),
                };
                ctx.dispatch(to, message, charge, id, attempt);
            }
            EnvelopeKind::Deliver => {
                ledger.delivered += 1;
                if let Some(probe) = probe.as_deref_mut() {
                    // Discarded and suppressed deliveries still emit: like the
                    // ledger, the event records that the message left the
                    // wire, not that a handler ran.
                    probe.on_event(Event::MessageDelivered {
                        id,
                        to: to.index() as u32,
                        sim_time: event.time,
                    });
                }
                if !alive.get(to.index()).copied().unwrap_or(true) {
                    // The recipient died while the message was in flight: the
                    // delivery is discarded (a dead sensor cannot act), and —
                    // deliberately — not retried: the ARQ covers wire loss,
                    // not crashed endpoints, which churn may later revive.
                    continue;
                }
                if id != 0 {
                    if id == *last_handled {
                        // The wire's copy of the message just handled:
                        // exactly-once handlers, at-least-once wire.
                        continue;
                    }
                    *last_handled = id;
                }
                let mut ctx = NetContext {
                    now: event.time,
                    latency,
                    reliability,
                    net_rng: &mut *net_rng,
                    queue,
                    tx,
                    ledger,
                    next_id,
                    alive,
                    stale,
                    probe: probe.as_deref_mut(),
                };
                protocol.on_message(to, message, &mut ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_sim::engine::StopReason;
    use geogossip_sim::transport::RetryPolicy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashSet;

    /// A sensor pair that ping-pongs one message per activation, for ledger
    /// and drain-order checks without any gossip semantics.
    struct PingPong {
        bounces: u64,
        error: f64,
    }

    impl NetProtocol for PingPong {
        fn on_activation(
            &mut self,
            node: NodeId,
            ctx: &mut NetContext<'_, '_>,
            _rng: &mut dyn RngCore,
        ) {
            let peer = NodeId(1 - node.index());
            ctx.send_local(peer, Message::Commit { value: 1.0 });
        }

        fn on_message(&mut self, _at: NodeId, _message: Message, _ctx: &mut NetContext<'_, '_>) {
            self.bounces += 1;
            self.error *= 0.5;
        }

        fn relative_error(&self) -> f64 {
            self.error
        }

        fn squared_error(&self) -> Option<SquaredError> {
            None
        }

        fn name(&self) -> &str {
            "ping-pong"
        }

        fn metrics(&self) -> Vec<(String, f64)> {
            vec![("bounces".to_string(), self.bounces as f64)]
        }
    }

    fn ping_pong() -> PingPong {
        PingPong {
            bounces: 0,
            error: 1.0,
        }
    }

    #[test]
    fn instant_schedule_delivers_within_the_tick() {
        let mut protocol = ping_pong();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net_rng = ChaCha8Rng::seed_from_u64(2);
        let (report, ledger) = NetScheduler::new(2).run(
            &mut protocol,
            StopCondition::at_epsilon(0.1),
            LatencyModel::Instant,
            &mut rng,
            &mut net_rng,
        );
        assert!(report.converged());
        // One message per tick, delivered the same tick: nothing in flight.
        assert_eq!(ledger.sent, ledger.delivered);
        assert_eq!(ledger.in_flight_peak, 1);
        assert_eq!(ledger.in_flight(), 0);
        assert_eq!(ledger.sent, report.ticks);
        assert_eq!(protocol.bounces, report.ticks);
        // Each send_local charged one transmission.
        assert_eq!(report.transmissions.local(), report.ticks);
    }

    #[test]
    fn instant_and_fixed_schedules_never_touch_the_net_stream() {
        for latency in [LatencyModel::Instant, LatencyModel::Fixed(0.25)] {
            let mut protocol = ping_pong();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut net_rng = ChaCha8Rng::seed_from_u64(4);
            let mut untouched = net_rng.clone();
            let _ = NetScheduler::new(2).run(
                &mut protocol,
                StopCondition::at_epsilon(0.1),
                latency,
                &mut rng,
                &mut net_rng,
            );
            assert_eq!(net_rng.next_u64(), untouched.next_u64());
        }
    }

    #[test]
    fn fixed_latency_keeps_messages_in_flight_at_stop() {
        let mut protocol = ping_pong();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net_rng = ChaCha8Rng::seed_from_u64(6);
        // A latency much longer than the whole run: no message ever lands.
        let (report, ledger) = NetScheduler::new(2).run(
            &mut protocol,
            StopCondition::at_epsilon(0.1).with_max_ticks(10),
            LatencyModel::Fixed(1.0e6),
            &mut rng,
            &mut net_rng,
        );
        assert_eq!(report.reason, StopReason::TickBudgetExhausted);
        assert_eq!(ledger.sent, 10);
        assert_eq!(ledger.delivered, 0);
        assert_eq!(ledger.in_flight(), 10);
        assert_eq!(ledger.in_flight_peak, 10);
        assert_eq!(protocol.bounces, 0);
    }

    #[test]
    fn total_loss_charges_every_attempt_then_abandons() {
        let mut protocol = ping_pong();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut net_rng = ChaCha8Rng::seed_from_u64(8);
        let reliability = ReliabilitySpec {
            drop: 0.999_999_999, // `gen::<f64>() < drop` fails with prob ~1e-9
            duplicate: 0.0,
            retry: RetryPolicy {
                timeout: 0.01,
                backoff: 2.0,
                max_retries: 2,
            },
        };
        let (report, ledger) = NetScheduler::new(2).run_wire(
            &mut protocol,
            StopCondition::at_epsilon(0.1).with_max_ticks(200),
            LatencyModel::Instant,
            reliability,
            None,
            &mut rng,
            &mut net_rng,
        );
        assert_eq!(report.reason, StopReason::TickBudgetExhausted);
        // Everything dropped: nothing delivered, nothing left in flight
        // except retry timers (which are not messages).
        assert_eq!(ledger.delivered, 0);
        assert_eq!(ledger.dropped, ledger.sent);
        assert_eq!(protocol.bounces, 0);
        // One original per tick; the rest of `sent` are retransmissions.
        assert_eq!(ledger.retried, ledger.sent - report.ticks);
        // Charge-before-drop on every attempt: each send and each
        // retransmission charged one local transmission.
        assert_eq!(report.transmissions.local(), ledger.sent);
        // With 200 ticks and 2 retries per message, chains exhaust.
        assert!(ledger.rounds_abandoned > 0);
        // No chain can retire more attempts than the policy allows.
        assert!(ledger.retried <= report.ticks * 2);
        assert_eq!(ledger.duplicated, 0);
    }

    #[test]
    fn certain_duplication_is_suppressed_by_receivers() {
        let mut protocol = ping_pong();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut net_rng = ChaCha8Rng::seed_from_u64(10);
        let reliability = ReliabilitySpec {
            drop: 0.0,
            duplicate: 0.999_999_999,
            retry: RetryPolicy::default(),
        };
        let (report, ledger) = NetScheduler::new(2).run_wire(
            &mut protocol,
            StopCondition::at_epsilon(0.1),
            LatencyModel::Instant,
            reliability,
            None,
            &mut rng,
            &mut net_rng,
        );
        assert!(report.converged());
        // Every original got one wire copy; both left the wire, but the
        // handler ran exactly once per message id.
        assert_eq!(ledger.duplicated, report.ticks);
        assert_eq!(ledger.sent, 2 * report.ticks);
        assert_eq!(ledger.delivered, ledger.sent);
        assert_eq!(protocol.bounces, report.ticks);
        assert_eq!(ledger.in_flight(), 0);
        // Duplicate copies are uncharged: still one transmission per tick.
        assert_eq!(report.transmissions.local(), report.ticks);
    }

    /// Passes a hop budget around a ring of sensors: every activation starts
    /// a relay, and every handled message forwards it while budget remains,
    /// so sends cascade out of handlers as well as activations.
    struct Relay {
        n: usize,
        handled: Vec<u64>,
    }

    impl NetProtocol for Relay {
        fn on_activation(
            &mut self,
            node: NodeId,
            ctx: &mut NetContext<'_, '_>,
            _rng: &mut dyn RngCore,
        ) {
            let next = NodeId((node.index() + 1) % self.n);
            ctx.send_local(next, Message::Commit { value: 3.0 });
        }

        fn on_message(&mut self, at: NodeId, message: Message, ctx: &mut NetContext<'_, '_>) {
            self.handled[at.index()] += 1;
            if let Message::Commit { value } = message {
                if value >= 1.0 {
                    let next = NodeId((at.index() + 1) % self.n);
                    ctx.send_routed(next, Message::Commit { value: value - 1.0 });
                }
            }
        }

        fn relative_error(&self) -> f64 {
            1.0
        }

        fn squared_error(&self) -> Option<SquaredError> {
            None
        }

        fn name(&self) -> &str {
            "relay"
        }

        fn metrics(&self) -> Vec<(String, f64)> {
            Vec::new()
        }
    }

    #[test]
    fn lossy_wire_handles_each_delivered_id_exactly_once() {
        use geogossip_telemetry::EventBuffer;
        let n = 8;
        let mut protocol = Relay {
            n,
            handled: vec![0; n],
        };
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut net_rng = ChaCha8Rng::seed_from_u64(14);
        let mut probe = EventBuffer::new();
        let reliability = ReliabilitySpec {
            drop: 0.2,
            duplicate: 0.2,
            retry: RetryPolicy {
                timeout: 0.25,
                backoff: 2.0,
                max_retries: 3,
            },
        };
        let (_, ledger) = NetScheduler::new(n).run_wire_probed(
            &mut protocol,
            StopCondition::at_epsilon(0.1).with_max_ticks(4000),
            // A mean latency of several activation gaps keeps many messages
            // in flight, so the wire delivers them out of send order.
            LatencyModel::Exponential { mean: 0.5 },
            reliability,
            None,
            &mut rng,
            &mut net_rng,
            Some(&mut probe),
        );
        assert!(ledger.dropped > 0 && ledger.retried > 0 && ledger.duplicated > 0);

        let delivered: Vec<(u64, usize)> = probe
            .events()
            .iter()
            .filter_map(|event| match *event {
                Event::MessageDelivered { id, to, .. } => Some((id, to as usize)),
                _ => None,
            })
            .collect();
        let mut first_seen = HashSet::new();
        let mut distinct_per_sensor = vec![0u64; n];
        let mut repeats = 0;
        for (k, &(id, to)) in delivered.iter().enumerate() {
            if first_seen.insert(id) {
                distinct_per_sensor[to] += 1;
            } else {
                // The invariant one-id suppression rests on: a redelivery
                // directly follows the delivery it repeats.
                assert_eq!(delivered[k - 1].0, id, "id {id} redelivered out of turn");
                repeats += 1;
            }
        }
        assert!(repeats > 0, "no duplicate copy was delivered");
        assert!(
            delivered.windows(2).any(|w| w[1].0 < w[0].0),
            "the wire never reordered messages"
        );
        // No sensor is ever dead here, so every distinct delivered id is
        // handled exactly once, at its recipient.
        assert_eq!(protocol.handled, distinct_per_sensor);
    }

    #[test]
    fn moderate_loss_with_retries_still_converges() {
        let mut protocol = ping_pong();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut net_rng = ChaCha8Rng::seed_from_u64(12);
        let reliability = ReliabilitySpec {
            drop: 0.3,
            duplicate: 0.05,
            retry: RetryPolicy::default(),
        };
        let (report, ledger) = NetScheduler::new(2).run_wire(
            &mut protocol,
            // Deep target: enough bounces (~100) to exercise drops, retries,
            // and duplicates with certainty at these rates.
            StopCondition::at_epsilon(1e-30).with_max_ticks(100_000),
            LatencyModel::Instant,
            reliability,
            None,
            &mut rng,
            &mut net_rng,
        );
        assert!(report.converged(), "{:?}", report.reason);
        assert!(ledger.dropped > 0);
        assert!(ledger.retried > 0);
        assert_eq!(
            ledger.sent,
            ledger.delivered + ledger.dropped + ledger.in_flight()
        );
    }

    #[test]
    fn ledger_metrics_use_the_documented_keys() {
        let ledger = MessageLedger {
            sent: 5,
            delivered: 3,
            in_flight_peak: 2,
            ..MessageLedger::default()
        };
        let metrics = ledger.metrics();
        let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "messages_sent",
                "messages_delivered",
                "messages_in_flight_peak"
            ]
        );
        assert_eq!(ledger.in_flight(), 2);
    }

    #[test]
    fn reliability_metrics_use_the_documented_keys() {
        let ledger = MessageLedger {
            dropped: 4,
            duplicated: 3,
            retried: 2,
            rounds_abandoned: 1,
            ..MessageLedger::default()
        };
        let metrics = ledger.reliability_metrics();
        let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "messages_dropped",
                "messages_duplicated",
                "messages_retried",
                "rounds_abandoned"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "at least one sensor")]
    fn zero_population_rejected() {
        let _ = NetScheduler::new(0);
    }
}
