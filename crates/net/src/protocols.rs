//! Message-passing actors for the pairwise and geographic gossip protocols.
//!
//! Each actor mirrors its shared-memory oracle (`geogossip_core::PairwiseGossip`,
//! `geogossip_core::GeographicGossip`) *exactly* on the instant-lossless
//! schedule. An activation is the oracle's own draw stage
//! ([`draw_partner`], [`draw_target`]), so the activation-stream RNG draws
//! are the oracle's by construction; the handlers keep the same
//! [`convex_average`] argument order, the same [`GossipState::set`] **write
//! order** (activated node first, partner second — the incremental error
//! accumulator makes write order bit-significant), the same transmission
//! charges, and the same counter semantics. `tests/net_parity.rs` pins all of
//! it against the oracle.
//!
//! Under non-instant schedules the decomposition changes behavior in exactly
//! the ways a real network would: values carried by messages can be stale by
//! the time they arrive, commits can overwrite writes that happened while the
//! round was in flight (so exact mass conservation is no longer guaranteed —
//! that loss *is* the measured degradation), and rounds still in flight when
//! the run stops are abandoned.

use crate::message::Message;
use crate::scheduler::{NetContext, NetProtocol};
use geogossip_core::geographic::draw_target;
use geogossip_core::pairwise::draw_partner;
use geogossip_core::prelude::convex_average;
use geogossip_core::GossipState;
use geogossip_geometry::point::NodeId;
use geogossip_graph::GeometricGraph;
use geogossip_routing::greedy::greedy_step_masked;
use geogossip_routing::TargetSelector;
use geogossip_sim::batch::TickPlan;
use geogossip_sim::engine::SquaredError;
use geogossip_sim::ProtocolError;
use geogossip_telemetry::Event;
use rand::RngCore;

/// Validation shared by both actors, mirroring the oracle constructors.
fn check_network(graph: &GeometricGraph, values: &[f64]) -> Result<(), ProtocolError> {
    if graph.is_empty() {
        return Err(ProtocolError::EmptyNetwork);
    }
    if values.len() != graph.len() {
        return Err(ProtocolError::ValueLengthMismatch {
            nodes: graph.len(),
            values: values.len(),
        });
    }
    Ok(())
}

/// Pairwise nearest-neighbor gossip (Boyd et al.) as message-passing actors.
///
/// A round is three messages: the activated sensor offers its value to a
/// uniform neighbor ([`Message::Exchange`], one local transmission), the
/// neighbor answers with the convex average without committing
/// ([`Message::AveragingReply`], one local transmission), and the activated
/// sensor commits first then releases the neighbor's commit
/// ([`Message::Commit`], uncharged). Total charge: `charge_local(2)`, like
/// the oracle; commit order: activated node before neighbor, like the
/// oracle's single-step double write.
pub struct PairwiseNet<'a> {
    graph: &'a GeometricGraph,
    state: GossipState,
    exchanges: u64,
    isolated_activations: u64,
}

impl<'a> PairwiseNet<'a> {
    /// Creates the actor set over `graph` with one initial value per sensor.
    pub fn new(graph: &'a GeometricGraph, values: Vec<f64>) -> Result<Self, ProtocolError> {
        check_network(graph, &values)?;
        Ok(PairwiseNet {
            graph,
            state: GossipState::new(values),
            exchanges: 0,
            isolated_activations: 0,
        })
    }

    /// Read access to the value state (for tests and inspection).
    pub fn state(&self) -> &GossipState {
        &self.state
    }
}

impl NetProtocol for PairwiseNet<'_> {
    fn on_activation(&mut self, node: NodeId, ctx: &mut NetContext<'_, '_>, rng: &mut dyn RngCore) {
        let TickPlan::Pair { partner } = draw_partner(self.graph, node, ctx.alive_mask(), rng)
        else {
            self.isolated_activations += 1;
            return;
        };
        ctx.send_local(
            partner,
            Message::Exchange {
                origin: node,
                value: self.state.value(node.index()),
            },
        );
    }

    fn on_message(&mut self, at: NodeId, message: Message, ctx: &mut NetContext<'_, '_>) {
        match message {
            Message::Exchange { origin, value } => {
                // Oracle argument order: activated node's value first.
                let (avg, _) = convex_average(value, self.state.value(at.index()));
                ctx.send_local(
                    origin,
                    Message::AveragingReply {
                        origin: at,
                        value: avg,
                    },
                );
            }
            Message::AveragingReply { origin, value } => {
                // A stale sensor skips its own write but still releases the
                // partner's commit — the oracle's stale-guarded double write.
                if !ctx.is_stale(at.index()) {
                    self.state.set(at.index(), value);
                }
                ctx.send_free(origin, Message::Commit { value });
            }
            Message::Commit { value } => {
                if !ctx.is_stale(at.index()) {
                    self.state.set(at.index(), value);
                }
                self.exchanges += 1;
            }
            other => unreachable!("pairwise actors never receive routing messages: {other:?}"),
        }
    }

    fn relative_error(&self) -> f64 {
        self.state.relative_error()
    }

    fn squared_error(&self) -> Option<SquaredError> {
        Some(SquaredError {
            current_sq: self.state.deviation_sq(),
            initial: self.state.initial_deviation(),
        })
    }

    fn name(&self) -> &str {
        "pairwise (Boyd)"
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("exchanges".to_string(), self.exchanges as f64),
            (
                "isolated_activations".to_string(),
                self.isolated_activations as f64,
            ),
        ]
    }
}

/// Geographic gossip (Dimakis et al.) as message-passing actors.
///
/// A round is a greedy-routed request forwarded hop by hop toward the target
/// ([`Message::RouteRequest`], one routing transmission per hop), a reply
/// carrying the terminus' value greedy-routed back ([`Message::RouteReply`],
/// one routing transmission per hop), and the commit handshake
/// ([`Message::Commit`], uncharged). Per-hop charges over the round trip sum
/// to the oracle's lump `charge_routing(outbound + back)`.
///
/// Route failures mirror the oracle's accounting: a node-addressed request
/// whose greedy walk dead-ends short of its destination counts one failed
/// route (the exchange still happens with the terminus), and a return walk
/// that dead-ends counts another — the oracle then completes the exchange
/// through shared memory, modeled here as an uncharged direct handoff.
pub struct GeographicNet<'a> {
    graph: &'a GeometricGraph,
    state: GossipState,
    selector: TargetSelector,
    exchanges: u64,
    failed_routes: u64,
}

impl<'a> GeographicNet<'a> {
    /// Creates the actor set with the paper's default partner selection
    /// (nearest node to a uniform position), mirroring
    /// `GeographicGossip::new`.
    pub fn new(graph: &'a GeometricGraph, values: Vec<f64>) -> Result<Self, ProtocolError> {
        GeographicNet::with_selector(graph, values, TargetSelector::NearestToUniformPosition)
    }

    /// Creates the actor set with the given partner-selection rule.
    ///
    /// Supported selectors: [`TargetSelector::NearestToUniformPosition`] and
    /// [`TargetSelector::UniformByIndex`]. The rejection-sampled selector is
    /// a shared-memory precomputation and has no message-passing form; the
    /// runtime rejects it before construction.
    pub fn with_selector(
        graph: &'a GeometricGraph,
        values: Vec<f64>,
        selector: TargetSelector,
    ) -> Result<Self, ProtocolError> {
        check_network(graph, &values)?;
        Ok(GeographicNet {
            graph,
            state: GossipState::new(values),
            selector,
            exchanges: 0,
            failed_routes: 0,
        })
    }

    /// Read access to the value state (for tests and inspection).
    pub fn state(&self) -> &GossipState {
        &self.state
    }

    /// Starts the return leg from terminus `p` back to the activated sensor
    /// `s`, carrying `p`'s current value.
    fn begin_reply(&mut self, p: NodeId, s: NodeId, ctx: &mut NetContext<'_, '_>) {
        let reply = Message::RouteReply {
            origin: p,
            dest: s,
            value: self.state.value(p.index()),
        };
        match greedy_step_masked(self.graph, p, self.graph.position(s), ctx.alive_mask()) {
            Some(next) => ctx.send_routed(next, reply),
            None => {
                // Zero-hop dead end on the return walk: the oracle counts the
                // failed route and reads through shared memory (back.hops = 0,
                // nothing charged). Model the read as an uncharged handoff.
                self.failed_routes += 1;
                ctx.send_free(s, reply);
            }
        }
    }
}

impl NetProtocol for GeographicNet<'_> {
    fn on_activation(&mut self, node: NodeId, ctx: &mut NetContext<'_, '_>, rng: &mut dyn RngCore) {
        // Every greedy hop detours around dead sensors while any exist, so
        // iterating the steps reproduces the oracle's masked walk hop for hop.
        let (target, dest) = match draw_target(self.graph, &self.selector, node, rng) {
            TickPlan::RoutePosition { target } => (target, None),
            TickPlan::RouteNode { target } => (self.graph.position(target), Some(target)),
            // A sub-2-node network, or a selector that drew nobody.
            _ => return,
        };
        match greedy_step_masked(self.graph, node, target, ctx.alive_mask()) {
            Some(next) => ctx.send_routed(
                next,
                Message::RouteRequest {
                    origin: node,
                    target,
                    dest,
                    hops: 1,
                },
            ),
            // The activated sensor is already the greedy terminus of a
            // position-addressed round: the oracle's partner == s early
            // return, uncharged.
            None if dest.is_none() => {}
            None => {
                // Dead end at hop zero: the terminus is the activated sensor
                // itself, so the route is undelivered (the partner is a
                // distinct node) and the oracle then drops the round at its
                // partner == s check, uncharged.
                self.failed_routes += 1;
                ctx.emit(Event::RouteResolved {
                    origin: node.index() as u32,
                    terminus: node.index() as u32,
                    hops: 0,
                    delivered: false,
                    sim_time: ctx.now(),
                });
            }
        }
    }

    fn on_message(&mut self, at: NodeId, message: Message, ctx: &mut NetContext<'_, '_>) {
        match message {
            Message::RouteRequest {
                origin,
                target,
                dest,
                hops,
            } => match greedy_step_masked(self.graph, at, target, ctx.alive_mask()) {
                Some(next) => ctx.send_routed(
                    next,
                    Message::RouteRequest {
                        origin,
                        target,
                        dest,
                        hops: hops + 1,
                    },
                ),
                None => {
                    // `at` is the greedy terminus. A node-addressed route that
                    // stopped short of its destination is a failed delivery
                    // (the exchange still proceeds with the terminus).
                    let delivered = dest.is_none_or(|d| d == at);
                    if !delivered {
                        self.failed_routes += 1;
                    }
                    ctx.emit(Event::RouteResolved {
                        origin: origin.index() as u32,
                        terminus: at.index() as u32,
                        hops,
                        delivered,
                        sim_time: ctx.now(),
                    });
                    self.begin_reply(at, origin, ctx);
                }
            },
            Message::RouteReply {
                origin,
                dest,
                value,
            } => {
                if at == dest {
                    // The activated sensor completes the round: oracle
                    // argument order (its own value first) and oracle write
                    // order (itself first, partner second via the commit) —
                    // each write stale-guarded like the oracle's.
                    let (new_s, new_p) = convex_average(self.state.value(at.index()), value);
                    if !ctx.is_stale(at.index()) {
                        self.state.set(at.index(), new_s);
                    }
                    ctx.send_free(origin, Message::Commit { value: new_p });
                } else {
                    match greedy_step_masked(
                        self.graph,
                        at,
                        self.graph.position(dest),
                        ctx.alive_mask(),
                    ) {
                        Some(next) => ctx.send_routed(
                            next,
                            Message::RouteReply {
                                origin,
                                dest,
                                value,
                            },
                        ),
                        None => {
                            // Return walk dead-ends mid-route: count the
                            // failure and hand off unchanged, like the
                            // oracle's shared-memory completion.
                            self.failed_routes += 1;
                            ctx.send_free(
                                dest,
                                Message::RouteReply {
                                    origin,
                                    dest,
                                    value,
                                },
                            );
                        }
                    }
                }
            }
            Message::Commit { value } => {
                if !ctx.is_stale(at.index()) {
                    self.state.set(at.index(), value);
                }
                self.exchanges += 1;
            }
            other => unreachable!("geographic actors never receive pairwise messages: {other:?}"),
        }
    }

    fn relative_error(&self) -> f64 {
        self.state.relative_error()
    }

    fn squared_error(&self) -> Option<SquaredError> {
        Some(SquaredError {
            current_sq: self.state.deviation_sq(),
            initial: self.state.initial_deviation(),
        })
    }

    fn name(&self) -> &str {
        "geographic (Dimakis)"
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("exchanges".to_string(), self.exchanges as f64),
            ("failed_routes".to_string(), self.failed_routes as f64),
        ]
    }
}
