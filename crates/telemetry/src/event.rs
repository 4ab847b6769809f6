//! The typed, deterministic event vocabulary.
//!
//! Every variant carries only simulation state: tick indices, node indices,
//! sim-time (the Poisson clock's time axis), message ids, and counter values.
//! Nothing here may ever be populated from the wall clock — that invariant is
//! what makes a probed run's event stream byte-identical across reruns and
//! thread counts (see the determinism CI job, which diffs `events.jsonl`
//! byte-for-byte).

use geogossip_analysis::json::JsonValue;

/// One structured telemetry event.
///
/// The JSON rendering ([`Event::to_json_value`]) is part of the determinism
/// contract: field order is fixed (the `event` tag first, then fields in
/// declaration order) and numbers use the workspace JSON writer's
/// shortest-round-trip formatting, so two runs that emit the same events
/// produce the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A scenario trial is about to run.
    TrialStarted {
        /// Scenario name from the spec.
        scenario: String,
        /// Trial index within the scenario.
        trial: u64,
    },
    /// A scenario trial finished.
    TrialFinished {
        /// Scenario name from the spec.
        scenario: String,
        /// Trial index within the scenario.
        trial: u64,
        /// Stop reason token (`converged`, `tick-budget`, …).
        reason: String,
        /// Ticks the engine committed.
        ticks: u64,
        /// Total transmissions charged.
        transmissions: u64,
    },
    /// The engine committed one global-clock tick.
    TickCommitted {
        /// Global tick index (1-based, matching `EngineReport::ticks`).
        tick: u64,
        /// The activated node.
        node: u32,
        /// Cumulative transmissions after the tick.
        transmissions: u64,
    },
    /// A greedy geographic route reached its terminus (or dead-ended).
    RouteResolved {
        /// The activated node that initiated the route.
        origin: u32,
        /// The node where the greedy walk stopped.
        terminus: u32,
        /// Hops taken on the outbound leg.
        hops: u32,
        /// Whether the route reached its intended destination (always true
        /// for position-addressed routes, where the terminus *is* the
        /// partner).
        delivered: bool,
        /// Sim-time at resolution.
        sim_time: f64,
    },
    /// The transport accepted a message for delivery.
    MessageDispatched {
        /// Ledger message id (`0` on the lossless fast path, which never
        /// allocates ids).
        id: u64,
        /// Recipient node.
        to: u32,
        /// Sim-time of the dispatch.
        sim_time: f64,
    },
    /// A message reached its recipient.
    MessageDelivered {
        /// Ledger message id.
        id: u64,
        /// Recipient node.
        to: u32,
        /// Sim-time of the delivery.
        sim_time: f64,
    },
    /// The wire dropped a transmission attempt.
    MessageDropped {
        /// Ledger message id.
        id: u64,
        /// Recipient node.
        to: u32,
        /// 1-based attempt number that was lost.
        attempt: u32,
        /// Sim-time of the loss.
        sim_time: f64,
    },
    /// A retry timer fired and the message was re-sent.
    MessageRetried {
        /// Ledger message id.
        id: u64,
        /// Recipient node.
        to: u32,
        /// 1-based attempt number now in flight.
        attempt: u32,
        /// Sim-time of the retransmission.
        sim_time: f64,
    },
    /// The clock activated a churned-out (dead) node; the tick was consumed
    /// without an activation.
    ActivationDead {
        /// Global tick index.
        tick: u64,
        /// The dead node.
        node: u32,
    },
    /// An activation was lost to the fault plan's activation drop rate.
    ActivationLost {
        /// Global tick index.
        tick: u64,
        /// The activated node whose round was lost.
        node: u32,
    },
    /// A stale-value node was activated (it gossips but never updates).
    ActivationStale {
        /// Global tick index.
        tick: u64,
        /// The stale node.
        node: u32,
    },
    /// The relative error first crossed the convergence threshold ε.
    ConvergenceCrossed {
        /// Ticks committed when the crossing was detected.
        tick: u64,
        /// Transmissions charged at the crossing.
        transmissions: u64,
        /// The relative error that satisfied the threshold.
        relative_error: f64,
    },
    /// A sweep cell is about to run.
    CellStarted {
        /// Cell index within the expanded sweep grid.
        index: u64,
        /// Cell scenario name.
        name: String,
    },
    /// A sweep cell finished; the counters are the per-cell summary.
    CellFinished {
        /// Cell index within the expanded sweep grid.
        index: u64,
        /// Cell scenario name.
        name: String,
        /// Trials the cell ran.
        trials: u64,
        /// How many of them converged.
        converged_trials: u64,
        /// Ticks summed over the cell's trials.
        ticks: u64,
        /// Transmissions summed over the cell's trials.
        transmissions: u64,
    },
}

impl Event {
    /// The stable kebab-case tag identifying the variant in JSON output.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TrialStarted { .. } => "trial-started",
            Event::TrialFinished { .. } => "trial-finished",
            Event::TickCommitted { .. } => "tick-committed",
            Event::RouteResolved { .. } => "route-resolved",
            Event::MessageDispatched { .. } => "message-dispatched",
            Event::MessageDelivered { .. } => "message-delivered",
            Event::MessageDropped { .. } => "message-dropped",
            Event::MessageRetried { .. } => "message-retried",
            Event::ActivationDead { .. } => "activation-dead",
            Event::ActivationLost { .. } => "activation-lost",
            Event::ActivationStale { .. } => "activation-stale",
            Event::ConvergenceCrossed { .. } => "convergence-crossed",
            Event::CellStarted { .. } => "cell-started",
            Event::CellFinished { .. } => "cell-finished",
        }
    }

    /// Renders the event as a JSON object with a fixed field order.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields: Vec<(&str, JsonValue)> = vec![("event", JsonValue::string(self.kind()))];
        match self {
            Event::TrialStarted { scenario, trial } => {
                fields.push(("scenario", JsonValue::string(scenario.clone())));
                fields.push(("trial", (*trial).into()));
            }
            Event::TrialFinished {
                scenario,
                trial,
                reason,
                ticks,
                transmissions,
            } => {
                fields.push(("scenario", JsonValue::string(scenario.clone())));
                fields.push(("trial", (*trial).into()));
                fields.push(("reason", JsonValue::string(reason.clone())));
                fields.push(("ticks", (*ticks).into()));
                fields.push(("transmissions", (*transmissions).into()));
            }
            Event::TickCommitted {
                tick,
                node,
                transmissions,
            } => {
                fields.push(("tick", (*tick).into()));
                fields.push(("node", (*node as u64).into()));
                fields.push(("transmissions", (*transmissions).into()));
            }
            Event::RouteResolved {
                origin,
                terminus,
                hops,
                delivered,
                sim_time,
            } => {
                fields.push(("origin", (*origin as u64).into()));
                fields.push(("terminus", (*terminus as u64).into()));
                fields.push(("hops", (*hops as u64).into()));
                fields.push(("delivered", (*delivered).into()));
                fields.push(("sim-time", (*sim_time).into()));
            }
            Event::MessageDispatched { id, to, sim_time } => {
                fields.push(("id", (*id).into()));
                fields.push(("to", (*to as u64).into()));
                fields.push(("sim-time", (*sim_time).into()));
            }
            Event::MessageDelivered { id, to, sim_time } => {
                fields.push(("id", (*id).into()));
                fields.push(("to", (*to as u64).into()));
                fields.push(("sim-time", (*sim_time).into()));
            }
            Event::MessageDropped {
                id,
                to,
                attempt,
                sim_time,
            } => {
                fields.push(("id", (*id).into()));
                fields.push(("to", (*to as u64).into()));
                fields.push(("attempt", (*attempt as u64).into()));
                fields.push(("sim-time", (*sim_time).into()));
            }
            Event::MessageRetried {
                id,
                to,
                attempt,
                sim_time,
            } => {
                fields.push(("id", (*id).into()));
                fields.push(("to", (*to as u64).into()));
                fields.push(("attempt", (*attempt as u64).into()));
                fields.push(("sim-time", (*sim_time).into()));
            }
            Event::ActivationDead { tick, node } => {
                fields.push(("tick", (*tick).into()));
                fields.push(("node", (*node as u64).into()));
            }
            Event::ActivationLost { tick, node } => {
                fields.push(("tick", (*tick).into()));
                fields.push(("node", (*node as u64).into()));
            }
            Event::ActivationStale { tick, node } => {
                fields.push(("tick", (*tick).into()));
                fields.push(("node", (*node as u64).into()));
            }
            Event::ConvergenceCrossed {
                tick,
                transmissions,
                relative_error,
            } => {
                fields.push(("tick", (*tick).into()));
                fields.push(("transmissions", (*transmissions).into()));
                fields.push(("relative-error", (*relative_error).into()));
            }
            Event::CellStarted { index, name } => {
                fields.push(("index", (*index).into()));
                fields.push(("name", JsonValue::string(name.clone())));
            }
            Event::CellFinished {
                index,
                name,
                trials,
                converged_trials,
                ticks,
                transmissions,
            } => {
                fields.push(("index", (*index).into()));
                fields.push(("name", JsonValue::string(name.clone())));
                fields.push(("trials", (*trials).into()));
                fields.push(("converged-trials", (*converged_trials).into()));
                fields.push(("ticks", (*ticks).into()));
                fields.push(("transmissions", (*transmissions).into()));
            }
        }
        JsonValue::object(fields)
    }

    /// Renders the event as one compact JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json_value().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_leads_and_field_order_is_stable() {
        let event = Event::TickCommitted {
            tick: 7,
            node: 3,
            transmissions: 14,
        };
        assert_eq!(
            event.to_jsonl(),
            r#"{"event":"tick-committed","tick":7,"node":3,"transmissions":14}"#
        );
    }

    #[test]
    fn every_variant_renders_its_kind() {
        let events = vec![
            Event::TrialStarted {
                scenario: "s".into(),
                trial: 0,
            },
            Event::TrialFinished {
                scenario: "s".into(),
                trial: 0,
                reason: "converged".into(),
                ticks: 1,
                transmissions: 2,
            },
            Event::TickCommitted {
                tick: 1,
                node: 0,
                transmissions: 0,
            },
            Event::RouteResolved {
                origin: 0,
                terminus: 1,
                hops: 2,
                delivered: true,
                sim_time: 0.25,
            },
            Event::MessageDispatched {
                id: 1,
                to: 2,
                sim_time: 0.0,
            },
            Event::MessageDelivered {
                id: 1,
                to: 2,
                sim_time: 0.0,
            },
            Event::MessageDropped {
                id: 1,
                to: 2,
                attempt: 1,
                sim_time: 0.0,
            },
            Event::MessageRetried {
                id: 1,
                to: 2,
                attempt: 2,
                sim_time: 0.0,
            },
            Event::ActivationDead { tick: 1, node: 0 },
            Event::ActivationLost { tick: 1, node: 0 },
            Event::ActivationStale { tick: 1, node: 0 },
            Event::ConvergenceCrossed {
                tick: 9,
                transmissions: 18,
                relative_error: 0.05,
            },
            Event::CellStarted {
                index: 0,
                name: "cell".into(),
            },
            Event::CellFinished {
                index: 0,
                name: "cell".into(),
                trials: 2,
                converged_trials: 2,
                ticks: 10,
                transmissions: 20,
            },
        ];
        for event in events {
            let line = event.to_jsonl();
            assert!(
                line.starts_with(&format!(r#"{{"event":"{}""#, event.kind())),
                "bad line: {line}"
            );
            // Round-trips through the workspace JSON parser.
            let parsed = JsonValue::parse(&line).expect("valid JSON");
            assert_eq!(parsed.get("event").unwrap().as_str(), Some(event.kind()));
        }
    }
}
