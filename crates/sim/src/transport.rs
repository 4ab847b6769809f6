//! The transport schema: how a scenario's protocol is *executed*.
//!
//! By default every scenario runs on the shared-memory [`AsyncEngine`]: one
//! `GossipState`, activations mutating it in place. The optional `transport`
//! key on a [`ScenarioSpec`] switches the trial onto a **message-passing
//! runtime** (implemented by `geogossip-net` and attached to the runner as a
//! [`TransportRuntime`]): each sensor becomes an actor with an inbox,
//! protocol steps become typed messages with per-message delivery times drawn
//! from a [`LatencyModel`], and the trial additionally reports a message cost
//! ledger (sent / delivered / in-flight peak).
//!
//! # Schema stability
//!
//! The `transport` key is strictly additive, like `faults` before it: a spec
//! without the key never constructs the net layer and is bit-identical to the
//! pre-transport output. All transport randomness (latency draws, wire drop
//! and duplication decisions) comes from the dedicated
//! `(seed, trial, `[`NET_STREAM_LABEL`]`)` stream, and the instant and fixed
//! models draw **nothing** from it — the stream's consumption pattern is part
//! of the schema, exactly like the fault stream.
//!
//! The optional `reliability` block makes the wire itself unreliable. Its
//! per-message draw order is frozen: **latency first, then drop, then
//! duplicate** — and the drop (duplicate) draw only happens when the drop
//! (duplication) probability is strictly positive, so a lossless
//! `reliability` block consumes exactly the draws the no-reliability
//! schedule consumes and stays bit-identical to it (pinned by
//! `tests/net_reliability.rs`).
//!
//! [`AsyncEngine`]: crate::engine::AsyncEngine
//! [`ScenarioSpec`]: crate::scenario::ScenarioSpec

use crate::engine::{EngineReport, StopCondition};
use crate::error::ProtocolError;
use crate::fault::FaultSpec;
use crate::scenario::spec::ProtocolSpec;
use crate::schema::{number, one_of, whole, Fields};
use geogossip_analysis::json::JsonValue;
use geogossip_graph::GeometricGraph;
use geogossip_telemetry::Probe;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The dedicated seed-stream label for transport-layer randomness
/// (per-message latency draws): `seeds.trial(NET_STREAM_LABEL, trial)`.
///
/// Changing this constant (or what is drawn from the stream on a given
/// latency model) is a **schema change**: it silently alters every committed
/// net-transport scenario. The instant and fixed models must consume nothing
/// from it — `tests/net_parity.rs` pins that discipline.
pub const NET_STREAM_LABEL: &str = "net";

/// Per-message delivery-delay model of the simulated network.
///
/// Delays are in simulation-time units (the global Poisson clock ticks at
/// rate `n`, so one unit of time ≈ one activation per sensor).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Zero-delay delivery: every message sent during an activation is
    /// delivered (and its cascade fully drained) before the next clock tick.
    /// This is the oracle schedule — bit-identical to the shared-memory
    /// engine — and draws nothing from the net stream.
    #[default]
    Instant,
    /// Every message takes exactly this many time units. Deterministic, so
    /// it also draws nothing from the net stream.
    Fixed(f64),
    /// Exponentially distributed delay with the given mean, drawn per
    /// message from the dedicated net stream.
    Exponential {
        /// Mean delay in simulation-time units (must be positive).
        mean: f64,
    },
}

impl LatencyModel {
    /// Draws one delivery delay. Only [`LatencyModel::Exponential`] consumes
    /// randomness; the other models leave `net_rng` untouched (part of the
    /// stream-label-as-schema contract).
    pub fn sample<R: Rng + ?Sized>(&self, net_rng: &mut R) -> f64 {
        match self {
            LatencyModel::Instant => 0.0,
            LatencyModel::Fixed(delay) => *delay,
            LatencyModel::Exponential { mean } => {
                geogossip_geometry::sampling::exponential(1.0 / mean, net_rng)
            }
        }
    }

    /// The mean delay of the model — the severity coordinate used by the
    /// lab's latency-degradation verdicts.
    pub fn mean(&self) -> f64 {
        match self {
            LatencyModel::Instant => 0.0,
            LatencyModel::Fixed(delay) => *delay,
            LatencyModel::Exponential { mean } => *mean,
        }
    }
}

/// The largest retransmission budget a spec may ask for, 64 (21× the
/// default of 3). A larger budget lets one message retry on and on inside a
/// single drain, where no budget is checked, and the wire keeps one queue
/// lane per attempt number.
pub const MAX_RETRIES: u32 = 64;

/// Timeout/retry policy of the unreliable wire: how a sender reacts to a
/// message the wire dropped. The first retransmission fires `timeout` after
/// the drop, the `k`-th after `timeout · backoff^(k-1)`, up to `max_retries`
/// retransmissions; exhausting the budget abandons the message (and with it
/// the gossip round it carried).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Base retransmission delay in simulation-time units (finite, > 0).
    pub timeout: f64,
    /// Exponential backoff multiplier applied per retransmission (finite,
    /// ≥ 1; `1.0` = constant timeout).
    pub backoff: f64,
    /// Retransmission budget per message (at most [`MAX_RETRIES`]); `0`
    /// disables retries entirely.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: 0.25,
            backoff: 2.0,
            max_retries: 3,
        }
    }
}

/// The unreliable-wire model under `transport.reliability`: per-message drop
/// and duplication probabilities, plus the [`RetryPolicy`] governing
/// retransmissions. The default block is lossless and decodes/renders as the
/// absent key — schema stability, like `faults` and `transport` themselves.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ReliabilitySpec {
    /// Probability a sent message is dropped by the wire (in `[0, 1)`).
    pub drop: f64,
    /// Probability a delivered message arrives twice (in `[0, 1)`).
    pub duplicate: f64,
    /// Timeout/retry/backoff policy for dropped messages.
    pub retry: RetryPolicy,
}

impl ReliabilitySpec {
    /// `true` when the wire never drops or duplicates — the configuration
    /// that must be bit-identical to the no-reliability schedule (the retry
    /// policy is then irrelevant: no drop ever arms a timer).
    pub fn is_lossless(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0
    }

    /// Validates the block; errors name the `transport.reliability.…` path.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if !self.drop.is_finite() || !(0.0..1.0).contains(&self.drop) {
            return Err(ProtocolError::invalid(
                "transport.reliability.drop",
                "must be a probability in [0, 1)",
            ));
        }
        if !self.duplicate.is_finite() || !(0.0..1.0).contains(&self.duplicate) {
            return Err(ProtocolError::invalid(
                "transport.reliability.duplicate",
                "must be a probability in [0, 1)",
            ));
        }
        if !self.retry.timeout.is_finite() || self.retry.timeout <= 0.0 {
            return Err(ProtocolError::invalid(
                "transport.reliability.retry.timeout",
                "must be a finite positive delay",
            ));
        }
        if !self.retry.backoff.is_finite() || self.retry.backoff < 1.0 {
            return Err(ProtocolError::invalid(
                "transport.reliability.retry.backoff",
                "must be a finite multiplier >= 1",
            ));
        }
        if self.retry.max_retries > MAX_RETRIES {
            return Err(ProtocolError::invalid(
                "transport.reliability.retry.max-retries",
                format!(
                    "must be at most {MAX_RETRIES}, got {}",
                    self.retry.max_retries
                ),
            ));
        }
        Ok(())
    }

    /// Serialises to the JSON `reliability` object, omitting default-valued
    /// keys (an all-default block renders as `{}` and is itself omitted by
    /// [`TransportSpec::to_json_value`]).
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields: Vec<(&str, JsonValue)> = Vec::new();
        if self.drop != 0.0 {
            fields.push(("drop", self.drop.into()));
        }
        if self.duplicate != 0.0 {
            fields.push(("duplicate", self.duplicate.into()));
        }
        if self.retry != RetryPolicy::default() {
            let default = RetryPolicy::default();
            let mut retry: Vec<(&str, JsonValue)> = Vec::new();
            if self.retry.timeout != default.timeout {
                retry.push(("timeout", self.retry.timeout.into()));
            }
            if self.retry.backoff != default.backoff {
                retry.push(("backoff", self.retry.backoff.into()));
            }
            if self.retry.max_retries != default.max_retries {
                retry.push(("max-retries", (self.retry.max_retries as f64).into()));
            }
            fields.push(("retry", JsonValue::object(retry)));
        }
        JsonValue::object(fields)
    }

    /// Decodes a `transport.reliability` object; unknown keys hard-error.
    pub fn decode(doc: &JsonValue) -> Result<Self, ProtocolError> {
        let reliability = Fields::new(
            doc,
            "transport.reliability",
            &["drop", "duplicate", "retry"],
        )?;
        let retry = |value: &JsonValue, path: &str| {
            let retry = Fields::new(value, path, &["timeout", "backoff", "max-retries"])?;
            let default = RetryPolicy::default();
            Ok(RetryPolicy {
                timeout: retry
                    .optional("timeout", number)?
                    .unwrap_or(default.timeout),
                backoff: retry
                    .optional("backoff", number)?
                    .unwrap_or(default.backoff),
                max_retries: retry
                    .optional("max-retries", whole)?
                    .unwrap_or(default.max_retries),
            })
        };
        Ok(ReliabilitySpec {
            drop: reliability.optional("drop", number)?.unwrap_or(0.0),
            duplicate: reliability.optional("duplicate", number)?.unwrap_or(0.0),
            retry: reliability.optional("retry", retry)?.unwrap_or_default(),
        })
    }
}

/// The declarative transport model of a scenario. Absent from the JSON
/// schema = shared-memory engine; present = message-passing runtime with the
/// given latency model (`{"latency": "instant"}` runs the net layer on the
/// oracle schedule) and wire-reliability model (absent = lossless wire).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TransportSpec {
    /// Per-message delivery-delay model.
    pub latency: LatencyModel,
    /// Wire drop/duplication model with its retry policy (default =
    /// lossless, bit-identical to omitting the key).
    pub reliability: ReliabilitySpec,
}

impl TransportSpec {
    /// A transport with the given latency model and a lossless wire — the
    /// pre-reliability spelling, kept as the convenient constructor.
    pub fn with_latency(latency: LatencyModel) -> Self {
        TransportSpec {
            latency,
            ..TransportSpec::default()
        }
    }

    /// Validates every transport parameter. Errors name the offending spec
    /// path (`transport.latency.…`, `transport.reliability.…`), matching the
    /// fault-spec convention.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        match self.latency {
            LatencyModel::Instant => {}
            LatencyModel::Fixed(delay) => {
                if !delay.is_finite() || delay < 0.0 {
                    return Err(ProtocolError::invalid(
                        "transport.latency.fixed",
                        "must be a finite non-negative delay",
                    ));
                }
            }
            LatencyModel::Exponential { mean } => {
                if !mean.is_finite() || mean <= 0.0 {
                    return Err(ProtocolError::invalid(
                        "transport.latency.exp.mean",
                        "must be a finite positive mean delay",
                    ));
                }
            }
        }
        self.reliability.validate()
    }

    /// Serialises to the JSON `transport` object. The `reliability` key is
    /// omitted when lossless-with-default-retry (schema stability).
    pub fn to_json_value(&self) -> JsonValue {
        let latency = match self.latency {
            LatencyModel::Instant => JsonValue::string("instant"),
            LatencyModel::Fixed(delay) => JsonValue::object(vec![("fixed", delay.into())]),
            LatencyModel::Exponential { mean } => JsonValue::object(vec![(
                "exp",
                JsonValue::object(vec![("mean", mean.into())]),
            )]),
        };
        let mut fields = vec![("latency", latency)];
        if self.reliability != ReliabilitySpec::default() {
            fields.push(("reliability", self.reliability.to_json_value()));
        }
        JsonValue::object(fields)
    }

    /// Decodes a `transport` object; unknown keys hard-error (the same
    /// typos-fail-loudly rule as every other schema object).
    pub fn decode(doc: &JsonValue) -> Result<Self, ProtocolError> {
        let transport = Fields::new(doc, "transport", &["latency", "reliability"])?;
        let latency = |value: &JsonValue, path: &str| {
            let (model, inner, path) = one_of(value, path, Some("instant"), &["fixed", "exp"])?;
            Ok(match model {
                "fixed" => LatencyModel::Fixed(number(inner, &path)?),
                "exp" => LatencyModel::Exponential {
                    mean: Fields::new(inner, &path, &["mean"])?.require("mean", number)?,
                },
                _ => LatencyModel::Instant,
            })
        };
        Ok(TransportSpec {
            latency: transport.optional("latency", latency)?.unwrap_or_default(),
            reliability: transport
                .optional("reliability", |value, _| ReliabilitySpec::decode(value))?
                .unwrap_or_default(),
        })
    }
}

/// One trial's outcome from a [`TransportRuntime`]: the engine-shaped report
/// plus the protocol-level observables the runner folds into a `TrialCost`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportTrial {
    /// The run report, shaped exactly like the shared-memory engine's (on the
    /// instant schedule it must be bit-identical to it).
    pub report: EngineReport,
    /// Display label of the protocol that ran (e.g. `pairwise (Boyd)`).
    pub label: String,
    /// Protocol-defined round count, or `None` to fall back to ticks.
    pub rounds: Option<u64>,
    /// Protocol metrics, with the message cost ledger appended
    /// (`messages_sent`, `messages_delivered`, `messages_in_flight_peak`).
    pub metrics: Vec<(String, f64)>,
}

/// A message-passing execution backend for scenario trials.
///
/// The canonical implementation is `geogossip_net::NetRuntime`; the trait
/// lives here (below the net crate) so the scenario [`Runner`] can dispatch
/// to it without `geogossip-sim` depending on `geogossip-net`. `rng` is the
/// trial's run stream (clock ticks and protocol draws — consumed exactly as
/// the shared-memory engine would); `net_rng` is the dedicated
/// [`NET_STREAM_LABEL`] stream (latency and wire-reliability draws only);
/// `fault_rng` is the dedicated [`FAULT_STREAM_LABEL`] stream, consumed only
/// when `faults` is non-default (stale/churn node-set construction draws, in
/// the same frozen order as the shared-memory fault wrapper).
///
/// [`Runner`]: crate::scenario::Runner
/// [`FAULT_STREAM_LABEL`]: crate::fault::FAULT_STREAM_LABEL
pub trait TransportRuntime: Send + Sync {
    /// Whether this runtime can run `protocol`, checked before any trial
    /// starts. The runner's [`Runner::check`] calls it for every spec with a
    /// `transport` key, and `geogossip validate` calls that, so a spec that
    /// validates is not refused for its protocol once it runs.
    ///
    /// # Errors
    ///
    /// The [`ProtocolError`] that [`TransportRuntime::run_trial`] returns
    /// for the same protocol spec, naming the offending spec path.
    ///
    /// [`Runner::check`]: crate::scenario::Runner::check
    fn check(&self, protocol: &ProtocolSpec) -> Result<(), ProtocolError>;

    /// Runs one trial of `protocol` over the simulated network.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] when the protocol has no message-passing
    /// implementation, its parameters are invalid, or the fault spec asks
    /// for something the net layer does not model; implementations name the
    /// offending spec path (`transport`, `faults.…`, `protocol.…`).
    ///
    /// `probe` is the optional telemetry observer: `None` must leave the
    /// trial bit-identical to a probe-free build, and a probed trial must
    /// emit only simulation-state-derived events (never wall clock) so its
    /// stream is byte-identical across reruns.
    #[allow(clippy::too_many_arguments)]
    fn run_trial(
        &self,
        protocol: &ProtocolSpec,
        transport: &TransportSpec,
        faults: &FaultSpec,
        graph: &GeometricGraph,
        values: Vec<f64>,
        stop: StopCondition,
        rng: &mut dyn RngCore,
        net_rng: &mut dyn RngCore,
        fault_rng: ChaCha8Rng,
        probe: Option<&mut (dyn Probe + '_)>,
    ) -> Result<TransportTrial, ProtocolError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn decode(json: &str) -> Result<TransportSpec, ProtocolError> {
        let doc = JsonValue::parse(json).expect("test JSON parses");
        TransportSpec::decode(&doc)
    }

    #[test]
    fn default_is_instant_and_valid() {
        let spec = TransportSpec::default();
        assert_eq!(spec.latency, LatencyModel::Instant);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn json_round_trips_every_model() {
        for spec in [
            TransportSpec::default(),
            TransportSpec::with_latency(LatencyModel::Fixed(0.25)),
            TransportSpec::with_latency(LatencyModel::Exponential { mean: 0.125 }),
            TransportSpec {
                latency: LatencyModel::Fixed(0.25),
                reliability: ReliabilitySpec {
                    drop: 0.3,
                    duplicate: 0.05,
                    retry: RetryPolicy {
                        timeout: 0.5,
                        backoff: 1.5,
                        max_retries: 5,
                    },
                },
            },
            TransportSpec {
                latency: LatencyModel::Instant,
                reliability: ReliabilitySpec {
                    drop: 0.1,
                    ..ReliabilitySpec::default()
                },
            },
        ] {
            let rendered = spec.to_json_value().render();
            let reparsed = decode(&rendered).expect("rendered spec decodes");
            assert_eq!(reparsed, spec, "round trip changed {rendered}");
        }
    }

    #[test]
    fn empty_object_decodes_to_instant() {
        assert_eq!(decode("{}").unwrap(), TransportSpec::default());
        assert_eq!(
            decode(r#"{"latency": "instant"}"#).unwrap(),
            TransportSpec::default()
        );
    }

    #[test]
    fn unknown_keys_hard_error_with_path() {
        let err = decode(r#"{"latencyy": "instant"}"#).unwrap_err();
        assert!(err.to_string().contains("unknown transport key `latencyy`"));
        let err = decode(r#"{"latency": {"fixd": 0.5}}"#).unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown transport.latency key `fixd`"),
            "got `{err}`"
        );
        let err = decode(r#"{"latency": {"exp": {"mena": 0.5}}}"#).unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown transport.latency.exp key `mena`"),
            "got `{err}`"
        );
    }

    #[test]
    fn bad_values_hard_error_with_path() {
        let err = decode(r#"{"latency": "warp"}"#).unwrap_err();
        assert!(err.to_string().contains("transport.latency"), "got `{err}`");
        let err = decode(r#"{"latency": {"fixed": "slow"}}"#).unwrap_err();
        assert!(
            err.to_string().contains("`transport.latency.fixed`"),
            "got `{err}`"
        );
        let err = decode(r#"{"latency": {"fixed": 0.1, "exp": {"mean": 0.1}}}"#).unwrap_err();
        assert!(err.to_string().contains("exactly one of"), "got `{err}`");
    }

    #[test]
    fn validation_names_spec_paths() {
        let bad = TransportSpec::with_latency(LatencyModel::Fixed(-1.0));
        let err = bad.validate().unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::InvalidParameter { ref name, .. } if name == "transport.latency.fixed"
        ));
        let bad = TransportSpec::with_latency(LatencyModel::Exponential { mean: 0.0 });
        let err = bad.validate().unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::InvalidParameter { ref name, .. }
                if name == "transport.latency.exp.mean"
        ));
    }

    #[test]
    fn only_the_exponential_model_consumes_the_net_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let before = rng.clone();
        LatencyModel::Instant.sample(&mut rng);
        LatencyModel::Fixed(0.5).sample(&mut rng);
        let mut check = before.clone();
        for _ in 0..4 {
            assert_eq!(rng.next_u64(), check.next_u64(), "instant/fixed drew");
        }
        let mut exp_rng = before.clone();
        let delay = LatencyModel::Exponential { mean: 0.5 }.sample(&mut exp_rng);
        assert!(delay > 0.0);
        assert_ne!(exp_rng.next_u64(), {
            let mut c = before.clone();
            c.next_u64()
        });
    }

    #[test]
    fn mean_and_tokens_are_stable() {
        assert_eq!(LatencyModel::Instant.mean(), 0.0);
        assert_eq!(LatencyModel::Fixed(0.25).mean(), 0.25);
        assert_eq!(LatencyModel::Exponential { mean: 0.5 }.mean(), 0.5);
    }
}
