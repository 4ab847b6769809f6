//! Deterministic fault injection: lossy transmissions, node churn, and
//! stale-value nodes.
//!
//! The paper analyzes its protocols on pristine networks, but gossip's selling
//! point is graceful degradation — sensor networks drop packets, nodes die,
//! and some keep answering with stale measurements. This module makes those
//! faults first-class, reproducible scenario inputs:
//!
//! * [`FaultSpec`] — the declarative fault model carried by a
//!   `ScenarioSpec` (all keys optional; the default means "no faults").
//! * [`FaultContext`] — the per-tick view handed to fault-aware protocols via
//!   [`Activation::on_tick_faulty`]: was this activation's exchange dropped,
//!   which nodes are alive, which are stale.
//! * [`FaultSupport`] — the capability a protocol declares via
//!   [`Activation::fault_support`]; the runner rejects specs asking for fault
//!   kinds a protocol cannot model, rather than silently ignoring them.
//! * [`NodeFaults`] — the node-fault state both runtimes hold: the stale
//!   set, the churn schedule and its [`LivenessMask`], and the dead-tick
//!   count. The engine's [`FaultyActivation`] and the message-passing
//!   runtime's scheduler build it from the same stream and advance it with
//!   the same per-tick call, so a `transport` key never changes which
//!   sensors fail or when.
//! * [`FaultyActivation`] — the engine-facing wrapper that adds the drop
//!   decisions to a [`NodeFaults`] and orchestrates the inner protocol.
//!
//! # Semantics
//!
//! * **Loss** (`drop-rate` = `p`): each activation of a live sensor is
//!   independently marked *dropped* with probability `p`. A dropped activation
//!   consumes its clock tick and is charged its full transmission cost
//!   (routing hops, local packets) but applies **no averaging** — cost without
//!   progress, modeling a lost data packet after the path was already paid
//!   for.
//! * **Churn** (`churn` schedule): each event kills a uniformly drawn set of
//!   `⌊fraction·n⌋` sensors at `at-tick`, optionally reviving the same set at
//!   `rejoin-tick`. Dead sensors consume their clock ticks doing nothing, are
//!   never chosen as gossip partners, and greedy routing detours around them
//!   (`route_terminus_masked`); a walk whose terminus region is dead stops at
//!   the nearest *live* local minimum. A rejoining sensor keeps the value it
//!   died with.
//! * **Stale** (`stale-fraction`): a uniformly drawn set of sensors stops
//!   updating but keeps answering with whatever value it holds. Partners still
//!   average against a stale node's frozen value, so stale nodes drag the
//!   achievable error floor up — the paper-relevant adversary for averaging.
//!
//! # Determinism
//!
//! All fault randomness draws from one dedicated stream derived from
//! `(seed, trial, `[`FAULT_STREAM_LABEL`]`)` via `SeedStream::trial`, in a
//! fixed order: the stale set first, then each churn event's node set in spec
//! order, then one drop decision per live activation. The placement, values,
//! clock, and protocol streams are untouched byte-for-byte, and the wrapper is
//! only ever constructed for a non-default [`FaultSpec`] — a no-fault spec
//! runs the bare protocol and stays bit-identical to the pre-fault engine
//! (pinned by `tests/fault_parity.rs`).

use crate::clock::Tick;
use crate::engine::{Activation, Clocking, SquaredError};
use crate::error::ProtocolError;
use crate::metrics::TransmissionCounter;
use geogossip_analysis::json::JsonValue;
use geogossip_graph::LivenessMask;
use geogossip_telemetry::{Event, NoProbe, Probe};
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The `SeedStream` label of the dedicated fault stream:
/// `seeds.trial(FAULT_STREAM_LABEL, trial)`. Changing this constant (or the
/// draw order documented on [`NodeFaults::new`]) silently re-randomizes
/// every committed fault scenario — treat it as frozen, like the `"placement"`
/// / `"values"` / `"run"` labels.
pub const FAULT_STREAM_LABEL: &str = "faults";

/// One node-churn event: a uniformly drawn fraction of the network crashes at
/// a deterministic tick, optionally rejoining later.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Fraction of the network to kill (`⌊fraction·n⌋` distinct sensors).
    pub fraction: f64,
    /// Engine tick index (1-based, like `Tick::index`) at which the set dies;
    /// the kill applies before that tick's activation is processed.
    pub at_tick: u64,
    /// Tick index at which the same set rejoins, or `None` for a permanent
    /// crash. Rejoining sensors keep the value they died with.
    pub rejoin_tick: Option<u64>,
}

/// The declarative fault model of a scenario. The default (`drop_rate` 0, no
/// churn, `stale_fraction` 0) means **no faults** and is what every spec
/// without a `faults` key gets — the schema-stability invariant.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Per-activation loss probability `p ∈ [0, 1)`.
    pub drop_rate: f64,
    /// Fraction of sensors frozen as stale-value nodes, in `[0, 1)`.
    pub stale_fraction: f64,
    /// Node crash/rejoin schedule, applied in spec order.
    pub churn: Vec<ChurnEvent>,
}

impl FaultSpec {
    /// Whether this spec injects no faults at all (every key at its default).
    /// The runner only wraps the protocol when this is `false`, so no-fault
    /// runs cannot be perturbed by construction.
    pub fn is_none(&self) -> bool {
        self.drop_rate == 0.0 && self.stale_fraction == 0.0 && self.churn.is_empty()
    }

    /// Validates every fault parameter.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if !self.drop_rate.is_finite() || !(0.0..1.0).contains(&self.drop_rate) {
            return Err(ProtocolError::invalid(
                "faults.drop-rate",
                "must be a probability in [0, 1)",
            ));
        }
        if !self.stale_fraction.is_finite() || !(0.0..1.0).contains(&self.stale_fraction) {
            return Err(ProtocolError::invalid(
                "faults.stale-fraction",
                "must be a fraction in [0, 1)",
            ));
        }
        for (i, event) in self.churn.iter().enumerate() {
            if !event.fraction.is_finite() || !(0.0..1.0).contains(&event.fraction) {
                return Err(ProtocolError::invalid(
                    format!("faults.churn[{i}].fraction"),
                    "must be a fraction in [0, 1)",
                ));
            }
            if let Some(rejoin) = event.rejoin_tick {
                if rejoin <= event.at_tick {
                    return Err(ProtocolError::invalid(
                        format!("faults.churn[{i}].rejoin-tick"),
                        "must be strictly after at-tick",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Rejects fault kinds the protocol's declared [`FaultSupport`] cannot
    /// model — a spec asking the affine hierarchy for churn must fail loudly,
    /// not silently run fault-free.
    pub fn check_support(
        &self,
        protocol: &str,
        support: FaultSupport,
    ) -> Result<(), ProtocolError> {
        // Unsupported kinds are reported by *spec path* (the key the user
        // must delete), the same convention every validation error follows.
        let mut missing = Vec::new();
        if self.drop_rate > 0.0 && !support.loss {
            missing.push("faults.drop-rate");
        }
        if !self.churn.is_empty() && !support.churn {
            missing.push("faults.churn");
        }
        if self.stale_fraction > 0.0 && !support.stale {
            missing.push("faults.stale-fraction");
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::invalid(
                "faults",
                format!(
                    "protocol `{protocol}` does not support fault kind(s): {}",
                    missing.join(", ")
                ),
            ))
        }
    }

    /// Compact coordinate token for group keys and reports, e.g.
    /// `drop=0.1+stale=0.05` or `none` for the default spec.
    pub fn token(&self) -> String {
        if self.is_none() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if self.drop_rate > 0.0 {
            parts.push(format!("drop={}", self.drop_rate));
        }
        if self.stale_fraction > 0.0 {
            parts.push(format!("stale={}", self.stale_fraction));
        }
        if !self.churn.is_empty() {
            parts.push(format!("churn={}", self.churn.len()));
        }
        parts.join("+")
    }

    /// Serialises to the JSON `faults` object, emitting only non-default keys
    /// (so specs without faults keep their historical byte-exact rendering).
    pub fn to_json_value(&self) -> JsonValue {
        let mut entries = Vec::new();
        if self.drop_rate > 0.0 {
            entries.push(("drop-rate", self.drop_rate.into()));
        }
        if self.stale_fraction > 0.0 {
            entries.push(("stale-fraction", self.stale_fraction.into()));
        }
        if !self.churn.is_empty() {
            entries.push((
                "churn",
                JsonValue::Array(
                    self.churn
                        .iter()
                        .map(|event| {
                            let mut fields = vec![
                                ("fraction", event.fraction.into()),
                                ("at-tick", event.at_tick.into()),
                            ];
                            if let Some(rejoin) = event.rejoin_tick {
                                fields.push(("rejoin-tick", rejoin.into()));
                            }
                            JsonValue::object(fields)
                        })
                        .collect(),
                ),
            ));
        }
        JsonValue::object(entries)
    }

    /// Decodes a `faults` object; unknown keys hard-error (the same
    /// typos-fail-loudly rule as every other schema object).
    pub fn decode(doc: &JsonValue) -> Result<Self, ProtocolError> {
        let obj = doc
            .as_object()
            .ok_or_else(|| ProtocolError::malformed("`faults` must be an object"))?;
        for (key, _) in obj {
            if !matches!(key.as_str(), "drop-rate" | "stale-fraction" | "churn") {
                return Err(ProtocolError::malformed(format!(
                    "unknown faults key `{key}` (known: drop-rate, stale-fraction, churn)"
                )));
            }
        }
        let number = |key: &str| -> Result<f64, ProtocolError> {
            match doc.get(key) {
                None => Ok(0.0),
                Some(value) => value.as_f64().ok_or_else(|| {
                    ProtocolError::malformed(format!("`faults.{key}` must be a number"))
                }),
            }
        };
        let drop_rate = number("drop-rate")?;
        let stale_fraction = number("stale-fraction")?;
        let mut churn = Vec::new();
        if let Some(raw) = doc.get("churn") {
            let events = raw
                .as_array()
                .ok_or_else(|| ProtocolError::malformed("`faults.churn` must be an array"))?;
            for (i, event) in events.iter().enumerate() {
                let fields = event.as_object().ok_or_else(|| {
                    ProtocolError::malformed(format!("`faults.churn[{i}]` must be an object"))
                })?;
                for (key, _) in fields {
                    if !matches!(key.as_str(), "fraction" | "at-tick" | "rejoin-tick") {
                        return Err(ProtocolError::malformed(format!(
                            "unknown faults.churn key `{key}` (known: fraction, at-tick, \
                             rejoin-tick)"
                        )));
                    }
                }
                let fraction = event
                    .get("fraction")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| {
                        ProtocolError::malformed(format!(
                            "`faults.churn[{i}].fraction` must be a number"
                        ))
                    })?;
                let at_tick = event
                    .get("at-tick")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| {
                        ProtocolError::malformed(format!(
                            "`faults.churn[{i}].at-tick` must be a whole number"
                        ))
                    })?;
                let rejoin_tick = match event.get("rejoin-tick") {
                    None | Some(JsonValue::Null) => None,
                    Some(value) => Some(value.as_u64().ok_or_else(|| {
                        ProtocolError::malformed(format!(
                            "`faults.churn[{i}].rejoin-tick` must be a whole number or null"
                        ))
                    })?),
                };
                churn.push(ChurnEvent {
                    fraction,
                    at_tick,
                    rejoin_tick,
                });
            }
        }
        Ok(FaultSpec {
            drop_rate,
            stale_fraction,
            churn,
        })
    }
}

/// The fault kinds a protocol knows how to model, declared via
/// [`Activation::fault_support`]. The default (all `false`) keeps every
/// existing protocol fault-free until it opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSupport {
    /// Dropped activations: cost without progress.
    pub loss: bool,
    /// Crashed nodes: liveness-masked partner selection and routing.
    pub churn: bool,
    /// Stale nodes: frozen values that still answer.
    pub stale: bool,
}

impl FaultSupport {
    /// Support for every fault kind.
    pub const fn all() -> Self {
        FaultSupport {
            loss: true,
            churn: true,
            stale: true,
        }
    }

    /// Support for loss and stale nodes but not churn (protocols whose
    /// control structure cannot survive member death, e.g. the affine
    /// hierarchy's leader tree).
    pub const fn loss_and_stale() -> Self {
        FaultSupport {
            loss: true,
            churn: false,
            stale: true,
        }
    }
}

/// The per-tick fault view handed to [`Activation::on_tick_faulty`].
///
/// Empty slices are the trivial masks — every node alive, no node stale — so
/// protocols can query uniformly without the wrapper materialising bitmaps
/// for fault kinds that are inactive.
#[derive(Debug, Clone, Copy)]
pub struct FaultContext<'a> {
    /// Whether this activation's exchange is dropped: charge the full
    /// transmission cost, apply no averaging.
    pub dropped: bool,
    alive: &'a [bool],
    stale: &'a [bool],
}

impl<'a> FaultContext<'a> {
    /// Builds a context. Pass empty slices for trivially all-alive /
    /// none-stale masks.
    pub fn new(dropped: bool, alive: &'a [bool], stale: &'a [bool]) -> Self {
        FaultContext {
            dropped,
            alive,
            stale,
        }
    }

    /// Whether node `i` is stale (an empty mask means nobody is).
    pub fn is_stale(&self, i: usize) -> bool {
        self.stale.get(i).copied().unwrap_or(false)
    }

    /// Whether any node is currently dead — protocols keep their unmasked
    /// fast paths while this is `false`.
    pub fn any_dead(&self) -> bool {
        !self.alive.is_empty()
    }

    /// The liveness bitmap for live-partner draws and masked routing
    /// (empty ⇔ all alive).
    pub fn alive_mask(&self) -> &'a [bool] {
        self.alive
    }
}

/// What a churn schedule entry does when its tick arrives.
#[derive(Debug, Clone)]
enum ChurnAction {
    Kill(Vec<u32>),
    Revive(Vec<u32>),
}

/// Node-fault state for one trial: the frozen stale set, the churn schedule
/// and the [`LivenessMask`] it drives, and the count of dead sensors' ticks.
///
/// Both runtimes hold one: [`FaultyActivation`] on the engine and the
/// message-passing scheduler on the wire. Either builds it with
/// [`NodeFaults::new`] from the dedicated fault stream and calls
/// [`NodeFaults::begin_tick`] once per tick before the activation, so the
/// two make the same fault decisions at the same ticks.
#[derive(Debug)]
pub struct NodeFaults {
    mask: LivenessMask,
    stale: Vec<bool>,
    schedule: Vec<(u64, ChurnAction)>,
    next_event: usize,
    dead_activations: u64,
}

impl NodeFaults {
    /// Draws the node faults of `spec` over an `n`-node network from
    /// `fault_rng`, the dedicated fault stream
    /// (`seeds.trial(`[`FAULT_STREAM_LABEL`]`, trial)`).
    ///
    /// The draw order is frozen: the stale set first (`⌊stale_fraction·n⌋`
    /// distinct nodes by partial Fisher–Yates), then each churn event's node
    /// set in spec order. The rest of the stream is left to the caller (the
    /// engine's per-activation drop decisions).
    pub fn new(spec: &FaultSpec, n: usize, fault_rng: &mut ChaCha8Rng) -> Self {
        let stale_nodes = draw_distinct(
            n,
            (spec.stale_fraction * n as f64).floor() as usize,
            fault_rng,
        );
        let mut stale = vec![false; if stale_nodes.is_empty() { 0 } else { n }];
        for &i in &stale_nodes {
            stale[i as usize] = true;
        }
        let mut schedule: Vec<(u64, ChurnAction)> = Vec::new();
        for event in &spec.churn {
            let nodes = draw_distinct(n, (event.fraction * n as f64).floor() as usize, fault_rng);
            if let Some(rejoin) = event.rejoin_tick {
                schedule.push((rejoin, ChurnAction::Revive(nodes.clone())));
            }
            schedule.push((event.at_tick, ChurnAction::Kill(nodes)));
        }
        // Stable sort: simultaneous actions apply in (rejoin-before-kill,
        // spec) order, deterministically.
        schedule.sort_by_key(|(tick, _)| *tick);
        NodeFaults {
            mask: LivenessMask::all_alive(n),
            stale,
            schedule,
            next_event: 0,
            dead_activations: 0,
        }
    }

    /// Starts `tick`: applies every churn action due at or before it, then
    /// reports whether the activated sensor is alive. A dead sensor's tick is
    /// counted and emitted as `activation-dead`; the caller must then consume
    /// the tick doing nothing — in particular without drawing protocol
    /// randomness.
    pub fn begin_tick<P: Probe + ?Sized>(&mut self, tick: Tick, probe: &mut P) -> bool {
        while let Some((at, action)) = self.schedule.get(self.next_event) {
            if *at > tick.index {
                break;
            }
            match action {
                ChurnAction::Kill(nodes) => {
                    for &i in nodes {
                        self.mask.kill(i as usize);
                    }
                }
                ChurnAction::Revive(nodes) => {
                    for &i in nodes {
                        self.mask.revive(i as usize);
                    }
                }
            }
            self.next_event += 1;
        }
        if self.mask.is_alive(tick.node.index()) {
            return true;
        }
        self.dead_activations += 1;
        if probe.enabled() {
            probe.on_event(Event::ActivationDead {
                tick: tick.index,
                node: tick.node.index() as u32,
            });
        }
        false
    }

    /// The `(alive, stale)` masks for a [`FaultContext`]: `alive` is empty
    /// while every sensor lives, so live-partner draws and masked walks take
    /// their unmasked paths; `stale` is empty when no sensor is stale.
    pub fn masks(&self) -> (&[bool], &[bool]) {
        let alive: &[bool] = if self.mask.any_dead() {
            self.mask.as_slice()
        } else {
            &[]
        };
        (alive, &self.stale)
    }

    /// Ticks of dead sensors so far (tick consumed, nothing else).
    pub fn dead_activations(&self) -> u64 {
        self.dead_activations
    }

    /// Number of sensors frozen as stale-value nodes.
    pub fn stale_count(&self) -> usize {
        self.stale.iter().filter(|&&stale| stale).count()
    }

    /// The current liveness mask (for tests and diagnostics).
    pub fn mask(&self) -> &LivenessMask {
        &self.mask
    }
}

/// The engine-facing fault orchestrator: wraps a protocol, owns all fault
/// state, and forwards ticks through [`Activation::on_tick_faulty`].
///
/// Constructed by the scenario runner **only** when the spec's [`FaultSpec`]
/// is non-default, so fault-free runs never pass through this type.
pub struct FaultyActivation<'a> {
    inner: Box<dyn Activation + 'a>,
    drop_rate: f64,
    fault_rng: ChaCha8Rng,
    nodes: NodeFaults,
    dropped_activations: u64,
}

impl<'a> FaultyActivation<'a> {
    /// Wraps `inner` with the fault model of `spec` over an `n`-node network.
    ///
    /// `fault_rng` must be the dedicated fault stream
    /// (`seeds.trial(`[`FAULT_STREAM_LABEL`]`, trial)`). [`NodeFaults::new`]
    /// draws the node faults from it first, in its frozen order; the
    /// remaining stream serves the per-activation drop decisions during the
    /// run.
    pub fn new(
        inner: Box<dyn Activation + 'a>,
        spec: &FaultSpec,
        n: usize,
        mut fault_rng: ChaCha8Rng,
    ) -> Self {
        let nodes = NodeFaults::new(spec, n, &mut fault_rng);
        FaultyActivation {
            inner,
            drop_rate: spec.drop_rate,
            fault_rng,
            nodes,
            dropped_activations: 0,
        }
    }

    /// Activations that were marked dropped (cost charged, no averaging).
    pub fn dropped_activations(&self) -> u64 {
        self.dropped_activations
    }

    /// Activations of dead sensors (tick consumed, nothing else).
    pub fn dead_activations(&self) -> u64 {
        self.nodes.dead_activations()
    }

    /// The current liveness mask (for tests and diagnostics).
    pub fn mask(&self) -> &LivenessMask {
        self.nodes.mask()
    }

    /// The single tick body behind both `on_tick` and `on_tick_probed`:
    /// identical fault semantics and RNG draws, with event emission folding
    /// away entirely when monomorphized over `NoProbe` (the unprobed trait
    /// path), exactly like the engine's own hot loop.
    fn tick_impl<Pr: Probe>(
        &mut self,
        tick: Tick,
        tx: &mut TransmissionCounter,
        rng: &mut dyn RngCore,
        mut probe: Pr,
    ) {
        if !self.nodes.begin_tick(tick, &mut probe) {
            return;
        }
        let (alive, stale) = self.nodes.masks();
        if probe.enabled() && stale.get(tick.node.index()).copied().unwrap_or(false) {
            probe.on_event(Event::ActivationStale {
                tick: tick.index,
                node: tick.node.index() as u32,
            });
        }
        let dropped = self.drop_rate > 0.0 && self.fault_rng.gen::<f64>() < self.drop_rate;
        if dropped {
            self.dropped_activations += 1;
            if probe.enabled() {
                probe.on_event(Event::ActivationLost {
                    tick: tick.index,
                    node: tick.node.index() as u32,
                });
            }
        }
        let context = FaultContext::new(dropped, alive, stale);
        self.inner.on_tick_faulty(tick, tx, rng, &context);
    }
}

/// `k` distinct node indices by partial Fisher–Yates over `0..n`, from the
/// fault stream. `O(n)` per call — construction-time only.
fn draw_distinct(n: usize, k: usize, rng: &mut ChaCha8Rng) -> Vec<u32> {
    let k = k.min(n);
    let mut pool: Vec<u32> = (0..n as u32).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

impl Activation for FaultyActivation<'_> {
    fn on_tick(&mut self, tick: Tick, tx: &mut TransmissionCounter, rng: &mut dyn RngCore) {
        self.tick_impl(tick, tx, rng, NoProbe);
    }

    fn on_tick_probed(
        &mut self,
        tick: Tick,
        tx: &mut TransmissionCounter,
        rng: &mut dyn RngCore,
        probe: &mut dyn Probe,
    ) {
        self.tick_impl(tick, tx, rng, probe);
    }

    fn relative_error(&self) -> f64 {
        self.inner.relative_error()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn params(&self) -> Vec<(String, String)> {
        self.inner.params()
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let mut metrics = self.inner.metrics();
        metrics.push((
            "dropped_activations".into(),
            self.dropped_activations as f64,
        ));
        metrics.push((
            "dead_activations".into(),
            self.nodes.dead_activations() as f64,
        ));
        metrics.push(("stale_nodes".into(), self.nodes.stale_count() as f64));
        metrics
    }

    fn rounds(&self) -> Option<u64> {
        self.inner.rounds()
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn clocking(&self) -> Clocking {
        self.inner.clocking()
    }

    fn trace_interval(&self) -> Option<u64> {
        self.inner.trace_interval()
    }

    fn squared_error(&self) -> Option<SquaredError> {
        self.inner.squared_error()
    }

    fn fault_support(&self) -> FaultSupport {
        self.inner.fault_support()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_geometry::point::NodeId;
    use rand::SeedableRng;

    fn spec_json(text: &str) -> Result<FaultSpec, ProtocolError> {
        let doc = JsonValue::parse(text).unwrap();
        FaultSpec::decode(&doc)
    }

    #[test]
    fn default_spec_is_none_and_renders_empty() {
        let spec = FaultSpec::default();
        assert!(spec.is_none());
        assert!(spec.validate().is_ok());
        assert_eq!(spec.token(), "none");
        assert_eq!(spec.to_json_value().render(), "{}");
    }

    #[test]
    fn json_round_trips_a_rich_spec() {
        let spec = FaultSpec {
            drop_rate: 0.25,
            stale_fraction: 0.1,
            churn: vec![
                ChurnEvent {
                    fraction: 0.2,
                    at_tick: 100,
                    rejoin_tick: Some(500),
                },
                ChurnEvent {
                    fraction: 0.05,
                    at_tick: 1000,
                    rejoin_tick: None,
                },
            ],
        };
        assert!(spec.validate().is_ok());
        let json = spec.to_json_value().render();
        let parsed = spec_json(&json).expect("round trip parses");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json_value().render(), json);
        assert_eq!(spec.token(), "drop=0.25+stale=0.1+churn=2");
    }

    #[test]
    fn decode_rejects_unknown_keys_and_bad_shapes() {
        for (bad, fragment) in [
            (r#"{"drop-rate": 0.1, "oops": 1}"#, "unknown faults key"),
            (r#"{"drop-rate": "high"}"#, "must be a number"),
            (r#"{"churn": 3}"#, "must be an array"),
            (r#"{"churn": [{"fraction": 0.1}]}"#, "at-tick"),
            (
                r#"{"churn": [{"fraction": 0.1, "at-tick": 5, "typo": 1}]}"#,
                "unknown faults.churn key",
            ),
        ] {
            let err = spec_json(bad).expect_err(bad);
            assert!(
                err.to_string().contains(fragment),
                "error for {bad} was `{err}`, expected `{fragment}`"
            );
        }
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        let mut spec = FaultSpec {
            drop_rate: 1.0,
            ..FaultSpec::default()
        };
        assert!(spec.validate().is_err());
        spec.drop_rate = 0.5;
        spec.stale_fraction = -0.1;
        assert!(spec.validate().is_err());
        spec.stale_fraction = 0.0;
        spec.churn = vec![ChurnEvent {
            fraction: 0.1,
            at_tick: 10,
            rejoin_tick: Some(10),
        }];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn support_check_names_the_missing_kinds() {
        let spec = FaultSpec {
            drop_rate: 0.1,
            stale_fraction: 0.0,
            churn: vec![ChurnEvent {
                fraction: 0.1,
                at_tick: 1,
                rejoin_tick: None,
            }],
        };
        assert!(spec.check_support("x", FaultSupport::all()).is_ok());
        let err = spec
            .check_support("x", FaultSupport::loss_and_stale())
            .unwrap_err();
        assert!(err.to_string().contains("churn"), "got {err}");
        assert!(!err.to_string().contains("drop-rate"), "got {err}");
    }

    #[test]
    fn distinct_draws_are_deterministic_and_distinct() {
        let a = draw_distinct(50, 10, &mut ChaCha8Rng::seed_from_u64(1));
        let b = draw_distinct(50, 10, &mut ChaCha8Rng::seed_from_u64(1));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(sorted.iter().all(|&i| i < 50));
        assert_eq!(
            draw_distinct(5, 10, &mut ChaCha8Rng::seed_from_u64(2)).len(),
            5
        );
    }

    /// A probe protocol that records which context each tick saw.
    struct Probe {
        ticks: Vec<(usize, bool, bool)>,
        faulty_calls: u64,
    }

    impl Activation for Probe {
        fn on_tick(&mut self, tick: Tick, _tx: &mut TransmissionCounter, _rng: &mut dyn RngCore) {
            self.ticks.push((tick.node.index(), false, false));
        }
        fn on_tick_faulty(
            &mut self,
            tick: Tick,
            _tx: &mut TransmissionCounter,
            _rng: &mut dyn RngCore,
            faults: &FaultContext<'_>,
        ) {
            self.faulty_calls += 1;
            self.ticks
                .push((tick.node.index(), faults.dropped, faults.any_dead()));
        }
        fn relative_error(&self) -> f64 {
            1.0
        }
        fn fault_support(&self) -> FaultSupport {
            FaultSupport::all()
        }
    }

    fn tick(index: u64, node: usize) -> Tick {
        Tick {
            time: index as f64,
            index,
            node: NodeId(node),
        }
    }

    #[test]
    fn churn_schedule_kills_and_revives_on_time() {
        let spec = FaultSpec {
            drop_rate: 0.0,
            stale_fraction: 0.0,
            churn: vec![ChurnEvent {
                fraction: 0.5,
                at_tick: 3,
                rejoin_tick: Some(6),
            }],
        };
        let probe = Probe {
            ticks: Vec::new(),
            faulty_calls: 0,
        };
        let mut faulty =
            FaultyActivation::new(Box::new(probe), &spec, 4, ChaCha8Rng::seed_from_u64(7));
        let mut tx = TransmissionCounter::new();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        assert_eq!(faulty.mask().alive_count(), 4);
        faulty.on_tick(tick(1, 0), &mut tx, &mut rng);
        assert_eq!(faulty.mask().alive_count(), 4);
        faulty.on_tick(tick(3, 0), &mut tx, &mut rng);
        assert_eq!(faulty.mask().alive_count(), 2, "2 of 4 killed at tick 3");
        faulty.on_tick(tick(6, 0), &mut tx, &mut rng);
        assert_eq!(faulty.mask().alive_count(), 4, "revived at tick 6");
    }

    #[test]
    fn dead_activations_consume_ticks_without_reaching_the_protocol() {
        let spec = FaultSpec {
            drop_rate: 0.0,
            stale_fraction: 0.0,
            churn: vec![ChurnEvent {
                // Kill everyone but leave the floor: 3 of 4.
                fraction: 0.9,
                at_tick: 1,
                rejoin_tick: None,
            }],
        };
        let probe = Probe {
            ticks: Vec::new(),
            faulty_calls: 0,
        };
        let mut faulty =
            FaultyActivation::new(Box::new(probe), &spec, 4, ChaCha8Rng::seed_from_u64(9));
        let mut tx = TransmissionCounter::new();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        for node in 0..4 {
            faulty.on_tick(tick(node as u64 + 1, node), &mut tx, &mut rng);
        }
        assert_eq!(faulty.dead_activations(), 3);
        let metrics = faulty.metrics();
        assert!(metrics
            .iter()
            .any(|(k, v)| k == "dead_activations" && *v == 3.0));
    }

    #[test]
    fn drop_decisions_come_from_the_fault_stream_only() {
        let spec = FaultSpec {
            drop_rate: 0.5,
            ..FaultSpec::default()
        };
        let run = |fault_seed: u64| {
            let probe = Probe {
                ticks: Vec::new(),
                faulty_calls: 0,
            };
            let mut faulty = FaultyActivation::new(
                Box::new(probe),
                &spec,
                8,
                ChaCha8Rng::seed_from_u64(fault_seed),
            );
            let mut tx = TransmissionCounter::new();
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            for i in 0..64 {
                faulty.on_tick(tick(i + 1, (i % 8) as usize), &mut tx, &mut rng);
            }
            (faulty.dropped_activations(), rng)
        };
        let (drops_a, mut rng_a) = run(1);
        assert!(drops_a > 0 && drops_a < 64);
        // The protocol RNG end state is independent of the fault seed: the
        // probe consumes none, and drop decisions draw only from the
        // dedicated fault stream.
        let (_, mut rng_b) = run(2);
        for _ in 0..4 {
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
    }
}
