//! The declarative scenario description: topology × field × protocol × stop
//! condition × trials, with hand-rendered JSON serde (the workspace's vendored
//! `serde` is a marker stand-in; see `geogossip_analysis::json`).
//!
//! Every object of the document is decoded through the crate's one object
//! reader (`schema::Fields`), which refuses a key outside that object's
//! grammar and names the full spec path of a value of the wrong type
//! (``unknown topology key `surfaces` ``, `` `stop.max-ticks` must be … ``).
//! The sweep, fault and transport decoders read their objects through it
//! too, and the placement, radius, protocol, field, surface, stop-cap and
//! rendering helpers here are shared with the sweep schema.

use crate::batch::ParallelSpec;
use crate::error::ProtocolError;
use crate::fault::FaultSpec;
use crate::field::Field;
use crate::rng::SeedStream;
use crate::schema::{cap, each, number, one_of, text, whole, Fields};
use crate::transport::TransportSpec;
use crate::StopCondition;
use geogossip_analysis::json::JsonValue;
use geogossip_geometry::sampling::{sample_clustered, sample_perforated, sample_unit_square};
use geogossip_geometry::{Point, Rect, Topology};
use geogossip_graph::GeometricGraph;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The radius constant every standard scenario uses: `r = 1.5·√(log n/n)`,
/// just above the Gupta–Kumar connectivity threshold, as in the paper's
/// `r = Θ(√(log n/n))` regime. A larger constant makes the graph needlessly
/// dense and blurs the local-vs-long-range distinction the comparison is
/// about.
pub const STANDARD_RADIUS_CONSTANT: f64 = 1.5;

/// Default tick budget of standard scenarios (generous enough for the slowest
/// baseline at the largest experiment size).
pub const STANDARD_MAX_TICKS: u64 = 200_000_000;

/// Default master seed (the standard seed of the experiment suite).
pub const STANDARD_SEED: u64 = 20_070_612;

/// Default transmission cap of a spec's `stop` (the scenario's and the
/// sweep's).
pub(crate) const STANDARD_MAX_TRANSMISSIONS: u64 = 1_000_000_000;

/// How the sensors are placed in the unit square.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlacementSpec {
    /// Independently and uniformly at random — the paper's model.
    UniformSquare,
    /// Clustered around `clusters` uniformly placed centers, each sensor a
    /// uniform offset within `±spread` of its center.
    Clustered {
        /// Number of cluster centers.
        clusters: usize,
        /// Half-width of the per-cluster offset box.
        spread: f64,
    },
    /// Uniform over the unit square minus a rectangular hole (an obstacle).
    Perforated {
        /// The excluded rectangle.
        hole: Rect,
    },
}

impl PlacementSpec {
    /// Samples `n` positions according to this placement.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Point> {
        match *self {
            PlacementSpec::UniformSquare => sample_unit_square(n, rng),
            PlacementSpec::Clustered { clusters, spread } => {
                sample_clustered(n, clusters, spread, rng)
            }
            PlacementSpec::Perforated { hole } => sample_perforated(n, hole, rng),
        }
    }

    fn validate(&self) -> Result<(), ProtocolError> {
        match *self {
            PlacementSpec::UniformSquare => Ok(()),
            PlacementSpec::Clustered { clusters, spread } => {
                if clusters == 0 {
                    return Err(ProtocolError::invalid(
                        "placement.clusters",
                        "need at least one cluster",
                    ));
                }
                if !spread.is_finite() || spread <= 0.0 {
                    return Err(ProtocolError::invalid(
                        "placement.spread",
                        "must be strictly positive and finite",
                    ));
                }
                Ok(())
            }
            PlacementSpec::Perforated { hole } => {
                // Only the overlap with the unit square matters: a hole
                // sticking out of the square still leaves plenty to sample.
                if hole.intersection_area(geogossip_geometry::unit_square()) >= 0.99 {
                    return Err(ProtocolError::invalid(
                        "placement.hole",
                        "hole covers (almost) the whole unit square",
                    ));
                }
                Ok(())
            }
        }
    }
}

/// How the connectivity radius is chosen for a given network size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RadiusSpec {
    /// The standard regime `r = c·√(log n/n)` (Gupta–Kumar constant `c`).
    ConnectivityConstant(f64),
    /// A fixed radius independent of `n`.
    Absolute(f64),
}

impl RadiusSpec {
    /// The concrete radius for a network of `n` sensors.
    pub fn radius(&self, n: usize) -> f64 {
        match *self {
            RadiusSpec::ConnectivityConstant(c) => geogossip_geometry::connectivity_radius(n, c),
            RadiusSpec::Absolute(r) => r,
        }
    }

    fn validate(&self) -> Result<(), ProtocolError> {
        let (name, value) = match *self {
            RadiusSpec::ConnectivityConstant(c) => ("radius.connectivity-constant", c),
            RadiusSpec::Absolute(r) => ("radius.absolute", r),
        };
        if !value.is_finite() || value <= 0.0 {
            return Err(ProtocolError::invalid(
                name,
                "must be strictly positive and finite",
            ));
        }
        Ok(())
    }
}

/// The network model of a scenario: size, placement, radius regime, and
/// surface topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Number of sensors.
    pub n: usize,
    /// Placement of the sensors in the unit square.
    pub placement: PlacementSpec,
    /// Radius regime.
    pub radius: RadiusSpec,
    /// Surface the radio metric lives on.
    pub surface: Topology,
}

impl TopologySpec {
    /// The standard experiment network: `n` uniform sensors at
    /// `r = 1.5·√(log n/n)` on the plain unit square.
    pub fn standard(n: usize) -> Self {
        TopologySpec {
            n,
            placement: PlacementSpec::UniformSquare,
            radius: RadiusSpec::ConnectivityConstant(STANDARD_RADIUS_CONSTANT),
            surface: Topology::UnitSquare,
        }
    }

    /// Builds the network for one trial, deriving the placement stream from
    /// `(seeds, "placement", trial)` exactly as the experiment harness always
    /// has — specs with the same seed and trial index produce bit-identical
    /// networks regardless of which protocol runs on them.
    pub fn build(&self, seeds: &SeedStream, trial: u64) -> GeometricGraph {
        self.build_with_rng(&mut seeds.trial("placement", trial))
    }

    /// Builds the network from an explicit placement RNG.
    pub fn build_with_rng<R: Rng + ?Sized>(&self, rng: &mut R) -> GeometricGraph {
        let positions = self.placement.sample(self.n, rng);
        GeometricGraph::build_with_topology(positions, self.radius.radius(self.n), self.surface)
    }

    /// Checks the topology parameters without building anything.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.n < 2 {
            return Err(ProtocolError::invalid(
                "topology.n",
                format!("need at least two sensors, got {}", self.n),
            ));
        }
        if u32::try_from(self.n).is_err() {
            // The CSR adjacency indexes nodes as `u32`; past that the build
            // would abort on its assertion after a huge allocation.
            return Err(ProtocolError::invalid(
                "topology.n",
                format!("at most {} sensors, got {}", u32::MAX, self.n),
            ));
        }
        self.placement.validate()?;
        self.radius.validate()?;
        if self.surface == Topology::Torus && self.radius.radius(self.n) >= 0.5 {
            return Err(ProtocolError::invalid(
                "topology.radius",
                "torus adjacency requires a radius below 1/2",
            ));
        }
        Ok(())
    }
}

/// A single protocol parameter value (number, string, or flag).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// A numeric parameter.
    Number(f64),
    /// A textual parameter (e.g. a selector or rule name).
    Text(String),
    /// A boolean flag.
    Flag(bool),
}

/// Named protocol parameters, ordered for stable serialization.
pub type ParamMap = BTreeMap<String, ParamValue>;

/// Which protocol to run and how to configure it; the name resolves through
/// the protocol registry (`geogossip_core::registry`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolSpec {
    /// Registry name, e.g. `"pairwise"` or `"affine-idealized"`.
    pub name: String,
    /// Protocol-specific parameters; builders reject unknown keys.
    pub params: ParamMap,
}

impl ProtocolSpec {
    /// A protocol spec with no parameters.
    pub fn named(name: impl Into<String>) -> Self {
        ProtocolSpec {
            name: name.into(),
            params: ParamMap::new(),
        }
    }

    /// Adds a numeric parameter (builder style).
    pub fn with_number(mut self, key: &str, value: f64) -> Self {
        self.params
            .insert(key.to_string(), ParamValue::Number(value));
        self
    }

    /// Adds a textual parameter (builder style).
    pub fn with_text(mut self, key: &str, value: &str) -> Self {
        self.params
            .insert(key.to_string(), ParamValue::Text(value.to_string()));
        self
    }

    /// Reads a numeric parameter, with a default when absent.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidParameter`] when the key holds a non-number.
    pub fn number(&self, key: &str, default: f64) -> Result<f64, ProtocolError> {
        match self.params.get(key) {
            None => Ok(default),
            Some(ParamValue::Number(v)) => Ok(*v),
            Some(other) => Err(ProtocolError::invalid(
                key,
                format!("expected a number, got {other:?}"),
            )),
        }
    }

    /// Reads a textual parameter, with a default when absent.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidParameter`] when the key holds a non-string.
    pub fn text(&self, key: &str, default: &str) -> Result<String, ProtocolError> {
        match self.params.get(key) {
            None => Ok(default.to_string()),
            Some(ParamValue::Text(s)) => Ok(s.clone()),
            Some(other) => Err(ProtocolError::invalid(
                key,
                format!("expected a string, got {other:?}"),
            )),
        }
    }

    /// Rejects parameters outside `known` — typos in a spec should fail
    /// loudly, not silently fall back to defaults.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), ProtocolError> {
        for key in self.params.keys() {
            if !known.contains(&key.as_str()) {
                return Err(ProtocolError::invalid(
                    key.clone(),
                    format!(
                        "unknown parameter for protocol `{}` (known: {})",
                        self.name,
                        if known.is_empty() {
                            "none".to_string()
                        } else {
                            known.join(", ")
                        }
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// A complete, self-describing scenario: everything the [`Runner`] needs to
/// reproduce a comparison run bit-for-bit.
///
/// [`Runner`]: crate::scenario::Runner
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario label used in tables and file names.
    pub name: String,
    /// The network model.
    pub topology: TopologySpec,
    /// The initial measurement field.
    pub field: Field,
    /// The protocol and its parameters.
    pub protocol: ProtocolSpec,
    /// When a trial stops.
    pub stop: StopCondition,
    /// Fault injection model ([`FaultSpec::default`] = no faults; the
    /// `faults` key is optional in the JSON schema and omitted from the
    /// rendering when default, per the schema-stability invariant).
    pub faults: FaultSpec,
    /// Execution transport (`None` = shared-memory engine; `Some` = the
    /// message-passing runtime with the given latency model). The `transport`
    /// key is optional in the JSON schema and omitted from the rendering when
    /// absent, per the schema-stability invariant. Note that
    /// `Some(TransportSpec::default())` is *not* `None`: it runs the net
    /// layer on the instant schedule (bit-identical output, plus the message
    /// ledger metrics).
    pub transport: Option<TransportSpec>,
    /// Intra-trial parallelism (`None` = the sequential tick loop; `Some` =
    /// the batched parallel path, bit-identical by construction). The
    /// `parallelism` key is optional in the JSON schema and omitted from the
    /// rendering when absent, per the schema-stability invariant — and when
    /// the key is absent no partitioner or thread pool is ever engaged
    /// (the no-key-no-partitioner convention).
    pub parallelism: Option<ParallelSpec>,
    /// Number of independent trials (run in parallel, deterministically).
    pub trials: u64,
    /// Master seed; every per-trial stream derives from it.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The standard comparison scenario: uniform placement at the standard
    /// radius, east–west gradient field, generous budgets, one trial, the
    /// standard seed. This reproduces the historical `run_protocol` workload
    /// exactly.
    pub fn standard(protocol: &str, n: usize, epsilon: f64) -> Self {
        ScenarioSpec {
            name: format!("{protocol}-n{n}"),
            topology: TopologySpec::standard(n),
            field: Field::SpatialGradient,
            protocol: ProtocolSpec::named(protocol),
            stop: StopCondition::at_epsilon(epsilon).with_max_ticks(STANDARD_MAX_TICKS),
            faults: FaultSpec::default(),
            transport: None,
            parallelism: None,
            trials: 1,
            seed: STANDARD_SEED,
        }
    }

    /// Replaces the trial count (builder style).
    pub fn with_trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Replaces the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the field (builder style).
    pub fn with_field(mut self, field: Field) -> Self {
        self.field = field;
        self
    }

    /// Replaces the fault model (builder style).
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the execution transport (builder style).
    pub fn with_transport(mut self, transport: TransportSpec) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Enables intra-trial parallelism (builder style).
    pub fn with_parallelism(mut self, parallelism: ParallelSpec) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Checks every parameter of the spec, returning the first violation.
    ///
    /// In particular the stop target must satisfy `epsilon > 0` and be
    /// finite — a silently never-converging scenario is rejected here rather
    /// than discovered after `10^8` ticks.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        self.topology.validate()?;
        self.stop.validate()?;
        self.faults.validate()?;
        if let Some(transport) = &self.transport {
            transport.validate()?;
            if self.faults.drop_rate > 0.0 {
                // Activation loss and the unreliable wire model the same
                // physical phenomenon; letting both ride would double-drop.
                // Node-level faults (stale, churn) stay coherent and combine.
                return Err(ProtocolError::invalid(
                    "faults.drop-rate",
                    "activation loss overlaps the message-passing transport: \
                     wire-level loss lives in `transport.reliability.drop`; \
                     keep node churn/stale in `faults`",
                ));
            }
        }
        if let Some(parallelism) = &self.parallelism {
            parallelism.validate()?;
            if self.transport.is_some() {
                return Err(ProtocolError::invalid(
                    "parallelism",
                    "intra-trial parallelism applies to the shared-memory engine \
                     and cannot be combined with a `transport`",
                ));
            }
        }
        if self.trials == 0 {
            return Err(ProtocolError::invalid("trials", "need at least one trial"));
        }
        if self.protocol.name.is_empty() {
            return Err(ProtocolError::invalid("protocol.name", "must be non-empty"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // JSON serde (hand-rendered through `geogossip_analysis::json`).
    // ------------------------------------------------------------------

    /// Serialises the spec to its JSON document model. The `faults` key is
    /// emitted only when non-default, so pre-fault specs keep their
    /// historical byte-exact rendering.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("name", JsonValue::string(self.name.clone())),
            (
                "topology",
                JsonValue::object(vec![
                    ("n", self.topology.n.into()),
                    ("placement", placement_to_json(&self.topology.placement)),
                    ("radius", radius_to_json(&self.topology.radius)),
                    ("surface", JsonValue::string(self.topology.surface.token())),
                ]),
            ),
            ("field", JsonValue::string(self.field.token())),
            ("protocol", protocol_to_json(&self.protocol)),
            (
                "stop",
                stop_to_json(
                    Some(self.stop.epsilon),
                    self.stop.max_ticks,
                    self.stop.max_transmissions,
                ),
            ),
        ];
        if !self.faults.is_none() {
            fields.push(("faults", self.faults.to_json_value()));
        }
        if let Some(transport) = &self.transport {
            fields.push(("transport", transport.to_json_value()));
        }
        if let Some(parallelism) = &self.parallelism {
            fields.push(("parallelism", parallelism.to_json_value()));
        }
        fields.push(("trials", self.trials.into()));
        fields.push(("seed", self.seed.into()));
        JsonValue::object(fields)
    }

    /// Renders the spec as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// Parses a spec from JSON text and validates it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MalformedSpec`] for syntax or schema violations, plus
    /// everything [`ScenarioSpec::validate`] reports.
    pub fn from_json(text: &str) -> Result<Self, ProtocolError> {
        let doc = JsonValue::parse(text).map_err(|e| ProtocolError::malformed(e.to_string()))?;
        Self::from_json_value(&doc)
    }

    /// Parses a spec from its JSON document model and validates it.
    pub fn from_json_value(doc: &JsonValue) -> Result<Self, ProtocolError> {
        let spec = Self::decode(doc)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Loads one spec or a `{"scenarios": [...]}` bundle from a JSON file
    /// (see [`ScenarioSpec::from_file_text`]).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MalformedSpec`] when the file cannot be read, plus
    /// everything [`ScenarioSpec::from_file_text`] reports.
    pub fn load_file(path: &str) -> Result<Vec<Self>, ProtocolError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ProtocolError::malformed(format!("cannot read `{path}`: {e}")))?;
        Self::from_file_text(path, &text)
    }

    /// Parses one spec or a `{"scenarios": [...]}` bundle from the text of
    /// the file at `path` — the shared parser behind the `geogossip` CLI's
    /// `run` and `validate`, so the accepted file shapes cannot drift between
    /// them. The caller reads the file, so it can report a read failure as
    /// its own kind of error.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MalformedSpec`] when the text does not parse, holds
    /// an empty or non-array `scenarios` key or a key beside it, or any
    /// member fails spec validation; messages carry `path`.
    pub fn from_file_text(path: &str, text: &str) -> Result<Vec<Self>, ProtocolError> {
        let doc =
            JsonValue::parse(text).map_err(|e| ProtocolError::malformed(format!("{path}: {e}")))?;
        let Some(list) = doc.get("scenarios") else {
            return Ok(vec![Self::from_json_value(&doc)?]);
        };
        Fields::labelled(&doc, "bundle", "", &["scenarios"]).map_err(|e| e.within(path))?;
        let items = list.as_array().ok_or_else(|| {
            ProtocolError::malformed(format!("{path}: `scenarios` must be an array"))
        })?;
        if items.is_empty() {
            return Err(ProtocolError::malformed(format!(
                "{path}: `scenarios` is empty"
            )));
        }
        items.iter().map(Self::from_json_value).collect()
    }

    fn decode(doc: &JsonValue) -> Result<Self, ProtocolError> {
        let doc = Fields::labelled(
            doc,
            "scenario",
            "",
            &[
                "name",
                "topology",
                "field",
                "protocol",
                "stop",
                "faults",
                "transport",
                "parallelism",
                "trials",
                "seed",
            ],
        )?;
        let topology = doc.require("topology", decode_topology)?;
        let protocol = doc.require("protocol", decode_protocol)?;
        Ok(ScenarioSpec {
            name: doc
                .optional("name", text)?
                .unwrap_or_else(|| format!("{}-n{}", protocol.name, topology.n)),
            field: doc
                .optional("field", decode_field)?
                .unwrap_or(Field::SpatialGradient),
            stop: doc.require("stop", decode_stop)?,
            faults: doc
                .optional("faults", |value, _| FaultSpec::decode(value))?
                .unwrap_or_default(),
            transport: doc.optional("transport", |value, _| TransportSpec::decode(value))?,
            parallelism: doc.optional("parallelism", ParallelSpec::decode)?,
            trials: doc.optional("trials", whole)?.unwrap_or(1),
            seed: doc.optional("seed", whole)?.unwrap_or(STANDARD_SEED),
            topology,
            protocol,
        })
    }
}

/// Renders a [`PlacementSpec`] to its JSON form (shared with the sweep
/// schema, so the placement grammar cannot drift between the two).
pub(crate) fn placement_to_json(placement: &PlacementSpec) -> JsonValue {
    match *placement {
        PlacementSpec::UniformSquare => JsonValue::string("uniform-square"),
        PlacementSpec::Clustered { clusters, spread } => JsonValue::object(vec![(
            "clustered",
            JsonValue::object(vec![
                ("clusters", clusters.into()),
                ("spread", spread.into()),
            ]),
        )]),
        PlacementSpec::Perforated { hole } => JsonValue::object(vec![(
            "perforated",
            JsonValue::object(vec![(
                "hole",
                JsonValue::Array(vec![
                    hole.min().x.into(),
                    hole.min().y.into(),
                    hole.max().x.into(),
                    hole.max().y.into(),
                ]),
            )]),
        )]),
    }
}

/// Renders a [`RadiusSpec`] to its JSON form (shared with the sweep schema).
pub(crate) fn radius_to_json(radius: &RadiusSpec) -> JsonValue {
    match *radius {
        RadiusSpec::ConnectivityConstant(c) => {
            JsonValue::object(vec![("connectivity-constant", c.into())])
        }
        RadiusSpec::Absolute(r) => JsonValue::object(vec![("absolute", r.into())]),
    }
}

/// Renders a [`ProtocolSpec`] (name + params) to its JSON form (shared with
/// the sweep schema).
pub(crate) fn protocol_to_json(protocol: &ProtocolSpec) -> JsonValue {
    let params = JsonValue::Object(
        protocol
            .params
            .iter()
            .map(|(k, v)| {
                let value = match v {
                    ParamValue::Number(x) => JsonValue::Number(*x),
                    ParamValue::Text(s) => JsonValue::string(s.clone()),
                    ParamValue::Flag(b) => JsonValue::Bool(*b),
                };
                (k.clone(), value)
            })
            .collect(),
    );
    JsonValue::object(vec![
        ("name", JsonValue::string(protocol.name.clone())),
        ("params", params),
    ])
}

/// Renders a `stop` object (shared with the sweep schema): the scenario's
/// `epsilon` when given, then the two caps, `null` for no cap.
pub(crate) fn stop_to_json(
    epsilon: Option<f64>,
    max_ticks: Option<u64>,
    max_transmissions: Option<u64>,
) -> JsonValue {
    let or_null = |cap: Option<u64>| cap.map_or(JsonValue::Null, JsonValue::from);
    let caps = [
        ("max-ticks", or_null(max_ticks)),
        ("max-transmissions", or_null(max_transmissions)),
    ];
    JsonValue::object(
        epsilon
            .map(|e| ("epsilon", JsonValue::from(e)))
            .into_iter()
            .chain(caps)
            .collect(),
    )
}

/// Reads the tick and transmission caps of a `stop` object (shared with the
/// sweep schema): an absent cap is the standard budget, `null` is no cap.
pub(crate) fn decode_caps(stop: &Fields) -> Result<(Option<u64>, Option<u64>), ProtocolError> {
    Ok((
        stop.optional("max-ticks", cap)?
            .unwrap_or(Some(STANDARD_MAX_TICKS)),
        stop.optional("max-transmissions", cap)?
            .unwrap_or(Some(STANDARD_MAX_TRANSMISSIONS)),
    ))
}

/// Decodes a placement value (`"uniform-square"`, `{"clustered": …}` or
/// `{"perforated": …}`).
pub(crate) fn decode_placement(
    value: &JsonValue,
    path: &str,
) -> Result<PlacementSpec, ProtocolError> {
    let (name, inner, path) = one_of(
        value,
        path,
        Some("uniform-square"),
        &["clustered", "perforated"],
    )?;
    match name {
        "clustered" => {
            let clustered = Fields::new(inner, &path, &["clusters", "spread"])?;
            Ok(PlacementSpec::Clustered {
                clusters: clustered.require("clusters", whole)?,
                spread: clustered.require("spread", number)?,
            })
        }
        "perforated" => {
            let hole = Fields::new(inner, &path, &["hole"])?.require("hole", each(number))?;
            let [x0, y0, x1, y1] = hole[..] else {
                return Err(ProtocolError::malformed(format!(
                    "`{path}.hole` must be an array [x0, y0, x1, y1]"
                )));
            };
            Ok(PlacementSpec::Perforated {
                hole: Rect::new(Point::new(x0, y0), Point::new(x1, y1)),
            })
        }
        _ => Ok(PlacementSpec::UniformSquare),
    }
}

/// Decodes a radius value (`{"connectivity-constant": c}` or
/// `{"absolute": r}`).
pub(crate) fn decode_radius(value: &JsonValue, path: &str) -> Result<RadiusSpec, ProtocolError> {
    let (name, inner, path) = one_of(value, path, None, &["connectivity-constant", "absolute"])?;
    let r = number(inner, &path)?;
    Ok(if name == "absolute" {
        RadiusSpec::Absolute(r)
    } else {
        RadiusSpec::ConnectivityConstant(r)
    })
}

/// Decodes a surface token (`"unit-square"` / `"torus"`).
pub(crate) fn decode_surface(value: &JsonValue, path: &str) -> Result<Topology, ProtocolError> {
    let token = text(value, path)?;
    Topology::parse(&token).ok_or_else(|| {
        ProtocolError::malformed(format!(
            "unknown surface `{token}` (known: unit-square, torus)"
        ))
    })
}

/// Decodes a field token (shared with the sweep schema).
pub(crate) fn decode_field(value: &JsonValue, path: &str) -> Result<Field, ProtocolError> {
    let token = text(value, path)?;
    Field::parse(&token).ok_or_else(|| {
        ProtocolError::malformed(format!(
            "unknown field `{token}` (known: spike, uniform, ramp, bimodal, spatial-gradient)"
        ))
    })
}

fn decode_topology(value: &JsonValue, path: &str) -> Result<TopologySpec, ProtocolError> {
    let topology = Fields::new(value, path, &["n", "placement", "radius", "surface"])?;
    Ok(TopologySpec {
        n: topology.require("n", whole)?,
        placement: topology
            .optional("placement", decode_placement)?
            .unwrap_or(PlacementSpec::UniformSquare),
        radius: topology
            .optional("radius", decode_radius)?
            .unwrap_or(RadiusSpec::ConnectivityConstant(STANDARD_RADIUS_CONSTANT)),
        surface: topology
            .optional("surface", decode_surface)?
            .unwrap_or(Topology::UnitSquare),
    })
}

/// Decodes a protocol value (`{"name": …, "params": {…}}`); the params'
/// keys are the registry's to check.
pub(crate) fn decode_protocol(
    value: &JsonValue,
    path: &str,
) -> Result<ProtocolSpec, ProtocolError> {
    let protocol = Fields::new(value, path, &["name", "params"])?;
    Ok(ProtocolSpec {
        name: protocol.require("name", text)?,
        params: protocol
            .optional("params", decode_params)?
            .unwrap_or_default(),
    })
}

fn decode_params(value: &JsonValue, path: &str) -> Result<ParamMap, ProtocolError> {
    let params = value
        .as_object()
        .ok_or_else(|| ProtocolError::malformed(format!("`{path}` must be an object")))?;
    params
        .iter()
        .map(|(key, value)| {
            let param = match value {
                JsonValue::Number(v) => ParamValue::Number(*v),
                JsonValue::String(s) => ParamValue::Text(s.clone()),
                JsonValue::Bool(b) => ParamValue::Flag(*b),
                other => {
                    return Err(ProtocolError::malformed(format!(
                        "`{path}.{key}` must be a number, string or bool, got {other:?}"
                    )))
                }
            };
            Ok((key.clone(), param))
        })
        .collect()
}

fn decode_stop(value: &JsonValue, path: &str) -> Result<StopCondition, ProtocolError> {
    let stop = Fields::new(value, path, &["epsilon", "max-ticks", "max-transmissions"])?;
    let (max_ticks, max_transmissions) = decode_caps(&stop)?;
    Ok(StopCondition {
        epsilon: stop.require("epsilon", number)?,
        max_ticks,
        max_transmissions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::DEFAULT_TICK_BATCH;
    use crate::field::InitialCondition;

    #[test]
    fn standard_spec_matches_the_historical_workload() {
        let spec = ScenarioSpec::standard("pairwise", 256, 0.05);
        assert_eq!(spec.topology.n, 256);
        assert_eq!(spec.topology.placement, PlacementSpec::UniformSquare);
        assert_eq!(
            spec.topology.radius,
            RadiusSpec::ConnectivityConstant(STANDARD_RADIUS_CONSTANT)
        );
        assert_eq!(spec.field, Field::SpatialGradient);
        assert_eq!(spec.stop.max_ticks, Some(STANDARD_MAX_TICKS));
        assert_eq!(spec.stop.max_transmissions, Some(1_000_000_000));
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_epsilon_and_sizes() {
        let mut spec = ScenarioSpec::standard("pairwise", 128, 0.0);
        assert!(matches!(
            spec.validate(),
            Err(ProtocolError::InvalidParameter { name, .. }) if name == "epsilon"
        ));
        spec.stop.epsilon = f64::NAN;
        assert!(spec.validate().is_err());
        spec.stop.epsilon = 0.1;
        spec.topology.n = 1;
        assert!(spec.validate().is_err());
        spec.topology.n = 64;
        spec.trials = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn topology_build_is_reproducible_per_trial() {
        let spec = TopologySpec::standard(128);
        let seeds = SeedStream::new(9);
        let a = spec.build(&seeds, 0);
        let b = spec.build(&seeds, 0);
        let c = spec.build(&seeds, 1);
        assert_eq!(a.positions(), b.positions());
        assert_ne!(a.positions(), c.positions());
    }

    #[test]
    fn json_round_trips_a_rich_spec() {
        let mut spec = ScenarioSpec::standard("affine-idealized", 512, 0.02)
            .with_trials(3)
            .with_seed(7)
            .with_field(Field::Condition(InitialCondition::Bimodal));
        spec.topology.placement = PlacementSpec::Clustered {
            clusters: 4,
            spread: 0.08,
        };
        spec.topology.surface = Topology::Torus;
        spec.protocol = ProtocolSpec::named("affine-idealized")
            .with_number("coefficient-fraction", 0.3)
            .with_text("local-averaging", "exact");
        spec.stop.max_transmissions = None;

        let json = spec.to_json();
        let parsed = ScenarioSpec::from_json(&json).expect("round trip parses");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn json_defaults_fill_missing_fields() {
        let spec = ScenarioSpec::from_json(
            r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"}, "stop": {"epsilon": 0.5}}"#,
        )
        .expect("minimal spec parses");
        assert_eq!(spec.name, "pairwise-n64");
        assert_eq!(spec.trials, 1);
        assert_eq!(spec.seed, STANDARD_SEED);
        assert_eq!(spec.field, Field::SpatialGradient);
        assert_eq!(spec.topology.surface, Topology::UnitSquare);
    }

    #[test]
    fn json_rejects_schema_violations() {
        for (bad, fragment) in [
            (r#"[]"#, "object"),
            (
                r#"{"protocol": {"name": "pairwise"}, "stop": {"epsilon": 0.5}}"#,
                "topology",
            ),
            (
                r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"}, "stop": {"epsilon": 0.5}, "oops": 1}"#,
                "unknown scenario key",
            ),
            (
                r#"{"topology": {"n": 64, "surface": "moebius"}, "protocol": {"name": "pairwise"}, "stop": {"epsilon": 0.5}}"#,
                "surface",
            ),
            (
                r#"{"topology": {"n": 64}, "field": "sawtooth", "protocol": {"name": "pairwise"}, "stop": {"epsilon": 0.5}}"#,
                "field",
            ),
            (
                r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"}, "stop": {"epsilon": -1}}"#,
                "epsilon",
            ),
        ] {
            let err = ScenarioSpec::from_json(bad).expect_err(bad);
            assert!(
                err.to_string().contains(fragment),
                "error for {bad} was `{err}`, expected to mention `{fragment}`"
            );
        }
    }

    #[test]
    fn json_round_trips_a_faulty_spec_and_defaults_to_no_faults() {
        use crate::fault::ChurnEvent;
        let spec = ScenarioSpec::standard("pairwise", 128, 0.1).with_faults(FaultSpec {
            drop_rate: 0.2,
            stale_fraction: 0.05,
            churn: vec![ChurnEvent {
                fraction: 0.1,
                at_tick: 500,
                rejoin_tick: Some(2_000),
            }],
        });
        let json = spec.to_json();
        assert!(json.contains("\"faults\""));
        let parsed = ScenarioSpec::from_json(&json).expect("faulty spec round trips");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), json);

        // No faults → no `faults` key in the rendering (schema stability),
        // and a missing key decodes to the default.
        let plain = ScenarioSpec::standard("pairwise", 128, 0.1);
        assert!(!plain.to_json().contains("faults"));
        let parsed = ScenarioSpec::from_json(&plain.to_json()).unwrap();
        assert!(parsed.faults.is_none());

        // An explicit all-default faults object is the same spec.
        let explicit = ScenarioSpec::from_json(
            r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"},
                "stop": {"epsilon": 0.5}, "faults": {}}"#,
        )
        .unwrap();
        assert!(explicit.faults.is_none());
    }

    #[test]
    fn json_rejects_bad_fault_specs() {
        for (bad, fragment) in [
            (
                r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"},
                    "stop": {"epsilon": 0.5}, "faults": {"oops": 1}}"#,
                "unknown faults key",
            ),
            (
                r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"},
                    "stop": {"epsilon": 0.5}, "faults": {"drop-rate": 1.5}}"#,
                "drop-rate",
            ),
        ] {
            let err = ScenarioSpec::from_json(bad).expect_err(bad);
            assert!(
                err.to_string().contains(fragment),
                "error for {bad} was `{err}`, expected `{fragment}`"
            );
        }
    }

    #[test]
    fn json_round_trips_parallelism_and_defaults_to_none() {
        let spec = ScenarioSpec::standard("geographic", 256, 0.05)
            .with_parallelism(ParallelSpec::with_threads(4).with_batch(512));
        let json = spec.to_json();
        assert!(json.contains("\"parallelism\""));
        let parsed = ScenarioSpec::from_json(&json).expect("parallel spec round trips");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), json);

        // No parallelism → no key in the rendering (schema stability), and a
        // missing key decodes to the sequential path.
        let plain = ScenarioSpec::standard("geographic", 256, 0.05);
        assert!(!plain.to_json().contains("parallelism"));
        let parsed = ScenarioSpec::from_json(&plain.to_json()).unwrap();
        assert_eq!(parsed.parallelism, None);

        // `batch` is optional and defaults to the engine's batch size.
        let defaulted = ScenarioSpec::from_json(
            r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"},
                "stop": {"epsilon": 0.5}, "parallelism": {"threads": 2}}"#,
        )
        .unwrap();
        assert_eq!(
            defaulted.parallelism,
            Some(ParallelSpec {
                threads: 2,
                batch: DEFAULT_TICK_BATCH
            })
        );
    }

    #[test]
    fn json_rejects_bad_parallelism_specs() {
        for (bad, fragment) in [
            (
                r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"},
                    "stop": {"epsilon": 0.5}, "parallelism": {"threads": 2, "oops": 1}}"#,
                "unknown parallelism key",
            ),
            (
                r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"},
                    "stop": {"epsilon": 0.5}, "parallelism": {"batch": 64}}"#,
                "parallelism.threads",
            ),
            (
                r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"},
                    "stop": {"epsilon": 0.5}, "parallelism": {"threads": 0}}"#,
                "parallelism.threads",
            ),
            (
                r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"},
                    "stop": {"epsilon": 0.5}, "parallelism": {"threads": 2, "batch": 0}}"#,
                "parallelism.batch",
            ),
            (
                r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"},
                    "stop": {"epsilon": 0.5}, "parallelism": {"threads": 2},
                    "transport": {"latency": "instant"}}"#,
                "cannot be combined with a `transport`",
            ),
        ] {
            let err = ScenarioSpec::from_json(bad).expect_err(bad);
            assert!(
                err.to_string().contains(fragment),
                "error for {bad} was `{err}`, expected `{fragment}`"
            );
        }
    }

    #[test]
    fn protocol_param_accessors_enforce_types() {
        let spec = ProtocolSpec::named("x")
            .with_number("alpha", 0.4)
            .with_text("mode", "exact");
        assert_eq!(spec.number("alpha", 0.0).unwrap(), 0.4);
        assert_eq!(spec.number("missing", 1.5).unwrap(), 1.5);
        assert!(spec.number("mode", 0.0).is_err());
        assert_eq!(spec.text("mode", "gossip").unwrap(), "exact");
        assert!(spec.text("alpha", "x").is_err());
        assert!(spec.reject_unknown(&["alpha", "mode"]).is_ok());
        assert!(spec.reject_unknown(&["alpha"]).is_err());
    }
}
