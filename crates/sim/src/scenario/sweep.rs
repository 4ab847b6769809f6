//! Parameter-grid campaigns as data: the [`SweepSpec`] schema.
//!
//! The paper's headline result is a *scaling comparison* — transmissions to
//! ε-average grow like `n²` for nearest-neighbor gossip, `~n^{3/2}` for
//! geographic gossip and `n^{1+o(1)}` for the affine hierarchy. Reproducing
//! such a curve means running a **grid** of scenarios: every protocol at
//! every network size (and possibly every placement / surface / radius
//! regime / accuracy target). A [`SweepSpec`] declares that grid as data;
//! [`SweepSpec::expand`] turns it into a deterministic scenario matrix
//! (cartesian product), each cell a plain [`ScenarioSpec`] ready for the
//! [`Runner`](crate::scenario::Runner).
//!
//! # Determinism
//!
//! * **Cell order is part of the schema.** Axes expand nested, protocol
//!   outermost and `n` innermost:
//!   `protocol → transport → faults → surface → placement → radius → epsilon
//!   → n`. A sweep's cell index therefore never changes unless the sweep
//!   itself changes, which is what lets the lab's results log key checkpoints
//!   off `(index, name)`. The `faults` axis defaults to a single no-fault
//!   entry and the `transport` axis to a single default-transport (shared
//!   memory) entry, so sweeps that never mention either keep their
//!   historical indices.
//! * **Per-cell seeds derive from `(master_seed, cell_index)`** through a
//!   splitmix64 finalizer ([`derive_cell_seed`]), and the runner derives every
//!   per-trial stream from `(cell_seed, trial)` — so the full derivation chain
//!   is `(master_seed, cell_index, trial)` and cells stay statistically
//!   independent while remaining bit-reproducible in any execution order.
//!
//! # Schema
//!
//! ```json
//! {
//!   "sweep": "scaling-headline",
//!   "axes": {
//!     "n": [128, 256, 512],
//!     "protocol": [{"name": "pairwise", "params": {}}],
//!     "placement": ["uniform-square"],
//!     "radius": [{"connectivity-constant": 1.5}],
//!     "surface": ["unit-square"],
//!     "epsilon": [0.05]
//!   },
//!   "field": "spatial-gradient",
//!   "stop": {"max-ticks": 200000000, "max-transmissions": 1000000000},
//!   "trials": 2,
//!   "seed": 20070612
//! }
//! ```
//!
//! `n` and `protocol` are required; the other axes default to single-element
//! standard values. Unknown keys — top level, inside `axes`, inside `stop` —
//! are **hard errors**, mirroring the [`ScenarioSpec`] discipline. The
//! top-level `"sweep"` key doubles as the document discriminator: loaders
//! (`geogossip validate`) treat any document carrying it as a sweep.

use crate::batch::ParallelSpec;
use crate::error::ProtocolError;
use crate::fault::FaultSpec;
use crate::field::Field;
use crate::scenario::spec::{
    decode_parallelism, decode_placement, decode_protocol, decode_radius, decode_surface,
    placement_to_json, protocol_to_json, radius_to_json, PlacementSpec, ProtocolSpec, RadiusSpec,
    ScenarioSpec, TopologySpec, STANDARD_MAX_TICKS, STANDARD_RADIUS_CONSTANT, STANDARD_SEED,
};
use crate::transport::TransportSpec;
use crate::StopCondition;
use geogossip_analysis::json::JsonValue;
use geogossip_geometry::Topology;
use serde::{Deserialize, Serialize};

/// Default transmission cap of sweep cells (matches the scenario default).
const STANDARD_MAX_TRANSMISSIONS: u64 = 1_000_000_000;

/// A declarative parameter-grid campaign: axes over network size, protocol,
/// placement, radius regime, surface and accuracy target, expanded into a
/// deterministic matrix of [`ScenarioSpec`] cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Campaign label; prefixes every cell name and report file.
    pub name: String,
    /// Axis over the network size `n` (required, non-empty).
    pub sizes: Vec<usize>,
    /// Axis over protocols (required, non-empty).
    pub protocols: Vec<ProtocolSpec>,
    /// Axis over placements (defaults to `[UniformSquare]`).
    pub placements: Vec<PlacementSpec>,
    /// Axis over radius regimes (defaults to the standard connectivity
    /// constant).
    pub radii: Vec<RadiusSpec>,
    /// Axis over surfaces (defaults to `[UnitSquare]`).
    pub surfaces: Vec<Topology>,
    /// Axis over stop targets ε (defaults to `[0.05]`).
    pub epsilons: Vec<f64>,
    /// Axis over execution transports (`None` = shared-memory engine;
    /// defaults to a single `None` entry, which keeps historical cell
    /// indices and never constructs the net layer).
    pub transports: Vec<Option<TransportSpec>>,
    /// Axis over fault regimes (defaults to a single no-fault entry, which
    /// keeps historical cell indices and leaves the engine untouched).
    pub faults: Vec<FaultSpec>,
    /// Initial measurement field shared by every cell.
    pub field: Field,
    /// Intra-trial parallelism shared by every cell (`None` = sequential).
    /// An execution knob, not an axis: parallel execution is bit-identical
    /// to sequential, so sweeping over it would duplicate every cell.
    pub parallelism: Option<ParallelSpec>,
    /// Tick cap shared by every cell (`None` disables the cap).
    pub max_ticks: Option<u64>,
    /// Transmission cap shared by every cell (`None` disables the cap).
    pub max_transmissions: Option<u64>,
    /// Trials per cell.
    pub trials: u64,
    /// Master seed; every cell derives its own seed from
    /// `(seed, cell_index)`.
    pub seed: u64,
}

/// One cell of an expanded sweep: its position in the matrix plus the
/// ready-to-run scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Flat index in expansion order (stable across resumes).
    pub index: u64,
    /// The concrete scenario, with derived name and seed.
    pub spec: ScenarioSpec,
}

/// Derives the seed of sweep cell `cell_index` from the campaign's master
/// seed: a splitmix64 finalizer over `master ⊕ (index · φ64)`. Distinct
/// cells get decorrelated seeds; the same `(master, index)` always yields
/// the same seed, in any execution order.
pub fn derive_cell_seed(master: u64, cell_index: u64) -> u64 {
    let mut z = master ^ cell_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SweepSpec {
    /// A sweep over the two required axes with standard defaults everywhere
    /// else: uniform placement, standard radius, unit square, ε = 0.05,
    /// gradient field, scenario-standard caps, one trial, the standard seed.
    pub fn new(name: impl Into<String>, sizes: Vec<usize>, protocols: Vec<ProtocolSpec>) -> Self {
        SweepSpec {
            name: name.into(),
            sizes,
            protocols,
            placements: vec![PlacementSpec::UniformSquare],
            radii: vec![RadiusSpec::ConnectivityConstant(STANDARD_RADIUS_CONSTANT)],
            surfaces: vec![Topology::UnitSquare],
            epsilons: vec![0.05],
            transports: vec![None],
            faults: vec![FaultSpec::default()],
            field: Field::SpatialGradient,
            parallelism: None,
            max_ticks: Some(STANDARD_MAX_TICKS),
            max_transmissions: Some(STANDARD_MAX_TRANSMISSIONS),
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

    /// Replaces the ε axis (builder style).
    pub fn with_epsilons(mut self, epsilons: Vec<f64>) -> Self {
        self.epsilons = epsilons;
        self
    }

    /// Replaces the fault-regime axis (builder style).
    pub fn with_faults_axis(mut self, faults: Vec<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the transport axis (builder style).
    pub fn with_transport_axis(mut self, transports: Vec<Option<TransportSpec>>) -> Self {
        self.transports = transports;
        self
    }

    /// Replaces the shared field (builder style).
    pub fn with_field(mut self, field: Field) -> Self {
        self.field = field;
        self
    }

    /// Enables intra-trial parallelism in every cell (builder style).
    pub fn with_parallelism(mut self, parallelism: ParallelSpec) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Number of cells the sweep expands to.
    pub fn cell_count(&self) -> u64 {
        (self.protocols.len()
            * self.transports.len()
            * self.faults.len()
            * self.surfaces.len()
            * self.placements.len()
            * self.radii.len()
            * self.epsilons.len()
            * self.sizes.len()) as u64
    }

    /// Expands the grid into its scenario matrix, in the canonical cell
    /// order (protocol outermost, `n` innermost). Cell names are
    /// `{sweep}/c{index:04}-{protocol}-n{n}` — unique by index, readable by
    /// protocol and size.
    pub fn expand(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.cell_count() as usize);
        let mut index = 0u64;
        for protocol in &self.protocols {
            for &transport in &self.transports {
                for faults in &self.faults {
                    for &surface in &self.surfaces {
                        for &placement in &self.placements {
                            for &radius in &self.radii {
                                for &epsilon in &self.epsilons {
                                    for &n in &self.sizes {
                                        let spec = ScenarioSpec {
                                            name: format!(
                                                "{}/c{:04}-{}-n{}",
                                                self.name, index, protocol.name, n
                                            ),
                                            topology: TopologySpec {
                                                n,
                                                placement,
                                                radius,
                                                surface,
                                            },
                                            field: self.field,
                                            protocol: protocol.clone(),
                                            stop: StopCondition {
                                                epsilon,
                                                max_ticks: self.max_ticks,
                                                max_transmissions: self.max_transmissions,
                                            },
                                            faults: faults.clone(),
                                            transport,
                                            parallelism: self.parallelism,
                                            trials: self.trials,
                                            seed: derive_cell_seed(self.seed, index),
                                        };
                                        cells.push(SweepCell { index, spec });
                                        index += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Checks every parameter of the sweep, including every expanded cell,
    /// returning the first violation.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.name.is_empty() {
            return Err(ProtocolError::invalid("sweep", "must be non-empty"));
        }
        for (axis, len) in [
            ("axes.n", self.sizes.len()),
            ("axes.protocol", self.protocols.len()),
            ("axes.placement", self.placements.len()),
            ("axes.radius", self.radii.len()),
            ("axes.surface", self.surfaces.len()),
            ("axes.epsilon", self.epsilons.len()),
            ("axes.transport", self.transports.len()),
            ("axes.faults", self.faults.len()),
        ] {
            if len == 0 {
                return Err(ProtocolError::invalid(axis, "axis must be non-empty"));
            }
        }
        if self.trials == 0 {
            return Err(ProtocolError::invalid("trials", "need at least one trial"));
        }
        for cell in self.expand() {
            cell.spec.validate().map_err(|e| {
                ProtocolError::malformed(format!("cell {} (`{}`): {e}", cell.index, cell.spec.name))
            })?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // JSON serde (hand-rendered through `geogossip_analysis::json`).
    // ------------------------------------------------------------------

    /// Whether a parsed JSON document is a sweep (carries the top-level
    /// `"sweep"` key) rather than a scenario.
    pub fn is_sweep_document(doc: &JsonValue) -> bool {
        doc.get("sweep").is_some()
    }

    /// Serialises the sweep to its JSON document model. The `faults` axis is
    /// emitted only when it differs from the single no-fault default, so
    /// documents written before faults existed render byte-identically.
    pub fn to_json_value(&self) -> JsonValue {
        let optional_cap = |cap: Option<u64>| cap.map_or(JsonValue::Null, JsonValue::from);
        let mut axes = vec![
            (
                "n",
                JsonValue::Array(self.sizes.iter().map(|&n| n.into()).collect()),
            ),
            (
                "protocol",
                JsonValue::Array(self.protocols.iter().map(protocol_to_json).collect()),
            ),
            (
                "placement",
                JsonValue::Array(self.placements.iter().map(placement_to_json).collect()),
            ),
            (
                "radius",
                JsonValue::Array(self.radii.iter().map(radius_to_json).collect()),
            ),
            (
                "surface",
                JsonValue::Array(
                    self.surfaces
                        .iter()
                        .map(|s| JsonValue::string(s.token()))
                        .collect(),
                ),
            ),
            (
                "epsilon",
                JsonValue::Array(self.epsilons.iter().map(|&e| e.into()).collect()),
            ),
        ];
        if self.transports != vec![None] {
            axes.push((
                "transport",
                JsonValue::Array(
                    self.transports
                        .iter()
                        .map(|t| {
                            t.as_ref()
                                .map_or(JsonValue::Null, TransportSpec::to_json_value)
                        })
                        .collect(),
                ),
            ));
        }
        if self.faults != vec![FaultSpec::default()] {
            axes.push((
                "faults",
                JsonValue::Array(self.faults.iter().map(FaultSpec::to_json_value).collect()),
            ));
        }
        let mut fields = vec![
            ("sweep", JsonValue::string(self.name.clone())),
            ("axes", JsonValue::object(axes)),
            ("field", JsonValue::string(self.field.token())),
            (
                "stop",
                JsonValue::object(vec![
                    ("max-ticks", optional_cap(self.max_ticks)),
                    ("max-transmissions", optional_cap(self.max_transmissions)),
                ]),
            ),
        ];
        if let Some(parallelism) = &self.parallelism {
            fields.push((
                "parallelism",
                JsonValue::object(vec![
                    ("threads", parallelism.threads.into()),
                    ("batch", parallelism.batch.into()),
                ]),
            ));
        }
        fields.push(("trials", self.trials.into()));
        fields.push(("seed", self.seed.into()));
        JsonValue::object(fields)
    }

    /// Renders the sweep as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// Parses a sweep from JSON text and validates it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MalformedSpec`] for syntax or schema violations
    /// (unknown keys are hard errors), plus everything
    /// [`SweepSpec::validate`] reports.
    pub fn from_json(text: &str) -> Result<Self, ProtocolError> {
        let doc = JsonValue::parse(text).map_err(|e| ProtocolError::malformed(e.to_string()))?;
        Self::from_json_value(&doc)
    }

    /// Parses a sweep from its JSON document model and validates it.
    pub fn from_json_value(doc: &JsonValue) -> Result<Self, ProtocolError> {
        let spec = Self::decode(doc)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a sweep from the text of the file at `path`; messages carry
    /// the path. The caller reads the file, so it can report a read failure
    /// as its own kind of error.
    pub fn from_file_text(path: &str, text: &str) -> Result<Self, ProtocolError> {
        let doc =
            JsonValue::parse(text).map_err(|e| ProtocolError::malformed(format!("{path}: {e}")))?;
        Self::from_json_value(&doc).map_err(|e| ProtocolError::malformed(format!("{path}: {e}")))
    }

    fn decode(doc: &JsonValue) -> Result<Self, ProtocolError> {
        let obj = doc
            .as_object()
            .ok_or_else(|| ProtocolError::malformed("sweep must be a JSON object"))?;
        for (key, _) in obj {
            if !matches!(
                key.as_str(),
                "sweep" | "axes" | "field" | "stop" | "parallelism" | "trials" | "seed"
            ) {
                return Err(ProtocolError::malformed(format!(
                    "unknown sweep key `{key}`"
                )));
            }
        }
        let name = doc
            .get("sweep")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| {
                ProtocolError::malformed("`sweep` must be a string (the campaign name)")
            })?
            .to_string();
        let axes = doc
            .get("axes")
            .ok_or_else(|| ProtocolError::malformed("missing `axes`"))?;
        let axes_obj = axes
            .as_object()
            .ok_or_else(|| ProtocolError::malformed("`axes` must be an object"))?;
        for (key, _) in axes_obj {
            if !matches!(
                key.as_str(),
                "n" | "protocol"
                    | "placement"
                    | "radius"
                    | "surface"
                    | "epsilon"
                    | "transport"
                    | "faults"
            ) {
                return Err(ProtocolError::malformed(format!(
                    "unknown axis `{key}` (known: n, protocol, placement, radius, surface, epsilon, transport, faults)"
                )));
            }
        }
        let axis = |key: &str| -> Result<Option<&[JsonValue]>, ProtocolError> {
            match axes.get(key) {
                None => Ok(None),
                Some(value) => value.as_array().map(Some).ok_or_else(|| {
                    ProtocolError::malformed(format!("`axes.{key}` must be an array"))
                }),
            }
        };
        let sizes: Vec<usize> = axis("n")?
            .ok_or_else(|| ProtocolError::malformed("missing `axes.n`"))?
            .iter()
            .map(|v| {
                v.as_u64().map(|n| n as usize).ok_or_else(|| {
                    ProtocolError::malformed("`axes.n` entries must be whole numbers")
                })
            })
            .collect::<Result<_, _>>()?;
        let protocols: Vec<ProtocolSpec> = axis("protocol")?
            .ok_or_else(|| ProtocolError::malformed("missing `axes.protocol`"))?
            .iter()
            .map(decode_protocol)
            .collect::<Result<_, _>>()?;
        let placements: Vec<PlacementSpec> = match axis("placement")? {
            None => vec![PlacementSpec::UniformSquare],
            Some(items) => items
                .iter()
                .map(decode_placement)
                .collect::<Result<_, _>>()?,
        };
        let radii: Vec<RadiusSpec> = match axis("radius")? {
            None => vec![RadiusSpec::ConnectivityConstant(STANDARD_RADIUS_CONSTANT)],
            Some(items) => items.iter().map(decode_radius).collect::<Result<_, _>>()?,
        };
        let surfaces: Vec<Topology> = match axis("surface")? {
            None => vec![Topology::UnitSquare],
            Some(items) => items.iter().map(decode_surface).collect::<Result<_, _>>()?,
        };
        let epsilons: Vec<f64> = match axis("epsilon")? {
            None => vec![0.05],
            Some(items) => items
                .iter()
                .map(|v| {
                    v.as_f64().ok_or_else(|| {
                        ProtocolError::malformed("`axes.epsilon` entries must be numbers")
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        let transports: Vec<Option<TransportSpec>> = match axis("transport")? {
            None => vec![None],
            Some(items) => items
                .iter()
                .map(|v| match v {
                    // `null` = the default shared-memory engine, so one axis
                    // can compare it against net transports directly.
                    JsonValue::Null => Ok(None),
                    other => TransportSpec::decode(other).map(Some),
                })
                .collect::<Result<_, _>>()?,
        };
        let faults: Vec<FaultSpec> = match axis("faults")? {
            None => vec![FaultSpec::default()],
            Some(items) => items
                .iter()
                .map(FaultSpec::decode)
                .collect::<Result<_, _>>()?,
        };
        let field_token = doc
            .get("field")
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ProtocolError::malformed("`field` must be a string"))
            })
            .transpose()?
            .unwrap_or_else(|| "spatial-gradient".to_string());
        let field = Field::parse(&field_token).ok_or_else(|| {
            ProtocolError::malformed(format!(
                "unknown field `{field_token}` (known: spike, uniform, ramp, bimodal, spatial-gradient)"
            ))
        })?;
        let (max_ticks, max_transmissions) = match doc.get("stop") {
            None => (Some(STANDARD_MAX_TICKS), Some(STANDARD_MAX_TRANSMISSIONS)),
            Some(stop) => {
                let stop_obj = stop
                    .as_object()
                    .ok_or_else(|| ProtocolError::malformed("`stop` must be an object"))?;
                for (key, _) in stop_obj {
                    if !matches!(key.as_str(), "max-ticks" | "max-transmissions") {
                        return Err(ProtocolError::malformed(format!(
                            "unknown sweep stop key `{key}` (ε is an axis: `axes.epsilon`)"
                        )));
                    }
                }
                let cap = |key: &str, default: Option<u64>| -> Result<Option<u64>, ProtocolError> {
                    match stop.get(key) {
                        None => Ok(default),
                        Some(JsonValue::Null) => Ok(None),
                        Some(value) => value.as_u64().map(Some).ok_or_else(|| {
                            ProtocolError::malformed(format!(
                                "`stop.{key}` must be a whole number or null"
                            ))
                        }),
                    }
                };
                (
                    cap("max-ticks", Some(STANDARD_MAX_TICKS))?,
                    cap("max-transmissions", Some(STANDARD_MAX_TRANSMISSIONS))?,
                )
            }
        };
        let parallelism = match doc.get("parallelism") {
            None => None,
            Some(value) => Some(decode_parallelism(value)?),
        };
        let trials = match doc.get("trials") {
            None => 1,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ProtocolError::malformed("`trials` must be a whole number"))?,
        };
        let seed = match doc.get("seed") {
            None => STANDARD_SEED,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ProtocolError::malformed("`seed` must be a whole number"))?,
        };
        Ok(SweepSpec {
            name,
            sizes,
            protocols,
            placements,
            radii,
            surfaces,
            epsilons,
            transports,
            faults,
            field,
            parallelism,
            max_ticks,
            max_transmissions,
            trials,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_geometry::{Point, Rect};

    fn two_axis_sweep() -> SweepSpec {
        SweepSpec::new(
            "demo",
            vec![64, 128],
            vec![
                ProtocolSpec::named("pairwise"),
                ProtocolSpec::named("geographic"),
            ],
        )
        .with_trials(2)
        .with_seed(7)
    }

    #[test]
    fn expansion_order_is_protocol_major_n_minor() {
        let cells = two_axis_sweep().expand();
        assert_eq!(cells.len(), 4);
        let names: Vec<&str> = cells.iter().map(|c| c.spec.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "demo/c0000-pairwise-n64",
                "demo/c0001-pairwise-n128",
                "demo/c0002-geographic-n64",
                "demo/c0003-geographic-n128",
            ]
        );
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i as u64);
            assert_eq!(cell.spec.trials, 2);
        }
    }

    #[test]
    fn cell_seeds_derive_from_master_and_index() {
        let cells = two_axis_sweep().expand();
        // Distinct cells get distinct seeds; the derivation is pure.
        for i in 0..cells.len() {
            assert_eq!(cells[i].spec.seed, derive_cell_seed(7, i as u64));
            for j in (i + 1)..cells.len() {
                assert_ne!(cells[i].spec.seed, cells[j].spec.seed);
            }
        }
        // A different master seed moves every cell.
        let moved = two_axis_sweep().with_seed(8).expand();
        for (a, b) in cells.iter().zip(&moved) {
            assert_ne!(a.spec.seed, b.spec.seed);
        }
        // Expansion is deterministic.
        assert_eq!(cells, two_axis_sweep().expand());
    }

    #[test]
    fn full_grid_count_and_axis_placement() {
        let mut sweep = two_axis_sweep();
        sweep.surfaces = vec![Topology::UnitSquare, Topology::Torus];
        sweep.epsilons = vec![0.1, 0.2, 0.3];
        assert_eq!(sweep.cell_count(), 2 * 2 * 2 * 3);
        let cells = sweep.expand();
        assert_eq!(cells.len(), 24);
        // n is the innermost axis: consecutive cells differ only in n first.
        assert_eq!(cells[0].spec.topology.n, 64);
        assert_eq!(cells[1].spec.topology.n, 128);
        assert_eq!(cells[0].spec.stop.epsilon, cells[1].spec.stop.epsilon);
        // epsilon changes next.
        assert_eq!(cells[2].spec.stop.epsilon, 0.2);
    }

    #[test]
    fn parallelism_is_a_shared_knob_that_round_trips() {
        let sweep = two_axis_sweep().with_parallelism(ParallelSpec::with_threads(4));
        for cell in sweep.expand() {
            assert_eq!(cell.spec.parallelism, Some(ParallelSpec::with_threads(4)));
        }
        let json = sweep.to_json();
        assert!(json.contains("\"parallelism\""));
        let parsed = SweepSpec::from_json(&json).expect("parallel sweep round trips");
        assert_eq!(parsed, sweep);
        assert_eq!(parsed.to_json(), json);

        // Absent key → sequential cells and no key in the rendering.
        let plain = two_axis_sweep();
        assert!(!plain.to_json().contains("parallelism"));
        assert!(plain.expand().iter().all(|c| c.spec.parallelism.is_none()));
    }

    #[test]
    fn json_round_trips_a_rich_sweep() {
        let mut sweep = two_axis_sweep().with_epsilons(vec![0.05, 0.1]);
        sweep.placements = vec![
            PlacementSpec::UniformSquare,
            PlacementSpec::Clustered {
                clusters: 4,
                spread: 0.06,
            },
            PlacementSpec::Perforated {
                hole: Rect::new(Point::new(0.4, 0.4), Point::new(0.6, 0.6)),
            },
        ];
        sweep.surfaces = vec![Topology::UnitSquare, Topology::Torus];
        sweep.radii = vec![
            RadiusSpec::ConnectivityConstant(1.5),
            RadiusSpec::Absolute(0.2),
        ];
        sweep.max_transmissions = None;
        sweep.field = Field::parse("bimodal").unwrap();

        let json = sweep.to_json();
        let parsed = SweepSpec::from_json(&json).expect("round trip parses");
        assert_eq!(parsed, sweep);
        assert_eq!(
            parsed.to_json(),
            json,
            "JSON → sweep → JSON is a fixed point"
        );
    }

    #[test]
    fn json_defaults_fill_missing_axes() {
        let sweep = SweepSpec::from_json(
            r#"{"sweep": "mini", "axes": {"n": [64], "protocol": [{"name": "pairwise"}]}}"#,
        )
        .expect("minimal sweep parses");
        assert_eq!(sweep.placements, vec![PlacementSpec::UniformSquare]);
        assert_eq!(
            sweep.radii,
            vec![RadiusSpec::ConnectivityConstant(STANDARD_RADIUS_CONSTANT)]
        );
        assert_eq!(sweep.surfaces, vec![Topology::UnitSquare]);
        assert_eq!(sweep.epsilons, vec![0.05]);
        assert_eq!(sweep.trials, 1);
        assert_eq!(sweep.seed, STANDARD_SEED);
        assert_eq!(sweep.max_ticks, Some(STANDARD_MAX_TICKS));
    }

    #[test]
    fn json_rejects_schema_violations() {
        for (bad, fragment) in [
            (r#"[]"#, "object"),
            (
                r#"{"axes": {"n": [64], "protocol": [{"name": "x"}]}}"#,
                "sweep",
            ),
            (r#"{"sweep": "s"}"#, "axes"),
            (
                r#"{"sweep": "s", "axes": {"protocol": [{"name": "x"}]}}"#,
                "axes.n",
            ),
            (r#"{"sweep": "s", "axes": {"n": [64]}}"#, "axes.protocol"),
            (
                r#"{"sweep": "s", "axes": {"n": [64], "protocol": [{"name": "x"}]}, "oops": 1}"#,
                "unknown sweep key",
            ),
            (
                r#"{"sweep": "s", "axes": {"n": [64], "protocol": [{"name": "x"}], "temperature": [1]}}"#,
                "unknown axis",
            ),
            (
                r#"{"sweep": "s", "axes": {"n": [], "protocol": [{"name": "x"}]}}"#,
                "axes.n",
            ),
            (
                r#"{"sweep": "s", "axes": {"n": [64], "protocol": [{"name": "x"}], "epsilon": [-1]}}"#,
                "epsilon",
            ),
            (
                r#"{"sweep": "s", "axes": {"n": [64], "protocol": [{"name": "x"}], "surface": ["moebius"]}}"#,
                "surface",
            ),
            (
                r#"{"sweep": "s", "axes": {"n": [64], "protocol": [{"name": "x"}]}, "stop": {"epsilon": 0.1}}"#,
                "unknown sweep stop key",
            ),
            (
                r#"{"sweep": "s", "axes": {"n": [1], "protocol": [{"name": "x"}]}}"#,
                "two sensors",
            ),
        ] {
            let err = SweepSpec::from_json(bad).expect_err(bad);
            assert!(
                err.to_string().contains(fragment),
                "error for {bad} was `{err}`, expected to mention `{fragment}`"
            );
        }
    }

    #[test]
    fn faults_axis_expands_between_protocol_and_surface() {
        let drop = FaultSpec {
            drop_rate: 0.2,
            ..FaultSpec::default()
        };
        let sweep = two_axis_sweep().with_faults_axis(vec![FaultSpec::default(), drop.clone()]);
        assert_eq!(sweep.cell_count(), 2 * 2 * 2);
        let cells = sweep.expand();
        // faults sits just inside protocol: per protocol, first all sizes at
        // no-fault, then all sizes at drop=0.2.
        assert!(cells[0].spec.faults.is_none());
        assert!(cells[1].spec.faults.is_none());
        assert_eq!(cells[2].spec.faults, drop);
        assert_eq!(cells[3].spec.faults, drop);
        assert_eq!(cells[0].spec.protocol.name, "pairwise");
        assert_eq!(cells[3].spec.protocol.name, "pairwise");
        assert_eq!(cells[4].spec.protocol.name, "geographic");
        // The default singleton axis leaves historical cells untouched.
        let plain = two_axis_sweep().expand();
        let defaulted = two_axis_sweep()
            .with_faults_axis(vec![FaultSpec::default()])
            .expand();
        assert_eq!(plain, defaulted);
    }

    #[test]
    fn json_round_trips_the_faults_axis_and_omits_the_default() {
        let sweep = two_axis_sweep().with_faults_axis(vec![
            FaultSpec::default(),
            FaultSpec {
                drop_rate: 0.25,
                stale_fraction: 0.1,
                ..FaultSpec::default()
            },
        ]);
        let json = sweep.to_json();
        assert!(json.contains("\"faults\""));
        let parsed = SweepSpec::from_json(&json).expect("faulty sweep parses");
        assert_eq!(parsed, sweep);
        assert_eq!(parsed.to_json(), json, "fixed point with a faults axis");

        // A sweep on the default axis renders without the key at all.
        let plain_json = two_axis_sweep().to_json();
        assert!(!plain_json.contains("faults"));
        let plain = SweepSpec::from_json(&plain_json).expect("plain sweep parses");
        assert_eq!(plain.faults, vec![FaultSpec::default()]);

        // Bad fault entries are rejected with the axis discipline.
        let err = SweepSpec::from_json(
            r#"{"sweep": "s", "axes": {"n": [64], "protocol": [{"name": "pairwise"}], "faults": [{"drop-rate": 2.0}]}}"#,
        )
        .expect_err("out-of-range drop rate");
        assert!(err.to_string().contains("drop-rate"), "got `{err}`");
        let err = SweepSpec::from_json(
            r#"{"sweep": "s", "axes": {"n": [64], "protocol": [{"name": "pairwise"}], "faults": [{"spoons": 1}]}}"#,
        )
        .expect_err("unknown fault key");
        assert!(err.to_string().contains("spoons"), "got `{err}`");
    }

    #[test]
    fn transport_axis_expands_between_protocol_and_faults() {
        use crate::transport::{LatencyModel, TransportSpec};
        let net = TransportSpec::default();
        let sweep = two_axis_sweep().with_transport_axis(vec![None, Some(net)]);
        assert_eq!(sweep.cell_count(), 2 * 2 * 2);
        let cells = sweep.expand();
        // transport sits just inside protocol: per protocol, first all sizes
        // on the default engine, then all sizes on the net transport.
        assert_eq!(cells[0].spec.transport, None);
        assert_eq!(cells[1].spec.transport, None);
        assert_eq!(cells[2].spec.transport, Some(net));
        assert_eq!(cells[3].spec.transport, Some(net));
        assert_eq!(cells[3].spec.protocol.name, "pairwise");
        assert_eq!(cells[4].spec.protocol.name, "geographic");
        // The default singleton axis leaves historical cells untouched.
        let plain = two_axis_sweep().expand();
        let defaulted = two_axis_sweep().with_transport_axis(vec![None]).expand();
        assert_eq!(plain, defaulted);

        // JSON round trip, including the null = shared-memory spelling.
        let rich = two_axis_sweep().with_transport_axis(vec![
            None,
            Some(TransportSpec::default()),
            Some(TransportSpec::with_latency(LatencyModel::Exponential {
                mean: 0.25,
            })),
        ]);
        let json = rich.to_json();
        assert!(json.contains("\"transport\""));
        let parsed = SweepSpec::from_json(&json).expect("transport sweep parses");
        assert_eq!(parsed, rich);
        assert_eq!(parsed.to_json(), json, "fixed point with a transport axis");
        let plain_json = two_axis_sweep().to_json();
        assert!(!plain_json.contains("transport"));

        // Bad transport entries are rejected with the axis discipline.
        let err = SweepSpec::from_json(
            r#"{"sweep": "s", "axes": {"n": [64], "protocol": [{"name": "pairwise"}], "transport": [{"latency": "warp"}]}}"#,
        )
        .expect_err("unknown latency model");
        assert!(err.to_string().contains("transport.latency"), "got `{err}`");
    }

    #[test]
    fn sweep_documents_are_distinguishable_from_scenarios() {
        let sweep_doc = JsonValue::parse(&two_axis_sweep().to_json()).unwrap();
        assert!(SweepSpec::is_sweep_document(&sweep_doc));
        let scenario_doc =
            JsonValue::parse(&ScenarioSpec::standard("pairwise", 64, 0.1).to_json()).unwrap();
        assert!(!SweepSpec::is_sweep_document(&scenario_doc));
    }

    #[test]
    fn validation_rejects_empty_axes_and_zero_trials() {
        let mut sweep = two_axis_sweep();
        sweep.epsilons.clear();
        assert!(sweep.validate().is_err());
        let mut sweep = two_axis_sweep();
        sweep.trials = 0;
        assert!(sweep.validate().is_err());
        let mut sweep = two_axis_sweep();
        sweep.name.clear();
        assert!(sweep.validate().is_err());
        assert!(two_axis_sweep().validate().is_ok());
    }
}
