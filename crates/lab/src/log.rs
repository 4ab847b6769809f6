//! The append-only JSONL results log — the sweep lab's checkpoint format.
//!
//! Every completed cell becomes **one line** of JSON, written with a single
//! `write` + flush after the cell's trials finish. Re-running a sweep against
//! the same log skips every cell already present, so a campaign can be killed
//! at any point and resumed bit-identically: the already-written lines are
//! never touched (append-only discipline), and the missing cells re-run from
//! their own `(master_seed, cell_index)`-derived seeds.
//!
//! A kill can tear the final line mid-write. [`ResultsLog::load`] therefore
//! drops a trailing line that is not complete JSON (the cell simply re-runs
//! on resume); a malformed line anywhere *else*, and a complete line that is
//! not a valid record, is a hard error — that is corruption, not a torn tail.
//!
//! Wall-clock fields (`seconds`, `engine-seconds`) ride along in every trial
//! record for observability but are **excluded from record equality**, the
//! same contract as `TrialCost`.

use crate::error::LabError;
use geogossip_analysis::json::JsonValue;
use geogossip_sim::scenario::{
    ParamValue, PlacementSpec, RadiusSpec, ScenarioReport, ScenarioSpec, SweepCell,
};
use geogossip_sim::transport::LatencyModel;
use geogossip_sim::ProtocolError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// One trial's outcome, reduced to the log's schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Whether the accuracy target was reached.
    pub converged: bool,
    /// Total one-hop transmissions.
    pub transmissions: u64,
    /// Routing (multi-hop) share of the total — the "hops" cost.
    pub routing: u64,
    /// Local-exchange share of the total.
    pub local: u64,
    /// Control-traffic share of the total.
    pub control: u64,
    /// Protocol rounds (engine ticks for tick-driven protocols).
    pub rounds: u64,
    /// Engine ticks consumed.
    pub ticks: u64,
    /// Final relative ℓ₂ error.
    pub final_error: f64,
    /// Whole-trial wall-clock seconds (timing, not semantics).
    pub seconds: f64,
    /// Engine-run wall-clock seconds (timing, not semantics).
    pub engine_seconds: f64,
}

/// Semantic equality: wall-clock timings are excluded, mirroring
/// `TrialCost`'s contract — determinism is about results, not machine speed.
impl PartialEq for TrialOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.converged == other.converged
            && self.transmissions == other.transmissions
            && self.routing == other.routing
            && self.local == other.local
            && self.control == other.control
            && self.rounds == other.rounds
            && self.ticks == other.ticks
            && self.final_error.to_bits() == other.final_error.to_bits()
    }
}

/// A sweep cell's coordinates on every axis but protocol and `n`: the key
/// its fits group by and the rungs its degradation ladders compare.
///
/// `Display` writes the cell's group key, the only form the results log and
/// the reports know: `surface/placement/radius/eps=…`, then
/// `/drop=…+stale=…+churn=…` when the cell injects faults, then `/lat=…`
/// when it runs on the message-passing transport, then
/// `/rel=drop:…+dup:…` when that wire is lossy. [`CellCoords::parse`] is its
/// inverse; nothing else writes or reads a group key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellCoords {
    /// `surface/placement/radius/eps=…`, compared whole and never read apart.
    pub base: String,
    /// The injected faults (all zero when the cell has none).
    pub faults: FaultLevel,
    /// The message-passing wire, or `None` on the shared-memory engine.
    pub wire: Option<Wire>,
}

/// A cell's fault level: its `FaultSpec` as far as the group key records it.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultLevel {
    /// Per-activation drop rate.
    pub drop: f64,
    /// Fraction of stale-value sensors.
    pub stale: f64,
    /// Number of churn events.
    pub churn: u64,
}

/// A cell's message-passing wire: its latency model and loss (the retry
/// policy is not a coordinate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Wire {
    /// Per-message delivery-delay model.
    pub latency: LatencyModel,
    /// Per-message drop probability.
    pub drop: f64,
    /// Per-message duplication probability.
    pub dup: f64,
}

impl Wire {
    /// Whether the wire drops or duplicates messages.
    pub(crate) fn is_lossy(&self) -> bool {
        self.drop != 0.0 || self.dup != 0.0
    }
}

/// `name=value` for each positive part, joined by `+`, or `none` when
/// every part is zero.
pub(crate) fn nonzero_parts(parts: &[(&str, f64)], none: &str) -> String {
    let parts: Vec<String> = parts
        .iter()
        .filter(|(_, value)| *value > 0.0)
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    if parts.is_empty() {
        none.into()
    } else {
        parts.join("+")
    }
}

/// `none`, or the nonzero parts: `drop=0.1+stale=0.05+churn=2`.
impl fmt::Display for FaultLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let churn = self.churn as f64;
        let parts = [("drop", self.drop), ("stale", self.stale), ("churn", churn)];
        f.write_str(&nonzero_parts(&parts, "none"))
    }
}

/// The group key.
impl fmt::Display for CellCoords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.base)?;
        if self.faults != FaultLevel::default() {
            write!(f, "/{}", self.faults)?;
        }
        if let Some(wire) = &self.wire {
            match wire.latency {
                LatencyModel::Instant => f.write_str("/lat=instant")?,
                LatencyModel::Fixed(delay) => write!(f, "/lat=fixed:{delay}")?,
                LatencyModel::Exponential { mean } => write!(f, "/lat=exp:{mean}")?,
            }
            if wire.is_lossy() {
                write!(f, "/rel=drop:{}+dup:{}", wire.drop, wire.dup)?;
            }
        }
        Ok(())
    }
}

impl CellCoords {
    /// The coordinates of a sweep cell's scenario.
    pub fn of(spec: &ScenarioSpec) -> Self {
        let placement = match spec.topology.placement {
            PlacementSpec::UniformSquare => "uniform-square".to_string(),
            PlacementSpec::Clustered { clusters, spread } => {
                format!("clustered(k={clusters},spread={spread})")
            }
            PlacementSpec::Perforated { hole } => {
                let (lo, hi) = (hole.min(), hole.max());
                format!("perforated({},{},{},{})", lo.x, lo.y, hi.x, hi.y)
            }
        };
        let radius = match spec.topology.radius {
            RadiusSpec::ConnectivityConstant(c) => format!("cc={c}"),
            RadiusSpec::Absolute(r) => format!("r={r}"),
        };
        // `/`-separated (not `|`): group keys land in Markdown table cells,
        // where a pipe would split the column.
        let base = format!(
            "{}/{placement}/{radius}/eps={}",
            spec.topology.surface.token(),
            spec.stop.epsilon
        );
        CellCoords {
            base,
            faults: FaultLevel {
                drop: spec.faults.drop_rate,
                stale: spec.faults.stale_fraction,
                churn: spec.faults.churn.len() as u64,
            },
            wire: spec.transport.map(|t| Wire {
                latency: t.latency,
                drop: t.reliability.drop,
                dup: t.reliability.duplicate,
            }),
        }
    }

    /// Reads a group key back. `None` unless `Display` writes exactly `key`
    /// for the coordinates read.
    pub fn parse(key: &str) -> Option<Self> {
        let mut segments = key.split('/').peekable();
        let base: Vec<&str> = segments.by_ref().take(4).collect();
        if base.len() < 4 {
            return None;
        }
        let mut coords = CellCoords {
            base: base.join("/"),
            faults: FaultLevel::default(),
            wire: None,
        };
        if let Some(faults) = segments.next_if(|s| !s.starts_with("lat=")) {
            for part in faults.split('+') {
                match part.split_once('=')? {
                    ("drop", v) => coords.faults.drop = v.parse().ok()?,
                    ("stale", v) => coords.faults.stale = v.parse().ok()?,
                    ("churn", v) => coords.faults.churn = v.parse().ok()?,
                    _ => return None,
                }
            }
        }
        if let Some(latency) = segments.next() {
            let latency = match latency.strip_prefix("lat=")? {
                "instant" => LatencyModel::Instant,
                model => match model.split_once(':')? {
                    ("fixed", v) => LatencyModel::Fixed(v.parse().ok()?),
                    ("exp", v) => LatencyModel::Exponential {
                        mean: v.parse().ok()?,
                    },
                    _ => return None,
                },
            };
            let (drop, dup) = match segments.next() {
                None => ("0", "0"),
                Some(rel) => rel.strip_prefix("rel=drop:")?.split_once("+dup:")?,
            };
            coords.wire = Some(Wire {
                latency,
                drop: drop.parse().ok()?,
                dup: dup.parse().ok()?,
            });
        }
        // The round trip rejects what the reads above let through: a stray
        // segment, a zero or reordered fault part, a lossless `rel=`.
        (coords.to_string() == key).then_some(coords)
    }
}

/// One completed sweep cell: its grid coordinates plus per-trial outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Flat cell index in the sweep's canonical expansion order.
    pub index: u64,
    /// The cell's scenario name (`{sweep}/c{index:04}-{protocol}-n{n}`).
    pub name: String,
    /// Protocol key: registry name plus rendered params when present.
    pub protocol: String,
    /// Every other axis coordinate but `n`; the log line holds them as the
    /// `group` key.
    pub coords: CellCoords,
    /// Network size of the cell.
    pub n: usize,
    /// Stop target of the cell.
    pub epsilon: f64,
    /// Per-trial outcomes in trial order.
    pub trials: Vec<TrialOutcome>,
}

/// Renders a protocol spec as a stable key: the registry name, plus compact
/// `{k=v, …}` params when any are set (two axis entries sharing a name but
/// differing in params must group separately).
fn protocol_key(spec: &geogossip_sim::scenario::ProtocolSpec) -> String {
    if spec.params.is_empty() {
        return spec.name.clone();
    }
    let params: Vec<String> = spec
        .params
        .iter()
        .map(|(k, v)| match v {
            ParamValue::Number(x) => format!("{k}={x}"),
            ParamValue::Text(s) => format!("{k}={s}"),
            ParamValue::Flag(b) => format!("{k}={b}"),
        })
        .collect();
    format!("{}{{{}}}", spec.name, params.join(","))
}

impl CellRecord {
    /// Builds the record for a just-completed cell from its scenario report.
    pub fn new(cell: &SweepCell, report: &ScenarioReport) -> Self {
        let spec = &cell.spec;
        let trials = report
            .trials
            .iter()
            .map(|t| TrialOutcome {
                converged: t.converged,
                transmissions: t.transmissions.total(),
                routing: t.transmissions.routing(),
                local: t.transmissions.local(),
                control: t.transmissions.control(),
                rounds: t.rounds,
                ticks: t.ticks,
                final_error: t.final_error,
                seconds: t.seconds,
                engine_seconds: t.engine_seconds,
            })
            .collect();
        CellRecord {
            index: cell.index,
            name: spec.name.clone(),
            protocol: protocol_key(&spec.protocol),
            coords: CellCoords::of(spec),
            n: spec.topology.n,
            epsilon: spec.stop.epsilon,
            trials,
        }
    }

    /// Serialises the record to its (single-line) JSON document model.
    pub fn to_json_value(&self) -> JsonValue {
        let trials = self
            .trials
            .iter()
            .map(|t| {
                JsonValue::object(vec![
                    ("converged", JsonValue::Bool(t.converged)),
                    ("transmissions", t.transmissions.into()),
                    ("routing", t.routing.into()),
                    ("local", t.local.into()),
                    ("control", t.control.into()),
                    ("rounds", t.rounds.into()),
                    ("ticks", t.ticks.into()),
                    ("final-error", t.final_error.into()),
                    ("seconds", t.seconds.into()),
                    ("engine-seconds", t.engine_seconds.into()),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("cell", self.index.into()),
            ("name", JsonValue::string(self.name.clone())),
            ("protocol", JsonValue::string(self.protocol.clone())),
            ("group", JsonValue::string(self.coords.to_string())),
            ("n", self.n.into()),
            ("epsilon", self.epsilon.into()),
            ("trials", JsonValue::Array(trials)),
        ])
    }

    /// Parses a record from its JSON document model.
    pub fn from_json_value(doc: &JsonValue) -> Result<Self, ProtocolError> {
        let field_u64 = |key: &str| {
            doc.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
                ProtocolError::malformed(format!("record `{key}` must be a whole number"))
            })
        };
        let field_str = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| ProtocolError::malformed(format!("record `{key}` must be a string")))
        };
        let group = field_str("group")?;
        let epsilon = doc
            .get("epsilon")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| ProtocolError::malformed("record `epsilon` must be a number"))?;
        let trial_docs = doc
            .get("trials")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ProtocolError::malformed("record `trials` must be an array"))?;
        let mut trials = Vec::with_capacity(trial_docs.len());
        for t in trial_docs {
            let u = |key: &str| {
                t.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
                    ProtocolError::malformed(format!("trial `{key}` must be a whole number"))
                })
            };
            let f = |key: &str| {
                t.get(key).and_then(JsonValue::as_f64).ok_or_else(|| {
                    ProtocolError::malformed(format!("trial `{key}` must be a number"))
                })
            };
            trials.push(TrialOutcome {
                converged: t
                    .get("converged")
                    .and_then(JsonValue::as_bool)
                    .ok_or_else(|| ProtocolError::malformed("trial `converged` must be a bool"))?,
                transmissions: u("transmissions")?,
                routing: u("routing")?,
                local: u("local")?,
                control: u("control")?,
                rounds: u("rounds")?,
                ticks: u("ticks")?,
                // JSON has no ∞: the writer prints a diverged trial's
                // infinite error as `null`.
                final_error: if t.get("final-error").is_some_and(JsonValue::is_null) {
                    f64::INFINITY
                } else {
                    f("final-error")?
                },
                seconds: f("seconds")?,
                engine_seconds: f("engine-seconds")?,
            });
        }
        Ok(CellRecord {
            index: field_u64("cell")?,
            name: field_str("name")?,
            protocol: field_str("protocol")?,
            coords: CellCoords::parse(&group).ok_or_else(|| {
                ProtocolError::malformed(format!("record `group` `{group}` is not a group key"))
            })?,
            n: field_u64("n")? as usize,
            epsilon,
            trials,
        })
    }
}

/// What [`ResultsLog::load`] found on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct LogContents {
    /// The parsed records, in file order.
    pub records: Vec<CellRecord>,
    /// Whether a torn (unparseable) trailing line was dropped — the sign of
    /// a kill mid-append; the affected cell simply re-runs.
    pub dropped_torn_tail: bool,
    /// Byte length of the valid prefix (up to and including the newline of
    /// the last good record). When a torn tail was dropped, the file must be
    /// truncated to this length **before** the next append — otherwise the
    /// appended record would concatenate onto the torn fragment and corrupt
    /// the line ([`ResultsLog::truncate`]).
    pub valid_len: u64,
}

/// Handle on an append-only JSONL results log.
pub struct ResultsLog;

impl ResultsLog {
    /// Loads every record from `path`. A missing file is an empty log. A
    /// trailing line that is not complete JSON — or is complete but lost its
    /// trailing newline — is dropped (torn by a kill). Any other line that is
    /// not a record, such as malformed JSON mid-file or a group key
    /// [`CellCoords::parse`] cannot read, is a hard error carrying its line
    /// number. A file that exists but cannot be read is a [`LabError::Io`].
    pub fn load(path: &Path) -> Result<LogContents, LabError> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(LogContents {
                    records: Vec::new(),
                    dropped_torn_tail: false,
                    valid_len: 0,
                })
            }
            Err(e) => {
                return Err(LabError::Io(format!(
                    "cannot read results log `{}`: {e}",
                    path.display()
                )))
            }
        };
        // Non-empty lines with the byte offset where each starts, so the
        // valid prefix length survives interleaved blank lines.
        let mut lines: Vec<(usize, &str)> = Vec::new();
        let mut offset = 0usize;
        for segment in text.split_inclusive('\n') {
            if !segment.trim().is_empty() {
                lines.push((offset, segment));
            }
            offset += segment.len();
        }
        let mut records = Vec::with_capacity(lines.len());
        let mut dropped_torn_tail = false;
        let mut valid_len = 0u64;
        for (i, (start, line)) in lines.iter().enumerate() {
            let doc = JsonValue::parse(line.trim_end());
            if i + 1 == lines.len() && (doc.is_err() || !line.ends_with('\n')) {
                // Torn tail: the final append was killed mid-JSON, or between
                // the JSON and its `\n`. Keeping a newline-less record would
                // make the next append concatenate onto it, so either way the
                // line is dropped, truncated away, and its cell re-runs.
                dropped_torn_tail = true;
                break;
            }
            // A complete line that is not a record is corruption wherever it
            // sits: resuming past it would silently drop or re-run a cell.
            let record = doc
                .map_err(|e| ProtocolError::malformed(e.to_string()))
                .and_then(|doc| CellRecord::from_json_value(&doc))
                .map_err(|e| {
                    e.within(&format!("results log `{}` line {}", path.display(), i + 1))
                })?;
            records.push(record);
            valid_len = (start + line.len()) as u64;
        }
        Ok(LogContents {
            records,
            dropped_torn_tail,
            valid_len,
        })
    }

    /// Truncates the log to its valid prefix, discarding a torn tail so the
    /// next append starts on a fresh line. The only write that ever shortens
    /// the file; callers invoke it exactly when `load` reported
    /// `dropped_torn_tail`.
    pub fn truncate(path: &Path, valid_len: u64) -> Result<(), LabError> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| {
                LabError::Io(format!(
                    "cannot open results log `{}` for repair: {e}",
                    path.display()
                ))
            })?;
        file.set_len(valid_len).map_err(|e| {
            LabError::Io(format!(
                "cannot truncate results log `{}` to {valid_len} bytes: {e}",
                path.display()
            ))
        })
    }

    /// Appends one record as a single compact line (one `write` call plus a
    /// flush, so a kill can tear at most the final line).
    pub fn append(path: &Path, record: &CellRecord) -> Result<(), LabError> {
        let io_err = |e: std::io::Error| {
            LabError::Io(format!(
                "cannot append to results log `{}`: {e}",
                path.display()
            ))
        };
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        let line = record.to_json_value().render() + "\n";
        file.write_all(line.as_bytes()).map_err(io_err)?;
        file.flush().map_err(io_err)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: u64) -> CellRecord {
        CellRecord {
            index,
            name: format!("demo/c{index:04}-pairwise-n64"),
            protocol: "pairwise".into(),
            coords: CellCoords::parse("unit-square/uniform-square/cc=1.5/eps=0.05").unwrap(),
            n: 64,
            epsilon: 0.05,
            trials: vec![TrialOutcome {
                converged: true,
                transmissions: 1000 + index,
                routing: 400,
                local: 600,
                control: index,
                rounds: 37,
                ticks: 37,
                final_error: 0.042,
                seconds: 0.5,
                engine_seconds: 0.4,
            }],
        }
    }

    /// The group key of a transport cell built by `CellRecord::new` carries
    /// its `lat=` segment last; a shared-memory cell's carries none.
    #[test]
    fn transport_cells_append_the_latency_token_to_the_group() {
        use geogossip_sim::scenario::{ScenarioReport, ScenarioSpec, SweepCell};
        use geogossip_sim::transport::{LatencyModel, TransportSpec};
        let bare = ScenarioSpec::standard("pairwise", 16, 0.1);
        let transported =
            bare.clone()
                .with_transport(TransportSpec::with_latency(LatencyModel::Exponential {
                    mean: 0.01,
                }));
        for (spec, suffix) in [(bare, None), (transported, Some("/lat=exp:0.01"))] {
            let cell = SweepCell {
                index: 0,
                spec: spec.clone(),
            };
            let report = ScenarioReport::new(spec, "pairwise (Boyd)".into(), Vec::new());
            let group = CellRecord::new(&cell, &report).coords.to_string();
            match suffix {
                Some(suffix) => {
                    assert!(group.ends_with(suffix), "group `{group}` lacks `{suffix}`")
                }
                None => assert!(
                    !group.contains("lat="),
                    "default cell got a transport tail: `{group}`"
                ),
            }
        }
    }

    /// Every key an expansion over every placement, radius, surface, fault
    /// and wire kind writes reads back to its coordinates, with the
    /// spellings group keys have always had; a key `Display` never writes
    /// does not.
    #[test]
    fn coords_read_back_every_key_an_expansion_writes() {
        let sweep = geogossip_sim::scenario::SweepSpec::from_json(
            r#"{"sweep": "keys", "axes": {
                "n": [32], "protocol": [{"name": "pairwise", "params": {}}],
                "placement": ["uniform-square", {"clustered": {"clusters": 4, "spread": 0.05}},
                              {"perforated": {"hole": [0.25, 0.25, 0.75, 0.5]}}],
                "radius": [{"connectivity-constant": 1.5}, {"absolute": 0.25}],
                "surface": ["unit-square", "torus"],
                "faults": [{}, {"stale-fraction": 0.05}, {"churn": [{"fraction": 0.1, "at-tick": 9}]},
                           {"stale-fraction": 0.1, "churn": [
                               {"fraction": 0.1, "at-tick": 9}, {"fraction": 0.1, "at-tick": 99}]}],
                "transport": [null, {"latency": "instant"}, {"latency": {"fixed": 0.25}},
                              {"latency": {"exp": {"mean": 0.5}}},
                              {"latency": "instant", "reliability": {"drop": 0.3, "duplicate": 0.05}},
                              {"latency": "instant", "reliability": {"drop": 0.1}},
                              {"latency": "instant", "reliability": {"duplicate": 0.05}}]}}"#,
        )
        .unwrap();
        let keys: Vec<String> = sweep
            .expand()
            .iter()
            .map(|cell| {
                let coords = CellCoords::of(&cell.spec);
                let key = coords.to_string();
                assert_eq!(CellCoords::parse(&key), Some(coords), "{key}");
                key
            })
            .collect();
        assert_eq!(keys.len(), 3 * 2 * 2 * 4 * 7);
        let base = "unit-square/uniform-square/cc=1.5/eps=0.05";
        for (tail, written) in [
            ("", true),
            ("/stale=0.1+churn=2", true),
            ("/lat=instant", true),
            ("/lat=fixed:0.25", true),
            ("/lat=exp:0.5", true),
            ("/lat=instant/rel=drop:0.3+dup:0.05", true),
            ("/lat=instant/rel=drop:0.1+dup:0", true),
            ("/churn=1/lat=instant/rel=drop:0+dup:0.05", true),
            ("/none", false),
            ("/drop=0", false),
            ("/stale=0.1+drop=0.2", false),
            ("/rel=drop:0.1+dup:0", false),
            ("/lat=fixed", false),
            ("/lat=instant/rel=drop:0.1", false),
            ("/lat=instant/rel=drop:0+dup:0", false),
            ("/lat=instant/x", false),
        ] {
            let key = format!("{base}{tail}");
            assert_eq!(keys.contains(&key), written, "{key}");
            assert_eq!(CellCoords::parse(&key).is_some(), written, "{key}");
        }
        assert!(
            keys.contains(&"torus/clustered(k=4,spread=0.05)/r=0.25/eps=0.05/stale=0.05".into())
        );
        assert!(keys.contains(&"unit-square/perforated(0.25,0.25,0.75,0.5)/cc=1.5/eps=0.05".into()));
        assert_eq!(CellCoords::parse("unit-square/uniform-square/cc=1.5"), None);
        // Activation loss cannot share a grid with a wire, so pin it here.
        assert_eq!(FaultLevel::default().to_string(), "none");
        let key = format!("{base}/drop=0.25+stale=0.1+churn=2");
        let faults = CellCoords::parse(&key).expect("a fault key").faults;
        assert_eq!((faults.drop, faults.stale, faults.churn), (0.25, 0.1, 2));
    }

    /// A complete line whose group key does not read back is corruption,
    /// even as the final line: dropping it as torn would truncate a
    /// committed cell away.
    #[test]
    fn an_unreadable_group_key_is_a_line_numbered_error() {
        let dir = std::env::temp_dir().join("geogossip-lab-log-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-group.jsonl");
        let good = record(0).to_json_value().render();
        let bad = record(1)
            .to_json_value()
            .render()
            .replace("eps=0.05", "eps=0.05/lat=warp");
        std::fs::write(&path, format!("{good}\n{bad}\n")).unwrap();
        let err = ResultsLog::load(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"), "got {err}");
        assert!(err.to_string().contains("lat=warp"), "got {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_round_trip_through_single_line_json() {
        let r = record(3);
        let line = r.to_json_value().render();
        assert!(!line.contains('\n'), "records must be single-line");
        let parsed = CellRecord::from_json_value(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, r);
    }

    /// A trial that diverged ends at an infinite error, which the log writes
    /// as `null` and reads back as +∞, so a sweep that holds one resumes.
    #[test]
    fn an_infinite_final_error_round_trips() {
        let mut r = record(4);
        r.trials[0].converged = false;
        r.trials[0].final_error = f64::INFINITY;
        let line = r.to_json_value().render();
        assert!(line.contains(r#""final-error":null"#), "{line}");
        let parsed = CellRecord::from_json_value(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn equality_ignores_wall_clock() {
        let a = record(1);
        let mut b = a.clone();
        b.trials[0].seconds = 99.0;
        b.trials[0].engine_seconds = 98.0;
        assert_eq!(a, b);
        b.trials[0].ticks += 1;
        assert_ne!(a, b);
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = std::env::temp_dir().join("geogossip-lab-log-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        for i in 0..3 {
            ResultsLog::append(&path, &record(i)).unwrap();
        }
        let contents = ResultsLog::load(&path).unwrap();
        assert!(!contents.dropped_torn_tail);
        assert_eq!(contents.records, vec![record(0), record(1), record(2)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_log_is_empty() {
        let contents = ResultsLog::load(Path::new("/nonexistent/geogossip-lab.jsonl")).unwrap();
        assert!(contents.records.is_empty());
        assert!(!contents.dropped_torn_tail);
    }

    #[test]
    fn torn_tail_is_dropped_but_interior_corruption_is_fatal() {
        let dir = std::env::temp_dir().join("geogossip-lab-log-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let good = record(0).to_json_value().render();
        // Torn tail: final line cut mid-JSON.
        std::fs::write(&path, format!("{good}\n{}", &good[..good.len() / 2])).unwrap();
        let contents = ResultsLog::load(&path).unwrap();
        assert!(contents.dropped_torn_tail);
        assert_eq!(contents.records, vec![record(0)]);
        assert_eq!(contents.valid_len as usize, good.len() + 1);
        // Interior corruption: the same torn text followed by a good line.
        std::fs::write(&path, format!("{}\n{good}\n", &good[..good.len() / 2])).unwrap();
        let err = ResultsLog::load(&path).unwrap_err();
        assert!(err.to_string().contains("line 1"), "got {err}");
        let _ = std::fs::remove_file(&path);
    }

    /// The torn-tail property, exhaustively: truncate a valid 3-record log at
    /// EVERY byte offset. Whatever the cut, `load` must recover every fully
    /// written record (none silently dropped), report a torn tail exactly
    /// when trailing bytes remain beyond the valid prefix, and after
    /// repair + re-append the log must parse cleanly with exactly one cell
    /// re-run.
    #[test]
    fn every_byte_truncation_recovers_the_valid_prefix_and_repairs() {
        let dir = std::env::temp_dir().join("geogossip-lab-log-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("every-byte.jsonl");
        let lines: Vec<String> = (0..3)
            .map(|i| record(i).to_json_value().render() + "\n")
            .collect();
        let text = lines.concat();
        // Byte offset where each fully-written record ends.
        let boundaries: Vec<usize> = lines
            .iter()
            .scan(0usize, |acc, l| {
                *acc += l.len();
                Some(*acc)
            })
            .collect();
        for cut in 0..=text.len() {
            let complete = boundaries.iter().filter(|&&b| b <= cut).count();
            let valid_len = if complete == 0 {
                0
            } else {
                boundaries[complete - 1]
            };
            std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            let contents = ResultsLog::load(&path)
                .unwrap_or_else(|e| panic!("cut at byte {cut} must not hard-error: {e}"));
            let expected: Vec<CellRecord> = (0..complete as u64).map(record).collect();
            assert_eq!(contents.records, expected, "cut at byte {cut}");
            assert_eq!(contents.valid_len as usize, valid_len, "cut at byte {cut}");
            assert_eq!(
                contents.dropped_torn_tail,
                cut > valid_len,
                "cut at byte {cut}"
            );
            // Repair exactly as the sweep runner does, then re-run the one
            // torn cell: the log must come back complete and untorn.
            if contents.dropped_torn_tail {
                ResultsLog::truncate(&path, contents.valid_len).unwrap();
            }
            ResultsLog::append(&path, &record(complete as u64)).unwrap();
            let repaired = ResultsLog::load(&path).unwrap();
            assert!(!repaired.dropped_torn_tail, "cut at byte {cut}");
            let expected: Vec<CellRecord> = (0..=complete as u64).map(record).collect();
            assert_eq!(repaired.records, expected, "cut at byte {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Interior corruption at every line: a half-written line that is NOT the
    /// tail must hard-error with that line's number — resuming over it would
    /// silently drop a committed cell.
    #[test]
    fn interior_corruption_reports_the_right_line_number() {
        let dir = std::env::temp_dir().join("geogossip-lab-log-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("interior.jsonl");
        let lines: Vec<String> = (0..3)
            .map(|i| record(i).to_json_value().render() + "\n")
            .collect();
        for corrupt in 0..2 {
            let mut text = String::new();
            for (i, line) in lines.iter().enumerate() {
                if i == corrupt {
                    text.push_str(&line[..line.len() / 2]);
                    text.push('\n');
                } else {
                    text.push_str(line);
                }
            }
            std::fs::write(&path, &text).unwrap();
            let err = ResultsLog::load(&path).unwrap_err();
            assert!(
                err.to_string().contains(&format!("line {}", corrupt + 1)),
                "corrupting line {corrupt} gave `{err}`"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_then_append_keeps_the_log_parseable() {
        let dir = std::env::temp_dir().join("geogossip-lab-log-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repair.jsonl");
        let good = record(0).to_json_value().render();
        std::fs::write(&path, format!("{good}\n{}", &good[..good.len() / 2])).unwrap();
        let contents = ResultsLog::load(&path).unwrap();
        assert!(contents.dropped_torn_tail);
        // Repair, then append the re-run cell: the log must parse cleanly
        // with both records (without the truncation the append would
        // concatenate onto the torn fragment and corrupt the line).
        ResultsLog::truncate(&path, contents.valid_len).unwrap();
        ResultsLog::append(&path, &record(1)).unwrap();
        let repaired = ResultsLog::load(&path).unwrap();
        assert!(!repaired.dropped_torn_tail);
        assert_eq!(repaired.records, vec![record(0), record(1)]);
        let _ = std::fs::remove_file(&path);
    }
}
