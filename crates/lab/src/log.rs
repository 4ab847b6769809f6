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
//! drops a trailing line that does not parse (the cell simply re-runs on
//! resume); a malformed line anywhere *else* is a hard error — that is
//! corruption, not a torn tail.
//!
//! Wall-clock fields (`seconds`, `engine-seconds`) ride along in every trial
//! record for observability but are **excluded from record equality**, the
//! same contract as `TrialCost`.

use crate::error::LabError;
use geogossip_analysis::json::JsonValue;
use geogossip_sim::scenario::{ParamValue, PlacementSpec, RadiusSpec, ScenarioReport, SweepCell};
use geogossip_sim::ProtocolError;
use serde::{Deserialize, Serialize};
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

/// One completed sweep cell: its grid coordinates plus per-trial outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Flat cell index in the sweep's canonical expansion order.
    pub index: u64,
    /// The cell's scenario name (`{sweep}/c{index:04}-{protocol}-n{n}`).
    pub name: String,
    /// Protocol key: registry name plus rendered params when present.
    pub protocol: String,
    /// The non-protocol, non-`n` axis coordinates
    /// (`surface/placement/radius/eps=…`, plus the fault token as a
    /// `/drop=…+stale=…` segment when the cell injects faults, plus the
    /// transport token as a `/lat=…` segment when the cell runs on the
    /// message-passing transport) — the fit-grouping key. Default cells keep
    /// the historical four-segment key.
    pub group: String,
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
        let placement = match spec.topology.placement {
            PlacementSpec::UniformSquare => "uniform-square".to_string(),
            PlacementSpec::Clustered { clusters, spread } => {
                format!("clustered(k={clusters},spread={spread})")
            }
            PlacementSpec::Perforated { hole } => format!(
                "perforated({},{},{},{})",
                hole.min().x,
                hole.min().y,
                hole.max().x,
                hole.max().y
            ),
        };
        let radius = match spec.topology.radius {
            RadiusSpec::ConnectivityConstant(c) => format!("cc={c}"),
            RadiusSpec::Absolute(r) => format!("r={r}"),
        };
        // `/`-separated (not `|`): group strings land in Markdown table
        // cells, where a pipe would split the column.
        let mut group = format!(
            "{}/{}/{}/eps={}",
            spec.topology.surface.token(),
            placement,
            radius,
            spec.stop.epsilon
        );
        if !spec.faults.is_none() {
            group.push('/');
            group.push_str(&spec.faults.token());
        }
        if let Some(transport) = &spec.transport {
            group.push('/');
            group.push_str(&transport.token());
        }
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
            group,
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
            ("group", JsonValue::string(self.group.clone())),
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
                final_error: f("final-error")?,
                seconds: f("seconds")?,
                engine_seconds: f("engine-seconds")?,
            });
        }
        Ok(CellRecord {
            index: field_u64("cell")?,
            name: field_str("name")?,
            protocol: field_str("protocol")?,
            group: field_str("group")?,
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
    /// trailing line that fails to parse — or parses but lost its trailing
    /// newline — is dropped (torn by a kill); a malformed line anywhere else
    /// is a hard error carrying its line number. A file that exists but
    /// cannot be read is a [`LabError::Io`].
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
            let parsed = JsonValue::parse(line.trim_end())
                .map_err(|e| ProtocolError::malformed(e.to_string()))
                .and_then(|doc| CellRecord::from_json_value(&doc));
            match parsed {
                Ok(record) if line.ends_with('\n') => {
                    records.push(record);
                    valid_len = (start + line.len()) as u64;
                }
                Ok(_) => {
                    // A record that parses but lost its trailing newline can
                    // only be the final line (the append was killed between
                    // the JSON and the `\n`). Keeping it would make the next
                    // append concatenate onto it and corrupt the line — so it
                    // is torn, like any other interrupted append: dropped,
                    // truncated away, and its cell re-runs.
                    dropped_torn_tail = true;
                }
                Err(e) if i + 1 == lines.len() => {
                    // Torn tail: the final append was interrupted. Drop the
                    // line; its cell re-runs on resume.
                    let _ = e;
                    dropped_torn_tail = true;
                }
                Err(e) => {
                    return Err(ProtocolError::malformed(format!(
                        "results log `{}` line {}: {e}",
                        path.display(),
                        i + 1
                    ))
                    .into())
                }
            }
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
            group: "unit-square/uniform-square/cc=1.5/eps=0.05".into(),
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

    /// The group key of a transport cell carries the `lat=` token as its
    /// final segment (the latency-ladder coordinate the aggregator parses).
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
            let record = CellRecord::new(&cell, &report);
            match suffix {
                Some(suffix) => assert!(
                    record.group.ends_with(suffix),
                    "group `{}` lacks `{suffix}`",
                    record.group
                ),
                None => assert!(
                    !record.group.contains("lat="),
                    "default cell got a transport tail: `{}`",
                    record.group
                ),
            }
        }
    }

    #[test]
    fn records_round_trip_through_single_line_json() {
        let r = record(3);
        let line = r.to_json_value().render();
        assert!(!line.contains('\n'), "records must be single-line");
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
