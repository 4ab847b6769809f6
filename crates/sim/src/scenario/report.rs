//! Structured results of a scenario run: per-trial costs plus summary
//! statistics, serializable to JSON and renderable as a table.

use crate::metrics::{ConvergenceTrace, TransmissionCounter};
use crate::scenario::spec::ScenarioSpec;
use geogossip_analysis::json::JsonValue;
use geogossip_analysis::{Summary, Table};
use serde::{Deserialize, Serialize};

/// The cost outcome of one trial, reduced to the quantities the experiment
/// tables report (plus the trace and protocol metrics for the experiments
/// that need more).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialCost {
    /// Whether the accuracy target was reached.
    pub converged: bool,
    /// Transmission counters (routing / local / control).
    pub transmissions: TransmissionCounter,
    /// "Rounds": the protocol's own round counter when it has one (top-level
    /// rounds for the round-based affine protocol), engine ticks otherwise.
    pub rounds: u64,
    /// Engine ticks consumed (equals `rounds` for tick-driven protocols).
    pub ticks: u64,
    /// Final relative ℓ₂ error.
    pub final_error: f64,
    /// Protocol-specific numeric outcomes (`Activation::metrics`).
    pub metrics: Vec<(String, f64)>,
    /// Error-vs-cost trace of the trial (not serialized into report JSON;
    /// experiments read it in-process).
    pub trace: ConvergenceTrace,
    /// Wall-clock seconds of the whole trial (placement + graph build +
    /// field + protocol construction + engine run). Timing, not semantics —
    /// excluded from equality.
    pub seconds: f64,
    /// Wall-clock seconds of the engine run alone; `ticks / engine_seconds`
    /// is the trial's tick throughput.
    pub engine_seconds: f64,
    /// Wall-clock phase laps of the trial, in execution order (`graph`,
    /// `field`, `build`, `engine`), from the telemetry `PhaseTimer`. Like
    /// `seconds`/`engine_seconds` this is timing, not semantics: excluded
    /// from equality and from report JSON (the telemetry sinks aggregate
    /// phases into their own log-bucketed CSV instead).
    pub phases: Vec<(&'static str, f64)>,
}

impl TrialCost {
    /// Looks up a protocol metric by key.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Semantic equality: two trial outcomes are equal when the *simulation
/// results* match; wall-clock timings vary run to run and are excluded (the
/// determinism contract is about results, not machine speed).
impl PartialEq for TrialCost {
    fn eq(&self, other: &Self) -> bool {
        self.converged == other.converged
            && self.transmissions == other.transmissions
            && self.rounds == other.rounds
            && self.ticks == other.ticks
            && self.final_error == other.final_error
            && self.metrics == other.metrics
            && self.trace == other.trace
    }
}

/// Aggregate statistics over a scenario's trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSummary {
    /// Trials that reached the accuracy target.
    pub converged_trials: u64,
    /// Total trials.
    pub trials: u64,
    /// Mean transmissions across trials.
    pub mean_transmissions: f64,
    /// Smallest per-trial transmission total.
    pub min_transmissions: u64,
    /// Largest per-trial transmission total.
    pub max_transmissions: u64,
    /// Mean protocol rounds across trials.
    pub mean_rounds: f64,
    /// Mean final relative error across trials.
    pub mean_final_error: f64,
}

/// The structured result of running one [`ScenarioSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The spec that produced this report (self-describing output).
    pub spec: ScenarioSpec,
    /// Protocol display name as reported by the running instance.
    pub protocol_label: String,
    /// Per-trial outcomes, ordered by trial index.
    pub trials: Vec<TrialCost>,
    /// Aggregate statistics.
    pub summary: ScenarioSummary,
}

impl ScenarioReport {
    /// Assembles a report, computing the summary from the trial costs.
    pub fn new(spec: ScenarioSpec, protocol_label: String, trials: Vec<TrialCost>) -> Self {
        let mut tx = Summary::new();
        let mut rounds = Summary::new();
        let mut error = Summary::new();
        let mut converged = 0u64;
        for trial in &trials {
            tx.push(trial.transmissions.total() as f64);
            rounds.push(trial.rounds as f64);
            error.push(trial.final_error);
            if trial.converged {
                converged += 1;
            }
        }
        let summary = ScenarioSummary {
            converged_trials: converged,
            trials: trials.len() as u64,
            mean_transmissions: tx.mean(),
            min_transmissions: if trials.is_empty() {
                0
            } else {
                tx.min() as u64
            },
            max_transmissions: if trials.is_empty() {
                0
            } else {
                tx.max() as u64
            },
            mean_rounds: rounds.mean(),
            mean_final_error: error.mean(),
        };
        ScenarioReport {
            spec,
            protocol_label,
            trials,
            summary,
        }
    }

    /// Whether every trial converged.
    pub fn all_converged(&self) -> bool {
        self.summary.converged_trials == self.summary.trials
    }

    /// Wall-clock seconds **summed over trials** (whole trials: build + run).
    ///
    /// Trials run in parallel across cores, so this is aggregate compute
    /// time, not elapsed time — it can exceed the real wall clock by up to
    /// the core count when `trials > 1` (it equals elapsed time for
    /// single-trial scenarios such as the `large_n.json` members).
    pub fn total_seconds(&self) -> f64 {
        self.trials.iter().map(|t| t.seconds).sum()
    }

    /// Total engine ticks across trials.
    pub fn total_ticks(&self) -> u64 {
        self.trials.iter().map(|t| t.ticks).sum()
    }

    /// Wall-clock seconds summed per phase across trials, in first-seen
    /// phase order — the source of the CLI's single `timing:` line. Like
    /// [`ScenarioReport::total_seconds`], a sum of parallel trials (aggregate
    /// compute time, not elapsed time).
    pub fn phase_totals(&self) -> Vec<(&'static str, f64)> {
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for trial in &self.trials {
            for (phase, seconds) in &trial.phases {
                match totals.iter_mut().find(|(name, _)| name == phase) {
                    Some((_, sum)) => *sum += seconds,
                    None => totals.push((phase, *seconds)),
                }
            }
        }
        totals
    }

    /// Per-trial engine tick throughput: total ticks over summed engine
    /// seconds, or `None` when no engine time was recorded (e.g. synthetic
    /// reports). Because the denominator sums across parallel trials, this
    /// is the rate of a single engine loop (per core), not the machine-wide
    /// aggregate. This is the number the CLI's per-scenario summary line
    /// prints, straight off the trial reports.
    pub fn ticks_per_second(&self) -> Option<f64> {
        let engine_seconds: f64 = self.trials.iter().map(|t| t.engine_seconds).sum();
        (engine_seconds > 0.0).then(|| self.total_ticks() as f64 / engine_seconds)
    }

    /// Serialises the report (spec echo, per-trial costs, summary) to the
    /// JSON document model. Traces are omitted — they can run to millions of
    /// points; experiments that need them read [`TrialCost::trace`]
    /// in-process.
    pub fn to_json_value(&self) -> JsonValue {
        let trials = self
            .trials
            .iter()
            .map(|t| {
                let mut entries = vec![
                    ("converged", JsonValue::Bool(t.converged)),
                    ("transmissions", t.transmissions.total().into()),
                    ("routing", t.transmissions.routing().into()),
                    ("local", t.transmissions.local().into()),
                    ("control", t.transmissions.control().into()),
                    ("rounds", t.rounds.into()),
                    ("ticks", t.ticks.into()),
                    ("final-error", t.final_error.into()),
                    ("seconds", t.seconds.into()),
                    ("engine-seconds", t.engine_seconds.into()),
                ];
                if !t.metrics.is_empty() {
                    entries.push((
                        "metrics",
                        JsonValue::Object(
                            t.metrics
                                .iter()
                                .map(|(k, v)| (k.clone(), JsonValue::Number(*v)))
                                .collect(),
                        ),
                    ));
                }
                JsonValue::object(entries)
            })
            .collect();
        JsonValue::object(vec![
            ("spec", self.spec.to_json_value()),
            (
                "protocol-label",
                JsonValue::string(self.protocol_label.clone()),
            ),
            ("trials", JsonValue::Array(trials)),
            (
                "summary",
                JsonValue::object(vec![
                    ("converged-trials", self.summary.converged_trials.into()),
                    ("trials", self.summary.trials.into()),
                    ("mean-transmissions", self.summary.mean_transmissions.into()),
                    ("min-transmissions", self.summary.min_transmissions.into()),
                    ("max-transmissions", self.summary.max_transmissions.into()),
                    ("mean-rounds", self.summary.mean_rounds.into()),
                    ("mean-final-error", self.summary.mean_final_error.into()),
                ]),
            ),
        ])
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }
}

/// Renders a set of reports as one comparison table (one row per scenario),
/// the shape every experiment and the CLI print.
pub fn reports_table(reports: &[ScenarioReport]) -> Table {
    let mut table = Table::new(vec![
        "scenario",
        "protocol",
        "n",
        "ε",
        "converged",
        "mean tx",
        "mean rounds",
        "mean final error",
    ]);
    for report in reports {
        table.add_row(vec![
            report.spec.name.clone(),
            report.protocol_label.clone(),
            report.spec.topology.n.to_string(),
            format_epsilon(report.spec.stop.epsilon),
            format!(
                "{}/{}",
                report.summary.converged_trials, report.summary.trials
            ),
            format!("{:.0}", report.summary.mean_transmissions),
            format!("{:.0}", report.summary.mean_rounds),
            format!("{:.3e}", report.summary.mean_final_error),
        ]);
    }
    table
}

/// Renders an accuracy target for a report table: as a plain decimal when
/// that takes at most 12 characters (`0.001`), in scientific notation
/// otherwise (`1e-300`), so a tiny ε cannot print hundreds of digits.
pub fn format_epsilon(epsilon: f64) -> String {
    let plain = format!("{epsilon}");
    if plain.len() <= 12 {
        plain
    } else {
        format!("{epsilon:e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_renders_short() {
        assert_eq!(format_epsilon(1e-300), "1e-300");
        assert_eq!(format_epsilon(0.1), "0.1");
        assert_eq!(format_epsilon(0.01), "0.01");
        assert_eq!(format_epsilon(0.001), "0.001");
    }

    fn cost(converged: bool, tx: u64, rounds: u64, err: f64) -> TrialCost {
        let mut counter = TransmissionCounter::new();
        counter.charge_local(tx);
        TrialCost {
            converged,
            transmissions: counter,
            rounds,
            ticks: rounds,
            final_error: err,
            metrics: vec![("exchanges".into(), rounds as f64)],
            trace: ConvergenceTrace::new(),
            seconds: 0.25,
            engine_seconds: 0.2,
            phases: vec![("graph", 0.05), ("engine", 0.2)],
        }
    }

    #[test]
    fn summary_aggregates_trials() {
        let spec = ScenarioSpec::standard("pairwise", 64, 0.1);
        let report = ScenarioReport::new(
            spec,
            "pairwise".into(),
            vec![cost(true, 100, 10, 0.05), cost(false, 300, 30, 0.2)],
        );
        assert_eq!(report.summary.trials, 2);
        assert_eq!(report.summary.converged_trials, 1);
        assert!(!report.all_converged());
        assert_eq!(report.summary.mean_transmissions, 200.0);
        assert_eq!(report.summary.min_transmissions, 100);
        assert_eq!(report.summary.max_transmissions, 300);
        assert_eq!(report.summary.mean_rounds, 20.0);
        assert_eq!(report.trials[0].metric("exchanges"), Some(10.0));
        assert_eq!(report.trials[0].metric("nope"), None);
        assert!((report.total_seconds() - 0.5).abs() < 1e-12);
        assert_eq!(report.total_ticks(), 40);
        let tps = report.ticks_per_second().unwrap();
        assert!((tps - 100.0).abs() < 1e-9, "got {tps}");
    }

    #[test]
    fn trial_equality_ignores_wall_clock_timings() {
        let mut a = cost(true, 100, 10, 0.05);
        let mut b = a.clone();
        b.seconds = 99.0;
        b.engine_seconds = 98.0;
        assert_eq!(a, b);
        a.ticks += 1;
        assert_ne!(a, b);
    }

    #[test]
    fn report_json_contains_summary_and_trials_but_no_trace() {
        let spec = ScenarioSpec::standard("pairwise", 64, 0.1);
        let report = ScenarioReport::new(spec, "pairwise".into(), vec![cost(true, 100, 10, 0.05)]);
        let json = report.to_json();
        assert!(json.contains("\"mean-transmissions\""));
        assert!(json.contains("\"metrics\""));
        assert!(!json.contains("trace"));
        // The document parses back.
        assert!(JsonValue::parse(&json).is_ok());
    }

    #[test]
    fn table_has_one_row_per_report() {
        let spec = ScenarioSpec::standard("pairwise", 64, 0.1);
        let report = ScenarioReport::new(spec, "pairwise".into(), vec![cost(true, 10, 1, 0.01)]);
        let table = reports_table(&[report.clone(), report]);
        assert_eq!(table.len(), 2);
        assert!(table.to_markdown().contains("pairwise"));
    }
}
