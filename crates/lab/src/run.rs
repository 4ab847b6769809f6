//! Checkpointed, resumable sweep execution through the scenario [`Runner`].
//!
//! Cells execute **in canonical index order**, one at a time; each cell's
//! trials run rayon-parallel inside [`Runner::run`] under the workspace's
//! determinism contract. After every completed cell, its [`CellRecord`]
//! streams to the append-only results log — so the log is always a prefix of
//! the full campaign, a kill loses at most the in-flight cell, and a resumed
//! run produces a log whose records are bit-identical (modulo wall-clock
//! fields) to an uninterrupted run.

use crate::error::LabError;
use crate::log::{CellRecord, ResultsLog};
use geogossip_sim::scenario::{Runner, SweepSpec};
use geogossip_sim::ProtocolError;
use geogossip_telemetry::{Event, Probe};
use std::collections::BTreeMap;
use std::path::Path;

/// Execution options for one sweep invocation.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Continue a log that already holds cells. Without this, a non-empty
    /// log is an error — accidentally mixing two campaigns in one log must
    /// fail loudly.
    pub resume: bool,
    /// Execute at most this many *missing* cells, then stop (used by tests
    /// and CI to simulate a kill at a deterministic point). `None` runs the
    /// whole remainder.
    pub max_cells: Option<usize>,
}

/// What one sweep invocation did.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Records for every cell completed so far (log order = cell order);
    /// covers the whole sweep unless `max_cells` stopped it early.
    pub records: Vec<CellRecord>,
    /// Cells skipped because the log already held them.
    pub skipped: usize,
    /// Cells executed by this invocation.
    pub executed: usize,
    /// Cells still missing (non-zero only when `max_cells` stopped early).
    pub remaining: usize,
    /// Whether a torn trailing log line was dropped on load.
    pub recovered_torn_tail: bool,
}

impl SweepOutcome {
    /// Whether every cell of the sweep has a record.
    pub fn complete(&self) -> bool {
        self.remaining == 0
    }
}

/// Progress callback payload: emitted once per cell, in order.
#[derive(Debug, Clone)]
pub enum SweepProgress<'a> {
    /// The cell was found in the results log and skipped.
    Skipped(&'a CellRecord),
    /// The cell was just executed (wall-clock seconds of the whole cell).
    Completed(&'a CellRecord, f64),
}

/// The checks a sweep passes before any of its cells runs: the sweep's own
/// validation, then every cell through [`Runner::check`], so a cell the
/// runner would refuse stops the campaign before the first cell runs.
/// [`run_sweep`] calls it, and so does `geogossip validate`.
///
/// # Errors
///
/// The first failure; a cell's names the cell.
pub fn check_sweep(runner: &Runner, sweep: &SweepSpec) -> Result<(), ProtocolError> {
    sweep.validate()?;
    for cell in sweep.expand() {
        runner
            .check(&cell.spec)
            .map_err(|e| e.within(&format!("cell {} (`{}`)", cell.index, cell.spec.name)))?;
    }
    Ok(())
}

/// Runs (or resumes) a sweep, streaming each completed cell to
/// `log_path` when given. Pass `None` to run purely in memory (the example
/// and one-shot studies).
///
/// # Errors
///
/// * [`check_sweep`] failures and runner errors propagate.
/// * A results log that cannot be read, repaired or appended to is a
///   [`LabError::Io`].
/// * A non-empty log without `options.resume` is rejected.
/// * A log whose records do not match the sweep's cells (wrong index or
///   name) is rejected — it belongs to a different campaign.
pub fn run_sweep(
    runner: &Runner,
    sweep: &SweepSpec,
    log_path: Option<&Path>,
    options: &SweepOptions,
    progress: impl FnMut(SweepProgress<'_>),
) -> Result<SweepOutcome, LabError> {
    run_sweep_inner(runner, sweep, log_path, options, progress, None)
}

/// Runs (or resumes) a sweep exactly like [`run_sweep`] while streaming
/// telemetry into `probe`: each *executed* cell is bracketed by
/// `cell-started` / `cell-finished` events (the latter carrying the per-cell
/// summary counters), with the cell's per-trial event stream in between.
/// Cells skipped from the results log emit nothing — they did not run.
pub fn run_sweep_probed(
    runner: &Runner,
    sweep: &SweepSpec,
    log_path: Option<&Path>,
    options: &SweepOptions,
    progress: impl FnMut(SweepProgress<'_>),
    probe: &mut dyn Probe,
) -> Result<SweepOutcome, LabError> {
    run_sweep_inner(runner, sweep, log_path, options, progress, Some(probe))
}

fn run_sweep_inner(
    runner: &Runner,
    sweep: &SweepSpec,
    log_path: Option<&Path>,
    options: &SweepOptions,
    mut progress: impl FnMut(SweepProgress<'_>),
    mut probe: Option<&mut dyn Probe>,
) -> Result<SweepOutcome, LabError> {
    check_sweep(runner, sweep)?;
    let cells = sweep.expand();

    let mut completed: BTreeMap<u64, CellRecord> = BTreeMap::new();
    let mut recovered_torn_tail = false;
    if let Some(path) = log_path {
        let contents = ResultsLog::load(path)?;
        recovered_torn_tail = contents.dropped_torn_tail;
        if contents.dropped_torn_tail {
            // Discard the torn fragment on disk, or the next append would
            // concatenate onto it and corrupt the line.
            ResultsLog::truncate(path, contents.valid_len)?;
        }
        if !contents.records.is_empty() && !options.resume {
            return Err(ProtocolError::malformed(format!(
                "results log `{}` already holds {} cell(s); pass --resume to continue it \
                 or choose a fresh log",
                path.display(),
                contents.records.len()
            ))
            .into());
        }
        for record in contents.records {
            let cell = cells.get(record.index as usize).ok_or_else(|| {
                ProtocolError::malformed(format!(
                    "results log `{}` holds cell {} but the sweep has only {} cells \
                     — the log belongs to a different campaign",
                    path.display(),
                    record.index,
                    cells.len()
                ))
            })?;
            if cell.spec.name != record.name {
                return Err(ProtocolError::malformed(format!(
                    "results log `{}` cell {} is named `{}` but the sweep expands it as `{}` \
                     — the log belongs to a different campaign",
                    path.display(),
                    record.index,
                    record.name,
                    cell.spec.name
                ))
                .into());
            }
            completed.insert(record.index, record);
        }
    }

    let mut records = Vec::with_capacity(cells.len());
    let mut skipped = 0usize;
    let mut executed = 0usize;
    let mut remaining = 0usize;
    for cell in &cells {
        if let Some(record) = completed.remove(&cell.index) {
            records.push(record);
            skipped += 1;
            progress(SweepProgress::Skipped(records.last().expect("just pushed")));
            continue;
        }
        if options.max_cells.is_some_and(|cap| executed >= cap) {
            remaining += 1;
            continue;
        }
        let start = std::time::Instant::now();
        let report = match probe.as_deref_mut() {
            Some(probe) => {
                probe.on_event(Event::CellStarted {
                    index: cell.index,
                    name: cell.spec.name.clone(),
                });
                let report = runner.run_probed(&cell.spec, probe)?;
                probe.on_event(Event::CellFinished {
                    index: cell.index,
                    name: cell.spec.name.clone(),
                    trials: report.trials.len() as u64,
                    converged_trials: report.trials.iter().filter(|t| t.converged).count() as u64,
                    ticks: report.trials.iter().map(|t| t.ticks).sum(),
                    transmissions: report.trials.iter().map(|t| t.transmissions.total()).sum(),
                });
                report
            }
            None => runner.run(&cell.spec)?,
        };
        let record = CellRecord::new(cell, &report);
        if let Some(path) = log_path {
            ResultsLog::append(path, &record)?;
        }
        records.push(record);
        executed += 1;
        progress(SweepProgress::Completed(
            records.last().expect("just pushed"),
            start.elapsed().as_secs_f64(),
        ));
    }
    Ok(SweepOutcome {
        records,
        skipped,
        executed,
        remaining,
        recovered_torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_sim::clock::Tick;
    use geogossip_sim::engine::Activation;
    use geogossip_sim::scenario::{ProtocolFactory, ProtocolSpec};
    use geogossip_sim::TransmissionCounter;
    use rand::{Rng, RngCore};

    /// The runner-test drift protocol, reused: outcome depends on every RNG
    /// stream, so determinism violations would show up immediately.
    struct DriftProtocol {
        error: f64,
    }

    impl Activation for DriftProtocol {
        fn on_tick(&mut self, _tick: Tick, tx: &mut TransmissionCounter, rng: &mut dyn RngCore) {
            tx.charge_local(1);
            self.error *= 0.9 + 0.05 * rng.gen::<f64>();
        }
        fn relative_error(&self) -> f64 {
            self.error
        }
        fn name(&self) -> &str {
            "drift"
        }
    }

    struct DriftFactory;

    impl ProtocolFactory for DriftFactory {
        fn names(&self) -> Vec<String> {
            vec!["drift".into()]
        }
        fn seed_tag(&self, name: &str) -> Option<u64> {
            (name == "drift").then_some(11)
        }
        fn build<'a>(
            &self,
            spec: &ProtocolSpec,
            _graph: &'a geogossip_graph::GeometricGraph,
            _values: Vec<f64>,
            _epsilon: f64,
            _rng: &mut dyn RngCore,
        ) -> Result<Box<dyn Activation + 'a>, ProtocolError> {
            spec.reject_unknown(&[])?;
            Ok(Box::new(DriftProtocol { error: 1.0 }))
        }
    }

    fn sweep() -> SweepSpec {
        SweepSpec::new(
            "drift-sweep",
            vec![32, 48],
            vec![ProtocolSpec::named("drift")],
        )
        .with_trials(2)
        .with_epsilons(vec![0.1, 0.2])
        .with_seed(5)
    }

    fn temp_log(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("geogossip-lab-run-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn in_memory_run_covers_every_cell_deterministically() {
        let runner = Runner::new(Box::new(DriftFactory));
        let opts = SweepOptions::default();
        let a = run_sweep(&runner, &sweep(), None, &opts, |_| {}).unwrap();
        let b = run_sweep(&runner, &sweep(), None, &opts, |_| {}).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.records.len(), 4);
        assert!(a.complete());
        assert_eq!(a.executed, 4);
        assert_eq!(a.skipped, 0);
        // Cells see independent randomness (distinct derived seeds).
        assert_ne!(a.records[0].trials[0].ticks, a.records[1].trials[0].ticks);
    }

    #[test]
    fn killed_and_resumed_runs_match_an_uninterrupted_run() {
        let runner = Runner::new(Box::new(DriftFactory));
        let uninterrupted =
            run_sweep(&runner, &sweep(), None, &SweepOptions::default(), |_| {}).unwrap();

        let path = temp_log("resume.jsonl");
        // "Kill" after 1 cell, then after 2 more, then finish.
        let first = run_sweep(
            &runner,
            &sweep(),
            Some(&path),
            &SweepOptions {
                resume: false,
                max_cells: Some(1),
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(first.executed, 1);
        assert_eq!(first.remaining, 3);
        assert!(!first.complete());
        let second = run_sweep(
            &runner,
            &sweep(),
            Some(&path),
            &SweepOptions {
                resume: true,
                max_cells: Some(2),
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(second.skipped, 1);
        assert_eq!(second.executed, 2);
        let last = run_sweep(
            &runner,
            &sweep(),
            Some(&path),
            &SweepOptions {
                resume: true,
                max_cells: None,
            },
            |_| {},
        )
        .unwrap();
        assert!(last.complete());
        assert_eq!(last.skipped, 3);
        assert_eq!(last.executed, 1);
        assert_eq!(last.records, uninterrupted.records);
        // The on-disk log holds every cell, in order.
        let logged = ResultsLog::load(&path).unwrap();
        assert_eq!(logged.records, uninterrupted.records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_empty_log_without_resume_is_rejected() {
        let runner = Runner::new(Box::new(DriftFactory));
        let path = temp_log("no-resume.jsonl");
        run_sweep(
            &runner,
            &sweep(),
            Some(&path),
            &SweepOptions {
                resume: false,
                max_cells: Some(1),
            },
            |_| {},
        )
        .unwrap();
        let err = run_sweep(
            &runner,
            &sweep(),
            Some(&path),
            &SweepOptions::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("--resume"), "got {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn logs_from_a_different_campaign_are_rejected() {
        let runner = Runner::new(Box::new(DriftFactory));
        let path = temp_log("foreign.jsonl");
        run_sweep(
            &runner,
            &sweep(),
            Some(&path),
            &SweepOptions {
                resume: false,
                max_cells: Some(1),
            },
            |_| {},
        )
        .unwrap();
        // Same log, different campaign (renamed sweep → different cell names).
        let mut other = sweep();
        other.name = "other-campaign".into();
        let err = run_sweep(
            &runner,
            &other,
            Some(&path),
            &SweepOptions {
                resume: true,
                max_cells: None,
            },
            |_| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("different campaign"), "got {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn progress_reports_skips_and_completions_in_cell_order() {
        let runner = Runner::new(Box::new(DriftFactory));
        let path = temp_log("progress.jsonl");
        run_sweep(
            &runner,
            &sweep(),
            Some(&path),
            &SweepOptions {
                resume: false,
                max_cells: Some(2),
            },
            |_| {},
        )
        .unwrap();
        let mut events = Vec::new();
        run_sweep(
            &runner,
            &sweep(),
            Some(&path),
            &SweepOptions {
                resume: true,
                max_cells: None,
            },
            |p| {
                events.push(match p {
                    SweepProgress::Skipped(r) => ("skip", r.index),
                    SweepProgress::Completed(r, _) => ("run", r.index),
                });
            },
        )
        .unwrap();
        assert_eq!(
            events,
            vec![("skip", 0), ("skip", 1), ("run", 2), ("run", 3)]
        );
        let _ = std::fs::remove_file(&path);
    }
}
