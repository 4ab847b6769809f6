//! The `geogossip` CLI: run gossip scenarios from JSON specs or flags, sweep
//! parameter-grid campaigns through the lab, and run the paper's experiments.
//!
//! ```text
//! geogossip run scenarios/smoke.json            # run a spec file
//! geogossip run scenarios/smoke.json --json out.json --trace-csv traces/
//! geogossip run scenarios/large_n.json --only large-uniform-torus
//! geogossip run --protocol pairwise --n 256 --epsilon 0.1 --trials 2
//! geogossip sweep scenarios/sweeps/smoke_sweep.json --report out/
//! geogossip sweep scenarios/sweeps/scaling_headline.json --resume
//! geogossip validate scenarios/smoke.json       # schema check, no run
//! geogossip experiment E4 --scale smoke         # one of the experiments E1–E10
//! geogossip experiment all --scale full         # all ten, in order
//! geogossip protocols                           # list the registry
//! geogossip template                            # print an example spec
//! ```
//!
//! A spec file holds either a single scenario object or
//! `{"scenarios": [ … ]}`; a sweep file carries the top-level `"sweep"` key.
//! See `geogossip_sim::scenario` for both schemas.

use geogossip::analysis::json::JsonValue;
use geogossip::builtin_runner;
use geogossip::experiments::{Scale, DEFAULT_SEED, EXPERIMENTS};
use geogossip::lab::{run_sweep, SweepAggregator, SweepOptions, SweepProgress, SweepReport};
use geogossip::sim::batch::available_threads;
use geogossip::sim::field::Field;
use geogossip::sim::scenario::{
    reports_table, Runner, ScenarioReport, ScenarioSpec, SweepSpec, TopologySpec,
};
use geogossip::sim::{ParallelSpec, ProtocolError};
use geogossip::telemetry::{JsonlSink, MetricsRegistry, PhaseProfile, PHASE_CSV_HEADER};
use geogossip_geometry::Topology;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped. A bad command line and an unreadable or
/// unwritable file print their message alone; a spec the scenario layer
/// rejected prints as that layer words it ("malformed scenario spec: …").
/// Every kind exits 1.
#[derive(Debug)]
enum CliError {
    /// The command line is wrong: an unknown command or flag, a missing or
    /// malformed value, or arguments that do not fit together.
    Usage(String),
    /// A file or directory could not be read, created or written.
    Io(String),
    /// The scenario layer rejected a spec or could not run it.
    Spec(ProtocolError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(message) | CliError::Io(message) => f.write_str(message),
            CliError::Spec(err) => err.fmt(f),
        }
    }
}

impl From<ProtocolError> for CliError {
    fn from(err: ProtocolError) -> Self {
        CliError::Spec(err)
    }
}

/// `CliError::Usage` from anything string-like.
fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

/// Reads a spec or sweep file; a failure is an I/O error, not a spec error.
fn read_text(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))
}

/// Runs one command line (without the program name).
fn dispatch(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("experiment") => experiment(&args[1..]),
        Some("protocols") => {
            list_protocols();
            Ok(())
        }
        Some("template") => {
            println!("{}", template_json());
            // Usage hints ride on stderr so stdout stays a valid spec file
            // when piped (`geogossip template > spec.json`).
            eprintln!("{TEMPLATE_HINT}");
            Ok(())
        }
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(usage(format!(
            "unknown command `{other}` (try `geogossip help`)"
        ))),
    }
}

/// Printed (on stderr) after `geogossip template` so the example spec comes
/// with its observability entry points.
const TEMPLATE_HINT: &str = "\
hint: save this spec and run it with\n\
\x20 geogossip run <spec.json>                  run as-is\n\
\x20 geogossip run <spec.json> --telemetry <dir>  also capture the deterministic\n\
\x20                                            event log, metrics registry and\n\
\x20                                            phase histograms (dir must be\n\
\x20                                            new or empty)";

fn print_usage() {
    println!(
        "geogossip — gossip averaging scenarios on geometric random graphs\n\
         \n\
         USAGE:\n\
         \x20 geogossip run <spec.json> [--only <name>] [--json <out.json>]\n\
         \x20               [--trace-csv <dir>] [--threads T] [--telemetry <dir>]\n\
         \x20 geogossip run --protocol <name> [--n N] [--epsilon E] [--trials T]\n\
         \x20               [--seed S] [--field F] [--radius-constant C] [--torus]\n\
         \x20               [--param key=value]... [--json <out.json>] [--threads T]\n\
         \x20               [--telemetry <dir>]\n\
         \x20 geogossip sweep <sweep.json> [--resume] [--report <dir>]\n\
         \x20               [--log <path.jsonl>] [--max-cells K]\n\
         \x20 geogossip validate <spec.json>   parse + validate a scenario or\n\
         \x20                                  sweep spec without running it\n\
         \x20 geogossip experiment <E1..E10|all> [--scale smoke|quick|full]\n\
         \x20               [--seed S]      run the paper's experiments\n\
         \x20                                  (default: quick, seed 20070612)\n\
         \x20 geogossip protocols        list registered protocols\n\
         \x20 geogossip template         print an example scenario spec\n\
         \n\
         A spec file holds one scenario object or {{\"scenarios\": [...]}};\n\
         a sweep file carries the top-level \"sweep\" key.\n\
         Fields: spike, uniform, ramp, bimodal, spatial-gradient.\n\
         --threads sets intra-trial parallelism (0 = all cores); results are\n\
         bit-identical at any thread count.\n\
         --telemetry <dir> captures a deterministic event log (events.jsonl,\n\
         byte-identical across reruns and thread counts), a namespaced metrics\n\
         registry (metrics.json, metrics-keys.txt) and wall-clock phase\n\
         histograms (phases.csv); the directory must be new or empty."
    );
}

fn list_protocols() {
    let registry = geogossip::core::ProtocolRegistry::builtin();
    println!("registered protocols:");
    for entry in registry.entries() {
        println!("  {:26} {}", entry.name, entry.summary);
    }
}

fn template_spec() -> ScenarioSpec {
    ScenarioSpec::standard("geographic", 512, 0.05)
        .with_trials(2)
        // Example transport: the message-passing runtime on the instant
        // schedule (bit-identical to the shared-memory engine, plus message
        // ledger metrics). Delete the key to run shared-memory directly.
        .with_transport(geogossip::sim::TransportSpec::default())
}

/// The template spec as JSON, with an example default-valued `faults` object
/// and a default-valued `transport.reliability` block spliced in so the
/// printed spec shows every optional schema key. The result round-trips: it
/// validates and runs as printed (zero-valued faults decode to "no faults",
/// the zero-valued reliability block decodes to a lossless wire).
fn template_json() -> String {
    let mut doc = template_spec().to_json_value();
    if let JsonValue::Object(fields) = &mut doc {
        let at = fields
            .iter()
            .position(|(key, _)| key == "transport")
            .unwrap_or(fields.len());
        fields.insert(
            at,
            (
                "faults".to_string(),
                JsonValue::object(vec![("drop-rate", 0.0.into())]),
            ),
        );
        if let Some(JsonValue::Object(transport)) = fields
            .iter_mut()
            .find(|(key, _)| key == "transport")
            .map(|(_, value)| value)
        {
            transport.push((
                "reliability".to_string(),
                JsonValue::object(vec![
                    ("drop", 0.0.into()),
                    ("duplicate", 0.0.into()),
                    (
                        "retry",
                        JsonValue::object(vec![
                            ("timeout", 0.25.into()),
                            ("backoff", 2.0.into()),
                            ("max-retries", 3u64.into()),
                        ]),
                    ),
                ]),
            ));
        }
    }
    doc.pretty()
}

fn run(args: &[String]) -> Result<(), CliError> {
    let mut spec_path: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut trace_csv: Option<String> = None;
    let mut only: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut telemetry: Option<String> = None;
    let mut flags = FlagSpec::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| usage(format!("`{name}` needs a value")))
        };
        match arg.as_str() {
            "--json" => json_out = Some(take("--json")?),
            "--trace-csv" => trace_csv = Some(take("--trace-csv")?),
            "--only" => only = Some(take("--only")?),
            "--protocol" => flags.protocol = Some(take("--protocol")?),
            "--n" => flags.n = Some(parse_u64(&take("--n")?, "--n")? as usize),
            "--epsilon" => flags.epsilon = Some(parse_f64(&take("--epsilon")?, "--epsilon")?),
            "--trials" => flags.trials = Some(parse_u64(&take("--trials")?, "--trials")?),
            "--seed" => flags.seed = Some(parse_u64(&take("--seed")?, "--seed")?),
            "--field" => flags.field = Some(take("--field")?),
            "--radius-constant" => {
                flags.radius_constant =
                    Some(parse_f64(&take("--radius-constant")?, "--radius-constant")?)
            }
            "--torus" => flags.torus = true,
            "--param" => flags.params.push(take("--param")?),
            "--threads" => threads = Some(parse_u64(&take("--threads")?, "--threads")? as usize),
            "--telemetry" => telemetry = Some(take("--telemetry")?),
            other if other.starts_with('-') => {
                return Err(usage(format!("unknown flag `{other}`")))
            }
            other => {
                if spec_path.replace(other.to_string()).is_some() {
                    return Err(usage("only one spec file can be given per run"));
                }
            }
        }
    }

    let mut specs = match (spec_path, flags.protocol.is_some()) {
        (Some(path), false) => ScenarioSpec::from_file_text(&path, &read_text(&path)?)?,
        (None, true) => vec![flags.into_spec()?],
        (Some(_), true) => {
            return Err(usage(
                "pass either a spec file or --protocol flags, not both",
            ))
        }
        (None, false) => {
            return Err(usage(
                "nothing to run: pass a spec file or --protocol (see `geogossip help`)",
            ))
        }
    };
    if let Some(name) = &only {
        let known: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        specs.retain(|s| &s.name == name);
        if specs.is_empty() {
            return Err(usage(format!(
                "`--only {name}` matches no scenario (known: {})",
                known.join(", ")
            )));
        }
    }
    if let Some(threads) = threads {
        // `--threads 0` = all pool workers. The flag overrides any
        // `parallelism` key in the spec; validation (below, in the runner)
        // still rejects the combination with a `transport`.
        let threads = if threads == 0 {
            available_threads()
        } else {
            threads
        };
        for spec in &mut specs {
            spec.parallelism = Some(ParallelSpec::with_threads(threads));
        }
    }

    let runner = builtin_runner();
    let reports = match &telemetry {
        Some(dir) => run_with_telemetry(&runner, &specs, Path::new(dir))?,
        None => runner.run_all(&specs)?,
    };
    println!("{}", reports_table(&reports).to_markdown());
    // Per-scenario throughput, straight off the trial reports — large-n
    // sweeps show throughput without a separate bench run. Trials run in
    // parallel, so the seconds are summed trial time (== elapsed wall time
    // only for single-trial scenarios) and ticks/s is the per-trial engine
    // rate.
    for report in &reports {
        println!("{}", timing_line(report));
    }
    for report in &reports {
        if !report.all_converged() {
            println!(
                "note: `{}` converged in {}/{} trials (mean final error {:.3e})",
                report.spec.name,
                report.summary.converged_trials,
                report.summary.trials,
                report.summary.mean_final_error
            );
        }
    }
    if let Some(path) = json_out {
        let doc = JsonValue::Array(reports.iter().map(ScenarioReport::to_json_value).collect());
        std::fs::write(&path, doc.pretty() + "\n")
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
        println!("wrote {path}");
    }
    if let Some(dir) = trace_csv {
        write_trace_csvs(Path::new(&dir), &reports)?;
    }
    Ok(())
}

/// The per-scenario `timing:` line, sourced from the telemetry phase timers.
///
/// Every wall-clock second lands in exactly one phase lap (`graph`, `field`,
/// `build`, `engine`), so the line's total is an unambiguous sum. The old
/// line printed whole-trial seconds *and* a ticks/s figure whose denominator
/// (`engine_seconds`) was a different, overlapping slice of the same clock —
/// and for transport specs that slice silently included actor construction,
/// so engine time was effectively reported twice under two definitions. Now
/// ticks/s divides by the engine phase alone and the breakdown shows where
/// the rest went.
fn timing_line(report: &ScenarioReport) -> String {
    let phases = report.phase_totals();
    let total: f64 = phases.iter().map(|(_, s)| s).sum();
    let engine: f64 = phases
        .iter()
        .filter(|(phase, _)| *phase == "engine")
        .map(|(_, s)| s)
        .sum();
    let breakdown: Vec<String> = phases
        .iter()
        .map(|(phase, s)| format!("{phase} {s:.2}s"))
        .collect();
    let ticks_per_sec = if engine > 0.0 {
        format!("{:.0}", report.total_ticks() as f64 / engine)
    } else {
        "-".into()
    };
    let engine_threads = report.spec.parallelism.map_or(1, |p| p.threads);
    format!(
        "timing: `{}` {} = {:.2}s over {} parallel trial{}, {} ticks, {} ticks/s per trial, {} engine thread{}",
        report.spec.name,
        if breakdown.is_empty() {
            "(no phase laps)".to_string()
        } else {
            breakdown.join(" + ")
        },
        total,
        report.summary.trials,
        if report.summary.trials == 1 { "" } else { "s" },
        report.total_ticks(),
        ticks_per_sec,
        engine_threads,
        if engine_threads == 1 { "" } else { "s" }
    )
}

/// Runs `specs` with the telemetry sinks attached, writing four files into
/// `dir` (which must not already hold anything — telemetry runs never
/// silently clobber a previous capture):
///
/// * `events.jsonl` — the deterministic structured event stream, one compact
///   JSON object per line, byte-identical across reruns and thread counts;
/// * `metrics.json` — per-scenario [`MetricsRegistry`] snapshots (namespaced
///   `engine.*` / `tx.*` / `net.*` / `fault.*` / `protocol.*` keys, counters
///   summed across trials);
/// * `metrics-keys.txt` — the sorted union of metric keys (what CI diffs
///   against the committed golden list);
/// * `phases.csv` — log-bucketed wall-clock phase histograms per scenario
///   (the only file wall-clock data touches).
fn run_with_telemetry(
    runner: &Runner,
    specs: &[ScenarioSpec],
    dir: &Path,
) -> Result<Vec<ScenarioReport>, CliError> {
    match std::fs::read_dir(dir) {
        Ok(mut entries) => {
            if entries.next().is_some() {
                return Err(usage(format!(
                    "--telemetry directory `{}` already exists and is not empty \
                     (pass a new or empty directory; telemetry never overwrites)",
                    dir.display()
                )));
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::Io(format!("cannot create `{}`: {e}", dir.display())))?;
        }
        Err(e) => {
            return Err(CliError::Io(format!(
                "cannot use `{}` as a telemetry directory: {e}",
                dir.display()
            )))
        }
    }
    let events_path = dir.join("events.jsonl");
    let file = std::fs::File::create(&events_path)
        .map_err(|e| CliError::Io(format!("cannot write `{}`: {e}", events_path.display())))?;
    let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
    let mut reports = Vec::with_capacity(specs.len());
    for spec in specs {
        reports.push(runner.run_probed(spec, &mut sink)?);
    }
    let events = sink.written();
    sink.finish()
        .map_err(|e| CliError::Io(format!("cannot write `{}`: {e}", events_path.display())))?;

    let mut scenarios: Vec<(&str, JsonValue)> = Vec::new();
    let mut keys: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut phases_csv = format!("{PHASE_CSV_HEADER}\n");
    for report in &reports {
        let registry = report_registry(report);
        keys.extend(registry.keys().iter().map(|k| k.to_string()));
        scenarios.push((report.spec.name.as_str(), registry.to_json_value()));
        let mut profile = PhaseProfile::new();
        for trial in &report.trials {
            profile.record_laps(&trial.phases);
        }
        phases_csv.push_str(&profile.csv_rows(&report.spec.name));
    }
    let write = |name: &str, contents: String| -> Result<(), CliError> {
        let path = dir.join(name);
        std::fs::write(&path, contents)
            .map_err(|e| CliError::Io(format!("cannot write `{}`: {e}", path.display())))
    };
    write("metrics.json", JsonValue::object(scenarios).pretty() + "\n")?;
    write(
        "metrics-keys.txt",
        keys.iter().fold(String::new(), |mut acc, key| {
            acc.push_str(key);
            acc.push('\n');
            acc
        }),
    )?;
    write("phases.csv", phases_csv)?;
    println!(
        "telemetry: wrote events.jsonl ({events} events), metrics.json, \
         metrics-keys.txt, phases.csv to {}",
        dir.display()
    );
    Ok(reports)
}

/// Folds one scenario report into a namespaced metrics registry: engine and
/// transmission counters summed across trials, plus every per-trial protocol
/// metric routed through [`MetricsRegistry::record_trial_metrics`].
fn report_registry(report: &ScenarioReport) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    let trials = &report.trials;
    registry.set("engine.trials", trials.len() as f64);
    registry.set(
        "engine.converged_trials",
        trials.iter().filter(|t| t.converged).count() as f64,
    );
    registry.set(
        "engine.ticks",
        trials.iter().map(|t| t.ticks).sum::<u64>() as f64,
    );
    registry.set(
        "engine.rounds",
        trials.iter().map(|t| t.rounds).sum::<u64>() as f64,
    );
    registry.set("engine.mean_final_error", report.summary.mean_final_error);
    registry.set(
        "tx.local",
        trials.iter().map(|t| t.transmissions.local()).sum::<u64>() as f64,
    );
    registry.set(
        "tx.routing",
        trials
            .iter()
            .map(|t| t.transmissions.routing())
            .sum::<u64>() as f64,
    );
    registry.set(
        "tx.control",
        trials
            .iter()
            .map(|t| t.transmissions.control())
            .sum::<u64>() as f64,
    );
    registry.set(
        "tx.total",
        trials.iter().map(|t| t.transmissions.total()).sum::<u64>() as f64,
    );
    // Sum the flat per-trial metric lists by name before routing, so the
    // registry holds whole-scenario counters, not last-trial values.
    let mut summed: Vec<(String, f64)> = Vec::new();
    for trial in trials {
        for (name, value) in &trial.metrics {
            match summed.iter_mut().find(|(n, _)| n == name) {
                Some((_, sum)) => *sum += value,
                None => summed.push((name.clone(), *value)),
            }
        }
    }
    registry.record_trial_metrics(&summed);
    registry
}

/// Writes one CSV per trial (`<scenario>-t<trial>.csv`, `/` sanitised to
/// `_`) holding the stride-thinned convergence trace — the plottable form of
/// what the engine records.
fn write_trace_csvs(dir: &Path, reports: &[ScenarioReport]) -> Result<(), CliError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::Io(format!("cannot create `{}`: {e}", dir.display())))?;
    let mut written = 0usize;
    for report in reports {
        let stem: String = report
            .spec
            .name
            .chars()
            .map(|c| if c == '/' || c == '\\' { '_' } else { c })
            .collect();
        for (trial, cost) in report.trials.iter().enumerate() {
            let path = dir.join(format!("{stem}-t{trial}.csv"));
            std::fs::write(&path, cost.trace.to_table().to_csv())
                .map_err(|e| CliError::Io(format!("cannot write `{}`: {e}", path.display())))?;
            written += 1;
        }
    }
    println!("wrote {written} trace CSV(s) to {}", dir.display());
    Ok(())
}

/// `geogossip sweep <sweep.json> [--resume] [--report <dir>] [--log <path>]
/// [--max-cells K]`: checkpointed campaign execution through the lab.
fn sweep(args: &[String]) -> Result<(), CliError> {
    let mut sweep_path: Option<String> = None;
    let mut resume = false;
    let mut report_dir: Option<String> = None;
    let mut log_path: Option<String> = None;
    let mut max_cells: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| usage(format!("`{name}` needs a value")))
        };
        match arg.as_str() {
            "--resume" => resume = true,
            "--report" => report_dir = Some(take("--report")?),
            "--log" => log_path = Some(take("--log")?),
            "--max-cells" => {
                max_cells = Some(parse_u64(&take("--max-cells")?, "--max-cells")? as usize)
            }
            other if other.starts_with('-') => {
                return Err(usage(format!("unknown flag `{other}`")))
            }
            other => {
                if sweep_path.replace(other.to_string()).is_some() {
                    return Err(usage("only one sweep file can be given per run"));
                }
            }
        }
    }
    let sweep_path = sweep_path
        .ok_or_else(|| usage("nothing to sweep: pass a sweep file (see `geogossip help`)"))?;
    let spec = SweepSpec::from_file_text(&sweep_path, &read_text(&sweep_path)?)?;
    // Default checkpoint log: next to the sweep file, `<stem>.results.jsonl`.
    let log_path: PathBuf = match log_path {
        Some(path) => PathBuf::from(path),
        None => Path::new(&sweep_path).with_extension("results.jsonl"),
    };
    let total = spec.cell_count();
    println!(
        "sweep `{}`: {} cells, {} trial(s) each, log {}",
        spec.name,
        total,
        spec.trials,
        log_path.display()
    );
    let runner = builtin_runner();
    let options = SweepOptions { resume, max_cells };
    let outcome = run_sweep(
        &runner,
        &spec,
        Some(&log_path),
        &options,
        |progress| match progress {
            SweepProgress::Skipped(record) => {
                println!(
                    "cell {}/{total} `{}`: checkpointed, skipped",
                    record.index + 1,
                    record.name
                );
            }
            SweepProgress::Completed(record, seconds) => {
                let converged = record.trials.iter().filter(|t| t.converged).count();
                let mean_tx: f64 = record
                    .trials
                    .iter()
                    .map(|t| t.transmissions as f64)
                    .sum::<f64>()
                    / record.trials.len().max(1) as f64;
                println!(
                    "cell {}/{total} `{}`: {converged}/{} converged, mean {mean_tx:.0} tx, {seconds:.2}s",
                    record.index + 1,
                    record.name,
                    record.trials.len()
                );
            }
        },
    )?;
    if outcome.recovered_torn_tail {
        println!("note: dropped a torn trailing log line (interrupted append); its cell re-ran");
    }
    if !outcome.complete() {
        println!(
            "stopped early after {} executed cell(s); {} cell(s) remain — re-run with --resume",
            outcome.executed, outcome.remaining
        );
    }

    let mut aggregator = SweepAggregator::new();
    for record in &outcome.records {
        aggregator.push(record);
    }
    let report = SweepReport::new(spec.name.clone(), spec.cell_count(), aggregator.finish());
    println!();
    println!("{}", report.markdown());
    if let Some(dir) = report_dir {
        let written = report.write_dir(Path::new(&dir))?;
        for path in written {
            println!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// `geogossip validate <spec.json>`: parses and validates a scenario spec,
/// scenario bundle, or sweep spec without running anything. The process
/// exits non-zero (via `main`) with the precise schema error on failure.
fn validate(args: &[String]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(usage("usage: geogossip validate <spec.json>"));
    };
    let text = read_text(path)?;
    let doc =
        JsonValue::parse(&text).map_err(|e| ProtocolError::malformed(format!("{path}: {e}")))?;
    if SweepSpec::is_sweep_document(&doc) {
        let spec = SweepSpec::from_json_value(&doc)
            .map_err(|e| ProtocolError::malformed(format!("{path}: {e}")))?;
        println!(
            "ok: sweep `{}` ({} cells, {} trial(s) each)",
            spec.name,
            spec.cell_count(),
            spec.trials
        );
    } else {
        let specs = ScenarioSpec::from_file_text(path, &text)?;
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        println!("ok: {} scenario(s): {}", specs.len(), names.join(", "));
    }
    Ok(())
}

/// `geogossip experiment <E1..E10|all> [--scale smoke|quick|full] [--seed S]`:
/// runs one experiment, or all ten in order, and prints each one's table and
/// summary. Every argument is checked before anything runs.
fn experiment(args: &[String]) -> Result<(), CliError> {
    let mut id: Option<&str> = None;
    let mut scale = Scale::Quick;
    let mut seed = DEFAULT_SEED;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| usage(format!("`{name}` needs a value")))
        };
        match arg.as_str() {
            "--scale" => {
                let text = take("--scale")?;
                scale = Scale::parse(&text).ok_or_else(|| {
                    usage(format!(
                        "unknown scale `{text}` (known: smoke, quick, full)"
                    ))
                })?;
            }
            "--seed" => seed = parse_u64(&take("--seed")?, "--seed")?,
            other if other.starts_with('-') => {
                return Err(usage(format!("unknown flag `{other}`")))
            }
            other => {
                if id.replace(other).is_some() {
                    return Err(usage(format!(
                        "unexpected argument `{other}`: pass one experiment id, \
                         and the scale and seed as `--scale` and `--seed`"
                    )));
                }
            }
        }
    }
    let id = id.ok_or_else(|| {
        usage("usage: geogossip experiment <E1..E10|all> [--scale smoke|quick|full] [--seed S]")
    })?;
    let selected = match id {
        "all" => &EXPERIMENTS[..],
        id => {
            let at = EXPERIMENTS.iter().position(|(known, _)| *known == id);
            let at = at.ok_or_else(|| {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
                usage(format!(
                    "unknown experiment `{id}` (known: {}, all)",
                    ids.join(", ")
                ))
            })?;
            &EXPERIMENTS[at..=at]
        }
    };
    for (_, run) in selected {
        println!("{}", run(scale, seed).render());
    }
    Ok(())
}

/// Scenario assembled from command-line flags instead of a file.
#[derive(Default)]
struct FlagSpec {
    protocol: Option<String>,
    n: Option<usize>,
    epsilon: Option<f64>,
    trials: Option<u64>,
    seed: Option<u64>,
    field: Option<String>,
    radius_constant: Option<f64>,
    torus: bool,
    params: Vec<String>,
}

impl FlagSpec {
    fn into_spec(self) -> Result<ScenarioSpec, CliError> {
        let protocol = self.protocol.ok_or_else(|| {
            usage(
                "flag mode needs `--protocol <name>` (run `geogossip protocols` for the \
                 registry, or see `geogossip help`)",
            )
        })?;
        let n = self.n.unwrap_or(256);
        let mut spec = ScenarioSpec::standard(&protocol, n, self.epsilon.unwrap_or(0.1));
        if let Some(trials) = self.trials {
            spec = spec.with_trials(trials);
        }
        if let Some(seed) = self.seed {
            spec = spec.with_seed(seed);
        }
        if let Some(field) = &self.field {
            spec = spec.with_field(Field::parse(field).ok_or_else(|| {
                usage(format!(
                    "unknown field `{field}` (known: spike, uniform, ramp, bimodal, spatial-gradient)"
                ))
            })?);
        }
        if let Some(c) = self.radius_constant {
            spec.topology = TopologySpec {
                radius: geogossip::sim::scenario::RadiusSpec::ConnectivityConstant(c),
                ..spec.topology
            };
        }
        if self.torus {
            spec.topology.surface = Topology::Torus;
        }
        for param in &self.params {
            let (key, value) = param
                .split_once('=')
                .ok_or_else(|| usage(format!("`--param` expects key=value, got `{param}`")))?;
            spec.protocol = match value.parse::<f64>() {
                Ok(number) => spec.protocol.with_number(key, number),
                Err(_) => spec.protocol.with_text(key, value),
            };
        }
        spec.validate()?;
        Ok(spec)
    }
}

fn parse_u64(text: &str, flag: &str) -> Result<u64, CliError> {
    text.parse()
        .map_err(|_| usage(format!("`{flag}` expects a whole number")))
}

fn parse_f64(text: &str, flag: &str) -> Result<f64, CliError> {
    text.parse()
        .map_err(|_| usage(format!("`{flag}` expects a number")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flag-mode invocations that never name a protocol must produce a CLI
    /// error (non-zero exit through `main`), not a panic — whatever other
    /// flags ride along.
    #[test]
    fn flag_mode_without_protocol_errors_instead_of_panicking() {
        let err = FlagSpec::default()
            .into_spec()
            .expect_err("no protocol given");
        assert!(err.to_string().contains("--protocol"), "got `{err}`");

        let err = FlagSpec {
            n: Some(64),
            epsilon: Some(0.1),
            trials: Some(2),
            ..FlagSpec::default()
        }
        .into_spec()
        .expect_err("flags without --protocol");
        assert!(err.to_string().contains("--protocol"), "got `{err}`");
    }

    /// The printed template must show every optional schema key (`faults`,
    /// `transport`, `transport.reliability`) with example/default values, and
    /// still parse + validate as printed.
    #[test]
    fn template_shows_faults_and_transport_and_round_trips() {
        let text = template_json();
        assert!(text.contains("\"faults\""), "template:\n{text}");
        assert!(text.contains("\"drop-rate\""), "template:\n{text}");
        assert!(text.contains("\"transport\""), "template:\n{text}");
        assert!(text.contains("\"latency\""), "template:\n{text}");
        for key in [
            "reliability",
            "drop",
            "duplicate",
            "retry",
            "timeout",
            "backoff",
            "max-retries",
        ] {
            assert!(text.contains(&format!("\"{key}\"")), "template:\n{text}");
        }
        let spec = ScenarioSpec::from_json(&text).expect("template must validate as printed");
        // Zero-valued example faults decode to "no faults"; the example
        // transport decodes to the instant message-passing schedule with a
        // lossless wire (the default-valued reliability block is inert).
        assert!(spec.faults.is_none());
        assert_eq!(
            spec.transport,
            Some(geogossip::sim::TransportSpec::default())
        );
    }

    /// The `run` dispatcher itself: flag-ish arguments without `--protocol`
    /// or a spec file surface the usage hint as an error.
    #[test]
    fn run_without_protocol_or_spec_is_a_usage_error() {
        let err = run(&[]).expect_err("nothing to run");
        assert!(err.to_string().contains("--protocol"), "got `{err}`");
        let err = run(&["--n".to_string(), "64".to_string()]).expect_err("no protocol");
        assert!(err.to_string().contains("--protocol"), "got `{err}`");
    }

    /// `--telemetry` into an existing non-empty directory is a usage error
    /// (telemetry captures are never silently overwritten), surfaced before
    /// any scenario runs.
    #[test]
    fn telemetry_into_nonempty_directory_is_a_usage_error() {
        let dir = std::env::temp_dir().join("geogossip-cli-telemetry-nonempty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("previous.jsonl"), "{}\n").unwrap();
        let err = run(&[
            "scenarios/smoke.json".to_string(),
            "--telemetry".to_string(),
            dir.display().to_string(),
        ])
        .expect_err("non-empty telemetry dir must be rejected");
        assert!(err.to_string().contains("not empty"), "got `{err}`");
        // The prior capture is untouched.
        assert_eq!(
            std::fs::read_to_string(dir.join("previous.jsonl")).unwrap(),
            "{}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `timing:` line is sourced from the phase timers: each phase shows
    /// once, the total is their sum, and ticks/s divides by the engine phase
    /// alone (the old line mixed whole-trial seconds with an overlapping
    /// engine-seconds denominator, double-covering engine time for transport
    /// specs).
    #[test]
    fn timing_line_reports_each_phase_exactly_once() {
        use geogossip::sim::metrics::{ConvergenceTrace, TransmissionCounter};
        use geogossip::sim::scenario::TrialCost;
        let spec = ScenarioSpec::standard("pairwise", 64, 0.1).with_trials(1);
        let trial = TrialCost {
            converged: true,
            transmissions: TransmissionCounter::new(),
            rounds: 500,
            ticks: 500,
            final_error: 0.05,
            metrics: Vec::new(),
            trace: ConvergenceTrace::new(),
            seconds: 0.85,
            engine_seconds: 0.25,
            phases: vec![
                ("graph", 0.5),
                ("field", 0.05),
                ("build", 0.05),
                ("engine", 0.25),
            ],
        };
        let report = ScenarioReport::new(spec, "pairwise".into(), vec![trial]);
        let line = timing_line(&report);
        assert_eq!(
            line,
            "timing: `pairwise-n64` graph 0.50s + field 0.05s + build 0.05s + engine 0.25s \
             = 0.85s over 1 parallel trial, 500 ticks, 2000 ticks/s per trial, \
             1 engine thread"
        );
    }

    /// The error `geogossip experiment <args>` stops with. Every case below
    /// fails while the arguments are read, before any experiment runs.
    fn experiment_error(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        experiment(&args)
            .expect_err("arguments must be rejected")
            .to_string()
    }

    /// An experiment id outside E1..E10 and `all` is a usage error.
    #[test]
    fn experiment_rejects_an_unknown_id() {
        let err = experiment_error(&["E11", "--scale", "smoke"]);
        assert!(err.contains("unknown experiment `E11`"), "{err}");
    }

    /// A misspelt scale is an error, not a silent run at another scale.
    #[test]
    fn experiment_rejects_an_unknown_scale() {
        let err = experiment_error(&["all", "--scale", "smok"]);
        assert!(err.contains("unknown scale `smok`"), "{err}");
    }

    /// A seed that is not a whole number is an error, not the default seed.
    #[test]
    fn experiment_rejects_a_malformed_seed() {
        let err = experiment_error(&["all", "--scale", "smoke", "--seed", "12x"]);
        assert!(err.contains("`--seed` expects a whole number"), "{err}");
    }

    /// Arguments beyond one id and the two flags are errors, including the
    /// positional scale of the old per-experiment binaries.
    #[test]
    fn experiment_rejects_stray_arguments() {
        let err = experiment_error(&["E4", "smoke"]);
        assert!(err.contains("unexpected argument `smoke`"), "{err}");
        let err = experiment_error(&["E4", "--threads", "2"]);
        assert!(err.contains("unknown flag `--threads`"), "{err}");
        let err = experiment_error(&[]);
        assert!(err.contains("usage"), "{err}");
    }

    /// Both help surfaces advertise the telemetry capture flag.
    #[test]
    fn help_text_mentions_telemetry() {
        assert!(TEMPLATE_HINT.contains("--telemetry"));
        assert!(TEMPLATE_HINT.contains("event log"));
    }
}
