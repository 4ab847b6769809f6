//! The `geogossip` binary words each failure as what it is: a bad command
//! line or an unreadable file is not reported as a malformed scenario spec,
//! and a spec the scenario layer rejects still is. Every failure exits 1.

use std::process::Command;

/// Runs the binary and returns its exit code and stderr.
fn geogossip(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_geogossip"))
        .args(args)
        .output()
        .expect("the geogossip binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn usage_and_io_errors_are_not_spec_errors() {
    for (args, message) in [
        (&["frobnicate"][..], "unknown command `frobnicate`"),
        (
            &["run", "--threads", "x"][..],
            "`--threads` expects a whole number",
        ),
        (
            &["run", "/nonexistent/spec.json"][..],
            "cannot read `/nonexistent/spec.json`",
        ),
    ] {
        let (code, stderr) = geogossip(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("scenario spec"), "{args:?}: {stderr}");
    }

    let spec = std::env::temp_dir().join("geogossip-cli-errors-bad-spec.json");
    std::fs::write(&spec, "{\"no-such-key\": 1}").unwrap();
    let (code, stderr) = geogossip(&["validate", spec.to_str().unwrap()]);
    let _ = std::fs::remove_file(&spec);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: malformed scenario spec: "),
        "{stderr}"
    );
}

/// A fresh scratch path under the system temp directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("geogossip-cli-errors-{name}"))
}

#[test]
fn a_rejected_sweep_names_its_file_and_kind_once() {
    let sweep = scratch("bad-sweep.json");
    let path = sweep.to_str().unwrap();
    std::fs::write(&sweep, "{\"sweep\": \"x\", \"bogus\": 1}").unwrap();
    for command in ["validate", "sweep"] {
        let (code, stderr) = geogossip(&[command, path]);
        assert_eq!(code, Some(1), "{command}: {stderr}");
        assert_eq!(
            stderr,
            format!(
                "error: malformed scenario spec: {path}: unknown sweep key `bogus` \
                 (known: sweep, axes, field, stop, parallelism, trials, seed)\n"
            ),
            "{command}"
        );
    }
    // A rejection keeps its kind: zero trials is an invalid parameter, not
    // a malformed document.
    let text = std::fs::read_to_string("scenarios/sweeps/smoke_sweep.json").unwrap();
    std::fs::write(&sweep, text.replace("\"trials\": 2", "\"trials\": 0")).unwrap();
    for command in ["validate", "sweep"] {
        let (code, stderr) = geogossip(&[command, path]);
        assert_eq!(code, Some(1), "{command}: {stderr}");
        assert_eq!(
            stderr,
            format!("error: invalid parameter `trials`: {path}: need at least one trial\n"),
            "{command}"
        );
    }
    // So does a cell's: a one-sensor cell names the file, then the cell.
    std::fs::write(&sweep, text.replace("\"n\": [64, 128]", "\"n\": [1]")).unwrap();
    for command in ["validate", "sweep"] {
        let (code, stderr) = geogossip(&[command, path]);
        assert_eq!(code, Some(1), "{command}: {stderr}");
        let prefix = format!("error: invalid parameter `topology.n`: {path}: cell 0 (`");
        assert!(stderr.starts_with(&prefix), "{command}: {stderr}");
        assert!(
            stderr.ends_with("`): need at least two sensors, got 1\n"),
            "{command}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&sweep);
}

/// A path whose parent is a regular file, so nothing can be read, created or
/// written at it.
fn path_under_a_file(name: &str) -> (std::path::PathBuf, String) {
    let file = scratch(name);
    std::fs::write(&file, "not a directory").unwrap();
    let under = file.join("inside").to_str().unwrap().to_string();
    (file, under)
}

#[test]
fn an_unreadable_results_log_is_an_io_error() {
    let (file, log) = path_under_a_file("log-parent");
    let (code, stderr) = geogossip(&["sweep", "scenarios/sweeps/smoke_sweep.json", "--log", &log]);
    let _ = std::fs::remove_file(&file);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("error: cannot read results log `{log}`: ")),
        "{stderr}"
    );
    assert!(!stderr.contains("scenario spec"), "{stderr}");
}

#[test]
fn an_unwritable_report_directory_is_an_io_error() {
    let (file, report) = path_under_a_file("report-parent");
    let log = scratch("report-log.jsonl");
    let _ = std::fs::remove_file(&log);
    let (code, stderr) = geogossip(&[
        "sweep",
        "scenarios/sweeps/smoke_sweep.json",
        "--log",
        log.to_str().unwrap(),
        "--max-cells",
        "0",
        "--report",
        &report,
    ]);
    let _ = std::fs::remove_file(&file);
    let _ = std::fs::remove_file(&log);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("error: cannot create `{report}`: ")),
        "{stderr}"
    );
    assert!(!stderr.contains("scenario spec"), "{stderr}");
}

#[test]
fn validate_rejects_a_transport_the_protocol_cannot_run_on() {
    let spec = scratch("affine-transport.json");
    std::fs::write(
        &spec,
        r#"{
          "name": "affine-over-the-wire",
          "topology": {"n": 64, "placement": "uniform-square", "radius": {"connectivity-constant": 1.5}, "surface": "unit-square"},
          "field": "spatial-gradient",
          "protocol": {"name": "affine-idealized", "params": {}},
          "stop": {"epsilon": 0.1},
          "trials": 1,
          "seed": 7,
          "transport": {"latency": "instant"}
        }"#,
    )
    .unwrap();
    let path = spec.to_str().unwrap();
    let (validate_code, validate_err) = geogossip(&["validate", path]);
    let (run_code, run_err) = geogossip(&["run", path]);
    let _ = std::fs::remove_file(&spec);
    assert_eq!(run_code, Some(1), "{run_err}");
    assert_eq!(
        run_err,
        "error: invalid parameter `transport`: protocol `affine-idealized` has no \
         message-passing implementation (available: pairwise, geographic)\n"
    );
    assert_eq!(validate_code, Some(1), "{validate_err}");
    assert_eq!(validate_err, run_err);
}

/// A scenario spec on the standard 64-node instance running `protocol`.
fn spec_with_protocol(protocol: &str) -> String {
    format!(
        r#"{{
          "name": "bad-params",
          "topology": {{"n": 64, "placement": "uniform-square", "radius": {{"connectivity-constant": 1.5}}, "surface": "unit-square"}},
          "field": "spatial-gradient",
          "protocol": {protocol},
          "stop": {{"epsilon": 0.1}},
          "trials": 1,
          "seed": 7
        }}"#
    )
}

#[test]
fn validate_rejects_the_params_run_rejects() {
    let spec = scratch("bad-params.json");
    let path = spec.to_str().unwrap();
    for (protocol, message) in [
        (
            r#"{"name": "pairwise", "params": {"bogus": 1}}"#,
            "error: invalid parameter `bogus`: unknown parameter for protocol `pairwise` \
             (known: none)\n",
        ),
        (
            r#"{"name": "geographic", "params": {"selector": "rejection-sampled", "probes": 0}}"#,
            "error: invalid parameter `probes`: must be a whole number of at least 1, got 0\n",
        ),
        (
            r#"{"name": "geographic", "params": {"selector": "rejection-sampled", "probes": 1e13}}"#,
            "error: invalid parameter `probes`: must be at most 10000000, got 10000000000000\n",
        ),
        // Value ranges the protocol constructors enforce.
        (
            r#"{"name": "perturbed-affine-complete", "params": {"magnitude": -1}}"#,
            "error: invalid parameter `magnitude`: perturbation bound must be non-negative \
             and finite\n",
        ),
        // Settings that are constants, not params: their keys are unknown.
        (
            r#"{"name": "affine-complete", "params": {"alpha": 5.0}}"#,
            "error: invalid parameter `alpha`: unknown parameter for protocol \
             `affine-complete` (known: none)\n",
        ),
        (
            r#"{"name": "affine-recursive", "params": {"epsilon-decay": 2}}"#,
            "error: invalid parameter `epsilon-decay`: unknown parameter for protocol \
             `affine-recursive` (known: coefficient-fraction, coefficient-fixed, \
             max-top-rounds)\n",
        ),
        (
            r#"{"name": "affine-idealized", "params": {"rounds-factor": -1}}"#,
            "error: invalid parameter `rounds-factor`: unknown parameter for protocol \
             `affine-idealized` (known: coefficient-fraction, coefficient-fixed, \
             max-top-rounds)\n",
        ),
        (
            r#"{"name": "affine-recursive", "params": {"max-exchanges-factor": -1}}"#,
            "error: invalid parameter `max-exchanges-factor`: unknown parameter for protocol \
             `affine-recursive` (known: coefficient-fraction, coefficient-fixed, \
             max-top-rounds)\n",
        ),
        // Ranges that only the params check enforces, each shared with the
        // constructor.
        (
            r#"{"name": "affine-recursive", "params": {"max-top-rounds": -5}}"#,
            "error: invalid parameter `max-top-rounds`: must be a whole number of at least 1, \
             got -5\n",
        ),
        (
            r#"{"name": "affine-idealized", "params": {"coefficient-fraction": -1}}"#,
            "error: invalid parameter `coefficient-fraction`: must be strictly positive\n",
        ),
        (
            r#"{"name": "geographic", "params": {"selector": "rejection-sampled", "cap": -1}}"#,
            "error: invalid parameter `cap`: must be a whole number of at least 1, got -1\n",
        ),
        (
            r#"{"name": "affine-idealized", "params": {"coefficient-fixed": 1e999}}"#,
            "error: invalid parameter `coefficient-fixed`: must be strictly positive\n",
        ),
        (
            r#"{"name": "affine-idealized", "params": {"coefficient-fixed": -1}}"#,
            "error: invalid parameter `coefficient-fixed`: must be strictly positive\n",
        ),
        (
            r#"{"name": "affine-idealized", "params": {"coefficient-fixed": 0}}"#,
            "error: invalid parameter `coefficient-fixed`: must be strictly positive\n",
        ),
    ] {
        std::fs::write(&spec, spec_with_protocol(protocol)).unwrap();
        let (validate_code, validate_err) = geogossip(&["validate", path]);
        let (run_code, run_err) = geogossip(&["run", path]);
        assert_eq!(run_code, Some(1), "{run_err}");
        assert_eq!(run_err, message);
        assert_eq!(validate_code, Some(1), "{protocol}: {validate_err}");
        assert_eq!(validate_err, run_err);
    }
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn a_sweep_with_bad_params_stops_before_its_first_cell() {
    let sweep = scratch("bad-params-sweep.json");
    let log = scratch("bad-params-sweep.jsonl");
    let _ = std::fs::remove_file(&log);
    let text = std::fs::read_to_string("scenarios/sweeps/smoke_sweep.json").unwrap();
    std::fs::write(
        &sweep,
        text.replace(
            r#"{"name": "geographic", "params": {}}"#,
            r#"{"name": "pairwise", "params": {"bogus": 1}}"#,
        ),
    )
    .unwrap();
    let (code, stderr) = geogossip(&[
        "sweep",
        sweep.to_str().unwrap(),
        "--log",
        log.to_str().unwrap(),
    ]);
    let logged = std::fs::read_to_string(&log).unwrap_or_default();
    let _ = std::fs::remove_file(&sweep);
    let _ = std::fs::remove_file(&log);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown parameter for protocol `pairwise`"),
        "{stderr}"
    );
    assert_eq!(logged, "", "a cell ran before the sweep was refused");
}

#[test]
fn validate_and_run_refuse_an_unknown_nested_key_alike() {
    let spec = scratch("nested-typo.json");
    let path = spec.to_str().unwrap();
    let scenario = spec_with_protocol(r#"{"name": "pairwise", "params": {}}"#)
        .replace(r#""epsilon": 0.1"#, r#""epsilon": 0.1, "max-tick": 1000"#);
    std::fs::write(&spec, scenario).unwrap();
    let (validate_code, validate_err) = geogossip(&["validate", path]);
    let (run_code, run_err) = geogossip(&["run", path]);
    assert_eq!(run_code, Some(1), "{run_err}");
    assert_eq!(
        run_err,
        "error: malformed scenario spec: unknown stop key `max-tick` \
         (known: epsilon, max-ticks, max-transmissions)\n"
    );
    assert_eq!(validate_code, Some(1), "{validate_err}");
    assert_eq!(validate_err, run_err);

    // A sweep's protocol entry, through `validate` and `sweep`.
    let text = std::fs::read_to_string("scenarios/sweeps/smoke_sweep.json").unwrap();
    std::fs::write(
        &spec,
        text.replace(
            r#"{"name": "geographic", "params": {}}"#,
            r#"{"name": "geographic", "parms": {"bogus": 1}}"#,
        ),
    )
    .unwrap();
    let (validate_code, validate_err) = geogossip(&["validate", path]);
    let (sweep_code, sweep_err) = geogossip(&["sweep", path]);
    let _ = std::fs::remove_file(&spec);
    assert_eq!(sweep_code, Some(1), "{sweep_err}");
    assert_eq!(
        sweep_err,
        format!(
            "error: malformed scenario spec: {path}: unknown axes.protocol[1] key `parms` \
             (known: name, params)\n"
        )
    );
    assert_eq!(validate_code, Some(1), "{validate_err}");
    assert_eq!(validate_err, sweep_err);
}

/// `--help` and `-h` after a command print the usage and exit 0, instead of
/// reading as an unknown flag or as a spec file's name.
#[test]
fn every_command_prints_the_usage_on_help() {
    for command in ["run", "sweep", "validate", "experiment"] {
        for flag in ["--help", "-h"] {
            let out = Command::new(env!("CARGO_BIN_EXE_geogossip"))
                .args([command, flag])
                .output()
                .expect("the geogossip binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{command} {flag}: {stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("USAGE:"), "{command} {flag}: {stdout}");
        }
    }
}

/// A tick batch above 2^20 is refused by `validate` and `run` alike, before
/// the engine allocates its plan buffer.
#[test]
fn validate_and_run_refuse_an_oversized_tick_batch() {
    let spec = scratch("oversized-batch.json");
    let path = spec.to_str().unwrap();
    let scenario = spec_with_protocol(r#"{"name": "pairwise", "params": {}}"#).replace(
        r#""seed": 7"#,
        r#""seed": 7, "parallelism": {"threads": 1, "batch": 1048577}"#,
    );
    std::fs::write(&spec, scenario).unwrap();
    let (validate_code, validate_err) = geogossip(&["validate", path]);
    assert_eq!(validate_code, Some(1), "{validate_err}");
    let (run_code, run_err) = geogossip(&["run", path]);
    let _ = std::fs::remove_file(&spec);
    assert_eq!(run_code, Some(1), "{run_err}");
    assert_eq!(
        run_err,
        "error: invalid parameter `parallelism.batch`: tick batch size must be at most \
         1048576, got 1048577\n"
    );
    assert_eq!(validate_err, run_err);
}

/// A retry budget above 64 is refused by `validate` and `run` alike. With no
/// bound, a spec whose wire drops nearly every message and retries at once
/// kept retrying one message inside a single drain, where no budget is
/// checked, and `run` never ended.
#[test]
fn validate_and_run_refuse_an_oversized_retry_budget() {
    let spec = scratch("oversized-retries.json");
    let path = spec.to_str().unwrap();
    let scenario = spec_with_protocol(r#"{"name": "pairwise", "params": {}}"#).replace(
        r#""seed": 7"#,
        r#""seed": 7, "transport": {"latency": "instant",
           "reliability": {"drop": 0.5, "retry": {"max-retries": 65}}}"#,
    );
    std::fs::write(&spec, scenario).unwrap();
    let (validate_code, validate_err) = geogossip(&["validate", path]);
    assert_eq!(validate_code, Some(1), "{validate_err}");
    let (run_code, run_err) = geogossip(&["run", path]);
    let _ = std::fs::remove_file(&spec);
    assert_eq!(run_code, Some(1), "{run_err}");
    assert_eq!(
        run_err,
        "error: invalid parameter `transport.reliability.retry.max-retries`: must be at \
         most 64, got 65\n"
    );
    assert_eq!(validate_err, run_err);
}
