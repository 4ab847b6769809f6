//! Self-test at tiny n: every metric `BENCHMARK.json` names is printed with
//! its unit, traced reports equal untraced ones, and a spec whose budget is
//! too small counts as a failed operation.

use geogossip_analysis::json::JsonValue;
use geogossip_perfbench::bench::{self, Options};
use geogossip_perfbench::driver::{run_pass, same_report, Layers};
use geogossip_perfbench::trace::Tracer;
use geogossip_perfbench::workloads::{Scale, Workload, DEFAULT_SEED};
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in the `key` list of `BENCHMARK.json`.
fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the binary at smoke scale and parses its last line.
fn run_smoke(workload: &str, trace: &str) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_geogossip-perfbench"))
        .args(["--smoke", "--workload", workload, "--seed", "7"])
        .args(["--seconds", "0.2", "--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).expect("the last line is JSON")
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names, "BENCHMARK.json lists the workloads");
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run_smoke(workload, trace);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let printed = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .unwrap();
            let expected = declared(&doc, key);
            let got: Vec<(String, String)> = printed
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(JsonValue::as_str).unwrap();
                    assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, expected, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn traced_reports_equal_untraced_reports() {
    let layers = Layers::new();
    for workload in Workload::ALL {
        let spec = workload.spec(DEFAULT_SEED, Scale::Smoke);
        let plain = run_pass(&layers, &spec, None);
        let mut tracer = Tracer::new(100.0);
        let traced = run_pass(&layers, &spec, Some(&mut tracer));
        assert_eq!(plain.trials.len(), traced.trials.len());
        for (a, b) in plain.ok_trials().zip(traced.ok_trials()) {
            assert!(same_report(&a.cost, &b.cost), "{}", workload.name());
        }
        assert!(
            !tracer.spans.is_empty(),
            "{} records spans",
            workload.name()
        );
    }
}

#[test]
fn a_too_small_budget_is_a_failed_operation() {
    let options = Options {
        workload: Workload::GeoTorus,
        seed: DEFAULT_SEED,
        seconds: 0.1,
        trace: false,
        scale: Scale::Smoke,
    };
    let mut spec = options.workload.spec(options.seed, options.scale);
    spec.stop.max_ticks = Some(10);
    let outcome = bench::run_spec(&options, &spec);
    assert!(!outcome.correct());
    assert!(outcome.failed >= 1);
    assert!(outcome.problems.iter().any(|p| p.contains("not converged")));
}
