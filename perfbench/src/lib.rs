//! The geogossip benchmark: three second-scale workloads driven through the
//! layers' public entry points, an untraced pass for the end-to-end metrics
//! and a separate traced pass for the per-layer metrics.
//!
//! Run it as `cargo run --release -- --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! README.md lists the workloads, the metrics and why each exists.

#![forbid(unsafe_code)]

pub mod bench;
pub mod driver;
pub mod host;
pub mod replay;
pub mod trace;
pub mod workloads;

use geogossip_analysis::json::JsonValue;

/// The median of `values` (the upper one for an even count); 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// End-to-end metrics with their units, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("engine_s", "s"),
    ("tx_per_s", "1/s"),
    ("transmissions", "count"),
    ("peak_rss_mb", "MiB"),
];

/// The unit of metric `name`, derived from its suffix.
pub fn unit_of(name: &str) -> &'static str {
    if let Some((_, unit)) = END_TO_END.iter().find(|(n, _)| *n == name) {
        return unit;
    }
    if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_s") {
        "s"
    } else if name.contains("ns") {
        "ns"
    } else if name.ends_with("bytes") {
        "B"
    } else if name.ends_with("ratio") || name.ends_with("speedup_vs_seq") {
        "ratio"
    } else {
        "count"
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its value and unit.
pub fn result_line(outcome: &bench::Outcome) -> String {
    let metrics = JsonValue::Object(
        outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    JsonValue::object(vec![
                        ("value", JsonValue::Number(m.value)),
                        ("unit", JsonValue::string(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    JsonValue::object(vec![
        ("correct", JsonValue::Bool(outcome.correct())),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", metrics),
    ])
    .render()
}
