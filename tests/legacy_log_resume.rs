//! A results log written before sweep cells carried typed coordinates still
//! loads and resumes. `tests/fixtures/legacy_keys.jsonl` holds five of the
//! six cells of `tests/fixtures/legacy_keys.json`, written when group keys
//! were assembled from the specs' string tokens. Its keys carry every tail
//! kind: a fault segment with stale nodes and churn, `lat=` segments of the
//! fixed and exponential models, and a `rel=` segment.
//!
//! The checks compare coordinates, not trial outcomes, so a later change to
//! the simulation leaves this test standing.

use geogossip::lab::{
    run_sweep, CellCoords, CellRecord, ResultsLog, SweepAggregator, SweepOptions,
};
use geogossip::sim::scenario::SweepSpec;
use std::path::Path;

fn fixture(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The cells' protocols and coordinates, and the verdict claims, of an
/// aggregate: everything in a report the coordinates alone decide.
fn groups(records: &[CellRecord]) -> (Vec<(String, CellCoords)>, Vec<String>) {
    let mut agg = SweepAggregator::new();
    for record in records {
        agg.push(record);
    }
    let aggregate = agg.finish();
    let cells = aggregate
        .cells
        .into_iter()
        .map(|c| (c.protocol, c.coords))
        .collect();
    let claims = aggregate.verdicts.into_iter().map(|v| v.claim).collect();
    (cells, claims)
}

#[test]
fn a_log_written_before_typed_coordinates_resumes() {
    let text = std::fs::read_to_string(fixture("legacy_keys.json")).unwrap();
    let sweep = SweepSpec::from_json(&text).unwrap();
    let cells = sweep.expand();

    let legacy = ResultsLog::load(&fixture("legacy_keys.jsonl")).unwrap();
    assert!(!legacy.dropped_torn_tail);
    assert!(legacy.records.len() < cells.len(), "no cell left to resume");
    for record in &legacy.records {
        let cell = &cells[record.index as usize];
        assert_eq!(record.coords, CellCoords::of(&cell.spec), "{}", record.name);
    }
    let keys: Vec<String> = legacy
        .records
        .iter()
        .map(|r| r.coords.to_string())
        .collect();
    for tail in [
        "stale=0.1+churn=1",
        "/lat=fixed:",
        "/lat=exp:",
        "/rel=drop:",
    ] {
        assert!(
            keys.iter().any(|k| k.contains(tail)),
            "no key carries `{tail}`"
        );
    }

    // Resume a copy: the fixture itself stays as written.
    let log = std::env::temp_dir().join("geogossip-legacy-log-resume.jsonl");
    std::fs::copy(fixture("legacy_keys.jsonl"), &log).unwrap();
    let runner = geogossip::builtin_runner();
    let resume = SweepOptions {
        resume: true,
        max_cells: None,
    };
    let resumed = run_sweep(&runner, &sweep, Some(&log), &resume, |_| {}).unwrap();
    let _ = std::fs::remove_file(&log);
    assert!(resumed.complete());
    assert_eq!(resumed.skipped, legacy.records.len());
    assert_eq!(resumed.records[..legacy.records.len()], legacy.records[..]);

    let fresh = run_sweep(&runner, &sweep, None, &SweepOptions::default(), |_| {}).unwrap();
    let (cells, claims) = groups(&resumed.records);
    assert_eq!((cells, claims.clone()), groups(&fresh.records));
    assert!(!claims.is_empty(), "the fixture forms no ladder");
}
