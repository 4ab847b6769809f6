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
