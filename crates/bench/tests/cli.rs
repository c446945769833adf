//! CLI-level checks of the `experiments` and `bench_gate` binaries:
//! stdout stays machine-readable (progress is stderr-only), and the
//! record → check baseline round trip gates correctly in both
//! directions, for compile cells and for compile-service cells.

use std::process::Command;

use serde::Value;

#[test]
fn experiments_json_stdout_is_pure_json_with_progress_on_stderr() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "--bench", "RD53", "--policy", "square", "--arch", "nisq", "--json",
        ])
        .output()
        .expect("experiments runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    // The whole of stdout must be one JSON document — the property
    // that makes `experiments --json | jq .` work.
    let matrix = serde_json::from_str(stdout.trim()).expect("stdout parses as JSON");
    let cells = matrix
        .get("cells")
        .and_then(Value::as_seq)
        .expect("matrix has cells");
    assert_eq!(cells.len(), 1);
    assert!(cells[0].get("report").unwrap().get("aqv").is_some());
    // Progress landed on stderr, not stdout.
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("[1/1]") && stderr.contains("RD53"),
        "expected progress on stderr, got: {stderr}"
    );
}

/// Rewrites the first `"gates": N` of the first baseline cell.
fn corrupt_first_gates(json: &str) -> String {
    let needle = "\"gates\": ";
    let at = json.find(needle).expect("baseline has a gates field") + needle.len();
    let end = json[at..]
        .find(|c: char| !c.is_ascii_digit())
        .map(|i| at + i)
        .expect("number terminated");
    format!("{}{}{}", &json[..at], "999999999", &json[end..])
}

/// Runs `bench_gate` with `args` followed by `path`.
fn bench_gate(args: &[&str], path: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(args)
        .arg(path)
        .output()
        .expect("bench_gate runs")
}

/// Records a baseline of `set`, checks it against the same compiler,
/// then corrupts a fingerprint and checks again.
fn round_trip(set: &str) {
    let dir = std::env::temp_dir().join(format!("square_bench_gate_{set}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let baseline = dir.join("baseline.json");
    let record = bench_gate(
        &["record", "--set", set, "--samples", "1", "--out"],
        &baseline,
    );
    assert!(record.status.success(), "{record:?}");

    // Checking a freshly recorded baseline against the same compiler
    // must pass: fingerprints are deterministic, and the huge
    // tolerance absorbs timing noise.
    let check_args = [
        "check",
        "--set",
        set,
        "--samples",
        "1",
        "--tolerance",
        "100",
        "--baseline",
    ];
    let check = bench_gate(&check_args, &baseline);
    assert!(
        check.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&check.stderr)
    );

    // A drifted circuit fingerprint must fail even with that
    // tolerance.
    let text = std::fs::read_to_string(&baseline).expect("baseline readable");
    std::fs::write(&baseline, corrupt_first_gates(&text)).expect("baseline writable");
    let drift = bench_gate(&check_args, &baseline);
    assert_eq!(drift.status.code(), Some(1), "{drift:?}");
    assert!(
        String::from_utf8_lossy(&drift.stderr).contains("FINGERPRINT DRIFT"),
        "stderr: {}",
        String::from_utf8_lossy(&drift.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_gate_round_trip_passes_then_fails_on_fingerprint_drift() {
    round_trip("smoke");
}

#[test]
fn bench_gate_service_round_trip_passes_then_fails_on_fingerprint_drift() {
    round_trip("service");
}
