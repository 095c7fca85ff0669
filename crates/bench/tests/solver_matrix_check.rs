//! Exit-code contract of `solver_matrix --check`:
//!
//! * `0` — matrix matches the baseline;
//! * `1` — matrix drifted (regressions/improvements listed on stderr);
//! * `2` — the baseline itself is unusable (missing, truncated, malformed),
//!   reported *before* the matrix is recomputed and never as a panic.
//!
//! The smoke matrix is also gated against the checked-in
//! `BENCH_solver.baseline.json` here, so every counter of every row —
//! the five zone-memory counters included — is pinned by the test suite
//! and not only by CI.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn solver_matrix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_solver_matrix"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("solver_matrix runs")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn missing_baseline_is_exit_2_with_hint() {
    let out = solver_matrix(&["--smoke", "--check", "does_not_exist.baseline.json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read baseline"), "{stderr}");
    assert!(stderr.contains("hint:"), "{stderr}");
}

#[test]
fn truncated_baseline_is_exit_2_not_a_panic() {
    let path = tmp("truncated.baseline.json");
    std::fs::write(
        &path,
        "[\n  {\"model\": \"coffee_machine\", \"purpose\": \"cof",
    )
    .unwrap();
    let out = solver_matrix(&["--smoke", "--check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed baseline"), "{stderr}");
    // Fail-fast: the matrix must not have been computed first.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("wrote"), "{stdout}");
}

#[test]
fn garbage_baseline_is_exit_2() {
    let path = tmp("garbage.baseline.json");
    std::fs::write(&path, "not json at all {{{ \u{fffd}\u{fffd}").unwrap();
    let out = solver_matrix(&["--smoke", "--check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("malformed baseline"),
        "{out:?}"
    );
}

#[test]
fn check_flag_without_value_is_exit_2() {
    let out = solver_matrix(&["--smoke", "--check"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("expects a value"),
        "{out:?}"
    );
}

#[test]
fn self_check_roundtrip_passes_and_tampering_fails() {
    // The smoke matrix must match the checked-in baseline exactly...
    let checked_in = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_solver.baseline.json");
    let base = tmp("self.baseline.json");
    let out = solver_matrix(&[
        "--smoke",
        "--out",
        base.to_str().unwrap(),
        "--check",
        checked_in.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // ... and its own output, read back as a baseline, must fail the gate
    // with exit 1 once a counter is tampered with.
    let text = std::fs::read_to_string(&base).unwrap();
    for (field, tampered_value) in [
        ("\"discrete_states\": ", "\"discrete_states\": 9"),
        ("\"intern_hits\": ", "\"intern_hits\": 9"),
    ] {
        let tampered_text = text.replacen(field, tampered_value, 1);
        assert_ne!(text, tampered_text, "tampering had no effect");
        let tampered = tmp("tampered.baseline.json");
        std::fs::write(&tampered, tampered_text).unwrap();
        let out = solver_matrix(&[
            "--smoke",
            "--out",
            tmp("self.current.json").to_str().unwrap(),
            "--check",
            tampered.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(1), "{field}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("baseline check FAILED"),
            "{out:?}"
        );
    }
}
