//! Command-line error handling of the `reproduce` binary: flags,
//! experiment names and the `MOSAIC_*` environment are checked before any
//! simulation runs.

use std::process::Command;

/// Runs `reproduce` at smoke scope with `env` set on top; returns the exit
/// code and stderr.
fn reproduce_with(env: &[(&str, &str)], args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .env("MOSAIC_SCOPE", "smoke")
        .envs(env.iter().copied())
        .output()
        .expect("reproduce runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn reproduce(args: &[&str]) -> (Option<i32>, String) {
    reproduce_with(&[], args)
}

#[test]
fn unknown_flags_exit_2_before_running_anything() {
    for flag in ["--sim-threads", "--bogus", "-x"] {
        let (code, stderr) = reproduce(&[flag, "2", "fig08"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{flag}: {stderr}");
        assert!(!stderr.contains("fig08 done"), "{flag}: nothing runs");
    }
}

#[test]
fn unknown_experiment_exits_2() {
    let (code, stderr) = reproduce(&["fig99"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment fig99"), "{stderr}");
}

#[test]
fn unknown_experiment_after_a_known_one_exits_2_before_running_anything() {
    let (code, stderr) = reproduce(&["fig08", "fig99"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment fig99"), "{stderr}");
    assert!(!stderr.contains("fig08 done"), "nothing runs: {stderr}");
}

#[test]
fn unwritable_output_paths_exit_1_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("mosaic-no-such-dir-{}", std::process::id()));
    let path = dir.join("out").display().to_string();
    for (code, stderr) in [
        reproduce_with(&[("MOSAIC_JSON", &path)], &["fig06"]),
        reproduce(&["--trace", &path, "fig06"]),
    ] {
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains(&format!("cannot write {path}: ")), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn misspelled_scope_exits_2_before_running_anything() {
    let (code, stderr) = reproduce_with(&[("MOSAIC_SCOPE", "smok")], &["fig08"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("MOSAIC_SCOPE=\"smok\""), "{stderr}");
    assert!(!stderr.contains("fig08 done"), "nothing runs: {stderr}");
}

#[test]
fn malformed_jobs_variable_exits_2_before_running_anything() {
    for value in ["abc", "0"] {
        let (code, stderr) = reproduce_with(&[("MOSAIC_JOBS", value)], &["fig08"]);
        assert_eq!(code, Some(2), "{value}: {stderr}");
        assert!(stderr.contains("MOSAIC_JOBS expects a positive integer"), "{value}: {stderr}");
        assert!(!stderr.contains("fig08 done"), "{value}: nothing runs");
    }
}
