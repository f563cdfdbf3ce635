//! Command-line error handling of the `reproduce` binary: flags are
//! checked before any simulation runs.

use std::process::Command;

fn reproduce(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .env("MOSAIC_SCOPE", "smoke")
        .output()
        .expect("reproduce runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
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
