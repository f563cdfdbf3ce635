//! Command-line error handling of the `mosaic-bench` binary.

use std::process::Command;

#[test]
fn unknown_flag_exits_2_with_a_message() {
    let out = Command::new(env!("CARGO_BIN_EXE_mosaic-bench"))
        .arg("--bogus")
        .output()
        .expect("mosaic-bench runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --bogus"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn malformed_flag_values_exit_2() {
    for args in [&["--samples", "0"][..], &["--samples"], &["--out"], &["--check"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_mosaic-bench"))
            .args(args)
            .output()
            .expect("mosaic-bench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
