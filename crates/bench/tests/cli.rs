//! Command-line error handling of the `mosaic-bench` binary.

use std::process::{Command, Stdio};

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

/// `--help` exits 2 with stderr closed: the usage text that cannot be
/// written is dropped instead of panicking (status 101).
#[test]
fn help_exits_2_with_stderr_closed() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mosaic-bench"))
        .arg("--help")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mosaic-bench runs");
    drop(child.stderr.take());
    assert_eq!(child.wait().expect("mosaic-bench exits").code(), Some(2));
}
