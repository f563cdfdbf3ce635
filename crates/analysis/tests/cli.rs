//! `mosaic-audit` error handling: bad arguments exit 2 with usage; a
//! missing root or an unreadable or malformed allowlist exits 2, naming
//! the problem, before any finding is reported.

use std::process::{Command, Stdio};

fn mosaic_audit(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mosaic-audit")).args(args).output().expect("runs");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [&[][..], &["bogus"], &["check", "--bogus"], &["check", "a", "b"], &["graph", "-x"]]
    {
        let (code, stderr) = mosaic_audit(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: mosaic-audit <command>"), "{args:?}: {stderr}");
    }
}

#[test]
fn unusable_root_or_allowlist_exits_2() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let root = |name: &str, allow: &[u8]| {
        let root = format!("{dir}/{name}");
        std::fs::create_dir_all(format!("{root}/crates/analysis")).expect("scratch root");
        std::fs::write(format!("{root}/crates/analysis/allow.list"), allow).expect("allowlist");
        root
    };
    let malformed = root("cli-malformed", b"# header\nno-such-rule some/file.rs why\n");
    let unreadable = root("cli-unreadable", &[0xff, 0xfe, b'\n']);
    let missing = format!("{dir}/cli-missing-root");
    for (args, error) in [
        (["check", &malformed], "allow.list:2: unknown rule `no-such-rule`".to_string()),
        (["check", &unreadable], format!("cannot read {unreadable}/crates/analysis/allow.list")),
        (["check", &missing], format!("{missing} is not a directory")),
        (["graph", &missing], format!("{missing} is not a directory")),
    ] {
        let (code, stderr) = mosaic_audit(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("mosaic-audit: {error}")), "{args:?}: {stderr}");
    }
}

/// Runs `mosaic-audit` with the read end of its stdout (or stderr)
/// closed before it writes, and returns its exit status.
fn status_with_closed(args: &[&str], close_stdout: bool) -> Option<i32> {
    let (stdout, stderr) = if close_stdout {
        (Stdio::piped(), Stdio::null())
    } else {
        (Stdio::null(), Stdio::piped())
    };
    let mut child = Command::new(env!("CARGO_BIN_EXE_mosaic-audit"))
        .args(args)
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .expect("runs");
    drop(child.stdout.take());
    drop(child.stderr.take());
    child.wait().expect("exits").code()
}

/// The exit status, not the text, carries the verdict: a closed output
/// pipe drops the text instead of panicking (status 101).
#[test]
fn closed_pipes_keep_the_exit_status() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let violations = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/violations");
    for (args, code) in [
        (&["check", root][..], 0),
        (&["check", violations], 1),
        (&["check", root, "--format", "json"], 0),
        (&["graph", root], 0),
        (&["graph", root, "--format", "json"], 0),
        (&["rules"], 0),
        (&["explain", "test-only"], 0),
    ] {
        assert_eq!(status_with_closed(args, true), Some(code), "{args:?} with stdout closed");
    }
    for (args, code) in [(&["bogus"][..], 2), (&["explain", "x"], 2)] {
        assert_eq!(status_with_closed(args, false), Some(code), "{args:?} with stderr closed");
    }
}
