//! `mosaic-trace` error handling: bad arguments exit 2 with usage; an
//! unreadable or malformed trace exits 1, naming the file and line.

use std::process::{Command, Stdio};

fn mosaic_trace(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mosaic-trace")).args(args).output().expect("runs");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [&[][..], &["bogus"], &["validate"], &["chrome", "a.jsonl", "--out", "b.json"]] {
        let (code, stderr) = mosaic_trace(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:\n  mosaic-trace validate"), "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_or_unreadable_trace_exits_1() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let (bad, missing) = (format!("{dir}/cli-malformed.jsonl"), format!("{dir}/cli-missing.jsonl"));
    std::fs::write(&bad, "{\"cycle\":1}\n").expect("scratch trace");
    // A line that parses but lacks keys fails both commands alike.
    let short = format!("{dir}/cli-short.jsonl");
    std::fs::write(&short, "\n{\"type\":\"epoch\",\"cycle\":1}\n").expect("scratch trace");
    let keys = "line 2: \"epoch\" keys [\"cycle\"] do not match schema \
                [\"cycle\", \"instructions\", \"stall_cycles\"]";
    let out = format!("{dir}/cli-out.json");
    for (args, error) in [
        (vec!["validate", &bad], format!("{bad}: line 1: first key must be \"type\"")),
        (vec!["chrome", &bad, "-o", &out], format!("{bad}: line 1: first key must be \"type\"")),
        (vec!["validate", &short], format!("{short}: {keys}")),
        (vec!["chrome", &short, "-o", &out], format!("{short}: {keys}")),
        (vec!["validate", &missing], format!("cannot read {missing}")),
        (vec!["chrome", &missing, "-o", &out], format!("cannot read {missing}")),
    ] {
        let (code, stderr) = mosaic_trace(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("mosaic-trace: {error}")), "{args:?}: {stderr}");
    }
    assert!(!std::path::Path::new(&out).exists(), "a failed conversion writes nothing");
}

/// `--help` exits 2 with stderr closed: the usage text that cannot be
/// written is dropped instead of panicking (status 101).
#[test]
fn help_exits_2_with_stderr_closed() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mosaic-trace"))
        .arg("--help")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("runs");
    drop(child.stderr.take());
    assert_eq!(child.wait().expect("exits").code(), Some(2));
}
