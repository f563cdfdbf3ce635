//! Command-line error handling of the `mosaic-sim` binary: bad flags,
//! manager tokens and application names exit with status 2 before any
//! simulation runs, and a closed output pipe does not change the status.

use std::process::{Command, Stdio};

fn mosaic_sim(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mosaic-sim")).args(args).output().expect("runs");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn unknown_application_exits_2_before_simulating() {
    let (code, stdout, stderr) = mosaic_sim(&["NOPE"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown application NOPE"), "{stderr}");
    assert!(stdout.is_empty(), "nothing runs: {stdout}");
}

#[test]
fn unknown_manager_and_flag_exit_2() {
    for args in [
        &["--manager", "ideal", "HS"][..],
        &["--bogus", "HS"],
        &["--seed", "x", "HS"],
        // `--frag` takes index,occupancy with both in [0, 1].
        &["--frag", "7,0.5", "HS"],
        &["--frag", "nan,0.5", "HS"],
        &["--frag", "0.5,inf", "HS"],
        &["--frag", "0.5", "HS"],
    ] {
        let (code, stdout, stderr) = mosaic_sim(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: mosaic-sim"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: nothing runs");
    }
}

/// `--help` exits 2 with stderr closed, and `--list` exits 0 with stdout
/// closed: the text that cannot be written is dropped instead of
/// panicking (status 101).
#[test]
fn closed_pipes_keep_the_exit_status() {
    for (args, close_stdout, code) in [(["--help"], false, 2), (["--list"], true, 0)] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mosaic-sim"))
            .args(args)
            .stdout(if close_stdout { Stdio::piped() } else { Stdio::null() })
            .stderr(if close_stdout { Stdio::null() } else { Stdio::piped() })
            .spawn()
            .expect("runs");
        drop(child.stdout.take());
        drop(child.stderr.take());
        assert_eq!(child.wait().expect("exits").code(), Some(code), "{args:?}");
    }
}
