//! Command-line error handling of the `mosaic-sim` binary: bad flags,
//! axis values and application names exit with status 2 before any
//! simulation runs, with the message a campaign file gets; so does a run
//! whose every point the campaign skips. A closed output pipe does not
//! change the status, and each point's progress label is its own.

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
    assert!(stderr.contains("unknown application \"NOPE\" in workload \"NOPE\""), "{stderr}");
    assert!(stdout.is_empty(), "nothing runs: {stdout}");
}

#[test]
fn unknown_manager_and_flag_exit_2() {
    for args in [
        &["--manager", "ideal", "HS"][..],
        &["--bogus", "HS"],
        &["--seed", "7", "HS"],
        &["--manager"],
        &["seeds=x", "HS"],
        // `fragmentation` takes index:occupancy with both in [0, 1].
        &["fragmentation=7:0.5", "HS"],
        &["fragmentation=nan:0.5", "HS"],
        &["fragmentation=0.5:inf", "HS"],
        &["fragmentation=0.5", "HS"],
    ] {
        let (code, stdout, stderr) = mosaic_sim(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: mosaic-sim"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: nothing runs");
    }
}

/// Each axis's bad value exits 2 with the campaign's message for it.
#[test]
fn bad_axis_values_exit_2_with_the_campaign_message() {
    let wide = vec!["HS"; 31];
    let wide_spec = wide.join("+");
    for (args, message) in [
        (&["workloads=", "HS"][..], "empty workload spec".to_string()),
        (&wide, format!("workload {wide_spec:?} has 31 applications, more than 30 SMs")),
        (&["managers=bogus", "HS"], "unknown manager \"bogus\"".to_string()),
        (&["--manager", "mosaic", "managers=mosaic", "HS"], "duplicate key \"managers\"".into()),
        (&["l1_tlb=0/8", "HS"], "l1_tlb must be \"base_entries/large_entries\"".into()),
        (&["l2_tlb=500/256", "HS"], "must be a multiple of associativity (16)".into()),
        (&["fragmentation=1:2", "HS"], "fragmentation must be \"none\" or".into()),
        (&["oversubscription=0.5", "HS"], "got 0.5".into()),
        (&["paging=lazy", "HS"], "paging must be \"on-demand\" or \"preloaded\"".into()),
        (&["seeds=-1", "HS"], "seeds must be non-negative integers, got -1".into()),
        (&["seeds=7,7", "HS"], "seeds repeats a value: 7".into()),
        (&["tlb=64/8", "HS"], "unknown matrix axis \"tlb\"".into()),
    ] {
        let (code, stdout, stderr) = mosaic_sim(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("mosaic-sim: "), "{args:?}: {stderr}");
        assert!(stderr.contains(&message), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: nothing runs");
    }
}

/// Fragmentation under GPU-MMU is a point the campaign skips: with no
/// point left, the run exits 2 before simulating, where it once reran
/// the pristine simulation.
#[test]
fn a_run_whose_every_point_is_skipped_exits_2() {
    let (code, stdout, stderr) =
        mosaic_sim(&["--manager", "gpu-mmu", "fragmentation=1:0.5", "GUPS"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "skip GUPS gpu-mmu frag=1:0.5: fragmentation requires a Mosaic manager \
         (only Mosaic pre-fragments memory)\n"
    );
    assert!(stdout.is_empty(), "nothing runs: {stdout}");
}

/// `--help` exits 2 with stderr closed, `--list` exits 0 with stdout
/// closed, and a run exits 0 with stderr closed under its progress
/// lines: the text that cannot be written is dropped instead of
/// panicking (status 101).
#[test]
fn closed_pipes_keep_the_exit_status() {
    for (args, close_stdout, code) in
        [(["--help"], false, 2), (["--list"], true, 0), (["NN"], false, 0)]
    {
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

/// Points that differ only in seed get distinct progress labels: each
/// ends with its run key's short form.
#[test]
fn progress_labels_tell_seeds_apart() {
    let (code, _, stderr) = mosaic_sim(&["seeds=1,2", "HS"]);
    assert_eq!(code, Some(0), "{stderr}");
    let labels: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("[sweep ") && line.contains("[Mosaic]"))
        .filter_map(|line| line.split_once("/2] ")?.1.split_once(" (").map(|(label, _)| label))
        .collect();
    assert_eq!(labels.len(), 2, "{stderr}");
    assert_ne!(labels[0], labels[1], "{stderr}");
    assert!(labels.iter().all(|l| l.starts_with("HS [Mosaic] ") && l.len() == 24), "{labels:?}");
}
