//! Command-line error handling of the `reproduce` binary: flags,
//! experiment names and the `MOSAIC_*` environment are checked before any
//! simulation runs.

use std::process::{Command, Stdio};

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
        assert!(!stderr.contains("fig06 done"), "fails before simulating: {stderr}");
    }
}

/// A trace write that fails after the file was opened is not dropped:
/// the run exits 1 with a `cannot write` line. `/dev/full` opens, then
/// fails every write; where it does not exist there is nothing to test.
#[test]
fn a_failed_trace_write_exits_1() {
    let full = "/dev/full";
    if !std::path::Path::new(full).exists() {
        return;
    }
    let spec = format!("{}/one-run.toml", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&spec, "name = \"one\"\nscope = \"smoke\"\n[matrix]\nworkloads = [\"MM\"]\n")
        .expect("scratch campaign");
    let (code, stderr) = reproduce(&["--trace", full, "--no-cache", "campaign", "run", &spec]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(&format!("cannot write {full}: ")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
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

/// `campaign expand` exits 0 with stdout closed: the listing that cannot
/// be written is dropped instead of panicking (status 101).
#[test]
fn campaign_expand_exits_0_with_stdout_closed() {
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/../../campaigns/smoke.toml");
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["campaign", "expand", smoke])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("reproduce runs");
    drop(child.stdout.take());
    assert_eq!(child.wait().expect("reproduce exits").code(), Some(0));
}

/// The `[cache]` stderr line of a `reproduce` run, as its numbers:
/// `(served in-process, store hits, store misses)`, the last two `None`
/// without a store.
fn cache_line(stderr: &str) -> (u64, Option<(u64, u64)>) {
    let line = stderr.lines().find(|l| l.starts_with("[cache] ")).expect("a [cache] line");
    let number = |after: &str| -> u64 {
        let (head, _) = line.split_once(after).unwrap_or_else(|| panic!("{after:?} in {line}"));
        head.rsplit(' ').next().and_then(|n| n.parse().ok()).expect("a count")
    };
    let store = line.contains("store:").then(|| (number(" hits, "), number(" misses, ")));
    (number(" served in-process"), store)
}

/// Repeated runs are served in-process and counted apart from the
/// store's hits: a cold store misses once per distinct run, a warm one
/// hits each of them, and the memo serves the same repeats either way.
#[test]
fn cache_line_counts_in_process_runs_apart_from_store_hits() {
    let dir = std::env::temp_dir().join(format!("mosaic-cache-line-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = ["--jobs", "2", "--cache-dir", dir.to_str().expect("utf-8 path"), "fig08"];
    let runs = [&cached[..], &cached[..], &["--jobs", "2", "--no-cache", "fig08"][..]]
        .map(reproduce)
        .map(|(code, stderr)| {
            assert_eq!(code, Some(0), "{stderr}");
            cache_line(&stderr)
        });
    let _ = std::fs::remove_dir_all(&dir);
    let [(served, cold), (warm_served, warm), (uncached_served, none)] = runs;
    let (Some((0, distinct)), Some((hits, 0))) = (cold, warm) else {
        panic!("cold {cold:?} must only miss and warm {warm:?} only hit");
    };
    assert!(served > 0, "fig08 repeats runs, served in-process");
    assert_eq!(hits, distinct, "the warm store serves each distinct run once");
    assert_eq!((warm_served, uncached_served, none), (served, served, None));
}
