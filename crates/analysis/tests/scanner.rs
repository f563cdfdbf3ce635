//! End-to-end tests for `mosaic-audit check`: the violation fixtures must
//! be flagged (and fail the binary with a nonzero exit), the clean fixture
//! must pass, and — the gate that matters — the real repository must scan
//! clean under its checked-in allowlist.

use mosaic_audit::{check, Allowlist};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

#[test]
fn violation_fixtures_are_all_flagged() {
    let report = check(&fixture("violations"), &Allowlist::default()).unwrap();
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &report.findings {
        *by_rule.entry(f.rule).or_default() += 1;
    }
    assert_eq!(by_rule.get("hashmap-in-sim"), Some(&4), "{:#?}", report.findings);
    assert_eq!(by_rule.get("wall-clock"), Some(&3), "{:#?}", report.findings);
    assert_eq!(by_rule.get("thread-rng"), Some(&2), "{:#?}", report.findings);
    assert_eq!(by_rule.get("panic-in-hotpath"), Some(&3), "{:#?}", report.findings);
    assert_eq!(by_rule.get("lossy-cast"), Some(&2), "{:#?}", report.findings);
    assert_eq!(by_rule.get("banned-alias"), Some(&5), "{:#?}", report.findings);
    assert_eq!(by_rule.get("interior-mutability"), Some(&9), "{:#?}", report.findings);
    assert_eq!(by_rule.get("relaxed-atomic"), Some(&1), "{:#?}", report.findings);
    assert_eq!(by_rule.get("telemetry-gate"), Some(&2), "{:#?}", report.findings);
    assert_eq!(report.findings.len(), 31);
}

#[test]
fn panics_outside_the_computed_closure_are_not_flagged() {
    // tlb.rs's `unreachable_helper` has an unwrap but no caller: the
    // closure boundary, not a file list, decides what is hot.
    let report = check(&fixture("violations"), &Allowlist::default()).unwrap();
    let tlb_lines: Vec<usize> = report
        .findings
        .iter()
        .filter(|f| f.rule == "panic-in-hotpath" && f.path.ends_with("tlb.rs"))
        .map(|f| f.line)
        .collect();
    assert_eq!(tlb_lines, [6, 7, 9], "{:#?}", report.findings);
}

#[test]
fn alias_smuggling_is_flagged_end_to_end() {
    // The cross-crate re-export chain: vm/smuggled.rs names HashMap only
    // through mosaic_workloads::FastMap, and is still flagged.
    let report = check(&fixture("violations"), &Allowlist::default()).unwrap();
    let aliases: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "banned-alias")
        .map(|f| f.path.as_str())
        .collect();
    assert!(aliases.iter().all(|p| p.ends_with("smuggled.rs")), "{aliases:?}");
    let fastmap: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "banned-alias" && f.message.contains("FastMap"))
        .collect();
    assert!(!fastmap.is_empty(), "the re-export chain was not resolved: {:#?}", report.findings);
    // The re-exporting (non-cycle) crate itself is not flagged.
    assert!(!report.findings.iter().any(|f| f.path.ends_with("reexport.rs")));
}

#[test]
fn non_cycle_crates_may_use_containers_and_panics() {
    let report = check(&fixture("violations"), &Allowlist::default()).unwrap();
    let outside: Vec<_> = report.findings.iter().filter(|f| f.path.contains("workloads")).collect();
    assert_eq!(outside.len(), 1, "{outside:#?}");
    assert_eq!(outside[0].rule, "thread-rng");
}

#[test]
fn clean_fixture_passes() {
    let report = check(&fixture("clean"), &Allowlist::default()).unwrap();
    assert!(report.is_clean(), "{report:#?}");
    assert!(report.unresolved_entries.is_empty(), "{:#?}", report.unresolved_entries);
    assert_eq!(report.files, 2);
}

#[test]
fn allowlist_exempts_fixture_findings() {
    let allow = Allowlist::parse(
        "hashmap-in-sim crates/vm/src/bad_hashmap.rs fixture exercise\n\
         panic-in-hotpath crates/vm/src/tlb.rs fixture exercise\n",
    )
    .unwrap();
    let report = check(&fixture("violations"), &allow).unwrap();
    assert_eq!(report.exempted.len(), 7);
    assert_eq!(report.findings.len(), 24);
    assert!(report.stale_allows.is_empty());
}

#[test]
fn the_repository_scans_clean() {
    let root = repo_root();
    let allow_text = std::fs::read_to_string(root.join("crates/analysis/allow.list")).unwrap();
    let allow = Allowlist::parse(&allow_text).unwrap();
    let report = check(&root, &allow).unwrap();
    assert!(
        report.is_clean(),
        "the tree violates the determinism/invariant policy:\n{}",
        report.findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    assert!(
        report.unresolved_entries.is_empty(),
        "stale entry points (the closure silently shrank): {:#?}",
        report.unresolved_entries
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale allowlist entries (prune them): {:#?}",
        report.stale_allows
    );
    assert!(report.files > 50, "walked only {} files — tree layout changed?", report.files);
}

#[test]
fn binary_exits_nonzero_on_violations_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_mosaic-audit");
    let bad = Command::new(bin)
        .args(["check", fixture("violations").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("hashmap-in-sim"), "{stdout}");
    assert!(stdout.contains("banned-alias"), "{stdout}");

    let good =
        Command::new(bin).args(["check", fixture("clean").to_str().unwrap()]).output().unwrap();
    assert_eq!(good.status.code(), Some(0), "{good:?}");
}

#[test]
fn stale_allowlist_entries_fail_check_without_escape_hatch() {
    // The clean fixture has no findings, so any allowlist entry written
    // for it is stale. Stale entries fail `check`; --allow-stale
    // downgrades them to a warning.
    let bin = env!("CARGO_BIN_EXE_mosaic-audit");
    let dir = std::env::temp_dir().join(format!("mosaic-audit-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("crates/vm/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::copy(fixture("clean").join("crates/vm/src/good.rs"), src.join("good.rs")).unwrap();
    let gpu = dir.join("crates/gpu/src");
    std::fs::create_dir_all(&gpu).unwrap();
    std::fs::copy(fixture("clean").join("crates/gpu/src/machine.rs"), gpu.join("machine.rs"))
        .unwrap();
    let allow_dir = dir.join("crates/analysis");
    std::fs::create_dir_all(&allow_dir).unwrap();
    std::fs::write(
        allow_dir.join("allow.list"),
        "wall-clock crates/vm/src/good.rs never matched anything\n",
    )
    .unwrap();

    let strict = Command::new(bin).args(["check", dir.to_str().unwrap()]).output().unwrap();
    assert_eq!(strict.status.code(), Some(1), "{strict:?}");
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(stderr.contains("stale allowlist entry"), "{stderr}");

    let lenient =
        Command::new(bin).args(["check", dir.to_str().unwrap(), "--allow-stale"]).output().unwrap();
    assert_eq!(lenient.status.code(), Some(0), "{lenient:?}");
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert!(stderr.contains("warning: stale"), "{stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn json_output_is_emitted_for_check_and_graph() {
    let bin = env!("CARGO_BIN_EXE_mosaic-audit");
    let out = Command::new(bin)
        .args(["check", fixture("violations").to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"rule\":\"banned-alias\""), "{stdout}");
    assert!(stdout.contains("\"clean\":false"), "{stdout}");

    let graph = Command::new(bin)
        .args(["graph", fixture("violations").to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&graph.stdout);
    assert!(stdout.contains("\"spec\":\"Sm::advance\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"lookup\""), "{stdout}");
}

#[test]
fn explain_prints_rationale_for_every_rule() {
    let bin = env!("CARGO_BIN_EXE_mosaic-audit");
    for rule in mosaic_audit::rules::RULES {
        let out = Command::new(bin).args(["explain", rule.id]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(rule.id), "{stdout}");
        assert!(stdout.len() > 100, "explain text for {} is too thin: {stdout}", rule.id);
    }
    let unknown = Command::new(bin).args(["explain", "no-such-rule"]).output().unwrap();
    assert_eq!(unknown.status.code(), Some(2), "{unknown:?}");
}
