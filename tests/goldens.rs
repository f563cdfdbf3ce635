//! A fast golden check at the workspace root, so `cargo test -q` alone
//! catches a determinism break anywhere a pinned report looks: every
//! report pinned in `mosaic_experiments::goldens` is rendered at smoke
//! scope through `mosaic_experiments::REPORTS` and checked against its
//! digest. The memory managers' core paths keep a test each: fig08
//! (GPU-MMU and Mosaic demand paging and coalescing), oversub (both
//! managers' whole-frame LRU eviction and dirty write-back), the coalescer
//! comparison (the migrating coalescer's promotion path), table2
//! (pre-fragmentation, the CAC failsafe and hole scavenging) and multigpu
//! (fleet placement, the interconnect and lookahead isolation across
//! devices); one loop covers every other pin, rendering them all through
//! one shared sweep, so the runs its memo serves to a later report are
//! checked against real pins too. The `trace` pin is not a
//! report: its test renders the JSONL trace of the golden trace sweep.
//! The full golden matrix, serial and parallel with the run cache off,
//! cold and warm, lives in `crates/experiments/tests/golden_matrix.rs`.

use mosaic_experiments::goldens::{digest, golden, rendered_trace, trace_sweep, GOLDENS};
use mosaic_experiments::sweep::Trace;
use mosaic_experiments::{report, Scope, Sweep};

/// The pins with a test of their own; the loop skips them and `trace`.
const OWN_TEST: &[&str] = &["fig08", "oversub", "ablation_coalescers", "table2", "multigpu"];

/// A smoke-scope sweep on every available core.
fn smoke() -> Sweep {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    Sweep { jobs, ..Sweep::new(Scope::Smoke) }
}

/// `None` if report `name` renders to its pin, else what drifted.
fn drift(name: &str, pin: &str, sweep: &Sweep) -> Option<String> {
    let render = report(name).unwrap_or_else(|| panic!("golden {name} names no report"));
    let rendered = digest(&render(sweep));
    (rendered != pin).then(|| format!("{name}: pinned {pin}, rendered {rendered}"))
}

fn check(name: &str) {
    let (_, pin) = GOLDENS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} has no golden pin"));
    if let Some(drifted) = drift(name, pin, &smoke()) {
        panic!("smoke report drifted from its golden: {drifted}");
    }
}

#[test]
fn fig08_matches_golden() {
    check("fig08");
}

#[test]
fn oversub_matches_golden() {
    check("oversub");
}

#[test]
fn coalescer_ablation_matches_golden() {
    check("ablation_coalescers");
}

#[test]
fn table2_matches_golden() {
    check("table2");
}

#[test]
fn multigpu_matches_golden() {
    check("multigpu");
}

#[test]
fn trace_matches_golden() {
    let sweep = Sweep { trace: Some(Trace::new(Vec::new())), ..smoke() };
    assert_eq!(trace_sweep(&sweep), 4);
    let rendered = digest(&rendered_trace(sweep));
    assert_eq!(Some(rendered.as_str()), golden("trace"), "the JSONL trace drifted from its golden");
}

#[test]
fn every_pinned_report_matches_its_golden() {
    let sweep = smoke();
    let drifted: Vec<String> = GOLDENS
        .iter()
        .filter(|(n, _)| *n != "trace" && !OWN_TEST.contains(n))
        .filter_map(|&(name, pin)| drift(name, pin, &sweep))
        .collect();
    assert!(
        drifted.is_empty(),
        "smoke reports drifted from their goldens:\n{}",
        drifted.join("\n")
    );
    assert!(sweep.memo.served() > 0, "later reports reuse earlier reports' runs");
}
