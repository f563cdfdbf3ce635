//! A fast golden check at the workspace root, so `cargo test -q` alone
//! catches a determinism break in the memory managers: fig08 (GPU-MMU
//! and Mosaic demand paging and coalescing), oversub (both managers'
//! whole-frame LRU eviction and dirty write-back), the coalescer
//! comparison (the migrating coalescer's promotion path), table2
//! (pre-fragmentation, the CAC failsafe and hole scavenging) and multigpu
//! (fleet placement, the interconnect and lookahead isolation across
//! devices) are rendered at smoke scope and checked against the digests
//! pinned in `mosaic_experiments::goldens`. The full golden matrix, serial and
//! parallel with the run cache off, cold and warm, lives in
//! `crates/experiments/tests/golden_matrix.rs`.

use mosaic_experiments::goldens::{digest, golden};
use mosaic_experiments::{ablations, fig08, multigpu, oversub, table2, Scope, Sweep};

/// A smoke-scope sweep on every available core.
fn smoke() -> Sweep {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    Sweep { jobs, ..Sweep::new(Scope::Smoke) }
}

fn check(name: &str, report: String) {
    assert_eq!(
        digest(&report),
        golden(name),
        "{name} smoke report drifted from the golden digest; report was:\n{report}"
    );
}

#[test]
fn fig08_matches_golden() {
    check("fig08", fig08::run(&smoke()).to_string());
}

#[test]
fn oversub_matches_golden() {
    check("oversub", oversub::run(&smoke()).to_string());
}

#[test]
fn coalescer_ablation_matches_golden() {
    check("ablation_coalescers", ablations::migrating_coalescer(&smoke()).to_string());
}

#[test]
fn table2_matches_golden() {
    check("table2", table2::run(&smoke()).to_string());
}

#[test]
fn multigpu_matches_golden() {
    check("multigpu", multigpu::run(&smoke()).to_string());
}
