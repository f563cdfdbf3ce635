//! A fast golden check at the workspace root, so `cargo test -q` alone
//! catches a determinism break in the memory managers: fig08 (GPU-MMU
//! and Mosaic demand paging and coalescing), oversub (both managers'
//! whole-frame LRU eviction and dirty write-back) and the coalescer
//! comparison (the migrating coalescer's promotion path) are rendered at
//! smoke scope and checked against the digests pinned in
//! `mosaic_experiments::goldens`. The full golden tier, at several
//! worker counts and with the run cache cold and warm, lives in
//! `crates/experiments/tests`.

use mosaic_experiments::goldens::{digest, golden};
use mosaic_experiments::{ablations, fig08, oversub, Scope};

fn check(name: &str, report: String) {
    assert_eq!(
        digest(&report),
        golden(name),
        "{name} smoke report drifted from the golden digest; report was:\n{report}"
    );
}

#[test]
fn fig08_matches_golden() {
    check("fig08", fig08::run(Scope::Smoke).to_string());
}

#[test]
fn oversub_matches_golden() {
    check("oversub", oversub::run(Scope::Smoke).to_string());
}

#[test]
fn coalescer_ablation_matches_golden() {
    check("ablation_coalescers", ablations::migrating_coalescer(Scope::Smoke).to_string());
}
