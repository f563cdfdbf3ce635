//! The determinism and invariants policy, checked by `cargo test -q` at
//! the workspace root: `mosaic-audit check` over the whole tree with the
//! committed allowlist must report no finding, no stale exemption and no
//! unresolved hot-path entry point, and the conformance fuzz must run
//! clean at the seed and case count `ci.sh` uses. `ci.sh` runs both
//! through their binaries; this puts them in the root test command too.

use mosaic_audit::{check, Allowlist};
use mosaic_conformance::{run_fuzz, FuzzConfig};
use std::path::Path;

#[test]
fn the_conformance_fuzz_is_clean() {
    let config = FuzzConfig { cases: 256, seed: 0xC0FFEE, ..FuzzConfig::default() };
    if let Err(failure) = run_fuzz(config) {
        panic!("conformance fuzz diverged:\n{failure}");
    }
}

#[test]
fn the_workspace_passes_the_audit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let allow_text = std::fs::read_to_string(root.join("crates/analysis/allow.list")).unwrap();
    let allow = Allowlist::parse(&allow_text).unwrap();
    let report = check(root, &allow).unwrap();
    let findings: Vec<_> = report.findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "policy findings:\n{}", findings.join("\n"));
    assert!(report.stale_allows.is_empty(), "stale allowlist entries: {:#?}", report.stale_allows);
    assert!(
        report.unresolved_entries.is_empty(),
        "unresolved hot-path entry points: {:#?}",
        report.unresolved_entries
    );
    assert!(report.files > 50, "walked only {} files: tree layout changed?", report.files);
}
