//! The determinism and invariants policy, checked by `cargo test -q` at
//! the workspace root: `mosaic-audit check` over the whole tree with the
//! committed allowlist must report no finding, no stale exemption and no
//! unresolved hot-path entry point. `ci.sh` runs the same check through
//! the binary; this puts it in the root test command too.

use mosaic_audit::{check, Allowlist};
use std::path::Path;

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
