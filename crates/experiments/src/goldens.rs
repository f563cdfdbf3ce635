//! The golden smoke-scope digests: one table, read by the golden matrix
//! (`tests/golden_matrix.rs`), the workspace root's `tests/goldens.rs`
//! and `reproduce --digest`, which fails a smoke run on any mismatch.
//!
//! Each digest is the FNV-1a of a report rendered at [`Scope::Smoke`]
//! (the same line `reproduce --digest` prints); every name but `trace`
//! is a report in [`REPORTS`](crate::REPORTS). Update an entry ONLY for
//! a change that intentionally alters simulated behavior or report
//! formatting — never for a performance refactor or a restructuring.
//!
//! [`Scope::Smoke`]: crate::Scope::Smoke

use crate::sweep::render_trace;
use crate::{Scope, Sweep};
use mosaic_gpusim::ManagerKind;
use mosaic_sim_core::fnv1a;
use mosaic_workloads::Workload;

/// `(report name, digest)` for every pinned report.
///
/// * `fig08` — pinned when the flat-structure hot-path rework landed
///   (flat page table, monomorphized SM loop, indexed frame pool), and
///   unchanged by every output-isomorphic rework since.
/// * `fig03`, `fig11`, `ablation_walker` — pinned when the telemetry and
///   stall-attribution instrumentation landed, which had to be
///   output-isomorphic.
/// * `stall` — re-pinned when the stall table grew `evict`/`writeback`
///   columns (every pre-existing percentage unchanged).
/// * `oversub` — the demand-paging engine end to end: LRU eviction under
///   GPU-MMU and Mosaic, dirty write-back over the I/O bus, prefetch.
/// * `multigpu` — the scale-out path: placement, interconnect queueing,
///   migration/replication payloads, remote/migrate stall attribution.
/// * `ablation_coalescers` — the only report that runs the migrating
///   coalescer (GPU-MMU vs Migrating vs Mosaic), pinned before the three
///   managers moved onto one resident-memory core.
/// * `fig16`, `table2` — the only reports that run Section 6.4's
///   pre-fragmentation, CAC's failsafe (FRAG compaction, emergency
///   splinters) and hole scavenging; pinned before the failsafe grew
///   its O(1) early exit.
/// * `trace` — the JSONL trace of [`trace_sweep`]'s smoke MM+GUPS runs
///   under GPU-MMU and Mosaic, pinned when the telemetry pipeline landed.
pub const GOLDENS: &[(&str, &str)] = &[
    ("fig08", "ad0fedc459c0afa6"),
    ("fig03", "d3a367a2c8a59907"),
    ("fig11", "f0bc1943ac8bc2e5"),
    ("ablation_walker", "3e03ad211b0a0142"),
    ("stall", "174dce1f1c6193c9"),
    ("oversub", "34029bf26e3a411f"),
    ("multigpu", "eea524f5b009c7d8"),
    ("ablation_coalescers", "09b50acab5cc2dfe"),
    ("fig16", "340580d370ae6c4c"),
    ("table2", "17439706695124d7"),
    ("trace", "1018f6b5fd858109"),
];

/// The pinned digest of report `name`, if [`GOLDENS`] has one.
pub fn golden(name: &str) -> Option<&'static str> {
    GOLDENS.iter().find(|(n, _)| *n == name).map(|&(_, digest)| digest)
}

/// The digest of a rendered report, in the form [`GOLDENS`] pins.
pub fn digest(report: &str) -> String {
    format!("{:016x}", fnv1a(report.as_bytes()))
}

/// Runs the `trace` pin's four smoke jobs (MM and GUPS, each alone under
/// GPU-MMU and Mosaic) through `sweep`, returning the results' count.
pub fn trace_sweep(sweep: &Sweep) -> usize {
    let jobs = ["MM", "GUPS"]
        .iter()
        .flat_map(|&name| {
            [ManagerKind::GpuMmu4K, ManagerKind::mosaic()]
                .map(|mgr| (Workload::from_names(&[name]), Scope::Smoke.config(mgr)))
        })
        .collect();
    sweep.run_workloads(jobs).len()
}

/// The JSONL trace a traced `sweep` collected, rendered as `reproduce
/// --trace` writes it: after [`trace_sweep`], the text the `trace` pin
/// digests.
///
/// # Panics
///
/// Panics if `sweep` has no trace collector.
pub fn rendered_trace(sweep: Sweep) -> String {
    render_trace(&sweep.trace.expect("a traced sweep").into_chunks())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_digests_well_formed() {
        for (i, (name, digest)) in GOLDENS.iter().enumerate() {
            assert!(GOLDENS[..i].iter().all(|(n, _)| n != name), "{name} pinned twice");
            assert_eq!(digest.len(), 16, "{name}");
            assert!(digest.bytes().all(|b| b.is_ascii_hexdigit()), "{name}");
        }
        assert_eq!(golden("multigpu"), Some("eea524f5b009c7d8"));
        assert_eq!(golden("fig99"), None);
    }

    #[test]
    fn every_pinned_report_is_in_the_report_table() {
        for (name, _) in GOLDENS.iter().filter(|(n, _)| *n != "trace") {
            assert!(crate::report(name).is_some(), "golden {name} names no report in REPORTS");
        }
    }
}
