//! Stall-cycle attribution report.
//!
//! Decomposes each application's warp stall cycles into the exact
//! per-cause buckets the simulator tracks (`StallBreakdown`): TLB hit
//! latency, TLB miss / page walk, far faults, shootdowns, cache, DRAM
//! queueing, DRAM service, compute latency, and synchronization. The
//! report contrasts a TLB-friendly workload (MM, high locality) with a
//! TLB-sensitive one (GUPS, random access) under the GPU-MMU baseline
//! and Mosaic — the latency structure behind the paper's Section 6
//! performance claims.
//!
//! The buckets are measured on the always-on path (no tracing needed)
//! and sum *exactly* to each application's total stall cycles; the run
//! asserts this for every row.

use crate::sweep::Sweep;
use mosaic_gpusim::ManagerKind;
use mosaic_telemetry::{StallBreakdown, StallBucket};
use mosaic_workloads::Workload;
use std::fmt;

/// The workloads the report contrasts: one TLB-friendly, one
/// TLB-sensitive (profile names).
pub const WORKLOADS: [&str; 2] = ["MM", "GUPS"];

/// One application's stall decomposition under one manager.
#[derive(Debug, Clone, PartialEq)]
pub struct StallRow {
    /// Workload name.
    pub workload: String,
    /// Manager label.
    pub manager: String,
    /// Total stall cycles across the application's SMs and phases.
    pub stall_cycles: u64,
    /// Exact per-bucket decomposition (sums to `stall_cycles`).
    pub stall: StallBreakdown,
}

/// The stall-attribution report.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// One row per (workload, manager) pair.
    pub rows: Vec<StallRow>,
}

/// Runs the report: each workload alone under GPU-MMU and Mosaic.
pub fn run(sweep: &Sweep) -> StallReport {
    let scope = sweep.scope;
    let managers = [ManagerKind::GpuMmu4K, ManagerKind::mosaic()];
    let jobs: Vec<_> = WORKLOADS
        .iter()
        .flat_map(|&name| {
            managers.iter().map(move |&mgr| (Workload::from_names(&[name]), scope.config(mgr)))
        })
        .collect();
    let results = sweep.run_workloads(jobs);
    let rows = results
        .iter()
        .map(|r| {
            let mut stall_cycles = 0u64;
            let mut stall = StallBreakdown::default();
            for app in &r.apps {
                stall_cycles += app.stall_cycles;
                stall.merge(&app.stall);
            }
            assert_eq!(
                stall.total(),
                stall_cycles,
                "{} [{}]: stall buckets must sum exactly to stall cycles",
                r.workload,
                r.manager
            );
            StallRow {
                workload: r.workload.clone(),
                manager: r.manager.clone(),
                stall_cycles,
                stall,
            }
        })
        .collect();
    StallReport { rows }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The fleet-only buckets appear only when some row actually
        // charged them, so single-GPU reports render exactly as they did
        // before the multi-GPU work (the golden digests pin this).
        let shown = |bucket: StallBucket| {
            !matches!(bucket, StallBucket::Remote | StallBucket::Migrate)
                || self.rows.iter().any(|r| r.stall.get(bucket) > 0)
        };
        let buckets: Vec<StallBucket> =
            StallBucket::ALL.iter().copied().filter(|&b| shown(b)).collect();
        writeln!(f, "Stall attribution: % of each app's stall cycles, by cause")?;
        write!(f, "{:<6} {:<20} {:>12}", "app", "manager", "stall-cyc")?;
        for &bucket in &buckets {
            write!(f, " {:>9}", bucket.label())?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:<6} {:<20} {:>12}", row.workload, row.manager, row.stall_cycles)?;
            for &bucket in &buckets {
                let pct = if row.stall_cycles == 0 {
                    0.0
                } else {
                    row.stall.get(bucket) as f64 * 100.0 / row.stall_cycles as f64
                };
                write!(f, " {:>8.2}%", pct)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "MM is TLB-friendly, GUPS TLB-sensitive; buckets sum exactly to stall cycles.")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    #[test]
    fn buckets_sum_exactly_and_walk_dominates_where_expected() {
        let report = run(&Sweep::new(Scope::Smoke));
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            // `run` already asserts the exact-sum invariant; re-check the
            // rendered rows and that something actually stalled.
            assert_eq!(row.stall.total(), row.stall_cycles, "{row:?}");
            assert!(row.stall_cycles > 0, "{row:?}");
            let other = row.stall.get(StallBucket::Other);
            assert!(other < row.stall_cycles, "attribution must explain most stall: {row:?}");
        }
        // GUPS (random access) spends a larger share of its stall on page
        // walks than MM (high locality) under the same baseline manager.
        let walk_share = |name: &str| {
            let row = report
                .rows
                .iter()
                .find(|r| r.workload == name && r.manager == "GPU-MMU")
                .expect("row present");
            row.stall.get(StallBucket::TlbWalk) as f64 / row.stall_cycles as f64
        };
        assert!(
            walk_share("GUPS") > walk_share("MM"),
            "GUPS {:.4} vs MM {:.4}",
            walk_share("GUPS"),
            walk_share("MM")
        );
    }
}
