//! Figure 16: CAC under memory fragmentation (Section 6.4).
//!
//! Stress tests pre-fragment physical memory: a `fragmentation_index`
//! fraction of large frames receive immovable-by-allocation data at a
//! given `occupancy`, removing them from the free frame list. Four
//! compaction designs are compared: no CAC, CAC, CAC with in-DRAM bulk
//! copy (CAC-BC), and an ideal zero-cost CAC.
//!
//! The paper: fragmentation below ~90% barely matters; past it, CAC
//! recovers performance by freeing frames; at 100% CAC loses some of its
//! advantage to compaction traffic, which CAC-BC wins back at low
//! occupancy.
//!
//! Physical memory is sized at ten times the workload footprint so that
//! the free-list knee lands at a high fragmentation index, as in the
//! paper's 3 GB configuration.

use crate::common::{fmt_row, Scope};
use crate::sweep::Sweep;
use mosaic_core::cac::CacConfig;
use mosaic_gpusim::{ManagerKind, RunConfig};
use mosaic_workloads::Workload;
use std::fmt;

/// The four compared designs, in report order.
pub const DESIGNS: [(&str, CacConfig); 4] = [
    (
        "no CAC",
        CacConfig { enabled: false, occupancy_threshold: 0.5, bulk_copy: false, ideal: false },
    ),
    ("CAC", CacConfig { enabled: true, occupancy_threshold: 0.5, bulk_copy: false, ideal: false }),
    (
        "CAC-BC",
        CacConfig { enabled: true, occupancy_threshold: 0.5, bulk_copy: true, ideal: false },
    ),
    (
        "Ideal CAC",
        CacConfig { enabled: true, occupancy_threshold: 0.5, bulk_copy: false, ideal: true },
    ),
];

/// One sweep (over fragmentation index or over occupancy).
#[derive(Debug, Clone, PartialEq)]
pub struct FragSweep {
    /// The swept parameter's values.
    pub points: Vec<f64>,
    /// Normalized performance per design: `series[design][point]`,
    /// normalized to unfragmented Mosaic with default CAC.
    pub series: Vec<Vec<f64>>,
}

/// The Figure 16 pair of sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16 {
    /// (a) fragmentation-index sweep at 50% occupancy.
    pub index_sweep: FragSweep,
    /// (b) occupancy sweep at 100% fragmentation index.
    pub occupancy_sweep: FragSweep,
}

/// The stress workload and its memory sizing.
fn stress_setup(scope: Scope) -> (Workload, RunConfig) {
    let w = Workload::from_names(&["HS", "CONS"]);
    // Run 16x longer than the scope default so the one-time compaction
    // burst amortizes the way it does over the paper's much longer runs.
    let mut scale = scope.scale();
    scale.mem_ops_per_warp *= 16;
    let mut cfg = scope.config(ManagerKind::mosaic()).with_scale(scale);
    let ws_total: u64 = w.apps.iter().map(|p| scope.scale().ws_bytes(p)).sum();
    cfg.system.memory_bytes = (ws_total * 10).max(64 * 1024 * 1024);
    (w, cfg)
}

fn frag_sweep(sweep: &Sweep, points: &[f64], fragment: impl Fn(f64) -> (f64, f64)) -> FragSweep {
    let (w, base_cfg) = stress_setup(sweep.scope);
    // Normalization: default CAC, no fragmentation.
    let baseline = sweep.run_workload_cached(&w, base_cfg).total_cycles as f64;
    // One job per (design, point) grid cell.
    let jobs: Vec<_> = DESIGNS
        .iter()
        .flat_map(|&(_, cac)| {
            let (w, fragment) = (&w, &fragment);
            points.iter().map(move |&p| {
                let mut cfg = base_cfg;
                cfg.manager = ManagerKind::Mosaic(cac);
                cfg.fragmentation = Some(fragment(p));
                (w.clone(), cfg)
            })
        })
        .collect();
    let results = sweep.run_workloads(jobs);
    let series = results
        .chunks_exact(points.len())
        .map(|row| row.iter().map(|r| baseline / r.total_cycles as f64).collect())
        .collect();
    FragSweep { points: points.to_vec(), series }
}

/// Runs both sweeps.
pub fn run(sweep: &Sweep) -> Fig16 {
    let scope = sweep.scope;
    let (idx_pts, occ_pts): (&[f64], &[f64]) = if scope == Scope::Smoke {
        (&[0.5, 1.0], &[0.25, 0.5])
    } else {
        (&[0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0], &[0.01, 0.10, 0.25, 0.35, 0.50, 0.75])
    };
    Fig16 {
        index_sweep: frag_sweep(sweep, idx_pts, |p| (p, 0.5)),
        occupancy_sweep: frag_sweep(sweep, occ_pts, |p| (1.0, p)),
    }
}

impl FragSweep {
    fn render(&self, f: &mut fmt::Formatter<'_>, xlabel: &str) -> fmt::Result {
        writeln!(f, "  {xlabel}: {:?}", self.points)?;
        for (i, (name, _)) in DESIGNS.iter().enumerate() {
            writeln!(f, "  {}", fmt_row(name, &self.series[i]))?;
        }
        Ok(())
    }
}

impl fmt::Display for Fig16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 16: CAC under fragmentation (normalized to unfragmented Mosaic)")?;
        writeln!(f, "(a) fragmentation-index sweep at 50% occupancy")?;
        self.index_sweep.render(f, "index")?;
        writeln!(f, "(b) occupancy sweep at 100% fragmentation index")?;
        self.occupancy_sweep.render(f, "occupancy")?;
        writeln!(
            f,
            "paper: index <90% has minimal impact; CAC > no-CAC at high index; CAC-BC helps at low occupancy."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_recovers_performance_under_full_fragmentation() {
        let fig = run(&Sweep::new(Scope::Smoke));
        let full_idx = fig.index_sweep.points.len() - 1;
        let no_cac = fig.index_sweep.series[0][full_idx];
        let cac = fig.index_sweep.series[1][full_idx];
        let bc = fig.index_sweep.series[2][full_idx];
        let ideal = fig.index_sweep.series[3][full_idx];
        // Compaction with in-DRAM bulk copy clearly beats no compaction
        // (at this reproduction's short runs the narrow-copy variant's
        // one-time migration cost is proportionally inflated, so plain
        // CAC only ties no-CAC here; see EXPERIMENTS.md).
        assert!(bc > no_cac * 1.3, "CAC-BC {bc:.3} should beat no-CAC {no_cac:.3} at index 1.0");
        assert!(ideal >= bc * 0.95, "ideal {ideal:.3} should be at least CAC-BC {bc:.3}");
        assert!(cac > no_cac * 0.7, "CAC {cac:.3} must stay in no-CAC's band {no_cac:.3}");
        // Bulk copy is the cheaper migration path.
        assert!(bc >= cac, "CAC-BC {bc:.3} at least matches CAC {cac:.3}");
    }

    #[test]
    fn moderate_fragmentation_is_benign() {
        let fig = run(&Sweep::new(Scope::Smoke));
        // At index 0.5 every design stays near the unfragmented baseline.
        for row in &fig.index_sweep.series {
            assert!(row[0] > 0.9, "index 0.5 should be benign, got {:.3}", row[0]);
        }
    }
}
