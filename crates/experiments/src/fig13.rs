//! Figure 13: L1 and L2 TLB hit rates of GPU-MMU vs Mosaic as the number
//! of concurrently-executing applications grows.
//!
//! The paper: Mosaic's coalescing drives both hit rates to ~99% and keeps
//! them there, while GPU-MMU's shared L2 TLB hit rate decays with
//! application count (81% at two applications down to 62% at five) due to
//! inter-application interference. Following the paper, workloads whose
//! GPU-MMU L2 TLB hit rate is ≥98% (no reach problem to solve) are
//! excluded.

use crate::common::{mean, Scope};
use crate::sweep::Sweep;
use mosaic_gpusim::ManagerKind;
use std::fmt;

/// Hit rates at one concurrency level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelRow {
    /// Concurrently-executing application count.
    pub apps: usize,
    /// GPU-MMU average L1 TLB hit rate.
    pub gpu_mmu_l1: f64,
    /// GPU-MMU average L2 TLB hit rate.
    pub gpu_mmu_l2: f64,
    /// Mosaic average L1 TLB hit rate.
    pub mosaic_l1: f64,
    /// Mosaic average L2 TLB hit rate.
    pub mosaic_l2: f64,
    /// Workloads that passed the limited-reach filter.
    pub workloads: usize,
}

/// The Figure 13 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13 {
    /// One row per concurrency level.
    pub levels: Vec<LevelRow>,
}

/// Runs the experiment.
pub fn run(sweep: &Sweep) -> Fig13 {
    let scope = sweep.scope;
    let max = if scope == Scope::Smoke { 3 } else { 5 };
    let level_workloads: Vec<(usize, Vec<mosaic_workloads::Workload>)> =
        (1..=max).map(|n| (n, scope.homogeneous(n))).collect();
    // Stage 1: every GPU-MMU baseline (also the limited-reach filter).
    let base_jobs: Vec<_> = level_workloads
        .iter()
        .flat_map(|(_, ws)| ws.iter())
        .map(|w| (w.clone(), scope.config(ManagerKind::GpuMmu4K)))
        .collect();
    let base_results = sweep.run_workloads(base_jobs);
    // Stage 2: Mosaic runs only for the workloads that pass the filter.
    let kept: Vec<bool> =
        base_results.iter().map(|base| base.stats.l2_tlb_hit_rate() < 0.98).collect();
    let mosaic_jobs: Vec<_> = level_workloads
        .iter()
        .flat_map(|(_, ws)| ws.iter())
        .zip(&kept)
        .filter(|(_, &keep)| keep)
        .map(|(w, _)| (w.clone(), scope.config(ManagerKind::mosaic())))
        .collect();
    let mosaic_results = sweep.run_workloads(mosaic_jobs);

    let mut base_iter = base_results.iter().zip(kept);
    let mut mosaic_iter = mosaic_results.iter();
    let mut levels = Vec::new();
    for (n, ws) in &level_workloads {
        let mut g1 = Vec::new();
        let mut g2 = Vec::new();
        let mut m1 = Vec::new();
        let mut m2 = Vec::new();
        for _ in ws {
            let (base, keep) = base_iter.next().expect("one baseline per workload");
            if !keep {
                continue; // no TLB-reach problem: excluded, as in the paper
            }
            let mos = mosaic_iter.next().expect("one Mosaic run per kept workload");
            g1.push(base.stats.l1_tlb_hit_rate());
            g2.push(base.stats.l2_tlb_hit_rate());
            m1.push(mos.stats.l1_tlb_hit_rate());
            m2.push(mos.stats.l2_tlb_hit_rate());
        }
        levels.push(LevelRow {
            apps: *n,
            gpu_mmu_l1: mean(&g1),
            gpu_mmu_l2: mean(&g2),
            mosaic_l1: mean(&m1),
            mosaic_l2: mean(&m2),
            workloads: g1.len(),
        });
    }
    Fig13 { levels }
}

impl fmt::Display for Fig13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 13: TLB hit rates (limited-reach workloads only)")?;
        writeln!(
            f,
            "{:<8} {:>12} {:>12} {:>12} {:>12} {:>6}",
            "apps", "GPU-MMU L1", "GPU-MMU L2", "Mosaic L1", "Mosaic L2", "n"
        )?;
        for l in &self.levels {
            writeln!(
                f,
                "{:<8} {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}% {:>6}",
                l.apps,
                l.gpu_mmu_l1 * 100.0,
                l.gpu_mmu_l2 * 100.0,
                l.mosaic_l1 * 100.0,
                l.mosaic_l2 * 100.0,
                l.workloads
            )?;
        }
        writeln!(
            f,
            "paper: Mosaic holds ~99% at both levels; GPU-MMU's L2 hit rate decays with sharing."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mosaic_hit_rates_dominate() {
        let fig = run(&Sweep::new(Scope::Smoke));
        for l in &fig.levels {
            if l.workloads == 0 {
                continue;
            }
            assert!(l.mosaic_l1 > l.gpu_mmu_l1, "{} apps: {l:?}", l.apps);
            assert!(l.mosaic_l1 > 0.7, "{} apps: Mosaic L1 {:.3}", l.apps, l.mosaic_l1);
        }
        assert!(fig.levels.iter().any(|l| l.workloads > 0), "filter must keep some workloads");
    }
}
