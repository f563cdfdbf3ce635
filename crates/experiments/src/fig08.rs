//! Figure 8: weighted speedup of homogeneous multi-application workloads
//! under GPU-MMU, Mosaic, and the Ideal TLB, for 1–5 concurrent copies.
//!
//! The paper's headline: Mosaic improves homogeneous workloads by 55.5%
//! on average over GPU-MMU and comes within 6.8% of the Ideal TLB.

use crate::common::{fmt_row, mean, Scope};
use crate::sweep::Sweep;
use mosaic_gpusim::{weighted_speedup, ManagerKind};
use std::fmt;

/// Weighted speedups at one concurrency level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelRow {
    /// Concurrently-executing application count.
    pub apps: usize,
    /// Average weighted speedup under GPU-MMU.
    pub gpu_mmu: f64,
    /// Average weighted speedup under Mosaic.
    pub mosaic: f64,
    /// Average weighted speedup under the Ideal TLB.
    pub ideal: f64,
}

impl LevelRow {
    /// Mosaic's improvement over GPU-MMU, as a fraction.
    pub fn mosaic_improvement(&self) -> f64 {
        self.mosaic / self.gpu_mmu - 1.0
    }

    /// How far Mosaic falls short of the Ideal TLB, as a fraction.
    pub fn gap_to_ideal(&self) -> f64 {
        1.0 - self.mosaic / self.ideal
    }
}

/// The Figure 8 (or 9) series.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupFigure {
    /// Figure label.
    pub title: String,
    /// One row per concurrency level.
    pub levels: Vec<LevelRow>,
}

impl SpeedupFigure {
    /// Average Mosaic-over-GPU-MMU improvement across levels.
    pub fn avg_improvement(&self) -> f64 {
        mean(&self.levels.iter().map(LevelRow::mosaic_improvement).collect::<Vec<_>>())
    }

    /// Average gap to the Ideal TLB across levels.
    pub fn avg_gap_to_ideal(&self) -> f64 {
        mean(&self.levels.iter().map(LevelRow::gap_to_ideal).collect::<Vec<_>>())
    }
}

/// Shared sweep used by Figures 8 and 9.
pub(crate) fn speedup_sweep(
    sweep: &Sweep,
    title: &str,
    levels: impl Iterator<Item = usize>,
    workloads_for: impl Fn(usize) -> Vec<mosaic_workloads::Workload>,
) -> SpeedupFigure {
    // One job per (level, workload, manager): the whole figure is a flat
    // list of independent simulations.
    let per_level: Vec<(usize, Vec<mosaic_workloads::Workload>)> =
        levels.map(|n| (n, workloads_for(n))).collect();
    let scope = sweep.scope;
    let configs = || {
        [
            scope.config(ManagerKind::GpuMmu4K),
            scope.config(ManagerKind::mosaic()),
            scope.config(ManagerKind::GpuMmu4K).ideal_tlb(),
        ]
    };
    let jobs: Vec<_> = per_level
        .iter()
        .flat_map(|(_, ws)| ws.iter())
        .flat_map(|w| configs().into_iter().map(move |cfg| (w.clone(), cfg)))
        .collect();
    // The alone baselines run first, each distinct one once.
    let alone = sweep.alone_baselines(&jobs);
    let results = sweep.run_workloads(jobs);

    let mut rows = Vec::new();
    let mut shared = results.iter().zip(&alone);
    for (n, ws) in &per_level {
        let mut per_mgr = [Vec::new(), Vec::new(), Vec::new()];
        for _ in ws {
            for series in &mut per_mgr {
                let (result, alone) = shared.next().expect("one result per job");
                series.push(weighted_speedup(result, alone));
            }
        }
        rows.push(LevelRow {
            apps: *n,
            gpu_mmu: mean(&per_mgr[0]),
            mosaic: mean(&per_mgr[1]),
            ideal: mean(&per_mgr[2]),
        });
    }
    SpeedupFigure { title: title.to_string(), levels: rows }
}

/// Runs the Figure 8 sweep.
pub fn run(sweep: &Sweep) -> SpeedupFigure {
    let scope = sweep.scope;
    let max = if scope == Scope::Smoke { 3 } else { 5 };
    speedup_sweep(sweep, "Figure 8: homogeneous workloads", 1..=max, |n| scope.homogeneous(n))
}

impl fmt::Display for SpeedupFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} (weighted speedup)", self.title)?;
        writeln!(
            f,
            "{:<24} {:>8} {:>8} {:>8} {:>9} {:>9}",
            "apps", "GPU-MMU", "Mosaic", "Ideal", "mosaic+%", "gap%"
        )?;
        for l in &self.levels {
            writeln!(
                f,
                "{} {:>8.1} {:>8.1}",
                fmt_row(&format!("{} app(s)", l.apps), &[l.gpu_mmu, l.mosaic, l.ideal]),
                l.mosaic_improvement() * 100.0,
                l.gap_to_ideal() * 100.0
            )?;
        }
        writeln!(
            f,
            "average: Mosaic +{:.1}% over GPU-MMU, {:.1}% short of Ideal TLB",
            self.avg_improvement() * 100.0,
            self.avg_gap_to_ideal() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mosaic_beats_gpu_mmu_and_trails_ideal() {
        let fig = run(&Sweep::new(Scope::Smoke));
        assert_eq!(fig.levels.len(), 3);
        for l in &fig.levels {
            assert!(l.mosaic > l.gpu_mmu, "{} apps: {l:?}", l.apps);
            assert!(l.ideal >= l.mosaic * 0.95, "{} apps: {l:?}", l.apps);
        }
        assert!(fig.avg_improvement() > 0.10, "improvement {:.3}", fig.avg_improvement());
    }
}
