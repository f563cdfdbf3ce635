//! Figure 12: GPU-MMU and Mosaic *with* demand paging, compared against
//! GPU-MMU *without* demand paging (all data staged to GPU memory before
//! the kernels start).
//!
//! The paper: Mosaic with paging beats even the no-paging GPU-MMU
//! baseline (+58.5% homogeneous, +47.5% heterogeneous), and demand paging
//! itself has little impact on the weighted speedup — the transfer cost
//! exists either way.

use crate::common::{fmt_row, mean, Scope};
use crate::sweep::Sweep;
use mosaic_gpusim::{weighted_speedup, ManagerKind, RunConfig};
use mosaic_workloads::Workload;
use std::fmt;

/// One workload group's bars.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// Group label ("homogeneous" / "heterogeneous").
    pub group: String,
    /// GPU-MMU with paging, normalized to GPU-MMU without paging.
    pub gpu_mmu_paging: f64,
    /// Mosaic with paging, normalized to GPU-MMU without paging.
    pub mosaic_paging: f64,
}

/// The Figure 12 bars.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12 {
    /// Homogeneous and heterogeneous rows.
    pub groups: Vec<GroupRow>,
}

fn group(sweep: &Sweep, label: &str, workloads: Vec<(Workload, RunConfig)>) -> GroupRow {
    // Three jobs per workload: the no-paging reference, the with-paging
    // baseline, and Mosaic. The preloaded run folds against the
    // with-paging config's baselines, so both GPU-MMU ratios share one
    // set of denominators.
    let mosaic_cfg = sweep.scope.config(ManagerKind::mosaic());
    let baseline_runs: Vec<_> = workloads
        .iter()
        .flat_map(|(w, base_cfg)| [(w.clone(), *base_cfg), (w.clone(), mosaic_cfg)])
        .collect();
    let jobs: Vec<_> = workloads
        .iter()
        .flat_map(|(w, base_cfg)| {
            [(w.clone(), base_cfg.preloaded()), (w.clone(), *base_cfg), (w.clone(), mosaic_cfg)]
        })
        .collect();
    let alone = sweep.alone_baselines(&baseline_runs);
    let results = sweep.run_workloads(jobs);

    let mut g_ratio = Vec::new();
    let mut m_ratio = Vec::new();
    for (chunk, alone) in results.chunks_exact(3).zip(alone.chunks_exact(2)) {
        let ws_no_paging = weighted_speedup(&chunk[0], &alone[0]);
        let ws_paging = weighted_speedup(&chunk[1], &alone[0]);
        let ws_mosaic = weighted_speedup(&chunk[2], &alone[1]);
        g_ratio.push(ws_paging / ws_no_paging);
        m_ratio.push(ws_mosaic / ws_no_paging);
    }
    GroupRow {
        group: label.to_string(),
        gpu_mmu_paging: mean(&g_ratio),
        mosaic_paging: mean(&m_ratio),
    }
}

/// Runs the experiment.
pub fn run(sweep: &Sweep) -> Fig12 {
    let scope = sweep.scope;
    let levels = if scope == Scope::Smoke { 2 } else { 4 };
    let base = scope.config(ManagerKind::GpuMmu4K);
    let homog: Vec<_> =
        (2..=levels).flat_map(|n| scope.homogeneous(n)).map(|w| (w, base)).collect();
    let heter: Vec<_> =
        (2..=levels).flat_map(|n| scope.heterogeneous(n)).map(|w| (w, base)).collect();
    Fig12 { groups: vec![group(sweep, "homogeneous", homog), group(sweep, "heterogeneous", heter)] }
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 12: normalized to GPU-MMU WITHOUT demand paging")?;
        writeln!(f, "{:<24} {:>8} {:>8}", "group", "GPU-MMU", "Mosaic")?;
        for g in &self.groups {
            writeln!(f, "{}", fmt_row(&g.group, &[g.gpu_mmu_paging, g.mosaic_paging]))?;
        }
        writeln!(
            f,
            "paper: Mosaic-with-paging beats no-paging GPU-MMU by 58.5% (homog.) / 47.5% (heterog.);\n\
             demand paging itself costs GPU-MMU little."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mosaic_with_paging_beats_gpu_mmu_without() {
        let fig = run(&Sweep::new(Scope::Smoke));
        assert_eq!(fig.groups.len(), 2);
        for g in &fig.groups {
            assert!(
                g.mosaic_paging > g.gpu_mmu_paging,
                "{}: mosaic {:.2} vs gpu-mmu {:.2}",
                g.group,
                g.mosaic_paging,
                g.gpu_mmu_paging
            );
            assert!(g.mosaic_paging > 1.0, "{}: {:.2}", g.group, g.mosaic_paging);
        }
    }
}
