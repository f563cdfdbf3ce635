//! Figure 14: sensitivity of GPU-MMU and Mosaic to the number of
//! **base-page** TLB entries, at L1 (per SM) and L2 (shared).
//!
//! The paper: GPU-MMU's performance moves with base-page capacity at both
//! levels; Mosaic barely notices L1 base capacity (its translations live
//! in large-page entries) but still gains from L2 base capacity, which
//! spares page walks for the pages that stay uncoalesced.

use crate::common::{fmt_row, mean, Scope};
use crate::sweep::Sweep;
use mosaic_gpusim::{ManagerKind, RunConfig};
use std::fmt;

/// Which TLB parameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// Per-SM L1 base-page entries.
    L1Base,
    /// Shared L2 base-page entries.
    L2Base,
    /// Per-SM L1 large-page entries.
    L1Large,
    /// Shared L2 large-page entries.
    L2Large,
}

impl SweepParam {
    fn apply(self, cfg: &mut RunConfig, value: usize) {
        match self {
            SweepParam::L1Base => cfg.system.l1_tlb.base_entries = value,
            SweepParam::L2Base => {
                cfg.system.l2_tlb.base_entries = value;
                // Keep the geometry legal: associativity at most the entry
                // count and dividing it evenly.
                if cfg.system.l2_tlb.base_assoc > value
                    || !value.is_multiple_of(cfg.system.l2_tlb.base_assoc.max(1))
                {
                    cfg.system.l2_tlb.base_assoc = 0;
                }
            }
            SweepParam::L1Large => cfg.system.l1_tlb.large_entries = value,
            SweepParam::L2Large => cfg.system.l2_tlb.large_entries = value,
        }
    }
}

/// One sweep: performance of both managers across the parameter range,
/// normalized to GPU-MMU at the paper's default value.
#[derive(Debug, Clone, PartialEq)]
pub struct TlbSweep {
    /// The varied parameter.
    pub param: SweepParam,
    /// Parameter values.
    pub values: Vec<usize>,
    /// GPU-MMU normalized performance per value.
    pub gpu_mmu: Vec<f64>,
    /// Mosaic normalized performance per value.
    pub mosaic: Vec<f64>,
}

/// The Figure 14 (or 15) sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct TlbSensitivity {
    /// Figure label.
    pub title: String,
    /// The two sweeps (L1 and L2).
    pub sweeps: Vec<TlbSweep>,
}

/// Workloads used for TLB sweeps: a few heterogeneous 3-app mixes.
fn sweep_workloads(scope: Scope) -> Vec<mosaic_workloads::Workload> {
    let take = if scope == Scope::Smoke { 2 } else { 4 };
    scope.heterogeneous(3).into_iter().take(take).collect()
}

pub(crate) fn sweep_tlb(
    sweep: &Sweep,
    title: &str,
    sweeps: &[(SweepParam, &[usize])],
) -> TlbSensitivity {
    let scope = sweep.scope;
    let workloads = sweep_workloads(scope);
    // Normalization baseline: GPU-MMU at paper defaults.
    let base_jobs: Vec<_> =
        workloads.iter().map(|w| (w.clone(), scope.config(ManagerKind::GpuMmu4K))).collect();
    let base_cycles: Vec<f64> =
        sweep.run_workloads(base_jobs).iter().map(|r| r.total_cycles as f64).collect();
    // The full grid: two jobs (GPU-MMU and Mosaic) per (param, value,
    // workload) point.
    let grid_jobs: Vec<_> = sweeps
        .iter()
        .flat_map(|&(param, values)| values.iter().map(move |&v| (param, v)))
        .flat_map(|(param, v)| {
            workloads.iter().flat_map(move |w| {
                let mut g_cfg = scope.config(ManagerKind::GpuMmu4K);
                param.apply(&mut g_cfg, v);
                let mut m_cfg = scope.config(ManagerKind::mosaic());
                param.apply(&mut m_cfg, v);
                [(w.clone(), g_cfg), (w.clone(), m_cfg)]
            })
        })
        .collect();
    let grid = sweep.run_workloads(grid_jobs);

    let mut pairs = grid.chunks_exact(2);
    let mut out = Vec::new();
    for &(param, values) in sweeps {
        let mut gm = Vec::new();
        let mut mo = Vec::new();
        for _ in values {
            let mut per_wl_g = Vec::new();
            let mut per_wl_m = Vec::new();
            for base in &base_cycles {
                let pair = pairs.next().expect("one GPU-MMU/Mosaic pair per grid point");
                per_wl_g.push(base / pair[0].total_cycles as f64);
                per_wl_m.push(base / pair[1].total_cycles as f64);
            }
            gm.push(mean(&per_wl_g));
            mo.push(mean(&per_wl_m));
        }
        out.push(TlbSweep { param, values: values.to_vec(), gpu_mmu: gm, mosaic: mo });
    }
    TlbSensitivity { title: title.to_string(), sweeps: out }
}

/// Runs the Figure 14 sweeps (base-page entries).
pub fn run(sweep: &Sweep) -> TlbSensitivity {
    let scope = sweep.scope;
    let (l1, l2): (&[usize], &[usize]) = if scope == Scope::Smoke {
        (&[8, 128], &[64, 512])
    } else {
        (&[8, 16, 32, 64, 128, 256], &[64, 128, 256, 512, 1024, 4096])
    };
    sweep_tlb(
        sweep,
        "Figure 14: base-page TLB entry sensitivity",
        &[(SweepParam::L1Base, l1), (SweepParam::L2Base, l2)],
    )
}

impl fmt::Display for TlbSensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} (normalized to GPU-MMU at paper defaults)", self.title)?;
        for s in &self.sweeps {
            writeln!(f, "  {:?}: {:?}", s.param, s.values)?;
            writeln!(f, "  {}", fmt_row("GPU-MMU", &s.gpu_mmu))?;
            writeln!(f, "  {}", fmt_row("Mosaic", &s.mosaic))?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Relative swing (max/min − 1) of one series — the sensitivity.
    pub(crate) fn swing(series: &[f64]) -> f64 {
        let mn = series.iter().copied().fold(f64::INFINITY, f64::min);
        let mx = series.iter().copied().fold(0.0, f64::max);
        if mn > 0.0 {
            mx / mn - 1.0
        } else {
            0.0
        }
    }

    #[test]
    fn mosaic_is_insensitive_to_l1_base_entries() {
        let fig = run(&Sweep::new(Scope::Smoke));
        let l1 = &fig.sweeps[0];
        // GPU-MMU cares about base entries more than Mosaic does (the
        // paper's key claim for this figure).
        assert!(
            swing(&l1.mosaic) < swing(&l1.gpu_mmu) + 0.05,
            "mosaic swing {:.3} vs gpu-mmu swing {:.3}",
            swing(&l1.mosaic),
            swing(&l1.gpu_mmu)
        );
        // Mosaic outperforms GPU-MMU everywhere in the sweep.
        for (m, g) in l1.mosaic.iter().zip(&l1.gpu_mmu) {
            assert!(m > g);
        }
    }
}
