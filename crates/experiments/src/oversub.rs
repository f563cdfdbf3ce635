//! Oversubscription: Mosaic vs GPU-MMU when the working set exceeds GPU
//! memory and the demand-paging engine must evict, write back, and
//! prefetch (Section 2.2's far-fault machinery under real pressure).
//!
//! Each workload runs fully resident once per manager (the normalization
//! baseline), then at each oversubscription factor: GPU memory is shrunk
//! to `reservation ÷ factor`, so every factor above 1 forces LRU frame
//! eviction with dirty-page write-back over the I/O bus. Reported values
//! are oversubscribed performance normalized to the fully-resident run
//! of the same manager (≤ 1; lower is worse), plus the Mosaic-to-GPU-MMU
//! ratio at each point.

use crate::common::Scope;
use crate::sweep::Sweep;
use mosaic_gpusim::ManagerKind;
use mosaic_workloads::Workload;
use std::fmt;

/// The fixed pair probed at every scope: MM streams sequentially
/// (prefetch-friendly), GUPS scatters randomly (eviction-hostile).
const WORKLOADS: [&str; 2] = ["MM", "GUPS"];

/// One workload at one oversubscription factor.
#[derive(Debug, Clone, PartialEq)]
pub struct OversubRow {
    /// Workload name.
    pub name: String,
    /// Oversubscription factor (working set ÷ GPU memory).
    pub factor: f64,
    /// GPU-MMU performance normalized to its fully-resident run.
    pub norm_gpu_mmu: f64,
    /// Mosaic performance normalized to its fully-resident run.
    pub norm_mosaic: f64,
    /// Pages evicted across the two oversubscribed runs of this row.
    pub evictions: u64,
    /// Bytes written back across the two oversubscribed runs.
    pub writeback_bytes: u64,
}

impl OversubRow {
    /// Mosaic's normalized performance relative to GPU-MMU's at this
    /// point (> 1 when Mosaic degrades more gracefully).
    pub fn mosaic_vs_gpu_mmu(&self) -> f64 {
        if self.norm_gpu_mmu == 0.0 {
            0.0
        } else {
            self.norm_mosaic / self.norm_gpu_mmu
        }
    }
}

/// The oversubscription series.
#[derive(Debug, Clone, PartialEq)]
pub struct FigOversub {
    /// One row per (workload, factor), workload-major.
    pub rows: Vec<OversubRow>,
}

impl FigOversub {
    /// Total pages evicted across every oversubscribed run.
    pub fn total_evictions(&self) -> u64 {
        self.rows.iter().map(|r| r.evictions).sum()
    }

    /// Total bytes written back across every oversubscribed run.
    pub fn total_writeback_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.writeback_bytes).sum()
    }
}

/// The factors this scope sweeps.
fn factors(scope: Scope) -> &'static [f64] {
    match scope {
        Scope::Smoke => &[1.5, 2.0],
        _ => &[1.5, 2.0, 3.0, 4.0],
    }
}

/// Runs the experiment.
pub fn run(sweep: &Sweep) -> FigOversub {
    let scope = sweep.scope;
    let factors = factors(scope);
    // Per workload: one fully-resident baseline per manager, then both
    // managers at each factor — `2 + 2 * factors` jobs, workload-major.
    let jobs: Vec<_> = WORKLOADS
        .iter()
        .flat_map(|name| {
            let w = Workload::from_names(&[name]);
            let mut jobs = vec![
                (w.clone(), scope.config(ManagerKind::GpuMmu4K)),
                (w.clone(), scope.config(ManagerKind::mosaic())),
            ];
            for &f in factors {
                jobs.push((w.clone(), scope.config(ManagerKind::GpuMmu4K).oversubscribed(f)));
                jobs.push((w.clone(), scope.config(ManagerKind::mosaic()).oversubscribed(f)));
            }
            jobs
        })
        .collect();
    let results = sweep.run_workloads(jobs);
    let per_workload = 2 + 2 * factors.len();
    let mut rows = Vec::with_capacity(WORKLOADS.len() * factors.len());
    for (name, chunk) in WORKLOADS.iter().zip(results.chunks_exact(per_workload)) {
        let (base_gpu_mmu, base_mosaic) = (&chunk[0], &chunk[1]);
        for (fi, &factor) in factors.iter().enumerate() {
            let (over_gpu_mmu, over_mosaic) = (&chunk[2 + 2 * fi], &chunk[3 + 2 * fi]);
            rows.push(OversubRow {
                name: name.to_string(),
                factor,
                norm_gpu_mmu: base_gpu_mmu.total_cycles as f64 / over_gpu_mmu.total_cycles as f64,
                norm_mosaic: base_mosaic.total_cycles as f64 / over_mosaic.total_cycles as f64,
                evictions: over_gpu_mmu.stats.manager.evictions
                    + over_mosaic.stats.manager.evictions,
                writeback_bytes: over_gpu_mmu.stats.manager.writeback_bytes
                    + over_mosaic.stats.manager.writeback_bytes,
            });
        }
    }
    FigOversub { rows }
}

impl fmt::Display for FigOversub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Oversubscription: performance normalized to fully-resident, per manager")?;
        writeln!(
            f,
            "{:<10} {:>6} {:>9} {:>9} {:>9} {:>10} {:>9}",
            "workload", "ws/mem", "GPU-MMU", "Mosaic", "ratio", "evictions", "wb-MB"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>5.1}x {:>9.3} {:>9.3} {:>9.3} {:>10} {:>9.1}",
                r.name,
                r.factor,
                r.norm_gpu_mmu,
                r.norm_mosaic,
                r.mosaic_vs_gpu_mmu(),
                r.evictions,
                r.writeback_bytes as f64 / (1024.0 * 1024.0)
            )?;
        }
        writeln!(
            f,
            "eviction engine: {} pages evicted, {:.1} MB written back across the sweep.",
            self.total_evictions(),
            self.total_writeback_bytes() as f64 / (1024.0 * 1024.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscribed_sweep_evicts_and_completes() {
        let fig = run(&Sweep::new(Scope::Smoke));
        assert_eq!(fig.rows.len(), WORKLOADS.len() * factors(Scope::Smoke).len());
        assert!(fig.total_evictions() > 0, "pressure must trigger eviction somewhere");
        assert!(fig.total_writeback_bytes() > 0, "dirty pages must write back somewhere");
        for r in &fig.rows {
            assert!(r.norm_gpu_mmu > 0.0 && r.norm_mosaic > 0.0, "{} completes", r.name);
            // Paging under pressure can only cost (within rounding noise
            // from the large-frame memory granularity).
            assert!(r.norm_gpu_mmu < 1.1, "{}@{}x: {}", r.name, r.factor, r.norm_gpu_mmu);
            assert!(r.norm_mosaic < 1.1, "{}@{}x: {}", r.name, r.factor, r.norm_mosaic);
        }
        let text = fig.to_string();
        assert!(text.contains("GUPS"));
        assert!(text.contains("evicted"));
    }

    #[test]
    fn deeper_oversubscription_never_helps_gups() {
        let fig = run(&Sweep::new(Scope::Smoke));
        let gups: Vec<&OversubRow> = fig.rows.iter().filter(|r| r.name == "GUPS").collect();
        assert!(gups.len() >= 2);
        // GUPS's random scatter has no reuse to spare: more pressure means
        // at least as much paging traffic.
        let first = &gups[0];
        let last = gups.last().unwrap();
        assert!(last.evictions >= first.evictions, "pressure scales eviction volume");
    }
}
