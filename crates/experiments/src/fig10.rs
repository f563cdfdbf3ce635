//! Figure 10: weighted speedup of 15 selected two-application
//! heterogeneous workloads, split into TLB-friendly and TLB-sensitive
//! classes.
//!
//! TLB-friendly workloads approach the Ideal TLB once Mosaic gives them
//! large pages; TLB-sensitive pairs (e.g. HS–CONS, NW–HISTO in the paper)
//! keep a gap, because one application is highly sensitive to shared L2
//! TLB misses that the other, memory-intensive application keeps
//! inflicting.

use crate::common::Scope;
use crate::sweep::Sweep;
use mosaic_gpusim::{weighted_speedup, ManagerKind};
use mosaic_workloads::Workload;
use std::fmt;

/// The 15 pairs, mixing friendly and sensitive classes (HS–CONS and
/// NW–HISTO are the paper's called-out sensitive examples).
pub const PAIRS: [[&str; 2]; 15] = [
    ["MM", "NN"],
    ["HS", "CONS"],
    ["BLK", "JPEG"],
    ["NW", "HISTO"],
    ["CONS", "SCP"],
    ["GUPS", "MM"],
    ["SAD", "SRAD"],
    ["LPS", "3DS"],
    ["RED", "SCAN"],
    ["FFT", "FWT"],
    ["LUD", "MM"],
    ["MUM", "NN"],
    ["SPMV", "BLK"],
    ["QTC", "RAY"],
    ["BFS2", "SC"],
];

/// One pair's weighted speedups.
#[derive(Debug, Clone, PartialEq)]
pub struct PairRow {
    /// Workload name, e.g. `"HS-CONS"`.
    pub name: String,
    /// Whether either application is TLB-sensitive.
    pub tlb_sensitive: bool,
    /// Weighted speedup under GPU-MMU.
    pub gpu_mmu: f64,
    /// Weighted speedup under Mosaic.
    pub mosaic: f64,
    /// Weighted speedup under the Ideal TLB.
    pub ideal: f64,
}

/// The Figure 10 rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// One row per selected pair.
    pub rows: Vec<PairRow>,
}

impl Fig10 {
    /// Average Mosaic-to-Ideal ratio over one class.
    pub fn avg_mosaic_to_ideal(&self, sensitive: bool) -> f64 {
        let r: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.tlb_sensitive == sensitive)
            .map(|r| r.mosaic / r.ideal)
            .collect();
        crate::common::mean(&r)
    }
}

/// Runs the experiment.
pub fn run(sweep: &Sweep) -> Fig10 {
    let scope = sweep.scope;
    let pairs: &[[&str; 2]] = if scope == Scope::Smoke { &PAIRS[..6] } else { &PAIRS };
    let workloads: Vec<Workload> = pairs.iter().map(|pair| Workload::from_names(pair)).collect();
    let jobs: Vec<_> = workloads
        .iter()
        .flat_map(|w| {
            [
                (w.clone(), scope.config(ManagerKind::GpuMmu4K)),
                (w.clone(), scope.config(ManagerKind::mosaic())),
                (w.clone(), scope.config(ManagerKind::GpuMmu4K).ideal_tlb()),
            ]
        })
        .collect();
    let alone = sweep.alone_baselines(&jobs);
    let results = sweep.run_workloads(jobs);

    let mut rows = Vec::new();
    for (w, (shared_runs, alone_runs)) in
        workloads.iter().zip(results.chunks_exact(3).zip(alone.chunks_exact(3)))
    {
        let mut ws = [0.0f64; 3];
        for (i, (shared, alone)) in shared_runs.iter().zip(alone_runs).enumerate() {
            ws[i] = weighted_speedup(shared, alone);
        }
        rows.push(PairRow {
            name: w.name.clone(),
            tlb_sensitive: w.apps.iter().any(|p| p.tlb_sensitive()),
            gpu_mmu: ws[0],
            mosaic: ws[1],
            ideal: ws[2],
        });
    }
    Fig10 { rows }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 10: selected two-application workloads (weighted speedup)")?;
        writeln!(
            f,
            "{:<16} {:>10} {:>8} {:>8} {:>8}",
            "workload", "class", "GPU-MMU", "Mosaic", "Ideal"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:>10} {:>8.2} {:>8.2} {:>8.2}",
                r.name,
                if r.tlb_sensitive { "sensitive" } else { "friendly" },
                r.gpu_mmu,
                r.mosaic,
                r.ideal
            )?;
        }
        writeln!(
            f,
            "Mosaic reaches {:.0}% of Ideal on TLB-friendly pairs vs {:.0}% on TLB-sensitive ones.",
            self.avg_mosaic_to_ideal(false) * 100.0,
            self.avg_mosaic_to_ideal(true) * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_classes_present_and_mosaic_helps() {
        let fig = run(&Sweep::new(Scope::Smoke));
        assert!(fig.rows.iter().any(|r| r.tlb_sensitive));
        assert!(fig.rows.iter().any(|r| !r.tlb_sensitive));
        // Mosaic improves the average pair.
        let avg_m: f64 =
            crate::common::mean(&fig.rows.iter().map(|r| r.mosaic).collect::<Vec<_>>());
        let avg_g: f64 =
            crate::common::mean(&fig.rows.iter().map(|r| r.gpu_mmu).collect::<Vec<_>>());
        assert!(avg_m > avg_g);
    }
}
