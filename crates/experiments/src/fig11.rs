//! Figure 11: sorted per-application IPC of Mosaic and the Ideal TLB,
//! normalized to the same application's IPC under GPU-MMU, across all
//! applications of the heterogeneous workloads.
//!
//! The paper: Mosaic improves 93.6% of the 350 individual applications,
//! with per-application outcomes ranging from 0.66x to 8.6x.

use crate::common::{mean, Scope};
use crate::sweep::Sweep;
use mosaic_gpusim::ManagerKind;
use std::fmt;

/// One concurrency level's sorted curves.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCurves {
    /// Applications per workload.
    pub apps: usize,
    /// Per-application Mosaic IPC normalized to GPU-MMU, ascending.
    pub mosaic: Vec<f64>,
    /// Per-application Ideal-TLB IPC normalized to GPU-MMU, ascending.
    pub ideal: Vec<f64>,
}

/// The Figure 11 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// One curve set per concurrency level (2–5 in the paper).
    pub levels: Vec<LevelCurves>,
}

impl Fig11 {
    /// Fraction of all applications that Mosaic improves (ratio > 1).
    pub fn fraction_improved(&self) -> f64 {
        let all: Vec<f64> = self.levels.iter().flat_map(|l| l.mosaic.iter().copied()).collect();
        if all.is_empty() {
            return 0.0;
        }
        all.iter().filter(|&&x| x > 1.0).count() as f64 / all.len() as f64
    }

    /// Mean per-application Mosaic ratio.
    pub fn mean_ratio(&self) -> f64 {
        let all: Vec<f64> = self.levels.iter().flat_map(|l| l.mosaic.iter().copied()).collect();
        mean(&all)
    }
}

/// Runs the experiment.
pub fn run(sweep: &Sweep) -> Fig11 {
    let scope = sweep.scope;
    let max = if scope == Scope::Smoke { 3 } else { 5 };
    let level_workloads: Vec<(usize, Vec<mosaic_workloads::Workload>)> =
        (2..=max).map(|n| (n, scope.heterogeneous(n))).collect();
    let jobs: Vec<_> = level_workloads
        .iter()
        .flat_map(|(_, ws)| ws.iter())
        .flat_map(|w| {
            [
                (w.clone(), scope.config(ManagerKind::GpuMmu4K)),
                (w.clone(), scope.config(ManagerKind::mosaic())),
                (w.clone(), scope.config(ManagerKind::GpuMmu4K).ideal_tlb()),
            ]
        })
        .collect();
    let results = sweep.run_workloads(jobs);
    let mut runs = results.chunks_exact(3);
    let mut levels = Vec::new();
    for (n, ws) in &level_workloads {
        let mut mosaic = Vec::new();
        let mut ideal = Vec::new();
        for w in ws {
            let chunk = runs.next().expect("three runs per workload");
            let (base, mos, idl) = (&chunk[0], &chunk[1], &chunk[2]);
            for i in 0..w.app_count() {
                let b = base.apps[i].ipc.max(1e-12);
                mosaic.push(mos.apps[i].ipc / b);
                ideal.push(idl.apps[i].ipc / b);
            }
        }
        mosaic.sort_by(f64::total_cmp);
        ideal.sort_by(f64::total_cmp);
        levels.push(LevelCurves { apps: *n, mosaic, ideal });
    }
    Fig11 { levels }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 11: sorted per-application IPC, normalized to GPU-MMU")?;
        for l in &self.levels {
            let quartiles = |xs: &[f64]| -> (f64, f64, f64, f64, f64) {
                let q = |p: f64| xs[((xs.len() - 1) as f64 * p) as usize];
                (q(0.0), q(0.25), q(0.5), q(0.75), q(1.0))
            };
            let (mn, q1, md, q3, mx) = quartiles(&l.mosaic);
            writeln!(
                f,
                "{} apps: Mosaic/GPU-MMU min={mn:.2} q1={q1:.2} med={md:.2} q3={q3:.2} max={mx:.2}  (n={})",
                l.apps,
                l.mosaic.len()
            )?;
        }
        writeln!(
            f,
            "Mosaic improves {:.1}% of individual applications (paper: 93.6%), mean ratio {:.2} (paper: 1.33).",
            self.fraction_improved() * 100.0,
            self.mean_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_applications_improve() {
        let fig = run(&Sweep::new(Scope::Smoke));
        assert!(!fig.levels.is_empty());
        for l in &fig.levels {
            // Curves are sorted ascending.
            assert!(l.mosaic.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(l.mosaic.len(), l.ideal.len());
        }
        assert!(fig.fraction_improved() > 0.5, "improved {:.2}", fig.fraction_improved());
        assert!(fig.mean_ratio() > 1.0);
    }
}
