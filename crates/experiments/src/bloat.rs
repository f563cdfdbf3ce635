//! Section 3.2: memory bloat of 2 MB-only memory management.
//!
//! The paper measures each application in isolation under 4 KB-only and
//! 2 MB-only management and reports how much the allocated physical
//! memory inflates with large pages: 40.2% on average, up to 367% in the
//! worst case. Bloat is internal fragmentation: a 2 MB frame is committed
//! even when the application touches only part of it.

use crate::common::{fmt_row, mean};
use crate::sweep::Sweep;
use mosaic_gpusim::ManagerKind;
use mosaic_workloads::Workload;
use std::fmt;

/// One application's footprints.
#[derive(Debug, Clone, PartialEq)]
pub struct AppBloat {
    /// Application name.
    pub name: String,
    /// Physical bytes committed under 4 KB-only management.
    pub footprint_4k: u64,
    /// Physical bytes committed under 2 MB-only management.
    pub footprint_2m: u64,
    /// Inflation: `footprint_2m / footprint_4k − 1`.
    pub inflation: f64,
}

/// The Section 3.2 measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BloatReport {
    /// Per-application rows.
    pub rows: Vec<AppBloat>,
    /// Average inflation across applications.
    pub avg_inflation: f64,
    /// Worst-case inflation.
    pub max_inflation: f64,
}

/// Runs the experiment.
pub fn run(sweep: &Sweep) -> BloatReport {
    let scope = sweep.scope;
    let profiles = scope.apps();
    // Two jobs per application: 4KB-only then 2MB-only.
    let jobs: Vec<_> = profiles
        .iter()
        .flat_map(|profile| {
            let w = Workload { name: profile.name.to_string(), apps: vec![profile] };
            [
                (w.clone(), scope.config(ManagerKind::GpuMmu4K)),
                (w, scope.config(ManagerKind::GpuMmu2M)),
            ]
        })
        .collect();
    let results = sweep.run_workloads(jobs);
    let mut rows = Vec::new();
    for (profile, pair) in profiles.iter().zip(results.chunks_exact(2)) {
        // 4KB-only management commits exactly the touched pages; compare
        // the bytes each configuration actually committed.
        let f4 = pair[0].stats.touched_bytes.max(1);
        let f2 = pair[1].stats.footprint_bytes;
        rows.push(AppBloat {
            name: profile.name.to_string(),
            footprint_4k: f4,
            footprint_2m: f2,
            inflation: f2 as f64 / f4 as f64 - 1.0,
        });
    }
    let inflations: Vec<f64> = rows.iter().map(|r| r.inflation).collect();
    BloatReport {
        avg_inflation: mean(&inflations),
        max_inflation: inflations.iter().copied().fold(0.0, f64::max),
        rows,
    }
}

impl fmt::Display for BloatReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 3.2: memory bloat of 2MB-only management")?;
        writeln!(f, "{:<24} {:>10} {:>10} {:>8}", "application", "4KB MB", "2MB MB", "bloat%")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<24} {:>10.1} {:>10.1} {:>7.1}%",
                r.name,
                r.footprint_4k as f64 / (1024.0 * 1024.0),
                r.footprint_2m as f64 / (1024.0 * 1024.0),
                r.inflation * 100.0
            )?;
        }
        writeln!(f, "{}", fmt_row("AVG / MAX bloat", &[self.avg_inflation, self.max_inflation]))?;
        writeln!(f, "paper: +40.2% on average, up to +367% worst case.")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    #[test]
    fn large_pages_inflate_memory() {
        let report = run(&Sweep::new(Scope::Smoke));
        assert!(report.avg_inflation > 0.0, "2MB-only must commit more than touched");
        assert!(report.max_inflation >= report.avg_inflation);
        for r in &report.rows {
            assert!(r.footprint_2m >= r.footprint_4k, "{}", r.name);
        }
        assert!(report.to_string().contains("bloat"));
    }
}
