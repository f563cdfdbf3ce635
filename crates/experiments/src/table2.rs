//! Table 2: memory bloat of Mosaic under full fragmentation, as a
//! function of the pre-fragmented frames' occupancy.
//!
//! With every large frame pre-fragmented (index 100%), Mosaic must place
//! application data into the holes of fragmented frames; CAC's compaction
//! keeps the resulting footprint close to what a 4 KB-only manager would
//! allocate. The paper reports bloat shrinking from 10.66% at 1%
//! occupancy to 2.22% at 75%.

use crate::common::Scope;
use crate::sweep::Sweep;
use mosaic_core::cac::CacConfig;
use mosaic_gpusim::ManagerKind;
use mosaic_workloads::Workload;
use std::fmt;

/// One occupancy point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BloatPoint {
    /// Large-frame occupancy of the pre-fragmented data.
    pub occupancy: f64,
    /// Mosaic's memory bloat relative to the 4 KB-only footprint
    /// (`app_footprint / touched − 1`).
    pub bloat: f64,
}

/// The Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// One point per occupancy level.
    pub points: Vec<BloatPoint>,
}

/// Runs the experiment.
pub fn run(sweep: &Sweep) -> Table2 {
    let scope = sweep.scope;
    let occupancies: &[f64] =
        if scope == Scope::Smoke { &[0.10, 0.50] } else { &[0.01, 0.10, 0.25, 0.35, 0.50, 0.75] };
    let w = Workload::from_names(&["HS", "CONS"]);
    let ws_total: u64 = w.apps.iter().map(|p| scope.scale().ws_bytes(p)).sum();
    let jobs: Vec<_> = occupancies
        .iter()
        .map(|&occ| {
            let mut cfg = scope.config(ManagerKind::Mosaic(CacConfig::default()));
            // Memory must fit the applications beside the fragmented data.
            cfg.system.memory_bytes =
                ((ws_total as f64 * (2.0 + 10.0 * occ)) as u64).max(64 * 1024 * 1024);
            cfg.fragmentation = Some((1.0, occ));
            (w.clone(), cfg)
        })
        .collect();
    let results = sweep.run_workloads(jobs);
    let points = occupancies
        .iter()
        .zip(&results)
        .map(|(&occ, r)| {
            let touched = r.stats.touched_bytes.max(1);
            let bloat = r.stats.app_footprint_bytes as f64 / touched as f64 - 1.0;
            BloatPoint { occupancy: occ, bloat }
        })
        .collect();
    Table2 { points }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2: Mosaic memory bloat at 100% fragmentation index")?;
        write!(f, "occupancy: ")?;
        for p in &self.points {
            write!(f, "{:>8.0}%", p.occupancy * 100.0)?;
        }
        writeln!(f)?;
        write!(f, "bloat:     ")?;
        for p in &self.points {
            write!(f, "{:>8.2}%", p.bloat * 100.0)?;
        }
        writeln!(f)?;
        writeln!(f, "paper:        10.66%    7.56%    7.20%    5.22%    3.37%    2.22%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloat_is_bounded_and_reported() {
        let t = run(&Sweep::new(Scope::Smoke));
        assert_eq!(t.points.len(), 2);
        for p in &t.points {
            assert!(p.bloat >= -0.01, "bloat cannot be negative: {:.3}", p.bloat);
            assert!(p.bloat < 2.0, "bloat should stay bounded with CAC: {:.3}", p.bloat);
        }
    }
}
