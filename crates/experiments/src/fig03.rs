//! Figure 3: performance of GPU-MMU with 4 KB base pages vs 2 MB large
//! pages, with **no demand-paging overhead**, normalized to an ideal TLB.
//!
//! The paper's observations: the 4 KB configuration loses 48.1% on
//! average against the ideal TLB, while the 2 MB configuration comes
//! within ~2% of it — the motivation for wanting large pages for address
//! translation.

use crate::common::{fmt_row, mean};
use crate::sweep::Sweep;
use mosaic_gpusim::ManagerKind;
use mosaic_workloads::Workload;
use std::fmt;

/// One application's normalized performance under the two page sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRow {
    /// Application name.
    pub name: String,
    /// 4 KB performance normalized to ideal TLB (≤ ~1).
    pub norm_4k: f64,
    /// 2 MB performance normalized to ideal TLB (≈ 1).
    pub norm_2m: f64,
}

/// The Figure 3 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig03 {
    /// Per-application rows.
    pub rows: Vec<AppRow>,
    /// Average normalized performance with 4 KB pages.
    pub avg_4k: f64,
    /// Average normalized performance with 2 MB pages.
    pub avg_2m: f64,
}

/// Runs the experiment.
pub fn run(sweep: &Sweep) -> Fig03 {
    let scope = sweep.scope;
    let apps = scope.apps();
    // Three jobs per application: ideal-TLB, 4 KB, and 2 MB runs, all
    // with "no demand paging overhead" (everything resident up front).
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|profile| {
            let w = Workload { name: profile.name.to_string(), apps: vec![profile] };
            [
                (w.clone(), scope.config(ManagerKind::GpuMmu4K).preloaded().ideal_tlb()),
                (w.clone(), scope.config(ManagerKind::GpuMmu4K).preloaded()),
                (w, scope.config(ManagerKind::GpuMmu2M).preloaded()),
            ]
        })
        .collect();
    let results = sweep.run_workloads(jobs);
    let rows: Vec<AppRow> = apps
        .iter()
        .zip(results.chunks_exact(3))
        .map(|(profile, runs)| AppRow {
            name: profile.name.to_string(),
            norm_4k: runs[0].total_cycles as f64 / runs[1].total_cycles as f64,
            norm_2m: runs[0].total_cycles as f64 / runs[2].total_cycles as f64,
        })
        .collect();
    let avg_4k = mean(&rows.iter().map(|r| r.norm_4k).collect::<Vec<_>>());
    let avg_2m = mean(&rows.iter().map(|r| r.norm_2m).collect::<Vec<_>>());
    Fig03 { rows, avg_4k, avg_2m }
}

impl fmt::Display for Fig03 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 3: page size vs ideal TLB (no demand paging overhead)")?;
        writeln!(f, "{:<24} {:>8} {:>8}", "application", "4KB", "2MB")?;
        for r in &self.rows {
            writeln!(f, "{}", fmt_row(&r.name, &[r.norm_4k, r.norm_2m]))?;
        }
        writeln!(f, "{}", fmt_row("AVERAGE", &[self.avg_4k, self.avg_2m]))?;
        writeln!(
            f,
            "paper: 4KB loses 48.1% on average vs ideal; 2MB comes within ~2%.\n\
             measured: 4KB loses {:.1}%; 2MB loses {:.1}%.",
            (1.0 - self.avg_4k) * 100.0,
            (1.0 - self.avg_2m) * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    #[test]
    fn shape_matches_paper() {
        let fig = run(&Sweep::new(Scope::Smoke));
        assert!(fig.rows.len() >= 5);
        // 2MB pages must essentially close the translation gap...
        assert!(fig.avg_2m > 0.9, "2MB avg {:.3}", fig.avg_2m);
        // ...while 4KB pages leave a substantial gap.
        assert!(fig.avg_4k < 0.8, "4KB avg {:.3}", fig.avg_4k);
        assert!(fig.avg_2m > fig.avg_4k);
        // Display renders every application plus the average row.
        let text = fig.to_string();
        assert!(text.contains("AVERAGE"));
    }
}
