//! Figure 4: performance impact of the system I/O bus transfers during
//! demand paging, for base and large pages, as the number of
//! concurrently-executing applications grows.
//!
//! Everything is normalized to 4 KB pages with **no** demand-paging
//! overhead at the same concurrency level. The paper's observations:
//! 4 KB demand paging costs ~40% for one application and worsens with
//! sharing (−82.3% at five applications); 2 MB demand paging is far worse
//! still (−92.5% vs 4 KB paging at one application, −99.8% at five).

use crate::common::{fmt_row, mean, Scope};
use crate::sweep::Sweep;
use mosaic_gpusim::ManagerKind;
use std::fmt;

/// One concurrency level's bars.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelRow {
    /// Number of concurrently-executing applications.
    pub apps: usize,
    /// 4 KB with demand paging, normalized to 4 KB without.
    pub norm_4k_paging: f64,
    /// 2 MB with demand paging, normalized to 4 KB without.
    pub norm_2m_paging: f64,
}

/// The Figure 4 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig04 {
    /// One row per concurrency level (1–5).
    pub levels: Vec<LevelRow>,
}

/// Runs the experiment.
pub fn run(sweep: &Sweep) -> Fig04 {
    let scope = sweep.scope;
    let max_apps = if scope == Scope::Smoke { 3 } else { 5 };
    let level_workloads: Vec<(usize, Vec<mosaic_workloads::Workload>)> =
        (1..=max_apps).map(|n| (n, scope.homogeneous(n))).collect();
    // Three jobs per workload: no-paging reference, 4 KB paging, 2 MB
    // paging.
    let jobs: Vec<_> = level_workloads
        .iter()
        .flat_map(|(_, ws)| ws.iter())
        .flat_map(|w| {
            [
                (w.clone(), scope.config(ManagerKind::GpuMmu4K).preloaded()),
                (w.clone(), scope.config(ManagerKind::GpuMmu4K)),
                (w.clone(), scope.config(ManagerKind::GpuMmu2M)),
            ]
        })
        .collect();
    let results = sweep.run_workloads(jobs);
    let mut runs = results.chunks_exact(3);
    let mut levels = Vec::new();
    for (n, ws) in &level_workloads {
        let mut n4 = Vec::new();
        let mut n2 = Vec::new();
        for _ in ws {
            let chunk = runs.next().expect("three runs per workload");
            let no_paging = chunk[0].total_cycles;
            n4.push(no_paging as f64 / chunk[1].total_cycles as f64);
            n2.push(no_paging as f64 / chunk[2].total_cycles as f64);
        }
        levels.push(LevelRow { apps: *n, norm_4k_paging: mean(&n4), norm_2m_paging: mean(&n2) });
    }
    Fig04 { levels }
}

impl fmt::Display for Fig04 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 4: demand-paging impact (normalized to 4KB, no paging overhead)")?;
        writeln!(f, "{:<24} {:>8} {:>8}", "apps", "4KB+pg", "2MB+pg")?;
        for l in &self.levels {
            writeln!(
                f,
                "{}",
                fmt_row(&format!("{} app(s)", l.apps), &[l.norm_4k_paging, l.norm_2m_paging])
            )?;
        }
        writeln!(
            f,
            "paper: 2MB paging is far worse than 4KB paging and the gap grows with sharing.\n\
             measured 2MB/4KB paging performance ratio: {}",
            self.levels
                .iter()
                .map(|l| format!("{:.2}", l.norm_2m_paging / l.norm_4k_paging))
                .collect::<Vec<_>>()
                .join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_mb_paging_is_worse_than_4kb_paging() {
        let fig = run(&Sweep::new(Scope::Smoke));
        // 2MB-granularity paging costs real performance...
        let avg_2m = mean(&fig.levels.iter().map(|l| l.norm_2m_paging).collect::<Vec<_>>());
        assert!(avg_2m < 1.0, "2MB paging must cost performance, got {avg_2m:.3}");
        // ...and is worse than 4KB-granularity paging on average (the
        // paper's headline for this figure).
        let avg_4k = mean(&fig.levels.iter().map(|l| l.norm_4k_paging).collect::<Vec<_>>());
        assert!(avg_2m < avg_4k, "2MB {avg_2m:.3} should be worse than 4KB {avg_4k:.3}");
    }
}
