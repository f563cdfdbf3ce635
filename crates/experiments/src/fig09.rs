//! Figure 9: weighted speedup of heterogeneous multi-application
//! workloads (2–5 randomly-mixed applications) under GPU-MMU, Mosaic,
//! and the Ideal TLB.
//!
//! The paper: Mosaic improves heterogeneous workloads by 29.7% on average
//! and comes within 15.4% of the Ideal TLB (the gap is larger than for
//! homogeneous workloads because TLB-sensitive applications suffer
//! conflict misses that large pages alone cannot remove).

use crate::common::Scope;
use crate::fig08::{speedup_sweep, SpeedupFigure};
use crate::sweep::Sweep;

/// Runs the Figure 9 sweep.
pub fn run(sweep: &Sweep) -> SpeedupFigure {
    let scope = sweep.scope;
    let max = if scope == Scope::Smoke { 3 } else { 5 };
    speedup_sweep(sweep, "Figure 9: heterogeneous workloads", 2..=max, |n| scope.heterogeneous(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mosaic_improves_heterogeneous_workloads() {
        let fig = run(&Sweep::new(Scope::Smoke));
        assert_eq!(fig.levels.len(), 2);
        for l in &fig.levels {
            assert!(l.apps >= 2);
            assert!(l.mosaic > l.gpu_mmu, "{} apps: {l:?}", l.apps);
        }
        assert!(fig.avg_improvement() > 0.05);
        assert!(fig.to_string().contains("heterogeneous"));
    }
}
