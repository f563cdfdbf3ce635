//! Figure 15: sensitivity of GPU-MMU and Mosaic to the number of
//! **large-page** TLB entries, at L1 (per SM) and L2 (shared).
//!
//! The paper: Mosaic responds to large-page capacity (its coalesced
//! translations live there), though less sharply than to L2 base capacity
//! because each large entry covers 512x more memory; GPU-MMU cannot
//! coalesce, never fills a large entry, and is flat.

use crate::common::Scope;
use crate::fig14::{sweep_tlb, SweepParam, TlbSensitivity};
use crate::sweep::Sweep;

/// Runs the Figure 15 sweeps (large-page entries).
pub fn run(sweep: &Sweep) -> TlbSensitivity {
    let scope = sweep.scope;
    let (l1, l2): (&[usize], &[usize]) = if scope == Scope::Smoke {
        (&[4, 16], &[32, 256])
    } else {
        (&[4, 8, 16, 32, 64], &[32, 64, 128, 256, 512])
    };
    sweep_tlb(
        sweep,
        "Figure 15: large-page TLB entry sensitivity",
        &[(SweepParam::L1Large, l1), (SweepParam::L2Large, l2)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig14::tests::swing;

    #[test]
    fn gpu_mmu_is_flat_in_large_entries() {
        let fig = run(&Sweep::new(Scope::Smoke));
        for s in &fig.sweeps {
            // GPU-MMU never uses large entries: its curve is essentially
            // flat across the sweep.
            assert!(
                swing(&s.gpu_mmu) < 0.05,
                "{:?}: GPU-MMU swing {:.3}",
                s.param,
                swing(&s.gpu_mmu)
            );
            // Mosaic dominates GPU-MMU at every point.
            for (m, g) in s.mosaic.iter().zip(&s.gpu_mmu) {
                assert!(m > g);
            }
        }
    }
}
