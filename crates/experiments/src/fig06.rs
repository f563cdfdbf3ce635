//! Figure 6: the cost of one coalescing operation — the state-of-the-art
//! baseline vs Mosaic's In-Place Coalescer.
//!
//! The baseline must (1) migrate the chosen base pages into a free large
//! frame over the DRAM channel, (2) update the PTEs, and (3) issue a full
//! TLB shootdown during which the SMs stall. Mosaic's coalesce is a
//! page-table-bit update: no data movement, no flush, no SM stalls.
//!
//! This driver reconstructs both timelines on the DRAM model and reports
//! DRAM-channel busy time and SM stall time for coalescing one 2 MB
//! region (512 base pages).

use crate::sweep::Sweep;
use mosaic_mem::{Dram, DramConfig};
use mosaic_sim_core::Cycle;
use mosaic_vm::BASE_PAGES_PER_LARGE_PAGE;
use std::fmt;

/// Cycles a full-TLB shootdown stalls the GPU in the baseline timeline
/// (matches the simulator's baseline-coalescing model).
pub const TLB_FLUSH_STALL: u64 = 1_000;

/// Cost of one coalescing operation under one design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceCost {
    /// Cycles the DRAM channel is kept busy.
    pub dram_busy_cycles: u64,
    /// Cycles the SMs are stalled.
    pub sm_stall_cycles: u64,
    /// Page-table entries written.
    pub pte_updates: u64,
}

/// The Figure 6 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig06 {
    /// The migrating baseline (Figure 6a).
    pub baseline: CoalesceCost,
    /// Mosaic's In-Place Coalescer (Figure 6b).
    pub mosaic: CoalesceCost,
}

/// Runs the microbenchmark.
pub fn run(_sweep: &Sweep) -> Fig06 {
    // Baseline: migrate 512 base pages into a large frame over one DRAM
    // channel (narrow 64-bit copies), then write 512 L4 + 1 L3 PTEs, then
    // flush the TLBs while the SMs stall.
    let mut dram = Dram::new(DramConfig::paper());
    let mut t = Cycle::ZERO;
    for _ in 0..BASE_PAGES_PER_LARGE_PAGE {
        t = dram.narrow_page_copy(t, 0);
    }
    let migration = t.as_u64();
    // PTE updates: one line-sized access per 16 PTEs (128 B lines).
    let pte_updates = BASE_PAGES_PER_LARGE_PAGE + 1;
    let mut pte_t = t;
    for i in 0..pte_updates.div_ceil(16) {
        pte_t = dram.access(pte_t, 0x40_0000 + i * 128);
    }
    let baseline = CoalesceCost {
        dram_busy_cycles: pte_t.as_u64(),
        sm_stall_cycles: migration + TLB_FLUSH_STALL,
        pte_updates,
    };

    // Mosaic: the same PTE updates, nothing else; no flush, no stalls.
    let mut dram2 = Dram::new(DramConfig::paper());
    let mut t2 = Cycle::ZERO;
    for i in 0..pte_updates.div_ceil(16) {
        t2 = dram2.access(t2, 0x40_0000 + i * 128);
    }
    let mosaic = CoalesceCost { dram_busy_cycles: t2.as_u64(), sm_stall_cycles: 0, pte_updates };
    Fig06 { baseline, mosaic }
}

impl fmt::Display for Fig06 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 6: cost of coalescing one 2MB region (512 base pages)")?;
        writeln!(
            f,
            "{:<12} {:>14} {:>14} {:>12}",
            "design", "DRAM busy cy", "SM stall cy", "PTE writes"
        )?;
        writeln!(
            f,
            "{:<12} {:>14} {:>14} {:>12}",
            "baseline",
            self.baseline.dram_busy_cycles,
            self.baseline.sm_stall_cycles,
            self.baseline.pte_updates
        )?;
        writeln!(
            f,
            "{:<12} {:>14} {:>14} {:>12}",
            "Mosaic",
            self.mosaic.dram_busy_cycles,
            self.mosaic.sm_stall_cycles,
            self.mosaic.pte_updates
        )?;
        writeln!(
            f,
            "paper: Mosaic coalesces with PTE updates only — no data movement, no TLB flush,\n\
             no SM stalls. measured DRAM-busy ratio: {:.0}x",
            self.baseline.dram_busy_cycles as f64 / self.mosaic.dram_busy_cycles.max(1) as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    #[test]
    fn mosaic_coalesce_is_orders_of_magnitude_cheaper() {
        let fig = run(&Sweep::new(Scope::Smoke));
        assert!(fig.baseline.dram_busy_cycles > 50 * fig.mosaic.dram_busy_cycles);
        assert_eq!(fig.mosaic.sm_stall_cycles, 0, "no flush, no stalls");
        assert!(fig.baseline.sm_stall_cycles > 0);
        assert_eq!(fig.baseline.pte_updates, fig.mosaic.pte_updates);
    }
}
