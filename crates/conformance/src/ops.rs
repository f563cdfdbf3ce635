//! Op schedules: the stimulus language the fuzzer generates, the harness
//! replays, and the shrinker minimizes.
//!
//! Every op is self-contained (absolute pages, frames, and counts, no
//! implicit cursor state), so *any subsequence* of a schedule is itself a
//! valid schedule — the property the delta-debugging shrinker relies on.
//! The `Debug` rendering of each op is a valid Rust expression body, which
//! is what makes the emitted repros copy-pasteable.

use crate::harness::{MgrKind, VmConfigKind};
use mosaic_sim_core::SimRng;

/// Number of 2 MB regions the VM-suite generator works within.
const VM_REGIONS: u64 = 3;
/// Number of large frames the VM-suite generator maps into.
const VM_FRAMES: u64 = 4;
/// Address spaces exercised by TLB ops.
const VM_ASIDS: u16 = 3;
/// Pages per 2 MB region.
const PAGES: u64 = mosaic_vm::BASE_PAGES_PER_LARGE_PAGE;

/// One step of a VM-suite schedule, driving a page table and a TLB in
/// lockstep with their oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmOp {
    /// Map base page `vpn` to base frame `pfn`.
    Map {
        /// Virtual base page number.
        vpn: u64,
        /// Physical base frame number.
        pfn: u64,
    },
    /// Map all 512 pages of region `lpn` contiguously into frame `lf`
    /// (already-mapped slots are left alone) — the only way random
    /// schedules reach coalescible states.
    MapRegion {
        /// Large page number.
        lpn: u64,
        /// Large frame number.
        lf: u64,
    },
    /// Unmap base page `vpn`.
    Unmap {
        /// Virtual base page number.
        vpn: u64,
    },
    /// Attempt to coalesce region `lpn`.
    Coalesce {
        /// Large page number.
        lpn: u64,
    },
    /// Splinter region `lpn`; a successful splinter flushes the TLB's
    /// large entry, as the real system must.
    Splinter {
        /// Large page number.
        lpn: u64,
    },
    /// Translate page `vpn` and, on success, fill the TLB with the
    /// resulting entry (the walker's fill path).
    Translate {
        /// Virtual base page number.
        vpn: u64,
    },
    /// Probe the TLB (with a side-effect-free peek cross-check first).
    Lookup {
        /// Address space.
        asid: u16,
        /// Virtual base page number probed.
        page: u64,
    },
    /// Fill a TLB entry directly, comparing eviction notifications.
    Fill {
        /// Address space.
        asid: u16,
        /// Virtual base page number filled.
        page: u64,
        /// Fill the large array instead of the base array.
        large: bool,
    },
    /// Invalidate the large entry covering `page`.
    FlushLarge {
        /// Address space.
        asid: u16,
        /// Virtual base page number.
        page: u64,
    },
    /// Invalidate the base entry covering `page`.
    FlushBase {
        /// Address space.
        asid: u16,
        /// Virtual base page number.
        page: u64,
    },
    /// Full shootdown of one 2 MB region: invalidate its large entry,
    /// then every one of its 512 base entries. Most of those base slots
    /// hold nothing, so the sweep leans hard on the TLB's one-pass range
    /// flush and its per-ASID live-count short-circuit.
    Shootdown {
        /// Address space.
        asid: u16,
        /// Large page number swept.
        lpn: u64,
    },
}

/// One step of a manager-suite schedule, driving a full memory manager
/// against the frame ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgrOp {
    /// En-masse virtual reservation.
    Reserve {
        /// Address space.
        asid: u16,
        /// First base page.
        start: u64,
        /// Base pages reserved.
        pages: u64,
    },
    /// Demand-touch one page.
    Touch {
        /// Address space.
        asid: u16,
        /// Base page touched.
        vpn: u64,
    },
    /// Demand-touch a contiguous run of pages.
    TouchRange {
        /// Address space.
        asid: u16,
        /// First base page.
        start: u64,
        /// Pages touched in order.
        pages: u64,
    },
    /// Deallocate a contiguous run of pages.
    Dealloc {
        /// Address space.
        asid: u16,
        /// First base page.
        start: u64,
        /// Pages deallocated.
        pages: u64,
    },
    /// Store to one page: marks it recently used and dirty when
    /// resident, and is a no-op otherwise (the fault path is `Touch`'s
    /// job), so any subsequence stays valid.
    Store {
        /// Address space.
        asid: u16,
        /// Base page stored to.
        vpn: u64,
    },
    /// Demand eviction: free at least `bytes` of physical memory,
    /// least-recently-used large frames first, writing dirty pages back.
    Evict {
        /// Bytes of physical memory to free.
        bytes: u64,
    },
}

/// A generated VM-suite case: a TLB geometry plus an op schedule.
#[derive(Debug, Clone)]
pub struct VmCase {
    /// TLB geometry under test.
    pub config: VmConfigKind,
    /// The schedule.
    pub ops: Vec<VmOp>,
}

/// A generated manager-suite case: a manager flavor, a pool size, and an
/// op schedule.
#[derive(Debug, Clone)]
pub struct MgrCase {
    /// Manager flavor under test.
    pub kind: MgrKind,
    /// Physical memory, in 2 MB frames.
    pub frames: u64,
    /// The schedule.
    pub ops: Vec<MgrOp>,
}

fn vm_page(rng: &mut SimRng) -> u64 {
    // Bias toward region boundaries and low slots so coalesce/flush ops
    // interact with the pages Map/MapRegion actually placed.
    let lpn = rng.below(VM_REGIONS);
    let slot = match rng.weighted(&[3, 2, 1]) {
        0 => rng.below(8),
        1 => PAGES - 1 - rng.below(8),
        _ => rng.below(PAGES),
    };
    lpn * PAGES + slot
}

/// Generates one VM-suite op.
fn vm_op(rng: &mut SimRng) -> VmOp {
    let asid = rng.below(u64::from(VM_ASIDS)) as u16;
    match rng.weighted(&[5, 1, 3, 2, 2, 4, 4, 4, 2, 2, 2]) {
        0 => VmOp::Map { vpn: vm_page(rng), pfn: rng.below(VM_FRAMES * PAGES) },
        1 => VmOp::MapRegion { lpn: rng.below(VM_REGIONS), lf: rng.below(VM_FRAMES) },
        2 => VmOp::Unmap { vpn: vm_page(rng) },
        3 => VmOp::Coalesce { lpn: rng.below(VM_REGIONS) },
        4 => VmOp::Splinter { lpn: rng.below(VM_REGIONS) },
        5 => VmOp::Translate { vpn: vm_page(rng) },
        6 => VmOp::Lookup { asid, page: vm_page(rng) },
        7 => VmOp::Fill { asid, page: vm_page(rng), large: rng.chance(0.4) },
        8 => VmOp::FlushLarge { asid, page: vm_page(rng) },
        9 => VmOp::FlushBase { asid, page: vm_page(rng) },
        _ => VmOp::Shootdown { asid, lpn: rng.below(VM_REGIONS) },
    }
}

/// Generates the VM-suite case for `(seed, index)`. Deterministic: the
/// same pair always yields the same case.
pub fn gen_vm_case(seed: u64, index: u64, max_ops: usize) -> VmCase {
    let mut rng = SimRng::from_seed(seed).fork("conformance-vm", index);
    let config = match index % 3 {
        0 => VmConfigKind::Tiny,
        1 => VmConfigKind::PaperL1,
        _ => VmConfigKind::PaperL2,
    };
    let len = rng.below(max_ops.max(1) as u64) as usize + 1;
    VmCase { config, ops: (0..len).map(|_| vm_op(&mut rng)).collect() }
}

/// Number of 2 MB regions per app in the manager-suite universe.
const MGR_REGIONS: u64 = 3;
/// Address spaces exercised by manager ops.
const MGR_ASIDS: u16 = 2;

/// Generates one manager-suite op.
fn mgr_op(rng: &mut SimRng) -> MgrOp {
    let asid = rng.below(u64::from(MGR_ASIDS)) as u16;
    let span = MGR_REGIONS * PAGES;
    match rng.weighted(&[2, 6, 3, 4, 3, 2]) {
        0 => {
            // Half the reservations are chunk-aligned whole regions (the
            // en-masse cudaMalloc pattern CoCoA optimizes), half are
            // arbitrary runs that force the unaligned base-page path.
            if rng.chance(0.5) {
                let lpn = rng.below(MGR_REGIONS);
                MgrOp::Reserve { asid, start: lpn * PAGES, pages: PAGES }
            } else {
                let start = rng.below(span);
                MgrOp::Reserve { asid, start, pages: rng.below(200) + 1 }
            }
        }
        1 => MgrOp::Touch { asid, vpn: rng.below(span) },
        2 => {
            let start = rng.below(span);
            MgrOp::TouchRange { asid, start, pages: rng.below(PAGES) + 1 }
        }
        3 => {
            let start = rng.below(span);
            MgrOp::Dealloc { asid, start, pages: rng.below(PAGES) + 1 }
        }
        4 => MgrOp::Store { asid, vpn: rng.below(span) },
        _ => {
            // From sub-frame requests (rounded up to one frame) to enough
            // pressure to empty most of a small pool.
            MgrOp::Evict { bytes: rng.below(2 * mosaic_vm::LARGE_PAGE_SIZE) + 1 }
        }
    }
}

/// Generates the manager-suite case for `(seed, index)`.
pub fn gen_mgr_case(seed: u64, index: u64, max_ops: usize) -> MgrCase {
    let mut rng = SimRng::from_seed(seed).fork("conformance-mgr", index);
    let kind = *rng.pick(&[
        MgrKind::MosaicDefault,
        MgrKind::MosaicBulk,
        MgrKind::MosaicIdeal,
        MgrKind::MosaicNoCac,
        MgrKind::GpuMmuBase,
        MgrKind::GpuMmuLarge,
        MgrKind::Migrating,
    ]);
    let frames = 2 + rng.below(3) * 2; // 2, 4, or 6 frames: pressure is the point
    let len = rng.below(max_ops.max(1) as u64) as usize + 1;
    MgrCase { kind, frames, ops: (0..len).map(|_| mgr_op(&mut rng)).collect() }
}

/// Renders a minimized VM-suite failure as a copy-pasteable Rust test
/// body.
pub fn render_vm_repro(
    config: VmConfigKind,
    ops: &[VmOp],
    mutation: crate::harness::Mutation,
    detail: &str,
) -> String {
    let mut s = String::new();
    s.push_str("// Minimized repro emitted by the conformance shrinker.\n");
    s.push_str("// Paste into crates/conformance/tests/ and adjust the test name.\n");
    s.push_str("#[test]\nfn shrunken_vm_repro() {\n");
    s.push_str("    use mosaic_conformance::{run_vm_case, Mutation, VmConfigKind, VmOp};\n");
    s.push_str("    let ops = vec![\n");
    for op in ops {
        s.push_str(&format!("        VmOp::{op:?},\n"));
    }
    s.push_str("    ];\n");
    s.push_str(&format!(
        "    run_vm_case(VmConfigKind::{config:?}, &ops, Mutation::{mutation:?}).unwrap();\n"
    ));
    s.push_str("}\n");
    s.push_str(&format!("// Original divergence: {detail}\n"));
    s
}

/// Renders a minimized manager-suite failure as a copy-pasteable Rust
/// test body.
pub fn render_mgr_repro(kind: MgrKind, frames: u64, ops: &[MgrOp], detail: &str) -> String {
    let mut s = String::new();
    s.push_str("// Minimized repro emitted by the conformance shrinker.\n");
    s.push_str("// Paste into crates/conformance/tests/ and adjust the test name.\n");
    s.push_str("#[test]\nfn shrunken_mgr_repro() {\n");
    s.push_str("    use mosaic_conformance::{run_mgr_case, MgrKind, MgrOp};\n");
    s.push_str("    let ops = vec![\n");
    for op in ops {
        s.push_str(&format!("        MgrOp::{op:?},\n"));
    }
    s.push_str("    ];\n");
    s.push_str(&format!("    run_mgr_case(MgrKind::{kind:?}, {frames}, &ops).unwrap();\n"));
    s.push_str("}\n");
    s.push_str(&format!("// Original divergence: {detail}\n"));
    s
}
