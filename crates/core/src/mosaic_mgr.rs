//! The complete Mosaic memory manager (Section 4, Figure 5).
//!
//! Composes the three components:
//!
//! * **CoCoA** allocates physical memory when an application demands data,
//!   conserving contiguity and the soft guarantee;
//! * the **In-Place Coalescer** coalesces each large page frame the moment
//!   its last base page arrives, with page-table-bit updates only;
//! * **CAC** splinters and compacts internally-fragmented coalesced pages
//!   on deallocation and runs the emergency failsafe when memory runs out.
//!
//! Demand paging always transfers 4 KB base pages over the system I/O bus,
//! while the TLB sees 2 MB entries for every coalesced region — the
//! "best of both page sizes" the paper is built around.

use crate::cac::{Cac, CacConfig};
use crate::coalescer::InPlaceCoalescer;
use crate::cocoa::CoCoA;
use crate::frames::{FragmentReport, FramePool};
use crate::resident::{EvictHooks, ResidentMemory};
use crate::{EvictOutcome, ManagerStats, MemError, MemoryManager, MgmtEvent, TouchOutcome};
use mosaic_sim_core::SimRng;
use mosaic_vm::{
    AppId, LargeFrameNum, LargePageNum, PhysFrameNum, VirtPageNum, BASE_PAGES_PER_LARGE_PAGE,
    BASE_PAGE_SIZE,
};

/// Mosaic configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosaicConfig {
    /// GPU physical memory in bytes (Table 1: 3 GB).
    pub memory_bytes: u64,
    /// DRAM channels (Table 1: 6).
    pub channels: usize,
    /// CAC policy.
    pub cac: CacConfig,
}

impl MosaicConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        MosaicConfig {
            memory_bytes: 3 * 1024 * 1024 * 1024,
            channels: 6,
            cac: CacConfig::default(),
        }
    }

    /// Same, but scaled to `bytes` of physical memory (experiments scale
    /// memory together with working sets to keep simulations tractable).
    pub fn with_memory(bytes: u64) -> Self {
        MosaicConfig { memory_bytes: bytes, ..Self::paper() }
    }
}

/// The Mosaic memory manager.
///
/// # Examples
///
/// ```
/// use mosaic_core::{MosaicManager, MosaicConfig, MemoryManager};
/// use mosaic_vm::{AppId, VirtPageNum, PageSize};
///
/// let mut mosaic = MosaicManager::new(MosaicConfig::with_memory(64 * 2 * 1024 * 1024));
/// mosaic.register_app(AppId(0));
/// mosaic.reserve(AppId(0), VirtPageNum(0), 1024); // en masse, 2 aligned 2MB chunks
///
/// // Touch every page of the first 2MB chunk: each is a 4KB transfer...
/// for i in 0..512 {
///     mosaic.touch(AppId(0), VirtPageNum(i)).unwrap();
/// }
/// // ...and the chunk coalesced itself on the last touch, in place.
/// let t = mosaic.tables().table(AppId(0)).unwrap()
///     .translate(VirtPageNum(17).addr()).unwrap();
/// assert_eq!(t.size, PageSize::Large);
/// ```
#[derive(Debug)]
pub struct MosaicManager {
    config: MosaicConfig,
    mem: ResidentMemory,
    cocoa: CoCoA,
    coalescer: InPlaceCoalescer,
    cac: Cac,
}

/// Besides the page-table teardown every manager does, evicting a frame
/// must scrub CoCoA: any emergency parking of the victim's regions is
/// cancelled, the victim's chunk binding is released, and spare slots
/// that were donated to *any* app's free base page list are pulled back
/// before the frame returns to the pool.
impl EvictHooks for CoCoA {
    fn on_region(&mut self, asid: AppId, lpn: LargePageNum, victim: LargeFrameNum, _: bool) {
        self.unpark_emergency(asid, lpn);
        if self.chunk_frame(asid, lpn) == Some(victim) {
            self.unbind_chunk(asid, lpn);
        }
    }

    fn before_release(&mut self, victim: LargeFrameNum) {
        self.reclaim_frame(victim);
    }
}

impl MosaicManager {
    /// Creates a Mosaic manager.
    pub fn new(config: MosaicConfig) -> Self {
        MosaicManager {
            config,
            mem: ResidentMemory::new(config.memory_bytes, config.channels),
            cocoa: CoCoA::new(),
            coalescer: InPlaceCoalescer::new(),
            cac: Cac::new(config.cac),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MosaicConfig {
        &self.config
    }

    /// Pre-fragments physical memory for the Section 6.4 stress tests.
    /// Call before any allocation. Callers must check the report's
    /// shortfall: an under-fragmented run silently measures the wrong
    /// experiment.
    pub fn pre_fragment(&mut self, index: f64, occupancy: f64, rng: &mut SimRng) -> FragmentReport {
        self.mem.pool.pre_fragment(index, occupancy, rng)
    }

    /// Access to the frame pool (for experiment instrumentation).
    pub fn pool(&self) -> &FramePool {
        &self.mem.pool
    }

    /// Access to the CAC engine's counters.
    pub fn cac(&self) -> &Cac {
        &self.cac
    }

    /// Access to the In-Place Coalescer's counters.
    pub fn coalescer(&self) -> &InPlaceCoalescer {
        &self.coalescer
    }

    /// Access to CoCoA's counters.
    pub fn cocoa(&self) -> &CoCoA {
        &self.cocoa
    }

    /// Runs the CAC failsafe for `asid`, charging its events; returns
    /// whether it freed memory.
    fn failsafe(&mut self, asid: AppId, events: &mut Vec<MgmtEvent>) -> bool {
        let (ev, ok) =
            self.cac.reclaim(&mut self.mem.tables, &mut self.mem.pool, &mut self.cocoa, asid);
        events.extend(ev);
        if ok {
            self.mem.stats.emergency_allocations += 1;
        }
        ok
    }

    /// Allocates one base frame, exercising the CAC failsafe on OOM.
    fn alloc_base_with_failsafe(
        &mut self,
        asid: AppId,
        events: &mut Vec<MgmtEvent>,
    ) -> Result<PhysFrameNum, MemError> {
        // The guard runs the failsafe on OOM only; when it frees nothing
        // the OOM stands.
        match self.cocoa.alloc_base(&mut self.mem.pool, asid) {
            Err(MemError::OutOfMemory) if self.failsafe(asid, events) => {
                self.cocoa.alloc_base(&mut self.mem.pool, asid)
            }
            other => other,
        }
    }
}

impl MemoryManager for MosaicManager {
    fn name(&self) -> &str {
        "Mosaic"
    }

    fn register_app(&mut self, asid: AppId) {
        self.mem.tables.table_mut(asid);
    }

    fn reserve(&mut self, asid: AppId, start: VirtPageNum, pages: u64) {
        self.mem.reserve(asid, start, pages);
    }

    fn touch(&mut self, asid: AppId, vpn: VirtPageNum) -> Result<TouchOutcome, MemError> {
        if self.mem.touch_resident(asid, vpn)? {
            return Ok(TouchOutcome::default());
        }
        let mut events = Vec::new();
        let lpn = vpn.large_page();
        let pfn = if self.mem.in_aligned_chunk(asid, vpn) {
            // Contiguity-conserving path: the page's slot within the
            // chunk's dedicated large frame.
            let lf = match self.cocoa.frame_for_chunk(&mut self.mem.pool, asid, lpn) {
                Ok(lf) => Some(lf),
                Err(MemError::OutOfMemory) if self.failsafe(asid, &mut events) => {
                    self.cocoa.frame_for_chunk(&mut self.mem.pool, asid, lpn).ok()
                }
                Err(_) => None,
            };
            match lf {
                Some(lf) => CoCoA::chunk_slot(lf, vpn),
                // Degraded mode: no whole frame available — fall back to
                // the free base page list (this chunk will never coalesce).
                None => self.alloc_base_with_failsafe(asid, &mut events)?,
            }
        } else {
            self.alloc_base_with_failsafe(asid, &mut events)?
        };
        self.mem.fault_in(asid, vpn, pfn).expect("checked unmapped above");

        // In-place coalescing: fires exactly when the frame fills up.
        let table = self.mem.tables.table_mut(asid);
        if table.mapped_in_large(lpn) == BASE_PAGES_PER_LARGE_PAGE {
            let ev = self.coalescer.try_coalesce(table, lpn);
            self.mem.stats.coalesces +=
                ev.iter().filter(|e| matches!(e, MgmtEvent::Coalesced { .. })).count() as u64;
            events.extend(ev);
        }
        Ok(TouchOutcome { transfer_bytes: BASE_PAGE_SIZE, events })
    }

    fn deallocate(&mut self, asid: AppId, start: VirtPageNum, pages: u64) -> Vec<MgmtEvent> {
        let mut events = Vec::new();
        for lpn in self.mem.unmap_range(asid, start, pages) {
            let ev = self.cac.on_dealloc(
                self.mem.tables.table_mut(asid),
                &mut self.mem.pool,
                &mut self.cocoa,
                asid,
                lpn,
            );
            events.extend(ev);
        }
        events
    }

    fn note_use(&mut self, pfn: PhysFrameNum, store: bool) {
        self.mem.pool.note_use(pfn, store);
    }

    /// The shared whole-frame LRU eviction, with CoCoA's scrub as hooks.
    fn evict_for(&mut self, bytes: u64) -> EvictOutcome {
        self.mem.evict_lru(bytes, None, &mut self.cocoa)
    }

    fn memory(&self) -> &ResidentMemory {
        &self.mem
    }

    fn stats(&self) -> ManagerStats {
        let mut s = self.mem.stats;
        // The CAC is the single source of truth for splinters and
        // migrations: its events flow back through both the dealloc path
        // and the touch-path reclaim, so tallying events at one call site
        // undercounts (the reclaim events were dropped from the splinter
        // total) while tallying at both would double-count.
        s.splinters = self.cac.splinters();
        s.migrations = self.cac.migrations();
        s
    }

    /// Sweeps every component's invariants plus the cross-structure
    /// checks that tie them together: allocator/page-table ownership
    /// agreement and frame-count conservation.
    fn audit(&self, report: &mut mosaic_sim_core::AuditReport) {
        use mosaic_sim_core::AuditInvariants;
        self.mem.audit("mosaic", report);
        self.cocoa.audit(report);
        self.cac.audit(report);
        // Every page the tables map must be accounted for by the pool's
        // used counters: mapped pages can never outnumber owned frames.
        let mapped: u64 = self.mem.tables.iter().map(|(_, t)| t.mapped_base_pages()).sum();
        let owned: u64 = self
            .mem
            .pool
            .tracked()
            .map(|(_, s)| s.allocated().filter(|&(_, a)| a != crate::FRAG_OWNER).count() as u64)
            .sum();
        report.check("mosaic", mapped <= owned, || {
            format!("{mapped} base pages mapped but only {owned} frames owned by apps")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_vm::{PageSize, LARGE_PAGE_SIZE};

    fn mosaic(frames: u64) -> MosaicManager {
        let mut m = MosaicManager::new(MosaicConfig::with_memory(frames * LARGE_PAGE_SIZE));
        m.register_app(AppId(0));
        m.register_app(AppId(1));
        m
    }

    fn touch_chunk(m: &mut MosaicManager, asid: AppId, lpn: LargePageNum) {
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            m.touch(asid, lpn.base_page(i)).unwrap();
        }
    }

    #[test]
    fn en_masse_allocation_coalesces_without_migration() {
        let mut m = mosaic(16);
        m.reserve(AppId(0), VirtPageNum(0), 2048); // 4 aligned chunks
        touch_chunk(&mut m, AppId(0), LargePageNum(0));
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(table.is_coalesced(LargePageNum(0)));
        assert_eq!(m.stats().coalesces, 1);
        assert_eq!(m.stats().migrations, 0, "in-place: zero migrations");
        // Every transfer was a base page.
        assert_eq!(m.stats().transferred_bytes, LARGE_PAGE_SIZE);
        assert_eq!(m.stats().far_faults, 512);
    }

    #[test]
    fn soft_guarantee_holds_under_interleaved_touches() {
        let mut m = mosaic(16);
        m.reserve(AppId(0), VirtPageNum(0), 1024);
        m.reserve(AppId(1), VirtPageNum(0), 1024);
        // Interleave the two applications' faults (Figure 1b's scenario).
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
            m.touch(AppId(1), VirtPageNum(i)).unwrap();
        }
        // Both coalesced: CoCoA kept them in separate frames.
        assert!(m.tables().table(AppId(0)).unwrap().is_coalesced(LargePageNum(0)));
        assert!(m.tables().table(AppId(1)).unwrap().is_coalesced(LargePageNum(0)));
        for (_, state) in m.pool().tracked() {
            assert!(
                state.single_owner(AppId(0)) || state.single_owner(AppId(1)),
                "no frame mixes applications"
            );
        }
    }

    #[test]
    fn translation_is_large_after_coalesce_base_before() {
        let mut m = mosaic(16);
        m.reserve(AppId(0), VirtPageNum(0), 512);
        m.touch(AppId(0), VirtPageNum(0)).unwrap();
        let t = m.tables().table(AppId(0)).unwrap().translate(VirtPageNum(0).addr()).unwrap();
        assert_eq!(t.size, PageSize::Base);
        touch_chunk(&mut m, AppId(0), LargePageNum(0));
        let t = m.tables().table(AppId(0)).unwrap().translate(VirtPageNum(0).addr()).unwrap();
        assert_eq!(t.size, PageSize::Large);
    }

    #[test]
    fn unaligned_reservation_uses_base_path() {
        let mut m = mosaic(16);
        // 100 pages starting mid-chunk: never coalescible.
        m.reserve(AppId(0), VirtPageNum(100), 100);
        for i in 100..200 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        assert_eq!(m.stats().coalesces, 0);
        assert_eq!(m.cocoa().base_assigned(), 100);
        // Pages are still mapped and owned solely by app 0.
        for (_, state) in m.pool().tracked() {
            assert!(state.single_owner(AppId(0)));
        }
    }

    #[test]
    fn dealloc_below_threshold_splinters_and_frees() {
        let mut m = mosaic(16);
        m.reserve(AppId(0), VirtPageNum(0), 1024);
        touch_chunk(&mut m, AppId(0), LargePageNum(0));
        // Also give the app spare base pages via the unaligned path. The
        // free base list refills march through frames 1..=6; after five
        // full frames plus a few pages, the spares live in frame 6 —
        // which is in the *same channel* (6 % 6 == 0) as the coalesced
        // chunk's frame 0, so compaction has legal destinations.
        m.reserve(AppId(0), VirtPageNum(1_000_000), 5 * 512 + 16);
        for i in 0..(5 * 512 + 16) {
            m.touch(AppId(0), VirtPageNum(1_000_000 + i)).unwrap();
        }
        let free_before = m.pool().free_frames();
        // Deallocate 508 of 512 pages: occupancy drops below 50%.
        let events = m.deallocate(AppId(0), VirtPageNum(0), 508);
        assert!(events.iter().any(|e| matches!(e, MgmtEvent::Splintered { .. })));
        assert!(!m.tables().table(AppId(0)).unwrap().is_coalesced(LargePageNum(0)));
        assert!(m.pool().free_frames() > free_before, "compaction freed the frame");
    }

    #[test]
    fn dealloc_above_threshold_keeps_page_coalesced() {
        let mut m = mosaic(16);
        m.reserve(AppId(0), VirtPageNum(0), 512);
        touch_chunk(&mut m, AppId(0), LargePageNum(0));
        let events = m.deallocate(AppId(0), VirtPageNum(0), 4);
        assert!(events.is_empty());
        assert!(m.tables().table(AppId(0)).unwrap().is_coalesced(LargePageNum(0)));
    }

    #[test]
    fn failsafe_pulls_from_emergency_list() {
        // 2 frames only. App 0 coalesces one and keeps it nearly full
        // (parked on the emergency list); app 1 then needs base pages once
        // the free list is gone.
        let mut m = mosaic(2);
        m.reserve(AppId(0), VirtPageNum(0), 512);
        touch_chunk(&mut m, AppId(0), LargePageNum(0));
        m.deallocate(AppId(0), VirtPageNum(0), 4); // parks on emergency list

        m.reserve(AppId(1), VirtPageNum(0), 600);
        // Frame 2 of 2 goes to app 1's allocations...
        for i in 0..512 {
            m.touch(AppId(1), VirtPageNum(i)).unwrap();
        }
        // ...and the next touch must trigger the emergency failsafe.
        let out = m.touch(AppId(1), VirtPageNum(512));
        assert!(out.is_ok(), "failsafe should supply base pages: {out:?}");
        assert!(m.stats().emergency_allocations > 0);
        assert!(m.cac().soft_guarantee_breaks() > 0);
        assert!(!m.tables().table(AppId(0)).unwrap().is_coalesced(LargePageNum(0)));
    }

    #[test]
    fn fragmented_memory_compacts_on_demand() {
        let mut m = mosaic(8);
        let mut rng = SimRng::from_seed(7);
        // All frames fragmented at 25% occupancy: free list is empty.
        m.pre_fragment(1.0, 0.25, &mut rng);
        assert_eq!(m.pool().free_frames(), 0);
        m.reserve(AppId(0), VirtPageNum(0), 512);
        // Touching must succeed by compacting fragmented frames.
        let out = m.touch(AppId(0), VirtPageNum(0));
        assert!(out.is_ok(), "{out:?}");
        assert!(m.cac().frames_reclaimed() > 0);
    }

    #[test]
    fn true_oom_is_reported() {
        let mut m = mosaic(1);
        m.reserve(AppId(0), VirtPageNum(0), 2048);
        for i in 0..512 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        // Memory is genuinely full (one frame, fully used, coalesced, and
        // never deallocated): allocation must fail.
        assert_eq!(m.touch(AppId(0), VirtPageNum(512)), Err(MemError::OutOfMemory));
    }

    #[test]
    fn bloat_is_low_for_dense_working_sets() {
        let mut m = mosaic(16);
        m.reserve(AppId(0), VirtPageNum(0), 2048);
        for lpn in 0..4 {
            touch_chunk(&mut m, AppId(0), LargePageNum(lpn));
        }
        assert!(m.memory_bloat().abs() < 1e-9, "fully-touched chunks have no bloat");
    }

    #[test]
    fn evict_scrubs_chunk_bindings_and_emergency_parking() {
        let mut m = mosaic(4);
        m.reserve(AppId(0), VirtPageNum(0), 2048);
        touch_chunk(&mut m, AppId(0), LargePageNum(0));
        touch_chunk(&mut m, AppId(0), LargePageNum(1));
        let victim = m.cocoa().chunk_frame(AppId(0), LargePageNum(0)).unwrap();
        let out = m.evict_for(LARGE_PAGE_SIZE);
        assert_eq!(out.evicted.len(), 512);
        assert!(out.events.iter().any(|e| matches!(e, MgmtEvent::TlbShootdown { .. })));
        // The coalesced region is gone, its chunk binding released, and
        // the frame is reusable.
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(!table.is_coalesced(LargePageNum(0)));
        assert!(!table.is_mapped(VirtPageNum(0)));
        assert!(table.is_coalesced(LargePageNum(1)), "the survivor keeps its large mapping");
        assert_eq!(m.cocoa().chunk_frame(AppId(0), LargePageNum(0)), None);
        assert_eq!(m.stats().evictions, 512);
        let mut report = mosaic_sim_core::AuditReport::new();
        m.audit(&mut report);
        report.assert_clean("mosaic");
        // Refaulting rebuilds the chunk — possibly in the same frame.
        touch_chunk(&mut m, AppId(0), LargePageNum(0));
        assert!(m.tables().table(AppId(0)).unwrap().is_coalesced(LargePageNum(0)));
        let _ = victim;
    }

    #[test]
    fn oom_touch_succeeds_after_eviction() {
        let mut m = mosaic(1);
        m.reserve(AppId(0), VirtPageNum(0), 2048);
        for i in 0..512 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        assert_eq!(m.touch(AppId(0), VirtPageNum(512)), Err(MemError::OutOfMemory));
        let out = m.evict_for(1);
        assert!(!out.is_empty());
        let retry = m.touch(AppId(0), VirtPageNum(512));
        assert!(retry.is_ok(), "{retry:?}");
        let mut report = mosaic_sim_core::AuditReport::new();
        m.audit(&mut report);
        report.assert_clean("mosaic");
    }

    #[test]
    fn evict_writes_back_only_dirty_pages() {
        let mut m = mosaic(2);
        m.reserve(AppId(0), VirtPageNum(0), 1024);
        touch_chunk(&mut m, AppId(0), LargePageNum(0));
        let table = m.tables().table(AppId(0)).unwrap();
        let d0 = table.translate(VirtPageNum(0).addr()).unwrap().frame;
        let d1 = table.translate(VirtPageNum(7).addr()).unwrap().frame;
        m.note_use(d0, true);
        m.note_use(d1, true);
        m.note_use(d1, true); // re-dirtying is idempotent
        let out = m.evict_for(1);
        assert_eq!(out.evicted.len(), 512);
        assert_eq!(out.writeback_bytes, 2 * BASE_PAGE_SIZE);
        assert_eq!(m.stats().writeback_bytes, 2 * BASE_PAGE_SIZE);
    }

    #[test]
    fn retouching_resident_page_is_free() {
        let mut m = mosaic(4);
        m.reserve(AppId(0), VirtPageNum(0), 512);
        m.touch(AppId(0), VirtPageNum(1)).unwrap();
        let out = m.touch(AppId(0), VirtPageNum(1)).unwrap();
        assert_eq!(out.transfer_bytes, 0);
        assert!(out.events.is_empty());
        assert_eq!(m.stats().far_faults, 1);
    }
}
