//! The GPU-MMU baseline memory manager (Section 3.1).
//!
//! Power et al.'s GPU MMU design with the paper's modification: a
//! 512-entry shared L2 TLB in place of the page-walk cache. Its allocator
//! is what Figure 1a depicts: base pages are handed out in fault-arrival
//! order from a shared "open" large frame, so pages of different
//! applications interleave within large frames and virtually-contiguous
//! pages scatter physically. Consequently the baseline can essentially
//! never coalesce without migrating data — which it therefore never does.
//!
//! The same type also provides the **2 MB-only** configuration used by the
//! Section 3 motivation experiments: every first touch materializes (and
//! transfers!) an entire large page, exposing both the six-fold far-fault
//! latency and the memory bloat of large-page-only management.

use crate::frames::FramePool;
use crate::resident::{OpenFrame, ResidentMemory};
use crate::{EvictOutcome, MemError, MemoryManager, MgmtEvent, TouchOutcome};
use mosaic_vm::{
    AppId, PageSize, PhysFrameNum, VirtPageNum, BASE_PAGES_PER_LARGE_PAGE, BASE_PAGE_SIZE,
    LARGE_PAGE_SIZE,
};

/// The baseline manager.
///
/// # Examples
///
/// ```
/// use mosaic_core::{GpuMmuManager, MemoryManager};
/// use mosaic_vm::{AppId, PageSize, VirtPageNum};
///
/// let mut mmu = GpuMmuManager::new(64 * 2 * 1024 * 1024, 6, PageSize::Base);
/// mmu.register_app(AppId(0));
/// mmu.reserve(AppId(0), VirtPageNum(0), 1024);
/// let outcome = mmu.touch(AppId(0), VirtPageNum(7)).unwrap();
/// assert_eq!(outcome.transfer_bytes, 4096); // base-page far-fault
/// ```
#[derive(Debug)]
pub struct GpuMmuManager {
    page_size: PageSize,
    mem: ResidentMemory,
    /// The shared partially-filled frame base allocations bump through.
    open: OpenFrame,
}

impl GpuMmuManager {
    /// Creates the baseline manager over `memory_bytes` of physical memory
    /// striped across `channels`, managing pages of size `page_size`.
    pub fn new(memory_bytes: u64, channels: usize, page_size: PageSize) -> Self {
        GpuMmuManager {
            page_size,
            mem: ResidentMemory::new(memory_bytes, channels),
            open: OpenFrame::default(),
        }
    }

    /// The page size this instance manages (4 KB baseline or the 2 MB-only
    /// motivation configuration).
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Access to the frame pool (for experiment instrumentation).
    pub fn pool(&self) -> &FramePool {
        &self.mem.pool
    }

    fn touch_large(&mut self, asid: AppId, vpn: VirtPageNum) -> Result<TouchOutcome, MemError> {
        let lpn = vpn.large_page();
        let table = self.mem.tables.table_mut(asid);
        if table.is_coalesced(lpn) {
            // A hole drilled by a partial deallocation inside a still-live
            // large page. The backing frame cannot have been handed out
            // again (only fully-drained frames return to the pool), so the
            // page is restored into its original slot; contiguity and the
            // large mapping are untouched.
            let (_, neighbor, _) = table
                .region_mappings(lpn)
                .next()
                .expect("a coalesced region with a hole retains a mapping");
            let slot = neighbor.large_frame().base_frame(vpn.index_in_large());
            self.mem.fault_in(asid, vpn, slot).expect("hole checked unmapped by touch");
            return Ok(TouchOutcome { transfer_bytes: BASE_PAGE_SIZE, events: Vec::new() });
        }
        // Materialize the whole large page: one frame, 512 contiguous
        // mappings, coalesced so the TLB can use a single large entry.
        let lf = self.mem.pool.take_free_frame().ok_or(MemError::OutOfMemory)?;
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            self.mem.map_page(asid, lpn.base_page(i), lf.base_frame(i)).expect("fresh region");
        }
        self.mem.tables.table_mut(asid).coalesce(lpn).expect("contiguous by construction");
        self.mem.count_touch(asid, vpn);
        self.mem.stats.coalesces += 1;
        self.mem.stats.far_faults += 1;
        self.mem.stats.transferred_bytes += LARGE_PAGE_SIZE;
        mosaic_telemetry::emit(|| mosaic_telemetry::Event::Coalesce {
            asid: asid.0,
            lpn: lpn.raw(),
        });
        Ok(TouchOutcome {
            transfer_bytes: LARGE_PAGE_SIZE,
            events: vec![MgmtEvent::Coalesced { asid, lpn }],
        })
    }
}

impl MemoryManager for GpuMmuManager {
    fn name(&self) -> &str {
        match self.page_size {
            PageSize::Base => "GPU-MMU",
            PageSize::Large => "GPU-MMU-2MB",
        }
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
        match self.page_size {
            PageSize::Base => {
                let pfn = self.open.alloc(&mut self.mem.pool)?;
                self.mem.fault_in(asid, vpn, pfn).expect("checked unmapped above");
                Ok(TouchOutcome { transfer_bytes: BASE_PAGE_SIZE, events: Vec::new() })
            }
            PageSize::Large => self.touch_large(asid, vpn),
        }
    }

    fn deallocate(&mut self, asid: AppId, start: VirtPageNum, pages: u64) -> Vec<MgmtEvent> {
        let lpns = self.mem.unmap_range(asid, start, pages);
        let events = self.mem.splinter_drained(asid, &lpns);
        self.mem.release_drained(self.open.frame());
        events
    }

    fn note_use(&mut self, pfn: PhysFrameNum, store: bool) {
        self.mem.pool.note_use(pfn, store);
    }

    /// The shared whole-frame LRU eviction; the open frame is never a
    /// victim — evicting the bump allocator's cursor would corrupt it.
    fn evict_for(&mut self, bytes: u64) -> EvictOutcome {
        self.mem.evict_lru(bytes, self.open.frame(), &mut ())
    }

    fn memory(&self) -> &ResidentMemory {
        &self.mem
    }

    /// Audits the resident memory and the bump allocator's open frame.
    fn audit(&self, report: &mut mosaic_sim_core::AuditReport) {
        self.mem.audit("gpu-mmu", report);
        self.open.audit("gpu-mmu", &self.mem.pool, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu(frames: u64, size: PageSize) -> GpuMmuManager {
        let mut m = GpuMmuManager::new(frames * LARGE_PAGE_SIZE, 6, size);
        m.register_app(AppId(0));
        m.register_app(AppId(1));
        m.reserve(AppId(0), VirtPageNum(0), 10_000);
        m.reserve(AppId(1), VirtPageNum(0), 10_000);
        m
    }

    #[test]
    fn base_mode_transfers_4kb_once() {
        let mut m = mmu(4, PageSize::Base);
        let a = m.touch(AppId(0), VirtPageNum(5)).unwrap();
        assert_eq!(a.transfer_bytes, BASE_PAGE_SIZE);
        let again = m.touch(AppId(0), VirtPageNum(5)).unwrap();
        assert_eq!(again.transfer_bytes, 0, "already resident");
        assert_eq!(m.stats().far_faults, 1);
    }

    #[test]
    fn base_mode_interleaves_applications_within_frames() {
        let mut m = mmu(4, PageSize::Base);
        m.touch(AppId(0), VirtPageNum(0)).unwrap();
        m.touch(AppId(1), VirtPageNum(0)).unwrap();
        m.touch(AppId(0), VirtPageNum(1)).unwrap();
        let f0 = m.tables().table(AppId(0)).unwrap().translate(VirtPageNum(0).addr()).unwrap();
        let f1 = m.tables().table(AppId(1)).unwrap().translate(VirtPageNum(0).addr()).unwrap();
        // Figure 1a: both applications land in the same large frame.
        assert_eq!(f0.frame.large_frame(), f1.frame.large_frame());
    }

    #[test]
    fn base_mode_never_coalesces() {
        let mut m = mmu(8, PageSize::Base);
        // Touch a full 2MB region of app 0, interleaved with app 1.
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
            m.touch(AppId(1), VirtPageNum(i)).unwrap();
        }
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(!table.is_coalesced(VirtPageNum(0).large_page()));
        assert_eq!(table.can_coalesce(VirtPageNum(0).large_page()).ok(), None);
        assert_eq!(m.stats().coalesces, 0);
    }

    #[test]
    fn large_mode_transfers_2mb_and_coalesces() {
        let mut m = mmu(4, PageSize::Large);
        let out = m.touch(AppId(0), VirtPageNum(3)).unwrap();
        assert_eq!(out.transfer_bytes, LARGE_PAGE_SIZE);
        assert!(matches!(out.events[0], MgmtEvent::Coalesced { .. }));
        // A sibling page in the same 2MB region is already resident.
        let sib = m.touch(AppId(0), VirtPageNum(400)).unwrap();
        assert_eq!(sib.transfer_bytes, 0);
        let t = m.tables().table(AppId(0)).unwrap().translate(VirtPageNum(3).addr()).unwrap();
        assert_eq!(t.size, PageSize::Large);
    }

    #[test]
    fn large_mode_bloats_memory() {
        let mut m = mmu(4, PageSize::Large);
        m.touch(AppId(0), VirtPageNum(0)).unwrap(); // 1 page touched, 2MB committed
        assert_eq!(m.touched_bytes(), BASE_PAGE_SIZE);
        assert_eq!(m.footprint_bytes(), LARGE_PAGE_SIZE);
        assert!(m.memory_bloat() > 100.0, "511/512 of the frame is bloat");
    }

    #[test]
    fn unreserved_touch_rejected() {
        let mut m = mmu(4, PageSize::Base);
        assert_eq!(m.touch(AppId(0), VirtPageNum(999_999)), Err(MemError::NotReserved));
    }

    #[test]
    fn out_of_memory_reported() {
        let mut m = mmu(1, PageSize::Large);
        m.touch(AppId(0), VirtPageNum(0)).unwrap();
        assert_eq!(m.touch(AppId(0), VirtPageNum(512)), Err(MemError::OutOfMemory));
    }

    #[test]
    fn deallocate_releases_frames() {
        let mut m = mmu(2, PageSize::Large);
        m.touch(AppId(0), VirtPageNum(0)).unwrap();
        let events = m.deallocate(AppId(0), VirtPageNum(0), BASE_PAGES_PER_LARGE_PAGE);
        assert!(matches!(events[0], MgmtEvent::Splintered { .. }));
        // The frame is reusable.
        m.touch(AppId(0), VirtPageNum(512)).unwrap();
        m.touch(AppId(0), VirtPageNum(1024)).unwrap();
    }

    fn pfn_of(m: &GpuMmuManager, asid: AppId, vpn: VirtPageNum) -> PhysFrameNum {
        m.tables().table(asid).unwrap().translate(vpn.addr()).unwrap().frame
    }

    #[test]
    fn evict_frees_lru_frame_and_unmaps_residents() {
        let mut m = mmu(4, PageSize::Base);
        // Fill two frames exactly; the open-frame cursor is then retired.
        for i in 0..2 * BASE_PAGES_PER_LARGE_PAGE {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        // Dirty one page of the first frame, then make the second frame
        // the more recently used one.
        m.note_use(pfn_of(&m, AppId(0), VirtPageNum(0)), true);
        m.note_use(pfn_of(&m, AppId(0), VirtPageNum(512)), false);
        let out = m.evict_for(1);
        assert_eq!(out.evicted.len(), BASE_PAGES_PER_LARGE_PAGE as usize);
        assert_eq!(out.writeback_bytes, BASE_PAGE_SIZE);
        assert_eq!(out.events.len(), 1, "one region, one shootdown");
        assert!(matches!(out.events[0], MgmtEvent::TlbShootdown { .. }));
        // The LRU frame's pages are gone; the recently-used one survives.
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(!table.is_mapped(VirtPageNum(0)));
        assert!(table.is_mapped(VirtPageNum(512)));
        assert_eq!(m.stats().evictions, BASE_PAGES_PER_LARGE_PAGE);
        assert_eq!(m.stats().writeback_bytes, BASE_PAGE_SIZE);
        // Evicted pages refault back in.
        let again = m.touch(AppId(0), VirtPageNum(0)).unwrap();
        assert_eq!(again.transfer_bytes, BASE_PAGE_SIZE);
        let mut report = mosaic_sim_core::AuditReport::new();
        m.audit(&mut report);
        report.assert_clean("gpu-mmu");
    }

    #[test]
    fn evict_never_touches_the_open_frame() {
        let mut m = mmu(4, PageSize::Base);
        m.touch(AppId(0), VirtPageNum(0)).unwrap();
        let out = m.evict_for(1);
        assert!(out.is_empty(), "the only candidate is the open frame");
        assert_eq!(m.stats().evictions, 0);
    }

    #[test]
    fn evict_splinters_coalesced_large_pages() {
        let mut m = mmu(2, PageSize::Large);
        m.touch(AppId(0), VirtPageNum(0)).unwrap();
        let out = m.evict_for(1);
        assert_eq!(out.evicted.len(), BASE_PAGES_PER_LARGE_PAGE as usize);
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(!table.is_coalesced(VirtPageNum(0).large_page()));
        assert!(!table.is_mapped(VirtPageNum(0)));
        // The region rematerializes on the next touch.
        let again = m.touch(AppId(0), VirtPageNum(0)).unwrap();
        assert_eq!(again.transfer_bytes, LARGE_PAGE_SIZE);
        let mut report = mosaic_sim_core::AuditReport::new();
        m.audit(&mut report);
        report.assert_clean("gpu-mmu");
    }

    #[test]
    fn weighted_touched_bytes_counts_unique_pages() {
        let mut m = mmu(4, PageSize::Base);
        m.touch(AppId(0), VirtPageNum(1)).unwrap();
        m.touch(AppId(0), VirtPageNum(1)).unwrap();
        m.touch(AppId(1), VirtPageNum(1)).unwrap();
        assert_eq!(m.touched_bytes(), 2 * BASE_PAGE_SIZE);
    }
}
