//! A CPU-style *migrating* coalescer: the state-of-the-art the paper
//! argues against (Sections 3.3 and 7.1).
//!
//! CPU large-page managers (Navarro et al.'s reservation-based promotion,
//! Ingens' utilization-based promotion) monitor base-page utilization and
//! *promote* a 2 MB region once enough of it is populated. Because their
//! allocators conserve no contiguity, promotion must **migrate** every
//! mapped base page into a freshly-allocated large frame, zero-fill the
//! rest, update the PTEs, and shoot down the TLBs — the full Figure 6a
//! timeline. This manager implements that design faithfully on the GPU
//! substrate so the reproduction can measure exactly what Mosaic's
//! in-place design saves:
//!
//! * allocation is GPU-MMU-style (fault-order interleaved frames — no
//!   contiguity, no soft guarantee);
//! * when a 2 MB region's utilization reaches `promote_threshold`, the
//!   manager allocates a whole large frame, emits one
//!   [`MgmtEvent::PageMigrated`] per mapped page, maps the region's
//!   remaining pages to the frame's spare slots (zero-filled — the
//!   memory-bloat source CPU promotion is known for), coalesces, and
//!   emits [`MgmtEvent::TlbShootdown`] (stale translations point at the
//!   pre-migration frames, so correctness demands an IPI-style
//!   shootdown of the region on every SM).

use crate::resident::{EvictHooks, OpenFrame, ResidentMemory};
use crate::{EvictOutcome, MemError, MemoryManager, MgmtEvent, TouchOutcome};
use mosaic_vm::{
    AppId, LargeFrameNum, LargePageNum, PhysFrameNum, VirtPageNum, BASE_PAGES_PER_LARGE_PAGE,
    BASE_PAGE_SIZE,
};
use std::collections::BTreeSet;

/// Policy knobs for the migrating coalescer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigratingConfig {
    /// Promote a region once this fraction of its base pages is mapped
    /// (Ingens uses utilization thresholds of this order).
    pub promote_threshold: f64,
}

impl Default for MigratingConfig {
    fn default() -> Self {
        MigratingConfig { promote_threshold: 0.70 }
    }
}

/// The migrating (CPU-style) coalescing manager.
///
/// # Examples
///
/// ```
/// use mosaic_core::{MigratingManager, MigratingConfig, MemoryManager, MgmtEvent};
/// use mosaic_vm::{AppId, VirtPageNum};
///
/// let mut m = MigratingManager::new(64 * 2 * 1024 * 1024, 6, MigratingConfig::default());
/// m.register_app(AppId(0));
/// m.reserve(AppId(0), VirtPageNum(0), 512);
/// let mut migrations = 0;
/// for i in 0..512 {
///     let out = m.touch(AppId(0), VirtPageNum(i)).unwrap();
///     migrations += out.events.iter().filter(|e| matches!(e, MgmtEvent::PageMigrated { .. })).count();
/// }
/// assert!(migrations > 300, "promotion migrated the already-mapped pages");
/// ```
#[derive(Debug)]
pub struct MigratingManager {
    config: MigratingConfig,
    mem: ResidentMemory,
    /// Fault-order bump allocation, as in the GPU-MMU baseline.
    open: OpenFrame,
    /// Regions already promoted (never re-promoted).
    promoted: BTreeSet<(AppId, LargePageNum)>,
}

/// Eviction forgets the promotion of every region it splinters, so a
/// later refault re-earns it.
impl EvictHooks for BTreeSet<(AppId, LargePageNum)> {
    fn on_region(&mut self, asid: AppId, lpn: LargePageNum, _: LargeFrameNum, splintered: bool) {
        if splintered {
            self.remove(&(asid, lpn));
        }
    }
}

impl MigratingManager {
    /// Creates the manager over `memory_bytes` striped across `channels`.
    pub fn new(memory_bytes: u64, channels: usize, config: MigratingConfig) -> Self {
        MigratingManager {
            config,
            mem: ResidentMemory::new(memory_bytes, channels),
            open: OpenFrame::default(),
            promoted: BTreeSet::new(),
        }
    }

    /// The policy in effect.
    pub fn config(&self) -> &MigratingConfig {
        &self.config
    }

    /// The Figure 6a promotion: migrate the mapped pages, *transfer* the
    /// unmapped ones (on a discrete GPU their data still lives in CPU
    /// memory — promotion must fully populate the region with real
    /// contents), update PTEs, shoot down the TLBs. Returns the events
    /// plus the extra bytes to move over the I/O bus.
    fn promote(
        &mut self,
        asid: AppId,
        lpn: LargePageNum,
    ) -> Result<(Vec<MgmtEvent>, u64), MemError> {
        let mem = &mut self.mem;
        let dest = mem.pool.take_free_frame().ok_or(MemError::OutOfMemory)?;
        let mut events = Vec::new();
        let moved: Vec<(VirtPageNum, PhysFrameNum)> = mem
            .tables
            .table_mut(asid)
            .region_mappings(lpn)
            .map(|(vpn, pfn, _)| (vpn, pfn))
            .collect();
        for (vpn, old) in &moved {
            let slot = dest.base_frame(vpn.index_in_large());
            mem.tables.table_mut(asid).remap_base(*vpn, slot).expect("mapped");
            mem.pool.migrate(*old, slot, asid, *vpn);
            mem.stats.migrations += 1;
            events.push(MgmtEvent::PageMigrated {
                channel: mem.pool.channel_of(dest),
                bulk: false,
                // Promotion is copy-then-switch: the old mappings stay
                // valid while the copy engine works in the background.
                blocking: false,
            });
        }
        // Populate the holes: their data never left CPU memory, so the
        // promotion transfers it now (this prefetch of never-requested
        // data is the demand-paging waste — and the memory bloat — that
        // large-page promotion is known for).
        let holes: Vec<VirtPageNum> =
            lpn.base_pages().filter(|vpn| !mem.tables.table_mut(asid).is_mapped(*vpn)).collect();
        let extra_bytes = holes.len() as u64 * BASE_PAGE_SIZE;
        for vpn in holes {
            let slot = dest.base_frame(vpn.index_in_large());
            mem.map_page(asid, vpn, slot).expect("hole");
        }
        mem.stats.transferred_bytes += extra_bytes;
        mem.tables.table_mut(asid).coalesce(lpn).expect("contiguous after migration");
        mem.stats.coalesces += 1;
        mosaic_telemetry::emit(|| mosaic_telemetry::Event::Coalesce {
            asid: asid.0,
            lpn: lpn.raw(),
        });
        self.promoted.insert((asid, lpn));
        // Correctness: the pre-migration base translations are stale on
        // every SM — a targeted (IPI-style) shootdown of the region.
        events.push(MgmtEvent::TlbShootdown { asid, lpn });
        Ok((events, extra_bytes))
    }
}

impl MemoryManager for MigratingManager {
    fn name(&self) -> &str {
        "Migrating-Coalescer"
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
        let lpn = vpn.large_page();
        if let Some(lf) = self.mem.tables.table_mut(asid).large_frame_of(lpn) {
            // A hole drilled by a partial deallocation inside a promoted
            // (still-coalesced) region. The page must return to its slot
            // in the region's large frame; handing it an arbitrary
            // interleaved frame would break the region's contiguity.
            let slot = lf.base_frame(vpn.index_in_large());
            self.mem.fault_in(asid, vpn, slot).expect("checked unmapped above");
            return Ok(TouchOutcome { transfer_bytes: BASE_PAGE_SIZE, events: Vec::new() });
        }
        let pfn = self.open.alloc(&mut self.mem.pool)?;
        self.mem.fault_in(asid, vpn, pfn).expect("checked unmapped above");
        let mut events = Vec::new();
        let mut transfer_bytes = BASE_PAGE_SIZE;
        if !self.promoted.contains(&(asid, lpn)) && self.mem.region_reserved(asid, lpn) {
            let mapped = self.mem.tables.table_mut(asid).mapped_in_large(lpn) as f64;
            if mapped / BASE_PAGES_PER_LARGE_PAGE as f64 >= self.config.promote_threshold {
                match self.promote(asid, lpn) {
                    Ok((ev, extra)) => {
                        events = ev;
                        transfer_bytes += extra;
                    }
                    // Out of whole frames: keep running unpromoted.
                    Err(MemError::OutOfMemory) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(TouchOutcome { transfer_bytes, events })
    }

    fn deallocate(&mut self, asid: AppId, start: VirtPageNum, pages: u64) -> Vec<MgmtEvent> {
        let lpns = self.mem.unmap_range(asid, start, pages);
        let events = self.mem.splinter_drained(asid, &lpns);
        for event in &events {
            if let MgmtEvent::Splintered { asid, lpn } = *event {
                self.promoted.remove(&(asid, lpn));
            }
        }
        self.mem.release_drained(self.open.frame());
        events
    }

    fn note_use(&mut self, pfn: PhysFrameNum, store: bool) {
        self.mem.pool.note_use(pfn, store);
    }

    /// The shared whole-frame LRU eviction, forgetting the promotion of
    /// every region it splinters; the open frame is never a victim.
    fn evict_for(&mut self, bytes: u64) -> EvictOutcome {
        self.mem.evict_lru(bytes, self.open.frame(), &mut self.promoted)
    }

    fn memory(&self) -> &ResidentMemory {
        &self.mem
    }

    /// Audits the resident memory, the open frame, and the promotion
    /// bookkeeping: every region recorded as promoted must belong to a
    /// registered address space, and every coalesced region must have
    /// come from a promotion.
    fn audit(&self, report: &mut mosaic_sim_core::AuditReport) {
        self.mem.audit("migrating", report);
        let tables = &self.mem.tables;
        for &(asid, lpn) in &self.promoted {
            report.check("migrating", tables.table(asid).is_some(), || {
                format!("{lpn} recorded as promoted for unregistered {asid}")
            });
        }
        for (asid, table) in tables.iter() {
            for lpn in table.mapped_regions() {
                report.check(
                    "migrating",
                    !table.is_coalesced(lpn) || self.promoted.contains(&(asid, lpn)),
                    || format!("{asid}/{lpn} is coalesced but was never promoted"),
                );
            }
        }
        self.open.audit("migrating", &self.mem.pool, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_vm::{PageSize, LARGE_PAGE_SIZE};

    fn mgr(frames: u64) -> MigratingManager {
        let mut m = MigratingManager::new(frames * LARGE_PAGE_SIZE, 6, MigratingConfig::default());
        m.register_app(AppId(0));
        m.register_app(AppId(1));
        m.reserve(AppId(0), VirtPageNum(0), 4096);
        m.reserve(AppId(1), VirtPageNum(0), 4096);
        m
    }

    #[test]
    fn promotion_fires_at_threshold_with_migrations_and_flush() {
        let mut m = mgr(16);
        let needed = (512.0f64 * 0.70).ceil() as u64;
        let mut all_events = Vec::new();
        for i in 0..needed {
            all_events.extend(m.touch(AppId(0), VirtPageNum(i)).unwrap().events);
        }
        let migrations =
            all_events.iter().filter(|e| matches!(e, MgmtEvent::PageMigrated { .. })).count();
        assert_eq!(migrations as u64, needed, "every mapped page migrated");
        assert!(all_events.iter().any(|e| matches!(e, MgmtEvent::TlbShootdown { .. })));
        // The region is now coalesced and fully populated.
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(table.is_coalesced(LargePageNum(0)));
        assert_eq!(table.mapped_in_large(LargePageNum(0)), 512);
        // Translation is large, and contiguous in the destination frame.
        let t = table.translate(VirtPageNum(3).addr()).unwrap();
        assert_eq!(t.size, PageSize::Large);
    }

    #[test]
    fn promotion_zero_fill_bloats_memory() {
        let mut m = mgr(16);
        for i in 0..((512.0f64 * 0.70).ceil() as u64) {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        // 359 pages touched, a full 2MB region (plus migration sources)
        // committed.
        assert!(m.memory_bloat() > 0.3, "bloat {:.3}", m.memory_bloat());
    }

    #[test]
    fn below_threshold_regions_stay_base_paged() {
        let mut m = mgr(16);
        for i in 0..128 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(!table.is_coalesced(LargePageNum(0)));
        assert_eq!(m.stats().migrations, 0);
    }

    #[test]
    fn promotion_respects_memory_pressure() {
        // One frame total: promotion cannot find a destination frame and
        // must degrade gracefully.
        let mut m = mgr(1);
        for i in 0..512 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(!table.is_coalesced(LargePageNum(0)), "no frame to migrate into");
        assert_eq!(m.stats().migrations, 0);
    }

    #[test]
    fn interleaved_apps_promote_independently() {
        let mut m = mgr(32);
        for i in 0..512 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
            m.touch(AppId(1), VirtPageNum(i)).unwrap();
        }
        for a in [AppId(0), AppId(1)] {
            let table = m.tables().table(a).unwrap();
            assert!(table.is_coalesced(LargePageNum(0)), "{a} promoted");
            // Every frame of the promoted region belongs to this app.
            for (_, frame, _) in table.region_mappings(LargePageNum(0)) {
                assert_eq!(m.mem.pool.owner(frame), Some(a));
            }
        }
    }

    #[test]
    fn dealloc_splinters_and_releases() {
        let mut m = mgr(16);
        for i in 0..512 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        let events = m.deallocate(AppId(0), VirtPageNum(0), 512);
        assert!(events.iter().any(|e| matches!(e, MgmtEvent::Splintered { .. })));
        // Reuse works after release.
        for i in 512..1024 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
    }

    /// Regression (found by the conformance fuzzer): re-touching a hole
    /// drilled by a partial deallocation inside a promoted region used to
    /// go through the interleaved allocator, mapping an arbitrary frame
    /// into a still-coalesced region and breaking its contiguity
    /// invariant. The hole must return to its slot in the region's large
    /// frame.
    #[test]
    fn hole_retouch_restores_contiguous_slot() {
        let mut m = mgr(16);
        for i in 0..512 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(table.is_coalesced(LargePageNum(0)));
        let lf = table.large_frame_of(LargePageNum(0)).unwrap();

        m.deallocate(AppId(0), VirtPageNum(100), 20);
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(table.is_coalesced(LargePageNum(0)), "partial dealloc keeps the region coalesced");
        assert_eq!(table.mapped_in_large(LargePageNum(0)), 492);

        for i in 100..120 {
            let out = m.touch(AppId(0), VirtPageNum(i)).unwrap();
            assert_eq!(out.transfer_bytes, BASE_PAGE_SIZE, "hole restore is one page transfer");
            assert!(out.events.is_empty(), "no migration, no shootdown");
        }
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(table.is_coalesced(LargePageNum(0)));
        assert_eq!(table.mapped_in_large(LargePageNum(0)), 512);
        assert_eq!(table.large_frame_of(LargePageNum(0)), Some(lf), "same frame throughout");
        assert_eq!(table.translate(VirtPageNum(105).addr()).unwrap().size, PageSize::Large);
        let mut report = mosaic_sim_core::AuditReport::new();
        m.audit(&mut report);
        report.assert_clean("migrating");
    }

    /// Two apps march toward promotion in lockstep, so each app's
    /// promotion fires while the other has allocations in flight in the
    /// shared bump frame. At every checkpoint no base frame may be mapped
    /// by both address spaces, and after both promotions each region's
    /// large frame belongs to its app alone.
    #[test]
    fn interleaved_touches_never_share_a_frame_across_apps() {
        let mut m = mgr(32);
        for i in 0..512 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
            m.touch(AppId(1), VirtPageNum(i)).unwrap();
            if i % 64 == 0 || i == 511 {
                let mut owners = std::collections::BTreeMap::new();
                for (asid, table) in m.mem.tables.iter() {
                    for (_, pfn, _) in table.mappings() {
                        if let Some(prev) = owners.insert(pfn, asid) {
                            assert_eq!(prev, asid, "{pfn} mapped by both {prev} and {asid}");
                        }
                    }
                }
                let mut report = mosaic_sim_core::AuditReport::new();
                m.audit(&mut report);
                report.assert_clean("migrating");
            }
        }
        for a in [AppId(0), AppId(1)] {
            let table = m.tables().table(a).unwrap();
            assert!(table.is_coalesced(LargePageNum(0)), "{a} promoted");
            let lf = table.large_frame_of(LargePageNum(0)).unwrap();
            assert!(
                m.mem.pool.state(lf).is_some_and(|s| s.single_owner(a)),
                "{a}'s promoted frame is exclusively its"
            );
        }
    }

    /// Promotion is copy-then-switch: every migration event is
    /// non-blocking (the stale mappings stay valid while the copy engine
    /// works), and the one synchronizing action is the final targeted
    /// shootdown of the region.
    #[test]
    fn promotion_is_copy_then_switch() {
        let mut m = mgr(16);
        let needed = (512.0f64 * 0.70).ceil() as u64;
        let mut events = Vec::new();
        for i in 0..needed {
            events.extend(m.touch(AppId(0), VirtPageNum(i)).unwrap().events);
        }
        assert!(events
            .iter()
            .all(|e| !matches!(e, MgmtEvent::PageMigrated { blocking: true, .. })));
        assert!(
            matches!(events.last(), Some(MgmtEvent::TlbShootdown { asid: AppId(0), lpn }) if *lpn == LargePageNum(0))
        );
    }

    #[test]
    fn evict_splinters_promoted_region_and_allows_repromotion() {
        let mut m = mgr(16);
        for i in 0..512 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        assert!(m.tables().table(AppId(0)).unwrap().is_coalesced(LargePageNum(0)));
        let out = m.evict_for(LARGE_PAGE_SIZE);
        assert_eq!(out.evicted.len(), 512, "the promoted region went");
        assert!(out.events.iter().any(|e| matches!(e, MgmtEvent::TlbShootdown { .. })));
        let table = m.tables().table(AppId(0)).unwrap();
        assert!(!table.is_coalesced(LargePageNum(0)));
        assert!(!m.promoted.contains(&(AppId(0), LargePageNum(0))));
        let mut report = mosaic_sim_core::AuditReport::new();
        m.audit(&mut report);
        report.assert_clean("migrating");
        // The region refaults and can promote again.
        for i in 0..512 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        assert!(m.tables().table(AppId(0)).unwrap().is_coalesced(LargePageNum(0)));
    }

    #[test]
    fn promotion_carries_dirty_bits_to_the_destination() {
        let mut m = mgr(16);
        m.touch(AppId(0), VirtPageNum(0)).unwrap();
        let old = m.tables().table(AppId(0)).unwrap().translate(VirtPageNum(0).addr()).unwrap();
        m.note_use(old.frame, true);
        assert!(m.mem.pool.is_dirty(old.frame));
        for i in 1..512 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        // Promotion moved the page; the dirty bit must have moved too.
        let new = m.tables().table(AppId(0)).unwrap().translate(VirtPageNum(0).addr()).unwrap();
        assert_ne!(old.frame, new.frame);
        assert!(m.mem.pool.is_dirty(new.frame));
        assert!(!m.mem.pool.is_dirty(old.frame));
    }

    #[test]
    fn unreserved_region_tail_blocks_promotion() {
        let mut m = MigratingManager::new(16 * LARGE_PAGE_SIZE, 6, MigratingConfig::default());
        m.register_app(AppId(0));
        // Reserve only 400 pages of the first region: promotion would
        // have to map pages the app never reserved, so it must not fire.
        m.reserve(AppId(0), VirtPageNum(0), 400);
        for i in 0..400 {
            m.touch(AppId(0), VirtPageNum(i)).unwrap();
        }
        assert!(!m.tables().table(AppId(0)).unwrap().is_coalesced(LargePageNum(0)));
    }
}
