//! The resident-memory core every manager is built on.
//!
//! GPU-MMU, the migrating coalescer and Mosaic are policies behind one
//! runtime interface (Section 4, Figure 1): reserve en masse, fault per
//! page, deallocate per kernel, and evict under memory pressure. What
//! they share — the page tables, the frame pool, the reservations, the
//! touched-page set, the statistics, the 4 KB far-fault tail, the
//! deallocation front half and the whole-frame LRU eviction loop — lives
//! here once; each manager keeps only its placement, coalescing or
//! promotion, and compaction policy.

use crate::frames::FramePool;
use crate::{EvictOutcome, ManagerStats, MemError, MgmtEvent};
use mosaic_sim_core::AuditReport;
use mosaic_vm::{
    AppId, LargeFrameNum, LargePageNum, PageSet, PageTable, PageTableSet, PhysFrameNum,
    VirtPageNum, BASE_PAGES_PER_LARGE_PAGE, BASE_PAGE_SIZE, LARGE_PAGE_SIZE,
};

/// The state every manager shares: translations, physical frames,
/// reservations, the touched working set and the aggregate counters.
/// Read-only through [`crate::MemoryManager::memory`], whose provided
/// methods answer every bookkeeping query from it.
#[derive(Debug)]
pub struct ResidentMemory {
    pub(crate) tables: PageTableSet,
    pub(crate) pool: FramePool,
    pub(crate) stats: ManagerStats,
    reservations: Vec<(AppId, VirtPageNum, u64)>,
    touched: PageSet,
}

/// Manager-specific steps of the shared eviction loop
/// ([`ResidentMemory::evict_lru`]). Both default to no-ops.
pub(crate) trait EvictHooks {
    /// Called once per `(asid, lpn)` region with pages in the victim
    /// frame, after the region was splintered if it was coalesced.
    fn on_region(
        &mut self,
        _asid: AppId,
        _lpn: LargePageNum,
        _victim: LargeFrameNum,
        _splintered: bool,
    ) {
    }

    /// Called once the victim's pages are unmapped, just before the
    /// frame returns to the pool.
    fn before_release(&mut self, _victim: LargeFrameNum) {}
}

impl EvictHooks for () {}

impl ResidentMemory {
    /// An empty address-space set over `memory_bytes` of physical memory
    /// striped across `channels`.
    pub(crate) fn new(memory_bytes: u64, channels: usize) -> Self {
        ResidentMemory {
            tables: PageTableSet::new(),
            pool: FramePool::new(memory_bytes, channels),
            stats: ManagerStats::default(),
            reservations: Vec::new(),
            touched: PageSet::new(),
        }
    }

    /// The frame pool (for experiment instrumentation).
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    pub(crate) fn touched_bytes(&self) -> u64 {
        self.touched.len() * BASE_PAGE_SIZE
    }

    pub(crate) fn reserve(&mut self, asid: AppId, start: VirtPageNum, pages: u64) {
        self.reservations.push((asid, start, pages));
    }

    /// The first reservation of `asid` holding `vpn`, as `(start, pages)`.
    fn reservation_of(&self, asid: AppId, vpn: VirtPageNum) -> Option<(VirtPageNum, u64)> {
        self.reservations
            .iter()
            .find(|&&(a, start, n)| {
                a == asid && vpn.raw() >= start.raw() && vpn.raw() < start.raw() + n
            })
            .map(|&(_, start, n)| (start, n))
    }

    fn is_reserved(&self, asid: AppId, vpn: VirtPageNum) -> bool {
        self.reservation_of(asid, vpn).is_some()
    }

    /// Whether the first and the last page of `lpn` each lie in *some*
    /// reservation (the migrating coalescer's promotion guard: promotion
    /// must not map pages the application never reserved).
    pub(crate) fn region_reserved(&self, asid: AppId, lpn: LargePageNum) -> bool {
        let first = lpn.base_page(0);
        let last = VirtPageNum(first.raw() + BASE_PAGES_PER_LARGE_PAGE - 1);
        self.is_reserved(asid, first) && self.is_reserved(asid, last)
    }

    /// Whether `vpn`'s whole 2 MB large page lies inside the *one*
    /// reservation holding `vpn` — the pages CoCoA places positionally in
    /// a dedicated large frame.
    pub(crate) fn in_aligned_chunk(&self, asid: AppId, vpn: VirtPageNum) -> bool {
        match self.reservation_of(asid, vpn) {
            Some((start, n)) => {
                let first = vpn.large_page().base_page(0).raw();
                let last = first + BASE_PAGES_PER_LARGE_PAGE;
                first >= start.raw() && last <= start.raw() + n
            }
            None => false,
        }
    }

    /// The touch prologue every manager shares: rejects an unreserved
    /// page, and counts a touch of an already-resident one. `Ok(true)`
    /// means the page is resident and the touch is complete.
    pub(crate) fn touch_resident(
        &mut self,
        asid: AppId,
        vpn: VirtPageNum,
    ) -> Result<bool, MemError> {
        if !self.is_reserved(asid, vpn) {
            return Err(MemError::NotReserved);
        }
        let resident = self.tables.table_mut(asid).is_mapped(vpn);
        if resident {
            self.count_touch(asid, vpn);
        }
        Ok(resident)
    }

    /// Adds `vpn` to the touched working set. Only a touch that made the
    /// page resident counts: a failed allocation must not inflate
    /// [`ResidentMemory::touched_bytes`].
    pub(crate) fn count_touch(&mut self, asid: AppId, vpn: VirtPageNum) {
        self.touched.insert(asid, vpn);
    }

    /// Maps the unmapped `vpn` to `pfn`, recording ownership and the
    /// reverse mapping in the pool.
    ///
    /// # Errors
    ///
    /// The frame `vpn` already maps, changing nothing.
    pub(crate) fn map_page(
        &mut self,
        asid: AppId,
        vpn: VirtPageNum,
        pfn: PhysFrameNum,
    ) -> Result<(), PhysFrameNum> {
        self.tables.table_mut(asid).map_base(vpn, pfn)?;
        self.pool.set_owner(pfn, Some(asid));
        self.pool.set_mapping(pfn, vpn);
        Ok(())
    }

    /// The 4 KB far-fault tail: maps the unmapped `vpn` to `pfn`, records
    /// ownership and the reverse mapping, counts the touch, and charges
    /// one base page over the I/O bus. Fails as
    /// [`ResidentMemory::map_page`] does.
    pub(crate) fn fault_in(
        &mut self,
        asid: AppId,
        vpn: VirtPageNum,
        pfn: PhysFrameNum,
    ) -> Result<(), PhysFrameNum> {
        self.map_page(asid, vpn, pfn)?;
        self.count_touch(asid, vpn);
        self.stats.far_faults += 1;
        self.stats.transferred_bytes += BASE_PAGE_SIZE;
        Ok(())
    }

    /// The deallocation front half: unmaps `pages` base pages from
    /// `start` and frees their frames. Returns the large pages the range
    /// touched, ascending and distinct — the regions whose splinter or
    /// compaction policy must run next.
    pub(crate) fn unmap_range(
        &mut self,
        asid: AppId,
        start: VirtPageNum,
        pages: u64,
    ) -> Vec<LargePageNum> {
        let mut lpns = Vec::new();
        for i in 0..pages {
            let vpn = VirtPageNum(start.raw() + i);
            if lpns.last() != Some(&vpn.large_page()) {
                lpns.push(vpn.large_page());
            }
            if let Some(pfn) = self.tables.table_mut(asid).unmap_base(vpn) {
                self.pool.set_owner(pfn, None);
            }
        }
        lpns
    }

    /// Splinters every coalesced region in `lpns` that no longer maps any
    /// page, returning one [`MgmtEvent::Splintered`] per region.
    pub(crate) fn splinter_drained(
        &mut self,
        asid: AppId,
        lpns: &[LargePageNum],
    ) -> Vec<MgmtEvent> {
        let mut events = Vec::new();
        for &lpn in lpns {
            let table = self.tables.table_mut(asid);
            if table.mapped_in_large(lpn) == 0 && splinter(table, lpn, &mut events) {
                self.stats.splinters += 1;
            }
        }
        events
    }

    /// Returns every wholly-freed frame to the pool, except `keep`.
    pub(crate) fn release_drained(&mut self, keep: Option<LargeFrameNum>) {
        let empty: Vec<_> =
            self.pool.tracked().filter(|(_, s)| s.is_empty()).map(|(lf, _)| lf).collect();
        for lf in empty {
            if keep != Some(lf) {
                self.pool.release_frame(lf);
            }
        }
    }

    /// The eviction policy every manager shares: evicts least-recently
    /// used large frames wholesale until at least `bytes` (rounded up to
    /// whole frames) are free. For each victim — never `skip` — it tallies
    /// the dirty pages' write-back, splinters every coalesced region the
    /// frame backs (base unmaps inside a live large mapping would leave
    /// the region half torn down), runs `hooks`, unmaps every resident
    /// page, releases the frame, and emits one [`MgmtEvent::TlbShootdown`]
    /// per region.
    pub(crate) fn evict_lru(
        &mut self,
        bytes: u64,
        skip: Option<LargeFrameNum>,
        hooks: &mut impl EvictHooks,
    ) -> EvictOutcome {
        let want = bytes.div_ceil(LARGE_PAGE_SIZE).max(1);
        let mut out = EvictOutcome::default();
        let mut freed = 0u64;
        for lf in self.pool.eviction_candidates() {
            if freed >= want {
                break;
            }
            if skip == Some(lf) {
                continue;
            }
            let residents = self.pool.residents(lf);
            if residents.is_empty() {
                continue;
            }
            let mut regions: Vec<(AppId, LargePageNum)> = Vec::new();
            for &(pfn, asid, vpn) in &residents {
                if self.pool.is_dirty(pfn) {
                    out.writeback_bytes += BASE_PAGE_SIZE;
                }
                let key = (asid, vpn.large_page());
                if !regions.contains(&key) {
                    regions.push(key);
                }
            }
            for &(asid, lpn) in &regions {
                let table = self.tables.table_mut(asid);
                let splintered = table.is_coalesced(lpn);
                if splintered {
                    table.splinter(lpn);
                }
                hooks.on_region(asid, lpn, lf, splintered);
            }
            for &(pfn, asid, vpn) in &residents {
                self.tables.table_mut(asid).unmap_base(vpn);
                self.pool.set_owner(pfn, None);
                out.evicted.push((asid, vpn));
            }
            hooks.before_release(lf);
            self.pool.release_frame(lf);
            freed += 1;
            for (asid, lpn) in regions {
                out.events.push(MgmtEvent::TlbShootdown { asid, lpn });
            }
        }
        self.stats.evictions += out.evicted.len() as u64;
        self.stats.writeback_bytes += out.writeback_bytes;
        out
    }

    /// Audits the page tables and the frame pool, then that they agree:
    /// each mapping's physical frame must be owned *by that mapping's
    /// address space*, with the pool's reverse map pointing back at it. A
    /// frame freed while still mapped (use after free) or mapped while
    /// owned by someone else shows up here even when both structures are
    /// internally consistent.
    pub(crate) fn audit(&self, component: &'static str, report: &mut AuditReport) {
        use mosaic_sim_core::AuditInvariants;
        self.tables.audit(report);
        self.pool.audit(report);
        for (asid, table) in self.tables.iter() {
            for lpn in table.mapped_regions() {
                for (vpn, pfn, _) in table.region_mappings(lpn) {
                    let owner = self.pool.owner(pfn);
                    report.check(component, owner == Some(asid), || match owner {
                        Some(other) => {
                            format!("{asid}/{vpn} maps {pfn}, but the pool says {other} owns it")
                        }
                        None => format!("{asid}/{vpn} maps {pfn}, but the pool says it is unowned"),
                    });
                    let back = self.pool.mapping(pfn);
                    report.check(component, back == Some(vpn), || match back {
                        Some(other) => format!(
                            "{asid}/{vpn} maps {pfn}, but the pool's reverse map says {other}"
                        ),
                        None => format!(
                            "{asid}/{vpn} maps {pfn}, but the pool's reverse map has no entry"
                        ),
                    });
                }
            }
        }
    }
}

/// The splinter path of every deallocation and failsafe: splinters `lpn`
/// if it is coalesced, traces it, and queues the
/// [`MgmtEvent::Splintered`] TLB flush. Returns whether it splintered.
/// (Eviction splinters without either: its region shootdowns cover the
/// flush.)
pub(crate) fn splinter(
    table: &mut PageTable,
    lpn: LargePageNum,
    events: &mut Vec<MgmtEvent>,
) -> bool {
    let splintered = table.splinter(lpn);
    if splintered {
        let asid = table.asid();
        mosaic_telemetry::emit(|| mosaic_telemetry::Event::Splinter {
            asid: asid.0,
            lpn: lpn.raw(),
        });
        events.push(MgmtEvent::Splintered { asid, lpn });
    }
    splintered
}

/// The shared, partially-filled "open" large frame that GPU-MMU and the
/// migrating coalescer hand base pages out of in fault-arrival order —
/// the source of Figure 1a's inter-application interleaving.
#[derive(Debug, Default)]
pub(crate) struct OpenFrame(Option<(LargeFrameNum, u64)>);

impl OpenFrame {
    /// The next base frame in fault order, opening a fresh large frame
    /// when the current one is full. The caller maps and owns it.
    pub(crate) fn alloc(&mut self, pool: &mut FramePool) -> Result<PhysFrameNum, MemError> {
        let (lf, idx) = match self.0.take() {
            Some((lf, idx)) if idx < BASE_PAGES_PER_LARGE_PAGE => (lf, idx),
            _ => (pool.take_free_frame().ok_or(MemError::OutOfMemory)?, 0),
        };
        if idx + 1 < BASE_PAGES_PER_LARGE_PAGE {
            self.0 = Some((lf, idx + 1));
        }
        Ok(lf.base_frame(idx))
    }

    /// The open frame, which must be neither evicted nor released.
    pub(crate) fn frame(&self) -> Option<LargeFrameNum> {
        self.0.map(|(lf, _)| lf)
    }

    /// Checks the bump cursor is in range and its frame tracked.
    pub(crate) fn audit(
        &self,
        component: &'static str,
        pool: &FramePool,
        report: &mut AuditReport,
    ) {
        if let Some((lf, next)) = self.0 {
            report.check(component, next < BASE_PAGES_PER_LARGE_PAGE, || {
                format!("open frame {lf} has out-of-range bump index {next}")
            });
            report.check(component, pool.tracked().any(|(t, _)| t == lf), || {
                format!("open frame {lf} is not tracked by the pool")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory(frames: u64) -> ResidentMemory {
        let mut m = ResidentMemory::new(frames * LARGE_PAGE_SIZE, 6);
        m.tables.table_mut(AppId(0));
        m
    }

    #[test]
    fn the_two_reservation_predicates_differ_on_split_reservations() {
        // Two back-to-back reservations cover region 0 between them:
        // each end page is reserved (the migrating coalescer may
        // promote), but no single reservation holds the whole region
        // (CoCoA must not place it positionally).
        let mut m = memory(4);
        m.reserve(AppId(0), VirtPageNum(0), 256);
        m.reserve(AppId(0), VirtPageNum(256), 256);
        assert!(m.region_reserved(AppId(0), LargePageNum(0)));
        assert!(!m.in_aligned_chunk(AppId(0), VirtPageNum(0)));
        m.reserve(AppId(0), VirtPageNum(512), 512);
        assert!(m.region_reserved(AppId(0), LargePageNum(1)));
        assert!(m.in_aligned_chunk(AppId(0), VirtPageNum(700)));
    }

    #[test]
    fn touch_prologue_rejects_unreserved_and_counts_resident_pages_once() {
        let mut m = memory(4);
        m.reserve(AppId(0), VirtPageNum(0), 16);
        assert_eq!(m.touch_resident(AppId(0), VirtPageNum(99)), Err(MemError::NotReserved));
        assert_eq!(m.touch_resident(AppId(0), VirtPageNum(3)), Ok(false));
        assert_eq!(m.touched_bytes(), 0, "a miss is counted only once it faults in");
        let lf = m.pool.take_free_frame().unwrap();
        m.fault_in(AppId(0), VirtPageNum(3), lf.base_frame(0)).unwrap();
        assert_eq!(m.fault_in(AppId(0), VirtPageNum(3), lf.base_frame(1)), Err(lf.base_frame(0)));
        assert_eq!(m.touch_resident(AppId(0), VirtPageNum(3)), Ok(true));
        assert_eq!(m.touched_bytes(), BASE_PAGE_SIZE);
        assert_eq!(m.stats.far_faults, 1);
        assert_eq!(m.stats.transferred_bytes, BASE_PAGE_SIZE);
        let mut report = AuditReport::new();
        m.audit("resident", &mut report);
        report.assert_clean("resident");
    }

    #[test]
    fn unmap_range_reports_each_region_once_in_order() {
        let mut m = memory(4);
        m.reserve(AppId(0), VirtPageNum(0), 2048);
        let lpns = m.unmap_range(AppId(0), VirtPageNum(500), 600);
        assert_eq!(lpns, vec![LargePageNum(0), LargePageNum(1), LargePageNum(2)]);
        assert!(m.unmap_range(AppId(0), VirtPageNum(0), 0).is_empty());
    }

    #[test]
    fn open_frame_bumps_through_one_frame_before_opening_the_next() {
        let mut pool = FramePool::new(2 * LARGE_PAGE_SIZE, 6);
        let mut open = OpenFrame::default();
        let first = open.alloc(&mut pool).unwrap();
        for i in 1..BASE_PAGES_PER_LARGE_PAGE {
            assert_eq!(open.alloc(&mut pool).unwrap(), first.large_frame().base_frame(i));
        }
        assert_eq!(open.frame(), None, "a full frame is no longer open");
        let second = open.alloc(&mut pool).unwrap();
        assert_ne!(second.large_frame(), first.large_frame());
        assert_eq!(open.frame(), Some(second.large_frame()));
        let mut report = AuditReport::new();
        open.audit("open", &pool, &mut report);
        report.assert_clean("open");
    }
}
