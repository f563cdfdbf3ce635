//! Contiguity-Aware Compaction (CAC), Section 4.4.
//!
//! Deallocation can leave a coalesced large page internally fragmented:
//! some of its base pages are gone, yet the unallocated base frames cannot
//! back any other virtual pages while the large mapping exists. When
//! fragmentation in a coalesced page crosses a threshold, CAC
//!
//! 1. **splinters** the page (clear the disabled bits, atomically clear
//!    the large-page bit, flush the TLB's large-page entry), and
//! 2. **compacts** it: migrates the surviving base pages into spare slots
//!    of other, uncoalesced large frames of the *same application* in the
//!    *same DRAM channel*, then returns the emptied frame to CoCoA's free
//!    frame list.
//!
//! Pages above the threshold are parked on the *emergency frame list*: if
//! CoCoA ever runs out of frames, the failsafe splinters one and hands its
//! holes out as base pages. A second failsafe compacts the artificial
//! fragmentation injected by the Section 6.4 stress tests.
//!
//! Migration cost is returned as [`MgmtEvent::PageMigrated`] events; with
//! `bulk_copy` (CAC-BC) the simulator charges the ~80 ns in-DRAM
//! RowClone/LISA path instead of 512 narrow bus beats, and with `ideal`
//! migrations are free (the paper's Ideal CAC reference).

use crate::cocoa::CoCoA;
use crate::frames::{FramePool, FRAG_OWNER};
use crate::resident::splinter;
use crate::MgmtEvent;
use mosaic_sim_core::{AuditInvariants, AuditReport, Counter};
use mosaic_vm::{AppId, LargeFrameNum, LargePageNum, PageTable, BASE_PAGES_PER_LARGE_PAGE};

/// CAC policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacConfig {
    /// Master switch (the "no CAC" configuration of Figure 16).
    pub enabled: bool,
    /// Splinter a coalesced page when its mapped fraction drops strictly
    /// below this threshold; otherwise park it on the emergency list.
    pub occupancy_threshold: f64,
    /// Use in-DRAM bulk copy for migrations (CAC-BC).
    pub bulk_copy: bool,
    /// Zero-cost migrations (the Ideal CAC reference).
    pub ideal: bool,
}

impl Default for CacConfig {
    fn default() -> Self {
        CacConfig { enabled: true, occupancy_threshold: 0.5, bulk_copy: false, ideal: false }
    }
}

impl CacConfig {
    /// The paper's CAC-BC variant.
    pub fn with_bulk_copy() -> Self {
        CacConfig { bulk_copy: true, ..Self::default() }
    }

    /// The zero-latency Ideal CAC reference.
    pub fn ideal() -> Self {
        CacConfig { ideal: true, ..Self::default() }
    }

    /// CAC disabled.
    pub fn disabled() -> Self {
        CacConfig { enabled: false, ..Self::default() }
    }
}

/// The compaction engine.
#[derive(Debug, Default)]
pub struct Cac {
    config: CacConfig,
    splinters: Counter,
    migrations: Counter,
    frames_reclaimed: Counter,
    soft_guarantee_breaks: Counter,
}

impl Cac {
    /// Creates a CAC engine with the given policy.
    pub fn new(config: CacConfig) -> Self {
        Cac { config, ..Default::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> &CacConfig {
        &self.config
    }

    fn migrate_event(&mut self, channel: usize) -> Option<MgmtEvent> {
        self.migrations.inc();
        if self.config.ideal {
            None
        } else {
            Some(MgmtEvent::PageMigrated {
                channel,
                bulk: self.config.bulk_copy,
                // Compaction frees the very frame the triggering
                // allocation needs: it must wait for the data to move.
                blocking: true,
            })
        }
    }

    /// Reacts to deallocations inside the (possibly coalesced) large page
    /// `lpn`. Call after the base pages have been unmapped from `table`
    /// and their owners cleared in `pool`.
    ///
    /// Returns the hardware events to charge.
    pub fn on_dealloc(
        &mut self,
        table: &mut PageTable,
        pool: &mut FramePool,
        cocoa: &mut CoCoA,
        asid: AppId,
        lpn: LargePageNum,
    ) -> Vec<MgmtEvent> {
        let mut events = Vec::new();
        let mapped = table.mapped_in_large(lpn);
        if !table.is_coalesced(lpn) {
            // Uncoalesced frame: just release it if fully drained.
            if mapped == 0 {
                if let Some(lf) = cocoa.unbind_chunk(asid, lpn) {
                    cocoa.reclaim_base(asid, lf);
                    if pool.is_empty(lf) {
                        pool.release_frame(lf);
                        self.frames_reclaimed.inc();
                    }
                }
            }
            return events;
        }
        if !self.config.enabled {
            return events;
        }
        let occupancy = mapped as f64 / BASE_PAGES_PER_LARGE_PAGE as f64;
        if occupancy >= self.config.occupancy_threshold && mapped > 0 {
            // Still well-populated: keep the large page, park it for the
            // failsafe.
            cocoa.park_emergency(asid, lpn);
            return events;
        }
        // Splinter...
        splinter(table, lpn, &mut events);
        self.splinters.inc();
        cocoa.unpark_emergency(asid, lpn);
        // ...and compact the survivors into same-channel spare slots.
        let lf = match cocoa.unbind_chunk(asid, lpn) {
            Some(lf) => lf,
            None => return events,
        };
        let channel = pool.channel_of(lf);
        let survivors: Vec<_> =
            table.region_mappings(lpn).map(|(vpn, pfn, _)| (vpn, pfn)).collect();
        let mut stuck = Vec::new();
        for (vpn, old) in survivors {
            // Destination: a spare base frame of the same app in the same
            // channel, from the free base page list.
            let dst = self.take_same_channel_base(cocoa, pool, asid, channel);
            match dst {
                Some(dst) => {
                    table.remap_base(vpn, dst).expect("survivor is mapped");
                    pool.migrate(old, dst, asid, vpn);
                    if let Some(ev) = self.migrate_event(channel) {
                        events.push(ev);
                    }
                }
                None => stuck.push(vpn),
            }
        }
        if pool.is_empty(lf) {
            pool.release_frame(lf);
            self.frames_reclaimed.inc();
        } else {
            // Migration ran out of destinations: the remaining holes are
            // still usable as base pages for this app.
            cocoa.donate_base(asid, pool.holes(lf));
        }
        let _ = stuck;
        events
    }

    fn take_same_channel_base(
        &mut self,
        cocoa: &mut CoCoA,
        pool: &mut FramePool,
        asid: AppId,
        channel: usize,
    ) -> Option<mosaic_vm::PhysFrameNum> {
        // Scan the app's free base list for a same-channel frame. The list
        // is small in practice (≤ a few frames' worth).
        let n = cocoa.free_base_len(asid);
        let mut tried = Vec::with_capacity(n);
        let mut found = None;
        for _ in 0..n {
            let pfn = match cocoa.pop_free_base(asid) {
                Some(p) => p,
                None => break,
            };
            if pool.channel_of(pfn.large_frame()) == channel {
                found = Some(pfn);
                break;
            }
            tried.push(pfn);
        }
        cocoa.donate_base(asid, tried);
        found
    }

    /// The failsafe: frees up capacity when CoCoA runs out of frames.
    ///
    /// First tries to compact the pre-fragmented (stress-test) frames; if
    /// none can be freed, splinters one emergency-list page and donates its
    /// holes to `requester`'s free base page list (breaking the soft
    /// guarantee if the page belonged to someone else — which is exactly
    /// why the guarantee is *soft*).
    ///
    /// Returns the events plus `true` if any capacity was recovered.
    pub fn reclaim(
        &mut self,
        tables: &mut mosaic_vm::page_table::PageTableSet,
        pool: &mut FramePool,
        cocoa: &mut CoCoA,
        requester: AppId,
    ) -> (Vec<MgmtEvent>, bool) {
        let mut events = Vec::new();
        if self.config.enabled {
            if let Some(events) = self.compact_fragmented(pool) {
                return (events, true);
            }
            // Emergency path: walk the list until an entry actually yields
            // free base frames. A parked page whose holes have since been
            // re-touched back to full occupancy has nothing to give —
            // splintering it would only destroy a perfectly good large
            // page and recover zero capacity — so it is dropped from the
            // list instead (a later dealloc re-parks it if it fragments
            // again).
            while let Some((owner, lpn)) = cocoa.pop_emergency() {
                let table = tables.table_mut(owner);
                if table.mapped_in_large(lpn) == BASE_PAGES_PER_LARGE_PAGE {
                    continue;
                }
                if splinter(table, lpn, &mut events) {
                    self.splinters.inc();
                }
                let Some(lf) = cocoa.unbind_chunk(owner, lpn) else { continue };
                let holes = pool.holes(lf);
                if holes.is_empty() {
                    continue;
                }
                if owner != requester {
                    self.soft_guarantee_breaks.inc();
                }
                cocoa.donate_base(requester, holes);
                return (events, true);
            }
        }
        // Scavenge path (available even with CAC disabled — allocation
        // must not fail just because memory is fragmented): hand the holes
        // of the emptiest fragmented frame to the requester as plain base
        // pages. They can never coalesce — this is exactly the degraded
        // mode the Section 6.4 stress tests measure.
        if let Some(frames) = self.scavenge_fragmented_holes(pool) {
            self.soft_guarantee_breaks.inc();
            // Stamp ownership now so a later scavenge cannot hand the same
            // holes out twice (donated frames sit unallocated on the free
            // base page list until used).
            for &pfn in &frames {
                pool.set_owner(pfn, Some(requester));
            }
            cocoa.donate_base(requester, frames);
            return (events, true);
        }
        (events, false)
    }

    /// Finds the fragmented (FRAG_OWNER) frame with the most holes and
    /// returns those base frames, or `None` if no fragmented frame has
    /// free space. O(1) in a run without injected fragmentation.
    fn scavenge_fragmented_holes(
        &mut self,
        pool: &mut FramePool,
    ) -> Option<Vec<mosaic_vm::PhysFrameNum>> {
        if pool.frag_frames() == 0 {
            return None;
        }
        let victim = pool
            .tracked()
            .filter(|(_, s)| !s.is_full() && s.frag_used() > 0)
            .max_by_key(|(lf, s)| (BASE_PAGES_PER_LARGE_PAGE - s.used(), std::cmp::Reverse(*lf)))
            .map(|(lf, _)| lf)?;
        let holes = pool.holes(victim);
        if holes.is_empty() {
            None
        } else {
            Some(holes)
        }
    }

    /// Consolidates pre-fragmented (FRAG_OWNER) data: moves the pages of
    /// the least-occupied fragmented frame into holes of other fragmented
    /// frames in the same channel, freeing the source frame. Returns the
    /// migration events, or `None` if no frame could be freed. O(1) in a
    /// run without injected fragmentation.
    fn compact_fragmented(&mut self, pool: &mut FramePool) -> Option<Vec<MgmtEvent>> {
        if pool.frag_frames() == 0 {
            return None;
        }
        // Pick the least-occupied frame holding only FRAG_OWNER data.
        let mut frag_frames: Vec<(LargeFrameNum, u64)> = pool
            .tracked()
            .filter(|(_, s)| s.frag_used() > 0 && s.frag_used() == s.used())
            .map(|(lf, s)| (lf, s.used()))
            .collect();
        frag_frames.sort_by_key(|&(lf, used)| (used, lf));
        let (src, src_used) = *frag_frames.first()?;
        let channel = pool.channel_of(src);
        // Capacity available in other same-channel fragmented frames.
        let mut dst_holes: Vec<mosaic_vm::PhysFrameNum> = Vec::new();
        for &(lf, _) in frag_frames.iter().skip(1) {
            if pool.channel_of(lf) != channel {
                continue;
            }
            for hole in pool.holes(lf) {
                dst_holes.push(hole);
                if dst_holes.len() as u64 >= src_used {
                    break;
                }
            }
            if dst_holes.len() as u64 >= src_used {
                break;
            }
        }
        if (dst_holes.len() as u64) < src_used {
            return None; // Cannot fully drain any frame.
        }
        let mut events = Vec::new();
        let srcs: Vec<_> = pool
            .state(src)
            .into_iter()
            .flat_map(|s| s.allocated().map(|(i, _)| src.base_frame(i)))
            .collect();
        for (from, to) in srcs.into_iter().zip(dst_holes) {
            pool.set_owner(from, None);
            pool.set_owner(to, Some(FRAG_OWNER));
            if let Some(ev) = self.migrate_event(channel) {
                events.push(ev);
            }
        }
        pool.release_frame(src);
        self.frames_reclaimed.inc();
        Some(events)
    }

    /// Large pages splintered by CAC.
    pub fn splinters(&self) -> u64 {
        self.splinters.get()
    }

    /// Base pages migrated.
    pub fn migrations(&self) -> u64 {
        self.migrations.get()
    }

    /// Whole large frames returned to the free list.
    pub fn frames_reclaimed(&self) -> u64 {
        self.frames_reclaimed.get()
    }

    /// Times the emergency failsafe handed one app's spare frames to
    /// another (soft-guarantee breaks).
    pub fn soft_guarantee_breaks(&self) -> u64 {
        self.soft_guarantee_breaks.get()
    }
}

impl AuditInvariants for Cac {
    fn audit_component(&self) -> &'static str {
        "cac"
    }

    /// Policy sanity: the splinter threshold must stay a valid occupancy
    /// fraction, and the counters must be mutually consistent (every
    /// soft-guarantee break came from a reclaim, which splinters or
    /// scavenges).
    fn audit(&self, report: &mut AuditReport) {
        let c = self.audit_component();
        let t = self.config.occupancy_threshold;
        report.check(c, t.is_finite() && (0.0..=1.0).contains(&t), || {
            format!("occupancy threshold {t} is not a fraction in [0, 1]")
        });
        report.check(c, !self.config.ideal || self.config.enabled, || {
            "ideal CAC requires CAC to be enabled".to_string()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::FrameState;
    use mosaic_vm::{PageTableSet, LARGE_PAGE_SIZE};

    fn setup(frames: u64) -> (PageTableSet, FramePool, CoCoA) {
        (PageTableSet::new(), FramePool::new(frames * LARGE_PAGE_SIZE, 6), CoCoA::new())
    }

    /// Builds a fully-mapped, coalesced chunk for `asid` at `lpn`.
    fn build_coalesced(
        tables: &mut PageTableSet,
        pool: &mut FramePool,
        cocoa: &mut CoCoA,
        asid: AppId,
        lpn: LargePageNum,
    ) -> LargeFrameNum {
        let lf = cocoa.frame_for_chunk(pool, asid, lpn).unwrap();
        let table = tables.table_mut(asid);
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            table.map_base(lpn.base_page(i), lf.base_frame(i)).unwrap();
            pool.set_owner(lf.base_frame(i), Some(asid));
        }
        table.coalesce(lpn).unwrap();
        lf
    }

    fn dealloc_pages(
        tables: &mut PageTableSet,
        pool: &mut FramePool,
        asid: AppId,
        lpn: LargePageNum,
        count: u64,
    ) {
        let table = tables.table_mut(asid);
        for i in 0..count {
            let vpn = lpn.base_page(i);
            if let Some(pfn) = table.unmap_base(vpn) {
                pool.set_owner(pfn, None);
            }
        }
    }

    #[test]
    fn low_occupancy_triggers_splinter_and_compaction() {
        let (mut tables, mut pool, mut cocoa) = setup(8);
        let asid = AppId(0);
        let lpn = LargePageNum(0);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, asid, lpn);
        // Give the app spare base frames in the same channel (frame 6 maps
        // to channel 0, same as frame 0).
        let spare = pool.take_free_frame().unwrap(); // frame 1
        let same_channel = LargeFrameNum(6);
        assert_eq!(pool.channel_of(same_channel), pool.channel_of(LargeFrameNum(0)));
        let _ = spare;
        // Take frames until we hold frame 6, then donate its slots.
        let mut lf = pool.take_free_frame().unwrap();
        while lf != same_channel {
            lf = pool.take_free_frame().unwrap();
        }
        cocoa.donate_base(asid, lf.base_frames());

        // Deallocate 500 of 512 pages: occupancy 12/512 << 50%.
        dealloc_pages(&mut tables, &mut pool, asid, lpn, 500);
        let mut cac = Cac::new(CacConfig::default());
        let events = cac.on_dealloc(tables.table_mut(asid), &mut pool, &mut cocoa, asid, lpn);

        assert!(matches!(events[0], MgmtEvent::Splintered { .. }));
        let migrations =
            events.iter().filter(|e| matches!(e, MgmtEvent::PageMigrated { .. })).count();
        assert_eq!(migrations, 12, "all 12 survivors migrate");
        assert_eq!(cac.frames_reclaimed(), 1, "source frame was freed");
        // Survivors still translate, at base size, to same-channel frames.
        let table = tables.table(asid).unwrap();
        for i in 500..512 {
            let t = table.translate(lpn.base_page(i).addr()).unwrap();
            assert_eq!(pool.channel_of(t.frame.large_frame()), 0);
        }
    }

    #[test]
    fn high_occupancy_parks_on_emergency_list() {
        let (mut tables, mut pool, mut cocoa) = setup(4);
        let asid = AppId(0);
        let lpn = LargePageNum(0);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, asid, lpn);
        dealloc_pages(&mut tables, &mut pool, asid, lpn, 10); // occupancy 98%
        let mut cac = Cac::new(CacConfig::default());
        let events = cac.on_dealloc(tables.table_mut(asid), &mut pool, &mut cocoa, asid, lpn);
        assert!(events.is_empty());
        assert!(tables.table(asid).unwrap().is_coalesced(lpn), "page stays coalesced");
        assert_eq!(cocoa.emergency_len(), 1);
    }

    #[test]
    fn disabled_cac_does_nothing() {
        let (mut tables, mut pool, mut cocoa) = setup(4);
        let asid = AppId(0);
        let lpn = LargePageNum(0);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, asid, lpn);
        dealloc_pages(&mut tables, &mut pool, asid, lpn, 511);
        let mut cac = Cac::new(CacConfig::disabled());
        let events = cac.on_dealloc(tables.table_mut(asid), &mut pool, &mut cocoa, asid, lpn);
        assert!(events.is_empty());
        assert!(tables.table(asid).unwrap().is_coalesced(lpn));
        assert_eq!(cac.splinters(), 0);
    }

    #[test]
    fn ideal_cac_migrates_for_free() {
        let (mut tables, mut pool, mut cocoa) = setup(8);
        let asid = AppId(0);
        let lpn = LargePageNum(0);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, asid, lpn);
        let lf = LargeFrameNum(6);
        let mut f = pool.take_free_frame().unwrap();
        while f != lf {
            f = pool.take_free_frame().unwrap();
        }
        cocoa.donate_base(asid, lf.base_frames());
        dealloc_pages(&mut tables, &mut pool, asid, lpn, 510);
        let mut cac = Cac::new(CacConfig::ideal());
        let events = cac.on_dealloc(tables.table_mut(asid), &mut pool, &mut cocoa, asid, lpn);
        // Splinter event only: migrations happened but cost nothing.
        assert_eq!(events.len(), 1);
        assert_eq!(cac.migrations(), 2);
    }

    #[test]
    fn bulk_copy_flag_propagates() {
        let (mut tables, mut pool, mut cocoa) = setup(8);
        let asid = AppId(0);
        let lpn = LargePageNum(0);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, asid, lpn);
        let lf = LargeFrameNum(6);
        let mut f = pool.take_free_frame().unwrap();
        while f != lf {
            f = pool.take_free_frame().unwrap();
        }
        cocoa.donate_base(asid, lf.base_frames());
        dealloc_pages(&mut tables, &mut pool, asid, lpn, 511);
        let mut cac = Cac::new(CacConfig::with_bulk_copy());
        let events = cac.on_dealloc(tables.table_mut(asid), &mut pool, &mut cocoa, asid, lpn);
        assert!(events.iter().any(|e| matches!(e, MgmtEvent::PageMigrated { bulk: true, .. })));
    }

    #[test]
    fn full_dealloc_releases_frame() {
        let (mut tables, mut pool, mut cocoa) = setup(4);
        let asid = AppId(0);
        let lpn = LargePageNum(0);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, asid, lpn);
        let free_before = pool.free_frames();
        dealloc_pages(&mut tables, &mut pool, asid, lpn, 512);
        let mut cac = Cac::new(CacConfig::default());
        let events = cac.on_dealloc(tables.table_mut(asid), &mut pool, &mut cocoa, asid, lpn);
        assert!(matches!(events[0], MgmtEvent::Splintered { .. }));
        assert_eq!(pool.free_frames(), free_before + 1);
    }

    #[test]
    fn reclaim_compacts_fragmented_memory() {
        let (mut tables, mut pool, mut cocoa) = setup(12);
        let mut rng = mosaic_sim_core::SimRng::from_seed(3);
        pool.pre_fragment(1.0, 0.25, &mut rng);
        assert_eq!(pool.free_frames(), 0);
        let mut cac = Cac::new(CacConfig::default());
        let (events, ok) = cac.reclaim(&mut tables, &mut pool, &mut cocoa, AppId(0));
        assert!(ok);
        assert!(!events.is_empty());
        assert_eq!(pool.free_frames(), 1, "one frame was fully drained");
    }

    #[test]
    fn reclaim_uses_emergency_list_when_no_fragmentation() {
        let (mut tables, mut pool, mut cocoa) = setup(4);
        let owner = AppId(0);
        let lpn = LargePageNum(0);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, owner, lpn);
        dealloc_pages(&mut tables, &mut pool, owner, lpn, 10);
        let mut cac = Cac::new(CacConfig::default());
        cac.on_dealloc(tables.table_mut(owner), &mut pool, &mut cocoa, owner, lpn);
        assert_eq!(cocoa.emergency_len(), 1);

        let requester = AppId(1);
        let (events, ok) = cac.reclaim(&mut tables, &mut pool, &mut cocoa, requester);
        assert!(ok);
        assert!(matches!(events[0], MgmtEvent::Splintered { .. }));
        // The 10 holes went to the requester: a soft-guarantee break.
        assert_eq!(cocoa.free_base_len(requester), 10);
        assert_eq!(cac.soft_guarantee_breaks(), 1);
        assert!(!tables.table(owner).unwrap().is_coalesced(lpn));
    }

    #[test]
    fn reclaim_fails_when_nothing_to_reclaim() {
        let (mut tables, mut pool, mut cocoa) = setup(2);
        let mut cac = Cac::new(CacConfig::default());
        let (events, ok) = cac.reclaim(&mut tables, &mut pool, &mut cocoa, AppId(0));
        assert!(!ok);
        assert!(events.is_empty());
    }

    /// Parks two chunks on the emergency list, then re-touches the
    /// younger one back to full occupancy. The LIFO pop reaches the full
    /// entry first; reclaim must drop it *without* splintering it —
    /// destroying a full large page recovers zero capacity — and keep
    /// walking until the entry that still has holes donates them.
    /// (Regression for the single-pop reclaim bug the fuzzer found.)
    #[test]
    fn reclaim_skips_refilled_full_emergency_entries() {
        let (mut tables, mut pool, mut cocoa) = setup(6);
        let owner = AppId(0);
        let mut cac = Cac::new(CacConfig::default());

        // Chunk 0: 10 holes, parked.
        let lpn0 = LargePageNum(0);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, owner, lpn0);
        dealloc_pages(&mut tables, &mut pool, owner, lpn0, 10);
        cac.on_dealloc(tables.table_mut(owner), &mut pool, &mut cocoa, owner, lpn0);

        // Chunk 1: 10 holes, parked second (popped first).
        let lpn1 = LargePageNum(1);
        let lf1 = build_coalesced(&mut tables, &mut pool, &mut cocoa, owner, lpn1);
        dealloc_pages(&mut tables, &mut pool, owner, lpn1, 10);
        cac.on_dealloc(tables.table_mut(owner), &mut pool, &mut cocoa, owner, lpn1);
        assert_eq!(cocoa.emergency_len(), 2);

        // Re-touch chunk 1 back to full occupancy (the contiguous slots —
        // the only legal mapping while the region stays coalesced).
        let table = tables.table_mut(owner);
        for i in 0..10 {
            table.map_base(lpn1.base_page(i), lf1.base_frame(i)).unwrap();
            pool.set_owner(lf1.base_frame(i), Some(owner));
        }

        let requester = AppId(1);
        let (events, ok) = cac.reclaim(&mut tables, &mut pool, &mut cocoa, requester);
        assert!(ok);
        // Exactly one splinter — of chunk 0, not the refilled chunk 1.
        assert_eq!(cac.splinters(), 1);
        assert_eq!(
            events.iter().filter(|e| matches!(e, MgmtEvent::Splintered { .. })).count(),
            1,
            "counter and events must agree"
        );
        assert!(matches!(events[0], MgmtEvent::Splintered { lpn, .. } if lpn == lpn0));
        assert!(tables.table(owner).unwrap().is_coalesced(lpn1), "full entry left intact");
        assert_eq!(cocoa.free_base_len(requester), 10, "chunk 0's holes were donated");
        assert_eq!(cocoa.emergency_len(), 0, "full entry dropped, holey entry consumed");
    }

    /// `splinters()` and `migrations()` must match the events emitted,
    /// accumulated across multiple `on_dealloc` calls.
    #[test]
    fn counters_track_events_across_operations() {
        let (mut tables, mut pool, mut cocoa) = setup(8);
        let asid = AppId(0);
        let mut cac = Cac::new(CacConfig::default());
        let mut splinter_events = 0;
        let mut migration_events = 0;

        // Chunk 0 drops to 2 live pages; same-channel spare capacity is
        // available, so the CAC splinters and migrates both survivors.
        let lpn0 = LargePageNum(0);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, asid, lpn0);
        let spare = LargeFrameNum(6);
        assert_eq!(pool.channel_of(spare), pool.channel_of(LargeFrameNum(0)));
        let mut f = pool.take_free_frame().unwrap();
        while f != spare {
            f = pool.take_free_frame().unwrap();
        }
        cocoa.donate_base(asid, spare.base_frames());
        dealloc_pages(&mut tables, &mut pool, asid, lpn0, 510);
        let events = cac.on_dealloc(tables.table_mut(asid), &mut pool, &mut cocoa, asid, lpn0);
        splinter_events +=
            events.iter().filter(|e| matches!(e, MgmtEvent::Splintered { .. })).count();
        migration_events +=
            events.iter().filter(|e| matches!(e, MgmtEvent::PageMigrated { .. })).count();
        assert_eq!(cac.splinters(), 1);
        assert_eq!(cac.migrations(), 2);

        // Chunk 1 is deallocated entirely: splinter + frame release, but
        // nothing left to migrate.
        let lpn1 = LargePageNum(1);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, asid, lpn1);
        dealloc_pages(&mut tables, &mut pool, asid, lpn1, 512);
        let events = cac.on_dealloc(tables.table_mut(asid), &mut pool, &mut cocoa, asid, lpn1);
        splinter_events +=
            events.iter().filter(|e| matches!(e, MgmtEvent::Splintered { .. })).count();
        migration_events +=
            events.iter().filter(|e| matches!(e, MgmtEvent::PageMigrated { .. })).count();

        assert_eq!(cac.splinters() as usize, splinter_events);
        assert_eq!(cac.migrations() as usize, migration_events);
        assert_eq!(cac.splinters(), 2);
        assert_eq!(cac.migrations(), 2);
    }

    /// The pool's count of frames holding injected fragmentation follows
    /// the data through pre-fragmentation, FRAG compaction (one frame
    /// drained into same-channel holes, then released), scavenged holes
    /// stamped with an app owner, and frames cleared and released by
    /// hand; the audit's recount agrees at every step, and at zero both
    /// fragmented-frame searches come back empty.
    #[test]
    fn frag_frame_count_follows_injection_compaction_and_release() {
        fn audited(pool: &FramePool) -> u64 {
            let mut report = AuditReport::new();
            pool.audit(&mut report);
            report.assert_clean("frame pool");
            pool.frag_frames()
        }
        let (_, mut pool, _) = setup(12);
        assert_eq!(audited(&pool), 0);
        let mut rng = mosaic_sim_core::SimRng::from_seed(3);
        let report = pool.pre_fragment(1.0, 0.25, &mut rng);
        assert_eq!(audited(&pool), 12);
        assert_eq!(report.injected_pages, 12 * 128);

        let mut cac = Cac::new(CacConfig::default());
        let events = cac.compact_fragmented(&mut pool).expect("a same-channel frame drains");
        assert_eq!(events.len(), 128, "one migration per injected page of the drained frame");
        assert_eq!(pool.free_frames(), 1);
        assert_eq!(audited(&pool), 11);

        // A scavenged hole stamped with an app owner leaves the frame
        // counted while it still holds injected data.
        let lf = pool.tracked().map(|(lf, _)| lf).next().expect("tracked frame");
        let hole = pool.holes(lf)[0];
        pool.set_owner(hole, Some(AppId(0)));
        assert_eq!(audited(&pool), 11);
        let injected: Vec<_> = pool
            .state(lf)
            .into_iter()
            .flat_map(|s| s.allocated().filter(|&(_, o)| o == FRAG_OWNER))
            .map(|(i, _)| lf.base_frame(i))
            .collect();
        for pfn in injected {
            pool.set_owner(pfn, None);
        }
        assert_eq!(audited(&pool), 10, "app data alone does not count");
        assert_eq!(pool.state(lf).map(FrameState::frag_used), Some(0));

        // Clear and release every other fragmented frame.
        let frag: Vec<_> =
            pool.tracked().filter(|(_, s)| s.frag_used() > 0).map(|(lf, _)| lf).collect();
        for lf in frag {
            let pages: Vec<_> = pool
                .state(lf)
                .into_iter()
                .flat_map(|s| s.allocated().map(|(i, _)| lf.base_frame(i)))
                .collect();
            for pfn in pages {
                pool.set_owner(pfn, None);
            }
            pool.release_frame(lf);
        }
        assert_eq!(audited(&pool), 0);
        assert!(cac.compact_fragmented(&mut pool).is_none());
        assert!(cac.scavenge_fragmented_holes(&mut pool).is_none());
    }

    /// Reclaiming from one's own parked emergency entry is not a
    /// soft-guarantee break: the holes never leave the owning app.
    #[test]
    fn reclaim_from_own_emergency_entry_is_not_a_guarantee_break() {
        let (mut tables, mut pool, mut cocoa) = setup(4);
        let owner = AppId(0);
        let lpn = LargePageNum(0);
        build_coalesced(&mut tables, &mut pool, &mut cocoa, owner, lpn);
        dealloc_pages(&mut tables, &mut pool, owner, lpn, 10);
        let mut cac = Cac::new(CacConfig::default());
        cac.on_dealloc(tables.table_mut(owner), &mut pool, &mut cocoa, owner, lpn);
        assert_eq!(cocoa.emergency_len(), 1);

        let (events, ok) = cac.reclaim(&mut tables, &mut pool, &mut cocoa, owner);
        assert!(ok);
        assert!(matches!(events[0], MgmtEvent::Splintered { .. }));
        assert_eq!(cocoa.free_base_len(owner), 10);
        assert_eq!(cac.soft_guarantee_breaks(), 0, "own pages, no break");
    }
}
