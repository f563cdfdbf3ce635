//! Set-associative, ASID-tagged TLBs with split base/large entries.
//!
//! Following the paper (Section 2.2), every TLB level holds two separate
//! sets of entries: one for 4 KB base-page translations and one for 2 MB
//! large-page translations. A lookup probes the large-page entries first;
//! only on a large miss are the base-page entries probed (Section 4.3,
//! "TLB Lookups After Coalescing"). Shared (L2) TLB entries are extended
//! with address-space identifiers so concurrently-running applications can
//! share the structure.
//!
//! These structures are *structural*: they model contents and replacement
//! exactly, while access latency and port contention are charged by the
//! full-system simulator that instantiates them.

use crate::addr::{AppId, PageSize, VirtAddr, VirtPageNum};

use mosaic_sim_core::Ratio;

/// Geometry of one TLB level.
///
/// An associativity of `0` (or one at least as large as the entry count)
/// means fully associative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of base-page (4 KB) entries.
    pub base_entries: usize,
    /// Associativity of the base-page array (`0` = fully associative).
    pub base_assoc: usize,
    /// Number of large-page (2 MB) entries.
    pub large_entries: usize,
    /// Associativity of the large-page array (`0` = fully associative).
    pub large_assoc: usize,
    /// Access latency in core cycles.
    pub latency: u64,
}

impl TlbConfig {
    /// The paper's per-SM L1 TLB: 128 base + 16 large entries, fully
    /// associative, 1-cycle latency (Table 1).
    pub fn paper_l1() -> Self {
        TlbConfig {
            base_entries: 128,
            base_assoc: 0,
            large_entries: 16,
            large_assoc: 0,
            latency: 1,
        }
    }

    /// The paper's shared L2 TLB: 512 base entries 16-way + 256 large
    /// entries fully associative, 10-cycle latency (Table 1).
    pub fn paper_l2() -> Self {
        TlbConfig {
            base_entries: 512,
            base_assoc: 16,
            large_entries: 256,
            large_assoc: 0,
            latency: 10,
        }
    }
}

/// The outcome of a TLB probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// Hit in the large-page entries; base entries were not probed.
    HitLarge,
    /// Miss in the large-page entries, hit in the base-page entries.
    HitBase,
    /// Miss in both arrays: a page-table walk (or next-level probe) is
    /// required.
    Miss,
}

impl TlbLookup {
    /// Whether the probe hit in either array.
    pub fn is_hit(self) -> bool {
        !matches!(self, TlbLookup::Miss)
    }
}

/// One replacement slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    asid: AppId,
    /// Base- or large-page number, depending on the array.
    page: u64,
    last_used: u64,
}

/// Bucket count of the [`TranslationArray`] counting filter. Power of
/// two, and an order of magnitude above the largest array (512 entries)
/// so most absent probes hit an empty bucket.
const FILTER_BUCKETS: usize = 4096;

/// A set-associative translation array with LRU replacement.
#[derive(Debug, Clone)]
struct TranslationArray {
    sets: Vec<Vec<Slot>>,
    assoc: usize,
    tick: u64,
    /// Counting filter over the `(asid, page)` pairs held across all
    /// sets: each resident pair increments its hash bucket. Invalidations
    /// (TLB shootdowns) arrive for *every* unmapped page but the array
    /// only caches a handful of them, so a zero bucket proves absence and
    /// skips the set scan in the overwhelmingly common case; a non-zero
    /// bucket (present, or a collision) falls back to the scan. Purely an
    /// accelerator: contents and replacement are unchanged, and
    /// maintenance is O(1) per insert/evict.
    filter: Box<[u16; FILTER_BUCKETS]>,
}

/// Filter bucket of one `(asid, page)` pair: the top bits of a cheap
/// multiplicative mix (no per-run randomness; determinism policy).
fn filter_bucket(asid: AppId, page: u64) -> usize {
    ((page ^ (u64::from(asid.0) << 40)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as usize
        & (FILTER_BUCKETS - 1)
}

impl TranslationArray {
    fn new(entries: usize, assoc: usize) -> Self {
        let (num_sets, assoc) = if entries == 0 {
            (0, 1)
        } else if assoc == 0 || assoc >= entries {
            (1, entries)
        } else {
            assert!(
                entries.is_multiple_of(assoc),
                "TLB entries ({entries}) must be a multiple of associativity ({assoc})"
            );
            (entries / assoc, assoc)
        };
        TranslationArray {
            sets: (0..num_sets).map(|_| Vec::with_capacity(assoc)).collect(),
            assoc,
            tick: 0,
            filter: Box::new([0; FILTER_BUCKETS]),
        }
    }

    fn set_index(&self, page: u64) -> usize {
        (page % self.sets.len() as u64) as usize
    }

    fn lookup(&mut self, asid: AppId, page: u64) -> bool {
        if self.sets.is_empty() {
            return false;
        }
        self.tick += 1;
        let tick = self.tick;
        // A zero bucket proves a miss without scanning the set; a miss
        // touches no slot, so skipping the scan is unobservable (the
        // recency tick above is bumped either way).
        if self.filter[filter_bucket(asid, page)] == 0 {
            return false;
        }
        let idx = self.set_index(page);
        match self.sets[idx].iter_mut().find(|s| s.asid == asid && s.page == page) {
            Some(slot) => {
                slot.last_used = tick;
                true
            }
            None => false,
        }
    }

    /// Inserts a translation, returning any evicted `(asid, page)`.
    fn insert(&mut self, asid: AppId, page: u64) -> Option<(AppId, u64)> {
        if self.sets.is_empty() {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(page);
        let assoc = self.assoc;
        let set = &mut self.sets[idx];
        // One pass finds a refresh hit and the LRU victim together. Ticks
        // are unique within the array, so strict `<` keeps the same
        // (first-minimum) victim the separate `min_by_key` pass chose.
        let mut lru_idx = 0;
        let mut lru_tick = u64::MAX;
        for (i, slot) in set.iter_mut().enumerate() {
            if slot.asid == asid && slot.page == page {
                slot.last_used = tick;
                return None;
            }
            if slot.last_used < lru_tick {
                lru_tick = slot.last_used;
                lru_idx = i;
            }
        }
        self.filter[filter_bucket(asid, page)] += 1;
        if set.len() < assoc {
            set.push(Slot { asid, page, last_used: tick });
            return None;
        }
        let victim = &mut set[lru_idx];
        let evicted = (victim.asid, victim.page);
        *victim = Slot { asid, page, last_used: tick };
        self.filter[filter_bucket(evicted.0, evicted.1)] -= 1;
        Some(evicted)
    }

    fn invalidate(&mut self, asid: AppId, page: u64) -> bool {
        // A zero bucket proves the pair is absent (the common case during
        // unmap shootdown storms) without touching the sets.
        let bucket = filter_bucket(asid, page);
        if self.filter[bucket] == 0 {
            return false;
        }
        let idx = self.set_index(page);
        let set = &mut self.sets[idx];
        let before = set.len();
        set.retain(|s| !(s.asid == asid && s.page == page));
        if set.len() == before {
            return false; // filter collision, not a resident entry
        }
        self.filter[bucket] -= 1;
        true
    }

    /// Invalidates `asid`'s pages `first .. first + pages` in one `retain`
    /// pass over the entries, returning how many were resident. The same
    /// entries go as under one [`Self::invalidate`] per page, `retain`
    /// keeps each set's order, and the filter loses exactly their
    /// buckets, so the result is that of invalidating page by page.
    fn invalidate_range(&mut self, asid: AppId, first: u64, pages: u64) -> usize {
        let end = first.saturating_add(pages);
        self.remove_where(|s| s.asid == asid && (first..end).contains(&s.page))
    }

    /// Removes every entry matching `doomed` in one pass, keeping each
    /// set's order and the filter in step; returns how many went.
    fn remove_where(&mut self, doomed: impl Fn(&Slot) -> bool) -> usize {
        let mut n = 0;
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|s| {
                if doomed(s) {
                    self.filter[filter_bucket(s.asid, s.page)] -= 1;
                    false
                } else {
                    true
                }
            });
            n += before - set.len();
        }
        n
    }

    fn flush_asid(&mut self, asid: AppId) -> usize {
        self.remove_where(|s| s.asid == asid)
    }

    fn flush_all(&mut self) -> usize {
        self.filter.fill(0);
        let mut n = 0;
        for set in &mut self.sets {
            n += set.len();
            set.clear();
        }
        n
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// The most recent *hit*, kept so an immediately repeated lookup can skip
/// the associative probe (warps overwhelmingly issue runs of accesses to
/// the same page).
///
/// This cache is deliberately a single entry covering only *consecutive*
/// repeats: between the original probe and a cached replay no other
/// operation may touch the TLB, which is exactly what makes the shortcut
/// invisible. The skipped probe would only have bumped the recency tick of
/// the slot that is already the array's most recently used, so every
/// future hit/miss/eviction decision is unchanged; had another lookup,
/// fill, or flush intervened (or a second entry been cached), the slot
/// might no longer be most-recent and skipping its recency update could
/// change a later LRU victim. The hit is counted exactly as the slow path
/// counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LastHit {
    asid: AppId,
    /// Large-page number for a large hit (the entry covers the whole
    /// 2 MB region), base-page number for a base hit.
    page: u64,
    size: PageSize,
}

/// One TLB level: split base/large arrays, ASID tags, LRU replacement, and
/// hit-rate statistics.
///
/// # Examples
///
/// ```
/// use mosaic_vm::{Tlb, TlbConfig, TlbLookup, AppId, VirtAddr, PageSize};
///
/// let mut tlb = Tlb::new(TlbConfig::paper_l1());
/// let a = VirtAddr(0x20_0000);
/// assert_eq!(tlb.lookup(AppId(0), a), TlbLookup::Miss);
/// tlb.fill(AppId(0), a, PageSize::Base);
/// assert_eq!(tlb.lookup(AppId(0), a), TlbLookup::HitBase);
/// // A different address space never hits another ASID's entries.
/// assert_eq!(tlb.lookup(AppId(1), a), TlbLookup::Miss);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    base: TranslationArray,
    large: TranslationArray,
    overall: Ratio,
    last_hit: Option<LastHit>,
}

impl Tlb {
    /// Creates a TLB with the given geometry.
    pub fn new(config: TlbConfig) -> Self {
        Tlb {
            config,
            base: TranslationArray::new(config.base_entries, config.base_assoc),
            large: TranslationArray::new(config.large_entries, config.large_assoc),
            overall: Ratio::default(),
            last_hit: None,
        }
    }

    /// The geometry this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Access latency in core cycles.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    /// Probes the TLB for `addr` in address space `asid`: large entries
    /// first, then base entries. A lookup that repeats the previous hit
    /// (same ASID, same covered page, nothing in between) is served from
    /// the cached last hit without probing; the hit count and outcome are
    /// identical either way.
    pub fn lookup(&mut self, asid: AppId, addr: VirtAddr) -> TlbLookup {
        if let Some(last) = self.last_hit {
            if last.asid == asid {
                match last.size {
                    PageSize::Large if last.page == addr.large_page().raw() => {
                        self.overall.record(true);
                        return TlbLookup::HitLarge;
                    }
                    PageSize::Base if last.page == addr.base_page().raw() => {
                        self.overall.record(true);
                        return TlbLookup::HitBase;
                    }
                    _ => {}
                }
            }
        }
        if self.large.lookup(asid, addr.large_page().raw()) {
            self.overall.record(true);
            self.last_hit =
                Some(LastHit { asid, page: addr.large_page().raw(), size: PageSize::Large });
            return TlbLookup::HitLarge;
        }
        let base_hit = self.base.lookup(asid, addr.base_page().raw());
        self.overall.record(base_hit);
        if base_hit {
            self.last_hit =
                Some(LastHit { asid, page: addr.base_page().raw(), size: PageSize::Base });
            TlbLookup::HitBase
        } else {
            // The probe bumped recency ticks; a stale cached hit must not
            // skip the next probe's tick on top of that.
            self.last_hit = None;
            TlbLookup::Miss
        }
    }

    /// Probes without recording statistics or updating recency (used for
    /// inspection in tests and assertions).
    pub fn peek(&self, asid: AppId, addr: VirtAddr) -> TlbLookup {
        let lp = addr.large_page().raw();
        if !self.large.sets.is_empty()
            && self.large.sets[self.large.set_index(lp)]
                .iter()
                .any(|s| s.asid == asid && s.page == lp)
        {
            return TlbLookup::HitLarge;
        }
        let bp = addr.base_page().raw();
        if !self.base.sets.is_empty()
            && self.base.sets[self.base.set_index(bp)]
                .iter()
                .any(|s| s.asid == asid && s.page == bp)
        {
            return TlbLookup::HitBase;
        }
        TlbLookup::Miss
    }

    /// Fills the translation for `addr` into the array selected by `size`,
    /// returning any evicted `(asid, page-number)` pair.
    pub fn fill(&mut self, asid: AppId, addr: VirtAddr, size: PageSize) -> Option<(AppId, u64)> {
        self.last_hit = None;
        match size {
            PageSize::Base => self.base.insert(asid, addr.base_page().raw()),
            PageSize::Large => self.large.insert(asid, addr.large_page().raw()),
        }
    }

    /// Invalidates the large-page entry covering `addr`, as required when a
    /// coalesced page is splintered (Section 4.4). Returns whether an entry
    /// was present.
    pub fn flush_large(&mut self, asid: AppId, addr: VirtAddr) -> bool {
        self.last_hit = None;
        self.large.invalidate(asid, addr.large_page().raw())
    }

    /// Invalidates the base-page entry covering `addr`. Returns whether an
    /// entry was present.
    pub fn flush_base(&mut self, asid: AppId, addr: VirtAddr) -> bool {
        self.last_hit = None;
        self.base.invalidate(asid, addr.base_page().raw())
    }

    /// Invalidates `asid`'s base-page entries for the `pages` pages from
    /// `first` — a region shootdown — returning how many were present.
    ///
    /// Leaves the TLB exactly as a [`Tlb::flush_base`] per page would:
    /// the same entries go, every set keeps its order, and the presence
    /// filter drops exactly their counts. It costs one pass over the
    /// resident entries whatever the range's length, which on the paper's
    /// TLBs (128-entry L1, 512-entry L2) is no dearer than one filter
    /// probe per page even for ranges shorter than the occupancy.
    pub fn flush_base_range(&mut self, asid: AppId, first: VirtPageNum, pages: u64) -> usize {
        if pages == 0 {
            return 0;
        }
        self.last_hit = None;
        self.base.invalidate_range(asid, first.raw(), pages)
    }

    /// Removes every entry belonging to `asid` (both arrays), returning the
    /// number of entries dropped. Used when an application terminates.
    pub fn flush_asid(&mut self, asid: AppId) -> usize {
        self.last_hit = None;
        self.base.flush_asid(asid) + self.large.flush_asid(asid)
    }

    /// Removes all entries, returning how many were dropped. The
    /// simulator's shootdowns are targeted; only the conformance suite
    /// flushes a whole TLB.
    pub fn flush_all(&mut self) -> usize {
        self.last_hit = None;
        self.base.flush_all() + self.large.flush_all()
    }

    /// Hit rate over all lookups (hit in either array).
    pub fn hit_rate(&self) -> Ratio {
        self.overall
    }

    /// Number of valid entries across both arrays.
    pub fn occupancy(&self) -> usize {
        self.base.occupancy() + self.large.occupancy()
    }

    /// Iterates every valid entry as `(asid, page-number, size)` — base
    /// entries carry a virtual base page number, large entries a large
    /// page number. Set-major, deterministic order; used by the runtime
    /// invariant auditor to check TLB/page-table coherence.
    pub fn entries(&self) -> impl Iterator<Item = (AppId, u64, PageSize)> + '_ {
        let base = self.base.sets.iter().flatten().map(|s| (s.asid, s.page, PageSize::Base));
        let large = self.large.sets.iter().flatten().map(|s| (s.asid, s.page, PageSize::Large));
        base.chain(large)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{LargePageNum, VirtPageNum, BASE_PAGES_PER_LARGE_PAGE, LARGE_PAGE_SIZE};

    fn small_tlb(base: usize, large: usize) -> Tlb {
        Tlb::new(TlbConfig {
            base_entries: base,
            base_assoc: 0,
            large_entries: large,
            large_assoc: 0,
            latency: 1,
        })
    }

    #[test]
    fn large_probed_before_base() {
        let mut tlb = small_tlb(4, 4);
        let addr = VirtAddr(3 * LARGE_PAGE_SIZE + 0x1000);
        tlb.fill(AppId(0), addr, PageSize::Base);
        tlb.fill(AppId(0), addr, PageSize::Large);
        // Both arrays hold the page; the large entry must win.
        assert_eq!(tlb.lookup(AppId(0), addr), TlbLookup::HitLarge);
    }

    #[test]
    fn large_entry_covers_whole_2mb() {
        let mut tlb = small_tlb(4, 4);
        let lpn = LargePageNum(5);
        tlb.fill(AppId(0), lpn.addr(), PageSize::Large);
        // Any base page within the large page hits.
        assert_eq!(tlb.lookup(AppId(0), lpn.base_page(511).addr()), TlbLookup::HitLarge);
        // The neighbouring large page does not.
        assert_eq!(tlb.lookup(AppId(0), LargePageNum(6).addr()), TlbLookup::Miss);
    }

    #[test]
    fn lru_eviction_in_fully_associative_array() {
        let mut tlb = small_tlb(2, 0);
        let a = VirtPageNum(1).addr();
        let b = VirtPageNum(2).addr();
        let c = VirtPageNum(3).addr();
        tlb.fill(AppId(0), a, PageSize::Base);
        tlb.fill(AppId(0), b, PageSize::Base);
        // Touch `a` so `b` becomes LRU.
        assert_eq!(tlb.lookup(AppId(0), a), TlbLookup::HitBase);
        let evicted = tlb.fill(AppId(0), c, PageSize::Base);
        assert_eq!(evicted, Some((AppId(0), VirtPageNum(2).raw())));
        assert_eq!(tlb.peek(AppId(0), a), TlbLookup::HitBase);
        assert_eq!(tlb.peek(AppId(0), b), TlbLookup::Miss);
        assert_eq!(tlb.peek(AppId(0), c), TlbLookup::HitBase);
    }

    #[test]
    fn set_associative_indexing_conflicts() {
        // 4 entries, 2-way: 2 sets. Pages 0, 2, 4 all map to set 0.
        let mut tlb = Tlb::new(TlbConfig {
            base_entries: 4,
            base_assoc: 2,
            large_entries: 0,
            large_assoc: 0,
            latency: 1,
        });
        for p in [0u64, 2, 4] {
            tlb.fill(AppId(0), VirtPageNum(p).addr(), PageSize::Base);
        }
        // Page 0 was LRU in set 0 and must have been evicted.
        assert_eq!(tlb.peek(AppId(0), VirtPageNum(0).addr()), TlbLookup::Miss);
        assert_eq!(tlb.peek(AppId(0), VirtPageNum(2).addr()), TlbLookup::HitBase);
        assert_eq!(tlb.peek(AppId(0), VirtPageNum(4).addr()), TlbLookup::HitBase);
        // Set 1 is untouched by this conflict chain.
        tlb.fill(AppId(0), VirtPageNum(1).addr(), PageSize::Base);
        assert_eq!(tlb.peek(AppId(0), VirtPageNum(1).addr()), TlbLookup::HitBase);
    }

    #[test]
    fn asid_isolation() {
        let mut tlb = small_tlb(8, 8);
        let addr = VirtAddr(0x5000);
        tlb.fill(AppId(0), addr, PageSize::Base);
        assert_eq!(tlb.lookup(AppId(1), addr), TlbLookup::Miss);
        assert_eq!(tlb.lookup(AppId(0), addr), TlbLookup::HitBase);
    }

    #[test]
    fn duplicate_fill_does_not_evict() {
        let mut tlb = small_tlb(2, 0);
        let a = VirtPageNum(1).addr();
        tlb.fill(AppId(0), a, PageSize::Base);
        assert_eq!(tlb.fill(AppId(0), a, PageSize::Base), None);
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn flush_large_removes_only_large_entry() {
        let mut tlb = small_tlb(4, 4);
        let addr = VirtAddr(0x40_0000);
        tlb.fill(AppId(0), addr, PageSize::Base);
        tlb.fill(AppId(0), addr, PageSize::Large);
        assert!(tlb.flush_large(AppId(0), addr));
        // Base entry survives; the paper keeps base mappings usable.
        assert_eq!(tlb.lookup(AppId(0), addr), TlbLookup::HitBase);
        assert!(!tlb.flush_large(AppId(0), addr), "already flushed");
    }

    #[test]
    fn flush_asid_only_affects_that_app() {
        let mut tlb = small_tlb(8, 8);
        tlb.fill(AppId(0), VirtAddr(0x1000), PageSize::Base);
        tlb.fill(AppId(1), VirtAddr(0x1000), PageSize::Base);
        tlb.fill(AppId(1), VirtAddr(0x20_0000), PageSize::Large);
        assert_eq!(tlb.flush_asid(AppId(1)), 2);
        assert_eq!(tlb.peek(AppId(0), VirtAddr(0x1000)), TlbLookup::HitBase);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut tlb = small_tlb(4, 4);
        let addr = VirtAddr(0x1000);
        tlb.lookup(AppId(0), addr); // miss
        tlb.fill(AppId(0), addr, PageSize::Base);
        tlb.lookup(AppId(0), addr); // hit
        assert_eq!(tlb.hit_rate().total(), 2);
        assert_eq!(tlb.hit_rate().hits(), 1);
    }

    #[test]
    fn zero_sized_arrays_never_hit() {
        let mut tlb = Tlb::new(TlbConfig {
            base_entries: 0,
            base_assoc: 0,
            large_entries: 0,
            large_assoc: 0,
            latency: 1,
        });
        let addr = VirtAddr(0x1000);
        tlb.fill(AppId(0), addr, PageSize::Base);
        tlb.fill(AppId(0), addr, PageSize::Large);
        assert_eq!(tlb.lookup(AppId(0), addr), TlbLookup::Miss);
    }

    #[test]
    fn flush_all_empties_tlb() {
        let mut tlb = small_tlb(4, 4);
        tlb.fill(AppId(0), VirtAddr(0x1000), PageSize::Base);
        tlb.fill(AppId(0), VirtAddr(0x20_0000), PageSize::Large);
        assert_eq!(tlb.flush_all(), 2);
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn last_hit_cache_serves_repeats() {
        let mut tlb = small_tlb(4, 4);
        let addr = VirtPageNum(7).addr();
        tlb.fill(AppId(0), addr, PageSize::Base);
        assert_eq!(tlb.lookup(AppId(0), addr), TlbLookup::HitBase);
        assert!(tlb.last_hit.is_some(), "hit primes the cache");
        // Repeats are served from the cache and counted as hits.
        assert_eq!(tlb.lookup(AppId(0), addr), TlbLookup::HitBase);
        assert_eq!(tlb.lookup(AppId(0), addr), TlbLookup::HitBase);
        assert_eq!(tlb.hit_rate().hits(), 3);
        assert_eq!(tlb.hit_rate().total(), 3);
        // A different page falls back to the probe; a miss clears the cache.
        assert_eq!(tlb.lookup(AppId(0), VirtPageNum(8).addr()), TlbLookup::Miss);
        assert!(tlb.last_hit.is_none(), "a miss clears the cache");
    }

    #[test]
    fn last_hit_cache_covers_whole_large_page() {
        let mut tlb = small_tlb(4, 4);
        let lpn = LargePageNum(3);
        tlb.fill(AppId(0), lpn.addr(), PageSize::Large);
        assert_eq!(tlb.lookup(AppId(0), lpn.base_page(0).addr()), TlbLookup::HitLarge);
        // A different base page of the same large page is still a cached
        // repeat — the large entry covers all of it.
        assert_eq!(tlb.lookup(AppId(0), lpn.base_page(511).addr()), TlbLookup::HitLarge);
        assert_eq!(tlb.hit_rate().hits(), 2);
        assert_eq!(tlb.hit_rate().total(), 2);
        assert_eq!(tlb.last_hit.map(|h| h.size), Some(PageSize::Large), "large hit cached");
    }

    #[test]
    fn last_hit_cache_is_asid_isolated() {
        let mut tlb = small_tlb(4, 4);
        let addr = VirtPageNum(7).addr();
        tlb.fill(AppId(0), addr, PageSize::Base);
        tlb.fill(AppId(1), addr, PageSize::Base);
        assert_eq!(tlb.lookup(AppId(0), addr), TlbLookup::HitBase);
        // Same page, different address space: must not be served from
        // AppId(0)'s cached hit (it re-probes and re-caches for AppId(1)).
        assert_eq!(
            tlb.last_hit,
            Some(LastHit { asid: AppId(0), page: VirtPageNum(7).raw(), size: PageSize::Base })
        );
        assert_eq!(tlb.lookup(AppId(1), addr), TlbLookup::HitBase);
        assert_eq!(
            tlb.last_hit,
            Some(LastHit { asid: AppId(1), page: VirtPageNum(7).raw(), size: PageSize::Base })
        );
        // An ASID with no entry misses even though the page matches.
        assert_eq!(tlb.lookup(AppId(2), addr), TlbLookup::Miss);
    }

    #[test]
    fn last_hit_cache_invalidated_by_fills_and_flushes() {
        let mut tlb = small_tlb(4, 4);
        let addr = VirtPageNum(7).addr();
        tlb.fill(AppId(0), addr, PageSize::Base);
        tlb.lookup(AppId(0), addr);
        assert!(tlb.last_hit.is_some());
        tlb.fill(AppId(0), VirtPageNum(9).addr(), PageSize::Base);
        assert!(tlb.last_hit.is_none(), "fill invalidates");

        tlb.lookup(AppId(0), addr);
        assert!(tlb.last_hit.is_some());
        assert!(tlb.flush_base(AppId(0), addr));
        assert!(tlb.last_hit.is_none(), "flush_base invalidates");
        // The flushed entry must actually miss (the stale cached hit would
        // have claimed HitBase).
        assert_eq!(tlb.lookup(AppId(0), addr), TlbLookup::Miss);

        tlb.fill(AppId(0), addr, PageSize::Large);
        tlb.lookup(AppId(0), addr);
        assert!(tlb.last_hit.is_some());
        assert!(tlb.flush_large(AppId(0), addr));
        assert!(tlb.last_hit.is_none(), "flush_large invalidates");

        tlb.fill(AppId(0), addr, PageSize::Base);
        tlb.lookup(AppId(0), addr);
        tlb.flush_asid(AppId(0));
        assert!(tlb.last_hit.is_none(), "flush_asid invalidates");

        tlb.fill(AppId(0), addr, PageSize::Base);
        tlb.lookup(AppId(0), addr);
        tlb.flush_all();
        assert!(tlb.last_hit.is_none(), "flush_all invalidates");
    }

    #[test]
    fn last_hit_cache_preserves_lru_outcomes() {
        // Drive two TLBs with the same operations, but defeat the cache on
        // one of them by re-probing (a cached replay leaves array state
        // untouched, so the extra lookups on `slow` are the *slow path* of
        // the same repeats). Contents, evictions, and subsequent victims
        // must match — the observational-equivalence claim of `LastHit`.
        let mut fast = small_tlb(2, 0);
        let mut slow = small_tlb(2, 0);
        let a = VirtPageNum(1).addr();
        let b = VirtPageNum(2).addr();
        let c = VirtPageNum(3).addr();
        for t in [&mut fast, &mut slow] {
            t.fill(AppId(0), a, PageSize::Base);
            t.fill(AppId(0), b, PageSize::Base);
        }
        // `fast` serves the repeats from the cache; `slow` has its cache
        // cleared before each repeat so every one takes the probe path.
        for _ in 0..5 {
            assert_eq!(fast.lookup(AppId(0), a), TlbLookup::HitBase);
            slow.last_hit = None;
            assert_eq!(slow.lookup(AppId(0), a), TlbLookup::HitBase);
        }
        // `a` is most-recent in both; the next fill must evict `b` in both.
        assert_eq!(fast.fill(AppId(0), c, PageSize::Base), Some((AppId(0), VirtPageNum(2).raw())));
        assert_eq!(slow.fill(AppId(0), c, PageSize::Base), Some((AppId(0), VirtPageNum(2).raw())));
        let fast_entries: Vec<_> = fast.entries().collect();
        let slow_entries: Vec<_> = slow.entries().collect();
        assert_eq!(fast_entries, slow_entries);
    }

    /// Exhaustively checks that the counting filter stays an exact image
    /// of the array contents through fill/evict/invalidate/flush churn —
    /// each bucket must equal the number of resident pairs hashing to
    /// it, the invariant the shootdown fast path relies on.
    #[test]
    fn presence_filter_tracks_contents_exactly() {
        fn check(tlb: &Tlb) {
            for arr in [&tlb.base, &tlb.large] {
                let mut expected = vec![0u16; FILTER_BUCKETS];
                for s in arr.sets.iter().flatten() {
                    expected[filter_bucket(s.asid, s.page)] += 1;
                }
                assert_eq!(&expected[..], &arr.filter[..], "filter drifted from set contents");
            }
        }
        let mut tlb = small_tlb(2, 1);
        check(&tlb);
        // Fill past capacity to force evictions, across two ASIDs.
        for i in 0..5u64 {
            tlb.fill(AppId((i % 2) as u16), VirtPageNum(i).addr(), PageSize::Base);
            check(&tlb);
        }
        tlb.fill(AppId(0), LargePageNum(3).addr(), PageSize::Large);
        check(&tlb);
        // Absent invalidations (the shootdown-storm case) and present ones.
        assert!(!tlb.flush_base(AppId(0), VirtPageNum(999).addr()));
        assert!(!tlb.flush_large(AppId(1), LargePageNum(3).addr()));
        check(&tlb);
        let held: Vec<_> = tlb.entries().collect();
        for (asid, page, size) in held {
            let flushed = match size {
                PageSize::Base => tlb.flush_base(asid, VirtPageNum(page).addr()),
                PageSize::Large => tlb.flush_large(asid, LargePageNum(page).addr()),
            };
            assert!(flushed, "entry reported by entries() must flush");
            check(&tlb);
        }
        assert_eq!(tlb.occupancy(), 0);
        // flush_asid / flush_all keep the mirror in step too.
        for i in 0..4u64 {
            tlb.fill(AppId((i % 2) as u16), VirtPageNum(i).addr(), PageSize::Base);
        }
        tlb.flush_asid(AppId(1));
        check(&tlb);
        assert_eq!(tlb.flush_asid(AppId(1)), 0, "second flush finds nothing");
        tlb.flush_all();
        check(&tlb);
        assert_eq!(tlb.occupancy(), 0);
        // Range invalidation, across a 2 MB boundary and two ASIDs.
        for i in 0..6u64 {
            tlb.fill(AppId((i % 2) as u16), VirtPageNum(510 + i).addr(), PageSize::Base);
            check(&tlb);
        }
        // Four pages against two entries, then one page against two.
        tlb.flush_base_range(AppId(0), VirtPageNum(511), 4);
        check(&tlb);
        tlb.fill(AppId(0), VirtPageNum(600).addr(), PageSize::Base);
        tlb.flush_base_range(AppId(1), VirtPageNum(515), 1);
        check(&tlb);
    }

    /// `flush_base_range` leaves the TLB exactly as the per-page
    /// `flush_base` loop does — the same count, the same `entries()` in
    /// the same order, the same whole state (every slot's recency stamp,
    /// the filter, the large array, the hit counters), then the same
    /// victims under further fills — on the paper's fully-associative L1
    /// and 16-way L2, over seeded random contents of three ASIDs spread
    /// across a few 2 MB regions, with ranges shorter than the occupancy
    /// and at least as long that straddle region boundaries, plus empty
    /// ranges.
    #[test]
    fn flush_base_range_matches_per_page_flushes() {
        use mosaic_sim_core::SimRng;
        fn assert_same(fast: &Tlb, slow: &Tlb, what: &str) {
            assert!(fast.entries().eq(slow.entries()), "{what}: entries diverged");
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{what}: state diverged");
        }
        let mut rng = SimRng::from_seed(0xF1_A5_4A_1E);
        let page = |rng: &mut SimRng| VirtPageNum(rng.below(4 * BASE_PAGES_PER_LARGE_PAGE));
        let asid = |rng: &mut SimRng| AppId(rng.below(3) as u16);
        let (mut long, mut short) = (0, 0);
        for case in 0..200 {
            let config = if case % 2 == 0 { TlbConfig::paper_l1() } else { TlbConfig::paper_l2() };
            let mut fast = Tlb::new(config);
            for _ in 0..rng.below(2 * config.base_entries as u64) {
                fast.fill(asid(&mut rng), page(&mut rng).addr(), PageSize::Base);
            }
            let mut slow = fast.clone();
            for round in 0..4 {
                let what = format!("case {case} round {round}");
                // Hit a resident entry first, so the last-hit cache is
                // primed and a flush must clear it exactly when the
                // per-page loop would.
                let resident = fast.entries().nth(rng.below(8) as usize);
                if let Some((asid, page, _)) = resident {
                    let addr = VirtPageNum(page).addr();
                    assert_eq!(fast.lookup(asid, addr), slow.lookup(asid, addr));
                }
                let occupancy = fast.base.occupancy() as u64;
                let pages = match rng.below(4) {
                    0 => 0,
                    1 => BASE_PAGES_PER_LARGE_PAGE,
                    2 => rng.below(occupancy.max(1)),
                    _ => occupancy + rng.below(2 * BASE_PAGES_PER_LARGE_PAGE),
                };
                if pages > 0 && pages >= occupancy {
                    long += 1;
                } else if pages > 0 {
                    short += 1;
                }
                // Start near a region's end half the time, so the range
                // crosses into the next region.
                let first = match rng.below(2) {
                    0 => page(&mut rng),
                    _ => {
                        let boundary = (1 + rng.below(3)) * BASE_PAGES_PER_LARGE_PAGE;
                        VirtPageNum(boundary - 1 - rng.below(pages.clamp(1, boundary)))
                    }
                };
                let asid = asid(&mut rng);
                let mut flushed = 0;
                for i in 0..pages {
                    flushed +=
                        usize::from(slow.flush_base(asid, VirtPageNum(first.raw() + i).addr()));
                }
                assert_eq!(fast.flush_base_range(asid, first, pages), flushed, "{what}: count");
                assert_same(&fast, &slow, &what);
            }
            for _ in 0..200 {
                let (asid, addr) = (asid(&mut rng), page(&mut rng).addr());
                assert_eq!(fast.lookup(asid, addr), slow.lookup(asid, addr));
                assert_eq!(
                    fast.fill(asid, addr, PageSize::Base),
                    slow.fill(asid, addr, PageSize::Base),
                    "case {case}: later victims diverged"
                );
            }
            assert_same(&fast, &slow, &format!("case {case} after refills"));
        }
        assert!(
            long > 20 && short > 20,
            "both range lengths exercised: {long} long, {short} short"
        );
    }
}
