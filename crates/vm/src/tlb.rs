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
use std::fmt;
use std::ops::Range;

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

/// Bits of a packed translation key that hold the page number; the ASID
/// sits above them. Base-page numbers of 60-bit virtual addresses fit.
const PAGE_BITS: u32 = 48;

/// Index value marking a vacant position.
const VACANT: u32 = u32::MAX;

/// Sets of at most this many ways are scanned; wider sets get an index.
/// Sixteen keys are two host cache lines, no more than an index probe
/// touches, and a scanned array removes entries with no index upkeep.
const SCANNED_WAYS: usize = 16;

/// Buckets of [`TranslationArray`]'s per-ASID live counts.
const ASID_BUCKETS: usize = 8;

/// The per-ASID count bucket of `key`'s address space.
fn asid_bucket(key: u64) -> usize {
    (key >> PAGE_BITS) as usize % ASID_BUCKETS
}

/// Packs `(asid, page)` into one key: `asid << 48 | page`.
fn pack(asid: AppId, page: u64) -> u64 {
    debug_assert!(page < 1 << PAGE_BITS, "page {page:#x} overflows the packed key");
    u64::from(asid.0) << PAGE_BITS | page
}

/// Splits a packed key back into `(asid, page)`.
fn unpack(key: u64) -> (AppId, u64) {
    (AppId((key >> PAGE_BITS) as u16), key & ((1 << PAGE_BITS) - 1))
}

/// A set-associative translation array with LRU replacement.
///
/// Slots are `assoc` per set in two flat arrays, packed keys
/// (`asid << 48 | page`) and recency stamps; `lens[s]` live slots sit at
/// the front of set `s`. Every access bumps `tick`, and a touched slot
/// takes it as its stamp, so stamps are unique within the array and the
/// least recently used slot of a set is its minimum stamp wherever it
/// sits. A single removal moves the set's last live slot into the hole;
/// a bulk one compacts each set in order.
///
/// Sets wider than [`SCANNED_WAYS`] (the fully associative arrays) find
/// a key through a private open-addressed `index`: a power-of-two array,
/// at least twice the entry count, of `u32` slot numbers ([`VACANT`]
/// when free). A key's home position is the top bits of the fixed
/// multiplicative hash the walker's in-flight table uses, with no
/// per-process seed; probes run linearly from there, and deletion
/// shifts the rest of the chain back, so there are no tombstones. `pos`
/// maps each live slot back to its index position, so an eviction or a
/// single removal's slot move updates the index without probing.
/// Narrower sets are scanned and have neither. Slot positions and index
/// layout depend on removal order, which nothing outside this type
/// observes.
#[derive(Clone)]
struct TranslationArray {
    keys: Vec<u64>,
    stamps: Vec<u64>,
    lens: Vec<u32>,
    /// Live entries across all sets.
    live: usize,
    /// Live entries per [`asid_bucket`]. Each SM runs one application,
    /// so most L1 TLBs hold one ASID: a probe or flush for another ASID
    /// finds a zero count and skips the heap arrays, which shootdowns
    /// and deallocations (every TLB, cold in host cache) rely on.
    by_asid: [u32; ASID_BUCKETS],
    assoc: usize,
    num_sets: u64,
    tick: u64,
    /// Empty for scanned arrays.
    index: Vec<u32>,
    pos: Vec<u32>,
    /// `64 - log2(index.len())`: the hash's top bits pick the home.
    shift: u32,
}

impl TranslationArray {
    fn new(entries: usize, assoc: usize) -> Self {
        assert!(entries < VACANT as usize, "a TLB array's slot numbers are u32");
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
        let slots = num_sets * assoc;
        let (positions, indexed_slots) =
            if assoc > SCANNED_WAYS { ((2 * entries).next_power_of_two(), slots) } else { (0, 0) };
        TranslationArray {
            keys: vec![0; slots],
            stamps: vec![0; slots],
            lens: vec![0; num_sets],
            live: 0,
            by_asid: [0; ASID_BUCKETS],
            assoc,
            num_sets: num_sets as u64,
            tick: 0,
            index: vec![VACANT; positions],
            pos: vec![0; indexed_slots],
            shift: 64 - positions.max(2).trailing_zeros(),
        }
    }

    fn indexed(&self) -> bool {
        !self.index.is_empty()
    }

    fn set_of(&self, key: u64) -> usize {
        let page = unpack(key).1;
        let set = if self.num_sets.is_power_of_two() {
            page & (self.num_sets - 1)
        } else {
            page % self.num_sets
        };
        set as usize
    }

    /// Slot numbers of `set`'s live entries.
    fn slots(&self, set: usize) -> Range<usize> {
        let base = set * self.assoc;
        base..base + self.lens[set] as usize
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The index position holding `key`'s slot, or the vacant position
    /// that ends its probe chain. The array must be indexed.
    fn probe(&self, key: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = self.index[i];
            if slot == VACANT || self.keys[slot as usize] == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether the array may hold entries of `key`'s address space: a
    /// `false` is exact.
    fn holds(&self, key: u64) -> bool {
        self.by_asid[asid_bucket(key)] != 0
    }

    /// The slot holding `key`, if resident.
    fn find(&self, key: u64) -> Option<usize> {
        if !self.holds(key) {
            None
        } else if self.indexed() {
            let slot = self.index[self.probe(key)];
            (slot != VACANT).then_some(slot as usize)
        } else {
            let slots = self.slots(self.set_of(key));
            self.keys[slots.clone()].iter().position(|&k| k == key).map(|i| slots.start + i)
        }
    }

    /// Points index position `at` at `slot`.
    fn link(&mut self, at: usize, slot: usize) {
        self.index[at] = slot as u32;
        self.pos[slot] = at as u32;
    }

    /// Clears index position `hole`, shifting back every later entry of
    /// its chain whose home does not lie cyclically in `(hole, j]`, so no
    /// probe ever stops at a vacancy early.
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.index[j];
            if slot == VACANT {
                break;
            }
            let home = self.home(self.keys[slot as usize]);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.link(hole, slot as usize);
                hole = j;
            }
        }
        self.index[hole] = VACANT;
    }

    /// Rebuilds the index from the live slots.
    fn rebuild(&mut self) {
        self.index.fill(VACANT);
        for set in 0..self.lens.len() {
            for slot in self.slots(set) {
                let at = self.probe(self.keys[slot]);
                self.link(at, slot);
            }
        }
    }

    /// Removes live `slot` of `set`, whose index entry is already gone,
    /// by moving the set's last live slot (and its index entry) into it.
    fn take_out(&mut self, set: usize, slot: usize) {
        self.live -= 1;
        self.by_asid[asid_bucket(self.keys[slot])] -= 1;
        self.lens[set] -= 1;
        let last = set * self.assoc + self.lens[set] as usize;
        if slot != last {
            self.keys[slot] = self.keys[last];
            self.stamps[slot] = self.stamps[last];
            if self.indexed() {
                self.link(self.pos[last] as usize, slot);
            }
        }
    }

    fn lookup(&mut self, key: u64) -> bool {
        if self.keys.is_empty() {
            return false;
        }
        self.tick += 1;
        match self.find(key) {
            Some(slot) => {
                self.stamps[slot] = self.tick;
                true
            }
            None => false,
        }
    }

    /// Inserts a translation, returning any evicted key.
    fn insert(&mut self, key: u64) -> Option<u64> {
        if self.keys.is_empty() {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(key);
        let base = set * self.assoc;
        let len = self.lens[set] as usize;
        // The slot holding `key`, if any: one probe, which otherwise ends
        // at the vacancy its entry goes to, or one pass over the set that
        // also finds its least recently used slot.
        let at = if self.indexed() { self.probe(key) } else { 0 };
        // The victim is the first-minimum stamp; stamps are unique, so it
        // is the one least recently used slot wherever the set keeps it.
        // A running minimum, as in `Cache::access`.
        let (mut victim, mut oldest) = (base, u64::MAX);
        let resident = if self.indexed() {
            (self.index[at] != VACANT).then(|| self.index[at] as usize)
        } else {
            let mut resident = None;
            for slot in base..base + len {
                if self.keys[slot] == key {
                    resident = Some(slot);
                    break;
                }
                if self.stamps[slot] < oldest {
                    (victim, oldest) = (slot, self.stamps[slot]);
                }
            }
            resident
        };
        if let Some(slot) = resident {
            self.stamps[slot] = tick;
            return None;
        }
        if len < self.assoc {
            self.keys[base + len] = key;
            self.stamps[base + len] = tick;
            self.lens[set] += 1;
            self.live += 1;
            self.by_asid[asid_bucket(key)] += 1;
            if self.indexed() {
                self.link(at, base + len);
            }
            return None;
        }
        if self.indexed() {
            for slot in base..base + self.assoc {
                if self.stamps[slot] < oldest {
                    (victim, oldest) = (slot, self.stamps[slot]);
                }
            }
        }
        let evicted = self.keys[victim];
        self.by_asid[asid_bucket(evicted)] -= 1;
        self.by_asid[asid_bucket(key)] += 1;
        self.keys[victim] = key;
        self.stamps[victim] = tick;
        if self.indexed() {
            // Link the new key at the vacancy its probe found, then
            // delete the victim's position: backward shift keeps every
            // chain, the new one included, reachable. The index is at
            // most half full, so one extra key always fits.
            let old_at = self.pos[victim] as usize;
            self.link(at, victim);
            self.unlink(old_at);
        }
        Some(evicted)
    }

    fn invalidate(&mut self, key: u64) -> bool {
        let Some(slot) = self.find(key) else {
            return false;
        };
        if self.indexed() {
            self.unlink(self.pos[slot] as usize);
        }
        self.take_out(slot / self.assoc, slot);
        true
    }

    /// Invalidates `asid`'s pages `first .. first + pages`, returning how
    /// many were resident: one unsigned compare per live entry.
    fn invalidate_range(&mut self, asid: AppId, first: u64, pages: u64) -> usize {
        let end = first.saturating_add(pages).min(1 << PAGE_BITS);
        if first >= end || !self.holds(pack(asid, 0)) {
            return 0;
        }
        let (lo, span) = (pack(asid, first), end - 1 - first);
        self.remove_where(|key| key.wrapping_sub(lo) <= span)
    }

    /// Removes every live entry whose key matches `doomed`, returning how
    /// many went: one pass over the live slots that compacts each set in
    /// order, as `Vec::retain` does, then one index rebuild if anything
    /// went.
    fn remove_where(&mut self, doomed: impl Fn(u64) -> bool) -> usize {
        let mut removed = 0;
        for set in 0..self.lens.len() {
            let slots = self.slots(set);
            let Some(first) = self.keys[slots.clone()].iter().position(|&k| doomed(k)) else {
                continue;
            };
            let first = slots.start + first;
            let mut kept = first;
            for slot in first..slots.end {
                let key = self.keys[slot];
                if doomed(key) {
                    self.by_asid[asid_bucket(key)] -= 1;
                    continue;
                }
                self.keys[kept] = key;
                self.stamps[kept] = self.stamps[slot];
                kept += 1;
            }
            removed += slots.end - kept;
            self.lens[set] = (kept - slots.start) as u32;
        }
        self.live -= removed;
        if removed > 0 && self.indexed() {
            self.rebuild();
        }
        removed
    }

    fn occupancy(&self) -> usize {
        self.live
    }

    /// Every live key, set by set.
    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.lens.len()).flat_map(|set| self.slots(set)).map(|slot| self.keys[slot])
    }
}

/// Each set's entries as `(asid, page, stamp)` in recency order, oldest
/// first, plus `tick`: the whole replacement state, independent of where
/// removals left each slot.
impl fmt::Debug for TranslationArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sets: Vec<Vec<(u16, u64, u64)>> = (0..self.lens.len())
            .map(|set| {
                let mut live: Vec<_> = self
                    .slots(set)
                    .map(|slot| {
                        let (asid, page) = unpack(self.keys[slot]);
                        (asid.0, page, self.stamps[slot])
                    })
                    .collect();
                live.sort_by_key(|&(_, _, stamp)| stamp);
                live
            })
            .collect();
        f.debug_struct("TranslationArray").field("tick", &self.tick).field("sets", &sets).finish()
    }
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
}

impl Tlb {
    /// Creates a TLB with the given geometry.
    pub fn new(config: TlbConfig) -> Self {
        Tlb {
            config,
            base: TranslationArray::new(config.base_entries, config.base_assoc),
            large: TranslationArray::new(config.large_entries, config.large_assoc),
            overall: Ratio::default(),
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
    /// first, then base entries.
    pub fn lookup(&mut self, asid: AppId, addr: VirtAddr) -> TlbLookup {
        if self.large.lookup(pack(asid, addr.large_page().raw())) {
            self.overall.record(true);
            return TlbLookup::HitLarge;
        }
        let base_hit = self.base.lookup(pack(asid, addr.base_page().raw()));
        self.overall.record(base_hit);
        if base_hit {
            TlbLookup::HitBase
        } else {
            TlbLookup::Miss
        }
    }

    /// Probes without recording statistics or updating recency (used for
    /// inspection in tests and assertions).
    pub fn peek(&self, asid: AppId, addr: VirtAddr) -> TlbLookup {
        if self.large.find(pack(asid, addr.large_page().raw())).is_some() {
            TlbLookup::HitLarge
        } else if self.base.find(pack(asid, addr.base_page().raw())).is_some() {
            TlbLookup::HitBase
        } else {
            TlbLookup::Miss
        }
    }

    /// Fills the translation for `addr` into the array selected by `size`,
    /// returning any evicted `(asid, page-number)` pair.
    pub fn fill(&mut self, asid: AppId, addr: VirtAddr, size: PageSize) -> Option<(AppId, u64)> {
        let evicted = match size {
            PageSize::Base => self.base.insert(pack(asid, addr.base_page().raw())),
            PageSize::Large => self.large.insert(pack(asid, addr.large_page().raw())),
        };
        evicted.map(unpack)
    }

    /// Invalidates the large-page entry covering `addr`, as required when a
    /// coalesced page is splintered (Section 4.4). Returns whether an entry
    /// was present.
    pub fn flush_large(&mut self, asid: AppId, addr: VirtAddr) -> bool {
        self.large.invalidate(pack(asid, addr.large_page().raw()))
    }

    /// Invalidates the base-page entry covering `addr`. Returns whether an
    /// entry was present.
    pub fn flush_base(&mut self, asid: AppId, addr: VirtAddr) -> bool {
        self.base.invalidate(pack(asid, addr.base_page().raw()))
    }

    /// Invalidates `asid`'s base-page entries for the `pages` pages from
    /// `first` — a region shootdown — returning how many were present.
    ///
    /// Leaves the TLB as a [`Tlb::flush_base`] per page would: the same
    /// entries go and the survivors keep their recency stamps, so every
    /// later hit and victim is the same. It costs one pass over the
    /// resident entries whatever the range's length.
    pub fn flush_base_range(&mut self, asid: AppId, first: VirtPageNum, pages: u64) -> usize {
        if pages == 0 {
            return 0;
        }
        self.base.invalidate_range(asid, first.raw(), pages)
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
    /// page number. Set-major and deterministic, but the order within a
    /// set depends on past removals; used by the runtime invariant auditor
    /// to check TLB/page-table coherence.
    pub fn entries(&self) -> impl Iterator<Item = (AppId, u64, PageSize)> + '_ {
        let entry = |size| {
            move |key| {
                let (asid, page) = unpack(key);
                (asid, page, size)
            }
        };
        self.base
            .keys()
            .map(entry(PageSize::Base))
            .chain(self.large.keys().map(entry(PageSize::Large)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{LargePageNum, VirtPageNum, BASE_PAGES_PER_LARGE_PAGE, LARGE_PAGE_SIZE};

    fn sorted_entries(tlb: &Tlb) -> Vec<(AppId, u64, PageSize)> {
        let mut entries: Vec<_> = tlb.entries().collect();
        entries.sort_by_key(|&(asid, page, size)| (size == PageSize::Large, asid, page));
        entries
    }

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

    /// Asserts that `arr`'s index is an exact image of its live slots:
    /// every live slot is found at itself, its back-map position points at
    /// it, and the index holds nothing else.
    fn assert_index_exact(arr: &TranslationArray) {
        let lens: usize = arr.lens.iter().map(|&len| len as usize).sum();
        assert_eq!(lens, arr.occupancy(), "live count drifted from the set lengths");
        let mut by_asid = [0; ASID_BUCKETS];
        arr.keys().for_each(|key| by_asid[asid_bucket(key)] += 1);
        assert_eq!(by_asid, arr.by_asid, "per-ASID counts drifted from the contents");
        let linked = arr.index.iter().filter(|&&slot| slot != VACANT).count();
        let want = if arr.indexed() { arr.occupancy() } else { 0 };
        assert_eq!(linked, want, "index holds a stale or missing entry");
        for set in 0..arr.lens.len() {
            for slot in arr.slots(set) {
                assert_eq!(arr.find(arr.keys[slot]), Some(slot), "slot {slot} not found at itself");
                if arr.indexed() {
                    let at = arr.pos[slot] as usize;
                    assert_eq!(arr.index[at] as usize, slot, "back-map of slot {slot} drifted");
                }
            }
        }
    }

    /// The index stays an exact image of both arrays' contents through
    /// fill/evict/invalidate/flush churn.
    #[test]
    fn index_tracks_contents_exactly() {
        fn check(tlb: &Tlb) {
            assert_index_exact(&tlb.base);
            assert_index_exact(&tlb.large);
        }
        // A scanned geometry and an indexed one (sets wider than
        // `SCANNED_WAYS`), the same churn on each.
        for (base, large) in [(2u64, 1u64), (17, 17)] {
            let mut tlb = small_tlb(base as usize, large as usize);
            check(&tlb);
            // Fill past capacity to force evictions, across two ASIDs.
            for i in 0..base + 3 {
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
            // Range invalidation, across a 2 MB boundary and two ASIDs.
            for i in 0..base + 4 {
                tlb.fill(AppId((i % 2) as u16), VirtPageNum(510 + i).addr(), PageSize::Base);
                check(&tlb);
            }
            // Four pages, then one page, against a full array.
            tlb.flush_base_range(AppId(0), VirtPageNum(511), 4);
            check(&tlb);
            tlb.fill(AppId(0), VirtPageNum(600).addr(), PageSize::Base);
            tlb.flush_base_range(AppId(1), VirtPageNum(515), 1);
            check(&tlb);
        }
    }

    /// `flush_base_range` leaves the TLB exactly as the per-page
    /// `flush_base` loop does — the same count, the same `entries()` as a
    /// set, the same whole state (every entry's recency stamp in recency
    /// order, `tick`, the large array, the hit counters), then the same
    /// victims under further fills — on the paper's fully-associative L1
    /// and 16-way L2, over seeded random contents of three ASIDs spread
    /// across a few 2 MB regions, with ranges shorter than the occupancy
    /// and at least as long that straddle region boundaries, plus empty
    /// ranges.
    #[test]
    fn flush_base_range_matches_per_page_flushes() {
        use mosaic_sim_core::SimRng;
        fn assert_same(fast: &Tlb, slow: &Tlb, what: &str) {
            assert_eq!(sorted_entries(fast), sorted_entries(slow), "{what}: entries diverged");
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
                // Hit a resident entry first, so the flush meets a freshly
                // re-stamped entry whose stamp both paths must keep.
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

    /// A copy of the array this module used before the index: per-set
    /// vectors scanned linearly, one recency tick per access, each set in
    /// insertion order with evictions replaced in place.
    #[derive(Clone)]
    struct RefArray {
        sets: Vec<Vec<(AppId, u64, u64)>>,
        assoc: usize,
        tick: u64,
    }

    impl RefArray {
        fn new(entries: usize, assoc: usize) -> Self {
            let (num_sets, assoc) = if entries == 0 {
                (0, 1)
            } else if assoc == 0 || assoc >= entries {
                (1, entries)
            } else {
                (entries / assoc, assoc)
            };
            RefArray { sets: vec![Vec::new(); num_sets], assoc, tick: 0 }
        }

        fn set(&mut self, page: u64) -> &mut Vec<(AppId, u64, u64)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(page % n) as usize]
        }

        fn lookup(&mut self, asid: AppId, page: u64) -> bool {
            if self.sets.is_empty() {
                return false;
            }
            self.tick += 1;
            let tick = self.tick;
            match self.set(page).iter_mut().find(|s| s.0 == asid && s.1 == page) {
                Some(slot) => {
                    slot.2 = tick;
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, asid: AppId, page: u64) -> Option<(AppId, u64)> {
            if self.sets.is_empty() {
                return None;
            }
            self.tick += 1;
            let (tick, assoc) = (self.tick, self.assoc);
            let set = self.set(page);
            if let Some(slot) = set.iter_mut().find(|s| s.0 == asid && s.1 == page) {
                slot.2 = tick;
                return None;
            }
            if set.len() < assoc {
                set.push((asid, page, tick));
                return None;
            }
            let victim = set.iter_mut().min_by_key(|s| s.2).expect("full set");
            let evicted = (victim.0, victim.1);
            *victim = (asid, page, tick);
            Some(evicted)
        }

        fn remove_where(&mut self, doomed: impl Fn(AppId, u64) -> bool) -> usize {
            let mut n = 0;
            for set in &mut self.sets {
                let before = set.len();
                set.retain(|s| !doomed(s.0, s.1));
                n += before - set.len();
            }
            n
        }

        fn invalidate(&mut self, asid: AppId, page: u64) -> bool {
            self.remove_where(|a, p| a == asid && p == page) > 0
        }
    }

    /// [`Tlb`]'s contract over two [`RefArray`]s: large probe, then base.
    #[derive(Clone)]
    struct RefTlb {
        base: RefArray,
        large: RefArray,
    }

    impl RefTlb {
        fn new(config: TlbConfig) -> Self {
            RefTlb {
                base: RefArray::new(config.base_entries, config.base_assoc),
                large: RefArray::new(config.large_entries, config.large_assoc),
            }
        }

        fn lookup(&mut self, asid: AppId, addr: VirtAddr) -> TlbLookup {
            if self.large.lookup(asid, addr.large_page().raw()) {
                TlbLookup::HitLarge
            } else if self.base.lookup(asid, addr.base_page().raw()) {
                TlbLookup::HitBase
            } else {
                TlbLookup::Miss
            }
        }

        fn entries(&self) -> Vec<(AppId, u64, PageSize)> {
            let mut out = Vec::new();
            for (arr, size) in [(&self.base, PageSize::Base), (&self.large, PageSize::Large)] {
                out.extend(arr.sets.iter().flatten().map(|s| (s.0, s.1, size)));
            }
            out.sort_by_key(|&(asid, page, size)| (size == PageSize::Large, asid, page));
            out
        }

        fn occupancy(&self) -> usize {
            self.base.sets.iter().chain(&self.large.sets).map(Vec::len).sum()
        }
    }

    /// Drives the indexed [`Tlb`] and [`RefTlb`] through the same seeded
    /// mix of lookups, fills, and single and range flushes on
    /// the paper's L1 and L2, a two-set toy and zero-entry arrays, with
    /// three ASIDs over a page pool a few times the capacity. A share of
    /// the steps after a lookup repeat it exactly, so repeated hits must
    /// leave later LRU victims unchanged. Every outcome, victim and count
    /// must match, and the occupancy, sorted entry set and index
    /// consistency are checked as it goes.
    #[test]
    fn indexed_tlb_matches_scanned_reference() {
        use mosaic_sim_core::SimRng;
        let toy = TlbConfig {
            base_entries: 8,
            base_assoc: 4,
            large_entries: 4,
            large_assoc: 2,
            latency: 1,
        };
        let empty = TlbConfig {
            base_entries: 0,
            base_assoc: 0,
            large_entries: 0,
            large_assoc: 0,
            latency: 1,
        };
        let (mut short, mut long, mut rebuilt, mut repeat_hits) = (0, 0, 0, 0);
        for (seed, config) in
            [TlbConfig::paper_l1(), TlbConfig::paper_l2(), toy, empty].into_iter().enumerate()
        {
            let mut rng = SimRng::from_seed(0x071B_0000 + seed as u64);
            let mut tlb = Tlb::new(config);
            let mut reference = RefTlb::new(config);
            // Pages over a few 2 MB regions, ~3x the base capacity.
            let span = (3 * config.base_entries as u64).max(16);
            let mut last_lookup = None;
            for step in 0..12_000 {
                let repeat = last_lookup.filter(|_| rng.below(4) == 0);
                let (asid, page) = repeat.unwrap_or_else(|| {
                    // ASIDs 0 and 8 share a per-ASID count bucket.
                    let asid = AppId([0, 1, 8][rng.below(3) as usize]);
                    let region = rng.below(3) * BASE_PAGES_PER_LARGE_PAGE;
                    (asid, VirtPageNum(region + rng.below(span.min(BASE_PAGES_PER_LARGE_PAGE))))
                });
                let addr = page.addr();
                let what = format!("config {seed} step {step}");
                let op = if repeat.is_some() { 0 } else { rng.below(100) };
                last_lookup = (op < 45).then_some((asid, page));
                match op {
                    0..=44 => {
                        let outcome = tlb.lookup(asid, addr);
                        assert_eq!(outcome, reference.lookup(asid, addr), "{what}");
                        if repeat.is_some() && outcome != TlbLookup::Miss {
                            repeat_hits += 1;
                        }
                    }
                    45..=79 => assert_eq!(
                        tlb.fill(asid, addr, PageSize::Base),
                        reference.base.insert(asid, page.raw()),
                        "{what}: base victim"
                    ),
                    80..=87 => assert_eq!(
                        tlb.fill(asid, addr, PageSize::Large),
                        reference.large.insert(asid, addr.large_page().raw()),
                        "{what}: large victim"
                    ),
                    88..=91 => assert_eq!(
                        tlb.flush_base(asid, addr),
                        reference.base.invalidate(asid, page.raw()),
                        "{what}: flush_base"
                    ),
                    92..=93 => assert_eq!(
                        tlb.flush_large(asid, addr),
                        reference.large.invalidate(asid, addr.large_page().raw()),
                        "{what}: flush_large"
                    ),
                    _ => {
                        let occupancy = tlb.base.occupancy() as u64;
                        let pages = if rng.below(2) == 0 {
                            short += 1;
                            rng.below(occupancy.max(1))
                        } else {
                            long += 1;
                            occupancy + rng.below(2 * span)
                        };
                        let end = page.raw().saturating_add(pages);
                        let want = reference
                            .base
                            .remove_where(|a, p| a == asid && (page.raw()..end).contains(&p));
                        if want > 0 {
                            rebuilt += 1;
                        }
                        assert_eq!(tlb.flush_base_range(asid, page, pages), want, "{what}: range");
                    }
                }
                assert_eq!(tlb.occupancy(), reference.occupancy(), "{what}: occupancy");
                if step % 64 == 0 {
                    assert_eq!(sorted_entries(&tlb), reference.entries(), "{what}: entries");
                    assert_index_exact(&tlb.base);
                    assert_index_exact(&tlb.large);
                }
            }
            assert_eq!(sorted_entries(&tlb), reference.entries(), "config {seed}: final entries");
        }
        assert!(
            short > 100 && long > 100 && rebuilt > 20 && repeat_hits > 100,
            "{short} short, {long} long, {rebuilt} rebuilt, {repeat_hits} repeated hits"
        );
    }

    /// `count` distinct base pages of `asid` whose index home in an array
    /// of `tlb`'s base geometry is `home`.
    fn pages_homed_at(tlb: &Tlb, asid: AppId, home: usize, count: usize) -> Vec<u64> {
        (0..).filter(|&p| tlb.base.home(pack(asid, p)) == home).take(count).collect()
    }

    #[test]
    fn probe_chains_wrap_the_array_end() {
        let mut tlb = small_tlb(32, 0);
        let last = tlb.base.index.len() - 1;
        let pages = pages_homed_at(&tlb, AppId(1), last, 4);
        for &p in &pages {
            tlb.fill(AppId(1), VirtPageNum(p).addr(), PageSize::Base);
        }
        // All four share the last position as home: three wrapped to the
        // front of the index.
        let wrapped = pages
            .iter()
            .filter(|&&p| (tlb.base.pos[tlb.base.find(pack(AppId(1), p)).unwrap()] as usize) < last)
            .count();
        assert_eq!(wrapped, 3);
        assert_index_exact(&tlb.base);
        // Deleting the one at the end pulls the wrapped chain back round.
        assert!(tlb.flush_base(AppId(1), VirtPageNum(pages[0]).addr()));
        assert_index_exact(&tlb.base);
        for &p in &pages[1..] {
            assert_eq!(tlb.peek(AppId(1), VirtPageNum(p).addr()), TlbLookup::HitBase);
        }
        assert_eq!(tlb.base.index[last] as usize, tlb.base.find(pack(AppId(1), pages[1])).unwrap());
    }

    #[test]
    fn deletes_inside_a_cluster_keep_every_chain_reachable() {
        // Two homes side by side, interleaved so their chains overlap:
        // deleting from the middle must shift back only the entries whose
        // home allows it.
        let mut tlb = small_tlb(32, 0);
        let a = pages_homed_at(&tlb, AppId(0), 3, 3);
        let b = pages_homed_at(&tlb, AppId(0), 4, 3);
        let all: Vec<u64> = a.iter().zip(&b).flat_map(|(&x, &y)| [x, y]).collect();
        for &p in &all {
            tlb.fill(AppId(0), VirtPageNum(p).addr(), PageSize::Base);
        }
        assert_index_exact(&tlb.base);
        for (i, &gone) in [a[1], b[0], a[0]].iter().enumerate() {
            assert!(tlb.flush_base(AppId(0), VirtPageNum(gone).addr()));
            assert_index_exact(&tlb.base);
            assert_eq!(tlb.occupancy(), all.len() - i - 1);
        }
        for &p in &[a[2], b[1], b[2]] {
            assert_eq!(tlb.peek(AppId(0), VirtPageNum(p).addr()), TlbLookup::HitBase);
        }
    }

    #[test]
    fn bulk_flushes_on_each_side_of_the_rebuild_threshold() {
        // A full L1 in which an eviction put a later key of a shared probe
        // chain into an earlier slot, so a rebuild (slot order) would lay
        // the index out differently. A range flush that matches nothing
        // leaves the index as it was; one that removes a single entry, a
        // few or all 128 compacts and rebuilds it. Each must leave what
        // page-by-page flushes leave.
        let chain = pages_homed_at(&Tlb::new(TlbConfig::paper_l1()), AppId(0), 5, 3);
        let fillers = chain[2] + 1..chain[2] + 127;
        let after = fillers.end..fillers.end + 72;
        let cases = [
            (after.end, 8, 0),
            (fillers.start + 40, 1, 1),
            (fillers.start + 40, 9, 9),
            (0, after.start, 128),
        ];
        for (first, pages, resident) in cases {
            let mut fast = Tlb::new(TlbConfig::paper_l1());
            for p in chain.iter().copied().take(2).chain(fillers.clone()).chain([chain[2]]) {
                fast.fill(AppId(0), VirtPageNum(p).addr(), PageSize::Base);
            }
            let mut rebuilt = fast.base.clone();
            rebuilt.rebuild();
            assert_ne!(rebuilt.index, fast.base.index, "a rebuild must be visible");
            let mut slow = fast.clone();
            let flushed = fast.flush_base_range(AppId(0), VirtPageNum(first), pages);
            assert_eq!(flushed, resident, "{pages} pages from {first}");
            for p in first..first + pages {
                slow.flush_base(AppId(0), VirtPageNum(p).addr());
            }
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{pages} pages from {first}");
            assert_index_exact(&fast.base);
            if resident == 0 {
                assert_eq!(fast.base.index, slow.base.index, "a flush that removes nothing");
            }
            for p in after.clone() {
                let addr = VirtPageNum(p).addr();
                assert_eq!(
                    fast.fill(AppId(0), addr, PageSize::Base),
                    slow.fill(AppId(0), addr, PageSize::Base)
                );
            }
            assert_eq!(sorted_entries(&fast), sorted_entries(&slow));
        }
    }

    #[test]
    fn debug_prints_sets_in_recency_order() {
        let mut tlb = small_tlb(2, 0);
        tlb.fill(AppId(0), VirtPageNum(1).addr(), PageSize::Base);
        tlb.fill(AppId(0), VirtPageNum(2).addr(), PageSize::Base);
        tlb.lookup(AppId(0), VirtPageNum(1).addr());
        assert_eq!(
            format!("{:?}", tlb.base),
            "TranslationArray { tick: 3, sets: [[(0, 2, 2), (0, 1, 3)]] }"
        );
    }
}
