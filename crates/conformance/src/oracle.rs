//! Obviously-correct reference models the real implementations are
//! diffed against.
//!
//! Each oracle trades all of the real structure's cleverness for the
//! flattest data structure that can express the same contract:
//!
//! * [`OraclePageTable`] is one `BTreeMap` from virtual page to frame plus
//!   a map of coalesced regions — no radix levels, no cached counters, no
//!   per-PTE disabled bits (they are derived from the coalesced set).
//! * [`OracleTlb`] keeps each set as an explicit recency-ordered list
//!   (front = least recently used) instead of timestamp ticks scanned
//!   with `min_by_key`.
//!
//! Because the oracles share nothing with the real code but the contract,
//! a lockstep divergence implies a bug in exactly one side — and the
//! oracle side is small enough to verify by inspection.

use mosaic_vm::page_table::CoalesceError;
use mosaic_vm::{
    AppId, LargeFrameNum, LargePageNum, PageSize, PhysFrameNum, TlbConfig, TlbLookup, Translation,
    TranslationError, VirtAddr, VirtPageNum, BASE_PAGES_PER_LARGE_PAGE,
};
use std::collections::BTreeMap;

/// A flat reference page table: one map for base mappings, one for
/// coalesced regions. Mirrors [`mosaic_vm::PageTable`]'s contract.
#[derive(Debug, Default, Clone)]
pub struct OraclePageTable {
    mappings: BTreeMap<VirtPageNum, PhysFrameNum>,
    coalesced: BTreeMap<LargePageNum, LargeFrameNum>,
}

impl OraclePageTable {
    /// Creates an empty oracle table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a base page; `Err` returns the existing frame, as the real
    /// table does.
    pub fn map_base(&mut self, vpn: VirtPageNum, frame: PhysFrameNum) -> Result<(), PhysFrameNum> {
        match self.mappings.get(&vpn) {
            Some(&existing) => Err(existing),
            None => {
                self.mappings.insert(vpn, frame);
                Ok(())
            }
        }
    }

    /// Unmaps a base page. Coalescing state is untouched: deallocating
    /// inside a coalesced region is legal (Section 4.4).
    pub fn unmap_base(&mut self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        self.mappings.remove(&vpn)
    }

    /// Translates an address: a coalesced region serves every page —
    /// holes included — from its large frame; otherwise the flat map.
    pub fn translate(&self, addr: VirtAddr) -> Result<Translation, TranslationError> {
        let vpn = addr.base_page();
        if let Some(&lf) = self.coalesced.get(&vpn.large_page()) {
            return Ok(Translation {
                frame: lf.base_frame(vpn.index_in_large()),
                size: PageSize::Large,
            });
        }
        match self.mappings.get(&vpn) {
            Some(&frame) => Ok(Translation { frame, size: PageSize::Base }),
            None => Err(TranslationError::NotMapped),
        }
    }

    /// Number of mapped base pages inside `lpn`.
    pub fn mapped_in_large(&self, lpn: LargePageNum) -> u64 {
        let lo = lpn.base_page(0);
        let hi = lpn.base_page(BASE_PAGES_PER_LARGE_PAGE - 1);
        self.mappings.range(lo..=hi).count() as u64
    }

    /// The coalesce precondition, with the same error priorities as the
    /// real table: already-coalesced first, then population, then
    /// contiguity/alignment.
    pub fn can_coalesce(&self, lpn: LargePageNum) -> Result<LargeFrameNum, CoalesceError> {
        if self.mapped_in_large(lpn) == 0 && !self.coalesced.contains_key(&lpn) {
            return Err(CoalesceError::NotFullyPopulated);
        }
        if self.coalesced.contains_key(&lpn) {
            return Err(CoalesceError::AlreadyCoalesced);
        }
        if self.mapped_in_large(lpn) != BASE_PAGES_PER_LARGE_PAGE {
            return Err(CoalesceError::NotFullyPopulated);
        }
        let first = self.mappings[&lpn.base_page(0)];
        if first.index_in_large() != 0 {
            return Err(CoalesceError::NotContiguous);
        }
        let lf = first.large_frame();
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            if self.mappings[&lpn.base_page(i)] != lf.base_frame(i) {
                return Err(CoalesceError::NotContiguous);
            }
        }
        Ok(lf)
    }

    /// Coalesces `lpn` if the precondition holds.
    pub fn coalesce(&mut self, lpn: LargePageNum) -> Result<LargeFrameNum, CoalesceError> {
        let lf = self.can_coalesce(lpn)?;
        self.coalesced.insert(lpn, lf);
        Ok(lf)
    }

    /// Splinters `lpn`, returning whether it was coalesced.
    pub fn splinter(&mut self, lpn: LargePageNum) -> bool {
        self.coalesced.remove(&lpn).is_some()
    }

    /// Whether `lpn` is coalesced.
    pub fn is_coalesced(&self, lpn: LargePageNum) -> bool {
        self.coalesced.contains_key(&lpn)
    }

    /// The backing large frame while `lpn` is coalesced.
    pub fn large_frame_of(&self, lpn: LargePageNum) -> Option<LargeFrameNum> {
        self.coalesced.get(&lpn).copied()
    }

    /// Whether `vpn` has a base mapping.
    pub fn is_mapped(&self, vpn: VirtPageNum) -> bool {
        self.mappings.contains_key(&vpn)
    }

    /// Number of base mappings.
    pub fn mapped_base_pages(&self) -> u64 {
        self.mappings.len() as u64
    }

    /// Every live mapping as `(page, frame, disabled)` in page order. The
    /// disabled bit is *derived* — a page is disabled exactly while its
    /// region is coalesced — which is precisely the invariant the real
    /// table maintains bit-by-bit.
    pub fn mappings(&self) -> Vec<(VirtPageNum, PhysFrameNum, bool)> {
        self.mappings
            .iter()
            .map(|(&vpn, &pfn)| (vpn, pfn, self.coalesced.contains_key(&vpn.large_page())))
            .collect()
    }
}

/// One reference translation array: per-set recency lists.
#[derive(Debug, Clone)]
struct OracleArray {
    /// Front of each list is the least recently used entry.
    sets: Vec<Vec<(AppId, u64)>>,
    assoc: usize,
}

impl OracleArray {
    /// Mirrors the real array's geometry normalization: zero entries is a
    /// null array, zero or over-large associativity means fully
    /// associative, otherwise `entries / assoc` sets.
    fn new(entries: usize, assoc: usize) -> Self {
        let (num_sets, assoc) = if entries == 0 {
            (0, 1)
        } else if assoc == 0 || assoc >= entries {
            (1, entries)
        } else {
            (entries / assoc, assoc)
        };
        OracleArray { sets: vec![Vec::new(); num_sets], assoc }
    }

    fn set_of(&mut self, page: u64) -> &mut Vec<(AppId, u64)> {
        let idx = (page % self.sets.len() as u64) as usize;
        &mut self.sets[idx]
    }

    /// Probe with recency refresh: a hit moves the entry to the back
    /// (most recently used).
    fn touch(&mut self, asid: AppId, page: u64) -> bool {
        if self.sets.is_empty() {
            return false;
        }
        let set = self.set_of(page);
        match set.iter().position(|&e| e == (asid, page)) {
            Some(i) => {
                let e = set.remove(i);
                set.push(e);
                true
            }
            None => false,
        }
    }

    /// Side-effect-free probe.
    fn probe(&self, asid: AppId, page: u64) -> bool {
        if self.sets.is_empty() {
            return false;
        }
        let idx = (page % self.sets.len() as u64) as usize;
        self.sets[idx].contains(&(asid, page))
    }

    /// Insert, evicting the front (LRU) entry of a full set.
    fn insert(&mut self, asid: AppId, page: u64) -> Option<(AppId, u64)> {
        if self.sets.is_empty() {
            return None;
        }
        if self.touch(asid, page) {
            return None;
        }
        let assoc = self.assoc;
        let set = self.set_of(page);
        let evicted = if set.len() == assoc { Some(set.remove(0)) } else { None };
        set.push((asid, page));
        evicted
    }

    fn invalidate(&mut self, asid: AppId, page: u64) -> bool {
        if self.sets.is_empty() {
            return false;
        }
        let set = self.set_of(page);
        match set.iter().position(|&e| e == (asid, page)) {
            Some(i) => {
                set.remove(i);
                true
            }
            None => false,
        }
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// A reference TLB with the same geometry and contract as
/// [`mosaic_vm::Tlb`] but explicit LRU lists instead of timestamps.
#[derive(Debug, Clone)]
pub struct OracleTlb {
    base: OracleArray,
    large: OracleArray,
}

impl OracleTlb {
    /// Builds the oracle for the given real geometry.
    pub fn new(config: &TlbConfig) -> Self {
        OracleTlb {
            base: OracleArray::new(config.base_entries, config.base_assoc),
            large: OracleArray::new(config.large_entries, config.large_assoc),
        }
    }

    /// Probes large entries first, then base, refreshing recency on hits.
    pub fn lookup(&mut self, asid: AppId, addr: VirtAddr) -> TlbLookup {
        if self.large.touch(asid, addr.large_page().raw()) {
            return TlbLookup::HitLarge;
        }
        if self.base.touch(asid, addr.base_page().raw()) {
            return TlbLookup::HitBase;
        }
        TlbLookup::Miss
    }

    /// Side-effect-free probe.
    pub fn peek(&self, asid: AppId, addr: VirtAddr) -> TlbLookup {
        if self.large.probe(asid, addr.large_page().raw()) {
            return TlbLookup::HitLarge;
        }
        if self.base.probe(asid, addr.base_page().raw()) {
            return TlbLookup::HitBase;
        }
        TlbLookup::Miss
    }

    /// Fills the array selected by `size`, returning any evicted entry.
    pub fn fill(&mut self, asid: AppId, addr: VirtAddr, size: PageSize) -> Option<(AppId, u64)> {
        match size {
            PageSize::Base => self.base.insert(asid, addr.base_page().raw()),
            PageSize::Large => self.large.insert(asid, addr.large_page().raw()),
        }
    }

    /// Invalidates the large entry covering `addr`.
    pub fn flush_large(&mut self, asid: AppId, addr: VirtAddr) -> bool {
        self.large.invalidate(asid, addr.large_page().raw())
    }

    /// Invalidates the base entry covering `addr`.
    pub fn flush_base(&mut self, asid: AppId, addr: VirtAddr) -> bool {
        self.base.invalidate(asid, addr.base_page().raw())
    }

    /// Valid entries across both arrays.
    pub fn occupancy(&self) -> usize {
        self.base.occupancy() + self.large.occupancy()
    }

    /// Every valid entry as `(asid, page, size)` for order-insensitive
    /// comparison against the real TLB.
    pub fn entries(&self) -> impl Iterator<Item = (AppId, u64, PageSize)> + '_ {
        let base = self.base.sets.iter().flatten().map(|&(a, p)| (a, p, PageSize::Base));
        let large = self.large.sets.iter().flatten().map(|&(a, p)| (a, p, PageSize::Large));
        base.chain(large)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_table_round_trip() {
        let mut t = OraclePageTable::new();
        let lpn = LargePageNum(2);
        let lf = LargeFrameNum(3);
        assert_eq!(t.can_coalesce(lpn), Err(CoalesceError::NotFullyPopulated));
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            t.map_base(lpn.base_page(i), lf.base_frame(i)).unwrap();
        }
        assert_eq!(t.coalesce(lpn), Ok(lf));
        assert_eq!(t.coalesce(lpn), Err(CoalesceError::AlreadyCoalesced));
        // Holes still translate at large size while coalesced.
        t.unmap_base(lpn.base_page(7));
        let tr = t.translate(lpn.base_page(7).addr()).unwrap();
        assert_eq!(tr.size, PageSize::Large);
        assert_eq!(tr.frame, lf.base_frame(7));
        assert!(t.splinter(lpn));
        assert!(!t.splinter(lpn));
        assert_eq!(t.translate(lpn.base_page(7).addr()), Err(TranslationError::NotMapped));
    }

    #[test]
    fn oracle_tlb_evicts_lru() {
        let config = TlbConfig {
            base_entries: 2,
            base_assoc: 0,
            large_entries: 1,
            large_assoc: 0,
            latency: 1,
        };
        let mut tlb = OracleTlb::new(&config);
        let a = AppId(0);
        let p0 = VirtPageNum(0).addr();
        let p1 = VirtPageNum(1).addr();
        let p2 = VirtPageNum(2).addr();
        assert_eq!(tlb.fill(a, p0, PageSize::Base), None);
        assert_eq!(tlb.fill(a, p1, PageSize::Base), None);
        // Refresh p0 so p1 is the LRU victim.
        assert_eq!(tlb.lookup(a, p0), TlbLookup::HitBase);
        assert_eq!(tlb.fill(a, p2, PageSize::Base), Some((a, 1)));
        assert_eq!(tlb.peek(a, p1), TlbLookup::Miss);
        assert_eq!(tlb.occupancy(), 2);
    }
}
