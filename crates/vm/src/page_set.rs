//! A flat set of `(address space, base page)` pairs.
//!
//! Page sets sit on the fault path (the manager's touched working set,
//! the simulator's evicted-page ledger), where a `BTreeSet` of pairs pays
//! a node walk and, on insert, an allocation per page. A [`PageSet`]
//! instead keeps one 512-bit bitmap per `(asid, 2 MB region)` in a
//! [`SortedMap`]: faults cluster by region, so most operations hit the
//! map's hinted bitmap.

use crate::addr::{AppId, VirtPageNum, BASE_PAGES_PER_LARGE_PAGE};
use mosaic_sim_core::SortedMap;

/// Words of 64 bits covering the 512 base pages of one region.
const WORDS: usize = (BASE_PAGES_PER_LARGE_PAGE as usize).div_ceil(64);

/// A set of `(asid, base page)` pairs.
///
/// A region's bitmap stays in place once created, even after its last
/// page is removed: regions are few (one per 2 MB an application
/// touches) and re-filled ones need no vector shift.
///
/// # Examples
///
/// ```
/// use mosaic_vm::{AppId, PageSet, VirtPageNum};
///
/// let mut set = PageSet::new();
/// assert!(set.insert(AppId(0), VirtPageNum(7)));
/// assert!(!set.insert(AppId(0), VirtPageNum(7)), "already present");
/// assert!(set.insert(AppId(1), VirtPageNum(7)), "sets are per address space");
/// assert!(set.remove(AppId(0), VirtPageNum(7)));
/// assert!(set.remove(AppId(1), VirtPageNum(7)));
/// assert!(set.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageSet {
    /// One bitmap per `(asid, large page)`.
    regions: SortedMap<(AppId, u64), [u64; WORDS]>,
    /// Number of pages in the set.
    len: u64,
}

/// The region key of a page and its `(word, mask)` within the bitmap.
fn locate(asid: AppId, vpn: VirtPageNum) -> ((AppId, u64), usize, u64) {
    let i = vpn.index_in_large();
    ((asid, vpn.large_page().raw()), (i / 64) as usize, 1u64 << (i % 64))
}

impl PageSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages in the set.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set holds no page.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `vpn` of `asid`; returns whether it was absent.
    pub fn insert(&mut self, asid: AppId, vpn: VirtPageNum) -> bool {
        let (key, word, mask) = locate(asid, vpn);
        let bits = &mut self.regions.get_or_insert_with(key, || [0; WORDS])[word];
        let added = *bits & mask == 0;
        *bits |= mask;
        self.len += u64::from(added);
        added
    }

    /// Removes `vpn` of `asid`; returns whether it was present.
    pub fn remove(&mut self, asid: AppId, vpn: VirtPageNum) -> bool {
        let (key, word, mask) = locate(asid, vpn);
        let Some(region) = self.regions.get_mut(key) else { return false };
        let bits = &mut region[word];
        let removed = *bits & mask != 0;
        *bits &= !mask;
        self.len -= u64::from(removed);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sim_core::SimRng;
    use std::collections::BTreeSet;

    /// Seeded insert/remove churn against a `BTreeSet` reference: every
    /// answer (whether the page was absent, or present) and the length
    /// agree after every step,
    /// over pages spanning several regions of three address spaces.
    #[test]
    fn matches_btreeset_reference() {
        let mut rng = SimRng::from_seed(0x09A6_E5E7);
        let mut set = PageSet::new();
        let mut reference = BTreeSet::new();
        for step in 0..50_000 {
            let asid = AppId(rng.below(3) as u16);
            // Mostly one hot region (the hint's case), sometimes any of six.
            let region = if rng.below(4) == 0 { rng.below(6) } else { 2 };
            let vpn = VirtPageNum(region * BASE_PAGES_PER_LARGE_PAGE + rng.below(512));
            if rng.below(2) == 0 {
                assert_eq!(
                    set.insert(asid, vpn),
                    reference.insert((asid, vpn)),
                    "step {step}: insert"
                );
            } else {
                assert_eq!(
                    set.remove(asid, vpn),
                    reference.remove(&(asid, vpn)),
                    "step {step}: remove"
                );
            }
            assert_eq!(set.len(), reference.len() as u64, "step {step}: len");
            assert_eq!(set.is_empty(), reference.is_empty());
        }
        assert!(set.regions.is_sorted(), "regions stay sorted");
    }

    #[test]
    fn region_edges_and_removal_of_absent_pages() {
        let mut set = PageSet::new();
        let last = VirtPageNum(BASE_PAGES_PER_LARGE_PAGE - 1);
        let next = VirtPageNum(BASE_PAGES_PER_LARGE_PAGE);
        assert!(!set.remove(AppId(0), last), "removing from an empty set");
        assert!(set.insert(AppId(0), last));
        assert!(set.insert(AppId(0), next), "neighbouring region is separate");
        assert!(!set.remove(AppId(1), next), "other address space");
        assert_eq!(set.len(), 2);
        assert!(set.remove(AppId(0), last));
        assert!(!set.remove(AppId(0), last), "already removed");
        assert_eq!(set.len(), 1);
    }
}
