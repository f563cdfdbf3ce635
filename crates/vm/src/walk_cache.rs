//! Page-walk cache (the Section 3.1 ablation).
//!
//! Power et al.'s original GPU MMU design pairs the highly-threaded walker
//! with a *page-walk cache* holding recently-used page-table entries. The
//! Mosaic paper finds that replacing it with a 512-entry shared L2 TLB is
//! ~14% faster on average and adopts the L2 TLB for its baseline; the
//! `ablation_pwc_vs_l2tlb` experiment reproduces that comparison, using
//! this structure.
//!
//! The cache maps physical PTE addresses (any level of the table) to a
//! cheap hit, skipping the memory access for that walk level.

use crate::addr::PhysAddr;

/// A fully-associative LRU cache over page-table entry addresses.
///
/// # Examples
///
/// ```
/// use mosaic_vm::{WalkCache, PhysAddr};
///
/// let mut pwc = WalkCache::new(2, 4);
/// assert!(!pwc.access(PhysAddr(0x100)));
/// assert!(pwc.access(PhysAddr(0x100))); // now cached
/// assert_eq!(pwc.latency(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct WalkCache {
    /// `(pte_address, last_used)` pairs; fully associative.
    entries: Vec<(PhysAddr, u64)>,
    capacity: usize,
    latency: u64,
    tick: u64,
}

impl WalkCache {
    /// Creates a walk cache with `capacity` PTE entries and a hit latency
    /// of `latency` cycles.
    pub fn new(capacity: usize, latency: u64) -> Self {
        WalkCache { entries: Vec::with_capacity(capacity), capacity, latency, tick: 0 }
    }

    /// Hit latency in core cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Looks up `addr`, filling it on miss. Returns `true` on hit.
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        self.tick += 1;
        if self.capacity == 0 {
            return false;
        }
        if let Some(e) = self.entries.iter_mut().find(|(a, _)| *a == addr) {
            e.1 = self.tick;
            return true;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((addr, self.tick));
        } else {
            let lru = self
                .entries
                .iter_mut()
                .min_by_key(|(_, t)| *t)
                .expect("cache is full, hence non-empty");
            *lru = (addr, self.tick);
        }
        false
    }

    /// Number of cached entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = WalkCache::new(4, 10);
        assert!(!c.access(PhysAddr(1)));
        assert!(c.access(PhysAddr(1)));
        assert_eq!(c.occupancy(), 1, "a hit does not refill");
    }

    #[test]
    fn lru_eviction() {
        let mut c = WalkCache::new(2, 1);
        c.access(PhysAddr(1));
        c.access(PhysAddr(2));
        c.access(PhysAddr(1)); // 2 becomes LRU
        c.access(PhysAddr(3)); // evicts 2
        assert!(c.access(PhysAddr(1)));
        assert!(!c.access(PhysAddr(2)));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = WalkCache::new(0, 1);
        c.access(PhysAddr(7));
        assert!(!c.access(PhysAddr(7)));
    }
}
