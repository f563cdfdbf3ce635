//! The shared, highly-threaded page-table walker.
//!
//! A TLB miss invokes a page-table walk: four *serialized* memory accesses
//! that traverse the radix table (Section 2.2, Figure 2). The paper's
//! baseline (after Power et al.) shares one walker among all SMs and allows
//! up to 64 concurrent walks; further misses queue for a walker thread.
//!
//! Concurrent misses to the same page are merged MSHR-style: they join the
//! in-flight walk and observe its completion time instead of consuming
//! another walker thread — the "TLB accesses from multiple threads to the
//! same page are coalesced" behaviour of Section 3.1.
//!
//! The walker is generic over how page-table memory is reached: each level
//! access is performed through a caller-supplied function that charges the
//! appropriate latency (shared L2 cache hit or DRAM access, and optionally
//! a page-walk cache), so the same walker serves the baseline, the
//! ablations, and Mosaic.

use crate::addr::{AppId, PhysAddr, VirtPageNum};
use mosaic_sim_core::{Counter, Cycle, Histogram, OccupancyPool, OpenTable, TableKey};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A request to translate one base page for one address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WalkRequest {
    /// Requesting address space.
    pub asid: AppId,
    /// Faulting base page.
    pub vpn: VirtPageNum,
}

/// The scheduling outcome of a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Cycle at which the walk (or the walk it merged with) completes.
    pub done: Cycle,
    /// Whether this request merged into an already in-flight walk.
    pub coalesced: bool,
}

/// The shared page-table walker.
///
/// # Examples
///
/// ```
/// use mosaic_vm::{PageTableWalker, AppId, VirtPageNum, PhysAddr};
/// use mosaic_sim_core::Cycle;
///
/// let mut walker = PageTableWalker::new(64);
/// let path = [PhysAddr(0x100), PhysAddr(0x200), PhysAddr(0x300), PhysAddr(0x400)];
/// // Each page-table level costs 100 cycles of memory access here.
/// let out = walker.walk(
///     Cycle::new(0),
///     AppId(0),
///     VirtPageNum(7),
///     path,
///     |_level, _addr, start| start + 100,
/// );
/// assert_eq!(out.done, Cycle::new(400)); // 4 serialized accesses
/// assert!(!out.coalesced);
/// ```
#[derive(Debug)]
pub struct PageTableWalker {
    slots: OccupancyPool,
    /// Completion cycle of each in-flight walk, keyed by request; a miss
    /// that finds its request here merges MSHR-style. At most one entry
    /// per request exists (a new walk for a request is only started after
    /// the old entry retired). NOT bounded by the thread count: queued
    /// walks complete far in the future, so under TLB-miss bursts
    /// thousands of entries are live at once — which is why this is a
    /// hash table and retirement is heap-driven rather than a per-call
    /// linear sweep (profiled at ~45% of sweep CPU as a flat vector).
    /// Nothing iterates it, so nothing simulated depends on its slot
    /// order.
    active: OpenTable<WalkRequest, Cycle>,
    /// Min-heap of `(completion, request)` pairs driving retirement: each
    /// `walk` call first retires every entry completed by `now`. A
    /// request enters `active` only when it is absent, and leaves it only
    /// when its pair pops, so every live entry has exactly one pair.
    completions: BinaryHeap<Reverse<(Cycle, WalkRequest)>>,
    walks: Counter,
    latency: Histogram,
}

impl PageTableWalker {
    /// Creates a walker with `threads` concurrent walk slots (the paper
    /// uses 64).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        PageTableWalker {
            slots: OccupancyPool::new(threads),
            active: OpenTable::new(),
            completions: BinaryHeap::new(),
            walks: Counter::new(),
            latency: Histogram::default(),
        }
    }

    /// Performs (or joins) a walk for `vpn` in `asid`'s table.
    ///
    /// `path` is the four-level PTE address sequence from
    /// [`crate::PageTable::walk_path`]. `mem_access(level, addr, start)`
    /// must return the cycle at which a memory read of the level-`level`
    /// PTE at `addr` beginning at `start` completes (level 0 is the root,
    /// level 3 the leaf); the walker serializes the four accesses, models
    /// walker-thread contention, and merges duplicate in-flight requests.
    pub fn walk(
        &mut self,
        now: Cycle,
        asid: AppId,
        vpn: VirtPageNum,
        path: [PhysAddr; 4],
        mut mem_access: impl FnMut(usize, PhysAddr, Cycle) -> Cycle,
    ) -> WalkOutcome {
        let req = WalkRequest { asid, vpn };
        // Retire every walk completed by `now` before probing for a
        // merge; the heap surfaces exactly the entries with `done <= now`.
        while let Some(&Reverse((done, retired))) = self.completions.peek() {
            if done > now {
                break;
            }
            self.completions.pop();
            let removed = self.active.remove(retired);
            debug_assert_eq!(removed, Some(done), "one completion pair per in-flight walk");
        }
        if let Some(&done) = self.active.get(req) {
            return WalkOutcome { done, coalesced: true };
        }
        // Claim a walker thread; a free slot may only be available later.
        let start = self.slots.next_free(now);
        let mut t = start;
        for (level, addr) in path.into_iter().enumerate() {
            let finished = mem_access(level, addr, t);
            debug_assert!(finished >= t, "memory access cannot complete before it starts");
            t = finished;
        }
        // Occupy the slot for the walk's actual duration.
        let grant = self.slots.acquire(now, t.since(start));
        debug_assert_eq!(grant.start, start);
        self.walks.inc();
        self.latency.record(t.since(now));
        self.active.insert(req, t);
        self.completions.push(Reverse((t, req)));
        mosaic_telemetry::emit(|| mosaic_telemetry::Event::PageWalk {
            asid: asid.0,
            vpn: vpn.raw(),
            issue: now.as_u64(),
            done: t.as_u64(),
        });
        WalkOutcome { done: t, coalesced: false }
    }

    /// Number of full walks performed (excluding merged requests).
    pub fn walks(&self) -> u64 {
        self.walks.get()
    }

    /// Distribution of end-to-end walk latency (queueing + 4 accesses), in
    /// cycles.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }
}

/// Walk requests key the in-flight [`OpenTable`]. The empty key is one
/// no real request has: virtual page numbers are far below `u64::MAX`.
impl TableKey for WalkRequest {
    const EMPTY: Self = WalkRequest { asid: AppId(u16::MAX), vpn: VirtPageNum(u64::MAX) };

    fn mix(self) -> u64 {
        self.vpn.raw() ^ (u64::from(self.asid.0) << 40)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> [PhysAddr; 4] {
        [PhysAddr(0x1000), PhysAddr(0x2000), PhysAddr(0x3000), PhysAddr(0x4000)]
    }

    #[test]
    fn four_levels_serialize() {
        let mut w = PageTableWalker::new(4);
        let mut seen = Vec::new();
        let out = w.walk(Cycle::new(10), AppId(0), VirtPageNum(1), path(), |lvl, a, start| {
            seen.push((lvl, a, start));
            start + 50
        });
        assert_eq!(out.done, Cycle::new(210));
        assert_eq!(seen.len(), 4);
        // Each access starts when the previous finished.
        assert_eq!(seen[0].2, Cycle::new(10));
        assert_eq!(seen[3].2, Cycle::new(160));
        assert_eq!(seen.iter().map(|s| s.0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_requests_merge() {
        let mut w = PageTableWalker::new(4);
        let out1 = w.walk(Cycle::new(0), AppId(0), VirtPageNum(9), path(), |_, _, s| s + 100);
        let out2 = w.walk(Cycle::new(5), AppId(0), VirtPageNum(9), path(), |_, _, s| s + 100);
        assert!(!out1.coalesced);
        assert!(out2.coalesced);
        assert_eq!(out2.done, out1.done);
        assert_eq!(w.walks(), 1);
    }

    #[test]
    fn different_pages_do_not_merge() {
        let mut w = PageTableWalker::new(4);
        let a = w.walk(Cycle::new(0), AppId(0), VirtPageNum(1), path(), |_, _, s| s + 10);
        let b = w.walk(Cycle::new(0), AppId(0), VirtPageNum(2), path(), |_, _, s| s + 10);
        assert!(!a.coalesced && !b.coalesced);
        assert_eq!(w.walks(), 2);
    }

    #[test]
    fn same_page_different_asid_does_not_merge() {
        let mut w = PageTableWalker::new(4);
        w.walk(Cycle::new(0), AppId(0), VirtPageNum(1), path(), |_, _, s| s + 10);
        let b = w.walk(Cycle::new(0), AppId(1), VirtPageNum(1), path(), |_, _, s| s + 10);
        assert!(!b.coalesced, "protection domains never share walks");
    }

    #[test]
    fn walks_queue_when_threads_exhausted() {
        let mut w = PageTableWalker::new(1);
        let a = w.walk(Cycle::new(0), AppId(0), VirtPageNum(1), path(), |_, _, s| s + 25);
        let b = w.walk(Cycle::new(0), AppId(0), VirtPageNum(2), path(), |_, _, s| s + 25);
        assert_eq!(a.done, Cycle::new(100));
        // Second walk waits for the single walker thread.
        assert_eq!(b.done, Cycle::new(200));
    }

    #[test]
    fn completed_walks_free_their_mshr() {
        let mut w = PageTableWalker::new(4);
        let a = w.walk(Cycle::new(0), AppId(0), VirtPageNum(1), path(), |_, _, s| s + 10);
        // Re-request long after completion: a fresh walk, not a merge.
        let b = w.walk(a.done + 100, AppId(0), VirtPageNum(1), path(), |_, _, s| s + 10);
        assert!(!b.coalesced);
        assert_eq!(w.walks(), 2);
    }

    /// The walker as it was before the open-addressed table: a
    /// `BTreeMap` of in-flight walks plus a completion heap whose stale
    /// pairs are skipped. The reference the table must reproduce.
    struct BTreeWalker {
        slots: OccupancyPool,
        active: std::collections::BTreeMap<WalkRequest, Cycle>,
        completions: BinaryHeap<Reverse<(Cycle, WalkRequest)>>,
        walks: u64,
        coalesced: u64,
        latency: Histogram,
    }

    impl BTreeWalker {
        fn new(threads: usize) -> Self {
            BTreeWalker {
                slots: OccupancyPool::new(threads),
                active: Default::default(),
                completions: BinaryHeap::new(),
                walks: 0,
                coalesced: 0,
                latency: Histogram::default(),
            }
        }

        fn walk(
            &mut self,
            now: Cycle,
            req: WalkRequest,
            mut mem_access: impl FnMut(usize, PhysAddr, Cycle) -> Cycle,
        ) -> WalkOutcome {
            while let Some(&Reverse((done, retired))) = self.completions.peek() {
                if done > now {
                    break;
                }
                self.completions.pop();
                if self.active.get(&retired) == Some(&done) {
                    self.active.remove(&retired);
                }
            }
            if let Some(&done) = self.active.get(&req) {
                self.coalesced += 1;
                return WalkOutcome { done, coalesced: true };
            }
            let start = self.slots.next_free(now);
            let mut t = start;
            for (level, addr) in path().into_iter().enumerate() {
                t = mem_access(level, addr, t);
            }
            self.slots.acquire(now, t.since(start));
            self.walks += 1;
            self.latency.record(t.since(now));
            self.active.insert(req, t);
            self.completions.push(Reverse((t, req)));
            WalkOutcome { done: t, coalesced: false }
        }
    }

    /// Drives the walker and the `BTreeMap` reference through the same
    /// seeded calls: a small page pool so merges happen, two ASIDs,
    /// per-level latencies from a few cycles to thousands, and `now`
    /// either monotone or jumping back (the page-walk-cache ablation has
    /// no L2 TLB and walks at `l1_done`, which is not monotone).
    fn check_against_reference(seed: u64, monotone: bool) {
        let mut rng = mosaic_sim_core::SimRng::from_seed(seed);
        let mut w = PageTableWalker::new(8);
        let mut r = BTreeWalker::new(8);
        let mut now = 0u64;
        for _ in 0..20_000 {
            now = if monotone || rng.chance(0.7) {
                now + rng.below(40)
            } else {
                now.saturating_sub(rng.below(3_000))
            };
            let req =
                WalkRequest { asid: AppId(rng.below(2) as u16), vpn: VirtPageNum(rng.below(300)) };
            let lat = [rng.below(20), rng.below(400), rng.below(4_000), 1 + rng.below(50)];
            let access = |level: usize, _: PhysAddr, at: Cycle| at + lat[level];
            let got = w.walk(Cycle::new(now), req.asid, req.vpn, path(), access);
            let want = r.walk(Cycle::new(now), req, access);
            assert_eq!(got, want, "seed {seed}, request {req:?} at {now}");
        }
        assert_eq!(w.walks(), r.walks);
        assert_eq!(w.latency(), &r.latency);
        assert!(r.coalesced > 100, "the pool is small enough to merge ({})", r.coalesced);
    }

    #[test]
    fn table_walker_matches_btree_reference_monotone() {
        for seed in 0..4 {
            check_against_reference(seed, true);
        }
    }

    #[test]
    fn table_walker_matches_btree_reference_non_monotone() {
        for seed in 10..14 {
            check_against_reference(seed, false);
        }
    }

    #[test]
    fn latency_histogram_records_queueing() {
        let mut w = PageTableWalker::new(1);
        w.walk(Cycle::new(0), AppId(0), VirtPageNum(1), path(), |_, _, s| s + 25);
        w.walk(Cycle::new(0), AppId(0), VirtPageNum(2), path(), |_, _, s| s + 25);
        assert_eq!(w.latency().count(), 2);
        assert_eq!(w.latency().min(), Some(100));
        assert_eq!(w.latency().max(), Some(200));
    }
}
