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
use mosaic_sim_core::{Counter, Cycle, Histogram, OccupancyPool};
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
    active: MshrTable,
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
            active: MshrTable::new(),
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
        if let Some(done) = self.active.get(req) {
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

/// Slot count a fresh [`MshrTable`] starts with.
const MSHR_INITIAL_SLOTS: usize = 64;

/// Key of an empty [`MshrTable`] slot. No real request has it: virtual
/// page numbers are far below `u64::MAX`.
const EMPTY: WalkRequest = WalkRequest { asid: AppId(u16::MAX), vpn: VirtPageNum(u64::MAX) };

/// The walker's in-flight set: an open-addressed map from request to
/// completion cycle.
///
/// Slots are a power-of-two array of `(request, done)` pairs (24 B each)
/// with [`EMPTY`] marking a free slot. A request's home slot comes from a
/// fixed multiplicative hash of `(asid, vpn)` — no per-process seed, so
/// the layout is deterministic — and lookups probe linearly from there.
/// Deletion shifts the rest of the probe chain back, so there are no
/// tombstones. The table doubles at half load. Only `grow` walks the
/// slots, so nothing simulated depends on their order.
#[derive(Debug)]
struct MshrTable {
    slots: Vec<(WalkRequest, Cycle)>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    len: usize,
}

impl MshrTable {
    fn new() -> Self {
        Self::with_slots(MSHR_INITIAL_SLOTS)
    }

    fn with_slots(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        MshrTable { slots: vec![(EMPTY, Cycle::ZERO); n], shift: 64 - n.trailing_zeros(), len: 0 }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, req: WalkRequest) -> usize {
        ((req.vpn.raw() ^ (u64::from(req.asid.0) << 40)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            >> self.shift) as usize
    }

    /// The slot holding `req`, or the empty slot ending its probe chain.
    fn find(&self, req: WalkRequest) -> usize {
        let mask = self.mask();
        let mut i = self.home(req);
        while self.slots[i].0 != req && self.slots[i].0 != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// Completion cycle of `req`'s in-flight walk, if any.
    fn get(&self, req: WalkRequest) -> Option<Cycle> {
        let (key, done) = self.slots[self.find(req)];
        (key != EMPTY).then_some(done)
    }

    /// Records `req` as in flight until `done`. `req` must be absent.
    fn insert(&mut self, req: WalkRequest, done: Cycle) {
        debug_assert!(req != EMPTY, "the empty key is reserved");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.find(req);
        debug_assert!(self.slots[i].0 == EMPTY, "request already in flight");
        self.slots[i] = (req, done);
        self.len += 1;
    }

    /// Removes `req`, returning its completion cycle if it was present.
    fn remove(&mut self, req: WalkRequest) -> Option<Cycle> {
        let mut hole = self.find(req);
        let (key, done) = self.slots[hole];
        if key == EMPTY {
            return None;
        }
        // Backward-shift deletion: walk the rest of the chain and pull
        // back every entry whose home does not lie cyclically in
        // `(hole, j]`, so no lookup ever crosses an empty slot early.
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let moved = self.slots[j];
            if moved.0 == EMPTY {
                break;
            }
            let home = self.home(moved.0);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = moved;
                hole = j;
            }
        }
        self.slots[hole] = (EMPTY, Cycle::ZERO);
        self.len -= 1;
        Some(done)
    }

    /// Doubles the slot array, re-homing every live entry.
    fn grow(&mut self) {
        let mut bigger = MshrTable::with_slots(2 * self.slots.len());
        for &(req, done) in &self.slots {
            if req != EMPTY {
                let i = bigger.find(req);
                bigger.slots[i] = (req, done);
            }
        }
        bigger.len = self.len;
        *self = bigger;
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

    fn req(asid: u16, vpn: u64) -> WalkRequest {
        WalkRequest { asid: AppId(asid), vpn: VirtPageNum(vpn) }
    }

    /// Requests whose home slot in a fresh table is `slot`.
    fn homed_at(slot: usize, n: usize) -> Vec<WalkRequest> {
        let t = MshrTable::new();
        (0..).map(|v| req(0, v)).filter(|&r| t.home(r) == slot).take(n).collect()
    }

    #[test]
    fn table_probe_chains_wrap_the_array_end() {
        let mut t = MshrTable::new();
        let last = t.slots.len() - 1;
        let chain = homed_at(last, 3);
        for (i, &r) in chain.iter().enumerate() {
            t.insert(r, Cycle::new(i as u64));
        }
        // Two of the three spilled past the end into slots 0 and 1.
        assert_eq!(t.slots[0].0, chain[1]);
        assert_eq!(t.slots[1].0, chain[2]);
        for (i, &r) in chain.iter().enumerate() {
            assert_eq!(t.get(r), Some(Cycle::new(i as u64)));
        }
        // Deleting the head at the end pulls the wrapped entries back.
        assert_eq!(t.remove(chain[0]), Some(Cycle::new(0)));
        assert_eq!(t.slots[last].0, chain[1]);
        assert_eq!(t.slots[0].0, chain[2]);
        assert_eq!(t.slots[1].0, EMPTY);
        assert_eq!(t.get(chain[0]), None);
        assert_eq!(t.get(chain[2]), Some(Cycle::new(2)));
    }

    #[test]
    fn table_deletes_inside_a_cluster_keep_every_chain_reachable() {
        let mut t = MshrTable::new();
        // Two interleaved chains: homes 5 and 6 share one cluster.
        let a = homed_at(5, 3);
        let b = homed_at(6, 3);
        let all: Vec<_> = a.iter().zip(&b).flat_map(|(&x, &y)| [x, y]).collect();
        for (i, &r) in all.iter().enumerate() {
            t.insert(r, Cycle::new(i as u64));
        }
        // Delete from the middle, then the head, then the tail.
        for victim in [all[2], all[0], all[5]] {
            let i = all.iter().position(|&r| r == victim).unwrap();
            assert_eq!(t.remove(victim), Some(Cycle::new(i as u64)));
            assert_eq!(t.remove(victim), None, "removed twice");
            for (j, &r) in all.iter().enumerate() {
                let live = t.slots.iter().any(|s| s.0 == r);
                assert_eq!(t.get(r), live.then_some(Cycle::new(j as u64)));
            }
        }
        assert_eq!(t.len, 3);
        // The survivors sit back at the cluster's start: no holes inside.
        let occupied: Vec<usize> = (0..t.slots.len()).filter(|&i| t.slots[i].0 != EMPTY).collect();
        assert_eq!(occupied, vec![5, 6, 7]);
    }

    #[test]
    fn table_grows_past_thousands_of_live_entries() {
        let mut t = MshrTable::new();
        let mut model = std::collections::BTreeMap::new();
        let mut rng = mosaic_sim_core::SimRng::from_seed(7);
        for i in 0..10_000u64 {
            let r = req(rng.below(3) as u16, rng.below(1 << 30));
            if model.contains_key(&r) {
                continue;
            }
            t.insert(r, Cycle::new(i));
            model.insert(r, Cycle::new(i));
            // Retire every third entry so deletes run at every size.
            if i % 3 == 0 {
                let (&old, &done) = model.iter().next().unwrap();
                assert_eq!(t.remove(old), Some(done));
                model.remove(&old);
            }
        }
        assert!(model.len() >= 4_096, "{} live", model.len());
        assert_eq!(t.len, model.len());
        assert!(t.slots.len() >= 2 * t.len, "doubles at half load");
        for (&r, &done) in &model {
            assert_eq!(t.get(r), Some(done));
        }
        assert_eq!(t.get(req(0, 1 << 40)), None);
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
