//! Stall-cycle attribution: buckets, per-access timelines, and breakdowns.
//!
//! The paper's headline claims are latency-breakdown claims — *where* a
//! warp's stall cycles go (TLB hit vs. miss/walk, shootdowns, caches, DRAM
//! queueing vs. service). The memory system describes each warp access as
//! an [`AccessTimeline`]: an ordered run of segments tiling the interval
//! from issue to completion, each charged to one [`StallBucket`]. When the
//! SM fast-forwards over a stall it attributes the skipped interval to the
//! waking warp's timeline segments, accumulating a [`StallBreakdown`]
//! whose buckets sum *exactly* to the SM's total stall cycles (any
//! residual the timeline does not cover lands in [`StallBucket::Other`]).
//!
//! These types are plain `Copy` data built unconditionally on the hot
//! path (a handful of array writes per access), so the stall report is
//! deterministic and available without event tracing.

use mosaic_sim_core::Cycle;

/// Where a stalled cycle is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum StallBucket {
    /// Translation serviced by an L1 or L2 TLB hit.
    TlbHit,
    /// TLB miss: page-table walk (including L2 TLB probe and walker
    /// queueing on the miss path).
    TlbWalk,
    /// Far-fault service: demand paging over the I/O bus plus any
    /// compaction migrations the allocation waited on.
    Fault,
    /// TLB shootdown / compaction stall fences raised by the manager.
    Shootdown,
    /// L1/L2 data-cache access time (including crossbar traversal).
    Cache,
    /// Waiting in DRAM bank/bus queues ahead of service.
    DramQueue,
    /// DRAM row access plus data burst.
    DramService,
    /// Warp-local compute latency.
    Compute,
    /// Kernel-phase synchronization fences (later phases start where the
    /// previous grid left off).
    Sync,
    /// Eviction under memory pressure: tearing down victim translations
    /// (page-table/TLB work) before a fault's allocation can retry.
    Evict,
    /// Write-back of dirty evicted pages over the I/O bus (queueing plus
    /// wire time the triggering fault waits on).
    Writeback,
    /// Remote access over the inter-GPU interconnect: link queueing plus
    /// hop traversal when a warp's data lives on another GPU's DRAM.
    Remote,
    /// Inter-GPU page migration the access waited on: moving a frame's
    /// bytes across the interconnect under `migrate-on-threshold`.
    Migrate,
    /// Residual cycles no timeline segment covers.
    #[default]
    Other,
}

impl StallBucket {
    /// Number of buckets.
    pub const COUNT: usize = 14;

    /// Every bucket, in display order.
    pub const ALL: [StallBucket; Self::COUNT] = [
        StallBucket::TlbHit,
        StallBucket::TlbWalk,
        StallBucket::Fault,
        StallBucket::Shootdown,
        StallBucket::Cache,
        StallBucket::DramQueue,
        StallBucket::DramService,
        StallBucket::Compute,
        StallBucket::Sync,
        StallBucket::Evict,
        StallBucket::Writeback,
        StallBucket::Remote,
        StallBucket::Migrate,
        StallBucket::Other,
    ];

    /// Dense index of this bucket (inverse of `ALL`).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short, fixed label for report columns.
    pub fn label(self) -> &'static str {
        match self {
            StallBucket::TlbHit => "tlb-hit",
            StallBucket::TlbWalk => "tlb-walk",
            StallBucket::Fault => "fault",
            StallBucket::Shootdown => "shootdown",
            StallBucket::Cache => "cache",
            StallBucket::DramQueue => "dram-q",
            StallBucket::DramService => "dram-svc",
            StallBucket::Compute => "compute",
            StallBucket::Sync => "sync",
            StallBucket::Evict => "evict",
            StallBucket::Writeback => "writeback",
            StallBucket::Remote => "remote",
            StallBucket::Migrate => "migrate",
            StallBucket::Other => "other",
        }
    }
}

/// Maximum segments one access timeline can carry. The deepest path (L1
/// TLB probe → walk → fault → L1$ → xbar/L2$ → DRAM queue → DRAM service)
/// merges into at most seven distinct-bucket runs; eight leaves slack.
pub const MAX_TIMELINE_SEGS: usize = 8;

/// An ordered run of `(end, bucket)` segments tiling `[start, end())`,
/// describing where the cycles of one warp access (or compute wait) went.
///
/// Built with [`AccessTimeline::mark`]: each mark extends coverage up to
/// its end cycle under one bucket; non-monotonic marks are clamped and
/// adjacent same-bucket segments merge, so the structure never drops time
/// and never exceeds [`MAX_TIMELINE_SEGS`] on the paths the simulator
/// builds (a full timeline extends its last segment instead of losing
/// cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTimeline {
    start: u64,
    len: u8,
    ends: [u64; MAX_TIMELINE_SEGS],
    buckets: [StallBucket; MAX_TIMELINE_SEGS],
}

impl Default for AccessTimeline {
    fn default() -> Self {
        AccessTimeline::begin(Cycle::ZERO)
    }
}

impl AccessTimeline {
    /// An empty timeline anchored at `start`.
    #[inline]
    pub fn begin(start: Cycle) -> Self {
        AccessTimeline {
            start: start.as_u64(),
            len: 0,
            ends: [0; MAX_TIMELINE_SEGS],
            buckets: [StallBucket::Other; MAX_TIMELINE_SEGS],
        }
    }

    /// A single-segment timeline `[start, end)` charged to `bucket`.
    #[inline]
    pub fn single(start: Cycle, end: Cycle, bucket: StallBucket) -> Self {
        let mut tl = AccessTimeline::begin(start);
        tl.mark(end, bucket);
        tl
    }

    /// One past the last covered cycle (`start` when empty).
    #[inline]
    pub fn end(&self) -> u64 {
        if self.len == 0 {
            self.start
        } else {
            self.ends[usize::from(self.len) - 1]
        }
    }

    /// Extends coverage up to `end` under `bucket`. Marks that do not
    /// advance past the current end are ignored; a mark matching the last
    /// segment's bucket extends it in place.
    #[inline]
    pub fn mark(&mut self, end: Cycle, bucket: StallBucket) {
        let end = end.as_u64();
        if end <= self.end() {
            return;
        }
        let len = usize::from(self.len);
        if len > 0 && self.buckets[len - 1] == bucket {
            self.ends[len - 1] = end;
        } else if len < MAX_TIMELINE_SEGS {
            self.ends[len] = end;
            self.buckets[len] = bucket;
            self.len += 1;
        } else {
            // Full: extend the last segment rather than drop cycles.
            self.ends[MAX_TIMELINE_SEGS - 1] = end;
        }
    }

    /// Guarantees coverage up to `end` (extending the last segment, or
    /// opening an `Other` segment when empty). Used by the caller that
    /// knows the access's final completion cycle.
    #[inline]
    pub fn seal(&mut self, end: Cycle) {
        if end.as_u64() <= self.end() {
            return;
        }
        let bucket = if self.len == 0 {
            StallBucket::Other
        } else {
            self.buckets[usize::from(self.len) - 1]
        };
        self.mark(end, bucket);
    }

    /// Iterates `(seg_start, seg_end, bucket)` triples in time order.
    pub fn segments(&self) -> impl Iterator<Item = (u64, u64, StallBucket)> + '_ {
        let mut prev = self.start;
        (0..usize::from(self.len)).map(move |i| {
            let s = prev;
            prev = self.ends[i];
            (s, self.ends[i], self.buckets[i])
        })
    }
}

/// Per-bucket stall-cycle totals. Buckets always sum exactly to the stall
/// cycles attributed through [`StallBreakdown::attribute`] and
/// [`StallBreakdown::add`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    cycles: [u64; StallBucket::COUNT],
}

impl StallBreakdown {
    /// Charges `cycles` to `bucket`.
    #[inline]
    pub fn add(&mut self, bucket: StallBucket, cycles: u64) {
        self.cycles[bucket.index()] += cycles;
    }

    /// Attributes the stall interval `[from, to)` to `timeline`'s
    /// overlapping segments; cycles outside the timeline's coverage are
    /// charged to [`StallBucket::Other`], so exactly `to - from` cycles
    /// are added in total.
    pub fn attribute(&mut self, timeline: &AccessTimeline, from: Cycle, to: Cycle) {
        let (from, to) = (from.as_u64(), to.as_u64());
        if to <= from {
            return;
        }
        let mut attributed = 0u64;
        for (s, e, bucket) in timeline.segments() {
            let lo = s.max(from);
            let hi = e.min(to);
            if hi > lo {
                self.cycles[bucket.index()] += hi - lo;
                attributed += hi - lo;
            }
        }
        let total = to - from;
        if attributed < total {
            self.cycles[StallBucket::Other.index()] += total - attributed;
        }
    }

    /// Cycles charged to `bucket`.
    #[inline]
    pub fn get(&self, bucket: StallBucket) -> u64 {
        self.cycles[bucket.index()]
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for i in 0..StallBucket::COUNT {
            self.cycles[i] += other.cycles[i];
        }
    }

    /// Iterates `(bucket, cycles)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (StallBucket, u64)> + '_ {
        StallBucket::ALL.iter().map(move |&b| (b, self.cycles[b.index()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_match_all_order() {
        for (i, b) in StallBucket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }

    #[test]
    fn marks_tile_contiguously() {
        let mut tl = AccessTimeline::begin(Cycle::new(10));
        tl.mark(Cycle::new(15), StallBucket::TlbHit);
        tl.mark(Cycle::new(40), StallBucket::Cache);
        tl.mark(Cycle::new(90), StallBucket::DramService);
        let segs: Vec<_> = tl.segments().collect();
        assert_eq!(
            segs,
            vec![
                (10, 15, StallBucket::TlbHit),
                (15, 40, StallBucket::Cache),
                (40, 90, StallBucket::DramService)
            ]
        );
        assert_eq!(tl.end(), 90);
    }

    #[test]
    fn same_bucket_marks_merge_and_stale_marks_are_ignored() {
        let mut tl = AccessTimeline::begin(Cycle::new(0));
        tl.mark(Cycle::new(5), StallBucket::Cache);
        tl.mark(Cycle::new(9), StallBucket::Cache);
        tl.mark(Cycle::new(3), StallBucket::TlbWalk); // stale
        assert_eq!(tl.segments().count(), 1);
        assert_eq!(tl.end(), 9);
    }

    #[test]
    fn full_timeline_extends_last_segment() {
        let mut tl = AccessTimeline::begin(Cycle::new(0));
        for i in 0..MAX_TIMELINE_SEGS as u64 {
            let b = if i % 2 == 0 { StallBucket::Cache } else { StallBucket::TlbHit };
            tl.mark(Cycle::new(i + 1), b);
        }
        tl.mark(Cycle::new(100), StallBucket::Fault);
        assert_eq!(tl.end(), 100, "no cycles dropped when full");
        assert_eq!(tl.segments().count(), MAX_TIMELINE_SEGS);
    }

    #[test]
    fn attribution_is_exact_with_residual_in_other() {
        let mut tl = AccessTimeline::begin(Cycle::new(100));
        tl.mark(Cycle::new(110), StallBucket::TlbWalk);
        tl.mark(Cycle::new(150), StallBucket::DramQueue);
        let mut bd = StallBreakdown::default();
        // Stall window [105, 200): 5 walk + 40 queue + 50 uncovered.
        bd.attribute(&tl, Cycle::new(105), Cycle::new(200));
        assert_eq!(bd.get(StallBucket::TlbWalk), 5);
        assert_eq!(bd.get(StallBucket::DramQueue), 40);
        assert_eq!(bd.get(StallBucket::Other), 50);
        assert_eq!(bd.total(), 95);
    }

    #[test]
    fn seal_covers_to_completion() {
        let mut tl = AccessTimeline::single(Cycle::new(0), Cycle::new(10), StallBucket::Cache);
        tl.seal(Cycle::new(25));
        assert_eq!(tl.end(), 25);
        let mut empty = AccessTimeline::begin(Cycle::new(4));
        empty.seal(Cycle::new(6));
        assert_eq!(empty.segments().collect::<Vec<_>>(), vec![(4, 6, StallBucket::Other)]);
    }

    #[test]
    fn breakdown_merge_adds_per_bucket() {
        let mut a = StallBreakdown::default();
        a.add(StallBucket::Sync, 7);
        let mut b = StallBreakdown::default();
        b.add(StallBucket::Sync, 3);
        b.add(StallBucket::Fault, 1);
        a.merge(&b);
        assert_eq!(a.get(StallBucket::Sync), 10);
        assert_eq!(a.get(StallBucket::Fault), 1);
        assert_eq!(a.total(), 11);
    }
}
