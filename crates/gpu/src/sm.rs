//! The streaming multiprocessor (SM) model with GTO warp scheduling.
//!
//! Each SM owns a set of resident warps (its thread blocks' warps), issues
//! at most one warp instruction per cycle, and follows the
//! greedy-then-oldest policy of the paper's configuration (Table 1): keep
//! issuing from the current warp until it stalls, then switch to the
//! oldest ready warp. When no warp is ready the SM fast-forwards to the
//! earliest wake-up — those skipped cycles are the *stall cycles* that
//! TLB misses and far-faults inflate and that Mosaic claws back.

use crate::warp::{MemoryInterface, WarpOp, WarpStream};
use mosaic_sim_core::Cycle;
use mosaic_telemetry::{emit, AccessTimeline, Event, StallBreakdown, StallBucket};
use mosaic_vm::AppId;

/// SM parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmConfig {
    /// Resident warps per SM (warp slots across its thread blocks).
    pub warps: usize,
    /// Maximum instructions issued per [`Sm::advance`] call before
    /// returning control to the global scheduler (keeps SM clocks in
    /// lockstep with shared-resource contention).
    pub batch: usize,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig { warps: 32, batch: 8 }
    }
}

/// Per-SM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Warp instructions retired.
    pub instructions: u64,
    /// Memory instructions among them.
    pub memory_instructions: u64,
    /// Cycles with no warp ready to issue.
    pub stall_cycles: u64,
    /// Memory transactions issued (post-coalescing).
    pub transactions: u64,
    /// Exact decomposition of `stall_cycles` by cause: each stalled
    /// interval is attributed to the timeline of the warp whose wake-up
    /// ends it (the critical path), so the buckets always sum to
    /// `stall_cycles`.
    pub stall_breakdown: StallBreakdown,
}

#[derive(Debug)]
struct WarpCtx<S> {
    stream: S,
    ready_at: Cycle,
    finished: bool,
}

/// One streaming multiprocessor.
///
/// Drive it with [`Sm::advance`] from a loop that always advances the SM
/// with the smallest local clock; the SM is done when [`Sm::is_active`]
/// turns false.
///
/// The SM is generic over its warp-stream type. The default,
/// `Box<dyn WarpStream>`, accepts any mix of streams; callers on the hot
/// path (the full-system runner) instantiate `Sm<ConcreteStream>` instead
/// so `next_op` calls are static — no per-warp box, no vtable dispatch.
#[derive(Debug)]
pub struct Sm<S: WarpStream = Box<dyn WarpStream>> {
    id: usize,
    asid: AppId,
    config: SmConfig,
    warps: Vec<WarpCtx<S>>,
    /// Where the cycles of each warp's in-flight operation went, indexed
    /// like `warps`; consulted when an SM stall ends at that warp's
    /// wake-up. Kept out of `WarpCtx` so the scheduler's per-cycle scans
    /// over `warps` stay dense.
    timelines: Vec<AccessTimeline>,
    current: usize,
    now: Cycle,
    /// External stall barrier (e.g., worst-case compaction stalls): the SM
    /// may not issue before this cycle.
    fence: Cycle,
    /// Which bucket fence-induced stall cycles are charged to.
    fence_cause: StallBucket,
    stats: SmStats,
}

impl<S: WarpStream> Sm<S> {
    /// Creates an SM for application `asid` with the given warp streams.
    /// SMs with no warps start inactive.
    pub fn new(id: usize, asid: AppId, config: SmConfig, streams: Vec<S>) -> Self {
        let warps: Vec<_> = streams
            .into_iter()
            .map(|stream| WarpCtx { stream, ready_at: Cycle::ZERO, finished: false })
            .collect();
        let timelines = vec![AccessTimeline::default(); warps.len()];
        Sm {
            id,
            asid,
            config,
            warps,
            timelines,
            current: 0,
            now: Cycle::ZERO,
            fence: Cycle::ZERO,
            fence_cause: StallBucket::Sync,
            stats: SmStats::default(),
        }
    }

    /// Re-arms the SM with a new grid's warp streams, resetting the clock,
    /// fence, and statistics but keeping identity (`id`, `asid`) and the
    /// warp-slot allocation. Lets a multi-phase runner reuse its SMs
    /// instead of constructing a fresh vector per kernel phase.
    pub fn reload(&mut self, streams: impl IntoIterator<Item = S>) {
        self.warps.clear();
        self.warps.extend(streams.into_iter().map(|stream| WarpCtx {
            stream,
            ready_at: Cycle::ZERO,
            finished: false,
        }));
        self.timelines.clear();
        self.timelines.resize(self.warps.len(), AccessTimeline::default());
        self.current = 0;
        self.now = Cycle::ZERO;
        self.fence = Cycle::ZERO;
        self.fence_cause = StallBucket::Sync;
        self.stats = SmStats::default();
    }

    /// This SM's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The application this SM is partitioned to.
    pub fn asid(&self) -> AppId {
        self.asid
    }

    /// The SM's local clock.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// Whether any warp still has work.
    pub fn is_active(&self) -> bool {
        self.warps.iter().any(|w| !w.finished)
    }

    /// Stalls the SM until `until` (used for the conservative whole-GPU
    /// compaction stalls and baseline TLB-shootdown modelling), charging
    /// the stalled cycles to [`StallBucket::Sync`].
    pub fn stall_until(&mut self, until: Cycle) {
        self.stall_until_for(until, StallBucket::Sync);
    }

    /// Stalls the SM until `until`, charging the stalled cycles to
    /// `cause`. A fence that does not extend the current one keeps the
    /// existing cause.
    pub fn stall_until_for(&mut self, until: Cycle, cause: StallBucket) {
        if until > self.fence {
            self.fence = until;
            self.fence_cause = cause;
        }
    }

    /// GTO pick: the current warp if ready, else the oldest (lowest index)
    /// ready warp, else `None`.
    fn pick(&self) -> Option<usize> {
        let ready = |w: &WarpCtx<S>| !w.finished && w.ready_at <= self.now;
        if ready(&self.warps[self.current]) {
            return Some(self.current);
        }
        self.warps.iter().position(ready)
    }

    /// The unfinished warp with the earliest wake-up (first such index;
    /// its `ready_at` equals the minimum the old `next_wakeup` returned).
    fn next_wakeup_warp(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, w) in self.warps.iter().enumerate() {
            if w.finished {
                continue;
            }
            match best {
                Some(b) if self.warps[b].ready_at <= w.ready_at => {}
                _ => best = Some(i),
            }
        }
        best
    }

    /// Runs the SM for up to `config.batch` issued instructions (or one
    /// stall jump), charging memory operations to `mem`. Returns `true`
    /// while active.
    pub fn advance(&mut self, mem: &mut dyn MemoryInterface) -> bool {
        if !self.is_active() {
            return false;
        }
        if self.fence > self.now {
            let skipped = self.fence - self.now;
            self.stats.stall_cycles += skipped;
            self.stats.stall_breakdown.add(self.fence_cause, skipped);
            self.now = self.fence;
        }
        for _ in 0..self.config.batch {
            let Some(w) = self.pick() else {
                // Nothing ready: fast-forward to the next wake-up and
                // attribute the skipped interval to the waking warp's
                // timeline (the critical path that ends the stall).
                if let Some(i) = self.next_wakeup_warp() {
                    let wake = self.warps[i].ready_at;
                    if wake > self.now {
                        let skipped = wake - self.now;
                        self.stats.stall_cycles += skipped;
                        self.stats.stall_breakdown.attribute(&self.timelines[i], self.now, wake);
                        self.now = wake;
                    }
                    return true;
                }
                return false; // everyone finished
            };
            self.current = w;
            let op = self.warps[w].stream.next_op();
            match op {
                WarpOp::Compute { cycles } => {
                    self.stats.instructions += 1;
                    let ready = self.now + u64::from(cycles.max(1));
                    self.warps[w].ready_at = ready;
                    self.timelines[w] =
                        AccessTimeline::single(self.now, ready, StallBucket::Compute);
                    self.now += 1;
                }
                WarpOp::Memory { addresses } => {
                    self.stats.instructions += 1;
                    self.stats.memory_instructions += 1;
                    self.stats.transactions += addresses.len() as u64;
                    let done = mem.warp_access_timed(
                        self.now,
                        self.id,
                        self.asid,
                        &addresses,
                        &mut self.timelines[w],
                    );
                    debug_assert!(done >= self.now);
                    // SIMT lockstep: the warp waits for its slowest lane.
                    self.warps[w].ready_at = done;
                    emit(|| Event::WarpMem {
                        sm: self.id as u32,
                        asid: self.asid.0,
                        issue: self.now.as_u64(),
                        done: done.as_u64(),
                        transactions: addresses.len() as u32,
                    });
                    self.now += 1;
                }
                WarpOp::Exit => {
                    self.warps[w].finished = true;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{AddrList, FixedLatencyMemory};
    use mosaic_vm::VirtAddr;

    /// `n` compute ops then exit.
    #[derive(Debug)]
    struct ComputeN(u64);
    impl WarpStream for ComputeN {
        fn next_op(&mut self) -> WarpOp {
            if self.0 == 0 {
                WarpOp::Exit
            } else {
                self.0 -= 1;
                WarpOp::Compute { cycles: 1 }
            }
        }
    }

    /// Alternates memory and compute, `n` memory ops total.
    #[derive(Debug)]
    struct MemN(u64);
    impl WarpStream for MemN {
        fn next_op(&mut self) -> WarpOp {
            if self.0 == 0 {
                WarpOp::Exit
            } else {
                self.0 -= 1;
                WarpOp::Memory { addresses: AddrList::one(VirtAddr(self.0 * 128)) }
            }
        }
    }

    fn sm_with(streams: Vec<Box<dyn WarpStream>>) -> Sm {
        Sm::new(0, AppId(0), SmConfig { warps: streams.len(), batch: 8 }, streams)
    }

    #[test]
    fn single_compute_warp_is_ipc_1() {
        let mut sm = sm_with(vec![Box::new(ComputeN(100))]);
        let mut mem = FixedLatencyMemory { latency: 0 };
        while sm.advance(&mut mem) {}
        let end = sm.now();
        assert_eq!(sm.stats().instructions, 100);
        assert_eq!(end.as_u64(), 100);
    }

    #[test]
    fn memory_latency_stalls_single_warp() {
        let mut sm = sm_with(vec![Box::new(MemN(10))]);
        let mut mem = FixedLatencyMemory { latency: 100 };
        while sm.advance(&mut mem) {}
        let end = sm.now();
        // Each op: issue (1cy) then wait ~100: about 1000 cycles total.
        assert!(end.as_u64() >= 1000);
        assert!(sm.stats().stall_cycles > 900);
        assert_eq!(sm.stats().memory_instructions, 10);
    }

    #[test]
    fn tlp_hides_memory_latency() {
        // One warp: ~100 cycles per op. 32 warps: the SM interleaves them,
        // so total time is far less than 32x.
        let streams: Vec<Box<dyn WarpStream>> = (0..32).map(|_| Box::new(MemN(10)) as _).collect();
        let mut sm = sm_with(streams);
        let mut mem = FixedLatencyMemory { latency: 100 };
        while sm.advance(&mut mem) {}
        let end = sm.now();
        let single_warp_time = 1010;
        assert!(
            end.as_u64() < 2 * single_warp_time,
            "32 warps should overlap: {} cycles",
            end.as_u64()
        );
        assert_eq!(sm.stats().instructions, 320);
    }

    #[test]
    fn gto_prefers_current_warp() {
        // Two warps of compute: greedy keeps issuing warp 0 until it exits.
        #[derive(Debug)]
        struct Tagged(&'static str, u64, std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>);
        impl WarpStream for Tagged {
            fn next_op(&mut self) -> WarpOp {
                if self.1 == 0 {
                    WarpOp::Exit
                } else {
                    self.1 -= 1;
                    self.2.borrow_mut().push(self.0);
                    WarpOp::Compute { cycles: 1 }
                }
            }
        }
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let streams: Vec<Box<dyn WarpStream>> =
            vec![Box::new(Tagged("a", 3, log.clone())), Box::new(Tagged("b", 3, log.clone()))];
        let mut sm = sm_with(streams);
        let mut mem = FixedLatencyMemory { latency: 0 };
        while sm.advance(&mut mem) {}
        // With 1-cycle compute, warp 0 is always ready again by the next
        // cycle, so GTO never leaves it until exit.
        assert_eq!(&log.borrow()[..3], &["a", "a", "a"]);
    }

    #[test]
    fn stall_fence_blocks_issue() {
        let mut sm = sm_with(vec![Box::new(ComputeN(10))]);
        sm.stall_until(Cycle::new(500));
        let mut mem = FixedLatencyMemory { latency: 0 };
        while sm.advance(&mut mem) {}
        let end = sm.now();
        assert!(end.as_u64() >= 510);
        assert!(sm.stats().stall_cycles >= 500);
    }

    #[test]
    fn stall_breakdown_sums_exactly_to_stall_cycles() {
        let mut sm = sm_with(vec![Box::new(MemN(10)), Box::new(ComputeN(30))]);
        sm.stall_until(Cycle::new(100));
        let mut mem = FixedLatencyMemory { latency: 100 };
        while sm.advance(&mut mem) {}
        let stats = sm.stats();
        assert_eq!(stats.stall_breakdown.total(), stats.stall_cycles, "buckets tile every stall");
        assert_eq!(stats.stall_breakdown.get(StallBucket::Sync), 100, "fence charged to Sync");
        assert!(
            stats.stall_breakdown.get(StallBucket::Other) > 0,
            "mock memory waits charge Other"
        );
    }

    #[test]
    fn stall_until_for_charges_the_given_cause() {
        let mut sm = sm_with(vec![Box::new(ComputeN(5))]);
        sm.stall_until_for(Cycle::new(50), StallBucket::Shootdown);
        // A shorter fence afterwards neither moves the fence nor the cause.
        sm.stall_until(Cycle::new(10));
        let mut mem = FixedLatencyMemory { latency: 0 };
        while sm.advance(&mut mem) {}
        assert_eq!(sm.stats().stall_breakdown.get(StallBucket::Shootdown), 50);
        assert_eq!(sm.stats().stall_breakdown.total(), sm.stats().stall_cycles);
    }

    #[test]
    fn compute_waits_attribute_to_compute_bucket() {
        #[derive(Debug)]
        struct SlowCompute(u64);
        impl WarpStream for SlowCompute {
            fn next_op(&mut self) -> WarpOp {
                if self.0 == 0 {
                    WarpOp::Exit
                } else {
                    self.0 -= 1;
                    WarpOp::Compute { cycles: 40 }
                }
            }
        }
        let mut sm = sm_with(vec![Box::new(SlowCompute(5))]);
        let mut mem = FixedLatencyMemory { latency: 0 };
        while sm.advance(&mut mem) {}
        let stats = sm.stats();
        assert!(stats.stall_cycles > 0);
        assert_eq!(stats.stall_breakdown.get(StallBucket::Compute), stats.stall_cycles);
        assert_eq!(stats.stall_breakdown.total(), stats.stall_cycles);
    }

    #[test]
    fn monomorphized_sm_matches_boxed_sm() {
        // The same streams through Sm<ComputeN> (static dispatch) and the
        // default Sm (boxed) must behave identically.
        let mut mono =
            Sm::new(0, AppId(0), SmConfig { warps: 2, batch: 8 }, vec![ComputeN(50), ComputeN(50)]);
        let mut boxed = sm_with(vec![Box::new(ComputeN(50)), Box::new(ComputeN(50))]);
        let mut mem = FixedLatencyMemory { latency: 0 };
        while mono.advance(&mut mem) {}
        let end_mono = mono.now();
        while boxed.advance(&mut mem) {}
        let end_boxed = boxed.now();
        assert_eq!(end_mono, end_boxed);
        assert_eq!(mono.stats(), boxed.stats());
    }

    #[test]
    fn reload_rearms_for_a_new_phase() {
        let mut sm = Sm::new(3, AppId(1), SmConfig { warps: 1, batch: 8 }, vec![ComputeN(10)]);
        let mut mem = FixedLatencyMemory { latency: 0 };
        while sm.advance(&mut mem) {}
        assert!(!sm.is_active());
        assert_eq!(sm.stats().instructions, 10);

        sm.reload(vec![ComputeN(7), ComputeN(7)]);
        assert!(sm.is_active(), "reload rearms the SM");
        assert_eq!(sm.now(), Cycle::ZERO, "clock resets");
        assert_eq!(sm.stats(), SmStats::default(), "stats reset");
        assert_eq!(sm.id(), 3, "identity survives");
        assert_eq!(sm.asid(), AppId(1));
        while sm.advance(&mut mem) {}
        assert_eq!(sm.stats().instructions, 14);
    }

    #[test]
    fn empty_sm_is_inactive() {
        let mut sm = sm_with(vec![]);
        let mut mem = FixedLatencyMemory { latency: 0 };
        assert!(!sm.advance(&mut mem));
        assert!(!sm.is_active());
        assert_eq!((sm.now(), sm.stats().instructions), (Cycle::ZERO, 0));
    }

    #[test]
    fn transactions_count_divergence() {
        #[derive(Debug)]
        struct Divergent(bool);
        impl WarpStream for Divergent {
            fn next_op(&mut self) -> WarpOp {
                if self.0 {
                    self.0 = false;
                    WarpOp::Memory { addresses: (0..32).map(|i| VirtAddr(i * 4096)).collect() }
                } else {
                    WarpOp::Exit
                }
            }
        }
        let mut sm = sm_with(vec![Box::new(Divergent(true))]);
        let mut mem = FixedLatencyMemory { latency: 1 };
        while sm.advance(&mut mem) {}
        assert_eq!(sm.stats().transactions, 32);
        assert_eq!(sm.stats().memory_instructions, 1);
    }
}
