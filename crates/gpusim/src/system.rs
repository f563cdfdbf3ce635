//! The assembled GPU memory system.
//!
//! [`GpuSystem`] implements [`MemoryInterface`]: every warp memory
//! instruction is charged for address translation (per-SM L1 TLB, shared
//! L2 TLB behind a port, highly-threaded page-table walker whose accesses
//! go through the shared L2 cache and DRAM), for the data access itself
//! (L1 cache, crossbar, L2 slice, DRAM bank/bus), and — on first touch —
//! for demand paging over the system I/O bus, via whichever memory
//! manager the run is configured with.

use crate::config::{DemandPagingMode, ManagerKind, RunConfig, SystemConfig};
use mosaic_core::{
    GpuMmuManager, ManagerStats, MemoryManager, MgmtEvent, MigratingManager, MosaicConfig,
    MosaicManager, PlacementMap, PlacementOutcome, MAX_GPUS,
};
use mosaic_gpu::MemoryInterface;
use mosaic_iobus::IoBus;
use mosaic_mem::{Cache, Crossbar, Dram, Interconnect};
use mosaic_sim_core::{Cycle, Histogram, Ratio, SimRng, ThroughputPort};
use mosaic_telemetry::{emit, AccessTimeline, Event, StallBucket};
use mosaic_vm::{
    AppId, PageSet, PageSize, PageTable, PageTableWalker, PhysAddr, Tlb, VirtAddr, VirtPageNum,
    WalkCache, BASE_PAGES_PER_LARGE_PAGE,
};

/// Cycles a fleet-wide TLB shootdown stalls the GPU (Figure 6a's "TLB
/// flush" segment): the whole-GPU fence a [`MgmtEvent::TlbShootdown`]
/// raises, and the teardown an evicting fault rides out before it
/// retries its allocation.
pub const TLB_FLUSH_STALL: u64 = 1_000;

/// Lookahead isolation window. The simulator advances SMs smallest-clock-
/// first, but a single warp access *looks ahead* when it blocks on a long
/// event (a far-fault, a deeply-queued walk): its downstream stages start
/// far beyond every other SM's clock. Charging stateful (monotonic) port
/// models at such future times would make earlier-time requests from other
/// SMs queue behind them — inverted order. Stages starting more than this
/// many cycles after the instruction issued are therefore charged nominal
/// uncontended latencies instead of perturbing shared port state.
const LOOKAHEAD_WINDOW: u64 = 10_000;

/// Whether a stage starting at `start`, for an instruction issued at
/// `issue_now`, is charged against contended port state: the one
/// [`LOOKAHEAD_WINDOW`] test.
fn within_window(issue_now: Cycle, start: Cycle) -> bool {
    start.since(issue_now) <= LOOKAHEAD_WINDOW
}

/// Pages pulled in sequentially behind each demand fault when the run is
/// oversubscribed (UVM-style prefetch). Prefetches ride the bus after the
/// demand transfer and never trigger eviction.
const PREFETCH_DEGREE: u64 = 4;

/// Aggregated end-of-run statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemStats {
    /// L1 TLB hit rate over all SMs (hits, total).
    pub l1_tlb_hits: u64,
    /// L1 TLB probes over all SMs.
    pub l1_tlb_total: u64,
    /// Shared L2 TLB hits.
    pub l2_tlb_hits: u64,
    /// Shared L2 TLB probes.
    pub l2_tlb_total: u64,
    /// Full page-table walks performed.
    pub walks: u64,
    /// Mean end-to-end walk latency in cycles.
    pub walk_latency_mean: f64,
    /// L1 data-cache hit rate.
    pub l1_cache_hit_rate: f64,
    /// Shared L2 cache hit rate.
    pub l2_cache_hit_rate: f64,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Far-faults (I/O-bus transfers).
    pub iobus_transfers: u64,
    /// Bytes moved over the I/O bus.
    pub iobus_bytes: u64,
    /// Mean cycles transfers waited for the bus (queueing only).
    pub iobus_queue_mean: f64,
    /// Worst bus-queueing wait in cycles.
    pub iobus_queue_max: u64,
    /// Mean pure transfer time (wire + fixed fault latency) in cycles.
    pub iobus_service_mean: f64,
    /// Worst pure transfer time in cycles.
    pub iobus_service_max: u64,
    /// Demand faults that re-touched a previously evicted page
    /// (thrashing indicator; only counted in oversubscribed runs).
    pub refaults: u64,
    /// Manager counters.
    pub manager: ManagerStats,
    /// Physical footprint at end of run (bytes).
    pub footprint_bytes: u64,
    /// Physical footprint of frames holding real application data
    /// (excludes pre-fragmentation-only frames).
    pub app_footprint_bytes: u64,
    /// Unique bytes touched by applications.
    pub touched_bytes: u64,
    /// Memory bloat (footprint / touched − 1).
    pub memory_bloat: f64,
    /// L1-missing warp accesses serviced by a remote device's memory
    /// (zero on a single GPU).
    pub remote_accesses: u64,
    /// Bytes carried over the inter-GPU interconnect (requests,
    /// responses, and page-copy payloads).
    pub interconnect_bytes: u64,
    /// Inter-GPU page migrations performed by the placement policy.
    pub fleet_migrations: u64,
    /// Read-only replications performed across devices.
    pub fleet_replications: u64,
    /// Bytes of migration + replication payload moved between devices.
    pub fleet_copy_bytes: u64,
}

impl SystemStats {
    /// L1 TLB hit fraction.
    pub fn l1_tlb_hit_rate(&self) -> f64 {
        if self.l1_tlb_total == 0 {
            1.0
        } else {
            self.l1_tlb_hits as f64 / self.l1_tlb_total as f64
        }
    }

    /// L2 TLB hit fraction.
    pub fn l2_tlb_hit_rate(&self) -> f64 {
        if self.l2_tlb_total == 0 {
            1.0
        } else {
            self.l2_tlb_hits as f64 / self.l2_tlb_total as f64
        }
    }
}

/// One GPU of the fleet (Figure 2, Table 1): the shared L2 TLB behind its
/// port, the highly-threaded page-table walker and its optional page-walk
/// cache, the SM-to-partition crossbar, the memory partitions and the
/// system I/O bus. The per-SM L1 TLBs and caches stay flat in
/// [`GpuSystem`], indexed by global SM id.
#[derive(Debug)]
struct Device {
    l2_tlb: Tlb,
    l2_tlb_port: ThroughputPort,
    walker: PageTableWalker,
    walk_cache: Option<WalkCache>,
    xbar: Crossbar,
    partitions: Partitions,
    iobus: IoBus,
}

/// A device's memory partitions: one shared L2 slice per DRAM channel,
/// each behind its access port, in front of the DRAM. Data and
/// page-table traffic share the slice ports — the contention that makes
/// page walks expensive under load.
#[derive(Debug)]
struct Partitions {
    l2_slices: Vec<Cache>,
    l2_ports: Vec<ThroughputPort>,
    dram: Dram,
}

impl Device {
    fn new(sys: &SystemConfig) -> Self {
        let channels = sys.dram.channels;
        Device {
            l2_tlb: Tlb::new(sys.l2_tlb),
            l2_tlb_port: ThroughputPort::pipelined(sys.l2_tlb.latency.max(1), 1),
            walker: PageTableWalker::new(sys.walker_threads),
            walk_cache: (sys.walk_cache_entries > 0)
                .then(|| WalkCache::new(sys.walk_cache_entries, 4)),
            xbar: Crossbar::new(sys.xbar),
            partitions: Partitions {
                l2_slices: (0..channels).map(|_| Cache::new(sys.l2_cache_slice)).collect(),
                l2_ports: (0..channels)
                    .map(|_| ThroughputPort::pipelined(sys.l2_cache_slice.latency.max(1), 2))
                    .collect(),
                dram: Dram::new(sys.dram),
            },
            iobus: IoBus::new(sys.iobus),
        }
    }

    /// Walks the page table for `vpn` (Figure 2: the walker's accesses go
    /// through this device's own L2$/DRAM — page tables are replicated
    /// per device), starting at `start` for an instruction issued at
    /// `issue_now`. Returns when the walk completes.
    fn walk(
        &mut self,
        issue_now: Cycle,
        start: Cycle,
        asid: AppId,
        vpn: VirtPageNum,
        path: [PhysAddr; 4],
    ) -> Cycle {
        let Device { walker, walk_cache, partitions, .. } = self;
        let out = walker.walk(start, asid, vpn, path, |level, pte, at| {
            // The page-walk cache holds upper-level PTEs only (as in
            // Power et al.): leaf PTEs are too numerous to cache there,
            // which is exactly why the paper's shared L2 TLB beats it.
            if level < 3 {
                if let Some(pwc) = walk_cache {
                    if pwc.access(pte) {
                        return at + pwc.latency();
                    }
                }
            }
            let slice = partitions.dram.channel_of(pte.raw());
            partitions.access(slice, at, pte, within_window(issue_now, at)).1
        });
        out.done
    }
}

impl Partitions {
    /// One line access to `addr`'s L2 slice (`slice`, its DRAM channel)
    /// starting at `start`, then
    /// DRAM on a miss: the stage the walker's PTE fetches and the data
    /// path share. Contended, it books the slice port and the DRAM banks
    /// and bus; otherwise it charges the nominal `latency()` and
    /// [`Dram::uncontended_latency`] without touching port state. Returns
    /// when the L2 slice answers, when the access completes, and the
    /// pure DRAM service cycles: whatever lies between the L2 answer and
    /// `done − service` is DRAM queueing (zero on a hit or when nominal).
    fn access(
        &mut self,
        slice: usize,
        start: Cycle,
        addr: PhysAddr,
        contended: bool,
    ) -> (Cycle, Cycle, u64) {
        let l2 = &mut self.l2_slices[slice];
        let l2_done =
            if contended { self.l2_ports[slice].acquire(start).done } else { start + l2.latency() };
        if l2.access(addr.raw(), false) {
            (l2_done, l2_done, 0)
        } else if contended {
            let (done, service, _row_hit) = self.dram.access_timed(l2_done, addr.raw());
            (l2_done, done, service)
        } else {
            let service = self.dram.uncontended_latency();
            (l2_done, l2_done + service, service)
        }
    }
}

/// Which level of the translation hierarchy supplied a translation; the
/// levels above it are filled on the way back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    L1Tlb,
    L2Tlb,
    Walk,
}

/// One warp memory instruction: when and where it issued. Every
/// transaction of the warp shares it.
#[derive(Debug, Clone, Copy)]
struct Issue {
    now: Cycle,
    sm: usize,
    gpu: usize,
    asid: AppId,
}

/// The full memory system of a simulated GPU fleet (one device in the
/// default configuration).
///
/// Per-SM structures (`l1_tlbs`, `l1_caches`) stay flat, indexed by the
/// *global* SM id (`gpu × sm_count + local_sm`); everything shared by a
/// GPU's SMs lives in its `Device`. A single [`MemoryManager`] governs
/// the fleet's pooled physical memory, while [`PlacementMap`] decides
/// which device a 2MB region physically resides on and [`Interconnect`]
/// charges the cross-device traffic.
#[derive(Debug)]
pub struct GpuSystem {
    cfg: RunConfig,
    manager: Box<dyn MemoryManager>,
    l1_tlbs: Vec<Tlb>,
    l1_caches: Vec<Cache>,
    devices: Vec<Device>,
    /// Which device owns (or replicates) each touched 2MB region.
    placement: PlacementMap,
    /// The inter-GPU link fabric (idle in single-GPU runs).
    interconnect: Interconnect,
    /// Whole-GPU stall fence accumulated from shootdown events; the
    /// runner drains it after every SM step.
    pending_stall: Cycle,
    /// Pages evicted and not yet refaulted (oversubscribed runs only);
    /// a demand fault hitting this set is thrashing evidence.
    evicted_pages: PageSet,
    /// Demand faults serviced (oversubscribed runs only).
    demand_faults: u64,
    /// Demand faults that re-touched an evicted page.
    refaults: u64,
}

impl GpuSystem {
    /// Builds the system for one run. Applies pre-fragmentation when the
    /// config asks for it (Mosaic only). A fleet of `n` GPUs weak-scales
    /// the machine: the manager pools `n ×` the per-device memory, and
    /// every per-device structure is replicated `n` times.
    ///
    /// # Panics
    ///
    /// Panics if [`MAX_GPUS`] devices of `cfg`'s memory size would hold
    /// addresses past a cache's [`tag_reach`](mosaic_mem::CacheConfig::tag_reach).
    pub fn new(cfg: RunConfig) -> Self {
        let sys = cfg.system;
        let gpus = cfg.fleet.gpus;
        // Caches keep 32-bit tags: check once that every frame of the
        // largest fleet this memory size can form is tagged exactly.
        let fleet_span = sys.memory_bytes.saturating_mul(MAX_GPUS as u64);
        for (name, cache) in [("L1", sys.l1_cache), ("L2 slice", sys.l2_cache_slice)] {
            assert!(
                fleet_span <= cache.tag_reach(),
                "{MAX_GPUS} x {} B of memory exceeds the {name} cache's 32-bit tag reach \
                 ({} B)",
                sys.memory_bytes,
                cache.tag_reach()
            );
        }
        let pool_bytes = sys.memory_bytes * gpus as u64;
        // GPU-MMU ignores `fragmentation`: pre-fragmented frames only
        // matter for large-frame allocation, which it does not attempt at
        // 4KB. (The 2MB variant is never run fragmented in the paper.)
        let manager: Box<dyn MemoryManager> = match cfg.manager {
            ManagerKind::GpuMmu4K => {
                Box::new(GpuMmuManager::new(pool_bytes, sys.dram.channels, PageSize::Base))
            }
            ManagerKind::GpuMmu2M => {
                Box::new(GpuMmuManager::new(pool_bytes, sys.dram.channels, PageSize::Large))
            }
            ManagerKind::Migrating(policy) => {
                Box::new(MigratingManager::new(pool_bytes, sys.dram.channels, policy))
            }
            ManagerKind::Mosaic(cac) => {
                let mut m = MosaicManager::new(MosaicConfig {
                    memory_bytes: pool_bytes,
                    channels: sys.dram.channels,
                    cac,
                });
                if let Some((index, occupancy)) = cfg.fragmentation {
                    let mut rng = SimRng::from_seed(cfg.seed).fork("fragmentation", 0);
                    let report = m.pre_fragment(index, occupancy, &mut rng);
                    assert_eq!(
                        report.shortfall(),
                        0,
                        "pre-fragmentation fell short: requested {} frames but the free list \
                         supplied only {} — this run's fragmentation index/occupancy exceeds \
                         the configured memory; its results would understate fragmentation",
                        report.requested_frames,
                        report.fragmented_frames
                    );
                }
                Box::new(m)
            }
        };
        GpuSystem {
            manager,
            l1_tlbs: (0..gpus * sys.sm_count).map(|_| Tlb::new(sys.l1_tlb)).collect(),
            l1_caches: (0..gpus * sys.sm_count).map(|_| Cache::new(sys.l1_cache)).collect(),
            devices: (0..gpus).map(|_| Device::new(&sys)).collect(),
            placement: PlacementMap::new(gpus, cfg.fleet.placement),
            interconnect: Interconnect::new(cfg.fleet.interconnect, gpus),
            pending_stall: Cycle::ZERO,
            evicted_pages: PageSet::new(),
            demand_faults: 0,
            refaults: 0,
            cfg,
        }
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Registers an application and its en-masse reservation.
    ///
    /// # Panics
    ///
    /// Panics if `asid`'s page-table nodes lie past the L2 slice's
    /// [`tag_reach`](mosaic_mem::CacheConfig::tag_reach).
    pub fn launch_app(&mut self, asid: AppId, start: VirtPageNum, pages: u64) {
        // The L2 slices tag this address space's page-table reads too.
        let reach = self.cfg.system.l2_cache_slice.tag_reach();
        assert!(
            PageTable::node_region_end(asid) <= reach,
            "{asid}'s page-table nodes lie past the L2 slice's 32-bit tag reach ({reach} B)"
        );
        self.manager.register_app(asid);
        self.manager.reserve(asid, start, pages);
        if self.cfg.paging == DemandPagingMode::PreloadedFree {
            // Everything becomes resident before cycle 0, free of charge.
            for i in 0..pages {
                self.manager
                    .touch(asid, VirtPageNum(start.raw() + i))
                    .expect("preload within reservation");
            }
        }
    }

    /// Every TLB in the fleet as `(level, index, tlb)`: the per-SM L1
    /// TLBs by global SM id, then each device's L2 TLB by GPU.
    fn tlbs(&self) -> impl Iterator<Item = (u8, usize, &Tlb)> {
        let l1 = self.l1_tlbs.iter().enumerate().map(|(sm, tlb)| (1, sm, tlb));
        l1.chain(self.devices.iter().enumerate().map(|(gpu, d)| (2, gpu, &d.l2_tlb)))
    }

    /// Every TLB in the fleet, in [`Self::tlbs`] order, for shootdowns.
    fn tlbs_mut(&mut self) -> impl Iterator<Item = &mut Tlb> {
        self.l1_tlbs.iter_mut().chain(self.devices.iter_mut().map(|d| &mut d.l2_tlb))
    }

    /// Deallocates pages on behalf of an application (kernel completion),
    /// applying splinter/compaction side effects at `now`. Placement
    /// forgets the spanned 2MB regions: the next touch re-establishes
    /// first-touch ownership. Compaction copies are charged to device 0
    /// (the pool's anchor device). Deallocating zero pages is a no-op.
    pub fn deallocate(&mut self, now: Cycle, asid: AppId, start: VirtPageNum, pages: u64) {
        if pages == 0 {
            return;
        }
        let events = self.manager.deallocate(asid, start, pages);
        // Unmapping requires invalidating the stale translations on every
        // SM (the runtime's unmap shootdown): both the base entries of
        // the freed pages and the large entries of the regions they
        // spanned.
        let first = start.large_page().raw();
        let last = VirtPageNum(start.raw() + pages - 1).large_page().raw();
        for tlb in self.tlbs_mut() {
            tlb.flush_base_range(asid, start, pages);
            for lpn in first..=last {
                tlb.flush_large(asid, mosaic_vm::LargePageNum(lpn).addr());
            }
        }
        if self.cfg.fleet.gpus > 1 {
            for lpn in first..=last {
                self.placement.remove(asid, mosaic_vm::LargePageNum(lpn));
            }
        }
        let _migrations_done = self.apply_events(now, &events, 0);
    }

    /// Takes (and clears) the pending whole-GPU stall fence, if any.
    pub fn take_pending_stall(&mut self) -> Option<Cycle> {
        if self.pending_stall == Cycle::ZERO {
            None
        } else {
            let s = self.pending_stall;
            self.pending_stall = Cycle::ZERO;
            Some(s)
        }
    }

    /// Applies management side effects; returns the cycle at which any
    /// triggered page migrations complete (allocations that depend on the
    /// compacted frames must wait for it). Shootdowns and flushes are
    /// fleet-wide (every device's TLBs drop the stale translations); DRAM
    /// page copies are charged to `gpu`'s channels.
    fn apply_events(&mut self, now: Cycle, events: &[MgmtEvent], gpu: usize) -> Cycle {
        let mut migrations_done = now;
        for e in events {
            match *e {
                MgmtEvent::Coalesced { .. } => {
                    // In-place coalescing: PTE-bit updates only; existing
                    // TLB entries stay valid (Section 4.3). Nothing to
                    // charge.
                }
                MgmtEvent::Splintered { asid, lpn } => {
                    // Flush the large-page entry from every TLB
                    // (Section 4.4).
                    let addr = lpn.addr();
                    for tlb in self.tlbs_mut() {
                        tlb.flush_large(asid, addr);
                    }
                }
                MgmtEvent::PageMigrated { channel, bulk, blocking } => {
                    let dram = &mut self.devices[gpu].partitions.dram;
                    let done = if bulk {
                        dram.bulk_page_copy(now, channel)
                    } else {
                        dram.narrow_page_copy(now, channel)
                    };
                    if blocking {
                        migrations_done = migrations_done.max(done);
                    }
                }
                MgmtEvent::TlbShootdown { asid, lpn } => {
                    // Targeted IPI-style shootdown: drop the region's base
                    // and large translations everywhere, then a brief
                    // synchronization stall.
                    emit(|| Event::Shootdown { asid: asid.0, lpn: lpn.raw(), cycle: now.as_u64() });
                    for tlb in self.tlbs_mut() {
                        tlb.flush_large(asid, lpn.addr());
                        tlb.flush_base_range(asid, lpn.base_page(0), BASE_PAGES_PER_LARGE_PAGE);
                    }
                    self.pending_stall = self.pending_stall.max(now + TLB_FLUSH_STALL);
                }
            }
        }
        migrations_done
    }

    /// Services a far-fault for `vpn` discovered at `now`; returns when
    /// the data is usable. Under oversubscription an out-of-memory touch
    /// evicts least-recently-used frames (teardown and write-back time
    /// land on `tl` as `Evict`/`Writeback`) and retries; each serviced
    /// fault then prefetches the next pages of the stream.
    fn handle_fault(
        &mut self,
        now: Cycle,
        gpu: usize,
        asid: AppId,
        vpn: VirtPageNum,
        tl: &mut AccessTimeline,
    ) -> Cycle {
        let oversubscribed = self.cfg.oversubscription.is_some();
        if oversubscribed {
            self.demand_faults += 1;
            if self.evicted_pages.remove(asid, vpn) {
                self.refaults += 1;
            }
        }
        let mut start = now;
        let mut evict_cycles = 0u64;
        let mut wb_cycles = 0u64;
        let outcome = loop {
            match self.manager.touch(asid, vpn) {
                Ok(o) => break o,
                Err(e) => {
                    if !oversubscribed {
                        panic!(
                            "memory manager {} failed at {vpn}: {e} (configure more memory or \
                             fragmentation headroom for this experiment)",
                            self.manager.name()
                        );
                    }
                    // Out of memory is the expected regime here: free a
                    // frame's worth and retry once the pressure is
                    // relieved. `evict_pressure` panics if nothing can be
                    // freed, which bounds this loop.
                    let (relieved, teardown, wb) =
                        self.evict_pressure(start, mosaic_vm::LARGE_PAGE_SIZE, gpu);
                    start = relieved;
                    evict_cycles += teardown;
                    wb_cycles += wb;
                }
            }
        };
        // If servicing this fault required compaction, the page's frame
        // only becomes usable once the migration copies finish. The I/O
        // transfer overlaps the migration (it is charged at fault time,
        // keeping the bus port's arrivals in order); the warp waits for
        // whichever finishes last.
        let migrations_done = self.apply_events(start, &outcome.events, gpu);
        let done = if outcome.transfer_bytes > 0 && self.cfg.paging == DemandPagingMode::OnDemand {
            self.devices[gpu].iobus.transfer(start, outcome.transfer_bytes).max(migrations_done)
        } else {
            migrations_done
        };
        // Attribute the tail of the wait to the eviction machinery: the
        // fault completed exactly `teardown + writeback` cycles later
        // than it would have without pressure, and the tail of a warp's
        // wait is what its SM's stall windows actually observe.
        let pressure = evict_cycles + wb_cycles;
        if pressure > 0 {
            tl.mark(Cycle::new(done.as_u64() - pressure), StallBucket::Fault);
            tl.mark(Cycle::new(done.as_u64() - wb_cycles), StallBucket::Evict);
            tl.mark(done, StallBucket::Writeback);
        }
        emit(|| Event::FarFault {
            asid: asid.0,
            vpn: vpn.raw(),
            cycle: now.as_u64(),
            done: done.as_u64(),
        });
        if oversubscribed {
            self.prefetch_after(done, gpu, asid, vpn);
        }
        done
    }

    /// Relieves memory pressure discovered at `now`: asks the manager to
    /// evict least-recently-used frames worth at least `bytes`, applies
    /// the TLB teardown (shootdowns flow through the usual event path),
    /// and writes dirty pages back over the I/O bus. Returns the cycle at
    /// which the freed memory is reusable, plus the teardown and
    /// write-back cycle counts for stall attribution.
    ///
    /// # Panics
    ///
    /// Panics if the manager has nothing left to evict — the live working
    /// set exceeds GPU memory even with demand paging.
    pub fn evict_pressure(&mut self, now: Cycle, bytes: u64, gpu: usize) -> (Cycle, u64, u64) {
        let outcome = self.manager.evict_for(bytes);
        assert!(
            !outcome.is_empty(),
            "memory manager {} is out of memory with nothing evictable (the live working set \
             exceeds GPU memory; raise memory or lower the oversubscription factor)",
            self.manager.name()
        );
        self.apply_events(now, &outcome.events, gpu);
        if mosaic_telemetry::enabled() {
            let mut per_region: std::collections::BTreeMap<(u16, u64), u32> =
                std::collections::BTreeMap::new();
            for &(asid, vpn) in &outcome.evicted {
                *per_region.entry((asid.0, vpn.large_page().raw())).or_insert(0) += 1;
            }
            for ((asid, lpn), pages) in per_region {
                emit(|| Event::PageEvict { asid, lpn, pages, cycle: now.as_u64() });
            }
        }
        for &(asid, vpn) in &outcome.evicted {
            self.evicted_pages.insert(asid, vpn);
        }
        // The faulting warp rides out the shootdown fence it just raised
        // before its allocation can retry.
        let teardown = now + TLB_FLUSH_STALL;
        let mut done = teardown;
        let mut wb_cycles = 0;
        if outcome.writeback_bytes > 0 {
            let wb = self.devices[gpu].iobus.transfer(done, outcome.writeback_bytes);
            emit(|| Event::PageWriteback {
                bytes: outcome.writeback_bytes,
                cycle: done.as_u64(),
                done: wb.as_u64(),
            });
            wb_cycles = wb.since(done);
            done = wb;
        }
        (done, TLB_FLUSH_STALL, wb_cycles)
    }

    /// UVM-style sequential prefetch behind a demand fault: pulls up to
    /// [`PREFETCH_DEGREE`] following pages of the same reservation,
    /// stopping at the reservation edge or any other manager refusal —
    /// prefetches never evict. Throttled off while refault churn says the
    /// run is thrashing, when speculative pull-ins only cause more
    /// evictions. Prefetch transfers occupy the bus after the demand
    /// transfer but do not extend the faulting warp's wait.
    fn prefetch_after(&mut self, done: Cycle, gpu: usize, asid: AppId, vpn: VirtPageNum) {
        if self.thrashing() {
            return;
        }
        for i in 1..=PREFETCH_DEGREE {
            let next = VirtPageNum(vpn.raw() + i);
            if self.manager.tables().table(asid).is_some_and(|t| t.is_mapped(next)) {
                continue;
            }
            match self.manager.touch(asid, next) {
                Ok(o) => {
                    self.evicted_pages.remove(asid, next);
                    let _ = self.apply_events(done, &o.events, gpu);
                    if o.transfer_bytes > 0 {
                        self.devices[gpu].iobus.transfer(done, o.transfer_bytes);
                    }
                }
                Err(_) => break,
            }
        }
    }

    /// Evict-then-refault churn check: more than a quarter of demand
    /// faults re-touching evicted pages marks the run as thrashing.
    fn thrashing(&self) -> bool {
        self.refaults * 4 > self.demand_faults
    }

    /// Deterministic store classification for dirty tracking, keyed on
    /// the *virtual* page so the classification survives migration and
    /// eviction; ~1/4 of pages are write targets.
    fn is_store(asid: AppId, vpn: VirtPageNum) -> bool {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in [u64::from(asid.0), vpn.raw()] {
            h = (h ^ w).wrapping_mul(0x100_0000_01b3);
        }
        h & 3 == 0
    }

    /// The translation of `addr`: its physical address and page size,
    /// or `None` when it is not mapped.
    fn translation(&self, asid: AppId, addr: VirtAddr) -> Option<(PhysAddr, PageSize)> {
        let t = self.manager.tables().table(asid)?.translate(addr).ok()?;
        Some((PhysAddr(t.frame.addr().raw() + addr.base_offset()), t.size))
    }

    /// The translation of `addr` for a caller that has just hit in a TLB
    /// (a cached translation is backed by a live mapping) or serviced the
    /// page's fault.
    fn resident(&self, asid: AppId, addr: VirtAddr) -> (PhysAddr, PageSize) {
        self.translation(asid, addr).expect("a TLB hit or serviced fault implies residency")
    }

    /// Translates `addr` for warp `w`, returning the cycle translation
    /// completes, the physical address, and whether a far-fault was taken
    /// (the data access then bypasses contended ports: its start time sits
    /// beyond every other SM's clock). Faults are resolved inline. The
    /// translation's cycles are recorded on `tl` (TLB hit vs. walk vs.
    /// fault) for stall attribution.
    fn translate(
        &mut self,
        w: Issue,
        addr: VirtAddr,
        tl: &mut AccessTimeline,
    ) -> (Cycle, PhysAddr, bool) {
        let vpn = addr.base_page();
        let ideal = self.cfg.system.ideal_tlb;
        let (mut ready, found, source) = if ideal {
            // Every request is an L1 TLB hit; only residency is enforced,
            // per base page: an unmapped page of a region that is still
            // coalesced faults although the region translates.
            let found = self.translation(w.asid, addr).filter(|&(_, size)| {
                size == PageSize::Base
                    || self.manager.tables().table(w.asid).is_some_and(|t| t.is_mapped(vpn))
            });
            (w.now, found, Source::L1Tlb)
        } else {
            self.lookup(w, addr, tl)
        };
        let faulted = found.is_none();
        let (phys, size) = match found {
            Some(found) => found,
            None => {
                ready = self.handle_fault(ready, w.gpu, w.asid, vpn, tl);
                tl.mark(ready, StallBucket::Fault);
                self.resident(w.asid, addr)
            }
        };
        if ideal {
            ready += 1;
            tl.mark(ready, StallBucket::TlbHit);
        }
        if source == Source::Walk {
            self.devices[w.gpu].l2_tlb.fill(w.asid, addr, size);
        }
        if source != Source::L1Tlb {
            self.l1_tlbs[w.sm].fill(w.asid, addr, size);
        }
        (ready, phys, faulted)
    }

    /// Looks `addr` up in the SM's L1 TLB, then the device's shared L2
    /// TLB behind its port, then walks the page table. Returns when the
    /// lookup completes, the translation (`None` when the walk found the
    /// page unmapped), and which level answered. TLB hits and the walk
    /// are recorded on `tl`.
    fn lookup(
        &mut self,
        w: Issue,
        addr: VirtAddr,
        tl: &mut AccessTimeline,
    ) -> (Cycle, Option<(PhysAddr, PageSize)>, Source) {
        // The SM's private L1 TLB.
        let l1 = &mut self.l1_tlbs[w.sm];
        let l1_done = w.now + l1.latency();
        let l1_hit = l1.lookup(w.asid, addr).is_hit();
        emit(|| Event::TlbLookup {
            level: 1,
            sm: w.sm as u32,
            asid: w.asid.0,
            cycle: w.now.as_u64(),
            hit: l1_hit,
        });
        if l1_hit {
            tl.mark(l1_done, StallBucket::TlbHit);
            return (l1_done, Some(self.resident(w.asid, addr)), Source::L1Tlb);
        }

        // The device's shared L2 TLB, behind its port. A zero-capacity L2
        // TLB (the page-walk-cache ablation's configuration) is skipped
        // entirely: misses go straight to the walker.
        let has_l2_tlb =
            self.cfg.system.l2_tlb.base_entries + self.cfg.system.l2_tlb.large_entries > 0;
        let dev = &mut self.devices[w.gpu];
        let l2_done = if has_l2_tlb { dev.l2_tlb_port.acquire(l1_done).done } else { l1_done };
        if has_l2_tlb {
            let l2_hit = dev.l2_tlb.lookup(w.asid, addr).is_hit();
            emit(|| Event::TlbLookup {
                level: 2,
                sm: w.sm as u32,
                asid: w.asid.0,
                cycle: l1_done.as_u64(),
                hit: l2_hit,
            });
            if l2_hit {
                tl.mark(l2_done, StallBucket::TlbHit);
                return (l2_done, Some(self.resident(w.asid, addr)), Source::L2Tlb);
            }
        }

        // Page walk. It may discover a not-present page: far-fault.
        let path = self.manager.tables().table(w.asid).expect("app registered").walk_path(addr);
        let done = dev.walk(w.now, l2_done, w.asid, addr.base_page(), path);
        tl.mark(done, StallBucket::TlbWalk);
        (done, self.translation(w.asid, addr), Source::Walk)
    }

    /// Region-granular (2 MB) store classification for placement.
    /// [`Self::is_store`] hashes per base page (~1/4 of pages), so any
    /// densely-touched region would be marked written almost immediately
    /// and `replicate-read-only` would never fire. Placement instead
    /// models buffers whose access type is uniform at region granularity:
    /// ~1/4 of 2 MB regions are write targets, the rest stay read-only.
    fn region_has_stores(asid: AppId, lpn: mosaic_vm::LargePageNum) -> bool {
        // Same FNV fold as `is_store`, over the region number plus a tag
        // so the two classifications stay statistically independent.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in [u64::from(asid.0), lpn.0, 0x2b00] {
            h = (h ^ w).wrapping_mul(0x100_0000_01b3);
        }
        h & 3 == 0
    }

    /// Resolves which device services an L1-missing access under the
    /// fleet's placement policy, charging interconnect time for remote
    /// requests and for migration/replication payloads (nominally when
    /// not `contended`). Returns the servicing device and the cycle the
    /// request is available there. Serial-path only: placement counters
    /// advance in heap order.
    fn place(
        &mut self,
        now: Cycle,
        contended: bool,
        w: Issue,
        addr: VirtAddr,
        tl: &mut AccessTimeline,
    ) -> (usize, Cycle) {
        let store = Self::region_has_stores(w.asid, addr.large_page());
        let icn = &mut self.interconnect;
        match self.placement.access(w.asid, addr.large_page(), w.gpu, store) {
            PlacementOutcome::Local => (w.gpu, now),
            PlacementOutcome::Remote { owner } => {
                let at = if contended {
                    icn.traverse(now, w.gpu, owner)
                } else {
                    icn.traverse_nominal(now, w.gpu, owner)
                };
                tl.mark(at, StallBucket::Remote);
                (owner, at)
            }
            PlacementOutcome::Migrate { from } | PlacementOutcome::Replicate { from } => {
                let bytes = mosaic_vm::LARGE_PAGE_SIZE;
                let at = if contended {
                    icn.transfer(now, from, w.gpu, bytes)
                } else {
                    icn.transfer_nominal(now, from, w.gpu, bytes)
                };
                tl.mark(at, StallBucket::Migrate);
                (w.gpu, at)
            }
        }
    }

    /// Charges the data access for `phys` from warp `w` starting at
    /// `start`, against contended port state or nominally (lookahead
    /// isolation). Cache and DRAM time is recorded on `tl`, with DRAM
    /// split into queueing vs. service. Past the private L1, a fleet run
    /// routes the access to whichever device the placement policy says
    /// owns the 2MB region.
    fn data_access(
        &mut self,
        w: Issue,
        start: Cycle,
        contended: bool,
        addr: VirtAddr,
        phys: PhysAddr,
        tl: &mut AccessTimeline,
    ) -> Cycle {
        let l1 = &mut self.l1_caches[w.sm];
        let l1_done = start + l1.latency();
        if l1.access(phys.raw(), false) {
            tl.mark(l1_done, StallBucket::Cache);
            return l1_done;
        }
        let (home, at_home) = if self.cfg.fleet.gpus > 1 {
            self.place(l1_done, contended, w, addr, tl)
        } else {
            (w.gpu, l1_done)
        };
        let dev = &mut self.devices[home];
        let slice = dev.partitions.dram.channel_of(phys.raw());
        let at_partition = if contended {
            dev.xbar.traverse(at_home, slice)
        } else {
            at_home + self.cfg.system.xbar.latency
        };
        let (l2_done, mut done, service) =
            dev.partitions.access(slice, at_partition, phys, contended);
        tl.mark(l2_done, StallBucket::Cache);
        // Whatever precedes the pure service portion is queueing.
        tl.mark(Cycle::new(done.as_u64().saturating_sub(service)), StallBucket::DramQueue);
        tl.mark(done, StallBucket::DramService);
        if home != w.gpu {
            // The response rides the interconnect back to the requester.
            done = if contended {
                self.interconnect.traverse(done, home, w.gpu)
            } else {
                self.interconnect.traverse_nominal(done, home, w.gpu)
            };
            tl.mark(done, StallBucket::Remote);
        }
        done
    }

    /// Sweeps the whole system's invariants into a fresh report: the
    /// manager's own audit (frame conservation, ownership agreement,
    /// coalesced-region geometry) plus TLB coherence — every cached
    /// translation, in every per-SM L1 TLB and the shared L2 TLB, must be
    /// backed by a live page-table entry of the matching page size.
    ///
    /// Side-effect free: audited and unaudited runs of the same seed are
    /// bit-identical. The runner calls this every `audit_every` cycles and
    /// panics on the first violation (see [`mosaic_sim_core::AuditReport`]).
    pub fn audit(&self) -> mosaic_sim_core::AuditReport {
        use std::fmt::Write as _;
        let mut report = mosaic_sim_core::AuditReport::new();
        self.manager.audit(&mut report);
        let tables = self.manager.tables();
        // One name buffer reused across the sweep: a clean audit performs
        // no per-TLB allocation (violation messages still format lazily).
        let mut name = String::new();
        for (level, index, tlb) in self.tlbs() {
            name.clear();
            let _ = write!(name, "l{level}-tlb[{index}]");
            Self::audit_tlb(&mut report, &name, tlb, tables);
        }
        // Placement ownership is unique by construction (one owner per
        // region; replicas never include the owner) — re-checked here so
        // a future policy cannot silently violate residency.
        for (asid, lpn, owner) in self.placement.placed() {
            report.check("placement", owner < self.cfg.fleet.gpus, || {
                format!("region {asid}/{lpn} owned by out-of-fleet device {owner}")
            });
        }
        report
    }

    /// Checks that every translation cached in `tlb` is backed by a live
    /// page-table entry of the matching page size.
    fn audit_tlb(
        report: &mut mosaic_sim_core::AuditReport,
        name: &str,
        tlb: &Tlb,
        tables: &mosaic_vm::PageTableSet,
    ) {
        for (asid, page, size) in tlb.entries() {
            match size {
                PageSize::Base => report.check(
                    name,
                    tables.table(asid).is_some_and(|t| t.is_mapped(VirtPageNum(page))),
                    || {
                        format!(
                            "caches a base translation for {asid} page {page:#x} \
                             with no live page-table entry"
                        )
                    },
                ),
                PageSize::Large => report.check(
                    name,
                    tables
                        .table(asid)
                        .is_some_and(|t| t.is_coalesced(mosaic_vm::LargePageNum(page))),
                    || {
                        format!(
                            "caches a large translation for {asid} region {page:#x} \
                             that is not coalesced in the page table"
                        )
                    },
                ),
            }
        }
    }

    /// Collects the end-of-run statistics. Per-device structures
    /// aggregate across the fleet (a fleet of one reduces to the single
    /// device's own counters exactly).
    pub fn stats(&self) -> SystemStats {
        let (mut l1_tlb, mut l2_tlb) = (Ratio::default(), Ratio::default());
        for (level, _, tlb) in self.tlbs() {
            if level == 1 { &mut l1_tlb } else { &mut l2_tlb }.merge(&tlb.hit_rate());
        }
        let mut l1_cache = Ratio::default();
        for c in &self.l1_caches {
            l1_cache.merge(&c.hit_rate());
        }
        let mut l2_cache = Ratio::default();
        let mut row_hits = Ratio::default();
        let mut walks = 0;
        let mut walk_latency = Histogram::default();
        let mut iobus_transfers = 0;
        let mut iobus_bytes = 0;
        let mut iobus_queue = Histogram::default();
        let mut iobus_service = Histogram::default();
        for d in &self.devices {
            for c in &d.partitions.l2_slices {
                l2_cache.merge(&c.hit_rate());
            }
            row_hits.merge(&d.partitions.dram.row_hit_rate());
            walks += d.walker.walks();
            walk_latency.merge(d.walker.latency());
            iobus_transfers += d.iobus.transfers();
            iobus_bytes += d.iobus.bytes();
            iobus_queue.merge(d.iobus.queue());
            iobus_service.merge(d.iobus.service());
        }
        let p = self.placement.stats();
        SystemStats {
            l1_tlb_hits: l1_tlb.hits(),
            l1_tlb_total: l1_tlb.total(),
            l2_tlb_hits: l2_tlb.hits(),
            l2_tlb_total: l2_tlb.total(),
            walks,
            walk_latency_mean: walk_latency.mean(),
            l1_cache_hit_rate: l1_cache.rate(),
            l2_cache_hit_rate: l2_cache.rate(),
            dram_row_hit_rate: row_hits.rate(),
            iobus_transfers,
            iobus_bytes,
            iobus_queue_mean: iobus_queue.mean(),
            iobus_queue_max: iobus_queue.max().unwrap_or(0),
            iobus_service_mean: iobus_service.mean(),
            iobus_service_max: iobus_service.max().unwrap_or(0),
            refaults: self.refaults,
            manager: self.manager.stats(),
            footprint_bytes: self.manager.footprint_bytes(),
            app_footprint_bytes: self.manager.app_footprint_bytes(),
            touched_bytes: self.manager.touched_bytes(),
            memory_bloat: self.manager.memory_bloat(),
            remote_accesses: p.remote_accesses,
            interconnect_bytes: self.interconnect.bytes(),
            fleet_migrations: p.migrations,
            fleet_replications: p.replications,
            fleet_copy_bytes: p.migrated_bytes + p.replicated_bytes,
        }
    }
}

impl MemoryInterface for GpuSystem {
    fn warp_access(&mut self, now: Cycle, sm: usize, asid: AppId, addresses: &[VirtAddr]) -> Cycle {
        let mut scratch = AccessTimeline::default();
        self.warp_access_timed(now, sm, asid, addresses, &mut scratch)
    }

    fn warp_access_timed(
        &mut self,
        now: Cycle,
        sm: usize,
        asid: AppId,
        addresses: &[VirtAddr],
        timeline: &mut AccessTimeline,
    ) -> Cycle {
        let w = Issue { now, sm, gpu: sm / self.cfg.system.sm_count, asid };
        let mut worst = now + 1;
        // SIMT lockstep: the warp waits for its slowest transaction, so
        // the slowest transaction's timeline is the one the stalled SM
        // is actually waiting on.
        *timeline = AccessTimeline::single(now, worst, StallBucket::Other);
        // Recency/dirty tracking only pays its way when eviction can
        // happen; fully-subscribed runs skip it (and stay digest-stable).
        let track_use = self.cfg.oversubscription.is_some();
        for &addr in addresses {
            let mut tl = AccessTimeline::begin(now);
            let (translated, phys, faulted) = self.translate(w, addr, &mut tl);
            if track_use {
                self.manager.note_use(phys.base_frame(), Self::is_store(asid, addr.base_page()));
            }
            // A post-fault data access starts beyond every other SM's
            // clock, so it is charged nominally, like any stage past the
            // lookahead window.
            let contended = !faulted && within_window(now, translated);
            let done = self.data_access(w, translated, contended, addr, phys, &mut tl);
            tl.seal(done);
            if done > worst {
                worst = done;
                *timeline = tl;
            }
        }
        timeline.seal(worst);
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_mem::Topology;
    use mosaic_vm::LargePageNum;
    use mosaic_workloads::ScaleConfig;

    fn small_cfg(manager: ManagerKind) -> RunConfig {
        RunConfig::new(manager).with_scale(ScaleConfig::smoke())
    }

    fn launched(manager: ManagerKind) -> GpuSystem {
        let mut sys = GpuSystem::new(small_cfg(manager));
        sys.launch_app(AppId(0), VirtPageNum(0), 2048);
        sys
    }

    /// The 32-bit cache tags' guard: eight devices of 2 TiB fill the
    /// paper L1's 16 TiB tag reach exactly; one more page per device is
    /// refused before anything is built.
    #[test]
    #[should_panic(expected = "exceeds the L1 cache's 32-bit tag reach")]
    fn memory_past_the_cache_tag_reach_is_refused() {
        let mut cfg = small_cfg(ManagerKind::GpuMmu4K);
        assert_eq!(MAX_GPUS as u64 * (2 << 40), cfg.system.l1_cache.tag_reach());
        cfg.system.memory_bytes = (2 << 40) + 4096;
        let _ = GpuSystem::new(cfg);
    }

    /// The last address space whose page-table nodes the paper L2
    /// slice's 85 TiB tag reach covers launches; the next is refused.
    #[test]
    fn address_spaces_past_the_l2_tag_reach_are_refused() {
        let reach = small_cfg(ManagerKind::GpuMmu4K).system.l2_cache_slice.tag_reach();
        let last = AppId(((reach - (1 << 40)) / (1 << 32) - 1) as u16);
        assert_eq!(last, AppId(21_503));
        assert_eq!(PageTable::node_region_end(last), reach);
        let mut sys = GpuSystem::new(small_cfg(ManagerKind::GpuMmu4K));
        sys.launch_app(last, VirtPageNum(0), 16);
        let next = AppId(last.0 + 1);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.launch_app(next, VirtPageNum(0), 16);
        }));
        assert!(refused.is_err(), "{next} lies past the tag reach");
    }

    /// The shared L2→DRAM stage: a nominal access costs the slice's
    /// hit latency plus DRAM's uncontended latency and books no port, so
    /// a contended access at the same start cycle afterwards completes
    /// exactly as it does on a fresh device. Had the first access been
    /// contended, the second (same slice, bank and row) would queue.
    #[test]
    fn nominal_partition_access_books_no_port() {
        let sys = small_cfg(ManagerKind::GpuMmu4K).system;
        let start = Cycle::new(1_000);
        let first = PhysAddr(0x4_0000);
        // The next line of the same DRAM channel: same slice, same row.
        let second = PhysAddr(first.raw() + sys.dram.line_size * sys.dram.channels as u64);
        let mut dev = Device::new(&sys);
        let slice = dev.partitions.dram.channel_of(first.raw());
        let nominal =
            dev.partitions.l2_slices[slice].latency() + dev.partitions.dram.uncontended_latency();
        let (_, done, _) = dev.partitions.access(slice, start, first, false);
        assert_eq!(done, start + nominal);
        let after_nominal = dev.partitions.access(slice, start, second, true);
        let on_fresh = Device::new(&sys).partitions.access(slice, start, second, true);
        assert_eq!(after_nominal, on_fresh);

        let mut booked = Device::new(&sys);
        booked.partitions.access(slice, start, first, true);
        assert!(booked.partitions.access(slice, start, second, true).1 > on_fresh.1);
    }

    #[test]
    fn first_touch_faults_then_hits() {
        let mut sys = launched(ManagerKind::GpuMmu4K);
        let addr = VirtAddr(0x1000);
        // Expected fault cost at this run's (scaled) I/O-bus calibration.
        let fault_us = sys.config().system.iobus.uncontended_latency(4096).as_micros();
        let fault_cycles = (fault_us * 1020.0) as u64;
        let first = sys.warp_access(Cycle::new(0), 0, AppId(0), &[addr]);
        assert!(
            first.as_u64() > fault_cycles / 2,
            "far-fault latency ≥ ~{fault_cycles} cycles, got {first}"
        );
        let second = sys.warp_access(first, 0, AppId(0), &[addr]);
        assert!(second - first < 20, "L1 TLB + L1$ hit after warm-up, got {}", second - first);
        assert_eq!(sys.stats().iobus_transfers, 1);
    }

    #[test]
    fn preloaded_mode_has_no_fault_cost() {
        let mut sys = GpuSystem::new(small_cfg(ManagerKind::GpuMmu4K).preloaded());
        sys.launch_app(AppId(0), VirtPageNum(0), 2048);
        let t = sys.warp_access(Cycle::new(0), 0, AppId(0), &[VirtAddr(0x1000)]);
        assert!(t.as_u64() < 2_000, "no I/O-bus transfer, got {t}");
        assert_eq!(sys.stats().iobus_transfers, 0);
    }

    #[test]
    fn ideal_tlb_skips_translation_latency() {
        let mut sys = GpuSystem::new(small_cfg(ManagerKind::GpuMmu4K).preloaded().ideal_tlb());
        sys.launch_app(AppId(0), VirtPageNum(0), 2048);
        // Cold data access: no TLB/walk charge, only L1$ miss path.
        let t = sys.warp_access(Cycle::new(0), 0, AppId(0), &[VirtAddr(0x200_000)]);
        assert!(t.as_u64() < 500, "no walk on the critical path, got {t}");
        assert_eq!(sys.stats().walks, 0);
        assert_eq!(sys.stats().l1_tlb_total, 0);
    }

    #[test]
    fn tlb_miss_walks_the_page_table() {
        let mut sys = GpuSystem::new(small_cfg(ManagerKind::GpuMmu4K).preloaded());
        sys.launch_app(AppId(0), VirtPageNum(0), 2048);
        sys.warp_access(Cycle::new(0), 0, AppId(0), &[VirtAddr(0)]);
        assert_eq!(sys.stats().walks, 1);
        assert!(sys.stats().walk_latency_mean > 0.0);
        // Walking again for a distant page: new walk.
        sys.warp_access(Cycle::new(1_000_000), 0, AppId(0), &[VirtAddr(4 << 20)]);
        assert_eq!(sys.stats().walks, 2);
    }

    #[test]
    fn mosaic_coalesced_page_fills_large_tlb_entry() {
        let mut sys = GpuSystem::new(small_cfg(ManagerKind::mosaic()).preloaded());
        sys.launch_app(AppId(0), VirtPageNum(0), 512); // exactly one chunk
                                                       // Preload coalesced it; the first access walks, then fills a LARGE
                                                       // entry, so a *different* base page of the same 2MB region hits in
                                                       // the L1 TLB immediately.
        let t0 = sys.warp_access(Cycle::new(0), 0, AppId(0), &[VirtAddr(0)]);
        let far = VirtAddr(511 * 4096);
        let t1 = sys.warp_access(t0, 0, AppId(0), &[far]);
        assert!(t1 - t0 < 400, "large-entry hit spares the walk, got {}", t1 - t0);
        assert_eq!(sys.stats().walks, 1);
    }

    #[test]
    fn splinter_event_flushes_large_entries() {
        let mut sys = GpuSystem::new(small_cfg(ManagerKind::mosaic()).preloaded());
        sys.launch_app(AppId(0), VirtPageNum(0), 512);
        sys.warp_access(Cycle::new(0), 0, AppId(0), &[VirtAddr(0)]); // fill large entry
                                                                     // Deallocate most of the chunk: splinter + compaction.
        sys.deallocate(Cycle::new(10_000), AppId(0), VirtPageNum(0), 500);
        assert!(sys.manager.stats().splinters >= 1);
        // The next access must walk again (large entry was flushed).
        let walks_before = sys.stats().walks;
        sys.warp_access(Cycle::new(20_000), 0, AppId(0), &[VirtAddr(510 * 4096)]);
        assert!(sys.stats().walks > walks_before);
    }

    #[test]
    fn compaction_never_raises_stall_fence() {
        let mut sys = GpuSystem::new(small_cfg(ManagerKind::mosaic()).preloaded());
        sys.launch_app(AppId(0), VirtPageNum(0), 4096);
        // Splintering chunk 0 finds no spare frame and donates its holes;
        // chunk 6 shares its DRAM channel, so its survivors compact into
        // them.
        sys.deallocate(Cycle::new(5_000), AppId(0), VirtPageNum(0), 400);
        sys.deallocate(Cycle::new(5_000), AppId(0), VirtPageNum(3072), 400);
        assert!(sys.manager.stats().migrations > 0, "the setup compacts");
        assert!(sys.take_pending_stall().is_none(), "compaction is priced by the copy engine");
    }

    #[test]
    fn shootdown_raises_stall_fence() {
        let mut sys = launched(ManagerKind::GpuMmu4K);
        assert!(sys.take_pending_stall().is_none());
        let shootdown = MgmtEvent::TlbShootdown { asid: AppId(0), lpn: LargePageNum(0) };
        sys.apply_events(Cycle::new(5_000), &[shootdown], 0);
        assert_eq!(sys.take_pending_stall(), Some(Cycle::new(5_000 + TLB_FLUSH_STALL)));
        assert!(sys.take_pending_stall().is_none(), "the first take drains the fence");
    }

    #[test]
    fn zero_page_deallocate_keeps_fleet_placement() {
        let cfg =
            small_cfg(ManagerKind::GpuMmu4K).preloaded().multi_gpu(2, Topology::FullyConnected);
        let mut sys = GpuSystem::new(cfg);
        sys.launch_app(AppId(0), VirtPageNum(0), 2048);
        // The first SM of GPU 1 touches region 0 first: GPU 1 owns it.
        let gpu1_sm = sys.config().system.sm_count;
        sys.warp_access(Cycle::new(0), gpu1_sm, AppId(0), &[VirtAddr(0)]);
        assert_eq!(sys.placement.owner(AppId(0), LargePageNum(0)), Some(1));
        sys.deallocate(Cycle::new(1_000), AppId(0), VirtPageNum(0), 0);
        assert_eq!(sys.placement.owner(AppId(0), LargePageNum(0)), Some(1), "no-op");
        sys.deallocate(Cycle::new(2_000), AppId(0), VirtPageNum(0), 1);
        assert_eq!(sys.placement.owner(AppId(0), LargePageNum(0)), None, "one page forgets it");
    }

    #[test]
    fn gpu_mmu_2mb_transfers_whole_large_pages() {
        let mut sys = launched(ManagerKind::GpuMmu2M);
        let large_us = sys.config().system.iobus.uncontended_latency(2 * 1024 * 1024).as_micros();
        let small_us = sys.config().system.iobus.uncontended_latency(4096).as_micros();
        // The paper's six-fold base-vs-large fault gap survives scaling
        // (bandwidth scales slower than latency, so the gap can widen but
        // never narrow below the paper's asymmetry).
        assert!(large_us / small_us >= 318.0 / 55.0 - 0.5, "{}", large_us / small_us);
        let done = sys.warp_access(Cycle::new(0), 0, AppId(0), &[VirtAddr(0x1000)]);
        assert!(done.as_u64() as f64 > large_us * 1020.0 * 0.5, "2MB far-fault, got {done}");
        assert_eq!(sys.stats().iobus_bytes, 2 * 1024 * 1024);
    }

    #[test]
    fn stats_aggregate_tlb_counters() {
        let mut sys = GpuSystem::new(small_cfg(ManagerKind::GpuMmu4K).preloaded());
        sys.launch_app(AppId(0), VirtPageNum(0), 64);
        sys.warp_access(Cycle::new(0), 0, AppId(0), &[VirtAddr(0)]);
        sys.warp_access(Cycle::new(100_000), 0, AppId(0), &[VirtAddr(0)]);
        let s = sys.stats();
        assert_eq!(s.l1_tlb_total, 2);
        assert_eq!(s.l1_tlb_hits, 1);
        assert!(s.l2_tlb_total >= 1);
    }
}
