//! Micro-calibration of the layers that run inside `warp_access`.
//!
//! Those layers cannot be timed from outside the program, so the traced
//! pass estimates their host time as `calls × ns/op`. Each ns/op comes
//! from driving the layer's public function in a tight loop whose
//! hit/miss mix matches what the traced pass measured for the workload
//! (TLB and cache hit fractions, DRAM row-hit fraction, the workload's
//! own applications for `next_op`). A loop is timed several times and the
//! median kept. The figures are estimates: they miss the cache and branch
//! state a real run leaves behind, which is why the traced pass reports
//! the residual next to them.

use mosaic_core::{
    GpuMmuManager, MemoryManager, MosaicConfig, MosaicManager, PlacementMap, PlacementPolicy,
};
use mosaic_gpu::{WarpOp, WarpStream};
use mosaic_iobus::{IoBus, IoBusConfig};
use mosaic_mem::{
    Cache, CacheConfig, Dram, DramConfig, Interconnect, InterconnectConfig, Topology,
};
use mosaic_sim_core::{Cycle, SimRng};
use mosaic_vm::{
    AppId, LargePageNum, PageSize, PageTableWalker, PhysAddr, Tlb, TlbConfig, VirtPageNum,
    LARGE_PAGE_SIZE,
};
use mosaic_workloads::{AppLayout, AppProfile, AppWarpStream, ScaleConfig};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per calibration loop (the median is kept).
const REPS: usize = 5;

/// The hit/miss mix a workload showed, which the loops reproduce.
#[derive(Debug, Clone)]
pub struct Shape {
    /// L1 TLB hit fraction.
    pub l1_tlb_hit: f64,
    /// L2 TLB hit fraction.
    pub l2_tlb_hit: f64,
    /// L1 data-cache hit fraction.
    pub l1_cache_hit: f64,
    /// L2 cache hit fraction.
    pub l2_cache_hit: f64,
    /// DRAM row-buffer hit fraction.
    pub row_hit: f64,
    /// The workload's applications with their retired instructions, which
    /// weight the `next_op` figure.
    pub apps: Vec<(&'static AppProfile, u64)>,
}

/// Calibrated host cost of one call, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NsPerOp {
    /// `Tlb::lookup` on the L1 TLB, filling on a miss.
    pub l1_tlb: f64,
    /// `Tlb::lookup` on the L2 TLB, filling on a miss.
    pub l2_tlb: f64,
    /// `Tlb::flush_base` on a full L1 TLB, as a shootdown issues it.
    pub tlb_flush: f64,
    /// `PageTableWalker::walk` (its memory accesses are charged to the
    /// caches and DRAM).
    pub walk: f64,
    /// `Cache::access` on an L1 data cache.
    pub l1_cache: f64,
    /// `Cache::access` on an L2 slice.
    pub l2_cache: f64,
    /// `Dram::access`.
    pub dram: f64,
    /// `MemoryManager::touch` of an unmapped page under GPU-MMU.
    pub touch_gpu_mmu: f64,
    /// `MemoryManager::touch` of an unmapped page under Mosaic.
    pub touch_mosaic: f64,
    /// `MemoryManager::evict_for` under GPU-MMU, per page evicted.
    pub evict_gpu_mmu: f64,
    /// `MemoryManager::evict_for` under Mosaic, per page evicted.
    pub evict_mosaic: f64,
    /// `IoBus::transfer`.
    pub iobus: f64,
    /// `PlacementMap::access`.
    pub placement: f64,
    /// `Interconnect::traverse` (one request or response flit).
    pub traverse: f64,
    /// `Interconnect::transfer` of one 2 MB page.
    pub transfer: f64,
    /// `AppWarpStream::next_op`, weighted by the workload's instructions.
    pub next_op: f64,
}

/// Median ns/op of `body` over [`REPS`] timed runs of `ops` operations;
/// `setup` builds fresh state for each run outside the timer.
fn median_ns<S>(ops: u64, mut setup: impl FnMut() -> S, mut body: impl FnMut(&mut S)) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = setup();
            let t = Instant::now();
            body(&mut state);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// A seeded stream of page numbers: a fraction `hit` from a small hot
/// set, the rest never seen before.
fn hot_cold_pages(hit: f64, n: u64, hot: u64, rng: &mut SimRng) -> Vec<u64> {
    (0..n).map(|i| if rng.unit() < hit { rng.below(hot) } else { hot + i }).collect()
}

fn tlb(config: TlbConfig, hit: f64, rng: &mut SimRng) -> f64 {
    let pages = hot_cold_pages(hit, 100_000, 16, rng);
    median_ns(
        pages.len() as u64,
        || {
            let mut tlb = Tlb::new(config);
            for p in 0..16 {
                tlb.fill(AppId(0), VirtPageNum(p).addr(), PageSize::Base);
            }
            tlb
        },
        |tlb| {
            for &p in &pages {
                let addr = VirtPageNum(p).addr();
                if !black_box(tlb.lookup(AppId(0), addr)).is_hit() {
                    tlb.fill(AppId(0), addr, PageSize::Base);
                }
            }
        },
    )
}

fn tlb_flush() -> f64 {
    // A shootdown flushes all 512 base pages of a region from every TLB,
    // most of them absent.
    let config = TlbConfig::paper_l1();
    let ops = 512 * 64;
    median_ns(
        ops,
        || {
            let mut tlb = Tlb::new(config);
            for p in 0..config.base_entries as u64 {
                tlb.fill(AppId(0), VirtPageNum(p * 7).addr(), PageSize::Base);
            }
            tlb
        },
        |tlb| {
            for p in 0..ops {
                black_box(tlb.flush_base(AppId(0), VirtPageNum(p).addr()));
            }
        },
    )
}

fn walker() -> f64 {
    // `mosaic-bench`'s micro/walker body: a rotating page set, so some
    // walks merge with one in flight and most are fresh.
    let path = [PhysAddr(0x1000), PhysAddr(0x2000), PhysAddr(0x3000), PhysAddr(0x4000)];
    let ops = 100_000u64;
    median_ns(
        ops,
        || PageTableWalker::new(64),
        |walker| {
            let mut now = Cycle::ZERO;
            for i in 0..ops {
                let vpn = VirtPageNum(i % 97);
                black_box(walker.walk(now, AppId(0), vpn, path, |_, _, start| start + 40));
                now += 3;
            }
        },
    )
}

fn cache(config: CacheConfig, hit: f64, rng: &mut SimRng) -> f64 {
    let lines = hot_cold_pages(hit, 100_000, 16, rng);
    median_ns(
        lines.len() as u64,
        || {
            let mut cache = Cache::new(config);
            for l in 0..16 {
                cache.access(l * config.line_size, false);
            }
            cache
        },
        |cache| {
            for &l in &lines {
                black_box(cache.access(l * config.line_size, false));
            }
        },
    )
}

fn dram(row_hit: f64, rng: &mut SimRng) -> f64 {
    let config = DramConfig::paper();
    let mut addr = 0u64;
    let addrs: Vec<u64> = (0..100_000)
        .map(|_| {
            addr = if rng.unit() < row_hit {
                // The next line of the same channel: same open row.
                addr + config.line_size * config.channels as u64
            } else {
                rng.below(3 << 30) / config.line_size * config.line_size
            };
            addr
        })
        .collect();
    median_ns(
        addrs.len() as u64,
        || Dram::new(config),
        |dram| {
            let mut now = Cycle::ZERO;
            for &a in &addrs {
                black_box(dram.access(now, a));
                now += 2;
            }
        },
    )
}

/// Frames of physical memory in the manager loops, and pages reserved.
const FRAMES: u64 = 16;
const PAGES: u64 = FRAMES * 512;

/// Builds a manager over the given bytes of memory.
type MakeManager = fn(u64) -> Box<dyn MemoryManager>;

fn gpu_mmu(bytes: u64) -> Box<dyn MemoryManager> {
    Box::new(GpuMmuManager::new(bytes, DramConfig::paper().channels, PageSize::Base))
}

fn mosaic(bytes: u64) -> Box<dyn MemoryManager> {
    Box::new(MosaicManager::new(MosaicConfig::with_memory(bytes)))
}

fn touch(make: MakeManager) -> f64 {
    median_ns(
        PAGES,
        || {
            let mut m = make(2 * FRAMES * LARGE_PAGE_SIZE);
            m.register_app(AppId(0));
            m.reserve(AppId(0), VirtPageNum(0), PAGES);
            m
        },
        |m| {
            for i in 0..PAGES {
                black_box(m.touch(AppId(0), VirtPageNum(i)).expect("memory holds the reservation"));
            }
        },
    )
}

fn evict(make: MakeManager) -> f64 {
    // Memory full of (partly dirty) pages, then evicted a large frame at a
    // time, as an oversubscribed fault does.
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut m = make(FRAMES * LARGE_PAGE_SIZE);
            m.register_app(AppId(0));
            m.reserve(AppId(0), VirtPageNum(0), 2 * PAGES);
            for i in 0..PAGES {
                let vpn = VirtPageNum(i);
                m.touch(AppId(0), vpn).expect("memory holds the pages");
                let frame = m.tables().table(AppId(0)).and_then(|t| t.translate(vpn.addr()).ok());
                if let Some(t) = frame {
                    m.note_use(t.frame, i % 4 == 0);
                }
            }
            let t = Instant::now();
            let mut evicted = 0u64;
            loop {
                let out = m.evict_for(LARGE_PAGE_SIZE);
                if out.is_empty() {
                    break;
                }
                evicted += out.evicted.len() as u64;
            }
            t.elapsed().as_nanos() as f64 / evicted.max(1) as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

fn iobus() -> f64 {
    let ops = 100_000u64;
    median_ns(
        ops,
        || IoBus::new(IoBusConfig::scaled(crate::jobs::scale().ws_divisor)),
        |bus| {
            for i in 0..ops {
                black_box(bus.transfer(Cycle::new(i * 500), 4096));
            }
        },
    )
}

fn placement(rng: &mut SimRng) -> f64 {
    let accesses: Vec<(u64, usize, bool)> =
        (0..100_000).map(|_| (rng.below(256), rng.below(4) as usize, rng.below(4) == 0)).collect();
    median_ns(
        accesses.len() as u64,
        || PlacementMap::new(4, PlacementPolicy::MigrateOnThreshold { threshold: 8 }),
        |map| {
            for &(lpn, gpu, store) in &accesses {
                black_box(map.access(AppId(0), LargePageNum(lpn), gpu, store));
            }
        },
    )
}

fn interconnect(bytes: Option<u64>) -> f64 {
    let ops = if bytes.is_some() { 2_000 } else { 100_000u64 };
    let config = InterconnectConfig { topology: Topology::Ring, ..InterconnectConfig::paper() };
    median_ns(
        ops,
        || Interconnect::new(config, 4),
        |icn| {
            for i in 0..ops {
                let (from, to) = ((i % 4) as usize, ((i + 1 + i / 4) % 4) as usize);
                let now = Cycle::new(i * 50);
                black_box(match bytes {
                    Some(b) => icn.transfer(now, from, to, b),
                    None => icn.traverse(now, from, to),
                });
            }
        },
    )
}

/// ns per `next_op` for one application's streams at benchmark scale.
fn next_op(profile: &'static AppProfile, scale: &ScaleConfig) -> f64 {
    let layout = AppLayout::build(profile, scale);
    let rng = SimRng::from_seed(7);
    let warps = 64u64;
    let mem_ops = scale.mem_ops_for(profile, warps);
    let mut ops = 0u64;
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut streams: Vec<AppWarpStream> = (0..warps)
                .map(|w| AppWarpStream::new(profile, &layout, w, warps, mem_ops, &rng))
                .collect();
            ops = 0;
            let t = Instant::now();
            for s in &mut streams {
                loop {
                    ops += 1;
                    if matches!(black_box(s.next_op()), WarpOp::Exit) {
                        break;
                    }
                }
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// Calibrates every layer for `shape`.
pub fn calibrate(shape: &Shape) -> NsPerOp {
    let mut rng = SimRng::from_seed(1);
    let scale = crate::jobs::scale();
    let total: u64 = shape.apps.iter().map(|&(_, instr)| instr).sum();
    let next_op = shape
        .apps
        .iter()
        .map(|&(p, instr)| next_op(p, &scale) * instr as f64 / total.max(1) as f64)
        .sum();
    NsPerOp {
        l1_tlb: tlb(TlbConfig::paper_l1(), shape.l1_tlb_hit, &mut rng),
        l2_tlb: tlb(TlbConfig::paper_l2(), shape.l2_tlb_hit, &mut rng),
        tlb_flush: tlb_flush(),
        walk: walker(),
        l1_cache: cache(CacheConfig::paper_l1(), shape.l1_cache_hit, &mut rng),
        l2_cache: cache(CacheConfig::paper_l2_slice(), shape.l2_cache_hit, &mut rng),
        dram: dram(shape.row_hit, &mut rng),
        touch_gpu_mmu: touch(gpu_mmu),
        touch_mosaic: touch(mosaic),
        evict_gpu_mmu: evict(gpu_mmu),
        evict_mosaic: evict(mosaic),
        iobus: iobus(),
        placement: placement(&mut rng),
        traverse: interconnect(None),
        transfer: interconnect(Some(LARGE_PAGE_SIZE)),
        next_op,
    }
}
