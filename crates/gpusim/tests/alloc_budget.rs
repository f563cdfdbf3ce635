//! Allocation budgets for building and running a machine.
//!
//! A counting global allocator tallies, per thread, every allocation and
//! its bytes. Two budgets hold:
//!
//! * `GpuSystem::new` for simbench's 4-GPU Ring fleet (its scale, both
//!   managers it runs) stays within a fixed number of allocations and
//!   bytes, so per-run set-up cannot silently grow back;
//! * an oversubscribed `run_workload`, whose manager evicts and re-tracks
//!   frames thousands of times, allocates each frame-state buffer at
//!   most once per large frame of the pool: a released frame's buffers
//!   are reused, never dropped and re-zeroed.
//!
//! Counters are thread-local, so the tests may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mosaic_gpusim::{run_workload, GpuSystem, ManagerKind, RunConfig, Topology};
use mosaic_vm::{AppId, BASE_PAGES_PER_LARGE_PAGE, BASE_PAGE_SIZE, LARGE_PAGE_SIZE};
use mosaic_workloads::{AppLayout, AppProfile, ScaleConfig, Workload};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Allocations shaped like one frame's 512-slot owner buffer.
    static OWNER_BUFFERS: Cell<u64> = const { Cell::new(0) };
}

fn owner_buffer() -> Layout {
    Layout::array::<Option<AppId>>(BASE_PAGES_PER_LARGE_PAGE as usize).expect("small layout")
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(layout: Layout) {
        // `try_with`: the counters may already be gone while a thread
        // tears down its other thread-locals.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        if layout == owner_buffer() {
            let _ = OWNER_BUFFERS.try_with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: delegates every operation to `System`, only counting calls.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(Layout::from_size_align(new_size, layout.align()).expect("valid layout"));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `(allocations, bytes, owner buffers)` made on this thread by `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64, u64) {
    let before = (ALLOCS.get(), BYTES.get(), OWNER_BUFFERS.get());
    let out = f();
    (out, ALLOCS.get() - before.0, BYTES.get() - before.1, OWNER_BUFFERS.get() - before.2)
}

/// simbench's scale: smoke working sets, 8 memory operations per warp.
fn simbench_scale() -> ScaleConfig {
    ScaleConfig { ws_divisor: 16, mem_ops_per_warp: 8, warps_per_sm: 6, phases: 1 }
}

/// Most allocations one 4-GPU `GpuSystem::new` may make.
const SYSTEM_NEW_ALLOCS: u64 = 831;
/// Most bytes one 4-GPU `GpuSystem::new` may allocate.
const SYSTEM_NEW_BYTES: u64 = 1_009_520;

#[test]
fn four_gpu_system_new_stays_within_its_budget() {
    for manager in [ManagerKind::GpuMmu4K, ManagerKind::mosaic()] {
        let cfg = RunConfig::new(manager).with_scale(simbench_scale()).multi_gpu(4, Topology::Ring);
        let (system, allocs, bytes, _) = counted(|| GpuSystem::new(cfg));
        drop(system);
        eprintln!("{}: {allocs} allocations, {bytes} bytes", manager.label());
        assert!(allocs <= SYSTEM_NEW_ALLOCS, "{}: {allocs} allocations", manager.label());
        assert!(bytes <= SYSTEM_NEW_BYTES, "{}: {bytes} bytes", manager.label());
    }
}

#[test]
fn oversubscribed_runs_reuse_frame_state_buffers() {
    let names = ["GUPS", "MM", "LUD"];
    let workload = Workload {
        name: names.join("-"),
        apps: names.iter().map(|n| AppProfile::by_name(n).expect("in the roster")).collect(),
    };
    let factor = 2.0;
    let cfg =
        RunConfig::new(ManagerKind::mosaic()).with_scale(simbench_scale()).oversubscribed(factor);
    // The pool the runner sizes: the reservation over the factor, in
    // whole large frames.
    let reserved: u64 = workload
        .apps
        .iter()
        .flat_map(|p| AppLayout::build(p, &cfg.scale).reservations())
        .map(|(_, pages)| pages * BASE_PAGE_SIZE)
        .sum();
    let pool_frames = ((reserved as f64 / factor).ceil() as u64).div_ceil(LARGE_PAGE_SIZE);
    let (result, allocs, _, owner_buffers) = counted(|| run_workload(&workload, cfg));
    let evictions = result.stats.manager.evictions;
    eprintln!(
        "{allocs} allocations, {owner_buffers} owner buffers, {pool_frames} frames, \
         {evictions} evicted pages"
    );
    assert!(evictions > 1_000, "the run must re-track frames: {evictions} evicted pages");
    assert!(
        owner_buffers <= pool_frames,
        "{owner_buffers} frame-state buffers for a pool of {pool_frames} frames"
    );
}
