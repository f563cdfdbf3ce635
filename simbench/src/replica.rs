//! The traced pass: a replica of `mosaic_gpusim::run_workload`'s serial
//! per-phase loop, built only from public functions, with a timer around
//! every call that crosses a layer boundary.
//!
//! Nothing inside the simulator is instrumented. The replica times
//! `AppLayout::build` and `AppWarpStream::new` (workloads), `GpuSystem::new`
//! and `launch_app` (gpusim set-up), `Sm::advance` (gpu),
//! `GpuSystem::warp_access_timed` through a [`MemoryInterface`] wrapper,
//! and `GpuSystem::deallocate`. It returns the same [`RunResult`] the
//! runner would, so the caller can check the two agree before trusting
//! the per-layer figures.

use crate::jobs::Job;
use mosaic_gpu::{MemoryInterface, Sm, SmConfig};
use mosaic_gpusim::{sm_share, AppResult, GpuSystem, RunConfig, RunResult};
use mosaic_sim_core::{Cycle, SimRng};
use mosaic_telemetry::{AccessTimeline, StallBreakdown, StallBucket};
use mosaic_vm::{AppId, VirtAddr, VirtPageNum, BASE_PAGE_SIZE, LARGE_PAGE_SIZE};
use mosaic_workloads::{AppLayout, AppWarpStream};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Host time and call counts at each layer boundary of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `AppLayout::build` plus every `AppWarpStream::new` (with the
    /// `Sm::new`/`reload` that takes the streams).
    pub build: Duration,
    /// `GpuSystem::new` plus every `launch_app` (preload included).
    pub setup: Duration,
    /// `Sm::advance` calls.
    pub advance_calls: u64,
    /// Time in the smallest-clock-first loop that drives `Sm::advance`,
    /// `warp_access` and `deallocate` included. Timed per phase, not per
    /// call, so the timer's own cost stays off the SM layer.
    pub advance: Duration,
    /// `warp_access_timed` calls (warp memory instructions).
    pub access_calls: u64,
    /// Coalesced transactions those calls carried.
    pub txns: u64,
    /// Time inside `warp_access_timed`.
    pub access: Duration,
    /// `GpuSystem::deallocate` calls.
    pub dealloc_calls: u64,
    /// Time inside `GpuSystem::deallocate`.
    pub dealloc: Duration,
}

impl Spans {
    /// Adds `other`'s counts and times to this one.
    pub fn add(&mut self, other: &Spans) {
        self.build += other.build;
        self.setup += other.setup;
        self.advance_calls += other.advance_calls;
        self.advance += other.advance;
        self.access_calls += other.access_calls;
        self.txns += other.txns;
        self.access += other.access;
        self.dealloc_calls += other.dealloc_calls;
        self.dealloc += other.dealloc;
    }
}

/// The state a run builds before cycle 0, as `run_workload` builds it:
/// layouts first (an oversubscribed run sizes its memory from them), then
/// the system, then every application's reservations.
pub struct Setup {
    /// Per-application layouts, in workload order.
    pub layouts: Vec<AppLayout>,
    /// The launched system.
    pub system: GpuSystem,
    /// The configuration the system was built with.
    pub cfg: RunConfig,
    /// Time in `AppLayout::build`.
    pub build: Duration,
    /// Time in `GpuSystem::new` and `launch_app`.
    pub setup: Duration,
}

/// Builds and launches the system for `job`, timing each layer's share.
pub fn set_up(job: &Job) -> Setup {
    let t = Instant::now();
    let layouts: Vec<AppLayout> =
        job.workload.apps.iter().map(|p| AppLayout::build(p, &job.cfg.scale)).collect();
    let build = t.elapsed();
    let t = Instant::now();
    let mut cfg = job.cfg;
    if let Some(factor) = cfg.oversubscription {
        // The runner's sizing rule: reservation ÷ factor, rounded up to
        // whole large frames per device, at least one frame.
        let reserved: u64 = layouts
            .iter()
            .flat_map(|l| l.reservations())
            .map(|(_, pages)| pages * BASE_PAGE_SIZE)
            .sum();
        let target = (reserved as f64 / factor).ceil() as u64;
        let per_gpu = target.div_ceil(cfg.fleet.gpus as u64);
        cfg.system.memory_bytes = per_gpu.div_ceil(LARGE_PAGE_SIZE).max(1) * LARGE_PAGE_SIZE;
    }
    let mut system = GpuSystem::new(cfg);
    for (i, layout) in layouts.iter().enumerate() {
        for (start, pages) in layout.reservations() {
            system.launch_app(AppId(i as u16), start, pages);
        }
    }
    Setup { layouts, system, cfg, build, setup: t.elapsed() }
}

/// Times every `warp_access_timed` call that passes through it.
struct TimedMemory<'a> {
    system: &'a mut GpuSystem,
    spans: &'a mut Spans,
}

impl MemoryInterface for TimedMemory<'_> {
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
        let t = Instant::now();
        let done = self.system.warp_access_timed(now, sm, asid, addresses, timeline);
        self.spans.access += t.elapsed();
        self.spans.access_calls += 1;
        self.spans.txns += addresses.len() as u64;
        done
    }
}

/// Runs `job` through the replica loop and returns its result with the
/// spans recorded along the way.
pub fn run_traced(job: &Job) -> (RunResult, Spans) {
    let workload = &job.workload;
    let n = workload.app_count();
    let Setup { layouts, mut system, cfg, build, setup } = set_up(job);
    let mut spans = Spans { build, setup, ..Spans::default() };
    let total_sms = cfg.total_sms();
    let root = SimRng::from_seed(cfg.seed);
    let phases = cfg.scale.phases.max(1);
    let mut phase_start = Cycle::ZERO;
    let mut instructions = vec![0u64; n];
    let mut cycles = vec![0u64; n];
    let mut stall_cycles = vec![0u64; n];
    let mut stall = vec![StallBreakdown::default(); n];
    let mut total_cycles = 0u64;
    let mut sms: Vec<Sm<AppWarpStream>> = Vec::with_capacity(total_sms);
    let mut heap: BinaryHeap<(Reverse<Cycle>, usize)> = BinaryHeap::with_capacity(total_sms);

    for phase in 0..phases {
        let t = Instant::now();
        let app_rngs: Vec<SimRng> = (0..n as u64)
            .map(|app| root.fork("app-instance", app).fork("phase", u64::from(phase)))
            .collect();
        let mut per_app_sm_seen = vec![0u64; n];
        for sm_id in 0..total_sms {
            let app = sm_id % n;
            let profile = workload.apps[app];
            let share = sm_share(total_sms, n, app) as u64;
            let total_warps = share * cfg.scale.warps_per_sm as u64;
            let ordinal = per_app_sm_seen[app];
            per_app_sm_seen[app] += 1;
            let mem_ops = cfg.scale.mem_ops_for(profile, total_warps);
            let streams = (0..cfg.scale.warps_per_sm as u64).map(|w| {
                let warp = ordinal * cfg.scale.warps_per_sm as u64 + w;
                AppWarpStream::new(
                    profile,
                    &layouts[app],
                    warp,
                    total_warps,
                    mem_ops,
                    &app_rngs[app],
                )
            });
            let sm = match sms.get_mut(sm_id) {
                Some(sm) => {
                    sm.reload(streams);
                    sm
                }
                None => {
                    let config = SmConfig { warps: cfg.scale.warps_per_sm, batch: 8 };
                    sms.push(Sm::new(sm_id, AppId(app as u16), config, streams.collect()));
                    &mut sms[sm_id]
                }
            };
            sm.stall_until(phase_start);
        }
        spans.build += t.elapsed();

        heap.clear();
        heap.extend((0..sms.len()).map(|i| (Reverse(Cycle::ZERO), i)));
        let mut active: Vec<usize> = (0..n).map(|i| sm_share(total_sms, n, i)).collect();
        let sched = Instant::now();
        while let Some((_, idx)) = heap.pop() {
            let still_active =
                sms[idx].advance(&mut TimedMemory { system: &mut system, spans: &mut spans });
            spans.advance_calls += 1;
            if let Some(fence) = system.take_pending_stall() {
                for sm in sms.iter_mut() {
                    sm.stall_until_for(fence, StallBucket::Shootdown);
                }
            }
            if still_active {
                heap.push((Reverse(sms[idx].now()), idx));
                continue;
            }
            let app = sms[idx].asid().0 as usize;
            active[app] -= 1;
            if active[app] > 0 {
                continue;
            }
            let (now, asid) = (sms[idx].now(), sms[idx].asid());
            let regions = if phase + 1 == phases {
                layouts[app].reservations()
            } else {
                // Intermediate kernel: only the scratch half of the main
                // buffer goes.
                let pages = layouts[app].main_bytes / BASE_PAGE_SIZE;
                let start = VirtPageNum(layouts[app].main_base.base_page().raw() + pages / 2);
                vec![(start, pages - pages / 2)]
            };
            for (start, pages) in regions {
                let t = Instant::now();
                system.deallocate(now, asid, start, pages);
                spans.dealloc += t.elapsed();
                spans.dealloc_calls += 1;
            }
        }
        spans.advance += sched.elapsed();

        for (i, cycles) in cycles.iter_mut().enumerate() {
            *cycles = 0;
            for s in sms.iter().filter(|s| s.asid().0 as usize == i) {
                let st = s.stats();
                instructions[i] += st.instructions;
                stall_cycles[i] += st.stall_cycles;
                stall[i].merge(&st.stall_breakdown);
                *cycles = (*cycles).max(s.now().as_u64());
            }
        }
        let phase_end = sms.iter().map(|s| s.now()).max().unwrap_or(phase_start);
        total_cycles = phase_end.as_u64();
        phase_start = phase_end;
    }

    let apps = workload
        .apps
        .iter()
        .enumerate()
        .map(|(i, p)| AppResult {
            name: p.name.to_string(),
            asid: i as u16,
            instructions: instructions[i],
            cycles: cycles[i],
            ipc: if cycles[i] == 0 { 0.0 } else { instructions[i] as f64 / cycles[i] as f64 },
            stall_cycles: stall_cycles[i],
            stall: stall[i],
        })
        .collect();
    let manager = if cfg.system.ideal_tlb {
        "Ideal TLB".to_string()
    } else {
        cfg.manager.label().to_string()
    };
    let result = RunResult {
        workload: workload.name.clone(),
        manager,
        apps,
        stats: system.stats(),
        total_cycles,
    };
    (result, spans)
}

/// Where a replica result first differs from the runner's, or `None`
/// when they agree exactly (cycles, per-app instructions and IPC, stall
/// buckets, and every `SystemStats` field).
pub fn disagreement(replica: &RunResult, runner: &RunResult) -> Option<String> {
    if replica == runner {
        return None;
    }
    if replica.total_cycles != runner.total_cycles {
        return Some(format!("total cycles {} vs {}", replica.total_cycles, runner.total_cycles));
    }
    for (a, b) in replica.apps.iter().zip(&runner.apps) {
        if a != b {
            return Some(format!("app {}: {a:?} vs {b:?}", a.name));
        }
    }
    if replica.stats != runner.stats {
        return Some(format!("system stats: {:?} vs {:?}", replica.stats, runner.stats));
    }
    Some(format!("labels or app count: {replica:?} vs {runner:?}"))
}
