//! Workload execution and the weighted-speedup metric.
//!
//! SMs are partitioned equally across the concurrently-executing
//! applications (Section 5), each SM is populated with warps drawing from
//! the application's synthetic instruction streams, and the simulation
//! advances the SM with the smallest local clock first so shared-resource
//! contention (L2 TLB, walker, DRAM, I/O bus) is observed in near-global
//! order. When an application's last warp retires, its memory is
//! deallocated — which is what drives CAC activity in long multi-app
//! runs.

use crate::config::{DemandPagingMode, ManagerKind, RunConfig};
use crate::system::{GpuSystem, SystemStats};
use mosaic_gpu::{Sm, SmConfig};
use mosaic_sim_core::{Cycle, SimRng};
use mosaic_telemetry::{emit, Event, StallBreakdown, StallBucket};
use mosaic_vm::AppId;
use mosaic_workloads::{AppLayout, AppWarpStream, Workload};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Cycles between periodic `Epoch` metric-snapshot events when tracing
/// is enabled (cadenced on SM local clocks; disabled runs never check).
const EPOCH_EVERY: u64 = 100_000;

/// Per-application outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppResult {
    /// Application name (profile abbreviation).
    pub name: String,
    /// Its address space in this run.
    pub asid: u16,
    /// Warp instructions retired across its SMs.
    pub instructions: u64,
    /// Cycles until its last SM finished.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Stall cycles summed over the app's SMs (all phases).
    pub stall_cycles: u64,
    /// Exact decomposition of `stall_cycles` by cause, merged over the
    /// app's SMs and phases (buckets always sum to `stall_cycles`).
    pub stall: StallBreakdown,
}

/// Outcome of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload display name.
    pub workload: String,
    /// Manager label: [`RunConfig::manager_label`].
    pub manager: String,
    /// Per-application results, in workload order.
    pub apps: Vec<AppResult>,
    /// End-of-run system statistics.
    pub stats: SystemStats,
    /// Cycle at which the whole workload finished.
    pub total_cycles: u64,
}

// The sweep executor ships `(Workload, RunConfig)` jobs to worker threads
// and collects `RunResult`s back; keep these types thread-portable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RunConfig>();
    assert_send_sync::<RunResult>();
    assert_send_sync::<AppResult>();
    assert_send_sync::<Workload>();
};

/// Number of SMs application `i` of `n` receives out of `total` (equal
/// partition, remainder to the earliest applications).
pub fn sm_share(total: usize, n: usize, i: usize) -> usize {
    total / n + usize::from(i < total % n)
}

/// Runs one workload under `cfg` and returns per-application IPC plus
/// system statistics.
///
/// # Panics
///
/// Panics if the workload is empty or has more applications than SMs.
pub fn run_workload(workload: &Workload, cfg: RunConfig) -> RunResult {
    let n = workload.app_count();
    // Weak scaling: a fleet of `g` GPUs fields `g × sm_count` SMs (and
    // `g ×` the physical memory, applied by `GpuSystem::new`).
    let total_sms = cfg.total_sms();
    assert!(n >= 1, "empty workload");
    assert!(n <= total_sms, "more applications than SMs");

    // Layouts come first: under oversubscription the GPU's memory size is
    // derived from the workload's total reservation, so the system cannot
    // be built until the reservations are known.
    let layouts: Vec<AppLayout> =
        workload.apps.iter().map(|p| AppLayout::build(p, &cfg.scale)).collect();
    let mut cfg = cfg;
    if let Some(factor) = cfg.oversubscription {
        assert!(
            cfg.paging == DemandPagingMode::OnDemand,
            "oversubscription requires on-demand paging (preloading cannot exceed memory)"
        );
        assert!(factor >= 1.0, "oversubscription factor must be >= 1.0, got {factor}");
        let reserved_bytes: u64 = layouts
            .iter()
            .flat_map(|l| l.reservations())
            .map(|(_, pages)| pages * mosaic_vm::BASE_PAGE_SIZE)
            .sum();
        // Memory = reservation ÷ factor, rounded *up* to whole large
        // frames with a one-frame floor so the pool is never empty. The
        // target is the *fleet* total, so each device gets its share
        // (GpuSystem pools `gpus ×` the per-device size back together).
        let target = (reserved_bytes as f64 / factor).ceil() as u64;
        let per_gpu = target.div_ceil(cfg.fleet.gpus as u64);
        cfg.system.memory_bytes =
            per_gpu.div_ceil(mosaic_vm::LARGE_PAGE_SIZE).max(1) * mosaic_vm::LARGE_PAGE_SIZE;
    }
    let mut system = GpuSystem::new(cfg);
    let root = SimRng::from_seed(cfg.seed);
    for (i, layout) in layouts.iter().enumerate() {
        let asid = AppId(i as u16);
        for (start, pages) in layout.reservations() {
            system.launch_app(asid, start, pages);
        }
    }

    // Each kernel phase rebuilds the warps (a new grid) and, on the
    // non-final phases, deallocates the application's scratch region (the
    // second half of its main buffer) when its kernel finishes — the
    // between-kernels deallocation that drives CAC (Section 4.4).
    let phases = cfg.scale.phases.max(1);
    let mut phase_start = Cycle::ZERO;
    let mut instr_per_app = vec![0u64; n];
    let mut cycles_per_app = vec![0u64; n];
    let mut stall_cycles_per_app = vec![0u64; n];
    let mut stall_per_app = vec![StallBreakdown::default(); n];
    let mut total_cycles = 0u64;
    // Epoch snapshot cadence (trace-only; the counter is not consulted
    // when tracing is off, so disabled runs skip this entirely).
    let mut next_epoch = EPOCH_EVERY;

    // Runtime invariant auditing (side-effect free, so audited and
    // unaudited runs of the same seed stay bit-identical). On by default
    // in debug builds; opt-in per run (`--audit`) in release.
    let audit_every = cfg.effective_audit_every();
    let mut next_audit = audit_every.unwrap_or(0);
    if audit_every.is_some() {
        system.audit().assert_clean("after launch");
    }

    // The SM vector and scheduling heap survive across phases: phase 0
    // populates them, later phases `reload` in place. SMs are
    // monomorphized over `AppWarpStream` so warp issue is static dispatch
    // with no per-warp box.
    let mut sms: Vec<Sm<AppWarpStream>> = Vec::with_capacity(total_sms);
    let mut heap: BinaryHeap<(Reverse<Cycle>, usize)> = BinaryHeap::with_capacity(total_sms);

    for phase in 0..phases {
        // Partition SMs and build their warps for this phase's grid. The
        // per-application RNG is forked once per (app, phase) — every SM
        // of the same app derives the same fork, so hoisting it out of
        // the SM loop is digest-neutral.
        let app_rngs: Vec<SimRng> = (0..n as u64)
            .map(|app| root.fork("app-instance", app).fork("phase", u64::from(phase)))
            .collect();
        let mut per_app_sm_seen = vec![0u64; n];
        for sm_id in 0..total_sms {
            let app = sm_id % n;
            let profile = workload.apps[app];
            let asid = AppId(app as u16);
            let share = sm_share(total_sms, n, app) as u64;
            let total_warps = share * cfg.scale.warps_per_sm as u64;
            let sm_ordinal = per_app_sm_seen[app];
            per_app_sm_seen[app] += 1;
            let mem_ops = cfg.scale.mem_ops_for(profile, total_warps);
            let app_rng = &app_rngs[app];
            let streams = (0..cfg.scale.warps_per_sm as u64).map(|w| {
                let warp_idx = sm_ordinal * cfg.scale.warps_per_sm as u64 + w;
                AppWarpStream::new(profile, &layouts[app], warp_idx, total_warps, mem_ops, app_rng)
            });
            let sm = match sms.get_mut(sm_id) {
                Some(sm) => {
                    sm.reload(streams);
                    sm
                }
                None => {
                    let config = SmConfig { warps: cfg.scale.warps_per_sm, batch: 8 };
                    sms.push(Sm::new(sm_id, asid, config, streams.collect()));
                    &mut sms[sm_id]
                }
            };
            // Later phases start where the previous grid left off.
            sm.stall_until(phase_start);
        }
        emit(|| Event::PhaseBegin { phase, cycle: phase_start.as_u64() });

        // Smallest-clock-first scheduling loop. The SM at the top is
        // advanced in place: an active SM's key is rewritten through
        // `PeekMut` (one sift-down instead of a pop and a push), and only
        // a finished SM is popped. Keys `(Reverse(now), idx)` are unique,
        // so the order is exactly that of pop-then-push.
        heap.clear();
        heap.extend((0..sms.len()).map(|i| (Reverse(Cycle::ZERO), i)));
        let mut active_per_app: Vec<usize> = (0..n).map(|i| sm_share(total_sms, n, i)).collect();
        while let Some(mut top) = heap.peek_mut() {
            let idx = top.1;
            let still_active = sms[idx].advance(&mut system);
            if let Some(stall) = system.take_pending_stall() {
                // Worst-case model (when enabled): compaction/shootdowns
                // stall every SM (Section 5).
                for sm in sms.iter_mut() {
                    sm.stall_until_for(stall, StallBucket::Shootdown);
                }
            }
            if mosaic_telemetry::enabled() {
                let now = sms[idx].now().as_u64();
                if now >= next_epoch {
                    let (mut instructions, mut stall_cycles) = (0u64, 0u64);
                    for sm in sms.iter() {
                        instructions += sm.stats().instructions;
                        stall_cycles += sm.stats().stall_cycles;
                    }
                    emit(|| Event::Epoch { cycle: now, instructions, stall_cycles });
                    next_epoch = (now / EPOCH_EVERY + 1) * EPOCH_EVERY;
                }
            }
            if let Some(every) = audit_every {
                let now = sms[idx].now().as_u64();
                if now >= next_audit {
                    // Lazy context: a clean audit formats nothing.
                    system.audit().assert_clean(format_args!("cycle {now}"));
                    next_audit = (now / every + 1) * every;
                }
            }
            if still_active {
                top.0 = Reverse(sms[idx].now());
                continue;
            }
            PeekMut::pop(top);
            let app = sms[idx].asid().0 as usize;
            active_per_app[app] -= 1;
            if active_per_app[app] == 0 {
                // This application's kernel finished.
                let now = sms[idx].now();
                let asid = sms[idx].asid();
                if phase + 1 == phases {
                    // Final kernel: everything is deallocated.
                    for (start, pages) in layouts[app].reservations() {
                        system.deallocate(now, asid, start, pages);
                    }
                } else {
                    // Intermediate kernel: drop the scratch half of the
                    // main buffer; the next kernel re-touches it.
                    let pages = layouts[app].main_bytes / mosaic_vm::BASE_PAGE_SIZE;
                    let start = mosaic_vm::VirtPageNum(
                        layouts[app].main_base.base_page().raw() + pages / 2,
                    );
                    system.deallocate(now, asid, start, pages - pages / 2);
                }
            }
        }

        // Accumulate this phase's results.
        for (i, _) in workload.apps.iter().enumerate() {
            let my_sms = sms.iter().filter(|s| s.asid().0 as usize == i);
            let mut cycles = 0;
            for s in my_sms {
                let stats = s.stats();
                instr_per_app[i] += stats.instructions;
                stall_cycles_per_app[i] += stats.stall_cycles;
                stall_per_app[i].merge(&stats.stall_breakdown);
                cycles = cycles.max(s.now().as_u64());
            }
            cycles_per_app[i] = cycles;
        }
        let phase_end = sms.iter().map(|s| s.now()).max().unwrap_or(phase_start);
        emit(|| Event::PhaseEnd { phase, cycle: phase_end.as_u64() });
        total_cycles = phase_end.as_u64();
        phase_start = phase_end;
        if audit_every.is_some() {
            system.audit().assert_clean(format_args!("end of phase {phase}"));
        }
    }

    // Collect per-application results.
    let mut apps = Vec::with_capacity(n);
    for (i, profile) in workload.apps.iter().enumerate() {
        apps.push(AppResult {
            name: profile.name.to_string(),
            asid: i as u16,
            instructions: instr_per_app[i],
            cycles: cycles_per_app[i],
            ipc: if cycles_per_app[i] == 0 {
                0.0
            } else {
                instr_per_app[i] as f64 / cycles_per_app[i] as f64
            },
            stall_cycles: stall_cycles_per_app[i],
            stall: stall_per_app[i],
        });
    }
    RunResult {
        workload: workload.name.clone(),
        manager: cfg.manager_label().to_string(),
        apps,
        stats: system.stats(),
        total_cycles,
    }
}

/// The alone-baseline configuration of application `i` of an `apps`-app
/// shared run under `cfg`: the GPU-MMU manager with no ideal-TLB
/// idealization, no pre-fragmentation, on a single device with the app's
/// shared-run share of the *fleet's* SMs (no interconnect: `IPC_alone`
/// stays the paper's single-GPU denominator). Everything else (scale, TLB
/// geometry, paging mode, seed, ...) is inherited from `cfg`.
pub fn alone_config(cfg: RunConfig, apps: usize, i: usize) -> RunConfig {
    let mut alone = cfg;
    alone.manager = ManagerKind::GpuMmu4K;
    alone.system.ideal_tlb = false;
    alone.fragmentation = None;
    alone.fleet = crate::config::FleetConfig::single();
    alone.system.sm_count = sm_share(cfg.total_sms(), apps, i);
    alone
}

/// Runs each application of `workload` *alone* under [`alone_config`] —
/// the `IPC_alone` denominator of the weighted-speedup metric
/// (Section 5).
pub fn run_alone_baselines(workload: &Workload, cfg: RunConfig) -> Vec<RunResult> {
    let n = workload.app_count();
    workload
        .apps
        .iter()
        .enumerate()
        .map(|(i, profile)| {
            let solo = Workload { name: profile.name.to_string(), apps: vec![profile] };
            run_workload(&solo, alone_config(cfg, n, i))
        })
        .collect()
}

/// The weighted speedup of a shared run against per-application alone
/// baselines: `Σ IPC_shared / IPC_alone` (Section 5, Equation 1).
///
/// # Panics
///
/// Panics if the app counts disagree.
pub fn weighted_speedup(shared: &RunResult, alone: &[RunResult]) -> f64 {
    assert_eq!(shared.apps.len(), alone.len(), "need one alone baseline per application");
    shared
        .apps
        .iter()
        .zip(alone)
        .map(|(s, a)| {
            let alone_ipc = a.apps[0].ipc;
            if alone_ipc == 0.0 {
                0.0
            } else {
                s.ipc / alone_ipc
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_workloads::ScaleConfig;

    fn tiny_cfg(manager: ManagerKind) -> RunConfig {
        let mut cfg = RunConfig::new(manager).with_scale(ScaleConfig {
            ws_divisor: 64,
            mem_ops_per_warp: 20,
            warps_per_sm: 4,
            phases: 1,
        });
        cfg.system.sm_count = 6;
        cfg
    }

    #[test]
    fn sm_share_partitions_equally() {
        assert_eq!(sm_share(30, 1, 0), 30);
        assert_eq!(sm_share(30, 2, 0), 15);
        assert_eq!(sm_share(30, 4, 0), 8);
        assert_eq!(sm_share(30, 4, 3), 7);
        let total: usize = (0..4).map(|i| sm_share(30, 4, i)).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn single_app_run_produces_ipc() {
        let w = Workload::from_names(&["MM"]);
        let r = run_workload(&w, tiny_cfg(ManagerKind::GpuMmu4K));
        assert_eq!(r.apps.len(), 1);
        assert!(r.apps[0].instructions > 0);
        assert!(r.apps[0].ipc > 0.0);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let w = Workload::from_names(&["HS", "CONS"]);
        let a = run_workload(&w, tiny_cfg(ManagerKind::mosaic()));
        let b = run_workload(&w, tiny_cfg(ManagerKind::mosaic()));
        assert_eq!(a, b);
    }

    #[test]
    fn two_apps_share_the_gpu() {
        let w = Workload::from_names(&["MM", "NN"]);
        let r = run_workload(&w, tiny_cfg(ManagerKind::GpuMmu4K));
        assert_eq!(r.apps.len(), 2);
        assert!(r.apps.iter().all(|a| a.instructions > 0));
    }

    #[test]
    fn weighted_speedup_of_alone_config_is_app_count() {
        // Sharing nothing (the alone baseline against itself) gives a
        // weighted speedup equal to the number of applications.
        let w = Workload::from_names(&["MM"]);
        let cfg = tiny_cfg(ManagerKind::GpuMmu4K);
        let shared = run_workload(&w, cfg);
        let alone = run_alone_baselines(&w, cfg);
        let ws = weighted_speedup(&shared, &alone);
        assert!((ws - 1.0).abs() < 1e-9, "GPU-MMU alone vs itself: {ws}");
    }

    #[test]
    fn ideal_tlb_is_at_least_as_fast() {
        let w = Workload::from_names(&["GUPS"]);
        let cfg = tiny_cfg(ManagerKind::GpuMmu4K);
        let base = run_workload(&w, cfg);
        let ideal = run_workload(&w, cfg.ideal_tlb());
        assert!(
            ideal.apps[0].ipc >= base.apps[0].ipc,
            "ideal {} vs base {}",
            ideal.apps[0].ipc,
            base.apps[0].ipc
        );
        assert_eq!(ideal.manager, "Ideal TLB");
    }

    #[test]
    fn stall_buckets_sum_exactly_per_app() {
        let w = Workload::from_names(&["GUPS", "MM"]);
        let r = run_workload(&w, tiny_cfg(ManagerKind::mosaic()));
        for app in &r.apps {
            assert!(app.stall_cycles > 0, "{} stalls somewhere", app.name);
            assert_eq!(app.stall.total(), app.stall_cycles, "{} buckets tile stalls", app.name);
            assert!(
                app.stall.get(StallBucket::Other) < app.stall_cycles,
                "{} attribution is not all residual",
                app.name
            );
        }
    }

    #[test]
    fn mosaic_coalesces_under_preload() {
        let w = Workload::from_names(&["MM", "MM"]);
        let r = run_workload(&w, tiny_cfg(ManagerKind::mosaic()).preloaded());
        assert!(r.stats.manager.coalesces > 0, "preloaded chunks coalesce");
        assert_eq!(r.stats.iobus_transfers, 0);
    }

    #[test]
    fn oversubscribed_run_evicts_and_attributes_stalls() {
        let w = Workload::from_names(&["GUPS"]);
        let r = run_workload(&w, tiny_cfg(ManagerKind::mosaic()).oversubscribed(2.0));
        assert!(r.stats.manager.evictions > 0, "2x oversubscription must evict");
        assert!(r.stats.manager.writeback_bytes > 0, "dirty pages write back on eviction");
        assert!(r.apps[0].instructions > 0, "the run completes despite the pressure");
        let app = &r.apps[0];
        assert!(app.stall.get(StallBucket::Evict) > 0, "evict bucket attributes");
        assert!(app.stall.get(StallBucket::Writeback) > 0, "writeback bucket attributes");
        assert_eq!(app.stall.total(), app.stall_cycles, "buckets still tile exactly");
    }

    #[test]
    fn oversubscribed_runs_are_deterministic() {
        let w = Workload::from_names(&["MM", "GUPS"]);
        let cfg = tiny_cfg(ManagerKind::GpuMmu4K).oversubscribed(2.0);
        let a = run_workload(&w, cfg);
        assert!(a.stats.manager.evictions > 0);
        assert_eq!(a, run_workload(&w, cfg));
    }

    #[test]
    fn oversubscription_shrinks_memory_to_the_reservation_ratio() {
        let w = Workload::from_names(&["MM"]);
        let full = run_workload(&w, tiny_cfg(ManagerKind::GpuMmu4K));
        let half = run_workload(&w, tiny_cfg(ManagerKind::GpuMmu4K).oversubscribed(2.0));
        // Same work retires either way; the oversubscribed run pays for it
        // in far-fault traffic (refaults re-cross the bus).
        assert_eq!(full.apps[0].instructions, half.apps[0].instructions);
        assert!(half.stats.iobus_transfers >= full.stats.iobus_transfers);
    }

    #[test]
    fn gpu_mmu_never_coalesces() {
        let w = Workload::from_names(&["MM", "NN"]);
        let r = run_workload(&w, tiny_cfg(ManagerKind::GpuMmu4K));
        assert_eq!(r.stats.manager.coalesces, 0);
    }
}
