//! Per-layer metrics of the traced pass.
//!
//! Counts come from `RunResult::stats` and from the replica's
//! `warp_access` wrapper; both are deterministic. Where the program keeps
//! no counter, the count is derived from ones it does keep:
//!
//! * L1 data-cache accesses = warp transactions (each probes its SM's L1
//!   once);
//! * L2 cache accesses = L1 misses + 4 × page walks (every walk reads four
//!   PTE levels through the L2, since no benchmark run has a page-walk
//!   cache);
//! * walker calls = L2 TLB misses; placement lookups = L1 misses of fleet
//!   runs; interconnect traversals = 2 × remote accesses, page copies =
//!   inter-GPU migrations + replications;
//! * manager touches inside `warp_access` = far-faults of on-demand runs.
//!
//! DRAM accesses, their row hits, and TLB shootdowns are counted from the
//! simulator's own event trace in a separate, untimed pass ([`count_events`]):
//! each shootdown flushes one large and 512 base entries from every L1 and
//! L2 TLB of the fleet.
//!
//! Host time of the layers under `warp_access` is `calls × ns/op` from
//! [`crate::calib`] (an `est_s`), and `gpusim.warp_access.unexplained_s`
//! is what those estimates leave of the measured `warp_access` time.

use crate::calib::{NsPerOp, Shape};
use crate::jobs::Job;
use crate::replica::Spans;
use mosaic_gpusim::{run_workload, DemandPagingMode, ManagerKind, RunResult};
use mosaic_telemetry::{set_enabled, set_sink, Event, EventSink};
use std::cell::Cell;
use std::rc::Rc;

/// Trace events of one run that no `SystemStats` field counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Events {
    /// `Shootdown` events: region-wide TLB invalidations.
    pub shootdowns: u64,
    /// `DramAccess` events: `Dram::access` calls.
    pub dram_accesses: u64,
    /// Those that hit the open row.
    pub dram_row_hits: u64,
}

/// Counts events as they are emitted; buffers nothing.
struct CountingSink(Rc<Cell<Events>>);

impl EventSink for CountingSink {
    fn record(&mut self, ev: Event) {
        let mut e = self.0.get();
        match ev {
            Event::Shootdown { .. } => e.shootdowns += 1,
            Event::DramAccess { row_hit, .. } => {
                e.dram_accesses += 1;
                e.dram_row_hits += u64::from(row_hit);
            }
            _ => return,
        }
        self.0.set(e);
    }
}

/// Turns tracing back off however the traced run ends.
struct TracingOff;

impl Drop for TracingOff {
    fn drop(&mut self) {
        set_enabled(false);
        set_sink(None);
    }
}

/// Runs `job` once with the event trace on, counting into [`Events`].
/// Tracing is observation only, so the result equals an untraced run's.
pub fn count_events(job: &Job) -> (RunResult, Events) {
    let counts = Rc::new(Cell::new(Events::default()));
    let _off = TracingOff;
    set_sink(Some(Box::new(CountingSink(Rc::clone(&counts)))));
    set_enabled(true);
    let result = run_workload(&job.workload, job.cfg);
    (result, counts.get())
}

/// Metric unit of a count.
const COUNT: &str = "count";
/// Metric unit of a fraction.
const FRAC: &str = "fraction";

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, `layer.component.quantity`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Deterministic per-pass totals gathered from the results and spans.
#[derive(Debug, Clone, Default)]
struct Counts {
    instructions: u64,
    next_op_calls: u64,
    l1_tlb_probes: u64,
    l1_tlb_hits: u64,
    l2_tlb_probes: u64,
    l2_tlb_hits: u64,
    walks: u64,
    walk_cycles: f64,
    txns: f64,
    l1_cache_hits: f64,
    l2_cache_accesses: f64,
    l2_cache_hits: f64,
    dram_accesses: u64,
    row_hits: u64,
    tlb_flushes: u64,
    placement_calls: f64,
    interconnect_bytes: u64,
    traversals: u64,
    page_copies: u64,
    faults: u64,
    refaults: u64,
    evictions: u64,
    writeback_bytes: u64,
    coalesces: u64,
    splinters: u64,
    compaction_migrations: u64,
    touches_gpu_mmu: u64,
    touches_mosaic: u64,
    evictions_gpu_mmu: u64,
    evictions_mosaic: u64,
    remote_accesses: u64,
    fleet_migrations: u64,
    replications: u64,
    iobus_transfers: u64,
    iobus_bytes: u64,
    iobus_queue_cycles: f64,
}

impl Counts {
    fn gather(jobs: &[Job], results: &[RunResult], spans: &[Spans], events: &[Events]) -> Counts {
        let mut c = Counts::default();
        for (((job, r), s), e) in jobs.iter().zip(results).zip(spans).zip(events) {
            let st = &r.stats;
            let instructions: u64 = r.apps.iter().map(|a| a.instructions).sum();
            let scale = &job.cfg.scale;
            let warps = job.cfg.total_sms() * scale.warps_per_sm * scale.phases.max(1) as usize;
            c.instructions += instructions;
            c.next_op_calls += instructions + warps as u64;
            c.l1_tlb_probes += st.l1_tlb_total;
            c.l1_tlb_hits += st.l1_tlb_hits;
            c.l2_tlb_probes += st.l2_tlb_total;
            c.l2_tlb_hits += st.l2_tlb_hits;
            c.walks += st.walks;
            c.walk_cycles += st.walks as f64 * st.walk_latency_mean;
            let txns = s.txns as f64;
            let l1_hits = txns * st.l1_cache_hit_rate;
            let l1_misses = txns - l1_hits;
            let l2_accesses = l1_misses + 4.0 * st.walks as f64;
            c.txns += txns;
            c.l1_cache_hits += l1_hits;
            c.l2_cache_accesses += l2_accesses;
            c.l2_cache_hits += l2_accesses * st.l2_cache_hit_rate;
            c.dram_accesses += e.dram_accesses;
            c.row_hits += e.dram_row_hits;
            let tlbs = (job.cfg.total_sms() + job.cfg.fleet.gpus) as u64;
            c.tlb_flushes += e.shootdowns * tlbs * 513;
            if job.cfg.fleet.gpus > 1 {
                c.placement_calls += l1_misses;
            }
            c.interconnect_bytes += st.interconnect_bytes;
            c.traversals += 2 * st.remote_accesses;
            c.page_copies += st.fleet_migrations + st.fleet_replications;
            let m = &st.manager;
            c.faults += m.far_faults;
            c.refaults += st.refaults;
            c.evictions += m.evictions;
            c.writeback_bytes += m.writeback_bytes;
            c.coalesces += m.coalesces;
            c.splinters += m.splinters;
            c.compaction_migrations += m.migrations;
            // A preloaded run takes its faults in set-up, not in warp_access.
            let preloaded = job.cfg.paging == DemandPagingMode::PreloadedFree;
            let touches = if preloaded { 0 } else { m.far_faults };
            if job.cfg.manager == ManagerKind::GpuMmu4K {
                c.touches_gpu_mmu += touches;
                c.evictions_gpu_mmu += m.evictions;
            } else {
                c.touches_mosaic += touches;
                c.evictions_mosaic += m.evictions;
            }
            c.remote_accesses += st.remote_accesses;
            c.fleet_migrations += st.fleet_migrations;
            c.replications += st.fleet_replications;
            c.iobus_transfers += st.iobus_transfers;
            c.iobus_bytes += st.iobus_bytes;
            c.iobus_queue_cycles += st.iobus_transfers as f64 * st.iobus_queue_mean;
        }
        c
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The hit/miss mix calibration should reproduce for this pass.
pub fn shape(jobs: &[Job], results: &[RunResult], spans: &[Spans], events: &[Events]) -> Shape {
    let c = Counts::gather(jobs, results, spans, events);
    let mut apps: Vec<(&'static mosaic_workloads::AppProfile, u64)> = Vec::new();
    for (job, r) in jobs.iter().zip(results) {
        for (p, a) in job.workload.apps.iter().zip(&r.apps) {
            match apps.iter_mut().find(|(q, _)| q.name == p.name) {
                Some((_, instr)) => *instr += a.instructions,
                None => apps.push((p, a.instructions)),
            }
        }
    }
    Shape {
        l1_tlb_hit: ratio(c.l1_tlb_hits as f64, c.l1_tlb_probes as f64),
        l2_tlb_hit: ratio(c.l2_tlb_hits as f64, c.l2_tlb_probes as f64),
        l1_cache_hit: ratio(c.l1_cache_hits, c.txns),
        l2_cache_hit: ratio(c.l2_cache_hits, c.l2_cache_accesses),
        row_hit: ratio(c.row_hits as f64, c.dram_accesses as f64),
        apps,
    }
}

/// Host-time figures of the traced pass, each a median over its passes.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median per-layer spans (times) of a traced pass.
    pub spans: Spans,
    /// Median untraced pass, seconds.
    pub untraced_s: f64,
    /// Median traced pass, seconds.
    pub traced_s: f64,
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn metrics(
    jobs: &[Job],
    results: &[RunResult],
    spans: &[Spans],
    events: &[Events],
    timing: &Timing,
    ns: &NsPerOp,
) -> Vec<Metric> {
    let c = Counts::gather(jobs, results, spans, events);
    let mut calls = Spans::default();
    for s in spans {
        calls.add(s);
    }
    let t = &timing.spans;
    let s = |ns_total: f64| ns_total / 1e9;
    let tlb_est = s(c.l1_tlb_probes as f64 * ns.l1_tlb
        + c.l2_tlb_probes as f64 * ns.l2_tlb
        + c.tlb_flushes as f64 * ns.tlb_flush);
    let walker_est = s((c.l2_tlb_probes - c.l2_tlb_hits) as f64 * ns.walk);
    let cache_est = s(c.txns * ns.l1_cache + c.l2_cache_accesses * ns.l2_cache);
    let dram_est = s(c.dram_accesses as f64 * ns.dram);
    let icn_est = s(c.traversals as f64 * ns.traverse + c.page_copies as f64 * ns.transfer);
    let manager_est = s(c.touches_gpu_mmu as f64 * ns.touch_gpu_mmu
        + c.touches_mosaic as f64 * ns.touch_mosaic
        + c.evictions_gpu_mmu as f64 * ns.evict_gpu_mmu
        + c.evictions_mosaic as f64 * ns.evict_mosaic);
    let placement_est = s(c.placement_calls * ns.placement);
    let iobus_est = s(c.iobus_transfers as f64 * ns.iobus);
    let access_s = t.access.as_secs_f64();
    let inner = tlb_est
        + walker_est
        + cache_est
        + dram_est
        + icn_est
        + manager_est
        + placement_est
        + iobus_est;
    let m = |name, value: f64, unit| Metric { name, value, unit };
    let n = |name, value: u64| Metric { name, value: value as f64, unit: COUNT };
    vec![
        n("gpu.sm.advance_calls", calls.advance_calls),
        n("gpu.sm.instructions", c.instructions),
        m("gpu.sm.self_s", t.advance.as_secs_f64() - access_s - t.dealloc.as_secs_f64(), "s"),
        n("gpusim.warp_access.calls", calls.access_calls),
        n("gpusim.warp_access.txns", calls.txns),
        m("gpusim.warp_access.s", access_s, "s"),
        m("gpusim.warp_access.ns_per_txn", ratio(access_s * 1e9, calls.txns as f64), "ns"),
        m("gpusim.warp_access.unexplained_s", access_s - inner, "s"),
        n("gpusim.deallocate.calls", calls.dealloc_calls),
        m("gpusim.deallocate.s", t.dealloc.as_secs_f64(), "s"),
        m("gpusim.setup.s", t.setup.as_secs_f64(), "s"),
        m("workloads.build.s", t.build.as_secs_f64(), "s"),
        m("workloads.next_op.est_s", s(c.next_op_calls as f64 * ns.next_op), "s"),
        n("vm.tlb.l1_probes", c.l1_tlb_probes),
        m("vm.tlb.l1_hit_frac", ratio(c.l1_tlb_hits as f64, c.l1_tlb_probes as f64), FRAC),
        n("vm.tlb.l2_probes", c.l2_tlb_probes),
        m("vm.tlb.l2_hit_frac", ratio(c.l2_tlb_hits as f64, c.l2_tlb_probes as f64), FRAC),
        m("vm.tlb.est_s", tlb_est, "s"),
        n("vm.walker.walks", c.walks),
        m("vm.walker.latency_mean_cyc", ratio(c.walk_cycles, c.walks as f64), "cycles"),
        m("vm.walker.est_s", walker_est, "s"),
        m("mem.cache.l1_hit_frac", ratio(c.l1_cache_hits, c.txns), FRAC),
        m("mem.cache.l2_hit_frac", ratio(c.l2_cache_hits, c.l2_cache_accesses), FRAC),
        m("mem.cache.est_s", cache_est, "s"),
        m("mem.dram.row_hit_frac", ratio(c.row_hits as f64, c.dram_accesses as f64), FRAC),
        m("mem.dram.est_s", dram_est, "s"),
        m("mem.interconnect.bytes", c.interconnect_bytes as f64, "B"),
        m("mem.interconnect.est_s", icn_est, "s"),
        n("core.manager.faults", c.faults),
        m("core.manager.refault_frac", ratio(c.refaults as f64, c.faults as f64), FRAC),
        n("core.manager.evictions", c.evictions),
        m("core.manager.writeback_bytes", c.writeback_bytes as f64, "B"),
        n("core.manager.coalesces", c.coalesces),
        n("core.manager.splinters", c.splinters),
        n("core.manager.migrations", c.compaction_migrations),
        m("core.manager.est_s", manager_est, "s"),
        n("core.placement.remote_accesses", c.remote_accesses),
        n("core.placement.migrations", c.fleet_migrations),
        n("core.placement.replications", c.replications),
        m("core.placement.est_s", placement_est, "s"),
        n("iobus.transfers", c.iobus_transfers),
        m("iobus.bytes", c.iobus_bytes as f64, "B"),
        m("iobus.queue_mean_cyc", ratio(c.iobus_queue_cycles, c.iobus_transfers as f64), "cycles"),
        m("iobus.est_s", iobus_est, "s"),
        m("trace.overhead_frac", timing.traced_s / timing.untraced_s - 1.0, FRAC),
    ]
}
