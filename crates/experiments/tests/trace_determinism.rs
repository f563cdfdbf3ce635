//! The determinism contract of the trace pipeline: the JSONL trace a
//! sweep records is byte-identical at any worker count, and pinned to the
//! `trace` golden digest.
//!
//! Trace collection is process-global state (`sweep::set_trace` /
//! `sweep::take_trace`), and the test binary runs tests on parallel
//! threads, so every test here serializes on one lock and leaves
//! tracing disabled on exit.

use mosaic_experiments::common::Scope;
use mosaic_experiments::goldens::{digest, golden};
use mosaic_experiments::sweep::{self, run_workloads, Executor};
use mosaic_gpusim::ManagerKind;
use mosaic_workloads::Workload;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Runs a 4-job sweep (MM and GUPS under GPU-MMU and Mosaic) with trace
/// collection on and returns the rendered JSONL.
fn traced_sweep(jobs: usize) -> String {
    sweep::set_trace(true);
    let exec = Executor::new(jobs);
    let sweep_jobs = ["MM", "GUPS"]
        .iter()
        .flat_map(|&name| {
            [ManagerKind::GpuMmu4K, ManagerKind::mosaic()]
                .map(|mgr| (Workload::from_names(&[name]), Scope::Smoke.config(mgr)))
        })
        .collect();
    let results = run_workloads(&exec, sweep_jobs);
    assert_eq!(results.len(), 4);
    sweep::set_trace(false);
    sweep::render_trace(&sweep::take_trace())
}

#[test]
fn traces_are_byte_identical_across_job_counts_and_match_golden() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let serial = traced_sweep(1);
    let parallel = traced_sweep(8);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "trace must be byte-identical at any --jobs count");
    // Sanity on shape: one run_begin per job, and real simulated events.
    assert_eq!(serial.matches("\"type\":\"run_begin\"").count(), 4);
    for tag in ["warp_mem", "tlb_lookup", "page_walk", "dram_access", "epoch"] {
        assert!(
            serial.contains(&format!("\"type\":\"{tag}\"")),
            "trace should contain {tag} events"
        );
    }
    assert_eq!(digest(&serial), golden("trace"), "trace drifted from the golden digest");
}

#[test]
fn untraced_sweeps_collect_nothing() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    sweep::set_trace(false);
    let exec = Executor::new(2);
    let jobs = vec![(Workload::from_names(&["MM"]), Scope::Smoke.config(ManagerKind::GpuMmu4K))];
    let _ = run_workloads(&exec, jobs);
    assert!(sweep::take_trace().is_empty(), "tracing off must record nothing");
}
