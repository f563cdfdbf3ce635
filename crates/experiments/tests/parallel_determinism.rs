//! The determinism contract of the sweep executor: a figure driver's
//! rendered output is byte-identical at any worker count.
//!
//! Each test compares a figure rendered with multiple workers against a
//! shared serial fixture and pins the serial report to its golden FNV-1a
//! digest in [`mosaic_experiments::goldens`]. The serial renderings are computed exactly once per process
//! (in [`fixture`]) — previously every test re-ran its full workload
//! serially, roughly doubling the tier's wall-clock for no extra
//! coverage. The golden tier covers fig08 (job-list refactor +
//! `AloneCache` prefetch + ordered collection), fig03 (single-app
//! sweeps), fig11 (per-app normalized IPC sort), the walker-threads
//! ablation, the stall-attribution report (exact bucket decomposition on
//! the always-on path), oversubscription, the multi-GPU fleet, and the
//! coalescer comparison (the only report that runs the migrating
//! coalescer).

use mosaic_experiments::common::Scope;
use mosaic_experiments::goldens::{digest, golden};
use mosaic_experiments::{ablations, fig03, fig08, fig11, multigpu, oversub, stall, sweep};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests: `sweep::set_jobs` is process-global, and these
/// tests each claim a specific worker count, so they must not overlap.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Serial (jobs = 1) renderings of every report in the golden tier,
/// computed once and shared by all tests in this binary.
struct Fixture {
    fig08: String,
    fig03: String,
    fig11: String,
    walker: String,
    oversub: String,
    stall: String,
    multigpu: String,
    coalescers: String,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        // Takes JOBS_LOCK itself — callers must not hold it across this
        // call (std Mutex is not reentrant).
        let _guard = lock();
        sweep::set_jobs(Some(1));
        let f = Fixture {
            fig08: fig08::run(Scope::Smoke).to_string(),
            fig03: fig03::run(Scope::Smoke).to_string(),
            fig11: fig11::run(Scope::Smoke).to_string(),
            walker: ablations::walker_threads(Scope::Smoke).to_string(),
            oversub: oversub::run(Scope::Smoke).to_string(),
            stall: stall::run(Scope::Smoke).to_string(),
            multigpu: multigpu::run(Scope::Smoke).to_string(),
            coalescers: ablations::migrating_coalescer(Scope::Smoke).to_string(),
        };
        sweep::set_jobs(None);
        f
    })
}

/// Renders `run` at eight workers, asserts byte-identity against the
/// shared serial fixture rendering, and checks it against the golden
/// digest pinned for `name`.
fn golden_check(name: &str, serial: &str, run: impl Fn() -> String) {
    let parallel = {
        let _guard = lock();
        sweep::set_jobs(Some(8));
        let p = run();
        sweep::set_jobs(None);
        p
    };
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "{name}: parallel output must match serial byte-for-byte");
    assert_eq!(
        digest(serial),
        golden(name),
        "{name} smoke report drifted from the golden digest; report was:\n{serial}"
    );
}

#[test]
fn smoke_report_matches_golden_digest() {
    let serial = &fixture().fig08;
    let _guard = lock();
    sweep::set_jobs(Some(2));
    let report = fig08::run(Scope::Smoke).to_string();
    sweep::set_jobs(None);
    assert!(!report.is_empty());
    assert_eq!(serial, &report, "two-worker output must match serial byte-for-byte");
    assert_eq!(
        digest(&report),
        golden("fig08"),
        "fig08 smoke report drifted from the golden digest; report was:\n{report}"
    );
}

#[test]
fn serial_vs_parallel_sweeps_are_bit_identical() {
    let serial = &fixture().fig08;
    let _guard = lock();
    sweep::set_jobs(Some(4));
    let parallel = fig08::run(Scope::Smoke).to_string();
    sweep::set_jobs(None);
    assert!(!serial.is_empty());
    assert_eq!(serial, &parallel, "parallel output must match serial byte-for-byte");
}

#[test]
fn fig03_matches_golden_digest_at_any_jobs() {
    golden_check("fig03", &fixture().fig03, || fig03::run(Scope::Smoke).to_string());
}

#[test]
fn fig11_matches_golden_digest_at_any_jobs() {
    golden_check("fig11", &fixture().fig11, || fig11::run(Scope::Smoke).to_string());
}

#[test]
fn walker_ablation_matches_golden_digest_at_any_jobs() {
    golden_check("ablation_walker", &fixture().walker, || {
        ablations::walker_threads(Scope::Smoke).to_string()
    });
}

#[test]
fn oversubscribed_sweep_matches_golden_digest_at_any_jobs() {
    let report = &fixture().oversub;
    golden_check("oversub", report, || oversub::run(Scope::Smoke).to_string());
    // The golden run must actually exercise the eviction engine, or the
    // digest pins nothing interesting.
    assert!(!report.contains("0 pages evicted"), "eviction engine engaged:\n{report}");
}

#[test]
fn stall_report_matches_golden_digest_at_any_jobs() {
    let report = &fixture().stall;
    golden_check("stall", report, || stall::run(Scope::Smoke).to_string());
    // The report must cover both ends of the TLB-sensitivity spectrum.
    assert!(report.contains("MM "), "TLB-friendly workload present:\n{report}");
    assert!(report.contains("GUPS "), "TLB-sensitive workload present:\n{report}");
}

#[test]
fn multigpu_matches_golden_digest_at_any_jobs() {
    let report = &fixture().multigpu;
    golden_check("multigpu", report, || multigpu::run(Scope::Smoke).to_string());
    // The golden run must actually cross the interconnect, or the digest
    // pins nothing beyond the single-GPU engine.
    assert!(report.contains("4 GPUs"), "placement probe present:\n{report}");
}

#[test]
fn coalescer_ablation_matches_golden_digest_at_any_jobs() {
    let report = &fixture().coalescers;
    golden_check("ablation_coalescers", report, || {
        ablations::migrating_coalescer(Scope::Smoke).to_string()
    });
    assert!(report.contains("Migrating"), "migrating coalescer present:\n{report}");
}

#[test]
fn multigpu_is_identical_across_the_jobs_matrix() {
    // Fleet runs are the largest sweep points; re-rendering at one and
    // four workers must reproduce the serial fixture byte-for-byte.
    let serial = &fixture().multigpu;
    let _guard = lock();
    for jobs in [1, 4] {
        sweep::set_jobs(Some(jobs));
        let report = multigpu::run(Scope::Smoke).to_string();
        sweep::set_jobs(None);
        assert_eq!(serial, &report, "multigpu drifted at --jobs {jobs}");
    }
}
