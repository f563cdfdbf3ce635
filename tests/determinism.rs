//! Determinism as a contract: the same configuration and seed must
//! reproduce *bit-identical* results — down to a digest of every statistic
//! the simulator emits — no matter which manager runs, and the runtime
//! invariant auditor must be observationally free: auditing a run cannot
//! change a single bit of its outcome.
//!
//! These tests are the executable form of the policy in DESIGN.md
//! ("Determinism & invariants policy"); the static half is enforced by
//! `cargo run -p mosaic-audit -- check`.

use mosaic::prelude::*;
use mosaic_gpu::MemoryInterface;

fn tiny_cfg(manager: ManagerKind) -> RunConfig {
    let mut cfg = RunConfig::new(manager).with_scale(ScaleConfig {
        ws_divisor: 64,
        mem_ops_per_warp: 30,
        warps_per_sm: 4,
        phases: 2,
    });
    cfg.system.sm_count = 6;
    cfg
}

/// FNV-1a over the full debug rendering of a run: every counter, every
/// float (rendered exactly), every per-app result. Two digests agree iff
/// the results are bit-identical.
fn digest(r: &RunResult) -> u64 {
    mosaic_sim_core::fnv1a(format!("{r:?}").as_bytes())
}

#[test]
fn stats_digest_is_bit_identical_across_reruns_for_every_manager() {
    let w = Workload::from_names(&["HS", "CONS"]);
    for kind in [
        ManagerKind::mosaic(),
        ManagerKind::GpuMmu4K,
        ManagerKind::GpuMmu2M,
        ManagerKind::migrating(),
    ] {
        let a = run_workload(&w, tiny_cfg(kind));
        let b = run_workload(&w, tiny_cfg(kind));
        assert_eq!(digest(&a), digest(&b), "{} diverged across identical runs", a.manager);
        assert_eq!(a, b);
    }
}

#[test]
fn audited_and_unaudited_runs_are_bit_identical() {
    // The invariant sweep must be side-effect free: turning it on (or
    // cranking its cadence) cannot perturb the simulation.
    let w = Workload::from_names(&["MM", "GUPS"]);
    let base = run_workload(&w, tiny_cfg(ManagerKind::mosaic()).audited(0));
    let sparse = run_workload(&w, tiny_cfg(ManagerKind::mosaic()).audited(250_000));
    let dense = run_workload(&w, tiny_cfg(ManagerKind::mosaic()).audited(5_000));
    assert_eq!(digest(&base), digest(&sparse));
    assert_eq!(digest(&base), digest(&dense));
}

#[test]
fn fragmented_runs_are_deterministic_and_audit_clean() {
    let w = Workload::from_names(&["HS"]);
    let mut cfg = tiny_cfg(ManagerKind::mosaic()).audited(50_000);
    cfg.fragmentation = Some((1.0, 0.25));
    let a = run_workload(&w, cfg);
    let b = run_workload(&w, cfg);
    assert_eq!(digest(&a), digest(&b));
}

#[test]
fn system_audit_is_clean_and_repeatable_after_traffic() {
    let mut sys = GpuSystem::new(tiny_cfg(ManagerKind::mosaic()));
    sys.launch_app(AppId(0), VirtPageNum(0), 2048);
    let mut now = Cycle::new(0);
    for i in 0..600u64 {
        now = sys.warp_access(now, (i % 6) as usize, AppId(0), &[VirtAddr(i * 4096)]);
    }
    sys.deallocate(now, AppId(0), VirtPageNum(0), 700);
    let first = sys.audit();
    assert!(first.is_clean(), "{first}");
    assert!(first.checks() > 0, "audit must actually check something");
    // Auditing is read-only: a second sweep sees the identical state.
    let second = sys.audit();
    assert_eq!(first.checks(), second.checks());
    assert!(second.is_clean());
}
