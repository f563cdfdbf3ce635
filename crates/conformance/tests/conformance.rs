//! Conformance suite: bounded deterministic fuzz smoke, mutation
//! self-tests, and the pinned regressions the shrinker produced for real
//! bugs found (and fixed) by this harness.

use mosaic_conformance::{
    run_fuzz, run_mgr_case, run_vm_case, FuzzConfig, MgrKind, MgrOp, Mutation, Suite, VmConfigKind,
    VmOp,
};

/// A bounded fuzz run over both suites passes and is deterministic: the
/// same config yields the same statistics (and, transitively, the same
/// cases — stats count ops, which depend on every generator draw).
#[test]
fn fuzz_smoke_is_clean_and_deterministic() {
    let config = FuzzConfig { cases: 48, seed: 0xC0FFEE, ..FuzzConfig::default() };
    let first = run_fuzz(config).expect("bounded fuzz run must be clean");
    let second = run_fuzz(config).expect("bounded fuzz run must be clean");
    assert_eq!(first, second);
    assert_eq!(first.vm_cases, 48);
    assert_eq!(first.mgr_cases, 48);
    assert_eq!(first.system_cases, 48);
    assert!(first.total_ops > 0);
}

/// A different seed still passes (the oracles hold, not just one stream).
#[test]
fn fuzz_smoke_alternate_seed() {
    let config =
        FuzzConfig { cases: 32, seed: 0xDEAD_BEEF, suite: Suite::All, ..FuzzConfig::default() };
    run_fuzz(config).expect("alternate-seed fuzz run must be clean");
}

/// The removed `engine` suite name is a usage error that lists the
/// valid suites, not a silent fallback.
#[test]
fn unknown_suite_exits_2_listing_the_valid_suites() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mosaic-conformance"))
        .args(["fuzz", "--suite", "engine"])
        .output()
        .expect("mosaic-conformance runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown suite `engine`"), "stderr: {stderr}");
    assert!(stderr.contains("vm, mgr, system, multigpu, all"), "stderr: {stderr}");
}

/// A divergence exits 1 even when nobody reads the repro: with stderr
/// closed before the binary writes it, the write fails and is dropped
/// instead of panicking (status 101).
#[test]
fn divergence_exits_1_with_stderr_closed() {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_mosaic-conformance"))
        .args(["fuzz", "--suite", "vm", "--mutate", "fill-ignores-size"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mosaic-conformance runs");
    // Close the only read end of the child's stderr.
    drop(child.stderr.take());
    let status = child.wait().expect("mosaic-conformance exits");
    assert_eq!(status.code(), Some(1), "{status}");
}

/// Injecting a driver fault that skips the TLB flush after a splinter
/// must be caught, and the shrinker must reduce it to a tiny repro.
#[test]
fn mutation_skip_flush_large_is_caught() {
    let config = FuzzConfig {
        suite: Suite::Vm,
        mutation: Mutation::SkipFlushLarge,
        ..FuzzConfig::default()
    };
    let failure = run_fuzz(config).expect_err("stale large TLB entries must diverge");
    assert_eq!(failure.suite, "vm");
    assert!(
        failure.shrunk_ops <= 12,
        "shrunk repro too large: {} ops\n{}",
        failure.shrunk_ops,
        failure.repro
    );
    assert!(failure.repro.contains("run_vm_case"));
}

/// Injecting a fill that ignores the page size must be caught.
#[test]
fn mutation_fill_ignores_size_is_caught() {
    let config = FuzzConfig {
        suite: Suite::Vm,
        mutation: Mutation::FillIgnoresSize,
        ..FuzzConfig::default()
    };
    let failure = run_fuzz(config).expect_err("wrong-array fills must diverge");
    assert!(failure.shrunk_ops <= 12, "shrunk repro too large: {} ops", failure.shrunk_ops);
}

/// Injecting a lookup that fails to update LRU recency must be caught.
#[test]
fn mutation_lookup_skips_recency_is_caught() {
    let config = FuzzConfig {
        suite: Suite::Vm,
        mutation: Mutation::LookupSkipsRecency,
        ..FuzzConfig::default()
    };
    let failure = run_fuzz(config).expect_err("stale recency must change evictions");
    assert!(failure.shrunk_ops <= 12, "shrunk repro too large: {} ops", failure.shrunk_ops);
}

/// Shrunken mutation repros replay to the same failure: the rendered
/// schedule, run under the same mutation, still diverges.
#[test]
fn mutation_repro_replays() {
    let ops = vec![
        VmOp::Fill { asid: 2, page: 1024, large: true },
        VmOp::FlushLarge { asid: 2, page: 1026 },
    ];
    run_vm_case(VmConfigKind::PaperL1, &ops, Mutation::SkipFlushLarge)
        .expect_err("skipping flush_large must leave a stale entry");
    run_vm_case(VmConfigKind::PaperL1, &ops, Mutation::None)
        .expect("the same schedule is clean without the fault");
}

/// The demand-paging ledger end to end, deterministically: touches make
/// pages resident, stores dirty them, eviction unmaps whole frames and
/// writes back exactly the dirty pages, and re-touching an evicted page
/// far-faults it back in. The schedule is replayed against every manager
/// flavor; the ledger re-derives residency, dirty state, write-back
/// bytes, and shootdown coverage after every op.
#[test]
fn eviction_ledger_store_evict_refault_is_clean() {
    let ops = vec![
        MgrOp::Reserve { asid: 0, start: 0, pages: 512 },
        MgrOp::Reserve { asid: 1, start: 512, pages: 512 },
        MgrOp::TouchRange { asid: 0, start: 0, pages: 512 },
        MgrOp::TouchRange { asid: 1, start: 512, pages: 512 },
        MgrOp::Store { asid: 0, vpn: 17 },
        MgrOp::Store { asid: 0, vpn: 211 },
        MgrOp::Store { asid: 1, vpn: 700 },
        MgrOp::Store { asid: 1, vpn: 2000 }, // unreserved: must be a no-op
        MgrOp::Evict { bytes: 2 * 2048 * 1024 },
        MgrOp::TouchRange { asid: 0, start: 0, pages: 64 },
        MgrOp::Store { asid: 0, vpn: 17 },
        MgrOp::Evict { bytes: 1 },
        MgrOp::Evict { bytes: 64 * 2048 * 1024 }, // beyond capacity: drains what it can
    ];
    for kind in [
        MgrKind::MosaicDefault,
        MgrKind::MosaicBulk,
        MgrKind::MosaicIdeal,
        MgrKind::MosaicNoCac,
        MgrKind::GpuMmuBase,
        MgrKind::GpuMmuLarge,
        MgrKind::Migrating,
    ] {
        run_mgr_case(kind, 4, &ops).unwrap_or_else(|d| panic!("{kind:?}: {d}"));
    }
}

// ---------------------------------------------------------------------
// Pinned regressions. Each schedule below is verbatim shrinker output
// from a fuzz run against the buggy code; each now passes because the
// bug is fixed. They are ordinary lockstep cases, so any reintroduction
// of the bug turns them red again.
// ---------------------------------------------------------------------

/// MigratingManager regression: re-touching a hole inside a promoted
/// (coalesced) region went through the interleaved allocator and mapped
/// an arbitrary frame, breaking the page table's contiguity invariant
/// ("coalesced into LargeFrameNum(..) but some PTE is not contiguous").
/// The fix restores the hole's contiguous slot, like gpu_mmu's
/// large-page path. Shrunk from a 100+-op schedule to 4 ops.
#[test]
fn regression_migrating_hole_retouch_after_promotion() {
    let ops = vec![
        MgrOp::Reserve { asid: 0, start: 512, pages: 512 },
        MgrOp::TouchRange { asid: 0, start: 558, pages: 427 },
        MgrOp::Dealloc { asid: 0, start: 332, pages: 462 },
        MgrOp::TouchRange { asid: 0, start: 535, pages: 71 },
    ];
    run_mgr_case(MgrKind::Migrating, 4, &ops).unwrap();
}

/// GpuMmu regression: `touch` inserted the page into the touched set
/// *before* attempting allocation, so a touch that failed with
/// OutOfMemory still inflated `touched_bytes` (real 2809856 vs ledger
/// 2805760 in the original divergence). MigratingManager had the same
/// ordering bug. Shrunk to 10 ops.
#[test]
fn regression_gpu_mmu_failed_touch_inflates_touched_bytes() {
    let ops = vec![
        MgrOp::Reserve { asid: 0, start: 1040, pages: 114 },
        MgrOp::Reserve { asid: 1, start: 512, pages: 512 },
        MgrOp::Reserve { asid: 1, start: 1024, pages: 512 },
        MgrOp::Touch { asid: 1, vpn: 735 },
        MgrOp::TouchRange { asid: 0, start: 825, pages: 421 },
        MgrOp::Touch { asid: 1, vpn: 1046 },
        MgrOp::Reserve { asid: 0, start: 0, pages: 512 },
        MgrOp::Reserve { asid: 0, start: 611, pages: 75 },
        MgrOp::Touch { asid: 0, vpn: 683 },
        MgrOp::Touch { asid: 0, vpn: 315 },
    ];
    run_mgr_case(MgrKind::GpuMmuLarge, 4, &ops).unwrap();
}

/// MosaicManager regression: `stats()` tallied Splintered/Coalesced
/// events only on the deallocate path, so splinters performed by the
/// CAC during a touch-path reclaim incremented nothing ("splinters
/// counter 0 vs 1 events"). `stats()` now reads the CAC's own counters,
/// the single source of truth. Shrunk to 8 ops.
#[test]
fn regression_mosaic_touch_path_splinter_not_counted() {
    let ops = vec![
        MgrOp::Reserve { asid: 0, start: 1024, pages: 512 },
        MgrOp::TouchRange { asid: 0, start: 1132, pages: 502 },
        MgrOp::Reserve { asid: 0, start: 0, pages: 512 },
        MgrOp::Reserve { asid: 1, start: 512, pages: 512 },
        MgrOp::TouchRange { asid: 0, start: 199, pages: 150 },
        MgrOp::TouchRange { asid: 0, start: 934, pages: 234 },
        MgrOp::Dealloc { asid: 0, start: 650, pages: 483 },
        MgrOp::TouchRange { asid: 1, start: 682, pages: 135 },
    ];
    run_mgr_case(MgrKind::MosaicDefault, 2, &ops).unwrap();
}

/// CAC regression: `reclaim` popped a single emergency-list entry and
/// splintered it unconditionally. An entry whose holes had since been
/// re-touched back to full occupancy yielded zero free frames — the
/// splinter destroyed a good large page for nothing, the retry allocation
/// failed, and the Splintered event was dropped on the error path while
/// the counter had already incremented ("splinters counter 1 vs 0
/// events", then a spurious OutOfMemory). `reclaim` now walks the list,
/// skipping full entries, until one actually donates frames. Shrunk to
/// 8 ops.
#[test]
fn regression_cac_reclaim_splinters_refilled_emergency_entry() {
    let ops = vec![
        MgrOp::Reserve { asid: 1, start: 512, pages: 512 },
        MgrOp::TouchRange { asid: 1, start: 740, pages: 439 },
        MgrOp::TouchRange { asid: 1, start: 374, pages: 420 },
        MgrOp::Dealloc { asid: 1, start: 434, pages: 117 },
        MgrOp::Reserve { asid: 1, start: 0, pages: 512 },
        MgrOp::Reserve { asid: 1, start: 1024, pages: 512 },
        MgrOp::TouchRange { asid: 1, start: 319, pages: 258 },
        MgrOp::Touch { asid: 1, vpn: 1283 },
    ];
    run_mgr_case(MgrKind::MosaicDefault, 2, &ops).unwrap();
}
