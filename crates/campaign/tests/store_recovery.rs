//! Store durability and corruption tolerance: entries survive process
//! boundaries (simulated by reopening the store) bit-exactly, and any
//! damaged or stale on-disk state degrades to a cache miss — never an
//! error, never a wrong result.

use mosaic_campaign::{Digest, Store};
use mosaic_core::ManagerStats;
use mosaic_gpusim::{
    run_workload, AppResult, ManagerKind, RunConfig, RunResult, SystemStats, Topology,
};
use mosaic_telemetry::{StallBreakdown, StallBucket};
use mosaic_workloads::{ScaleConfig, Workload};
use std::path::PathBuf;

/// A fresh store directory per test (tests run concurrently).
fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mosaic-store-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic result — the store round-trips values; it does not care
/// whether they came from a real simulation.
fn result(cycles: u64) -> RunResult {
    let mut stall = StallBreakdown::default();
    stall.add(StallBucket::TlbWalk, cycles / 2);
    RunResult {
        workload: "MM".to_string(),
        manager: "GPU-MMU".to_string(),
        apps: vec![AppResult {
            name: "MM".to_string(),
            asid: 0,
            instructions: 10 * cycles,
            cycles,
            ipc: 10.0 / 3.0,
            stall_cycles: cycles / 2,
            stall,
        }],
        stats: SystemStats {
            l1_tlb_hits: 9,
            l1_tlb_total: 10,
            walk_latency_mean: 123.456,
            manager: ManagerStats { far_faults: 7, ..ManagerStats::default() },
            ..SystemStats::default()
        },
        total_cycles: cycles,
    }
}

fn job() -> (Workload, RunConfig) {
    (Workload::from_names(&["MM"]), RunConfig::new(ManagerKind::GpuMmu4K))
}

#[test]
fn entries_survive_reopening() {
    let dir = tmpdir("reopen");
    let (w, cfg) = job();
    let r = result(1000);
    let key = {
        let store = Store::open(&dir).unwrap();
        let key = store.run_key(&w, &cfg);
        assert!(store.lookup(key).is_none());
        store.insert(key, &r, 77);
        let st = store.stats();
        assert_eq!((st.hits, st.misses, st.stores, st.failures), (0, 1, 1, 0));
        key
    };
    // A different process (same code digest) sees the entry.
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.run_key(&w, &cfg), key, "keys are stable across store instances");
    let hit = store.lookup(key).expect("persisted entry");
    assert_eq!(hit.result, r);
    assert_eq!(hit.wall_ms, 77);
    let st = store.stats();
    assert_eq!((st.hits, st.misses, st.saved_ms), (1, 0, 77));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_degrade_to_misses_and_heal_on_reinsert() {
    let dir = tmpdir("corrupt");
    let store = Store::open(&dir).unwrap();
    let (w, cfg) = job();
    let key = store.run_key(&w, &cfg);
    let r = result(2000);
    store.insert(key, &r, 5);
    let entry_path = dir.join("objects").join(format!("{key}.entry"));

    // Truncation (a crash mid-write of a non-atomic copy, disk-full...).
    let full = std::fs::read_to_string(&entry_path).unwrap();
    // (`len - 1` would only shave the final newline, which still parses.)
    for cut in [0, 1, full.len() / 3, full.len() - 2] {
        std::fs::write(&entry_path, &full[..cut]).unwrap();
        assert!(store.lookup(key).is_none(), "truncated at {cut} must miss");
    }
    // Bit-rot in a value.
    let rotted = full.replace("\"total_cycles\":2000", "\"total_cycles\":\"garbage\"");
    assert_ne!(rotted, full);
    std::fs::write(&entry_path, rotted).unwrap();
    assert!(store.lookup(key).is_none());
    // An entry whose self-recorded key disagrees with its filename
    // (e.g. a file copied between stores by hand).
    let other = store.run_key(&Workload::from_names(&["GUPS"]), &cfg);
    std::fs::write(&entry_path, full.replace(&key.to_string(), &other.to_string())).unwrap();
    assert!(store.lookup(key).is_none());

    // Re-inserting over the damage restores service.
    store.insert(key, &r, 5);
    assert_eq!(store.lookup(key).expect("healed").result, r);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_code_digest_invalidates_without_deleting() {
    let dir = tmpdir("stale");
    let (w, cfg) = job();
    let old = Store::open_with_code_digest(&dir, Digest(0x01d)).unwrap();
    let old_key = old.run_key(&w, &cfg);
    old.insert(old_key, &result(4000), 3);

    // "Recompiled" binary: same directory, different code digest.
    let new = Store::open_with_code_digest(&dir, Digest(0x7e3)).unwrap();
    let new_key = new.run_key(&w, &cfg);
    assert_ne!(old_key, new_key, "code digest participates in the key");
    assert!(new.lookup(new_key).is_none(), "stale entries can never serve a newer build");
    // The old build's entry is untouched — roll back the code and it hits.
    let old_again = Store::open_with_code_digest(&dir, Digest(0x01d)).unwrap();
    assert!(old_again.lookup(old_key).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reinsert_overwrites_atomically_and_failures_are_nonfatal() {
    let dir = tmpdir("overwrite");
    let store = Store::open(&dir).unwrap();
    let (w, cfg) = job();
    let key = store.run_key(&w, &cfg);
    store.insert(key, &result(1), 1);
    store.insert(key, &result(2), 2);
    assert_eq!(store.lookup(key).unwrap().result.total_cycles, 2, "last insert wins");
    // No temp files left behind.
    let leftovers: Vec<_> = std::fs::read_dir(dir.join("objects"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files must not survive an insert");

    // Wreck the objects directory: inserts report failure via stats but
    // do not panic, and lookups simply miss.
    std::fs::remove_dir_all(dir.join("objects")).unwrap();
    std::fs::write(dir.join("objects"), b"not a directory").unwrap();
    store.insert(key, &result(3), 3);
    assert_eq!(store.stats().failures, 1);
    assert!(store.lookup(key).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every byte of a stored entry, changed to another byte one position at
/// a time, makes the lookup miss: a value that rots into another valid
/// value (`0.4` → `0.5`) parses, and only the entry's checksum catches it.
#[test]
fn every_changed_byte_is_a_miss() {
    let dir = tmpdir("bitrot");
    let store = Store::open(&dir).unwrap();
    let (w, cfg) = job();
    let key = store.run_key(&w, &cfg);
    let r = result(3000);
    store.insert(key, &r, 9);
    let entry_path = dir.join("objects").join(format!("{key}.entry"));
    let full = std::fs::read(&entry_path).unwrap();
    for pos in 0..full.len() {
        let mut rotted = full.clone();
        // Flip one bit, a different one at each position, so that digits,
        // separators, newlines and the high (non-UTF-8) bit all rot.
        rotted[pos] ^= 1 << (pos % 8);
        std::fs::write(&entry_path, &rotted).unwrap();
        assert!(store.lookup(key).is_none(), "byte {pos} ({:?})", char::from(full[pos]));
    }
    assert_eq!(store.stats().misses, full.len() as u64);
    std::fs::write(&entry_path, &full).unwrap();
    assert_eq!(store.lookup(key).expect("restored").result, r);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small scale that still evicts under oversubscription and goes
/// remote across GPUs.
fn small(manager: ManagerKind) -> RunConfig {
    let scale = ScaleConfig { ws_divisor: 64, mem_ops_per_warp: 20, warps_per_sm: 4, phases: 1 };
    let mut cfg = RunConfig::new(manager).with_scale(scale);
    cfg.system.sm_count = 4;
    cfg
}

/// Every `f64` of a result, as bits, with where it sits.
fn float_bits(r: &RunResult) -> Vec<(String, u64)> {
    let s = &r.stats;
    let mut bits: Vec<(String, u64)> = [
        ("walk_latency_mean", s.walk_latency_mean),
        ("l1_cache_hit_rate", s.l1_cache_hit_rate),
        ("l2_cache_hit_rate", s.l2_cache_hit_rate),
        ("dram_row_hit_rate", s.dram_row_hit_rate),
        ("iobus_queue_mean", s.iobus_queue_mean),
        ("iobus_service_mean", s.iobus_service_mean),
        ("memory_bloat", s.memory_bloat),
    ]
    .into_iter()
    .map(|(name, x)| (name.to_string(), x.to_bits()))
    .collect();
    bits.extend(r.apps.iter().map(|a| (format!("{} ipc", a.name), a.ipc.to_bits())));
    bits
}

/// Real runs of the two scenarios with the most populated fields — a
/// 2-GPU fleet and a 2× oversubscribed run — come back from the store
/// equal under `==` and with every `f64` bit-identical.
#[test]
fn real_fleet_and_oversubscribed_runs_round_trip_bit_exactly() {
    let dir = tmpdir("real");
    let store = Store::open(&dir).unwrap();
    let w = Workload::from_names(&["MM", "GUPS"]);
    let fleet = small(ManagerKind::mosaic()).multi_gpu(2, Topology::FullyConnected);
    let oversub = small(ManagerKind::mosaic()).oversubscribed(2.0);
    let (fleet_run, oversub_run) = (run_workload(&w, fleet), run_workload(&w, oversub));
    assert!(fleet_run.stats.remote_accesses > 0, "the fleet run goes remote");
    assert!(oversub_run.stats.manager.evictions > 0, "the oversubscribed run evicts");
    for (cfg, r) in [(fleet, fleet_run), (oversub, oversub_run)] {
        let key = store.run_key(&w, &cfg);
        store.insert(key, &r, 1);
        let back = store.lookup(key).expect("stored").result;
        assert_eq!(back, r);
        assert_eq!(float_bits(&back), float_bits(&r));
    }
    let st = store.stats();
    assert_eq!((st.stores, st.hits, st.misses), (2, 2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
