//! Store durability and corruption tolerance: entries survive process
//! boundaries (simulated by reopening the store), and any damaged or
//! stale on-disk state degrades to a cache miss — never an error, never
//! a wrong result.

use mosaic_campaign::{Digest, Store};
use mosaic_core::ManagerStats;
use mosaic_gpusim::{AppResult, ManagerKind, RunConfig, RunResult, SystemStats};
use mosaic_telemetry::{StallBreakdown, StallBucket};
use mosaic_workloads::Workload;
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
    std::fs::write(&entry_path, full.replace("total_cycles=2000", "total_cycles=garbage")).unwrap();
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
