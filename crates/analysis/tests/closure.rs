//! Pins the computed hot-path closure against the real tree.
//!
//! The analyzer used to carry a hand-maintained `HOT_PATH_FILES` list of
//! ten files. The closure is computed from the call graph now; these
//! tests pin that the computation covers everything the old list did
//! (the old list is frozen here as history — it must never be the
//! implementation again) and that it finds the hot files the list
//! missed, the whole point of computing it.

use mosaic_audit::Workspace;
use std::path::Path;

/// The deleted `HOT_PATH_FILES` constant, frozen at its final value. The
/// computed closure must always cover it: a regression here means the
/// graph lost edges the old list knew about.
const OLD_HOT_PATH_FILES: [&str; 10] = [
    "crates/gpu/src/sm.rs",
    "crates/gpu/src/warp.rs",
    "crates/gpusim/src/system.rs",
    "crates/iobus/src/lib.rs",
    "crates/mem/src/cache.rs",
    "crates/mem/src/dram.rs",
    "crates/mem/src/xbar.rs",
    "crates/vm/src/tlb.rs",
    "crates/vm/src/walk_cache.rs",
    "crates/vm/src/walker.rs",
];

fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    Workspace::load(&root).unwrap()
}

#[test]
fn computed_closure_covers_the_old_hot_file_list() {
    let closure = real_workspace().closure();
    let files = closure.files();
    for old in OLD_HOT_PATH_FILES {
        assert!(
            files.contains(&old),
            "computed closure lost {old}, which the deleted HOT_PATH_FILES had;\nclosure files: {files:#?}"
        );
    }
}

#[test]
fn computed_closure_finds_hot_files_the_old_list_missed() {
    // The managers run inside warp_access (fault handling) and
    // deallocate (compaction); the old list never covered them. If these
    // drop out, the closure stopped seeing through the manager dispatch.
    let closure = real_workspace().closure();
    let files = closure.files();
    for new in [
        "crates/core/src/mosaic_mgr.rs",
        // The resident-memory core every manager faults, unmaps and
        // evicts through.
        "crates/core/src/resident.rs",
        "crates/core/src/cocoa.rs",
        "crates/core/src/cac.rs",
        "crates/sim-core/src/queue.rs",
        "crates/vm/src/page_table.rs",
        // The multi-GPU fleet path: placement decides residency on every
        // L1-missing access, and remote traffic rides the interconnect.
        "crates/core/src/placement.rs",
        "crates/mem/src/interconnect.rs",
    ] {
        assert!(files.contains(&new), "{new} missing from closure: {files:#?}");
    }
}

#[test]
fn every_entry_point_resolves_on_the_real_tree() {
    let closure = real_workspace().closure();
    assert!(
        closure.unresolved_entries().is_empty(),
        "stale entry specs: {:#?}",
        closure.unresolved_entries()
    );
    // Every entry also resolves to exactly one definition on this tree —
    // a second match would mean the graph is merging unrelated types.
    for entry in &closure.entries {
        assert_eq!(entry.resolved.len(), 1, "{}: {:#?}", entry.spec, entry.resolved);
    }
}

#[test]
fn closure_is_substantial_but_not_everything() {
    let ws = real_workspace();
    let closure = ws.closure();
    let total: usize = ws
        .files
        .iter()
        .filter(|f| mosaic_audit::rules::is_cycle_crate(&f.path))
        .map(|f| f.fns.len())
        .sum();
    assert!(closure.members.len() >= 100, "only {} members", closure.members.len());
    assert!(
        closure.members.len() < total,
        "closure swallowed every one of the {total} cycle-crate functions — \
         the over-approximation collapsed into 'everything is hot'"
    );
}

#[test]
fn closure_covers_the_bulk_operation_fast_paths() {
    // The O(1) bulk paths: a page copy books each hop as one port train
    // over an allocation-free route, and region shootdowns (from
    // `deallocate` and the eviction pump) remove their entries in one
    // pass over each TLB. They run on every migration and unmap, so they
    // must stay hot. So must the page sets every fault updates (the
    // touched working set, the evicted-page ledger).
    let closure = real_workspace().closure();
    for (ty, name) in [
        ("ThroughputPort", "acquire_train"),
        ("Interconnect", "transfer"),
        ("Interconnect", "route"),
        ("Topology", "hops"),
        ("Tlb", "flush_base_range"),
        ("TranslationArray", "invalidate_range"),
        ("TranslationArray", "remove_where"),
        ("PageSet", "insert"),
        ("PageSet", "remove"),
    ] {
        assert!(
            closure.members.iter().any(|m| m.self_ty.as_deref() == Some(ty) && m.name == name),
            "{ty}::{name} missing from closure"
        );
    }
}

#[test]
fn closure_covers_the_lookahead_isolated_stages() {
    // Lookahead isolation prices a stage nominally when it starts past
    // the window. The nominal interconnect prices and each device's
    // shared L2→DRAM stage (the walker's PTE fetches and the data path
    // both run it, contended or not) sit on every L1-missing access, so
    // the hot-path rules must keep covering them.
    let closure = real_workspace().closure();
    for (ty, name) in [
        ("Interconnect", "traverse_nominal"),
        ("Interconnect", "transfer_nominal"),
        ("Device", "walk"),
        ("Partitions", "access"),
        ("GpuSystem", "resident"),
    ] {
        assert!(
            closure.members.iter().any(|m| m.self_ty.as_deref() == Some(ty) && m.name == name),
            "{ty}::{name} missing from closure"
        );
    }
}

#[test]
fn closure_covers_the_walker_table_and_dram_decode() {
    // Every walk probes the walker's in-flight table and every retirement
    // deletes from it; every fleet access that misses its L1 resolves
    // through the placement map's table (`PlacementMap::access`), which
    // can grow it; every L2 miss decodes its DRAM channel, bank and row.
    // The hot-path rules (no `unwrap`/`expect`, no std hash containers)
    // must keep covering all of them.
    let closure = real_workspace().closure();
    for (ty, name) in [
        ("OpenTable", "home"),
        ("OpenTable", "find"),
        ("OpenTable", "get"),
        ("OpenTable", "get_or_insert"),
        ("OpenTable", "insert"),
        ("OpenTable", "remove"),
        ("OpenTable", "grow"),
        ("WalkRequest", "mix"),
        ("Region", "mix"),
        ("Dram", "locate"),
        ("Dram", "channel_of"),
    ] {
        assert!(
            closure.members.iter().any(|m| m.self_ty.as_deref() == Some(ty) && m.name == name),
            "{ty}::{name} missing from closure"
        );
    }
}

#[test]
fn closure_covers_the_tlb_index_and_cache_access() {
    // Every TLB lookup and fill probes its array's open-addressed index,
    // every eviction and flush deletes from it by backward shift, and a
    // large bulk flush rebuilds it; every L1-missing access runs
    // `Cache::access`. None of them may `unwrap` or `expect`.
    let closure = real_workspace().closure();
    for (ty, name) in [
        ("TranslationArray", "probe"),
        ("TranslationArray", "insert"),
        ("TranslationArray", "unlink"),
        ("TranslationArray", "rebuild"),
        ("Cache", "access"),
    ] {
        assert!(
            closure.members.iter().any(|m| m.self_ty.as_deref() == Some(ty) && m.name == name),
            "{ty}::{name} missing from closure"
        );
    }
}

#[test]
fn the_benchmark_harness_is_loaded_as_a_caller() {
    // `mosaic_gpusim::set_sim_threads` has one caller, the frozen
    // benchmark harness under `simbench/src`: if the harness stopped
    // being loaded, `test-only` would flag the function, and deleting it
    // would break the benchmark's build.
    let ws = real_workspace();
    let reached = mosaic_audit::graph::reached(&ws.files);
    assert!(
        reached.members.iter().any(|m| m.name == "set_sim_threads"),
        "set_sim_threads is no longer reached"
    );
    assert!(ws.files.iter().any(|f| f.path == "simbench/src/main.rs"));
}
