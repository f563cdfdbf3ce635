//! The cache-key contract: the run key must be *complete* (every input
//! that can change simulated output moves it) and *canonical* (nothing
//! else moves it).
//!
//! Completeness is what protects golden output — an output-affecting
//! knob missing from the key would let two different runs share one
//! entry, serving wrong results. Canonicity is what makes the cache
//! useful — host-side execution knobs (`--jobs`, `audit_every`) must
//! not fork the key space, or re-runs under different parallelism
//! would never hit.

use mosaic_campaign::digest::{run_key, Digest};
use mosaic_core::cac::CacConfig;
use mosaic_core::migrating::MigratingConfig;
use mosaic_gpusim::{DemandPagingMode, ManagerKind, PlacementPolicy, RunConfig, Topology};
use mosaic_workloads::Workload;

fn base() -> (Workload, RunConfig) {
    (Workload::from_names(&["MM"]), RunConfig::new(ManagerKind::GpuMmu4K))
}

const CODE: Digest = Digest(0xfeed);

#[test]
fn key_is_a_pure_function_of_its_inputs() {
    let (w, cfg) = base();
    assert_eq!(run_key(&w, &cfg, CODE), run_key(&w, &cfg, CODE));
    let (w2, cfg2) = base();
    assert_eq!(run_key(&w, &cfg, CODE), run_key(&w2, &cfg2, CODE));
}

#[test]
fn output_neutral_knobs_do_not_move_the_key() {
    let (w, cfg) = base();
    let k = run_key(&w, &cfg, CODE);
    // Runtime invariant audits are side-effect free: an audited run and
    // an unaudited run of the same config are bit-identical, so the
    // audit cadence must not fork the key space.
    for audited in [cfg.audited(0), cfg.audited(1), cfg.audited(1_000_000)] {
        assert_eq!(run_key(&w, &audited, CODE), k, "audit_every must be key-neutral");
    }
    // `--jobs` never reaches RunConfig at all (it is a sweep setting
    // with byte-identical output at any value), so the
    // key cannot depend on it by construction; the sweep-level
    // determinism tier pins that output property.
}

/// Every output-affecting `RunConfig` field (and the workload, and the
/// code digest) must move the key, and every mutation must land on a
/// distinct key.
#[test]
fn every_output_affecting_field_moves_the_key() {
    let (w, cfg) = base();
    let mut keys = vec![("base", run_key(&w, &cfg, CODE))];

    let mut mutations: Vec<(&str, RunConfig)> = vec![
        ("manager=mosaic", {
            let mut c = cfg;
            c.manager = ManagerKind::mosaic();
            c
        }),
        ("manager=mosaic-nocac", {
            let mut c = cfg;
            c.manager = ManagerKind::Mosaic(CacConfig::disabled());
            c
        }),
        ("manager=mosaic-bc", {
            let mut c = cfg;
            c.manager = ManagerKind::Mosaic(CacConfig::with_bulk_copy());
            c
        }),
        ("manager=mosaic-ideal", {
            let mut c = cfg;
            c.manager = ManagerKind::Mosaic(CacConfig::ideal());
            c
        }),
        ("manager=gpu-mmu-2m", {
            let mut c = cfg;
            c.manager = ManagerKind::GpuMmu2M;
            c
        }),
        ("manager=migrating", {
            let mut c = cfg;
            c.manager = ManagerKind::Migrating(MigratingConfig::default());
            c
        }),
        ("paging=preloaded", {
            let mut c = cfg;
            c.paging = DemandPagingMode::PreloadedFree;
            c
        }),
        ("seed", {
            let mut c = cfg;
            c.seed = 43;
            c
        }),
        ("fragmentation", {
            let mut c = cfg;
            c.fragmentation = Some((0.5, 0.9));
            c
        }),
        ("oversubscription", {
            let mut c = cfg;
            c.oversubscription = Some(2.0);
            c
        }),
        ("scale.ws_divisor", {
            let mut c = cfg;
            c.scale.ws_divisor *= 2;
            c
        }),
        ("scale.mem_ops_per_warp", {
            let mut c = cfg;
            c.scale.mem_ops_per_warp += 1;
            c
        }),
        ("scale.warps_per_sm", {
            let mut c = cfg;
            c.scale.warps_per_sm += 1;
            c
        }),
        ("scale.phases", {
            let mut c = cfg;
            c.scale.phases += 1;
            c
        }),
        ("system.sm_count", {
            let mut c = cfg;
            c.system.sm_count += 1;
            c
        }),
        ("system.l1_tlb.base", {
            let mut c = cfg;
            c.system.l1_tlb.base_entries /= 2;
            c
        }),
        ("system.l1_tlb.large", {
            let mut c = cfg;
            c.system.l1_tlb.large_entries /= 2;
            c
        }),
        ("system.l2_tlb.base", {
            let mut c = cfg;
            c.system.l2_tlb.base_entries /= 2;
            c
        }),
        ("system.l2_tlb.large", {
            let mut c = cfg;
            c.system.l2_tlb.large_entries /= 2;
            c
        }),
        ("system.walker_threads", {
            let mut c = cfg;
            c.system.walker_threads /= 2;
            c
        }),
        ("system.walk_cache_entries", {
            let mut c = cfg;
            c.system.walk_cache_entries = 16;
            c
        }),
        ("system.memory_bytes", {
            let mut c = cfg;
            c.system.memory_bytes /= 2;
            c
        }),
        ("system.ideal_tlb", {
            let mut c = cfg;
            c.system.ideal_tlb = true;
            c
        }),
    ];
    // Every multi-GPU axis must move the key: fleet size, both
    // interconnect wire parameters, the topology, and the placement
    // policy (including the migrate threshold) all change simulated
    // output, so a cache entry from one fleet shape must never serve
    // another.
    mutations.extend([
        ("fleet.gpus", {
            let mut c = cfg;
            c.fleet.gpus = 2;
            c
        }),
        ("fleet.topology", {
            let mut c = cfg;
            c.fleet.gpus = 2;
            c.fleet.interconnect.topology = Topology::Ring;
            c
        }),
        ("fleet.link_latency", {
            let mut c = cfg;
            c.fleet.gpus = 2;
            c.fleet.interconnect.link_latency *= 2;
            c
        }),
        ("fleet.cycles_per_flit", {
            let mut c = cfg;
            c.fleet.gpus = 2;
            c.fleet.interconnect.cycles_per_flit += 1;
            c
        }),
        ("fleet.placement=replicate", {
            let mut c = cfg;
            c.fleet.gpus = 2;
            c.fleet.placement = PlacementPolicy::ReplicateReadOnly;
            c
        }),
        ("fleet.placement=migrate", {
            let mut c = cfg;
            c.fleet.gpus = 2;
            c.fleet.placement = PlacementPolicy::MigrateOnThreshold { threshold: 8 };
            c
        }),
        ("fleet.placement=migrate(threshold)", {
            let mut c = cfg;
            c.fleet.gpus = 2;
            c.fleet.placement = PlacementPolicy::MigrateOnThreshold { threshold: 16 };
            c
        }),
    ]);
    // Variation inside a manager's policy config must also move the key.
    mutations.push(("manager=mosaic(threshold)", {
        let mut c = cfg;
        let mut cac = CacConfig::default();
        cac.occupancy_threshold /= 2.0;
        c.manager = ManagerKind::Mosaic(cac);
        c
    }));
    for (name, mutated) in &mutations {
        keys.push((name, run_key(&w, mutated, CODE)));
    }
    keys.push(("workload=GUPS", run_key(&Workload::from_names(&["GUPS"]), &cfg, CODE)));
    keys.push(("workload=MM+GUPS", run_key(&Workload::from_names(&["MM", "GUPS"]), &cfg, CODE)));
    keys.push(("code", run_key(&w, &cfg, Digest(0xbeef))));

    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            assert_ne!(
                keys[i].1, keys[j].1,
                "mutations {:?} and {:?} must land on distinct keys",
                keys[i].0, keys[j].0
            );
        }
    }
}
