//! Multi-GPU fleet integration tests: weak scaling, remote traffic,
//! placement policies, and run determinism at N > 1.

use mosaic_core::PlacementPolicy;
use mosaic_gpusim::{run_workload, ManagerKind, RunConfig, Topology};
use mosaic_workloads::{ScaleConfig, Workload};

fn fleet_cfg(gpus: usize, topology: Topology) -> RunConfig {
    let mut cfg = RunConfig::new(ManagerKind::mosaic()).with_scale(ScaleConfig {
        ws_divisor: 64,
        mem_ops_per_warp: 20,
        warps_per_sm: 4,
        phases: 1,
    });
    cfg.system.sm_count = 4;
    cfg.multi_gpu(gpus, topology)
}

/// Serialize the full result (apps + stats) for byte-comparison.
fn digest(r: &mosaic_gpusim::RunResult) -> String {
    format!("{r:?}")
}

#[test]
fn two_gpu_fleet_completes_and_goes_remote() {
    let w = Workload::from_names(&["MM", "GUPS"]);
    let r = run_workload(&w, fleet_cfg(2, Topology::FullyConnected));
    assert!(r.apps.iter().all(|a| a.instructions > 0));
    // Apps stripe round-robin across all 8 SMs, so both devices touch
    // both apps' pages: some 2MB regions must resolve remotely.
    assert!(r.stats.remote_accesses > 0, "no remote accesses in a 2-GPU run");
    assert!(r.stats.interconnect_bytes > 0);
    use mosaic_telemetry::StallBucket;
    let remote: u64 = r.apps.iter().map(|a| a.stall.get(StallBucket::Remote)).sum();
    assert!(remote > 0, "remote stall bucket attributes interconnect waits");
}

#[test]
fn single_gpu_fleet_has_no_fleet_traffic() {
    let w = Workload::from_names(&["MM"]);
    let r = run_workload(&w, fleet_cfg(1, Topology::FullyConnected));
    assert_eq!(r.stats.remote_accesses, 0);
    assert_eq!(r.stats.interconnect_bytes, 0);
    assert_eq!(r.stats.fleet_migrations, 0);
}

#[test]
fn fleet_weak_scales_the_machine() {
    let w = Workload::from_names(&["MM"]);
    let one = run_workload(&w, fleet_cfg(1, Topology::FullyConnected));
    let four = run_workload(&w, fleet_cfg(4, Topology::FullyConnected));
    // 4 GPUs field 4x the SMs and thus retire 4x the warp instructions.
    assert_eq!(four.apps[0].instructions, 4 * one.apps[0].instructions);
}

#[test]
fn fleet_runs_are_deterministic() {
    let w = Workload::from_names(&["HS", "CONS"]);
    for topology in [Topology::FullyConnected, Topology::Ring] {
        let a = run_workload(&w, fleet_cfg(4, topology));
        let b = run_workload(&w, fleet_cfg(4, topology));
        assert_eq!(digest(&a), digest(&b), "{topology:?}");
    }
}

#[test]
fn replication_localizes_read_only_regions() {
    let w = Workload::from_names(&["MM", "MM"]);
    let base = run_workload(&w, fleet_cfg(2, Topology::FullyConnected));
    let repl = run_workload(
        &w,
        fleet_cfg(2, Topology::FullyConnected).with_placement(PlacementPolicy::ReplicateReadOnly),
    );
    assert!(repl.stats.fleet_replications > 0, "read-only regions replicate");
    // Every replicated region then services its reader locally, so the
    // replicating run sees strictly fewer remote accesses.
    assert!(
        repl.stats.remote_accesses < base.stats.remote_accesses,
        "replication {} vs first-touch {}",
        repl.stats.remote_accesses,
        base.stats.remote_accesses
    );
}

#[test]
fn migration_moves_hot_regions() {
    let w = Workload::from_names(&["GUPS", "MM"]);
    let r = run_workload(
        &w,
        fleet_cfg(2, Topology::FullyConnected)
            .with_placement(PlacementPolicy::MigrateOnThreshold { threshold: 4 }),
    );
    assert!(r.stats.fleet_migrations > 0, "hot remote regions migrate");
    assert_eq!(
        r.stats.fleet_copy_bytes,
        r.stats.fleet_migrations * mosaic_vm::LARGE_PAGE_SIZE,
        "each migration moves exactly one 2MB region"
    );
    use mosaic_telemetry::StallBucket;
    let migrate: u64 = r.apps.iter().map(|a| a.stall.get(StallBucket::Migrate)).sum();
    assert!(migrate > 0, "migration waits land in the migrate bucket");
}

#[test]
fn placement_policies_move_the_outcome() {
    let w = Workload::from_names(&["MM", "GUPS"]);
    let ft = run_workload(&w, fleet_cfg(2, Topology::FullyConnected));
    let mig = run_workload(
        &w,
        fleet_cfg(2, Topology::FullyConnected)
            .with_placement(PlacementPolicy::MigrateOnThreshold { threshold: 2 }),
    );
    assert_ne!(digest(&ft), digest(&mig), "policy is a real simulation axis");
}
