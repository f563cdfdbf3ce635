//! The multi-GPU suite: differential testing of [`PlacementMap`] against
//! a frame-residency oracle, plus periodic full-system fleet runs.
//!
//! The placement map is the fleet's source of truth for *where every 2 MB
//! region lives*, and the whole scale-out model rests on its residency
//! invariant: a region has exactly one owner, replicas are explicit
//! read-only copies that never include the owner, and a written region is
//! resident on its owner only. `OracleResidency` re-derives all of that
//! from the access stream with the dumbest possible data structures
//! (one `BTreeSet` of replica devices per region, no bitmasks, no cached
//! stats) and predicts every [`PlacementOutcome`] independently; any
//! disagreement — outcome, ownership, replica set, or accounting — is a
//! divergence.
//!
//! Every eighth case also runs one small full-system fleet simulation
//! twice, audited and unaudited, and demands bit-identical results: the
//! runtime audit (which sweeps placement residency among its checks)
//! must stay side-effect free on a fleet, and the fleet stats must obey
//! the payload-accounting identity `fleet_copy_bytes = 2 MB ×
//! (migrations + replications)`.

use crate::harness::Divergence;
use mosaic_core::{PlacementMap, PlacementOutcome, PlacementPolicy};
use mosaic_gpusim::{run_workload, RunConfig, Topology};
use mosaic_sim_core::SimRng;
use mosaic_vm::{AppId, LargePageNum, LARGE_PAGE_SIZE};
use mosaic_workloads::{ScaleConfig, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// One step of a placement schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiGpuOp {
    /// A warp access from `gpu` to region `(asid, lpn)`.
    Access {
        /// Address space.
        asid: u64,
        /// Large-page region number.
        lpn: u64,
        /// Accessing device.
        gpu: usize,
        /// Store (true) or load (false).
        store: bool,
    },
    /// The region was deallocated; placement must forget it.
    Remove {
        /// Address space.
        asid: u64,
        /// Large-page region number.
        lpn: u64,
    },
}

/// A generated multi-GPU case: a fleet shape plus an access schedule.
#[derive(Debug, Clone)]
pub struct MultiGpuCase {
    /// Fleet size (1, 2, or 4 devices).
    pub gpus: usize,
    /// Placement policy in force.
    pub policy: PlacementPolicy,
    /// The access/removal schedule.
    pub ops: Vec<MultiGpuOp>,
}

/// Generates the multi-GPU case for `(seed, index)`. Deterministic: the
/// same pair always yields the same case. Region and app spaces are kept
/// tiny so schedules revisit regions often — migration ping-pong,
/// replica invalidation, and re-first-touch after removal all need
/// repeated visits to fire.
pub fn gen_multigpu_case(seed: u64, index: u64, max_ops: usize) -> MultiGpuCase {
    let mut rng = SimRng::from_seed(seed).fork("conformance-multigpu", index);
    let gpus = [1, 2, 4][rng.below(3) as usize];
    let policy = match rng.below(4) {
        0 => PlacementPolicy::FirstTouch,
        1 => PlacementPolicy::ReplicateReadOnly,
        // Weighted toward migration: it is the only policy that moves
        // ownership, so it stresses the residency invariant hardest.
        _ => PlacementPolicy::MigrateOnThreshold { threshold: 1 + rng.below(5) as u32 },
    };
    let count = 1 + rng.below(max_ops as u64) as usize;
    let ops = (0..count)
        .map(|_| {
            if rng.chance(0.05) {
                MultiGpuOp::Remove { asid: rng.below(3), lpn: rng.below(8) }
            } else {
                MultiGpuOp::Access {
                    asid: rng.below(3),
                    lpn: rng.below(8),
                    gpu: rng.below(gpus as u64) as usize,
                    store: rng.chance(0.3),
                }
            }
        })
        .collect();
    MultiGpuCase { gpus, policy, ops }
}

/// Naive per-region residency state: sets instead of bitmasks, explicit
/// counters, nothing cached.
#[derive(Debug, Clone)]
struct OracleHome {
    owner: usize,
    replicas: BTreeSet<usize>,
    written: bool,
    remote: Vec<u32>,
}

/// The obviously-correct residency model the placement map is diffed
/// against.
#[derive(Debug, Default)]
struct OracleResidency {
    homes: BTreeMap<(u64, u64), OracleHome>,
    remote_accesses: u64,
    migrations: u64,
    replications: u64,
    invalidations: u64,
}

impl OracleResidency {
    /// Replays one access, returning the outcome the real map must report.
    fn access(
        &mut self,
        gpus: usize,
        policy: PlacementPolicy,
        asid: u64,
        lpn: u64,
        gpu: usize,
        store: bool,
    ) -> PlacementOutcome {
        let home = self.homes.entry((asid, lpn)).or_insert_with(|| OracleHome {
            owner: gpu,
            replicas: BTreeSet::new(),
            written: false,
            remote: vec![0; gpus],
        });
        if store {
            home.written = true;
            self.invalidations += home.replicas.len() as u64;
            home.replicas.clear();
        }
        if home.owner == gpu || (!store && home.replicas.contains(&gpu)) {
            return PlacementOutcome::Local;
        }
        self.remote_accesses += 1;
        match policy {
            PlacementPolicy::MigrateOnThreshold { threshold } => {
                home.remote[gpu] += 1;
                if home.remote[gpu] == threshold.max(1) {
                    let from = home.owner;
                    home.owner = gpu;
                    home.remote = vec![0; gpus];
                    self.invalidations += home.replicas.len() as u64;
                    home.replicas.clear();
                    self.migrations += 1;
                    return PlacementOutcome::Migrate { from };
                }
                PlacementOutcome::Remote { owner: home.owner }
            }
            PlacementPolicy::ReplicateReadOnly if !store && !home.written => {
                home.replicas.insert(gpu);
                self.replications += 1;
                PlacementOutcome::Replicate { from: home.owner }
            }
            _ => PlacementOutcome::Remote { owner: home.owner },
        }
    }
}

/// Replays `case` through [`PlacementMap`] and the oracle in lockstep.
///
/// # Errors
///
/// A [`Divergence`] naming the first op where the outcome, the residency
/// state, or the accounting disagrees.
pub fn run_multigpu_case(case: &MultiGpuCase) -> Result<(), Divergence> {
    let mut map = PlacementMap::new(case.gpus, case.policy);
    let mut oracle = OracleResidency::default();
    let fail = |step: usize, op: MultiGpuOp, detail: String| {
        Err(Divergence { step, op: format!("{op:?}"), detail })
    };
    for (step, &op) in case.ops.iter().enumerate() {
        match op {
            MultiGpuOp::Access { asid, lpn, gpu, store } => {
                let expected = oracle.access(case.gpus, case.policy, asid, lpn, gpu, store);
                let got = map.access(AppId(asid as u16), LargePageNum(lpn), gpu, store);
                if got != expected {
                    return fail(step, op, format!("outcome: map {got:?}, oracle {expected:?}"));
                }
            }
            MultiGpuOp::Remove { asid, lpn } => {
                map.remove(AppId(asid as u16), LargePageNum(lpn));
                oracle.homes.remove(&(asid, lpn));
            }
        }
        // Residency invariant, re-checked after every op: one owner per
        // region, replicas an explicit read-only set that never includes
        // the owner and never survives a write.
        for (&(asid, lpn), home) in &oracle.homes {
            let key = (AppId(asid as u16), LargePageNum(lpn));
            let owner = map.owner(key.0, key.1);
            if owner != Some(home.owner) {
                return fail(
                    step,
                    op,
                    format!("region {asid}/{lpn} owner: map {owner:?}, oracle {}", home.owner),
                );
            }
            let replicas: BTreeSet<usize> = map.replicas(key.0, key.1).into_iter().collect();
            if replicas != home.replicas {
                return fail(
                    step,
                    op,
                    format!(
                        "region {asid}/{lpn} replicas: map {replicas:?}, oracle {:?}",
                        home.replicas
                    ),
                );
            }
            if replicas.contains(&home.owner) {
                return fail(
                    step,
                    op,
                    format!("region {asid}/{lpn} resident twice on device {}", home.owner),
                );
            }
            if home.written && !replicas.is_empty() {
                return fail(
                    step,
                    op,
                    format!("region {asid}/{lpn} written yet replicated on {replicas:?}"),
                );
            }
        }
    }
    let s = *map.stats();
    let expect = [
        ("remote_accesses", s.remote_accesses, oracle.remote_accesses),
        ("migrations", s.migrations, oracle.migrations),
        ("migrated_bytes", s.migrated_bytes, oracle.migrations * LARGE_PAGE_SIZE),
        ("replications", s.replications, oracle.replications),
        ("replicated_bytes", s.replicated_bytes, oracle.replications * LARGE_PAGE_SIZE),
        ("replica_invalidations", s.replica_invalidations, oracle.invalidations),
    ];
    for (name, got, want) in expect {
        if got != want {
            return Err(Divergence {
                step: case.ops.len(),
                op: "final stats".to_string(),
                detail: format!("{name}: map {got}, oracle {want}"),
            });
        }
    }
    if map.regions() != oracle.homes.len() {
        return Err(Divergence {
            step: case.ops.len(),
            op: "final stats".to_string(),
            detail: format!("regions: map {}, oracle {}", map.regions(), oracle.homes.len()),
        });
    }
    Ok(())
}

/// Runs one small full-system fleet simulation for `(seed, index)` twice
/// — audited and unaudited — and checks bit-identity plus the fleet
/// stats identities. Expensive relative to the op-stream oracle, so the
/// fuzz loop only calls it on a subsample of cases.
///
/// # Errors
///
/// A [`Divergence`] describing the violated run-level invariant.
pub fn run_multigpu_system_case(seed: u64, index: u64) -> Result<(), Divergence> {
    let mut rng = SimRng::from_seed(seed).fork("conformance-multigpu-sys", index);
    let gpus = [2, 4][rng.below(2) as usize];
    let topology = if rng.chance(0.5) { Topology::FullyConnected } else { Topology::Ring };
    let policy = match rng.below(3) {
        0 => PlacementPolicy::FirstTouch,
        1 => PlacementPolicy::ReplicateReadOnly,
        _ => PlacementPolicy::MigrateOnThreshold { threshold: 2 + rng.below(4) as u32 },
    };
    let mut apps = vec!["MM", "GUPS", "HS", "CONS"];
    rng.shuffle(&mut apps);
    apps.truncate(1 + rng.below(2) as usize);
    let mut cfg = mosaic_gpusim::RunConfig::new(mosaic_gpusim::ManagerKind::mosaic()).with_scale(
        ScaleConfig { ws_divisor: 64, mem_ops_per_warp: 12, warps_per_sm: 3, phases: 1 },
    );
    cfg.system.sm_count = 3;
    cfg.seed = rng.below(1 << 16);
    let cfg: RunConfig = cfg.multi_gpu(gpus, topology).with_placement(policy);
    let workload = Workload::from_names(&apps);
    let plain = run_workload(&workload, cfg);
    let audited = run_workload(&workload, cfg.audited(5_000));
    let fail = |detail: String| {
        Err(Divergence { step: 0, op: format!("fleet run {gpus}x {topology:?}"), detail })
    };
    if plain != audited {
        return fail("audited fleet run differs from unaudited run".to_string());
    }
    let s = &plain.stats;
    let copies = s.fleet_migrations + s.fleet_replications;
    if s.fleet_copy_bytes != copies * LARGE_PAGE_SIZE {
        return fail(format!(
            "copy accounting: {} bytes for {copies} region copies",
            s.fleet_copy_bytes
        ));
    }
    if s.remote_accesses > 0 && s.interconnect_bytes == 0 {
        return fail(format!(
            "{} remote accesses moved zero interconnect bytes",
            s.remote_accesses
        ));
    }
    match policy {
        PlacementPolicy::FirstTouch if copies != 0 => {
            fail(format!("first-touch copied {copies} regions"))
        }
        PlacementPolicy::ReplicateReadOnly if s.fleet_migrations != 0 => {
            fail(format!("replicate-read-only migrated {} regions", s.fleet_migrations))
        }
        PlacementPolicy::MigrateOnThreshold { .. } if s.fleet_replications != 0 => {
            fail(format!("migrate-on-threshold replicated {} regions", s.fleet_replications))
        }
        _ => Ok(()),
    }
}

/// Renders a multi-GPU-suite failure as a copy-pasteable Rust test body.
pub fn render_multigpu_repro(case: &MultiGpuCase, ops: &[MultiGpuOp], detail: &str) -> String {
    let mut s = String::new();
    s.push_str("// Repro emitted by the conformance multi-GPU suite.\n");
    s.push_str("// Paste into crates/conformance/tests/ and adjust the test name.\n");
    s.push_str("#[test]\nfn multigpu_divergence_repro() {\n");
    s.push_str("    use mosaic_conformance::{run_multigpu_case, MultiGpuCase, MultiGpuOp};\n");
    s.push_str("    use mosaic_core::PlacementPolicy;\n");
    s.push_str("    let case = MultiGpuCase {\n");
    s.push_str(&format!("        gpus: {},\n", case.gpus));
    s.push_str(&format!("        policy: PlacementPolicy::{:?},\n", case.policy));
    s.push_str("        ops: vec![\n");
    for op in ops {
        s.push_str(&format!("            MultiGpuOp::{op:?},\n"));
    }
    s.push_str("        ],\n    };\n");
    s.push_str("    run_multigpu_case(&case).unwrap();\n");
    s.push_str("}\n");
    s.push_str(&format!("// Original divergence: {detail}\n"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let a = gen_multigpu_case(7, 3, 50);
        let b = gen_multigpu_case(7, 3, 50);
        assert_eq!(a.gpus, b.gpus);
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.ops, b.ops);
        assert!(!a.ops.is_empty() && a.ops.len() <= 50);
        assert!(matches!(a.gpus, 1 | 2 | 4));
    }

    #[test]
    fn generated_cases_pass_against_the_oracle() {
        for index in 0..64 {
            let case = gen_multigpu_case(0xC0FFEE, index, 120);
            run_multigpu_case(&case).unwrap_or_else(|d| {
                panic!(
                    "case {index} diverged: {d}\n{}",
                    render_multigpu_repro(&case, &case.ops, &d.to_string())
                )
            });
        }
    }

    #[test]
    fn oracle_catches_a_wrong_outcome() {
        // A schedule whose third op replicates: if the map were to report
        // Remote instead, the oracle must flag it. Simulate the fault by
        // diffing against a policy mismatch (oracle sees replicate-ro,
        // map runs first-touch).
        let case = MultiGpuCase {
            gpus: 2,
            policy: PlacementPolicy::ReplicateReadOnly,
            ops: vec![
                MultiGpuOp::Access { asid: 0, lpn: 0, gpu: 0, store: false },
                MultiGpuOp::Access { asid: 0, lpn: 0, gpu: 1, store: false },
            ],
        };
        // Sanity: the honest pairing passes.
        run_multigpu_case(&case).unwrap();
        // Dishonest map: replay the same ops through a first-touch map
        // while the oracle expects replication.
        let mut map = PlacementMap::new(2, PlacementPolicy::FirstTouch);
        let mut oracle = OracleResidency::default();
        let _ = oracle.access(2, case.policy, 0, 0, 0, false);
        let first = map.access(AppId(0), LargePageNum(0), 0, false);
        assert_eq!(first, PlacementOutcome::Local);
        let expected = oracle.access(2, case.policy, 0, 0, 1, false);
        let got = map.access(AppId(0), LargePageNum(0), 1, false);
        assert_ne!(got, expected, "the oracle distinguishes remote from replicate");
    }

    #[test]
    fn full_system_case_passes() {
        run_multigpu_system_case(0xC0FFEE, 0).unwrap();
    }
}
