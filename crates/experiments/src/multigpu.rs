//! Multi-GPU scale-out: Mosaic vs GPU-MMU on an indexed fleet.
//!
//! MGMark-style workload pairings run at fleet sizes 1/2/4 under both
//! managers. The fleet weak-scales the machine (`g ×` the SMs and the
//! memory), applications stripe round-robin across every device's SMs,
//! and 2MB regions land on whichever device first touches them — so a
//! share of each device's accesses resolve remotely and cross the
//! interconnect. Reported values are system IPC, scaling efficiency
//! against the same manager's single-GPU run (1.0 = perfect weak
//! scaling), and the remote share of warp transactions.
//!
//! A second block probes the page-placement policies at the largest
//! fleet: first-touch vs replicate-read-only vs migrate-on-threshold,
//! under Mosaic on the first pairing.

use crate::common::Scope;
use crate::sweep::Sweep;
use mosaic_gpusim::{ManagerKind, PlacementPolicy, RunResult, Topology};
use mosaic_workloads::Workload;
use std::fmt;

/// The fixed pairings probed at every scope: a streaming/random mix and
/// a cache-friendly/irregular mix.
const PAIRINGS: [[&str; 2]; 2] = [["MM", "GUPS"], ["HS", "CONS"]];

/// Migration threshold for the placement-policy probe.
const MIGRATE_THRESHOLD: u32 = 8;

/// One pairing at one fleet size, both managers.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiGpuRow {
    /// Workload pairing name.
    pub name: String,
    /// Fleet size (number of GPUs).
    pub gpus: usize,
    /// GPU-MMU system IPC (instructions retired ÷ total cycles).
    pub ipc_gpu_mmu: f64,
    /// Mosaic system IPC.
    pub ipc_mosaic: f64,
    /// GPU-MMU weak-scaling efficiency vs its own single-GPU run.
    pub eff_gpu_mmu: f64,
    /// Mosaic weak-scaling efficiency vs its own single-GPU run.
    pub eff_mosaic: f64,
    /// Share of Mosaic's warp transactions serviced remotely.
    pub remote_frac: f64,
    /// Bytes Mosaic moved over the interconnect, in MB.
    pub interconnect_mb: f64,
}

impl MultiGpuRow {
    /// Mosaic's IPC advantage over GPU-MMU at this fleet size.
    pub fn mosaic_vs_gpu_mmu(&self) -> f64 {
        if self.ipc_gpu_mmu == 0.0 {
            0.0
        } else {
            self.ipc_mosaic / self.ipc_gpu_mmu
        }
    }
}

/// One placement policy at the probe fleet size (Mosaic, first pairing).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRow {
    /// Policy label.
    pub policy: String,
    /// System IPC under this policy.
    pub ipc: f64,
    /// Remote accesses under this policy.
    pub remote_accesses: u64,
    /// Inter-GPU migrations performed.
    pub migrations: u64,
    /// Read-only replications performed.
    pub replications: u64,
}

/// The multi-GPU scale-out figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigMultiGpu {
    /// One row per (pairing, fleet size), pairing-major.
    pub rows: Vec<MultiGpuRow>,
    /// Placement-policy probe at the largest fleet.
    pub placement: Vec<PlacementRow>,
}

/// Fleet sizes this scope sweeps.
fn fleets(_scope: Scope) -> &'static [usize] {
    &[1, 2, 4]
}

/// Instructions retired across all applications ÷ total cycles.
fn sys_ipc(r: &RunResult) -> f64 {
    let instr: u64 = r.apps.iter().map(|a| a.instructions).sum();
    if r.total_cycles == 0 {
        0.0
    } else {
        instr as f64 / r.total_cycles as f64
    }
}

/// Runs the experiment.
pub fn run(sweep: &Sweep) -> FigMultiGpu {
    let scope = sweep.scope;
    let fleets = fleets(scope);
    let probe = fleets.iter().copied().max().unwrap_or(1);
    // Pairing-major: both managers at each fleet size, then the two
    // non-default placement policies at the probe fleet.
    let mut jobs = Vec::new();
    for pairing in &PAIRINGS {
        let w = Workload::from_names(pairing);
        for &g in fleets {
            let fleet = |m: ManagerKind| scope.config(m).multi_gpu(g, Topology::FullyConnected);
            jobs.push((w.clone(), fleet(ManagerKind::GpuMmu4K)));
            jobs.push((w.clone(), fleet(ManagerKind::mosaic())));
        }
    }
    let w0 = Workload::from_names(&PAIRINGS[0]);
    let probe_cfg = |p: PlacementPolicy| {
        scope
            .config(ManagerKind::mosaic())
            .multi_gpu(probe, Topology::FullyConnected)
            .with_placement(p)
    };
    jobs.push((w0.clone(), probe_cfg(PlacementPolicy::ReplicateReadOnly)));
    jobs.push((
        w0,
        probe_cfg(PlacementPolicy::MigrateOnThreshold { threshold: MIGRATE_THRESHOLD }),
    ));
    let results = sweep.run_workloads(jobs);

    let per_pairing = 2 * fleets.len();
    let mut rows = Vec::with_capacity(PAIRINGS.len() * fleets.len());
    for (pairing, chunk) in PAIRINGS.iter().zip(results.chunks_exact(per_pairing)) {
        let (base_gpu_mmu, base_mosaic) = (sys_ipc(&chunk[0]), sys_ipc(&chunk[1]));
        for (gi, &g) in fleets.iter().enumerate() {
            let (gpu_mmu, mosaic) = (&chunk[2 * gi], &chunk[2 * gi + 1]);
            let (ipc_g, ipc_m) = (sys_ipc(gpu_mmu), sys_ipc(mosaic));
            let eff = |ipc: f64, base: f64| {
                if base == 0.0 {
                    0.0
                } else {
                    ipc / (g as f64 * base)
                }
            };
            let transactions = mosaic.stats.l1_tlb_total.max(1);
            rows.push(MultiGpuRow {
                name: pairing.join("+"),
                gpus: g,
                ipc_gpu_mmu: ipc_g,
                ipc_mosaic: ipc_m,
                eff_gpu_mmu: eff(ipc_g, base_gpu_mmu),
                eff_mosaic: eff(ipc_m, base_mosaic),
                remote_frac: mosaic.stats.remote_accesses as f64 / transactions as f64,
                interconnect_mb: mosaic.stats.interconnect_bytes as f64 / (1024.0 * 1024.0),
            });
        }
    }

    // Placement probe: first-touch is the probe-fleet Mosaic run already
    // in the scaling block; the two policy overrides follow it.
    let probe_idx = 2 * (fleets.len() - 1) + 1;
    let first_touch = &results[probe_idx];
    let tail = &results[results.len() - 2..];
    let placement =
        [("first-touch", first_touch), ("replicate-ro", &tail[0]), ("migrate", &tail[1])]
            .into_iter()
            .map(|(policy, r)| PlacementRow {
                policy: policy.to_string(),
                ipc: sys_ipc(r),
                remote_accesses: r.stats.remote_accesses,
                migrations: r.stats.fleet_migrations,
                replications: r.stats.fleet_replications,
            })
            .collect();
    FigMultiGpu { rows, placement }
}

impl fmt::Display for FigMultiGpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Multi-GPU scale-out: weak scaling at 1/2/4 GPUs (first-touch placement)")?;
        writeln!(
            f,
            "{:<10} {:>5} {:>9} {:>9} {:>7} {:>8} {:>8} {:>8} {:>8}",
            "workload",
            "gpus",
            "GPU-MMU",
            "Mosaic",
            "ratio",
            "eff-MMU",
            "eff-Mos",
            "remote%",
            "icn-MB"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>5} {:>9.3} {:>9.3} {:>7.3} {:>8.3} {:>8.3} {:>7.1}% {:>8.1}",
                r.name,
                r.gpus,
                r.ipc_gpu_mmu,
                r.ipc_mosaic,
                r.mosaic_vs_gpu_mmu(),
                r.eff_gpu_mmu,
                r.eff_mosaic,
                100.0 * r.remote_frac,
                r.interconnect_mb
            )?;
        }
        writeln!(
            f,
            "placement policies ({} at {} GPUs, Mosaic, migrate threshold {}):",
            self.rows.first().map(|r| r.name.as_str()).unwrap_or("?"),
            self.rows.iter().map(|r| r.gpus).max().unwrap_or(1),
            MIGRATE_THRESHOLD
        )?;
        writeln!(
            f,
            "{:<14} {:>9} {:>9} {:>10} {:>12}",
            "policy", "IPC", "remote", "migrations", "replications"
        )?;
        for p in &self.placement {
            writeln!(
                f,
                "{:<14} {:>9.3} {:>9} {:>10} {:>12}",
                p.policy, p.ipc, p.remote_accesses, p.migrations, p.replications
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_sweep_scales_and_goes_remote() {
        let fig = run(&Sweep::new(Scope::Smoke));
        assert_eq!(fig.rows.len(), PAIRINGS.len() * fleets(Scope::Smoke).len());
        assert_eq!(fig.placement.len(), 3);
        for r in &fig.rows {
            assert!(r.ipc_gpu_mmu > 0.0 && r.ipc_mosaic > 0.0, "{}@{} completes", r.name, r.gpus);
            if r.gpus == 1 {
                assert!((r.eff_gpu_mmu - 1.0).abs() < 1e-12, "N=1 is its own baseline");
                assert!(r.remote_frac == 0.0 && r.interconnect_mb == 0.0);
            } else {
                assert!(r.remote_frac > 0.0, "{}@{} crosses the interconnect", r.name, r.gpus);
                // Remote penalties mean weak scaling stays below ideal.
                assert!(r.eff_mosaic < 1.05, "{}@{}: {}", r.name, r.gpus, r.eff_mosaic);
            }
        }
        let text = fig.to_string();
        assert!(text.contains("MM+GUPS"));
        assert!(text.contains("first-touch"));
    }

    #[test]
    fn placement_probe_exercises_every_policy() {
        let fig = run(&Sweep::new(Scope::Smoke));
        let by_name = |n: &str| fig.placement.iter().find(|p| p.policy == n).unwrap();
        assert_eq!(by_name("first-touch").migrations, 0);
        assert_eq!(by_name("first-touch").replications, 0);
        assert!(by_name("replicate-ro").replications > 0);
        assert!(by_name("migrate").migrations > 0);
        // Localizing policies cut remote traffic relative to first-touch.
        assert!(by_name("replicate-ro").remote_accesses < by_name("first-touch").remote_accesses);
    }
}
