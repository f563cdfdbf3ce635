//! The system suite: random full-system configurations run end to end
//! under the runtime invariant auditor.
//!
//! The VM and manager suites check components against reference models;
//! this suite covers what only a whole run exercises — management events
//! crossing SM steps, kernel-phase boundaries, eviction and write-back
//! under oversubscription. Each case runs once with
//! [`RunConfig::audited`], which sweeps every structural invariant (frame
//! conservation, ownership, TLB coherence) throughout the run, and must
//! finish with a clean audit and an exact stall decomposition.
//!
//! Cases are full-system configurations (manager flavor, app mix, seed,
//! SM count, paging mode, oversubscription), not op schedules, so there
//! is nothing for the shrinker to minimize: the repro regenerates the
//! case from its `(seed, index)` pair.

use crate::harness::Divergence;
use mosaic_gpusim::{run_workload, ManagerKind, RunConfig};
use mosaic_sim_core::SimRng;
use mosaic_workloads::{ScaleConfig, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Workload names the system suite samples mixes from — a spread of
/// TLB-friendly and TLB-hostile access patterns.
const SYSTEM_APPS: &[&str] = &["MM", "GUPS", "HS", "CONS", "NN", "MUM", "BFS2", "RED"];

/// Cycles between invariant audits in a system-suite run.
const AUDIT_EVERY: u64 = 5_000;

/// A generated system-suite case: one full-system configuration.
#[derive(Debug, Clone)]
pub struct SystemCase {
    /// App mix (1–3 distinct workloads).
    pub apps: Vec<&'static str>,
    /// Memory manager flavor.
    pub manager: ManagerKind,
    /// Simulation master seed.
    pub seed: u64,
    /// SMs.
    pub sm_count: usize,
    /// Kernel phases (>1 adds between-kernel deallocation).
    pub phases: u32,
    /// Free preloading instead of demand paging.
    pub preloaded: bool,
    /// Ideal (infinite, zero-latency) TLB reference.
    pub ideal_tlb: bool,
    /// Oversubscription factor in tenths (e.g. `Some(20)` = 2.0×);
    /// `None` = fully subscribed. Mutually exclusive with `preloaded`.
    pub oversub_tenths: Option<u32>,
}

impl SystemCase {
    /// The [`RunConfig`] this case describes, at a scale small enough
    /// that a debug-build campaign stays cheap.
    pub fn run_config(&self) -> RunConfig {
        let mut cfg = RunConfig::new(self.manager).with_scale(ScaleConfig {
            ws_divisor: 64,
            mem_ops_per_warp: 16,
            warps_per_sm: 3,
            phases: self.phases,
        });
        cfg.system.sm_count = self.sm_count;
        cfg.seed = self.seed;
        if self.preloaded {
            cfg = cfg.preloaded();
        }
        if self.ideal_tlb {
            cfg = cfg.ideal_tlb();
        }
        if let Some(t) = self.oversub_tenths {
            cfg = cfg.oversubscribed(f64::from(t) / 10.0);
        }
        cfg
    }
}

/// Generates the system-suite case for `(seed, index)`. Deterministic:
/// the same pair always yields the same case.
pub fn gen_system_case(seed: u64, index: u64) -> SystemCase {
    // The fork label predates the suite's rename; keeping it keeps every
    // `(seed, index)` pair on the configuration it always named.
    let mut rng = SimRng::from_seed(seed).fork("conformance-engine", index);
    let manager = match rng.below(6) {
        0 => ManagerKind::GpuMmu4K,
        1 => ManagerKind::GpuMmu2M,
        2 => ManagerKind::migrating(),
        // Weighted toward Mosaic: it has the richest management-event
        // surface (coalesce, splinter, shootdown).
        _ => ManagerKind::mosaic(),
    };
    let mut apps = SYSTEM_APPS.to_vec();
    rng.shuffle(&mut apps);
    apps.truncate(1 + rng.below(3) as usize);
    let preloaded = rng.chance(0.25);
    // 1.2×–2.5× oversubscription on some on-demand cases, to cover
    // eviction and write-back.
    let oversub_tenths = (!preloaded && rng.chance(0.3)).then(|| 12 + rng.below(14) as u32);
    SystemCase {
        apps,
        manager,
        seed: rng.below(1 << 16),
        sm_count: 3 + rng.below(5) as usize,
        phases: 1 + rng.below(2) as u32,
        preloaded,
        ideal_tlb: rng.chance(0.2),
        oversub_tenths,
    }
}

/// Runs `case` once, auditing every `AUDIT_EVERY` cycles, and
/// demands a clean audit and per-app stall buckets that sum exactly to
/// the app's stall cycles.
///
/// # Errors
///
/// A [`Divergence`] carrying the audit report or the broken invariant.
pub fn run_system_case(case: &SystemCase) -> Result<(), Divergence> {
    let workload = Workload::from_names(&case.apps);
    let cfg = case.run_config().audited(AUDIT_EVERY);
    let fail = |detail: String| {
        Err(Divergence { step: 0, op: format!("audited run of {:?}", case.apps), detail })
    };
    // The auditor reports a violation by panicking with the full report.
    let result = match catch_unwind(AssertUnwindSafe(|| run_workload(&workload, cfg))) {
        Ok(result) => result,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "run panicked".to_string());
            return fail(msg);
        }
    };
    for app in &result.apps {
        if app.stall.total() != app.stall_cycles {
            return fail(format!(
                "{}: stall buckets sum to {} of {} stall cycles",
                app.name,
                app.stall.total(),
                app.stall_cycles
            ));
        }
    }
    Ok(())
}

/// Renders a system-suite failure as a copy-pasteable Rust test body.
/// The case regenerates from `(seed, index)`, so no op dump is needed.
pub fn render_system_repro(seed: u64, index: u64, case: &SystemCase, detail: &str) -> String {
    let mut s = String::new();
    s.push_str("// Repro emitted by the conformance system suite.\n");
    s.push_str("// Paste into crates/conformance/tests/ and adjust the test name.\n");
    s.push_str("#[test]\nfn system_case_repro() {\n");
    s.push_str("    use mosaic_conformance::{gen_system_case, run_system_case};\n");
    s.push_str(&format!("    let case = gen_system_case({seed:#x}, {index});\n"));
    s.push_str("    run_system_case(&case).unwrap();\n");
    s.push_str("}\n");
    s.push_str(&format!("// Case: {case:?}\n"));
    s.push_str(&format!("// Original failure: {detail}\n"));
    s
}
