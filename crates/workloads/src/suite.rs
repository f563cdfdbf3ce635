//! Workload composition: the paper's 235-workload evaluation suites.
//!
//! Section 5: homogeneous workloads are formed from multiple copies of the
//! same application (27 workloads for each concurrency level 1–5 ⇒ 135),
//! and heterogeneous workloads from random picks of distinct applications
//! (25 per concurrency level 2–5 ⇒ 100).
//!
//! [`ScaleConfig`] scales the applications down so the full suites can be
//! simulated on one machine: working sets shrink by a divisor (page
//! *counts* stay far above TLB reach, preserving all contention effects)
//! and each warp issues a bounded number of memory instructions.

use crate::profile::{AppProfile, ALL_PROFILES};
use mosaic_sim_core::SimRng;
use mosaic_vm::LARGE_PAGE_SIZE;

/// Scaling knobs for simulation tractability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Working sets are divided by this factor (paper-scale 81.5 MB
    /// average becomes ~10 MB at the default 8).
    pub ws_divisor: u32,
    /// Baseline memory instructions per warp; sweeping patterns may use
    /// more (up to 4x) so that a warp actually covers its working-set
    /// slice — the paper's applications run long enough to touch their
    /// whole working sets, repeatedly.
    pub mem_ops_per_warp: u64,
    /// Resident warps per SM.
    pub warps_per_sm: usize,
    /// Kernel phases per application. After each phase the application
    /// deallocates its scratch region (the second half of its main
    /// buffer) and the next kernel re-allocates and re-touches it — the
    /// deallocation pattern that drives CAC between kernels
    /// (Section 4.4). `1` (the default) is the single-kernel behaviour
    /// every calibrated experiment uses.
    pub phases: u32,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig { ws_divisor: 8, mem_ops_per_warp: 300, warps_per_sm: 8, phases: 1 }
    }
}

impl ScaleConfig {
    /// A lighter configuration for quick tests and doc examples.
    pub fn smoke() -> Self {
        ScaleConfig { ws_divisor: 64, mem_ops_per_warp: 40, warps_per_sm: 8, phases: 1 }
    }

    /// Scaled working-set size for `profile`, rounded up to a whole number
    /// of 2 MB large pages (the en-masse reservation the app makes).
    pub fn ws_bytes(&self, profile: &AppProfile) -> u64 {
        let raw =
            u64::from(profile.working_set_mb) * 1024 * 1024 / u64::from(self.ws_divisor.max(1));
        raw.max(LARGE_PAGE_SIZE).div_ceil(LARGE_PAGE_SIZE) * LARGE_PAGE_SIZE
    }

    /// Memory instructions one of `total_warps` warps issues for
    /// `profile`. Sweeping patterns get enough instructions to sweep ~4
    /// slices despite hot-region redirection (capped at 4x the baseline);
    /// sampling patterns (gather/chase) cover pages probabilistically and
    /// use the baseline directly.
    pub fn mem_ops_for(&self, profile: &AppProfile, total_warps: u64) -> u64 {
        use crate::profile::AccessPattern;
        match profile.pattern {
            AccessPattern::RandomGather { .. } | AccessPattern::Chase => self.mem_ops_per_warp,
            AccessPattern::Streaming
            | AccessPattern::Strided { .. }
            | AccessPattern::Stencil { .. } => {
                // Enough instructions to sweep the slice ~4 times (the
                // warp rotates to a fresh slice after each sweep), at the
                // 512-byte sweep step, despite hot-region redirection.
                let slice_steps = self.ws_bytes(profile) / 512 / total_warps.max(1);
                let sweep = (slice_steps as f64 * 4.0 / (1.0 - profile.reuse).max(0.05)) as u64;
                sweep.clamp(self.mem_ops_per_warp, self.mem_ops_per_warp * 4)
            }
        }
    }
}

/// A multi-application workload: what runs concurrently on the GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Display name, e.g. `"HS-HS-HS"` or `"GUPS-MM"`.
    pub name: String,
    /// The concurrently-executing applications.
    pub apps: Vec<&'static AppProfile>,
}

impl Workload {
    /// Builds a workload from application names.
    ///
    /// # Panics
    ///
    /// Panics if a name is unknown.
    pub fn from_names(names: &[&str]) -> Self {
        let apps: Vec<_> = names
            .iter()
            .map(|n| AppProfile::by_name(n).unwrap_or_else(|| panic!("unknown application {n}")))
            .collect();
        Workload { name: names.join("-"), apps }
    }

    /// Number of concurrently-executing applications.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }
}

/// The homogeneous suite for one concurrency level: 27 workloads, each
/// `copies` instances of one application (Section 5 builds these for
/// 1–5 copies).
pub fn homogeneous_suite(copies: usize) -> Vec<Workload> {
    assert!(copies >= 1, "need at least one copy");
    ALL_PROFILES
        .iter()
        .map(|p| Workload { name: vec![p.name; copies].join("-"), apps: vec![p; copies] })
        .collect()
}

/// The heterogeneous suite for one concurrency level: 25 workloads of
/// `apps_per_workload` distinct, randomly-chosen applications
/// (Section 5 builds these for 2–5 applications). Deterministic in
/// `seed`.
pub fn heterogeneous_suite(apps_per_workload: usize, seed: u64) -> Vec<Workload> {
    assert!(
        (2..=ALL_PROFILES.len()).contains(&apps_per_workload),
        "heterogeneous workloads need 2..=27 distinct applications"
    );
    let mut rng = SimRng::from_seed(seed).fork("heterogeneous-suite", apps_per_workload as u64);
    (0..25)
        .map(|_| {
            let mut pool: Vec<&'static AppProfile> = ALL_PROFILES.iter().collect();
            rng.shuffle(&mut pool);
            let mut apps: Vec<_> = pool.into_iter().take(apps_per_workload).collect();
            apps.sort_by_key(|p| p.name);
            Workload { name: apps.iter().map(|p| p.name).collect::<Vec<_>>().join("-"), apps }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_suite_shape() {
        for copies in 1..=5 {
            let suite = homogeneous_suite(copies);
            assert_eq!(suite.len(), 27);
            assert!(suite.iter().all(|w| w.app_count() == copies));
            assert!(suite.iter().all(|w| w.apps.iter().all(|p| p.name == w.apps[0].name)));
        }
        // 135 homogeneous workloads in total, as in the paper.
        let total: usize = (1..=5).map(|c| homogeneous_suite(c).len()).sum();
        assert_eq!(total, 135);
    }

    #[test]
    fn heterogeneous_suite_shape() {
        for n in 2..=5 {
            let suite = heterogeneous_suite(n, 7);
            assert_eq!(suite.len(), 25);
            for w in &suite {
                assert_eq!(w.app_count(), n);
                // Applications within one workload are distinct.
                let mut names: Vec<_> = w.apps.iter().map(|p| p.name).collect();
                names.sort_unstable();
                names.dedup();
                assert_eq!(names.len(), n);
            }
        }
        let total: usize = (2..=5).map(|n| heterogeneous_suite(n, 7).len()).sum();
        assert_eq!(total, 100, "100 heterogeneous workloads, as in the paper");
    }

    #[test]
    fn heterogeneous_suite_is_deterministic() {
        assert_eq!(heterogeneous_suite(3, 9), heterogeneous_suite(3, 9));
        assert_ne!(heterogeneous_suite(3, 9), heterogeneous_suite(3, 10));
    }

    #[test]
    fn scaled_working_sets_are_large_page_multiples() {
        let cfg = ScaleConfig::default();
        for p in &ALL_PROFILES {
            let ws = cfg.ws_bytes(p);
            assert_eq!(ws % LARGE_PAGE_SIZE, 0);
            assert!(ws >= LARGE_PAGE_SIZE);
        }
        // TRD (362MB) scales to ~46MB at the default divisor of 8.
        let trd = cfg.ws_bytes(AppProfile::by_name("TRD").unwrap());
        assert_eq!(trd, 46 * 1024 * 1024);
    }

    #[test]
    fn workload_from_names() {
        let w = Workload::from_names(&["HS", "CONS"]);
        assert_eq!(w.name, "HS-CONS");
        assert_eq!((w.apps[0].name, w.apps[1].name), ("HS", "CONS"));
        let copies = Workload::from_names(&["HS", "HS"]);
        assert_eq!((copies.apps[0].name, copies.apps[1].name), ("HS", "HS"));
    }

    #[test]
    #[should_panic(expected = "unknown application")]
    fn unknown_name_panics() {
        let _ = Workload::from_names(&["NOPE"]);
    }
}
