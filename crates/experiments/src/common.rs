//! Shared experiment machinery: sweep scopes, alone baselines, and small
//! statistics helpers.

use mosaic_campaign::CampaignScope;
use mosaic_gpusim::{alone_config, ManagerKind, RunConfig, RunResult};
use mosaic_workloads::{heterogeneous_suite, homogeneous_suite, AppProfile, ScaleConfig, Workload};
use std::collections::HashMap;

/// How much of the paper's evaluation a driver sweeps.
///
/// The paper simulates 235 workloads; a full sweep takes a while, so
/// drivers default to representative subsets (`reproduce` picks the scope
/// from `MOSAIC_SCOPE`: `smoke`, `default`, `full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Tiny: a few workloads at reduced scale — for tests and CI.
    Smoke,
    /// Representative subset at the default scale — for benches.
    Default,
    /// The complete suites at the default scale.
    Full,
}

impl Scope {
    /// The workload scale this scope runs at: the campaign tier of the
    /// same name, so campaign and figure-driver runs share cache entries.
    pub fn scale(self) -> ScaleConfig {
        match self {
            Scope::Smoke => CampaignScope::Smoke,
            Scope::Default => CampaignScope::Default,
            Scope::Full => CampaignScope::Full,
        }
        .scale()
    }

    /// A base run configuration at this scope's scale.
    pub fn config(self, manager: ManagerKind) -> RunConfig {
        RunConfig::new(manager).with_scale(self.scale())
    }

    /// Applications per single-application sweep (Figure 3 and friends).
    pub fn apps(self) -> Vec<&'static AppProfile> {
        let take = match self {
            Scope::Smoke => 6,
            Scope::Default => 12,
            Scope::Full => 27,
        };
        // Spread across the TLB-friendly/TLB-sensitive spectrum by
        // sampling the (alphabetical) roster at evenly-spread indices.
        let all = mosaic_workloads::ALL_PROFILES.iter().collect::<Vec<_>>();
        spread_indices(all.len(), take).into_iter().map(|i| all[i]).collect()
    }

    /// The homogeneous suite (27 workloads in the paper) at this scope.
    pub fn homogeneous(self, copies: usize) -> Vec<Workload> {
        let suite = homogeneous_suite(copies);
        self.subset(suite)
    }

    /// The heterogeneous suite (25 workloads in the paper) at this scope.
    pub fn heterogeneous(self, apps: usize) -> Vec<Workload> {
        let suite = heterogeneous_suite(apps, 7);
        self.subset(suite)
    }

    fn subset(self, suite: Vec<Workload>) -> Vec<Workload> {
        let take = match self {
            Scope::Smoke => 3,
            Scope::Default => 8,
            Scope::Full => suite.len(),
        };
        let indices = spread_indices(suite.len(), take);
        let mut picked: Vec<Option<Workload>> = suite.into_iter().map(Some).collect();
        indices
            .into_iter()
            .map(|i| picked[i].take().expect("spread indices are distinct"))
            .collect()
    }
}

/// `take` indices spread evenly over `0..len` as `i * len / take`, so the
/// tail of the roster stays reachable even when `len` is not a multiple of
/// `take` (a plain stride of `len / take` truncates and never samples the
/// last `len % take`-ish elements).
fn spread_indices(len: usize, take: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let take = take.clamp(1, len);
    (0..take).map(|i| i * len / take).collect()
}

/// Per-application alone baselines, resolved up front by
/// [`Sweep::alone_baselines`](crate::Sweep::alone_baselines) and frozen
/// from then on.
///
/// The weighted-speedup denominator (`IPC_alone`) depends only on the
/// application and the baseline-relevant parts of the run configuration
/// (its SM share, the workload scale, the rest of the system config), so
/// across a suite sweep most baselines are repeats; running each distinct
/// one once is what makes full-suite sweeps affordable.
///
/// Entries key on a digest of the *full* baseline configuration
/// ([`mosaic_gpusim::alone_config`]), not just `(app, sm_count)`: the
/// baselines of a TLB-size sweep (Figures 14/15 style) must not collapse
/// into the one computed under the first point's TLB geometry.
#[derive(Debug)]
pub struct AloneBaselines {
    pub(crate) ipc: HashMap<(String, String), f64>,
}

impl AloneBaselines {
    /// Baseline key: application name plus a digest of its baseline
    /// config.
    ///
    /// The digest is the `Debug` rendering of the fully-derived
    /// [`RunConfig`], which covers every field that can influence the
    /// baseline run — deterministic, collision-free, and future-proof
    /// against new config fields.
    pub(crate) fn key(profile: &AppProfile, alone_cfg: &RunConfig) -> (String, String) {
        (profile.name.to_string(), format!("{alone_cfg:?}"))
    }

    /// Weighted speedup of `shared`, the run of `workload` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the baselines were not resolved for `(workload, cfg)`.
    pub fn weighted_speedup(&self, workload: &Workload, shared: &RunResult, cfg: RunConfig) -> f64 {
        workload
            .apps
            .iter()
            .enumerate()
            .map(|(i, &profile)| {
                let key = Self::key(profile, &alone_config(cfg, workload.app_count(), i));
                let alone = self.ipc[&key];
                if alone == 0.0 {
                    0.0
                } else {
                    shared.apps[i].ipc / alone
                }
            })
            .sum()
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Renders one labelled series as a paper-style table row.
pub fn fmt_row(label: &str, values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:>8.3}")).collect();
    format!("{label:<24} {}", cells.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sweep;
    use mosaic_gpusim::{run_alone_baselines, run_workload, weighted_speedup, Topology};

    #[test]
    fn scope_subsets_shrink() {
        assert_eq!(Scope::Full.homogeneous(2).len(), 27);
        assert_eq!(Scope::Default.homogeneous(2).len(), 8);
        assert_eq!(Scope::Smoke.homogeneous(2).len(), 3);
        assert_eq!(Scope::Full.apps().len(), 27);
        assert!(Scope::Smoke.apps().len() >= 5);
    }

    #[test]
    fn spread_indices_sample_the_tail() {
        // 27 apps, take 12: the old `step_by(27 / 12)` stride stopped at
        // index 22, leaving the roster's tail unreachable at every scope
        // below Full. The spread must start at the first element and
        // reach within one stride of the last.
        for (len, take) in [(27, 12), (27, 6), (27, 3), (25, 8), (25, 3), (5, 2)] {
            let idx = spread_indices(len, take);
            assert_eq!(idx.len(), take);
            assert_eq!(idx[0], 0, "({len},{take}): first element reachable");
            assert!(
                *idx.last().unwrap() >= len - len.div_ceil(take),
                "({len},{take}): last pick {} leaves the tail unsampled",
                idx.last().unwrap()
            );
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "({len},{take}): strictly increasing");
            assert!(idx.iter().all(|&i| i < len));
        }
        assert_eq!(spread_indices(27, 12), vec![0, 2, 4, 6, 9, 11, 13, 15, 18, 20, 22, 24]);
        // take == len degenerates to the identity (Full scope).
        assert_eq!(spread_indices(4, 4), vec![0, 1, 2, 3]);
        assert!(spread_indices(0, 3).is_empty());
    }

    #[test]
    fn alone_baselines_run_once_per_distinct_key() {
        let dir =
            std::env::temp_dir().join(format!("mosaic-alone-baselines-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sweep = Sweep {
            jobs: 2,
            cache: Some(mosaic_campaign::Store::open(&dir).expect("open store")),
            ..Sweep::new(Scope::Smoke)
        };
        let cfg = Scope::Smoke.config(ManagerKind::GpuMmu4K);
        let pair = Workload::from_names(&["NN", "HS"]);
        let trio = Workload::from_names(&["NN", "HS", "MM"]);
        let baselines = sweep.alone_baselines(&[(&pair, cfg), (&pair, cfg), (&trio, cfg)]);
        // NN and HS at half the SMs, then NN, HS and MM at a third: a
        // different SM share is a different baseline.
        assert_eq!(baselines.ipc.len(), 5);
        let st = sweep.cache.as_ref().expect("cached").stats();
        assert_eq!((st.misses, st.hits), (5, 0), "one run per distinct key");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn alone_baselines_distinguish_baseline_relevant_configs() {
        // Regression: keying on (app, sm_count) alone let the points of a
        // TLB-size sweep share the baseline computed under the first
        // point's TLB geometry.
        let sweep = Sweep::new(Scope::Smoke);
        let w = Workload::from_names(&["NN", "HS"]);
        let cfg_a = Scope::Smoke.config(ManagerKind::GpuMmu4K);
        let mut cfg_b = cfg_a;
        cfg_b.system.l1_tlb.base_entries = 8;
        let ideal = cfg_a.ideal_tlb();
        let mosaic = Scope::Smoke.config(ManagerKind::mosaic());
        let baselines =
            sweep.alone_baselines(&[(&w, cfg_a), (&w, cfg_b), (&w, ideal), (&w, mosaic)]);
        // Fields the baseline derivation overrides (manager, ideal TLB,
        // fragmentation) must NOT split the map.
        assert_eq!(baselines.ipc.len(), 4, "two TLB geometries are two baselines per app");
        let shared = run_workload(&w, cfg_a);
        let ws = |cfg| baselines.weighted_speedup(&w, &shared, cfg);
        assert_ne!(ws(cfg_a), ws(cfg_b), "a starved L1 TLB must change the alone baseline");
        assert_eq!(ws(cfg_a), ws(ideal));
        assert_eq!(ws(cfg_a), ws(mosaic));
    }

    #[test]
    fn alone_baselines_match_run_alone_baselines_on_a_fleet() {
        // One alone-baseline derivation: the map and gpusim's
        // `run_alone_baselines` must agree, also where they used to
        // differ — a multi-GPU shared run, whose baselines run on one
        // device with the app's share of the whole fleet's SMs.
        let cfg = Scope::Smoke.config(ManagerKind::mosaic()).multi_gpu(2, Topology::FullyConnected);
        let w = Workload::from_names(&["NN", "HS"]);
        let shared = run_workload(&w, cfg);
        let expected = weighted_speedup(&shared, &run_alone_baselines(&w, cfg));
        let baselines = Sweep { jobs: 2, ..Sweep::new(Scope::Smoke) }.alone_baselines(&[(&w, cfg)]);
        assert_eq!(baselines.weighted_speedup(&w, &shared, cfg), expected);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fmt_row_aligns() {
        let row = fmt_row("Mosaic", &[1.0, 2.5]);
        assert!(row.starts_with("Mosaic"));
        assert!(row.contains("2.500"));
    }
}
