//! Shared experiment machinery: sweep scopes and small statistics
//! helpers.

use mosaic_campaign::CampaignScope;
use mosaic_gpusim::{ManagerKind, RunConfig};
use mosaic_workloads::{heterogeneous_suite, homogeneous_suite, AppProfile, ScaleConfig, Workload};

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
