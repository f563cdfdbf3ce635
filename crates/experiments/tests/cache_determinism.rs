//! The cache transparency contract: every figure driver's rendered
//! output is byte-identical with the persistent run cache disabled,
//! cold, and warm — pinned against the golden digests in
//! [`mosaic_experiments::goldens`], so a cache bug can't silently move
//! the reproduced figures.
//!
//! Everything runs inside one `#[test]`: the cache is process-global
//! (`sweep::set_cache`), so phases must not interleave with each other
//! or with other tests in this binary.

use mosaic_campaign::{CampaignScope, Store};
use mosaic_experiments::common::Scope;
use mosaic_experiments::goldens::{digest, golden};
use mosaic_experiments::{ablations, fig03, fig08, fig11, oversub, stall, sweep};
use mosaic_gpusim::{ManagerKind, RunConfig};
use mosaic_workloads::Workload;

fn render_all() -> Vec<(&'static str, String)> {
    vec![
        ("fig08", fig08::run(Scope::Smoke).to_string()),
        ("fig03", fig03::run(Scope::Smoke).to_string()),
        ("fig11", fig11::run(Scope::Smoke).to_string()),
        ("ablation_walker", ablations::walker_threads(Scope::Smoke).to_string()),
        ("oversub", oversub::run(Scope::Smoke).to_string()),
        ("stall", stall::run(Scope::Smoke).to_string()),
    ]
}

#[test]
fn reports_are_identical_with_cache_disabled_cold_and_warm() {
    let dir = std::env::temp_dir().join(format!("mosaic-cache-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: no cache — the reference, checked against the goldens.
    sweep::set_cache(None);
    let disabled = render_all();
    for (name, report) in &disabled {
        assert_eq!(
            digest(report),
            golden(name),
            "{name} smoke report drifted from the golden digest; report was:\n{report}"
        );
    }

    // Phase 2: cold cache — every run misses, simulates, checkpoints.
    sweep::set_cache(Some(Store::open(&dir).expect("create store")));
    let cold = render_all();
    let cold_stats = sweep::cache().expect("installed").stats();
    assert_eq!(disabled, cold, "cold cache must not change any report");
    assert!(cold_stats.stores > 0, "cold phase checkpoints results: {cold_stats:?}");
    assert_eq!(cold_stats.failures, 0, "{cold_stats:?}");

    // Phase 3: warm cache — a fresh Store on the same directory (fresh
    // counters, same entries): every lookup must hit.
    sweep::set_cache(Some(Store::open(&dir).expect("reopen store")));
    let warm = render_all();
    let warm_stats = sweep::cache().expect("installed").stats();
    sweep::set_cache(None);
    assert_eq!(disabled, warm, "warm cache must not change any report");
    assert!(warm_stats.hits > 0, "warm phase serves from the store: {warm_stats:?}");
    assert_eq!(warm_stats.misses, 0, "every point of an identical re-run must hit: {warm_stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The campaign DSL's scale tiers must stay in lockstep with the
/// experiment crate's `Scope`, or campaign entries and figure-driver
/// entries for "the same" smoke run would live under different cache
/// keys. Compared through the run-key digest, which is exactly the
/// equivalence the store uses.
#[test]
fn campaign_scope_scales_match_experiment_scopes() {
    let w = Workload::from_names(&["MM"]);
    for (campaign, experiment) in [
        (CampaignScope::Smoke, Scope::Smoke),
        (CampaignScope::Default, Scope::Default),
        (CampaignScope::Full, Scope::Full),
    ] {
        assert_eq!(campaign.scale(), experiment.scale());
        let via_campaign = RunConfig::new(ManagerKind::mosaic()).with_scale(campaign.scale());
        let via_experiment = experiment.config(ManagerKind::mosaic());
        let code = mosaic_campaign::built_code_digest();
        assert_eq!(
            mosaic_campaign::run_key(&w, &via_campaign, code),
            mosaic_campaign::run_key(&w, &via_experiment, code),
            "{campaign:?} and {experiment:?} must share cache entries"
        );
    }
}
