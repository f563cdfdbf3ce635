//! The determinism contract of the sweep, as one table-driven matrix:
//! every pinned report renders byte-identically serially and at eight
//! workers, with the persistent run cache off, cold and warm, and matches
//! its golden digest in [`mosaic_experiments::goldens`]; the JSONL trace
//! of a traced sweep is byte-identical at one and eight workers and
//! matches the `trace` golden.
//!
//! Every cell builds its own [`Sweep`], so nothing here shares mutable
//! state and the tests need no locks.

use mosaic_campaign::{CampaignScope, Store};
use mosaic_experiments::goldens::{digest, golden, rendered_trace, trace_sweep};
use mosaic_experiments::sweep::TraceCollector;
use mosaic_experiments::{report, Scope, Sweep};
use mosaic_gpusim::{ManagerKind, RunConfig};
use mosaic_workloads::Workload;
use std::path::Path;

/// One pinned report: its golden name (and [`REPORTS`] entry), and text
/// the golden run must (`present`) or must not (`absent`) contain — so
/// each digest pins the mechanism it is there for.
///
/// [`REPORTS`]: mosaic_experiments::REPORTS
struct Row {
    name: &'static str,
    present: &'static [&'static str],
    absent: &'static [&'static str],
}

const ROWS: [Row; 10] = [
    Row { name: "fig08", present: &[], absent: &[] },
    Row { name: "fig03", present: &[], absent: &[] },
    Row { name: "fig11", present: &[], absent: &[] },
    Row { name: "ablation_walker", present: &[], absent: &[] },
    // Both ends of the TLB-sensitivity spectrum.
    Row { name: "stall", present: &["MM ", "GUPS "], absent: &[] },
    // The eviction engine is engaged.
    Row { name: "oversub", present: &[], absent: &["0 pages evicted"] },
    // The fleet crosses the interconnect.
    Row { name: "multigpu", present: &["4 GPUs"], absent: &[] },
    Row { name: "ablation_coalescers", present: &["Migrating"], absent: &[] },
    // Pre-fragmented memory under every CAC flavor: the failsafe's FRAG
    // compaction and hole scavenging ran, so the flavors diverge.
    Row {
        name: "fig16",
        present: &["fragmentation-index sweep", "CAC-BC", "Ideal CAC"],
        absent: &[],
    },
    // Bloat at 100% fragmentation index: scavenged holes inflate the
    // footprint, so the bloat is not zero.
    Row {
        name: "table2",
        present: &["at 100% fragmentation index"],
        absent: &["bloat:         0.00%"],
    },
];

fn smoke(jobs: usize) -> Sweep {
    Sweep { jobs, ..Sweep::new(Scope::Smoke) }
}

fn cached(jobs: usize, dir: &Path) -> Sweep {
    Sweep { cache: Some(Store::open(dir).expect("open store")), ..smoke(jobs) }
}

#[test]
fn pinned_reports_match_goldens_across_jobs_and_cache_states() {
    let root = std::env::temp_dir().join(format!("mosaic-golden-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for row in &ROWS {
        let name = row.name;
        let render = report(name).unwrap_or_else(|| panic!("{name} names no report"));
        let serial = render(&smoke(1));
        assert_eq!(
            Some(digest(&serial).as_str()),
            golden(name),
            "{name} smoke report drifted from the golden digest; report was:\n{serial}"
        );
        for text in row.present {
            assert!(serial.contains(text), "{name} should contain {text:?}:\n{serial}");
        }
        for text in row.absent {
            assert!(!serial.contains(text), "{name} should not contain {text:?}:\n{serial}");
        }
        for jobs in [1, 8] {
            if jobs != 1 {
                let off = render(&smoke(jobs));
                assert_eq!(serial, off, "{name}: --jobs {jobs} must match serial byte-for-byte");
            }
            let dir = root.join(format!("{name}-{jobs}"));

            // Cold: every run misses, simulates and checkpoints.
            let sweep = cached(jobs, &dir);
            assert_eq!(serial, render(&sweep), "{name}: cold cache at --jobs {jobs}");
            let st = sweep.cache.as_ref().expect("cached").stats();
            assert!(st.stores > 0, "{name}: cold phase checkpoints results: {st:?}");
            assert_eq!(st.failures, 0, "{name}: {st:?}");

            // Warm: a fresh Store on the same directory (fresh counters,
            // same entries) — every lookup must hit.
            let sweep = cached(jobs, &dir);
            assert_eq!(serial, render(&sweep), "{name}: warm cache at --jobs {jobs}");
            let st = sweep.cache.as_ref().expect("cached").stats();
            assert!(st.hits > 0, "{name}: warm phase serves from the store: {st:?}");
            assert_eq!(st.misses, 0, "{name}: an identical re-run must hit: {st:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn traces_match_golden_at_any_jobs_and_bypass_the_cache() {
    let traced = |jobs| Sweep { trace: Some(TraceCollector::default()), ..smoke(jobs) };
    let serial = traced(1);
    assert_eq!(trace_sweep(&serial), 4);
    let serial = rendered_trace(serial);

    // At eight workers, with a cache set (bypassed in both directions)
    // and an untraced sweep running alongside (which collects nothing
    // into this one).
    let dir = std::env::temp_dir().join(format!("mosaic-trace-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let parallel = Sweep { cache: Some(Store::open(&dir).expect("open store")), ..traced(8) };
    std::thread::scope(|s| {
        s.spawn(|| assert_eq!(trace_sweep(&smoke(2)), 4));
        assert_eq!(trace_sweep(&parallel), 4);
    });
    let st = parallel.cache.as_ref().expect("cached").stats();
    assert_eq!((st.hits, st.misses, st.stores), (0, 0, 0), "traced sweeps bypass the cache");
    let parallel = rendered_trace(parallel);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "trace must be byte-identical at any --jobs count");
    // Shape: one run_begin per job, and real simulated events.
    assert_eq!(serial.matches("\"type\":\"run_begin\"").count(), 4);
    for tag in ["warp_mem", "tlb_lookup", "page_walk", "dram_access", "epoch"] {
        assert!(serial.contains(&format!("\"type\":\"{tag}\"")), "trace should contain {tag}");
    }
    assert_eq!(
        Some(digest(&serial).as_str()),
        golden("trace"),
        "trace drifted from the golden digest"
    );
}

/// The campaign DSL's scale tiers and the experiment crate's `Scope`
/// must give the same cache keys, or campaign entries and figure-driver
/// entries for "the same" smoke run would live apart. Compared through
/// the run-key digest, which is exactly the equivalence the store uses.
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
