//! The workload generators driving the GPU execution model, end to end
//! (without the memory hierarchy): instruction accounting, determinism,
//! and TLP behaviour.

use mosaic_gpu::{FixedLatencyMemory, Sm, SmConfig, WarpStream};
use mosaic_sim_core::SimRng;
use mosaic_workloads::{AppLayout, AppProfile, AppWarpStream, ScaleConfig, ALL_PROFILES};

fn sm_for(name: &str, warps: usize, mem_ops: u64) -> Sm {
    let profile = AppProfile::by_name(name).unwrap();
    let layout = AppLayout::build(profile, &ScaleConfig::smoke());
    let rng = SimRng::from_seed(9);
    let streams: Vec<Box<dyn WarpStream>> = (0..warps as u64)
        .map(|w| {
            Box::new(AppWarpStream::new(profile, &layout, w, warps as u64, mem_ops, &rng))
                as Box<dyn WarpStream>
        })
        .collect();
    Sm::new(0, mosaic_vm::AppId(0), SmConfig { warps, batch: 8 }, streams)
}

#[test]
fn every_profile_drives_an_sm_to_completion() {
    for p in &ALL_PROFILES {
        let mut sm = sm_for(p.name, 4, 50);
        let mut mem = FixedLatencyMemory { latency: 20 };
        while sm.advance(&mut mem) {}
        let end = sm.now();
        assert!(end.as_u64() > 0, "{}", p.name);
        assert_eq!(
            sm.stats().memory_instructions,
            4 * 50,
            "{}: every budgeted memory op must issue",
            p.name
        );
        assert!(!sm.is_active());
    }
}

#[test]
fn instruction_mix_matches_profile() {
    // Profiles with compute gaps interleave exactly one compute op per
    // memory op.
    let mut sm = sm_for("MM", 2, 40);
    let mut mem = FixedLatencyMemory { latency: 5 };
    while sm.advance(&mut mem) {}
    assert_eq!(sm.stats().instructions, 2 * 40 * 2, "memory + compute pairs");
}

#[test]
fn divergent_profiles_issue_more_transactions() {
    let mut gather = sm_for("GUPS", 2, 40);
    let mut streaming = sm_for("RED", 2, 40);
    let mut mem = FixedLatencyMemory { latency: 5 };
    while gather.advance(&mut mem) {}
    while streaming.advance(&mut mem) {}
    assert!(
        gather.stats().transactions > streaming.stats().transactions * 4,
        "GUPS fanout 16 vs streaming fanout 1: {} vs {}",
        gather.stats().transactions,
        streaming.stats().transactions
    );
}

#[test]
fn more_warps_finish_sooner_under_memory_latency() {
    let profile = AppProfile::by_name("SCAN").unwrap();
    let layout = AppLayout::build(profile, &ScaleConfig::smoke());
    let rng = SimRng::from_seed(9);
    let run = |warps: u64| {
        let streams: Vec<Box<dyn WarpStream>> = (0..warps)
            .map(|w| {
                // Same total work, spread over more warps.
                Box::new(AppWarpStream::new(profile, &layout, w, warps, 160 / warps, &rng))
                    as Box<dyn WarpStream>
            })
            .collect();
        let mut sm =
            Sm::new(0, mosaic_vm::AppId(0), SmConfig { warps: warps as usize, batch: 8 }, streams);
        let mut mem = FixedLatencyMemory { latency: 200 };
        while sm.advance(&mut mem) {}
        sm.now().as_u64()
    };
    let two = run(2);
    let eight = run(8);
    assert!(eight < two, "TLP must hide latency: 8 warps {eight} vs 2 warps {two}");
}
