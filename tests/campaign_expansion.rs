//! Pins the campaign DSL's expansion as text: every runnable point's
//! label and run key, and every skipped point's label and reason, in
//! expansion order. The run key covers the whole `RunConfig`, so a line
//! that moves means a campaign file now runs something else, or runs
//! it under another label, or in another order. The code digest is
//! fixed at zero so the keys do not follow the source tree.
//!
//! A spec built from `mosaic-sim`'s `KEY=V[,V...]` pairs must expand
//! like the same matrix written as a file, and both front ends reject
//! the same values with the same message.

use mosaic::vm::{Tlb, TlbConfig};
use mosaic_campaign::{run_key, CampaignScope, Digest, Spec};

/// One line per point (`point LABEL | KEY`) and per skipped point
/// (`skip LABEL | REASON`), points first.
fn render(spec: &Spec) -> String {
    let campaign = spec.expand();
    let mut out = String::new();
    for p in &campaign.points {
        out += &format!("point {} | {}\n", p.label, run_key(&p.workload, &p.cfg, Digest(0)));
    }
    for s in &campaign.skipped {
        out += &format!("skip {} | {}\n", s.label, s.reason);
    }
    out
}

/// Compares line by line, naming the first line that moved.
fn check(spec: &Spec, expected: &str) {
    let actual = render(spec);
    let (mut a, mut e) = (actual.lines(), expected.lines());
    for n in 1.. {
        match (a.next(), e.next()) {
            (None, None) => return,
            (got, want) if got == want => {}
            (got, want) => panic!(
                "expansion line {n} moved\n  want: {want:?}\n  got:  {got:?}\nnow renders:\n{actual}"
            ),
        }
    }
}

#[test]
fn smoke_campaign_expansion_is_pinned() {
    check(&parse(include_str!("../campaigns/smoke.toml")), SMOKE);
}

/// Every axis set away from its default at least once.
const EVERY_AXIS_SPEC: &str = r#"
name = "every-axis"
scope = "smoke"

[matrix]
workloads = ["MM+GUPS"]
managers = ["gpu-mmu", "mosaic"]
l1_tlb = ["64/8"]
l2_tlb = ["256/128"]
fragmentation = ["none", "0.5:0.9"]
oversubscription = ["none", 2.0]
paging = ["on-demand", "preloaded"]
seeds = [7]
"#;

#[test]
fn every_axis_expansion_is_pinned() {
    check(&parse(EVERY_AXIS_SPEC), EVERY_AXIS);
}

/// `EVERY_AXIS_SPEC` in `mosaic-sim`'s pair form.
#[test]
fn every_axis_pairs_expand_like_the_file() {
    let mut spec = Spec::from_pairs([
        "workloads=MM+GUPS",
        "managers=gpu-mmu,mosaic",
        "l1_tlb=64/8",
        "l2_tlb=256/128",
        "fragmentation=none,0.5:0.9",
        "oversubscription=none,2.0",
        "paging=on-demand,preloaded",
        "seeds=7",
    ])
    .expect("pairs parse");
    spec.scope = CampaignScope::Smoke;
    check(&spec, EVERY_AXIS);
}

/// Only the required axis: every other axis keeps its default.
#[test]
fn workloads_only_expansion_is_pinned() {
    check(&parse("[matrix]\nworkloads = [\"MM\", \"HS+CONS\"]\n"), WORKLOADS_ONLY);
    check(&Spec::from_pairs(["workloads=MM,HS+CONS"]).expect("pairs parse"), WORKLOADS_ONLY);
}

/// Writing an axis's default out expands like leaving the axis out.
#[test]
fn explicit_defaults_expand_like_absent_axes() {
    let spec = r#"
[matrix]
workloads = ["MM", "HS+CONS"]
managers = ["mosaic"]
l1_tlb = ["128/16"]
l2_tlb = ["512/256"]
fragmentation = ["none"]
oversubscription = ["none"]
paging = ["on-demand"]
seeds = [42]
"#;
    check(&parse(spec), WORKLOADS_ONLY);
}

fn parse(spec: &str) -> Spec {
    Spec::parse(spec).expect("spec parses")
}

/// The message a file's `[matrix]` line and a pair both get for
/// `key=value`.
fn rejection(key: &str, value: &str) -> String {
    let e = Spec::parse(&format!("[matrix]\n{key} = \"{value}\"\n")).expect_err(value);
    assert_eq!(e.line, 2, "{e}");
    let pair = Spec::from_pairs([format!("{key}={value}").as_str()]).expect_err(value);
    assert_eq!(pair.message, e.message, "both front ends reject {key}={value} alike");
    e.message
}

/// A TLB geometry the simulator cannot build fails its row, with the
/// message the constructor panics with; one the row accepts builds.
#[test]
fn tlb_rows_reject_what_the_simulator_cannot_build() {
    assert_eq!(
        rejection("l2_tlb", "500/256"),
        "l2_tlb \"500/256\": TLB entries (500) must be a multiple of associativity (16)"
    );
    let huge = u32::MAX as usize;
    for (key, mut tlb) in [("l1_tlb", TlbConfig::paper_l1()), ("l2_tlb", TlbConfig::paper_l2())] {
        for (base, large) in [(500, 256), (512, 8), (48, 7), (8, 256), (huge, 16), (64, huge)] {
            (tlb.base_entries, tlb.large_entries) = (base, large);
            let built = std::panic::catch_unwind(move || Tlb::new(tlb)).map(drop);
            let Err(panic) = built else {
                assert!(
                    Spec::from_pairs(["workloads=MM", &format!("{key}={base}/{large}")]).is_ok()
                );
                continue;
            };
            let why = tlb.check().expect_err("the constructor panicked");
            assert_eq!(panic.downcast_ref::<String>(), Some(&why), "{key} {base}/{large}");
            assert_eq!(
                rejection(key, &format!("{base}/{large}")),
                format!("{key} \"{base}/{large}\": {why}")
            );
        }
    }
}

/// A workload with more applications than the base config's SMs is
/// rejected on its line, before anything runs.
#[test]
fn workloads_wider_than_the_gpu_are_rejected() {
    let apps = vec!["HS"; 31].join("+");
    assert_eq!(
        rejection("workloads", &apps),
        format!("workload {apps:?} has 31 applications, more than 30 SMs")
    );
    let widest = vec!["HS"; 30].join("+");
    assert_eq!(parse(&format!("[matrix]\nworkloads = \"{widest}\"")).expand().points.len(), 1);
}

const SMOKE: &str = "\
point MM gpu-mmu | af6071ca9d570240b51c8a1466e309b8
point MM gpu-mmu over=2x | 1074661931da789ebfe8741f355397c7
point MM mosaic | 6632858104734e05abed2cf64ae8485e
point MM mosaic over=2x | 49e6c71362db0b5aa43c71d3ec8cb005
point GUPS gpu-mmu | 8f4210534dc7e9f8235e548b99af94d6
point GUPS gpu-mmu over=2x | 7e824d1d396b0924017ad0c901593f4f
point GUPS mosaic | 72538eb572257a80599d35ae52a85996
point GUPS mosaic over=2x | 493a6e8e384db6c16fa2b7a68086bf8f
point MM+GUPS gpu-mmu | 2d42913a63b964e0c5dc3f735d0fab45
point MM+GUPS gpu-mmu over=2x | ee5de72491ce85cc816ee107529d55f2
point MM+GUPS mosaic | e69ae64cc223010b50c04de60cfeda5d
point MM+GUPS mosaic over=2x | 88353f5df233dd1a7a7b8fb9a3eb5afa
";

const EVERY_AXIS: &str = "\
point MM+GUPS gpu-mmu l1=64/8 l2=256/128 seed=7 | c5de6f32445f6f913630497f27bce0f7
point MM+GUPS gpu-mmu l1=64/8 l2=256/128 preloaded seed=7 | 035a3d97c6ca029066d915201c06a57f
point MM+GUPS gpu-mmu l1=64/8 l2=256/128 over=2x seed=7 | 57ff738a3b648d73cb5e8901d5d0afb2
point MM+GUPS mosaic l1=64/8 l2=256/128 seed=7 | 0457eeac197b056e3590e215aefb4fef
point MM+GUPS mosaic l1=64/8 l2=256/128 preloaded seed=7 | a48d1c77c454e580b004e8b153b12707
point MM+GUPS mosaic l1=64/8 l2=256/128 over=2x seed=7 | 67eb00fafac1d0e53014250251820f7a
point MM+GUPS mosaic l1=64/8 l2=256/128 frag=0.5:0.9 seed=7 | c123a108546ef61213b7fc3e217fdf4d
point MM+GUPS mosaic l1=64/8 l2=256/128 frag=0.5:0.9 preloaded seed=7 | 5dea466b5bb006a47ee5bfef16bc16fd
point MM+GUPS mosaic l1=64/8 l2=256/128 frag=0.5:0.9 over=2x seed=7 | 3bb0eb2857d15e8951bfc96904083908
skip MM+GUPS gpu-mmu l1=64/8 l2=256/128 over=2x preloaded seed=7 | oversubscription requires on-demand paging (preloading assumes everything fits)
skip MM+GUPS gpu-mmu l1=64/8 l2=256/128 frag=0.5:0.9 seed=7 | fragmentation requires a Mosaic manager (only Mosaic pre-fragments memory)
skip MM+GUPS gpu-mmu l1=64/8 l2=256/128 frag=0.5:0.9 preloaded seed=7 | fragmentation requires a Mosaic manager (only Mosaic pre-fragments memory)
skip MM+GUPS gpu-mmu l1=64/8 l2=256/128 frag=0.5:0.9 over=2x seed=7 | fragmentation requires a Mosaic manager (only Mosaic pre-fragments memory)
skip MM+GUPS gpu-mmu l1=64/8 l2=256/128 frag=0.5:0.9 over=2x preloaded seed=7 | oversubscription requires on-demand paging (preloading assumes everything fits)
skip MM+GUPS mosaic l1=64/8 l2=256/128 over=2x preloaded seed=7 | oversubscription requires on-demand paging (preloading assumes everything fits)
skip MM+GUPS mosaic l1=64/8 l2=256/128 frag=0.5:0.9 over=2x preloaded seed=7 | oversubscription requires on-demand paging (preloading assumes everything fits)
";

const WORKLOADS_ONLY: &str = "\
point MM mosaic | 3ec31b210c76acdc268eabd479550741
point HS+CONS mosaic | f352d0296624bdb1712c9e26eaae1402
";
