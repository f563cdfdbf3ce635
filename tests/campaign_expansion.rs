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
point MM gpu-mmu | a3f3c314c2384f09ec5b1d43904ad1ed
point MM gpu-mmu over=2x | 93e2e55e1e15dcba2d3570dd93c842a8
point MM mosaic | a40fdc418755ed24081bee45ab837c7d
point MM mosaic over=2x | c04912f81741e3d0b3941bbe6dbe59f8
point GUPS gpu-mmu | 5707c68f8cbbbdf30d1b4f769d505dbf
point GUPS gpu-mmu over=2x | a0e4debde8dd35bfe53f99aead34d320
point GUPS mosaic | 7e9434ca5cd7694ee27a44bcc1091f15
point GUPS mosaic over=2x | 7b8422f39728d1c96dc012abaea14d6e
point MM+GUPS gpu-mmu | 12917270d0a796f8fc1f42cc787cf9ca
point MM+GUPS gpu-mmu over=2x | 4700641e8432a86e1ff07b404b680393
point MM+GUPS mosaic | 6d6afec76599acd7d1f37d974d805d94
point MM+GUPS mosaic over=2x | 2690541137fc9bc6d4fc77c061ec6b6d
";

const EVERY_AXIS: &str = "\
point MM+GUPS gpu-mmu l1=64/8 l2=256/128 seed=7 | ec19e17ce0bfd37d38166028d8467d0a
point MM+GUPS gpu-mmu l1=64/8 l2=256/128 preloaded seed=7 | 538fed6a2dbf9cf6903856ddef27a524
point MM+GUPS gpu-mmu l1=64/8 l2=256/128 over=2x seed=7 | aabc330bec929a6dc6d9e1c3b128f06d
point MM+GUPS mosaic l1=64/8 l2=256/128 seed=7 | 534b467e6f027ef189b4b7f5b78ec714
point MM+GUPS mosaic l1=64/8 l2=256/128 preloaded seed=7 | 8d686480e8e81b816a68d8ff9c8647f6
point MM+GUPS mosaic l1=64/8 l2=256/128 over=2x seed=7 | 5cea3f95fbb6ba7d8a10e1f0d8e6fbff
point MM+GUPS mosaic l1=64/8 l2=256/128 frag=0.5:0.9 seed=7 | 234179cf5404bec22ce3cade21b83f16
point MM+GUPS mosaic l1=64/8 l2=256/128 frag=0.5:0.9 preloaded seed=7 | 600b492750d9eba81d26da265d009a58
point MM+GUPS mosaic l1=64/8 l2=256/128 frag=0.5:0.9 over=2x seed=7 | 986d7573bb138514863125a603ebaa21
skip MM+GUPS gpu-mmu l1=64/8 l2=256/128 over=2x preloaded seed=7 | oversubscription requires on-demand paging (preloading assumes everything fits)
skip MM+GUPS gpu-mmu l1=64/8 l2=256/128 frag=0.5:0.9 seed=7 | fragmentation requires a Mosaic manager (only Mosaic pre-fragments memory)
skip MM+GUPS gpu-mmu l1=64/8 l2=256/128 frag=0.5:0.9 preloaded seed=7 | fragmentation requires a Mosaic manager (only Mosaic pre-fragments memory)
skip MM+GUPS gpu-mmu l1=64/8 l2=256/128 frag=0.5:0.9 over=2x seed=7 | fragmentation requires a Mosaic manager (only Mosaic pre-fragments memory)
skip MM+GUPS gpu-mmu l1=64/8 l2=256/128 frag=0.5:0.9 over=2x preloaded seed=7 | oversubscription requires on-demand paging (preloading assumes everything fits)
skip MM+GUPS mosaic l1=64/8 l2=256/128 over=2x preloaded seed=7 | oversubscription requires on-demand paging (preloading assumes everything fits)
skip MM+GUPS mosaic l1=64/8 l2=256/128 frag=0.5:0.9 over=2x preloaded seed=7 | oversubscription requires on-demand paging (preloading assumes everything fits)
";

const WORKLOADS_ONLY: &str = "\
point MM mosaic | f75b731be7a2334ee7e7c23781d173f8
point HS+CONS mosaic | 8af49bef2d45a95ae5ce34d34e469c61
";
