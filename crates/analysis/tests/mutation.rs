//! Mutation tripwires: every rule has a minimal corpus snippet that MUST
//! fire it, and a near-identical clean twin that MUST NOT. If a rule's
//! implementation is weakened, stubbed, or its wiring into
//! `scan_workspace` is lost, the corresponding case here fails — the
//! corpus is the mutation detector.

use mosaic_audit::{rules::RULES, Workspace};
use std::collections::BTreeSet;

fn rules_hit(sources: &[(&str, &str)]) -> BTreeSet<&'static str> {
    Workspace::from_sources(sources).scan().into_iter().map(|f| f.rule).collect()
}

fn assert_fires(rule: &str, sources: &[(&str, &str)]) {
    let hit = rules_hit(sources);
    assert!(
        hit.contains(rule),
        "`{rule}` did not fire on its tripwire corpus (got {hit:?}) — was the rule weakened?"
    );
}

fn assert_silent(sources: &[(&str, &str)]) {
    let findings = Workspace::from_sources(sources).scan();
    assert!(findings.is_empty(), "clean twin produced findings: {findings:#?}");
}

#[test]
fn every_rule_has_a_live_tripwire() {
    // Meta-check: the cases below must cover the whole rule set, so a
    // new rule cannot ship without a tripwire.
    let covered: BTreeSet<&str> = [
        "hashmap-in-sim",
        "wall-clock",
        "thread-rng",
        "panic-in-hotpath",
        "lossy-cast",
        "banned-alias",
        "interior-mutability",
        "relaxed-atomic",
        "telemetry-gate",
        "test-only",
    ]
    .into();
    let all: BTreeSet<&str> = RULES.iter().map(|r| r.id).collect();
    assert_eq!(covered, all, "tripwire corpus out of sync with RULES");
}

#[test]
fn hashmap_in_sim_fires_and_respects_crate_boundary() {
    assert_fires("hashmap-in-sim", &[("crates/vm/src/x.rs", "use std::collections::HashMap;\n")]);
    assert_fires("hashmap-in-sim", &[("crates/mem/src/x.rs", "fn f() { let s: HashSet<u64>; }\n")]);
    assert_silent(&[("crates/workloads/src/x.rs", "use std::collections::HashMap;\n")]);
    assert_silent(&[("crates/vm/src/x.rs", "use std::collections::BTreeMap;\n")]);
}

#[test]
fn wall_clock_fires_in_cycle_crates_only() {
    assert_fires("wall-clock", &[("crates/gpu/src/x.rs", "fn f() { Instant::now(); }\n")]);
    assert_fires("wall-clock", &[("crates/iobus/src/x.rs", "use std::time::SystemTime;\n")]);
    assert_silent(&[("crates/bench/src/x.rs", "fn f() { Instant::now(); }\n")]);
}

#[test]
fn thread_rng_fires_everywhere() {
    assert_fires("thread-rng", &[("crates/workloads/src/x.rs", "fn f() { thread_rng(); }\n")]);
    assert_fires("thread-rng", &[("crates/vm/src/x.rs", "fn f() { Rng::from_entropy(); }\n")]);
    assert_silent(&[("crates/workloads/src/x.rs", "fn f() { SimRng::from_seed(7); }\n")]);
}

#[test]
fn panic_in_hotpath_follows_the_computed_closure() {
    let reachable = [
        (
            "crates/gpu/src/sm.rs",
            "impl Sm { pub fn advance(&mut self, t: &mut Tlb) { t.lookup(); } }\n",
        ),
        ("crates/vm/src/tlb.rs", "impl Tlb { pub fn lookup(&mut self) { self.x.unwrap(); } }\n"),
    ];
    assert_fires("panic-in-hotpath", &reachable);
    // Same panic, no path from an entry point: must not fire.
    let unreachable = [
        ("crates/gpu/src/sm.rs", "impl Sm { pub fn advance(&mut self) {} }\n"),
        ("crates/vm/src/tlb.rs", "impl Tlb { pub fn lookup(&mut self) { self.x.unwrap(); } }\n"),
    ];
    assert_silent(&unreachable);
    // Macro panics count too.
    assert_fires(
        "panic-in-hotpath",
        &[("crates/gpu/src/sm.rs", "impl Sm { pub fn advance(&mut self) { panic!(\"x\"); } }\n")],
    );
}

#[test]
fn lossy_cast_fires_on_narrowing_only() {
    assert_fires(
        "lossy-cast",
        &[("crates/mem/src/x.rs", "fn f(a: PhysAddr) -> u32 { a.raw() as u32 }\n")],
    );
    assert_silent(&[("crates/mem/src/x.rs", "fn f(a: PhysAddr) -> u64 { a.raw() as u64 }\n")]);
}

#[test]
fn banned_alias_fires_on_rename_reexport_and_glob() {
    // In-file rename.
    assert_fires(
        "banned-alias",
        &[("crates/vm/src/x.rs", "use std::collections::HashMap as Map;\n")],
    );
    // Cross-crate re-export chain: the cycle crate never writes HashMap.
    assert_fires(
        "banned-alias",
        &[
            ("crates/workloads/src/lib.rs", "pub use std::collections::HashMap as FastMap;\n"),
            ("crates/vm/src/x.rs", "use mosaic_workloads::FastMap;\nstruct S { m: FastMap }\n"),
        ],
    );
    // Glob over a banned module.
    assert_fires("banned-alias", &[("crates/vm/src/x.rs", "use std::collections::*;\n")]);
    // Benign renames stay silent.
    assert_silent(&[("crates/vm/src/x.rs", "use std::collections::BTreeMap as Map;\n")]);
    assert_silent(&[("crates/workloads/src/x.rs", "use std::collections::HashMap as Map;\n")]);
}

#[test]
fn interior_mutability_fires_on_cells_atomics_and_static_mut() {
    assert_fires("interior-mutability", &[("crates/vm/src/x.rs", "use std::cell::RefCell;\n")]);
    assert_fires("interior-mutability", &[("crates/mem/src/x.rs", "static mut COUNT: u64 = 0;\n")]);
    assert_fires(
        "interior-mutability",
        &[(
            "crates/vm/src/x.rs",
            "struct Hint(AtomicUsize);\nfn f(h: &Hint) { h.0.load(Ordering::Acquire); }\n",
        )],
    );
    assert_silent(&[("crates/telemetry/src/x.rs", "use std::cell::RefCell;\n")]);
    assert_silent(&[("crates/experiments/src/x.rs", "struct Hint(AtomicUsize);\n")]);
}

#[test]
fn relaxed_atomic_fires_outside_the_allowlist() {
    assert_fires(
        "relaxed-atomic",
        &[("crates/vm/src/x.rs", "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n")],
    );
    // Outside the cycle crates, where an atomic is not interior-mutability.
    assert_silent(&[(
        "crates/experiments/src/x.rs",
        "fn f(c: &AtomicU64) { c.load(Ordering::SeqCst); }\n",
    )]);
}

#[test]
fn telemetry_gate_fires_outside_emit_and_on_state_calls() {
    assert_fires(
        "telemetry-gate",
        &[(
            "crates/gpu/src/x.rs",
            "use mosaic_telemetry::Event;\nfn f(c: u64) { let e = Event::Epoch { cycle: c }; }\n",
        )],
    );
    assert_fires(
        "telemetry-gate",
        &[("crates/gpu/src/x.rs", "fn f() { mosaic_telemetry::set_enabled(true); }\n")],
    );
    // The sanctioned form: construction inside the emit closure.
    assert_silent(&[(
        "crates/gpu/src/x.rs",
        "use mosaic_telemetry::{emit, Event};\nfn f(c: u64) { emit(|| Event::Epoch { cycle: c }); }\n",
    )]);
    // An unrelated Event enum in a cycle crate is not telemetry.
    assert_silent(&[("crates/gpu/src/x.rs", "enum Event { A }\nfn f() { let _ = Event::A; }\n")]);
}

#[test]
fn cfg_test_items_stay_unflagged() {
    assert_silent(&[(
        "crates/vm/src/x.rs",
        "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { Instant::now(); }\n}\n",
    )]);
}

#[test]
fn comments_and_strings_stay_unflagged() {
    assert_silent(&[(
        "crates/vm/src/x.rs",
        "// HashMap Instant thread_rng Ordering::Relaxed RefCell\nfn f() { let s = \"HashMap\"; let _ = s; }\n",
    )]);
}

/// A library crate whose `pub fn helper` only a `#[cfg(test)]` item
/// calls, plus `binary`, the `src/bin` file its twins vary.
fn test_only_corpus(binary: &'static str) -> [(&'static str, &'static str); 2] {
    [
        (
            "crates/workloads/src/lib.rs",
            "pub fn helper() -> u64 { 7 }\n\
             pub struct Frame;\n\
             impl Frame { pub fn used(&self) -> u64 { 1 } }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { super::helper(); } }\n",
        ),
        ("src/bin/tool.rs", binary),
    ]
}

#[test]
fn test_only_fires_on_a_pub_fn_only_tests_reach() {
    // `Frame::used` is unreached as well: the finding names each one.
    let findings = Workspace::from_sources(&test_only_corpus("fn main() {}\n")).scan();
    let named: Vec<&str> = findings.iter().map(|f| f.message.split('`').nth(1).unwrap()).collect();
    assert_eq!(named, ["helper", "Frame::used"], "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == "test-only"));
    // A `main` that calls it.
    assert_silent(&test_only_corpus(
        "fn main() { let f = mosaic_workloads::Frame; f.used(); mosaic_workloads::helper(); }\n",
    ));
    // A `main` that reaches it only as a fn-pointer value.
    assert_silent(&test_only_corpus(
        "use mosaic_workloads::{helper, Frame};\n\
         fn main() { let run: fn() -> u64 = helper; [Frame].iter().map(Frame::used); run(); }\n",
    ));
    // A `main` that reaches it only through a `const` initializer.
    assert_silent(&[
        test_only_corpus("")[0],
        (
            "crates/workloads/src/table.rs",
            "pub const TABLE: &[fn() -> u64] = &[crate::helper, || Frame.used()];\n",
        ),
        ("src/bin/tool.rs", "fn main() { for f in mosaic_workloads::TABLE { f(); } }\n"),
    ]);
    // No `fn main` at all: nothing to measure against, nothing reported.
    assert_silent(&test_only_corpus("pub fn not_a_main() {}\n"));
}

#[test]
fn the_benchmark_harness_is_a_caller_only() {
    // simbench's `main` keeps what it calls alive, but no rule reports in
    // simbench itself (here: entropy, which is banned everywhere else).
    assert_silent(&[
        ("crates/gpusim/src/lib.rs", "pub fn set_sim_threads(_: Option<usize>) {}\n"),
        (
            "simbench/src/main.rs",
            "fn main() { mosaic_gpusim::set_sim_threads(Some(1)); thread_rng(); }\n",
        ),
    ]);
}
