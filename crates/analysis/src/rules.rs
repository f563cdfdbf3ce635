//! The audit rules: what the determinism/invariant policy bans and where.
//!
//! Rules run over the *parsed* workspace (token stream + item model +
//! call graph), not over raw lines: comments and string literals are
//! erased by [`crate::lexer::strip`], `#[cfg(test)]` items are excluded
//! by the parser, and the hot path is the reachability closure computed
//! by [`crate::graph`] — not a hand-maintained file list. Rules report
//! only in the files the policy covers ([`is_covered`]).

use crate::graph::{is_main, Closure};
use crate::parse::{Callee, FileModel, FnDef, UseBinding};
use std::collections::BTreeMap;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Repo-relative path of the offending file (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// One rule: identifier, one-line summary, and the long-form rationale
/// printed by `mosaic-audit explain <rule>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable identifier (used in findings and `allow.list`).
    pub id: &'static str,
    /// One-line summary for listings.
    pub summary: &'static str,
    /// Long-form rationale: why the construct is banned, what to use
    /// instead, and when an allowlist entry is legitimate.
    pub explain: &'static str,
}

/// Every rule the analyzer enforces.
pub const RULES: &[Rule] = &[
    Rule {
        id: "hashmap-in-sim",
        summary: "HashMap/HashSet in a cycle-level crate: iteration order would leak \
                  host randomness into simulated state (use BTreeMap/BTreeSet)",
        explain: "std's hash containers randomize their hash seed per process, so any \
                  iteration over them observes a host-random order. In a cycle-level \
                  crate that order can reach simulated state or timing, breaking the \
                  same-seed-same-run contract every figure and golden digest depends \
                  on. Use BTreeMap/BTreeSet (deterministic order) instead. Allowlist \
                  only if iteration order provably never escapes (and say why).",
    },
    Rule {
        id: "wall-clock",
        summary: "std::time::Instant/SystemTime in simulation logic: simulated \
                  behavior must depend only on simulated time",
        explain: "Simulated behavior must be a function of simulated time (`Cycle`), \
                  never of how fast the host happens to run. Instant/SystemTime in a \
                  cycle-level crate means timing leaks into results. Host-side timing \
                  (benchmarks, progress meters) belongs in the bench/experiments \
                  crates, which this rule does not cover.",
    },
    Rule {
        id: "thread-rng",
        summary: "thread_rng or entropy-seeded randomness: all streams must come \
                  from the seeded SimRng",
        explain: "Every random stream in the workspace must fork from the run's seed \
                  (SimRng::from_seed + fork), so a seed fully determines a run. \
                  thread_rng/from_entropy pull host entropy and are banned everywhere, \
                  including workload generators — a workload built from entropy cannot \
                  be reproduced from its config.",
    },
    Rule {
        id: "panic-in-hotpath",
        summary: "unwrap()/expect()/panic! in a function reachable from a per-cycle \
                  entry point: recoverable conditions must be handled, invariants \
                  belong in the audit",
        explain: "The hot path is computed, not listed: every function reachable in \
                  the call graph from the per-cycle entry points (see `mosaic-audit \
                  graph`) is hot, because a panic there takes down the whole \
                  simulation mid-run. Return Option/Result for recoverable states; \
                  move invariant checks into the AuditInvariants sweep. Allowlist \
                  entries are per file and must argue why the panic is unreachable \
                  by construction.",
    },
    Rule {
        id: "lossy-cast",
        summary: "lossy `as` cast of an address/cycle-typed value: addresses and \
                  cycle counts are u64 end to end",
        explain: "`.raw() as u32` and friends silently truncate addresses above 4 GiB \
                  and cycle counts past ~4e9 — both occur in long runs. Keep u64 end \
                  to end; narrow only through checked conversions that make the \
                  failure mode explicit.",
    },
    Rule {
        id: "banned-alias",
        summary: "a `use ... as` rename, re-export, or glob that smuggles a banned \
                  type past the ident rules (e.g. `use std::collections::HashMap as \
                  Map`)",
        explain: "The ident rules match names; a rename (`use std::collections::\
                  HashMap as Map`), a cross-crate re-export (`pub use` in a non-cycle \
                  crate, imported by a cycle crate), or a glob over std::collections/\
                  std::time lets banned constructs in without their name ever \
                  appearing. The analyzer resolves use-trees (including renames and \
                  re-export chains) and flags both the smuggling binding and every \
                  use of the alias.",
    },
    Rule {
        id: "interior-mutability",
        summary: "RefCell/Cell/UnsafeCell, an Atomic* type or `static mut` in a \
                  cycle-level crate: hidden mutation defeats the determinism audit",
        explain: "Interior mutability (cells and atomics, whatever their memory \
                  ordering) lets &self methods mutate state the runtime audit and \
                  the conformance oracles cannot see, and `static mut` adds \
                  cross-run leakage on top. Cycle-level state must be owned and \
                  mutated through &mut so every write is visible to the borrow \
                  checker and the audit.",
    },
    Rule {
        id: "relaxed-atomic",
        summary: "Ordering::Relaxed atomics outside the allowlisted host-side \
                  executors: relaxed ordering has no place in simulated state",
        explain: "Relaxed atomics provide no happens-before edges; results read \
                  through them can differ run to run under the parallel sweep \
                  executor. The only sanctioned uses are host-side coordination \
                  that is provably result-invariant (the sweep executor's progress \
                  counter, telemetry reassembly), each carried by an allowlist \
                  entry. Anything else must use a stronger ordering or a lock.",
    },
    Rule {
        id: "telemetry-gate",
        summary: "telemetry use outside the zero-overhead emit() closure gate in a \
                  cycle-level crate",
        explain: "Cycle crates may only touch telemetry through `emit(|| Event::..)` \
                  (and the `enabled()` fast check): the closure keeps event \
                  construction off the disabled path, which is what makes traced and \
                  untraced runs bit-identical. Constructing an Event outside emit, \
                  or calling set_enabled/set_sink/TraceSession from a cycle crate, \
                  puts tracing state on the simulated path.",
    },
    Rule {
        id: "test-only",
        summary: "a `pub fn` that no `fn main` reaches: only tests keep it alive, so \
                  every reader pays for a surface nothing runs",
        explain: "The roots are every `fn main`: the binaries (`src/bin`, \
                  `crates/*/src/bin`, `crates/*/src/main.rs`), the examples, and the \
                  frozen benchmark harness under `simbench/src`. Examples and the \
                  harness are loaded as callers only: they count toward what is \
                  reached, but no rule reports in them. Every trait method is a root \
                  too, since formatting, operators, iteration and `Drop` call them \
                  without naming them. From the roots the call graph is followed \
                  through every workspace crate; a function used as a \
                  value (`.map(Type::method)`, a table's `apply: helper`) counts as \
                  called, and so does anything named in a reached `const`/`static` \
                  initializer. Each inherent or free `pub fn` outside that closure is \
                  reported; trait-impl methods are out of scope. `#[cfg(test)]` items \
                  and `tests/` directories are not callers, so a statistic or helper \
                  only a test reads is reported here. Delete it with any field or \
                  private helper only it used, and move its tests to a public path. \
                  Allowlist a file only for support shared by several test binaries \
                  (golden-test fixtures), and say why. A workspace with no `fn main` \
                  reports nothing.",
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Crates whose code runs at cycle granularity: everything the simulated
/// state or timing can observe. The workloads/experiments/bench crates sit
/// outside the simulated machine and may use host facilities.
pub const CYCLE_CRATES: [&str; 7] = ["sim-core", "gpu", "gpusim", "vm", "core", "mem", "iobus"];

/// Whether the policy covers a repo-relative path: `crates/*/src` and the
/// root `src/`. The other loaded files (`examples/`, `simbench/src`) are
/// callers only.
pub fn is_covered(path: &str) -> bool {
    path.starts_with("crates/") || path.starts_with("src/")
}

/// The crate a repo-relative path belongs to (`crates/<name>/...`), if any.
fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Whether a repo-relative path is in a cycle-level crate.
pub fn is_cycle_crate(path: &str) -> bool {
    crate_of(path).is_some_and(|c| CYCLE_CRATES.contains(&c))
}

/// Banned container/clock names (cycle crates only).
const BANNED_CYCLE_NAMES: [(&str, &str, &str); 4] = [
    ("HashMap", "hashmap-in-sim", "use BTreeMap/BTreeSet"),
    ("HashSet", "hashmap-in-sim", "use BTreeMap/BTreeSet"),
    ("Instant", "wall-clock", "use the simulated clock"),
    ("SystemTime", "wall-clock", "use the simulated clock"),
];

/// Entropy names (banned everywhere).
const BANNED_EVERYWHERE_NAMES: [&str; 2] = ["thread_rng", "from_entropy"];

/// Interior-mutability cell types (cycle crates only).
const CELL_NAMES: [&str; 5] = ["Cell", "RefCell", "UnsafeCell", "OnceCell", "LazyCell"];

/// Narrow integer types an address- or cycle-typed u64 must never be cast
/// into with `as` (silent truncation).
const NARROW_INTS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Modules whose glob import smuggles banned types into a cycle crate.
const BANNED_GLOB_MODULES: [&str; 2] = ["std::collections", "std::time"];

/// Scans the whole parsed workspace against every rule, given its
/// hot-path closure and the closure of its `fn main`s.
pub fn scan_workspace(files: &[FileModel], hot: &Closure, reached: &Closure) -> Vec<Finding> {
    let exports = export_map(files);
    // With no `fn main` there is nothing to measure reach against.
    let reached = files.iter().any(|file| file.fns.iter().any(is_main)).then_some(reached);
    let mut findings = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !is_covered(&file.path) {
            continue;
        }
        scan_idents(file, &mut findings);
        scan_aliases(file, &exports, &mut findings);
        scan_telemetry_gate(file, &mut findings);
        scan_hot_panics(files, hot, fi, &mut findings);
        if let Some(reached) = reached {
            scan_test_only(file, reached, fi, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Token-level ident rules: banned names, interior mutability, relaxed
/// atomics, lossy casts.
fn scan_idents(file: &FileModel, findings: &mut Vec<Finding>) {
    let cycle = is_cycle_crate(&file.path);
    let toks = &file.tokens;
    let mut push = |rule: &'static str, line: u32, message: String| {
        findings.push(Finding { rule, path: file.path.clone(), line: line as usize, message });
    };
    for (i, tok) in toks.iter().enumerate() {
        if !file.included[i] || tok.kind != crate::tokens::TokKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        if cycle {
            for (banned, rule, fix) in BANNED_CYCLE_NAMES {
                if name == banned {
                    let what = match rule {
                        "hashmap-in-sim" => format!("{banned} in a cycle-level crate: {fix}"),
                        _ => format!("{banned} in simulation logic: {fix}"),
                    };
                    push(rule, tok.line, what);
                }
            }
            if CELL_NAMES.contains(&name) || name.starts_with("Atomic") {
                push(
                    "interior-mutability",
                    tok.line,
                    format!("{name} in a cycle-level crate: hidden mutation defeats the audit"),
                );
            }
            if name == "static" && toks.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
                push(
                    "interior-mutability",
                    tok.line,
                    "`static mut` in a cycle-level crate: global mutable state leaks across runs"
                        .to_string(),
                );
            }
            // `.raw() as <narrow>` / `.as_u64() as <narrow>`.
            if (name == "raw" || name == "as_u64")
                && i >= 1
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(")"))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("as"))
            {
                if let Some(ty) = toks.get(i + 4) {
                    if NARROW_INTS.contains(&ty.text.as_str()) {
                        push(
                            "lossy-cast",
                            tok.line,
                            format!("`.{name}() as {}` silently truncates", ty.text),
                        );
                    }
                }
            }
        }
        if BANNED_EVERYWHERE_NAMES.contains(&name) {
            push(
                "thread-rng",
                tok.line,
                "entropy-seeded randomness: derive a stream from the seeded SimRng".to_string(),
            );
        }
        if name == "Relaxed"
            && i >= 2
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("Ordering")
        {
            push(
                "relaxed-atomic",
                tok.line,
                "Ordering::Relaxed: no happens-before edge; use a stronger ordering or \
                 get the file allowlisted as host-side-only"
                    .to_string(),
            );
        }
    }
}

/// Workspace-wide `pub use` re-export map: (crate ident, exported name)
/// -> target path as written at the re-export site.
fn export_map(files: &[FileModel]) -> BTreeMap<(String, String), Vec<String>> {
    let mut map = BTreeMap::new();
    for file in files {
        for u in &file.uses {
            if u.is_pub && u.local != "*" {
                map.insert((file.krate.clone(), u.local.clone()), u.target.clone());
            }
        }
    }
    map
}

/// Follows a `use` target through cross-crate `pub use` chains to the
/// path it ultimately names.
fn ultimate_target(
    file: &FileModel,
    binding: &UseBinding,
    exports: &BTreeMap<(String, String), Vec<String>>,
) -> Vec<String> {
    let mut target = binding.target.clone();
    let mut krate = file.krate.clone();
    let mut hops = 0;
    loop {
        hops += 1;
        if hops > 8 {
            return target;
        }
        let Some(first) = target.first().cloned() else { return target };
        let next_krate = if first == "crate" || first == "self" || first == "super" {
            krate.clone()
        } else if first.starts_with("mosaic") {
            first
        } else {
            return target; // std / external: as resolved as it gets
        };
        let Some(name) = target.last() else { return target };
        match exports.get(&(next_krate.clone(), name.clone())) {
            Some(re) if *re != target => {
                target = re.clone();
                krate = next_krate;
            }
            _ => return target,
        }
    }
}

/// What a resolved path is banned as, if anything.
fn banned_as(resolved: &[String], cycle: bool) -> Option<(&'static str, &'static str)> {
    let last = resolved.last().map(String::as_str)?;
    if BANNED_EVERYWHERE_NAMES.contains(&last) {
        return Some(("thread-rng", last_static(last)));
    }
    if !cycle {
        return None;
    }
    BANNED_CYCLE_NAMES
        .iter()
        .find(|(banned, _, _)| *banned == last)
        .map(|(banned, _, _)| ("banned-alias", *banned))
        .or_else(|| {
            (last == "Relaxed" && resolved.iter().any(|s| s == "Ordering"))
                .then_some(("banned-alias", "Relaxed"))
        })
}

/// Static name for the entropy sources (for message formatting).
fn last_static(name: &str) -> &'static str {
    match name {
        "thread_rng" => "thread_rng",
        "from_entropy" => "from_entropy",
        "Relaxed" => "Relaxed",
        _ => "banned construct",
    }
}

/// The alias rules: renamed/re-exported/glob-imported banned constructs,
/// plus every use of such an alias.
fn scan_aliases(
    file: &FileModel,
    exports: &BTreeMap<(String, String), Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let cycle = is_cycle_crate(&file.path);
    let mut banned_locals: Vec<(String, String, u32)> = Vec::new(); // (local, canonical, line)
    for u in &file.uses {
        if u.local == "*" {
            if cycle {
                let module = u.target.join("::");
                if BANNED_GLOB_MODULES.iter().any(|m| module.ends_with(m)) {
                    findings.push(Finding {
                        rule: "banned-alias",
                        path: file.path.clone(),
                        line: u.line as usize,
                        message: format!(
                            "glob import of {module}: banned types become nameable without \
                             their name ever appearing"
                        ),
                    });
                }
            }
            continue;
        }
        let resolved = ultimate_target(file, u, exports);
        let Some((_, canonical)) = banned_as(&resolved, cycle) else { continue };
        // A plain `use std::collections::HashMap;` is already flagged by
        // the ident rules (the banned name appears); the alias rule
        // covers the smuggling forms, where the local name differs.
        if u.local == canonical {
            continue;
        }
        findings.push(Finding {
            rule: "banned-alias",
            path: file.path.clone(),
            line: u.line as usize,
            message: format!(
                "`{}` is an alias of {} — renaming does not lift the ban",
                u.local,
                resolved.join("::")
            ),
        });
        banned_locals.push((u.local.clone(), resolved.join("::"), u.line));
    }
    // Flag every use of a banned alias (beyond its binding line).
    for (i, tok) in file.tokens.iter().enumerate() {
        if !file.included[i] || tok.kind != crate::tokens::TokKind::Ident {
            continue;
        }
        for (local, canonical, bind_line) in &banned_locals {
            if tok.text == *local && tok.line != *bind_line {
                findings.push(Finding {
                    rule: "banned-alias",
                    path: file.path.clone(),
                    line: tok.line as usize,
                    message: format!("`{local}` here is {canonical}"),
                });
            }
        }
    }
}

/// The telemetry gate: cycle crates may only touch telemetry through
/// `emit(|| ..)` and `enabled()`.
fn scan_telemetry_gate(file: &FileModel, findings: &mut Vec<Finding>) {
    if !is_cycle_crate(&file.path) {
        return;
    }
    // Local names bound to telemetry items in this file. Only names that
    // provably come from mosaic_telemetry participate — an unrelated
    // `Event` enum in a cycle crate is not this rule's business.
    let mut event_names: Vec<String> = Vec::new();
    let mut emit_names: Vec<String> = Vec::new();
    for u in &file.uses {
        if u.target.first().is_some_and(|s| s == "mosaic_telemetry") {
            if u.target.last().is_some_and(|s| s == "Event") {
                event_names.push(u.local.clone());
            }
            if u.target.last().is_some_and(|s| s == "emit") {
                emit_names.push(u.local.clone());
            }
        }
    }
    let toks = &file.tokens;
    for f in &file.fns {
        let (start, end) = f.body;
        let mut emit_depths: Vec<usize> = Vec::new();
        let mut paren_depth = 0usize;
        let mut j = start;
        while j < end.min(toks.len()) {
            let tok = &toks[j];
            if tok.is_punct("(") {
                paren_depth += 1;
            } else if tok.is_punct(")") {
                paren_depth = paren_depth.saturating_sub(1);
                while emit_depths.last().is_some_and(|&d| d > paren_depth) {
                    emit_depths.pop();
                }
            } else if tok.kind == crate::tokens::TokKind::Ident && file.included[j] {
                let name = tok.text.as_str();
                let qualified_telemetry = j >= 2
                    && toks[j - 1].is_punct("::")
                    && toks[j - 2].is_ident("mosaic_telemetry");
                let unqualified = !toks.get(j.wrapping_sub(1)).is_some_and(|t| t.is_punct("::"));
                let is_emit = (qualified_telemetry && name == "emit")
                    || (unqualified && emit_names.iter().any(|e| e.as_str() == name));
                if is_emit && toks.get(j + 1).is_some_and(|t| t.is_punct("(")) {
                    emit_depths.push(paren_depth + 1);
                    paren_depth += 1;
                    j += 2;
                    continue;
                }
                let gated_event = toks.get(j + 1).is_some_and(|t| t.is_punct("::"))
                    && ((qualified_telemetry && name == "Event")
                        || (unqualified && event_names.iter().any(|e| e.as_str() == name)));
                if gated_event && emit_depths.is_empty() {
                    findings.push(Finding {
                        rule: "telemetry-gate",
                        path: file.path.clone(),
                        line: tok.line as usize,
                        message: format!(
                            "`{name}::..` constructed outside `emit(|| ..)`: events must be \
                             built inside the gate closure"
                        ),
                    });
                }
                if matches!(name, "set_enabled" | "set_sink" | "TraceSession")
                    && (qualified_telemetry
                        || file.uses.iter().any(|u| {
                            u.local == name
                                && u.target.first().is_some_and(|s| s == "mosaic_telemetry")
                        }))
                {
                    findings.push(Finding {
                        rule: "telemetry-gate",
                        path: file.path.clone(),
                        line: tok.line as usize,
                        message: format!(
                            "`{name}` called from a cycle-level crate: tracing state belongs \
                             to the experiments layer"
                        ),
                    });
                }
            }
            j += 1;
        }
    }
}

/// The closure-based panic rule: `.unwrap()`, `.expect(..)`, `panic!`,
/// `unreachable!`, `todo!`, `unimplemented!` in any function reachable
/// from a per-cycle entry point.
fn scan_hot_panics(files: &[FileModel], closure: &Closure, fi: usize, findings: &mut Vec<Finding>) {
    let file = &files[fi];
    for (gi, f) in file.fns.iter().enumerate() {
        if !closure.contains(fi, gi) {
            continue;
        }
        let ctx = qualified(f);
        for call in &f.calls {
            let what = match &call.callee {
                Callee::Method(m) if m == "unwrap" => Some(".unwrap()"),
                Callee::Method(m) if m == "expect" => Some(".expect(..)"),
                Callee::Macro(m) if m == "panic" => Some("panic!"),
                Callee::Macro(m) if m == "unreachable" => Some("unreachable!"),
                Callee::Macro(m) if m == "todo" => Some("todo!"),
                Callee::Macro(m) if m == "unimplemented" => Some("unimplemented!"),
                _ => None,
            };
            if let Some(what) = what {
                findings.push(Finding {
                    rule: "panic-in-hotpath",
                    path: file.path.clone(),
                    line: call.line as usize,
                    message: format!("`{what}` in `{ctx}`, reachable from a per-cycle entry point"),
                });
            }
        }
    }
}

/// The `test-only` rule: every inherent or free `pub fn` of `file` (at
/// index `fi`) outside the closure of the workspace's `fn main`s.
fn scan_test_only(file: &FileModel, reached: &Closure, fi: usize, findings: &mut Vec<Finding>) {
    for (gi, f) in file.fns.iter().enumerate() {
        if f.is_pub && !f.is_const && !reached.contains(fi, gi) {
            findings.push(Finding {
                rule: "test-only",
                path: file.path.clone(),
                line: f.line as usize,
                message: format!(
                    "`{}` is pub but no `fn main` reaches it: only tests keep it alive",
                    qualified(f)
                ),
            });
        }
    }
}

/// `Type::name` for a method, `name` for a free function.
fn qualified(f: &FnDef) -> String {
    match &f.self_ty {
        Some(ty) => format!("{ty}::{}", f.name),
        None => f.name.clone(),
    }
}
