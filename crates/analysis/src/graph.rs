//! Layer 3 of the analyzer: a cross-crate call graph over the parsed
//! workspace, and the one reachability pass behind two closures.
//!
//! [`compute_closure`] takes its roots and its node set as inputs. Edges
//! are resolved from the call sites and value uses the parser extracted:
//!
//! * `Type::method(..)` paths resolve by `(self type, name)`, with the
//!   type name first mapped through the file's `use` renames;
//! * `recv.method(..)` method calls resolve *by name to every function
//!   with that name* — receiver types are not inferred, so the graph
//!   over-approximates. For a soundness pass that is the right
//!   direction: the computed closure can only be too big, never too
//!   small;
//! * bare `helper(..)` calls resolve to free functions with that name;
//! * a name used as a value (`.map(Type::method)`, `apply: helper`)
//!   resolves like a call of it;
//! * closures are attributed to the function whose body defines them.
//!
//! Two closures run on it:
//!
//! * [`hot_path`]: the roots are the per-cycle tick/issue/access loops of
//!   the simulated machine, declared in [`ENTRY_POINTS`] as `Type::method`
//!   pairs, and the nodes are the functions of the cycle-level crates.
//!   Everything reachable from them is the hot path: a panic there takes
//!   down the whole simulation, so `panic-in-hotpath` applies to each
//!   member function, wherever its file lives;
//! * [`reached`]: the roots are every `fn main` (binaries, examples, the
//!   benchmark harness) and the nodes are every loaded function, plus each
//!   `const`/`static` item, whose initializer counts as its body. A `pub
//!   fn` outside it is kept alive by tests alone, which `test-only`
//!   reports.

use crate::parse::{Callee, FileModel, FnDef};
use crate::rules::is_cycle_crate;
use std::collections::{BTreeMap, BTreeSet};

/// The per-cycle entry points of the simulated machine, as
/// `Type::method`. Everything reachable from these is hot. Adding a new
/// per-cycle engine (an eviction pump, a second GPU's tick) means adding
/// its entry here — the closure then extends itself.
pub const ENTRY_POINTS: &[&str] = &[
    // The SM issue loop: one call per warp scheduling slot.
    "Sm::advance",
    // The memory system behind it: every warp memory instruction.
    "GpuSystem::warp_access",
    "GpuSystem::warp_access_timed",
    // Mid-run management traffic (between-kernel deallocation drives
    // CAC compaction and shootdowns).
    "GpuSystem::deallocate",
    // Address-translation machinery ticks.
    "PageTableWalker::walk",
    // DRAM, cache, crossbar, and IO-bus device ticks.
    "Dram::access",
    "Dram::access_timed",
    "Dram::narrow_page_copy",
    "Dram::bulk_page_copy",
    "Cache::access",
    "Crossbar::traverse",
    "IoBus::transfer",
    // The demand-paging eviction pump: fires on every out-of-memory
    // fault under oversubscription (eviction, write-back, shootdowns).
    "GpuSystem::evict_pressure",
    // The multi-GPU fleet path: placement resolution on every L1-missing
    // access, and the inter-GPU link fabric it charges remote requests
    // and migration/replication payloads through.
    "PlacementMap::access",
    "Interconnect::traverse",
    "Interconnect::transfer",
];

/// A function in the computed closure, addressable for humans.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnRef {
    /// Repo-relative file path.
    pub path: String,
    /// `impl`/`trait` self type, if any.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based definition line.
    pub line: u32,
}

impl std::fmt::Display for FnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.self_ty {
            Some(ty) => write!(f, "{}::{} ({}:{})", ty, self.name, self.path, self.line),
            None => write!(f, "{} ({}:{})", self.name, self.path, self.line),
        }
    }
}

/// One declared entry point and the definitions it resolved to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryResolution {
    /// The `Type::method` spec from [`ENTRY_POINTS`].
    pub spec: &'static str,
    /// Matching function definitions (empty = the spec is stale).
    pub resolved: Vec<FnRef>,
}

/// A computed closure: its roots and every function reachable from them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Closure {
    /// Entry point resolutions, in [`ENTRY_POINTS`] order (empty for
    /// [`reached`]).
    pub entries: Vec<EntryResolution>,
    /// Every reachable function (and, for [`reached`], `const`/`static`
    /// item), sorted by (path, line).
    pub members: Vec<FnRef>,
    /// (file index, fn index) keys of the members, for rule lookups.
    keys: BTreeSet<(usize, usize)>,
}

impl Closure {
    /// Whether `files[file_idx].fns[fn_idx]` is in the closure.
    pub fn contains(&self, file_idx: usize, fn_idx: usize) -> bool {
        self.keys.contains(&(file_idx, fn_idx))
    }

    /// The distinct files the closure touches, sorted.
    pub fn files(&self) -> Vec<&str> {
        let set: BTreeSet<&str> = self.members.iter().map(|m| m.path.as_str()).collect();
        set.into_iter().collect()
    }

    /// Entry specs that resolved to no definition (stale declarations —
    /// the analyzer is lying to itself if these exist).
    pub fn unresolved_entries(&self) -> Vec<&'static str> {
        self.entries.iter().filter(|e| e.resolved.is_empty()).map(|e| e.spec).collect()
    }
}

/// The hot-path closure: everything in a cycle-level crate reachable
/// from [`ENTRY_POINTS`]. A `const`/`static` initializer runs at compile
/// time, so it is no node here.
pub fn hot_path(files: &[FileModel]) -> Closure {
    let is_entry = |def: &FnDef, spec: &str| {
        spec.split_once("::") == def.self_ty.as_deref().map(|ty| (ty, def.name.as_str()))
    };
    let mut closure = compute_closure(
        files,
        |def| ENTRY_POINTS.iter().any(|spec| is_entry(def, spec)),
        |file, def| is_cycle_crate(&file.path) && !def.is_const,
    );
    closure.entries = ENTRY_POINTS
        .iter()
        .map(|&spec| EntryResolution {
            spec,
            resolved: closure
                .keys
                .iter()
                .filter(|&&(fi, gi)| is_entry(&files[fi].fns[gi], spec))
                .map(|&(fi, gi)| fn_ref(files, fi, gi))
                .collect(),
        })
        .collect();
    closure
}

/// Everything reachable from any `fn main`, over every loaded function
/// and `const`/`static` item. Trait methods are roots too: formatting,
/// operators, iteration and `Drop` call them without naming them.
pub fn reached(files: &[FileModel]) -> Closure {
    compute_closure(files, |def| def.in_trait || is_main(def), |_, _| true)
}

/// Whether `def` is a free `fn main`.
pub fn is_main(def: &FnDef) -> bool {
    def.self_ty.is_none() && !def.is_const && def.name == "main"
}

/// Computes the closure of the nodes `is_root` picks, over the nodes
/// `is_node` admits. The result's `entries` are left empty.
pub fn compute_closure(
    files: &[FileModel],
    is_root: impl Fn(&FnDef) -> bool,
    is_node: impl Fn(&FileModel, &FnDef) -> bool,
) -> Closure {
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    let mut by_ty_name: BTreeMap<(&str, &str), Vec<(usize, usize)>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    let mut work: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if !is_node(file, f) {
                continue;
            }
            if is_root(f) {
                work.push((fi, gi));
            }
            by_name.entry(&f.name).or_default().push((fi, gi));
            match &f.self_ty {
                Some(ty) => by_ty_name.entry((ty, &f.name)).or_default().push((fi, gi)),
                None => free_by_name.entry(&f.name).or_default().push((fi, gi)),
            }
        }
    }
    let mut seen: BTreeSet<(usize, usize)> = work.iter().copied().collect();

    // Per-file `use` rename maps for resolving `Alias::method(..)`.
    let rename: Vec<BTreeMap<&str, &str>> = files
        .iter()
        .map(|file| {
            file.uses
                .iter()
                .filter(|u| u.local != "*")
                .filter_map(|u| Some((u.local.as_str(), u.target.last()?.as_str())))
                .collect()
        })
        .collect();

    while let Some((fi, gi)) = work.pop() {
        let file = &files[fi];
        let def = &file.fns[gi];
        for call in &def.calls {
            let targets: Vec<(usize, usize)> = match &call.callee {
                Callee::Method(name) => by_name.get(name.as_str()).cloned().unwrap_or_default(),
                Callee::Path(segs) => {
                    let last = segs.last().map(String::as_str).unwrap_or_default();
                    if segs.len() == 1 {
                        free_by_name.get(last).cloned().unwrap_or_default()
                    } else {
                        let ty_seg = segs[segs.len() - 2].as_str();
                        let ty = if ty_seg == "Self" {
                            def.self_ty.as_deref().unwrap_or(ty_seg)
                        } else {
                            rename[fi].get(ty_seg).copied().unwrap_or(ty_seg)
                        };
                        if ty.starts_with(char::is_uppercase) {
                            by_ty_name.get(&(ty, last)).cloned().unwrap_or_default()
                        } else {
                            // Module-qualified free function.
                            free_by_name.get(last).cloned().unwrap_or_default()
                        }
                    }
                }
                Callee::Macro(_) => Vec::new(),
            };
            for node in targets {
                if seen.insert(node) {
                    work.push(node);
                }
            }
        }
    }

    let mut members: Vec<FnRef> = seen.iter().map(|&(fi, gi)| fn_ref(files, fi, gi)).collect();
    members.sort();
    Closure { entries: Vec::new(), members, keys: seen }
}

fn fn_ref(files: &[FileModel], fi: usize, gi: usize) -> FnRef {
    let f = &files[fi].fns[gi];
    FnRef {
        path: files[fi].path.clone(),
        self_ty: f.self_ty.clone(),
        name: f.name.clone(),
        line: f.line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;
    use crate::parse::parse_file;
    use crate::tokens::tokenize;

    fn ws(sources: &[(&str, &str)]) -> Vec<FileModel> {
        sources.iter().map(|(p, s)| parse_file(p, tokenize(&strip(s)))).collect()
    }

    fn member_names(c: &Closure) -> Vec<String> {
        c.members.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn reaches_through_direct_and_method_calls() {
        let files = ws(&[(
            "crates/gpu/src/sm.rs",
            "impl Sm {\n\
             \x20   pub fn advance(&mut self) { self.pick(); helper(); }\n\
             \x20   fn pick(&self) {}\n\
             }\n\
             fn helper() { leaf(); }\n\
             fn leaf() {}\n\
             fn unrelated() {}\n",
        )]);
        let c = hot_path(&files);
        let names = member_names(&c);
        assert!(names.contains(&"advance".to_string()));
        assert!(names.contains(&"pick".to_string()));
        assert!(names.contains(&"helper".to_string()));
        assert!(names.contains(&"leaf".to_string()));
        assert!(!names.contains(&"unrelated".to_string()));
    }

    #[test]
    fn method_calls_cross_crates_by_name() {
        let files = ws(&[
            (
                "crates/gpu/src/sm.rs",
                "impl Sm { pub fn advance(&mut self, t: &mut Tlb) { t.lookup(1); } }\n",
            ),
            (
                "crates/vm/src/tlb.rs",
                "impl Tlb { pub fn lookup(&mut self, p: u64) -> u64 { self.probe(p) }\n\
                 fn probe(&self, p: u64) -> u64 { p } }\n",
            ),
        ]);
        let c = hot_path(&files);
        let names = member_names(&c);
        assert!(names.contains(&"lookup".to_string()));
        assert!(names.contains(&"probe".to_string()));
    }

    #[test]
    fn use_renames_resolve_for_qualified_calls() {
        let files = ws(&[
            (
                "crates/gpu/src/sm.rs",
                "use mosaic_vm::PageTableWalker as Walker;\n\
                 impl Sm { pub fn advance(&mut self) { Walker::walk(); } }\n",
            ),
            (
                "crates/vm/src/walker.rs",
                "impl PageTableWalker { pub fn walk() { step(); } }\nfn step() {}\n",
            ),
        ]);
        let c = hot_path(&files);
        let names = member_names(&c);
        assert!(names.contains(&"walk".to_string()), "{names:?}");
        assert!(names.contains(&"step".to_string()), "{names:?}");
    }

    #[test]
    fn non_cycle_crates_are_not_nodes() {
        let files = ws(&[
            ("crates/gpu/src/sm.rs", "impl Sm { pub fn advance(&mut self) { build(); } }\n"),
            ("crates/workloads/src/gen.rs", "pub fn build() { panic!(\"host side\"); }\n"),
        ]);
        let c = hot_path(&files);
        assert_eq!(member_names(&c), ["advance"]);
    }

    #[test]
    fn hot_path_ignores_const_initializers() {
        let files = ws(&[(
            "crates/gpu/src/sm.rs",
            "impl Sm {\n\
             \x20   const MASK: u64 = build();\n\
             \x20   pub fn advance(&mut self) -> u64 { Self::MASK }\n\
             }\n\
             const fn build() -> u64 { 1 }\n",
        )]);
        assert_eq!(member_names(&hot_path(&files)), ["advance"]);
    }

    #[test]
    fn reached_follows_mains_trait_methods_and_const_initializers() {
        let files = ws(&[
            ("src/bin/tool.rs", "fn main() { mosaic_experiments::run(); }\n"),
            (
                "crates/experiments/src/lib.rs",
                "pub fn run() { for f in TABLE { f(); } }\n\
                 pub const TABLE: &[fn()] = &[listed];\n\
                 pub fn listed() {}\n\
                 pub fn unused() {}\n\
                 impl std::fmt::Display for R { fn fmt(&self) { shown(); } }\n\
                 fn shown() {}\n",
            ),
        ]);
        let names = member_names(&reached(&files));
        for name in ["main", "run", "TABLE", "listed", "fmt", "shown"] {
            assert!(names.contains(&name.to_string()), "{name} missing from {names:?}");
        }
        assert!(!names.contains(&"unused".to_string()), "{names:?}");
    }

    #[test]
    fn unresolved_entries_are_reported() {
        let files = ws(&[("crates/gpu/src/sm.rs", "fn nothing_here() {}\n")]);
        let c = hot_path(&files);
        assert!(c.unresolved_entries().contains(&"Sm::advance"));
        assert!(c.members.is_empty());
    }

    #[test]
    fn closure_files_are_deduplicated_and_sorted() {
        let files = ws(&[
            (
                "crates/gpu/src/sm.rs",
                "impl Sm { pub fn advance(&mut self, c: &mut Cache) { c.access(1); } }\n",
            ),
            ("crates/mem/src/cache.rs", "impl Cache { pub fn access(&mut self, a: u64) {} }\n"),
        ]);
        let c = hot_path(&files);
        assert_eq!(c.files(), ["crates/gpu/src/sm.rs", "crates/mem/src/cache.rs"]);
    }
}
