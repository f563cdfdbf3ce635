//! `mosaic-audit` — the workspace's determinism/invariant static-analysis
//! pass.
//!
//! A cycle-accurate simulator's results are only meaningful if the same
//! seed always produces the same run. This crate parses every Rust source
//! file under `crates/*/src` (plus the root `src/`) and checks the
//! constructs that historically break that guarantee or mask broken
//! invariants. It is syntax-aware, not a line scanner:
//!
//! * [`lexer`] erases comments and literal contents, preserving layout;
//! * [`tokens`] chops the stripped source into a token stream;
//! * [`parse`] extracts `use` trees (including `as` renames and globs),
//!   `fn`/`impl` items, and call sites, excluding `#[cfg(test)]` items;
//! * [`graph`] builds a cross-crate call graph and *computes* two
//!   closures: the hot path from the per-cycle entry points — there is
//!   no hand-maintained hot-file list to go stale — and what any `fn
//!   main` reaches;
//! * [`rules`] runs the policy over the parsed workspace: banned
//!   containers/clocks/entropy (including alias and re-export evasions),
//!   interior mutability and relaxed atomics in cycle crates, the
//!   telemetry `emit()` gate, lossy casts, panics anywhere in the
//!   computed closure, and `pub fn`s that no `fn main` reaches.
//!
//! `examples/` and the frozen benchmark harness under `simbench/src` are
//! loaded as callers only: their `fn main`s and calls count toward what
//! is reached, but no rule reports in them.
//!
//! Violations that are individually justified live in
//! `crates/analysis/allow.list`; everything else fails the check. The
//! analyzer is hand-rolled and dependency-free (the workspace builds
//! offline).
//!
//! Run it as:
//!
//! ```text
//! cargo run -p mosaic-audit -- check                 # scan the repo, exit 1 on findings
//! cargo run -p mosaic-audit -- check --format json   # machine-readable findings
//! cargo run -p mosaic-audit -- graph                 # dump the computed hot-path closure
//! cargo run -p mosaic-audit -- explain panic-in-hotpath
//! ```
//!
//! The runtime half of the policy is the `AuditInvariants` trait in
//! `mosaic-sim-core` (frame conservation, ownership agreement, TLB
//! coherence), swept by the gpusim runner every `audit_every` cycles.

#![warn(missing_docs)]

pub mod allowlist;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod tokens;

pub use allowlist::Allowlist;
pub use graph::Closure;
pub use rules::Finding;

use parse::FileModel;
use std::path::{Path, PathBuf};

/// The parsed workspace: every covered file as a [`FileModel`].
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<FileModel>,
}

impl Workspace {
    /// Parses in-memory sources (tests, fixtures). Paths must be
    /// repo-relative with forward slashes.
    pub fn from_sources(sources: &[(&str, &str)]) -> Self {
        let mut files: Vec<FileModel> = sources
            .iter()
            .map(|(path, src)| parse::parse_file(path, tokens::tokenize(&lexer::strip(src))))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Loads and parses every covered source file under `root`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unreadable tree).
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut files = Vec::new();
        for file in source_files(root)? {
            let source = std::fs::read_to_string(&file)?;
            let rel = relative(root, &file);
            files.push(parse::parse_file(&rel, tokens::tokenize(&lexer::strip(&source))));
        }
        Ok(Workspace { files })
    }

    /// Computes the hot-path closure over this workspace.
    pub fn closure(&self) -> Closure {
        graph::hot_path(&self.files)
    }

    /// Runs every rule over this workspace (closures computed internally).
    pub fn scan(&self) -> Vec<Finding> {
        rules::scan_workspace(&self.files, &self.closure(), &graph::reached(&self.files))
    }
}

/// Everything one `check` run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Findings not covered by the allowlist (the check fails on any).
    pub findings: Vec<Finding>,
    /// Findings covered by the allowlist.
    pub exempted: Vec<Finding>,
    /// Files scanned (callers-only files not counted).
    pub files: usize,
    /// Stale allowlist entries (rule+path pairs that matched nothing).
    pub stale_allows: Vec<String>,
    /// Declared entry points that resolved to no definition — the
    /// closure would silently shrink, so these fail the check too.
    pub unresolved_entries: Vec<String>,
}

impl ScanReport {
    /// Whether the check passes (stale allowlist entries are a separate,
    /// CLI-level failure with its own escape hatch).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.unresolved_entries.is_empty()
    }
}

/// A full analysis: the report plus the computed closure behind it.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// The check outcome.
    pub report: ScanReport,
    /// The hot-path closure the panic rule ran on.
    pub closure: Closure,
}

/// Collects every `.rs` file the analyzer loads, sorted for
/// deterministic output: the files the policy covers (`crates/*/src/**`
/// and the root package's `src/**`) and the callers-only files
/// (`examples/**` and `simbench/src/**`, see [`rules::is_covered`]).
///
/// # Errors
///
/// Propagates filesystem errors from directory traversal.
pub fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut dirs = vec![root.join("src"), root.join("examples"), root.join("simbench/src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            dirs.push(entry?.path().join("src"));
        }
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs(dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes (rule selection and
/// allowlist matching are defined on this form).
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Builds a report from an already-parsed workspace and an allowlist.
pub fn analyze_workspace(ws: &Workspace, allow: &Allowlist) -> Analysis {
    let closure = ws.closure();
    let all = rules::scan_workspace(&ws.files, &closure, &graph::reached(&ws.files));
    let stale = allow
        .unused(&all)
        .into_iter()
        .map(|e| format!("{} {} ({})", e.rule, e.path, e.justification))
        .collect();
    let (findings, exempted) = allow.filter(all);
    let unresolved = closure.unresolved_entries().iter().map(|s| s.to_string()).collect();
    Analysis {
        report: ScanReport {
            findings,
            exempted,
            files: ws.files.iter().filter(|f| rules::is_covered(&f.path)).count(),
            stale_allows: stale,
            unresolved_entries: unresolved,
        },
        closure,
    }
}

/// Runs the full analysis over `root` with `allow`, reading every covered
/// source file.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable tree).
pub fn analyze(root: &Path, allow: &Allowlist) -> std::io::Result<Analysis> {
    Ok(analyze_workspace(&Workspace::load(root)?, allow))
}

/// Runs the full check over `root` with `allow` (report only).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable tree).
pub fn check(root: &Path, allow: &Allowlist) -> std::io::Result<ScanReport> {
    Ok(analyze(root, allow)?.report)
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
        json_escape(f.rule),
        json_escape(&f.path),
        f.line,
        json_escape(&f.message)
    )
}

fn string_array_json(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", json_escape(s))).collect();
    format!("[{}]", inner.join(","))
}

/// Renders a [`ScanReport`] as a JSON document (hand-rolled: the
/// workspace builds offline, no serde).
pub fn report_json(report: &ScanReport) -> String {
    let findings: Vec<String> = report.findings.iter().map(finding_json).collect();
    let exempted: Vec<String> = report.exempted.iter().map(finding_json).collect();
    format!(
        "{{\"files\":{},\"clean\":{},\"findings\":[{}],\"exempted\":[{}],\
         \"stale_allows\":{},\"unresolved_entries\":{}}}",
        report.files,
        report.is_clean(),
        findings.join(","),
        exempted.join(","),
        string_array_json(&report.stale_allows),
        string_array_json(&report.unresolved_entries)
    )
}

fn fn_ref_json(m: &graph::FnRef) -> String {
    let self_ty = match &m.self_ty {
        Some(ty) => format!("\"{}\"", json_escape(ty)),
        None => "null".to_string(),
    };
    format!(
        "{{\"path\":\"{}\",\"self_ty\":{},\"name\":\"{}\",\"line\":{}}}",
        json_escape(&m.path),
        self_ty,
        json_escape(&m.name),
        m.line
    )
}

/// Renders the computed hot-path closure as a JSON document.
pub fn closure_json(closure: &Closure) -> String {
    let entries: Vec<String> = closure
        .entries
        .iter()
        .map(|e| {
            let resolved: Vec<String> = e.resolved.iter().map(fn_ref_json).collect();
            format!(
                "{{\"spec\":\"{}\",\"resolved\":[{}]}}",
                json_escape(e.spec),
                resolved.join(",")
            )
        })
        .collect();
    let members: Vec<String> = closure.members.iter().map(fn_ref_json).collect();
    let files: Vec<String> =
        closure.files().iter().map(|p| format!("\"{}\"", json_escape(p))).collect();
    format!(
        "{{\"entries\":[{}],\"members\":[{}],\"files\":[{}]}}",
        entries.join(","),
        members.join(","),
        files.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/repo");
        let p = Path::new("/repo/crates/vm/src/tlb.rs");
        assert_eq!(relative(root, p), "crates/vm/src/tlb.rs");
    }

    #[test]
    fn one_file_scan_end_to_end() {
        let ws = Workspace::from_sources(&[(
            "crates/vm/src/x.rs",
            "use std::collections::HashMap; // HashMap\n",
        )]);
        let f = ws.scan();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hashmap-in-sim");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = ScanReport {
            findings: vec![Finding {
                rule: "wall-clock",
                path: "crates/vm/src/x.rs".to_string(),
                line: 3,
                message: "Instant with \"quotes\"".to_string(),
            }],
            exempted: Vec::new(),
            files: 1,
            stale_allows: vec!["wall-clock crates/vm/src/y.rs (old)".to_string()],
            unresolved_entries: Vec::new(),
        };
        let j = report_json(&report);
        assert!(j.contains("\"files\":1"));
        assert!(j.contains("\"clean\":false"));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\"line\":3"));
    }

    #[test]
    fn closure_json_contains_entries_and_members() {
        let ws = Workspace::from_sources(&[(
            "crates/gpu/src/sm.rs",
            "impl Sm { pub fn advance(&mut self) { self.pick(); } fn pick(&self) {} }\n",
        )]);
        let j = closure_json(&ws.closure());
        assert!(j.contains("\"spec\":\"Sm::advance\""));
        assert!(j.contains("\"name\":\"pick\""));
        assert!(j.contains("crates/gpu/src/sm.rs"));
    }
}
