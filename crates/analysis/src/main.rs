//! The `mosaic-audit` command-line front end.
//!
//! ```text
//! mosaic-audit check [ROOT] [--format json] [--allow-stale]
//! mosaic-audit graph [ROOT] [--format json]
//! mosaic-audit rules
//! mosaic-audit explain <rule>
//! ```
//!
//! Exit status: 0 clean, 1 findings (or stale allowlist entries, or an
//! unresolved entry point), 2 usage or an unusable root or allowlist. The
//! status holds when stdout or stderr is closed early: output that cannot
//! be written is dropped.

use mosaic_audit::{analyze, closure_json, report_json, rules, Allowlist, Workspace};
use std::io::{stderr, stdout, Write};
use std::path::Path;

// `println!` and `eprintln!` that drop the line when the pipe is closed:
// the exit status, not the text, carries the verdict.
macro_rules! out { ($($a:tt)*) => {{ let _ = writeln!(stdout(), $($a)*); }}; }
macro_rules! err { ($($a:tt)*) => {{ let _ = writeln!(stderr(), $($a)*); }}; }

fn usage() -> ! {
    err!(
        "usage: mosaic-audit <command>\n\
         \n\
         commands:\n\
         \x20 check [ROOT] [--format json] [--allow-stale]\n\
         \x20                scan ROOT (default: current directory) against the\n\
         \x20                determinism/invariant policy; exit 1 on findings or\n\
         \x20                stale allowlist entries (--allow-stale downgrades\n\
         \x20                staleness to a warning)\n\
         \x20 graph [ROOT] [--format json]\n\
         \x20                dump the computed hot-path closure: entry points,\n\
         \x20                member functions, files\n\
         \x20 rules          list the rules\n\
         \x20 explain <rule> print a rule's full rationale\n\
         \n\
         the allowlist is read from ROOT/crates/analysis/allow.list when present"
    );
    std::process::exit(2);
}

/// Flags shared by `check` and `graph`.
struct Opts {
    root: String,
    json: bool,
    allow_stale: bool,
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut opts = Opts { root: ".".to_string(), json: false, allow_stale: false };
    let mut root_seen = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("json") => opts.json = true,
                    Some("text") => opts.json = false,
                    _ => return None,
                }
            }
            "--allow-stale" => opts.allow_stale = true,
            flag if flag.starts_with('-') => return None,
            root => {
                if root_seen {
                    return None;
                }
                opts.root = root.to_string();
                root_seen = true;
            }
        }
        i += 1;
    }
    Some(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rules") => {
            for rule in rules::RULES {
                out!("{}\n    {}", rule.id, rule.summary);
            }
        }
        Some("explain") => {
            let Some(id) = args.get(1) else { usage() };
            match rules::rule(id) {
                Some(rule) => {
                    out!("{}\n\n{}\n\n{}", rule.id, rule.summary, rule.explain);
                }
                None => {
                    err!("mosaic-audit: unknown rule `{id}`; see `mosaic-audit rules`");
                    std::process::exit(2);
                }
            }
        }
        Some("check") => {
            let Some(opts) = parse_opts(&args[1..]) else { usage() };
            std::process::exit(run_check(&opts));
        }
        Some("graph") => {
            let Some(opts) = parse_opts(&args[1..]) else { usage() };
            std::process::exit(run_graph(&opts));
        }
        _ => usage(),
    }
}

fn load_allowlist(root: &Path) -> Result<Allowlist, i32> {
    let allow_path = root.join("crates/analysis/allow.list");
    if !allow_path.is_file() {
        return Ok(Allowlist::default());
    }
    let text = match std::fs::read_to_string(&allow_path) {
        Ok(t) => t,
        Err(e) => {
            err!("mosaic-audit: cannot read {}: {e}", allow_path.display());
            return Err(2);
        }
    };
    match Allowlist::parse(&text) {
        Ok(a) => Ok(a),
        Err(errors) => {
            for e in errors {
                err!("mosaic-audit: {e}");
            }
            Err(2)
        }
    }
}

fn run_check(opts: &Opts) -> i32 {
    let root = Path::new(&opts.root);
    if !root.is_dir() {
        err!("mosaic-audit: {} is not a directory", root.display());
        return 2;
    }
    let allow = match load_allowlist(root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let analysis = match analyze(root, &allow) {
        Ok(a) => a,
        Err(e) => {
            err!("mosaic-audit: scan failed: {e}");
            return 2;
        }
    };
    let report = &analysis.report;
    let stale_fails = !report.stale_allows.is_empty() && !opts.allow_stale;
    if opts.json {
        out!("{}", report_json(report));
        return i32::from(!report.is_clean() || stale_fails);
    }
    for stale in &report.stale_allows {
        if opts.allow_stale {
            err!("mosaic-audit: warning: stale allowlist entry: {stale}");
        } else {
            err!(
                "mosaic-audit: stale allowlist entry (matches nothing — prune it or pass \
                 --allow-stale): {stale}"
            );
        }
    }
    for spec in &report.unresolved_entries {
        err!(
            "mosaic-audit: entry point `{spec}` resolved to no definition — the computed \
             closure is missing it (update graph::ENTRY_POINTS)"
        );
    }
    for f in &report.findings {
        out!("{f}");
    }
    out!(
        "mosaic-audit: {} file(s), {} finding(s), {} exempted, {} stale allowlist entr(y/ies), \
         closure: {} function(s) in {} file(s)",
        report.files,
        report.findings.len(),
        report.exempted.len(),
        report.stale_allows.len(),
        analysis.closure.members.len(),
        analysis.closure.files().len()
    );
    i32::from(!report.is_clean() || stale_fails)
}

fn run_graph(opts: &Opts) -> i32 {
    let root = Path::new(&opts.root);
    if !root.is_dir() {
        err!("mosaic-audit: {} is not a directory", root.display());
        return 2;
    }
    let ws = match Workspace::load(root) {
        Ok(w) => w,
        Err(e) => {
            err!("mosaic-audit: scan failed: {e}");
            return 2;
        }
    };
    let closure = ws.closure();
    if opts.json {
        out!("{}", closure_json(&closure));
    } else {
        out!("entry points:");
        for entry in &closure.entries {
            if entry.resolved.is_empty() {
                out!("  {}  (UNRESOLVED)", entry.spec);
            } else {
                for r in &entry.resolved {
                    out!("  {}  -> {}:{}", entry.spec, r.path, r.line);
                }
            }
        }
        out!("\nclosure ({} functions):", closure.members.len());
        for m in &closure.members {
            out!("  {m}");
        }
        out!("\nfiles ({}):", closure.files().len());
        for f in closure.files() {
            out!("  {f}");
        }
    }
    i32::from(!closure.unresolved_entries().is_empty())
}
