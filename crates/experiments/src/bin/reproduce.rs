//! Command-line driver: regenerate any (or every) table/figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run --release -p mosaic-experiments --bin reproduce -- all
//! cargo run --release -p mosaic-experiments --bin reproduce -- fig08 fig13
//! cargo run --release -p mosaic-experiments --bin reproduce -- --jobs 4 fig08
//! MOSAIC_SCOPE=full cargo run --release -p mosaic-experiments --bin reproduce -- fig08
//! MOSAIC_JSON=out.json cargo run ... -- fig03
//! ```
//!
//! `--jobs N` (or `MOSAIC_JOBS=N`) sets the worker-thread count of the
//! sweep; the default is the machine's available parallelism. Output is
//! byte-identical for every job count.
//!
//! This binary is the one place that reads the environment and the
//! flags; it builds one [`Sweep`] from them and hands it to every driver.
//!
//! `--trace FILE` records every simulated event of every sweep run to
//! `FILE` as JSONL (one `run_begin` line per run, then its events);
//! validate or convert it with the `mosaic-trace` binary. `--stall-report`
//! appends the stall-cycle attribution report to the requested
//! experiments. Both are deterministic: byte-identical at any `--jobs`.
//!
//! `--digest` appends one `digest NAME XXXXXXXXXXXXXXXX` line per
//! experiment (FNV-1a 64-bit over the rendered report) after all
//! reports — the same digest `mosaic_experiments::goldens` pins. At
//! smoke scope, the scope the pins are taken at, it then checks every
//! pinned report it rendered: each mismatch prints one stderr line with
//! the name, the pinned and the rendered digest, and the run exits 1.
//!
//! `--cache-dir DIR` (or `MOSAIC_CACHE_DIR=DIR`) installs the persistent
//! content-addressed run cache (DESIGN.md §13): completed simulations are
//! checkpointed to disk and served on re-runs, with byte-identical
//! output. `--no-cache` forces straight simulation. Figure drivers cache
//! only when a directory is given; the `campaign` subcommand defaults to
//! `target/mosaic-cache`:
//!
//! ```text
//! reproduce campaign run    FILE   # simulate a scenario matrix (resumable)
//! reproduce campaign expand FILE   # list the points a matrix expands to
//! reproduce campaign status FILE   # cached/pending per point + ETA
//! ```
//!
//! Bad input exits with status 2 before any simulation runs: an unknown
//! flag or experiment name, a `MOSAIC_SCOPE` other than
//! `smoke|default|full`, or a `--jobs`/`MOSAIC_JOBS` that is not a
//! positive integer. The exit status holds when stdout or stderr is
//! closed early: output that cannot be written is dropped.

use mosaic_campaign::{render_expand, render_results, render_status, Spec, Store};
use mosaic_experiments::goldens::{digest, golden};
use mosaic_experiments::sweep::{render_trace, TraceCollector};
use mosaic_experiments::{Scope, Sweep, REPORTS};
use mosaic_telemetry::escape_json;
use std::io::{stderr, stdout, Write};

// `println!` and `eprintln!` that drop the line when the pipe is closed:
// the exit status, not the text, carries the verdict.
macro_rules! out { ($($a:tt)*) => {{ let _ = writeln!(stdout(), $($a)*); }}; }
macro_rules! err { ($($a:tt)*) => {{ let _ = writeln!(stderr(), $($a)*); }}; }

/// The command-line name that selects `report`: its own, except that
/// the five `ablation_*` reports go together as `ablations`.
fn cli_name(report: &str) -> &str {
    if report.starts_with("ablation_") {
        "ablations"
    } else {
        report
    }
}

/// Renders the collected results as a JSON object mapping each
/// experiment name to its rendered report text.
fn to_json(results: &[(&str, String)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, text)) in results.iter().enumerate() {
        out.push_str(&format!("  \"{}\": \"{}\"", escape_json(name), escape_json(text)));
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out
}

/// Prints `message` and exits with the usage-error status 2.
fn usage_error(message: impl std::fmt::Display) -> ! {
    err!("{message}");
    std::process::exit(2);
}

/// Strips every `FLAG VALUE` / `FLAG=VALUE` out of `args` and returns the
/// last value, exiting with a usage error when the value is missing.
fn take_value_flag(args: &mut Vec<String>, flag: &str, what: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if i + 1 >= args.len() {
                usage_error(format!("{flag} requires {what}"));
            }
            value = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(v) = args[i].strip_prefix(&prefix) {
            value = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    value
}

/// Strips `flag` out of `args`; whether it was there.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// A set, non-empty environment variable.
fn env(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

/// The scope named by `MOSAIC_SCOPE` (`Default` when unset); any other
/// value is a usage error.
fn resolve_scope() -> Scope {
    match env("MOSAIC_SCOPE").map(|v| v.to_ascii_lowercase()).as_deref() {
        None | Some("default") => Scope::Default,
        Some("smoke") => Scope::Smoke,
        Some("full") => Scope::Full,
        Some(other) => usage_error(format!("MOSAIC_SCOPE={other:?} is not smoke, default or full")),
    }
}

/// The worker count: `--jobs`, then `MOSAIC_JOBS`, then the machine's
/// available parallelism. Anything but a positive integer is a usage
/// error.
fn resolve_jobs(flag: Option<String>) -> usize {
    let (source, value) = match (flag, env("MOSAIC_JOBS")) {
        (Some(v), _) => ("--jobs", v),
        (None, Some(v)) => ("MOSAIC_JOBS", v),
        (None, None) => return std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(format!("{source} expects a positive integer, got {value:?}")),
    }
}

/// Where the run cache lives: `--cache-dir`, then `MOSAIC_CACHE_DIR`,
/// then (only if `default` is set) the campaign default directory.
/// `--no-cache` wins over everything.
fn resolve_cache_dir(
    flag: Option<String>,
    no_cache: bool,
    default: Option<&str>,
) -> Option<String> {
    if no_cache {
        return None;
    }
    flag.or_else(|| env("MOSAIC_CACHE_DIR")).or_else(|| default.map(str::to_string))
}

/// Opens the store, exiting on failure (an unreadable cache directory is
/// a configuration error, not something to silently run without).
fn open_store(dir: &str) -> Store {
    Store::open(dir).unwrap_or_else(|e| {
        err!("cannot open cache directory {dir}: {e}");
        std::process::exit(1);
    })
}

/// Prints the cache accounting line for whatever ran, if the sweep has a
/// cache.
fn report_cache_stats(sweep: &Sweep) {
    if let Some(store) = &sweep.cache {
        let st = store.stats();
        err!(
            "[cache] {} hits, {} misses, {} stored, {} failures; {} of simulation served from {}",
            st.hits,
            st.misses,
            st.stores,
            st.failures,
            mosaic_telemetry::progress::fmt_duration(std::time::Duration::from_millis(st.saved_ms)),
            store.root().display(),
        );
    }
}

/// The `campaign run|expand|status FILE` subcommand; `run` installs the
/// run cache into `sweep`.
fn run_campaign(
    sub: &[String],
    sweep: &mut Sweep,
    cache_dir: Option<String>,
    no_cache: bool,
    trace_path: Option<&str>,
) {
    let (action, file) = match sub {
        [action, file] if matches!(action.as_str(), "run" | "expand" | "status") => {
            (action.as_str(), file.as_str())
        }
        _ => usage_error(
            "usage: reproduce campaign run|expand|status FILE [--cache-dir DIR] [--no-cache]",
        ),
    };
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        err!("cannot read campaign file {file}: {e}");
        std::process::exit(1);
    });
    let spec = Spec::parse(&text).unwrap_or_else(|e| usage_error(format!("{file}: {e}")));
    let campaign = spec.expand();
    let cache_dir = resolve_cache_dir(cache_dir, no_cache, Some(DEFAULT_CACHE_DIR));
    match action {
        "expand" => _ = stdout().write_all(render_expand(&campaign).as_bytes()),
        "status" => {
            let Some(dir) = cache_dir else {
                usage_error("campaign status needs a cache (drop --no-cache)");
            };
            let _ = stdout().write_all(render_status(&campaign, &open_store(&dir)).as_bytes());
        }
        "run" => {
            match cache_dir {
                Some(dir) => sweep.cache = Some(open_store(&dir)),
                None => err!("[campaign] cache disabled (--no-cache)"),
            }
            err!(
                "[campaign] {:?}: {} points ({} skipped), {} workers",
                campaign.name,
                campaign.points.len(),
                campaign.skipped.len(),
                sweep.jobs
            );
            let jobs: Vec<_> =
                campaign.points.iter().map(|p| (p.workload.clone(), p.cfg)).collect();
            create_outputs(&[trace_path]);
            let t0 = std::time::Instant::now();
            let results = sweep.run_workloads(jobs);
            let _ = stdout().write_all(render_results(&campaign, &results).as_bytes());
            report_cache_stats(sweep);
            err!("[campaign] finished in {:.1?}", t0.elapsed());
        }
        _ => unreachable!("validated above"),
    }
}

/// Default store location for the `campaign` subcommand (figure drivers
/// only cache when a directory is given explicitly).
const DEFAULT_CACHE_DIR: &str = "target/mosaic-cache";

/// Writes `contents` to `path`, exiting with status 1 when it cannot.
fn write_or_exit(path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        err!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Creates each output file empty once the arguments are checked and
/// before the first simulation, so an unwritable path fails at once
/// rather than after the whole sweep.
fn create_outputs(paths: &[Option<&str>]) {
    for path in paths.iter().flatten() {
        write_or_exit(path, String::new());
    }
}

/// Runs the named experiments (every one when none is named) and prints
/// their reports, then the `--digest` lines; every name is checked
/// before anything runs. Returns whether every rendered report that has
/// a golden pin matched it (checked only for `--digest` at smoke scope,
/// the scope the pins are taken at).
fn run_figures(mut args: Vec<String>, sweep: &Sweep, trace_path: Option<&str>) -> bool {
    let stall_report = take_switch(&mut args, "--stall-report");
    let digests = take_switch(&mut args, "--digest");
    // `all` is every report but `stall`, named as on the command line.
    let mut all: Vec<&str> =
        REPORTS.iter().map(|(n, _)| cli_name(n)).filter(|&n| n != "stall").collect();
    all.dedup();
    // `--stall-report` alone runs just the stall report; alongside
    // experiment names (or `all`) it rides along as an extra section.
    let mut wanted: Vec<&str> =
        if args.iter().any(|a| a == "all") || (args.is_empty() && !stall_report) {
            all.clone()
        } else {
            args.iter().map(String::as_str).collect()
        };
    if stall_report && !wanted.contains(&"stall") {
        wanted.push("stall");
    }
    if let Some(other) = wanted.iter().find(|&&n| n != "stall" && !all.contains(&n)) {
        usage_error(format!("unknown experiment {other}; available: {all:?}"));
    }
    let json_path = env("MOSAIC_JSON");
    create_outputs(&[trace_path, json_path.as_deref()]);
    err!("scope: {:?} (set MOSAIC_SCOPE=smoke|default|full)", sweep.scope);
    err!(
        "jobs: {} (set with --jobs N or MOSAIC_JOBS=N; output is identical at any count)",
        sweep.jobs
    );

    let mut results = Vec::new();
    for arg in wanted {
        let t0 = std::time::Instant::now();
        for &(name, render) in REPORTS.iter().filter(|(n, _)| cli_name(n) == arg) {
            let text = render(sweep);
            out!("{:=<66}", format!("== {name} "));
            out!("{text}");
            results.push((name, text));
        }
        err!("[{arg} done in {:.1?}]", t0.elapsed());
    }

    let mut pins_hold = true;
    if digests {
        for (name, text) in &results {
            out!("digest {name} {}", digest(text));
        }
        if sweep.scope == Scope::Smoke {
            for (name, text) in &results {
                let rendered = digest(text);
                if let Some(pin) = golden(name).filter(|&pin| pin != rendered) {
                    err!("golden mismatch: {name} is pinned at {pin} but rendered {rendered}");
                    pins_hold = false;
                }
            }
        }
    }
    report_cache_stats(sweep);

    if let Some(path) = json_path {
        write_or_exit(&path, to_json(&results));
        err!("wrote machine-readable results to {path}");
    }
    pins_hold
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = take_value_flag(&mut args, "--jobs", "a worker count");
    let cache_dir = take_value_flag(&mut args, "--cache-dir", "a directory");
    let trace_path = take_value_flag(&mut args, "--trace", "an output path");
    let no_cache = take_switch(&mut args, "--no-cache");
    // `--stall-report` and `--digest` are consumed by `run_figures`.
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with('-') && !matches!(a.as_str(), "--stall-report" | "--digest"))
    {
        usage_error(format!(
            "unknown flag {flag}; flags: --jobs N, --cache-dir DIR, --no-cache, --trace FILE, \
             --stall-report, --digest"
        ));
    }
    let mut sweep = Sweep {
        scope: resolve_scope(),
        jobs: resolve_jobs(jobs),
        cache: None,
        trace: trace_path.as_ref().map(|_| TraceCollector::default()),
    };
    let mut pins_hold = true;
    if args.first().map(String::as_str) == Some("campaign") {
        run_campaign(&args[1..], &mut sweep, cache_dir, no_cache, trace_path.as_deref());
    } else {
        sweep.cache = resolve_cache_dir(cache_dir, no_cache, None).map(|dir| open_store(&dir));
        pins_hold = run_figures(args, &sweep, trace_path.as_deref());
    }

    if let (Some(path), Some(trace)) = (trace_path, sweep.trace) {
        let chunks = trace.into_chunks();
        let events: usize = chunks.iter().map(|c| c.events.len()).sum();
        write_or_exit(&path, render_trace(&chunks));
        err!("wrote {events} events from {} runs to {path}", chunks.len());
    }
    if !pins_hold {
        std::process::exit(1);
    }
}
