//! `mosaic-sim` — run multi-application workloads on the simulated GPU
//! and print a full report for each.
//!
//! ```text
//! cargo run --release --bin mosaic-sim -- HS CONS            # Mosaic (default)
//! cargo run --release --bin mosaic-sim -- --manager all HS CONS NW
//! cargo run --release --bin mosaic-sim -- fragmentation=1.0:0.5 seeds=1,2 GUPS
//! cargo run --release --bin mosaic-sim -- --list             # the 27 applications
//! ```
//!
//! The arguments are a campaign (`mosaic_campaign::matrix`): the APPs
//! are the `workloads` axis joined with `+`, `--manager NAME` is
//! `managers=NAME` (`all` is gpu-mmu, migrating, mosaic and ideal-tlb),
//! and `KEY=V[,V...]` sets any axis; `--help` lists the keys. Only
//! `--audit [N]` (sweep runtime invariants every N cycles, 100000 when
//! N is left out; debug builds audit by default) and `--list` are its own.
//!
//! A bad argument exits 2 before anything runs, with the campaign's
//! message, and so does a run whose every point is skipped. A closed
//! stdout or stderr drops the text, not the status.

use mosaic::experiments::{Scope, Sweep};
use mosaic::gpusim::manager_tokens;
use mosaic::prelude::*;
use mosaic_campaign::{axis_keys, Spec};
use std::io::{stderr, stdout, Write};

// `println!` and `eprintln!` that drop the line when the pipe is closed:
// the exit status, not the text, carries the verdict.
macro_rules! out { ($($a:tt)*) => {{ let _ = writeln!(stdout(), $($a)*); }}; }
macro_rules! err { ($($a:tt)*) => {{ let _ = writeln!(stderr(), $($a)*); }}; }

fn usage() -> ! {
    let tokens: Vec<_> = manager_tokens().iter().map(|&(t, ..)| t).collect();
    err!(
        "usage: mosaic-sim [--manager NAME] [KEY=V[,V...]]... [--audit [N]] APP [APP...]\n\
         keys: {}\n\
         managers: {} (default mosaic), all\n\
         run with --list to see the 27 applications",
        axis_keys().collect::<Vec<_>>().join(", "),
        tokens.join(", ")
    );
    std::process::exit(2);
}

fn list_apps() -> ! {
    out!("{:<6} {:<8} {:>7} {:>22} {:>10}", "name", "suite", "WS MB", "pattern", "sensitive");
    for p in &ALL_PROFILES {
        out!(
            "{:<6} {:<8} {:>7} {:>22} {:>10}",
            p.name,
            format!("{:?}", p.suite),
            p.working_set_mb,
            format!("{:?}", p.pattern).chars().take(22).collect::<String>(),
            if p.tlb_sensitive() { "yes" } else { "no" },
        );
    }
    std::process::exit(0);
}

/// The campaign the arguments describe, and the `--audit` cadence.
fn parse_args() -> (Spec, Option<u64>) {
    let (mut pairs, mut apps, mut audit_every) = (Vec::new(), Vec::new(), None);
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" => list_apps(),
            "--manager" => match args.next().as_deref() {
                Some("all") => pairs.push("managers=gpu-mmu,migrating,mosaic,ideal-tlb".into()),
                Some(name) => pairs.push(format!("managers={name}")),
                None => usage(),
            },
            "--audit" => {
                // Optional cadence operand: `--audit 50000` or bare `--audit`.
                audit_every = Some(match args.peek().and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        args.next();
                        n
                    }
                    None => RunConfig::DEFAULT_AUDIT_EVERY,
                });
            }
            flag if flag.starts_with('-') => usage(),
            pair if pair.contains('=') => pairs.push(a),
            _ => apps.push(a),
        }
    }
    if !apps.is_empty() {
        pairs.push(format!("workloads={}", apps.join("+")));
    }
    let spec = Spec::from_pairs(&pairs).unwrap_or_else(|e| {
        err!("mosaic-sim: {}", e.message);
        usage()
    });
    (spec, audit_every)
}

fn main() {
    let (spec, audit_every) = parse_args();
    let mut campaign = spec.expand();
    for s in &campaign.skipped {
        err!("skip {}: {}", s.label, s.reason);
    }
    if campaign.points.is_empty() {
        std::process::exit(2);
    }
    for p in &mut campaign.points {
        p.cfg.audit_every = audit_every.or(p.cfg.audit_every);
    }
    let runs: Vec<_> = campaign.points.iter().map(|p| (p.workload.clone(), p.cfg)).collect();
    let sweep = Sweep::new(Scope::Default);
    let alone = sweep.alone_baselines(&runs);
    let shared = sweep.run_workloads(runs);

    let mut shown = None;
    for ((p, alone), r) in campaign.points.iter().zip(&alone).zip(&shared) {
        // A block of baselines stands for the points after it that share it.
        if shown != Some(alone) {
            if shown.is_some() {
                out!();
            }
            shown = Some(alone);
            out!("workload {} | {} SMs\n", p.workload.name, p.cfg.total_sms());
            out!("per-application alone baselines (GPU-MMU, equal SM share):");
            for a in alone {
                out!("  {:<8} ipc {:.3}", a.apps[0].name, a.apps[0].ipc);
            }
        }
        let ws = weighted_speedup(r, alone);
        out!("\n=== {} ({}) ===", p.label, r.manager);
        out!("  cycles {:>12}   weighted speedup {ws:.3}", r.total_cycles);
        for a in &r.apps {
            out!(
                "  {:<8} ipc {:.3}  ({} instructions over {} cycles)",
                a.name,
                a.ipc,
                a.instructions,
                a.cycles
            );
        }
        let s = &r.stats;
        out!(
            "  TLB: L1 {:.1}%  L2 {:.1}%  walks {}  (mean walk {:.0} cy)",
            s.l1_tlb_hit_rate() * 100.0,
            s.l2_tlb_hit_rate() * 100.0,
            s.walks,
            s.walk_latency_mean
        );
        out!(
            "  caches: L1 {:.1}%  L2 {:.1}%  DRAM row hits {:.1}%",
            s.l1_cache_hit_rate * 100.0,
            s.l2_cache_hit_rate * 100.0,
            s.dram_row_hit_rate * 100.0
        );
        out!(
            "  paging: {} far-faults, {:.1} MB over the I/O bus (mean queue {:.0} cy, \
             mean service {:.0} cy)",
            s.iobus_transfers,
            s.iobus_bytes as f64 / (1024.0 * 1024.0),
            s.iobus_queue_mean,
            s.iobus_service_mean
        );
        if s.manager.evictions > 0 {
            out!(
                "  pressure: {} pages evicted, {:.1} MB written back, {} refaults",
                s.manager.evictions,
                s.manager.writeback_bytes as f64 / (1024.0 * 1024.0),
                s.refaults
            );
        }
        out!("  manager: {} coalesces, {} splinters, {} migrations, {} emergency allocs, bloat {:.1}%",
            s.manager.coalesces,
            s.manager.splinters,
            s.manager.migrations,
            s.manager.emergency_allocations,
            s.memory_bloat * 100.0);
    }
}
