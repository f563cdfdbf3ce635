//! `mosaic-sim` — run one multi-application workload on the simulated GPU
//! and print a full report.
//!
//! ```text
//! cargo run --release --bin mosaic-sim -- HS CONS            # Mosaic (default)
//! cargo run --release --bin mosaic-sim -- --manager gpu-mmu GUPS
//! cargo run --release --bin mosaic-sim -- --manager all HS CONS NW
//! cargo run --release --bin mosaic-sim -- --list             # the 27 applications
//! ```
//!
//! Bad flags, manager tokens or application names exit with status 2
//! before anything runs.
//!
//! Options:
//!
//! ```text
//!   --manager <TOKEN|all>  a campaign manager token (gpu-mmu, gpu-mmu-2m,
//!                        mosaic, mosaic-nocac, mosaic-bc, mosaic-ideal,
//!                        migrating, ideal-tlb); `all` runs gpu-mmu,
//!                        migrating, mosaic and ideal-tlb
//!   --preload            stage all data before cycle 0 (no demand paging)
//!   --frag <index,occ>   pre-fragment memory (Mosaic only), both in [0, 1],
//!                        e.g. --frag 1.0,0.5
//!   --seed <n>           deterministic seed (default 42)
//!   --audit [cycles]     sweep runtime invariants (frame conservation,
//!                        ownership agreement, TLB coherence) every N cycles
//!                        and abort on the first violation; N defaults to
//!                        100000. Debug builds audit by default.
//!   --list               list the application roster and exit
//! ```

use mosaic::gpusim::manager_tokens;
use mosaic::prelude::*;

fn usage() -> ! {
    let tokens: Vec<_> = manager_tokens().iter().map(|&(t, ..)| t).collect();
    eprintln!(
        "usage: mosaic-sim [--manager NAME] [--preload] [--frag I,O] [--seed N] [--audit [N]] \
         APP [APP...]\n\
         managers: {} (default mosaic), all\n\
         run with --list to see the 27 applications",
        tokens.join(", ")
    );
    std::process::exit(2);
}

fn list_apps() -> ! {
    println!("{:<6} {:<8} {:>7} {:>22} {:>10}", "name", "suite", "WS MB", "pattern", "sensitive");
    for p in &ALL_PROFILES {
        println!(
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

struct Options {
    managers: Vec<(String, RunConfig)>,
    apps: Vec<String>,
}

fn parse_args() -> Options {
    let mut manager = "mosaic".to_string();
    let mut preload = false;
    let mut frag: Option<(f64, f64)> = None;
    let mut seed = 42u64;
    let mut audit_every: Option<u64> = None;
    let mut apps = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" => list_apps(),
            "--manager" => manager = args.next().unwrap_or_else(|| usage()),
            "--preload" => preload = true,
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
            "--audit" => {
                // Optional cadence operand: `--audit 50000` or bare `--audit`.
                audit_every = match args.peek().and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        args.next();
                        Some(n)
                    }
                    None => Some(RunConfig::DEFAULT_AUDIT_EVERY),
                };
            }
            "--frag" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let unit = |x: &str| x.parse::<f64>().ok().filter(|x| (0.0..=1.0).contains(x));
                match spec.split_once(',').map(|(i, o)| (unit(i), unit(o))) {
                    Some((Some(i), Some(o))) => frag = Some((i, o)),
                    _ => usage(),
                }
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            app => apps.push(app.to_string()),
        }
    }
    if apps.is_empty() {
        usage();
    }
    if let Some(app) = apps.iter().find(|a| AppProfile::by_name(a).is_none()) {
        eprintln!("unknown application {app}; run with --list to see the 27 applications");
        std::process::exit(2);
    }

    let build = |kind: ManagerKind, ideal: bool| {
        let mut cfg = RunConfig::new(kind);
        cfg.seed = seed;
        cfg.system.ideal_tlb = ideal;
        if preload {
            cfg = cfg.preloaded();
        }
        cfg.fragmentation = frag;
        cfg.audit_every = audit_every;
        cfg
    };
    let named = |name: &str| -> (String, RunConfig) {
        let (kind, ideal) = ManagerKind::from_token(name).unwrap_or_else(|| usage());
        (name.to_string(), build(kind, ideal))
    };
    let managers = if manager == "all" {
        ["gpu-mmu", "migrating", "mosaic", "ideal-tlb"].iter().map(|m| named(m)).collect()
    } else {
        vec![named(&manager)]
    };
    Options { managers, apps }
}

fn main() {
    let opts = parse_args();
    let names: Vec<&str> = opts.apps.iter().map(String::as_str).collect();
    let workload = Workload::from_names(&names);
    println!(
        "workload {} | {} SMs | seed fixed | demand paging {}",
        workload.name,
        opts.managers[0].1.system.sm_count,
        if opts.managers[0].1.paging == DemandPagingMode::OnDemand { "on" } else { "preloaded" },
    );

    let alone = run_alone_baselines(&workload, opts.managers[0].1);
    println!("\nper-application alone baselines (GPU-MMU, equal SM share):");
    for a in &alone {
        println!("  {:<8} ipc {:.3}", a.apps[0].name, a.apps[0].ipc);
    }

    for (label, cfg) in &opts.managers {
        let r = run_workload(&workload, *cfg);
        let ws = weighted_speedup(&r, &alone);
        println!("\n=== {label} ({}) ===", r.manager);
        println!("  cycles {:>12}   weighted speedup {ws:.3}", r.total_cycles);
        for a in &r.apps {
            println!(
                "  {:<8} ipc {:.3}  ({} instructions over {} cycles)",
                a.name, a.ipc, a.instructions, a.cycles
            );
        }
        let s = &r.stats;
        println!(
            "  TLB: L1 {:.1}%  L2 {:.1}%  walks {}  (mean walk {:.0} cy)",
            s.l1_tlb_hit_rate() * 100.0,
            s.l2_tlb_hit_rate() * 100.0,
            s.walks,
            s.walk_latency_mean
        );
        println!(
            "  caches: L1 {:.1}%  L2 {:.1}%  DRAM row hits {:.1}%",
            s.l1_cache_hit_rate * 100.0,
            s.l2_cache_hit_rate * 100.0,
            s.dram_row_hit_rate * 100.0
        );
        println!(
            "  paging: {} far-faults, {:.1} MB over the I/O bus (mean queue {:.0} cy, \
             mean service {:.0} cy)",
            s.iobus_transfers,
            s.iobus_bytes as f64 / (1024.0 * 1024.0),
            s.iobus_queue_mean,
            s.iobus_service_mean
        );
        if s.manager.evictions > 0 {
            println!(
                "  pressure: {} pages evicted, {:.1} MB written back, {} refaults",
                s.manager.evictions,
                s.manager.writeback_bytes as f64 / (1024.0 * 1024.0),
                s.refaults
            );
        }
        println!(
            "  manager: {} coalesces, {} splinters, {} migrations, {} emergency allocs, bloat {:.1}%",
            s.manager.coalesces,
            s.manager.splinters,
            s.manager.migrations,
            s.manager.emergency_allocations,
            s.memory_bloat * 100.0
        );
    }
}
