//! The `mosaic-bench` harness: the repo's benchmark trajectory point.
//!
//! Runs a fixed roster of scenarios — microbenches of the hot data
//! structures, a bounded figure-driver sweep, and a warm re-run of the
//! smoke campaign through the persistent run cache — and emits
//! `BENCH.json` with the median-of-N wall time per scenario. The
//! committed `BENCH.json` is the performance baseline; CI re-runs the
//! harness in a reduced configuration and fails when any scenario
//! regresses past its per-scenario `max_ratio` limit (`--check`).
//!
//! ```text
//! cargo run --release -p mosaic-bench                  # full samples, write BENCH.json
//! cargo run --release -p mosaic-bench -- --quick \
//!     --out target/bench-smoke.json --check BENCH.json # CI smoke + regression gate
//! cargo run --release -p mosaic-bench -- --list        # scenario roster
//! ```
//!
//! Scenario wall times are medians, each sample rebuilds its structures
//! from scratch, and every simulated run is seeded — so times vary only
//! with host load, never with simulated behavior. Each scenario carries
//! its own regression limit (schema v2): tight for long, stable
//! scenarios; looser where small absolute times make IO and scheduler
//! noise proportionally large. The limits stay loose enough for
//! shared-runner noise while still catching the accidental O(n^2) or
//! re-introduced allocation churn this harness exists to pin. `--check`
//! reads only the v2 schema this harness writes, and a scenario without
//! its limit is a malformed baseline.
//!
//! Exit status: 0 on success, 1 when `--check` finds a regression or a
//! malformed baseline, 2 on usage errors. The status holds when stdout
//! or stderr is closed early: output that cannot be written is dropped.

use mosaic_campaign::{Spec, Store};
use mosaic_core::{MemoryManager, MosaicConfig, MosaicManager};
use mosaic_experiments::{report, Scope, Sweep};
use mosaic_gpusim::{run_workload, GpuSystem, ManagerKind, RunConfig, Topology};
use mosaic_sim_core::{Cycle, SimRng};
use mosaic_vm::{
    AppId, LargeFrameNum, LargePageNum, PageSize, PageTable, PageTableWalker, PhysAddr,
    PhysFrameNum, Tlb, TlbConfig, VirtPageNum,
};
use mosaic_workloads::{ScaleConfig, Workload};
use std::hint::black_box;
use std::io::{stderr, stdout, Write};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

// `println!` and `eprintln!` that drop the line when the pipe is closed:
// the exit status, not the text, carries the verdict.
macro_rules! out { ($($a:tt)*) => {{ let _ = writeln!(stdout(), $($a)*); }}; }
macro_rules! err { ($($a:tt)*) => {{ let _ = writeln!(stderr(), $($a)*); }}; }

/// Samples per scenario (median reported). `--quick` halves the work for
/// CI; medians stay comparable because the per-sample workload is fixed.
const SAMPLES: usize = 5;
const QUICK_SAMPLES: usize = 2;

fn micro_tlb_lookup() {
    let mut tlb = Tlb::new(TlbConfig::paper_l1());
    for p in 0..64u64 {
        tlb.fill(AppId(0), VirtPageNum(p).addr(), PageSize::Base);
    }
    // Mix of hits on eight hot pages and probes of a 64-page set, every
    // lookup a full probe. Eight hot pages in one warm TLB stay in host
    // cache, so this times the probe code, not the TLB's footprint;
    // `micro/tlb_fleet` covers that.
    for i in 0..2_000_000u64 {
        let page = if i % 4 == 0 { i / 7 % 64 } else { i % 8 };
        black_box(tlb.lookup(AppId(0), VirtPageNum(page).addr()));
    }
}

fn micro_tlb_fill_evict() {
    let mut tlb = Tlb::new(TlbConfig::paper_l2());
    for page in 0..1_000_000u64 {
        black_box(tlb.fill(AppId(page as u16 % 3), VirtPageNum(page).addr(), PageSize::Base));
        black_box(tlb.lookup(AppId(page as u16 % 3), VirtPageNum(page.wrapping_sub(3)).addr()));
    }
}

fn micro_tlb_fleet() {
    // A 4-GPU fleet's TLBs: 120 per-SM L1s and 4 shared L2s, driven
    // round-robin so consecutive accesses land on different TLBs, as the
    // smallest-clock-first SM loop does. Each SM draws from 192 pages,
    // more than its L1 holds, overlapping its neighbours'; an L1 miss
    // probes and fills its GPU's L2 as `GpuSystem::lookup` does. Every
    // 8,192 accesses one 2 MB region is shot down from every TLB.
    const SMS_PER_GPU: usize = 30;
    let mut l1: Vec<Tlb> = (0..4 * SMS_PER_GPU).map(|_| Tlb::new(TlbConfig::paper_l1())).collect();
    let mut l2: Vec<Tlb> = (0..4).map(|_| Tlb::new(TlbConfig::paper_l2())).collect();
    let mut rng = SimRng::from_seed(0xF1EE7);
    for i in 0..1_200_000usize {
        let sm = i % l1.len();
        let asid = AppId((sm / 10 % 3) as u16);
        let addr = VirtPageNum(sm as u64 * 64 + rng.below(192)).addr();
        if !l1[sm].lookup(asid, addr).is_hit() {
            let l2 = &mut l2[sm / SMS_PER_GPU];
            if !l2.lookup(asid, addr).is_hit() {
                black_box(l2.fill(asid, addr, PageSize::Base));
            }
            black_box(l1[sm].fill(asid, addr, PageSize::Base));
        }
        if i % 8192 == 8191 {
            let region = LargePageNum(rng.below(15)).base_page(0);
            for tlb in l1.iter_mut().chain(&mut l2) {
                black_box(tlb.flush_base_range(asid, region, 512));
            }
        }
    }
}

fn micro_page_table_translate() {
    let mut pt = PageTable::new(AppId(0));
    // 16 regions, fully mapped; half coalesced.
    for r in 0..16u64 {
        let lpn = LargePageNum(r * 3);
        let lf = LargeFrameNum(r);
        for i in 0..512 {
            pt.map_base(lpn.base_page(i), lf.base_frame(i)).unwrap();
        }
        if r % 2 == 0 {
            pt.coalesce(lpn).unwrap();
        }
    }
    for i in 0..2_000_000u64 {
        let lpn = LargePageNum((i % 16) * 3);
        black_box(pt.translate(lpn.base_page(i % 512).addr()).ok());
        black_box(pt.walk_path(lpn.base_page((i + 7) % 512).addr()));
    }
}

fn micro_page_table_map_unmap() {
    let mut pt = PageTable::new(AppId(0));
    for round in 0..40u64 {
        for i in 0..8192u64 {
            pt.map_base(VirtPageNum(i), PhysFrameNum(i)).unwrap();
            black_box(pt.is_mapped(VirtPageNum(i)));
        }
        for i in 0..8192u64 {
            black_box(pt.unmap_base(VirtPageNum(i)));
        }
        black_box(round);
    }
}

fn micro_walker() {
    let mut walker = PageTableWalker::new(64);
    let path = [PhysAddr(0x1000), PhysAddr(0x2000), PhysAddr(0x3000), PhysAddr(0x4000)];
    let mut now = Cycle::ZERO;
    for i in 0..400_000u64 {
        // A rotating set of pages: some re-walks merge, most are fresh.
        let vpn = VirtPageNum(i % 97);
        black_box(walker.walk(now, AppId(0), vpn, path, |_, _, start| start + 40));
        now += 3;
    }
}

fn micro_walker_deep() {
    // The regime `micro/walker` cannot see: walks issued one cycle apart
    // behind 10^4-cycle page-table reads queue for the 64 walker threads,
    // so each round ends with 4,096 distinct pages in flight (~2,000 on
    // average, like the default-scope Fig. 13 runs). An O(n) scan of the
    // in-flight set would cost thousands of probes per walk here.
    let mut walker = PageTableWalker::new(64);
    let path = [PhysAddr(0x1000), PhysAddr(0x2000), PhysAddr(0x3000), PhysAddr(0x4000)];
    let mut now = Cycle::ZERO;
    for round in 0..48u64 {
        let mut last = now;
        for i in 0..4_096u64 {
            let vpn = VirtPageNum(((round << 12 | i) * 7_919) % (1 << 24));
            last =
                walker.walk(now, AppId(i as u16 & 1), vpn, path, |_, _, start| start + 2_500).done;
            now += 1;
        }
        // Let the round drain before the next burst.
        now = last + 1;
    }
    black_box(walker.walks());
}

fn micro_manager_touch() {
    for _ in 0..12 {
        let mut m = MosaicManager::new(MosaicConfig::with_memory(256 * 2 * 1024 * 1024));
        m.register_app(AppId(0));
        m.reserve(AppId(0), VirtPageNum(0), 16 * 512);
        for i in 0..16 * 512 {
            black_box(m.touch(AppId(0), VirtPageNum(i)).unwrap());
        }
        // Dealloc half of each chunk: splinter + CAC activity.
        for c in 0..16u64 {
            black_box(m.deallocate(AppId(0), VirtPageNum(c * 512), 300));
        }
    }
}

fn micro_system_new() {
    // Per-run set-up: the 1-, 2- and 4-GPU machines simbench builds
    // before cycle 0, under both managers it runs, at its scale. A 4-GPU
    // machine is 120 L1 TLBs and L1 caches plus 24 L2 slices and 4 DRAMs.
    let scale = ScaleConfig { ws_divisor: 16, mem_ops_per_warp: 8, warps_per_sm: 6, phases: 1 };
    for _ in 0..40 {
        for gpus in [1, 2, 4] {
            for manager in [ManagerKind::GpuMmu4K, ManagerKind::mosaic()] {
                let cfg = RunConfig::new(manager).with_scale(scale).multi_gpu(gpus, Topology::Ring);
                black_box(GpuSystem::new(cfg));
            }
        }
    }
}

fn sweep_cfg() -> RunConfig {
    RunConfig::new(ManagerKind::mosaic()).with_scale(ScaleConfig {
        ws_divisor: 16,
        mem_ops_per_warp: 120,
        warps_per_sm: 6,
        phases: 2,
    })
}

fn sweep_run_workload() {
    // One multi-phase, multi-app shared run: the figure drivers' inner
    // loop, timed without the sweep executor around it.
    let w = Workload::from_names(&["MM", "GUPS", "HS"]);
    black_box(run_workload(&w, sweep_cfg()));
}

fn sweep_oversubscribed() {
    // The same inner loop under 2x memory oversubscription: the
    // demand-paging engine's eviction, write-back, and prefetch paths
    // dominate, which nothing else in the roster exercises.
    let w = Workload::from_names(&["MM", "GUPS", "HS"]);
    black_box(run_workload(&w, sweep_cfg().oversubscribed(2.0)));
}

fn scaling_multi_gpu() {
    // The same inner loop on a 2-GPU fleet: placement resolution on
    // every L1 miss, interconnect queueing, and migration payloads all
    // ride the shared serial path, which no single-GPU scenario prices.
    let w = Workload::from_names(&["MM", "GUPS", "HS"]);
    black_box(run_workload(&w, sweep_cfg().multi_gpu(2, Topology::FullyConnected)));
}

fn figure(name: &str) {
    // A serial sweep, so wall times measure the simulator, not the
    // workers' scheduling; Smoke keeps the sweep bounded.
    let render = report(name).expect("bench figures are in the report table");
    black_box(render(&Sweep::new(Scope::Smoke)));
}

fn campaign_cached_rerun() {
    // Warm re-run of the smoke campaign through the persistent run
    // cache. The untimed warm-up call populates the store cold (real
    // simulation); every timed sample then re-runs the identical matrix
    // and must be served entirely from disk, so the recorded median is
    // the cached-replay cost the campaign engine promises (well under
    // a tenth of the cold time — see DESIGN.md §13).
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    let dir = DIR.get_or_init(|| {
        let d = std::env::temp_dir().join(format!("mosaic-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    });
    let spec = Spec::parse(include_str!("../../../campaigns/smoke.toml"))
        .expect("committed smoke campaign parses");
    let campaign = spec.expand();
    let sweep = Sweep {
        cache: Some(Store::open(dir).expect("open bench run cache")),
        ..Sweep::new(Scope::Smoke)
    };
    for point in &campaign.points {
        black_box(sweep.run_workload_cached(&point.workload, point.cfg));
    }
}

/// One roster entry: a stable scenario name (the committed BENCH.json
/// and the CI gate key on it), the per-scenario regression limit
/// written into the baseline, and the body to time.
struct Scenario {
    name: &'static str,
    max_ratio: f64,
    run: fn(),
}

/// Per-scenario regression limits. Long simulator-bound scenarios get
/// the historical 2x; the tens-of-milliseconds microbenches are stable
/// enough for a tighter gate — except `page_table_map_unmap`, whose ~3 ms
/// absolute cost makes one scheduler preemption read as a 1.6x+ swing;
/// the cached re-run is sub-millisecond file IO, where page-cache and
/// scheduler noise are proportionally huge.
const MICRO_RATIO: f64 = 1.6;
const SWEEP_RATIO: f64 = 2.0;
const CACHED_RATIO: f64 = 4.0;

/// The scenario roster. Names are stable identifiers: the committed
/// BENCH.json and the CI gate key on them.
fn scenarios() -> Vec<Scenario> {
    let s = |name, max_ratio, run: fn()| Scenario { name, max_ratio, run };
    vec![
        s("micro/tlb_lookup", MICRO_RATIO, micro_tlb_lookup),
        s("micro/tlb_fill_evict", MICRO_RATIO, micro_tlb_fill_evict),
        s("micro/tlb_fleet", MICRO_RATIO, micro_tlb_fleet),
        s("micro/page_table_translate", MICRO_RATIO, micro_page_table_translate),
        s("micro/page_table_map_unmap", SWEEP_RATIO, micro_page_table_map_unmap),
        s("micro/walker", MICRO_RATIO, micro_walker),
        s("micro/walker_deep", MICRO_RATIO, micro_walker_deep),
        s("micro/manager_touch", MICRO_RATIO, micro_manager_touch),
        s("micro/system_new", MICRO_RATIO, micro_system_new),
        s("sweep/run_workload", SWEEP_RATIO, sweep_run_workload),
        s("sweep/oversubscribed", SWEEP_RATIO, sweep_oversubscribed),
        s("scaling/multi_gpu", SWEEP_RATIO, scaling_multi_gpu),
        s("sweep/fig03", SWEEP_RATIO, || figure("fig03")),
        s("sweep/fig08", SWEEP_RATIO, || figure("fig08")),
        s("sweep/fig11", SWEEP_RATIO, || figure("fig11")),
        s("campaign/cached_rerun", CACHED_RATIO, campaign_cached_rerun),
    ]
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

struct Measurement {
    name: &'static str,
    max_ratio: f64,
    median_ms: f64,
    samples_ms: Vec<f64>,
}

fn run_scenarios(samples: usize, filter: &[String]) -> Vec<Measurement> {
    let mut out = Vec::new();
    for Scenario { name, max_ratio, run } in scenarios() {
        if !filter.is_empty() && !filter.iter().any(|f| name.contains(f.as_str())) {
            continue;
        }
        // One untimed warm-up (page faults, lazy init, branch history —
        // and for campaign/cached_rerun, the cold store population).
        run();
        let mut samples_ms = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            run();
            samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let median_ms = median(&mut samples_ms.clone());
        err!("# {name:<28} median {median_ms:>10.2} ms over {samples} samples");
        out.push(Measurement { name, max_ratio, median_ms, samples_ms });
    }
    out
}

fn render_json(samples: usize, results: &[Measurement]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"mosaic-bench/v2\",\n");
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str("  \"scenarios\": [\n");
    for (i, m) in results.iter().enumerate() {
        let list = m.samples_ms.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(", ");
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ms\": {:.3}, \"max_ratio\": {:.1}, \"samples_ms\": [{}]}}{}\n",
            m.name,
            m.median_ms,
            m.max_ratio,
            list,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// One baseline row: scenario name, committed median, regression limit.
struct BaselineEntry {
    name: String,
    median_ms: f64,
    max_ratio: f64,
}

/// Parses one numeric field (`"tag": 12.3`) out of a scenario line.
fn parse_number(line: &str, name: &str, tag: &str) -> Result<Option<f64>, String> {
    let full = format!("\"{tag}\": ");
    let Some(pos) = line.find(&full) else { return Ok(None) };
    let after = &line[pos + full.len()..];
    let num_end = after
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .ok_or_else(|| format!("{name}: unterminated {tag}"))?;
    let value: f64 =
        after[..num_end].parse().map_err(|e| format!("{name}: bad {tag} number: {e}"))?;
    Ok(Some(value))
}

/// Extracts the baseline entries from a BENCH.json document.
///
/// Deliberately schema-specific rather than a general JSON parser: the
/// harness is the only writer, so any deviation from the expected shape
/// *is* malformation and must fail the gate. Accepts only the v2 schema,
/// every scenario with its own `max_ratio`.
fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    if !text.contains("\"schema\": \"mosaic-bench/v2\"") {
        return Err("missing or unknown \"schema\" marker".into());
    }
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("{\"name\": \"") {
        rest = &rest[pos + "{\"name\": \"".len()..];
        let name_end = rest.find('"').ok_or("unterminated scenario name")?;
        let name = rest[..name_end].to_string();
        // Each scenario is one line of the writer's output; confining the
        // field search to it keeps a missing max_ratio from silently
        // borrowing the next scenario's.
        let line =
            &rest[name_end..rest[name_end..].find('\n').map_or(rest.len(), |p| name_end + p)];
        let median_ms = parse_number(line, &name, "median_ms")?
            .ok_or_else(|| format!("{name}: no median_ms field"))?;
        if !median_ms.is_finite() || median_ms <= 0.0 {
            return Err(format!("{name}: median_ms {median_ms} is not a positive finite number"));
        }
        let max_ratio = parse_number(line, &name, "max_ratio")?
            .ok_or_else(|| format!("{name}: no max_ratio field"))?;
        if !max_ratio.is_finite() || max_ratio < 1.0 {
            return Err(format!("{name}: max_ratio {max_ratio} must be a finite number >= 1"));
        }
        out.push(BaselineEntry { name, median_ms, max_ratio });
        rest = &rest[name_end..];
    }
    if out.is_empty() {
        return Err("no scenarios found".into());
    }
    Ok(out)
}

/// Compares current medians to the committed baseline: any scenario more
/// than its baseline `max_ratio` slower fails. Scenarios present on only
/// one side are reported but tolerated (the roster may grow between
/// commits).
fn check_regressions(results: &[Measurement], baseline: &[BaselineEntry]) -> bool {
    let mut ok = true;
    for m in results {
        match baseline.iter().find(|b| b.name == m.name) {
            Some(b) => {
                let ratio = m.median_ms / b.median_ms;
                let verdict = if ratio > b.max_ratio {
                    ok = false;
                    "REGRESSION"
                } else {
                    "ok"
                };
                err!(
                    "# check {:<28} {:>8.2} ms vs baseline {:>8.2} ms ({:>5.2}x, limit {:.1}x) {}",
                    m.name,
                    m.median_ms,
                    b.median_ms,
                    ratio,
                    b.max_ratio,
                    verdict
                );
            }
            None => err!("# check {:<28} no baseline entry (new scenario)", m.name),
        }
    }
    ok
}

/// Reports a command-line error and exits with status 2.
fn usage_error(msg: &str) -> ! {
    err!(
        "mosaic-bench: {msg}\n\
         usage: mosaic-bench [--quick] [--samples N] [--out PATH | --no-out] [--check PATH] \
         [--list] [SCENARIO-FILTER...]"
    );
    std::process::exit(2);
}

fn main() {
    let mut samples = SAMPLES;
    let mut out_path: Option<String> = Some("BENCH.json".to_string());
    let mut check_path: Option<String> = None;
    let mut filter: Vec<String> = Vec::new();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => samples = QUICK_SAMPLES,
            "--samples" => {
                samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--samples needs a positive integer"));
            }
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| usage_error("--out needs a path")))
            }
            "--no-out" => out_path = None,
            "--check" => {
                check_path =
                    Some(args.next().unwrap_or_else(|| usage_error("--check needs a path")))
            }
            "--list" => list = true,
            other if other.starts_with('-') => usage_error(&format!("unknown flag {other}")),
            other => filter.push(other.to_string()),
        }
    }
    if list {
        for s in scenarios() {
            out!("{}", s.name);
        }
        return;
    }

    let results = run_scenarios(samples, &filter);
    assert!(!results.is_empty(), "scenario filter matched nothing");
    let json = render_json(samples, &results);
    if let Some(path) = &out_path {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        err!("# wrote {path}");
    } else {
        let _ = stdout().write_all(json.as_bytes());
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let baseline = match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                err!("# {path} is malformed: {e}");
                std::process::exit(1);
            }
        };
        if !check_regressions(&results, &baseline) {
            err!("# benchmark regression gate FAILED (see above)");
            std::process::exit(1);
        }
        err!("# benchmark regression gate passed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn m(name: &'static str, max_ratio: f64, median_ms: f64) -> Measurement {
        Measurement { name, max_ratio, median_ms, samples_ms: vec![median_ms] }
    }

    fn b(name: &str, median_ms: f64, max_ratio: f64) -> BaselineEntry {
        BaselineEntry { name: name.to_string(), median_ms, max_ratio }
    }

    #[test]
    fn json_round_trips_through_parser() {
        let results = vec![
            Measurement {
                name: "micro/a",
                max_ratio: 1.6,
                median_ms: 1.5,
                samples_ms: vec![1.4, 1.5, 1.6],
            },
            Measurement {
                name: "sweep/b",
                max_ratio: 2.0,
                median_ms: 250.0,
                samples_ms: vec![250.0],
            },
        ];
        let json = render_json(3, &results);
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            (parsed[0].name.as_str(), parsed[0].median_ms, parsed[0].max_ratio),
            ("micro/a", 1.5, 1.6)
        );
        assert_eq!(
            (parsed[1].name.as_str(), parsed[1].median_ms, parsed[1].max_ratio),
            ("sweep/b", 250.0, 2.0)
        );
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"schema\": \"mosaic-bench/v2\"}").is_err());
        let bad_number = "{\"schema\": \"mosaic-bench/v2\", \"scenarios\": [\n\
             {\"name\": \"x\", \"median_ms\": -3.0, \"max_ratio\": 2.0, \"samples_ms\": []}]}";
        assert!(parse_baseline(bad_number).is_err());
        // A v1 document, otherwise well formed, is no longer read.
        let v1 = "{\"schema\": \"mosaic-bench/v1\", \"scenarios\": [\n\
             {\"name\": \"x\", \"median_ms\": 3.0, \"max_ratio\": 2.0, \"samples_ms\": []}]}";
        assert_eq!(
            parse_baseline(v1).err().as_deref(),
            Some("missing or unknown \"schema\" marker")
        );
        // A scenario without its limit does not borrow a default.
        let no_ratio = "{\"schema\": \"mosaic-bench/v2\", \"scenarios\": [\n\
             {\"name\": \"x\", \"median_ms\": 3.0, \"samples_ms\": []},\n\
             {\"name\": \"y\", \"median_ms\": 3.0, \"max_ratio\": 2.0, \"samples_ms\": []}]}";
        assert_eq!(parse_baseline(no_ratio).err().as_deref(), Some("x: no max_ratio field"));
        let bad_ratio = "{\"schema\": \"mosaic-bench/v2\", \"scenarios\": [\n\
             {\"name\": \"x\", \"median_ms\": 3.0, \"max_ratio\": 0.5, \"samples_ms\": []}]}";
        assert!(parse_baseline(bad_ratio).is_err(), "a limit below 1x would always fail");
    }

    #[test]
    fn regression_gate_trips_at_each_scenarios_own_limit() {
        let results = vec![m("micro/a", 1.6, 10.0)];
        assert!(check_regressions(&results, &[b("micro/a", 6.0, 2.0)]), "1.67x is within 2x");
        assert!(!check_regressions(&results, &[b("micro/a", 4.0, 2.0)]), "2.5x must fail");
        // The baseline's limit governs, not a global constant: the same
        // 1.67x ratio fails a 1.6x scenario...
        assert!(!check_regressions(&results, &[b("micro/a", 6.0, 1.6)]));
        // ...while 2.5x passes a loose 4x scenario.
        assert!(check_regressions(&results, &[b("micro/a", 4.0, 4.0)]));
        // Unknown scenarios are tolerated.
        assert!(check_regressions(&results, &[b("micro/other", 1.0, 2.0)]));
    }

    #[test]
    fn roster_limits_cover_every_scenario_family() {
        for s in scenarios() {
            let expected = if s.name == "micro/page_table_map_unmap" {
                // The documented exception: ~3 ms absolute, so one
                // scheduler preemption reads as a 1.6x+ swing.
                SWEEP_RATIO
            } else if s.name.starts_with("micro/") {
                MICRO_RATIO
            } else if s.name.starts_with("campaign/") {
                CACHED_RATIO
            } else {
                SWEEP_RATIO
            };
            assert_eq!(s.max_ratio, expected, "{} carries its family's limit", s.name);
        }
    }
}
