//! `mosaic-simbench`: simulated work per host second, end to end and
//! layer by layer.
//!
//! Each workload (`multiapp`, `oversub`, `fleet`) is a seeded list of
//! `(Workload, RunConfig)` simulation jobs at a shortened smoke scale
//! (see [`jobs`]). A *pass* runs the whole list once on one thread.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload multiapp --seed 1 --seconds 30 --trace 0
//! ```
//!
//! # End-to-end run (`--trace 0`)
//!
//! One untimed warm-up pass over the workload's canonical job list
//! (seed 0) yields the simulated-result digest, compared against
//! `digests.txt` (`sim_changed` is a report, not a failure: a perf or
//! simplicity change must leave it false, a deliberate model change flips
//! it). One untimed pass over the seeded list follows; then timed passes
//! repeat through `mosaic_gpusim::run_workload`, tracing off, until
//! `--seconds` have passed (at least three). Every run must match the same job's result
//! in every other pass and satisfy basic invariants; a panic or mismatch
//! counts as failed. The [`reference`] kernel is timed before the first
//! pass and after every pass; each pass, and each set-up that follows it,
//! is divided by the mean of the two kernel times around it. Times are
//! *reference-normalized seconds*: that ratio times
//! [`reference::NOMINAL_S`], i.e. host seconds on a host where the kernel
//! takes its nominal time. Raw host seconds are printed beside them.
//! Reported:
//!
//! * `wall_s` — normalized host seconds for one pass, median over passes.
//!   Passes are kept short (well under a second), so a run makes dozens;
//! * `sim_kips` — warp instructions retired in one pass ÷ `wall_s`, in
//!   thousands per normalized second;
//! * `setup_s` — what the runs build before cycle 0, summed over the
//!   jobs (`AppLayout::build`, `GpuSystem::new`, `launch_app` with
//!   preload), in normalized seconds, median of repeated set-ups;
//! * `peak_rss_mb` — the process's peak resident set (`VmHWM`) after one
//!   untimed pass of the seeded list, read before the kernel first runs;
//! * `failed_frac` — failed ÷ attempted runs, printed on its own line
//!   and carried by the result's `failed`/`attempted` counts.
//!
//! # Traced run (`--trace 1`)
//!
//! Untraced passes alternate with passes through [`replica`], which
//! re-implements the runner's per-phase loop from public functions and
//! times each call into a layer from outside. Every replica result must
//! equal `run_workload`'s for the same job (else the run fails loudly),
//! so the per-layer figures describe the real runner. The layer map:
//!
//! | layer (crate) | metrics | measured how |
//! |---|---|---|
//! | `gpu` | `gpu.sm.*` | span of the loop around `Sm::advance`; `self_s` excludes `warp_access` and `deallocate` |
//! | `gpusim` | `gpusim.warp_access.*`, `gpusim.deallocate.*`, `gpusim.setup.s` | spans around `warp_access_timed`, `deallocate`, `GpuSystem::new` + `launch_app` |
//! | `workloads` | `workloads.build.s`, `workloads.next_op.est_s` | spans around `AppLayout::build` + `AppWarpStream::new`; `next_op` estimated |
//! | `vm` | `vm.tlb.*`, `vm.walker.*` | counts from `SystemStats`; `est_s` |
//! | `mem` | `mem.cache.*`, `mem.dram.*`, `mem.interconnect.*` | counts derived from `SystemStats`; `est_s` |
//! | `core` | `core.manager.*`, `core.placement.*` | `ManagerStats`, placement stats; `est_s` |
//! | `iobus` | `iobus.*` | bus counters; `est_s` |
//! | (bench) | `trace.overhead_frac` | median traced ÷ untraced pass − 1 |
//!
//! Reading it: `gpusim.warp_access.s` is measured, and every `est_s` is a
//! *calibrated estimate* of host time spent inside it (calls × ns/op from
//! [`calib`]), not a measurement; `gpusim.warp_access.unexplained_s` is
//! the measured time minus those estimates, so a large residual says the
//! estimates miss something. Times are medians over traced passes; counts
//! are exact and identical on every pass. The per-job spans of the last
//! traced pass are written to standard error at the end.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Bad command lines exit 2 with a message.

mod calib;
mod cli;
mod jobs;
mod layers;
mod reference;
mod replica;
mod stats;

use jobs::{Job, Kind};
use layers::Metric;
use mosaic_gpusim::{run_workload, RunResult};
use replica::Spans;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed of each workload's canonical job list, whose digest is
/// recorded in `digests.txt`.
const CANONICAL_SEED: u64 = 0;

/// Recorded canonical digests, one `workload hex` pair per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// Fewest timed passes of each kind a run makes, however short
/// `--seconds` is.
const MIN_PASSES: usize = 3;

/// Set-ups of the whole job list measured after each timed pass; the
/// median of their normalized times is `setup_s`.
const SETUPS_PER_PASS: usize = 8;

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("sim_kips", "kinstr/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// What a run reports.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Tracks every run of a job list against the first result of each job.
struct Checker {
    reference: Vec<Option<RunResult>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn new(jobs: usize) -> Self {
        Checker { reference: vec![None; jobs], attempted: 0, failed: 0, problems: Vec::new() }
    }

    fn fail(&mut self, problem: String) {
        eprintln!("simbench: FAILED: {problem}");
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records one run of job `i`: `None` when it panicked.
    fn check(&mut self, i: usize, result: Option<RunResult>) {
        self.attempted += 1;
        let Some(result) = result else {
            return self.fail(format!("job {i} panicked"));
        };
        if let Err(e) = jobs::result_sane(&result) {
            return self.fail(format!("job {i}: {e}"));
        }
        match &self.reference[i] {
            None => self.reference[i] = Some(result),
            Some(first) if *first == result => {}
            Some(first) => {
                let why = replica::disagreement(&result, first).unwrap_or_default();
                self.fail(format!("job {i} ({}) is not deterministic: {why}", result.workload));
            }
        }
    }

    /// The first result of every job, if every job produced one.
    fn results(&self) -> Option<Vec<RunResult>> {
        self.reference.iter().cloned().collect()
    }

    /// What the run reports, with `metrics`.
    fn outcome(self, metrics: Vec<Metric>) -> Outcome {
        Outcome { problems: self.problems, attempted: self.attempted, failed: self.failed, metrics }
    }
}

fn run_job(job: &Job) -> Option<RunResult> {
    catch_unwind(AssertUnwindSafe(|| run_workload(&job.workload, job.cfg))).ok()
}

/// One untraced pass; returns its per-job host times.
fn untraced_pass(jobs: &[Job], checker: &mut Checker) -> Vec<f64> {
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let t = Instant::now();
            let result = run_job(job);
            let secs = t.elapsed().as_secs_f64();
            checker.check(i, result);
            secs
        })
        .collect()
}

/// Host seconds to build every job's pre-cycle-0 state once.
fn set_up_pass(jobs: &[Job]) -> f64 {
    jobs.iter()
        .map(|job| {
            let s = replica::set_up(job);
            (s.build + s.setup).as_secs_f64()
        })
        .sum()
}

fn digest(results: &[RunResult]) -> u64 {
    let mut h = stats::Fnv::default();
    for r in results {
        h.write(format!("{r:?}").as_bytes());
    }
    h.finish()
}

/// The digest recorded for `kind` in `digests.txt`, if any.
fn recorded_digest(kind: Kind) -> Option<u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == kind.name())
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

/// Runs the canonical job list once (the warm-up) and reports its digest
/// against the recorded one.
fn canonical_warm_up(kind: Kind, checker: &mut Checker) {
    let jobs = jobs::jobs(kind, CANONICAL_SEED);
    let results: Option<Vec<RunResult>> = jobs.iter().map(run_job).collect();
    checker.attempted += jobs.len() as u64;
    let Some(results) = results else {
        return checker.fail(format!("a canonical {} run panicked", kind.name()));
    };
    let got = digest(&results);
    match recorded_digest(kind) {
        Some(want) => println!(
            "digest {} seed {CANONICAL_SEED}: {got:016x} (recorded {want:016x}) sim_changed {}",
            kind.name(),
            got != want
        ),
        None => println!(
            "digest {} seed {CANONICAL_SEED}: {got:016x} (none recorded) sim_changed unknown",
            kind.name()
        ),
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&mut values.collect::<Vec<_>>())
}

/// Prints one end-to-end metric with its sample count and pass quartiles.
fn describe(name: &str, value: f64, unit: &str, how: &str) {
    println!("{name:<12} {value:>14.6} {unit:<9} {how}");
}

/// Median and quartiles of raw host times, for the record.
fn raw_note(samples: &[f64]) -> String {
    let median = median_of(samples.iter().copied());
    match stats::quartiles(samples) {
        Some((q1, q3)) => format!("raw host s: median {median:.6}, q1 {q1:.6}, q3 {q3:.6}"),
        None => format!("raw host s: {median:.6}"),
    }
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn untraced(args: cli::Args) -> Outcome {
    let kind = args.workload;
    let jobs = jobs::jobs(kind, args.seed);
    let mut checker = Checker::new(jobs.len());
    canonical_warm_up(kind, &mut checker);

    // An untimed pass of the seeded list; the peak resident set is read
    // before the reference kernel's own hash maps can raise it.
    untraced_pass(&jobs, &mut checker);
    let rss = peak_rss_mb();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut kernel = reference::Kernel::new();
    let mut kernels = vec![kernel.time()];
    let (mut passes, mut setups) = (Vec::new(), Vec::new());
    let (mut pass_ratios, mut setup_ratios) = (Vec::new(), Vec::new());
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let pass: f64 = untraced_pass(&jobs, &mut checker).iter().sum();
        // Set-ups are spread across the run, so a slow spell of the host
        // cannot take all of them.
        let rounds: Vec<f64> = (0..SETUPS_PER_PASS).map(|_| set_up_pass(&jobs)).collect();
        kernels.push(kernel.time());
        let around = (kernels[kernels.len() - 2] + kernels[kernels.len() - 1]) / 2.0;
        passes.push(pass);
        pass_ratios.push(pass / around);
        setup_ratios.extend(rounds.iter().map(|t| t / around));
        setups.extend(rounds);
    }
    let wall_s = median_of(pass_ratios.iter().copied()) * reference::NOMINAL_S;
    let results = checker.results();
    let instructions: u64 =
        results.iter().flatten().flat_map(|r| &r.apps).map(|a| a.instructions).sum();
    if let Some(results) = &results {
        if let Err(e) = jobs::profile_holds(kind, results) {
            checker.problems.push(e);
        }
        println!("digest {} seed {}: {:016x}", kind.name(), args.seed, digest(results));
    }

    let setup_s = median_of(setup_ratios.iter().copied()) * reference::NOMINAL_S;
    if rss.is_none() {
        checker.problems.push("no VmHWM in /proc/self/status".into());
    }
    let sim_kips = instructions as f64 / wall_s / 1e3;

    println!(
        "workload {} seed {}: {} jobs x {} passes",
        kind.name(),
        args.seed,
        jobs.len(),
        passes.len()
    );
    let how = format!("median of {} passes, {}", passes.len(), raw_note(&passes));
    describe("wall_s", wall_s, "s", &how);
    describe("sim_kips", sim_kips, "kinstr/s", &format!("{instructions} instr / wall_s"));
    let how = format!("median of {} set-ups, {}", setups.len(), raw_note(&setups));
    describe("setup_s", setup_s, "s", &how);
    let how = format!("{} kernel runs, {}", kernels.len(), raw_note(&kernels));
    describe("reference", reference::NOMINAL_S, "s", &how);
    describe("peak_rss_mb", rss.unwrap_or(0.0), "MB", "VmHWM, 1 sample");
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    let counts = format!("{} of {} runs", checker.failed, checker.attempted);
    describe("failed_frac", failed_frac, "fraction", &counts);

    let values = [wall_s, sim_kips, setup_s, rss.unwrap_or(0.0)];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    checker.outcome(metrics)
}

/// The per-field median of several passes' span totals.
fn median_spans(passes: &[Spans]) -> Spans {
    let med = |f: fn(&Spans) -> Duration| {
        Duration::from_secs_f64(median_of(passes.iter().map(|s| f(s).as_secs_f64())))
    };
    Spans {
        build: med(|s| s.build),
        setup: med(|s| s.setup),
        advance: med(|s| s.advance),
        access: med(|s| s.access),
        dealloc: med(|s| s.dealloc),
        ..passes[0]
    }
}

fn traced(args: cli::Args) -> Outcome {
    let kind = args.workload;
    let jobs = jobs::jobs(kind, args.seed);
    let mut checker = Checker::new(jobs.len());
    canonical_warm_up(kind, &mut checker);

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut pass_spans: Vec<Spans> = Vec::new();
    let mut job_spans: Vec<Spans> = Vec::new();
    while traced_walls.len() < MIN_PASSES || Instant::now() < deadline {
        untraced_walls.push(untraced_pass(&jobs, &mut checker).iter().sum::<f64>());
        let t = Instant::now();
        job_spans.clear();
        for (i, job) in jobs.iter().enumerate() {
            checker.attempted += 1;
            let Ok((result, spans)) = catch_unwind(AssertUnwindSafe(|| replica::run_traced(job)))
            else {
                checker.fail(format!("replica of job {i} panicked"));
                continue;
            };
            job_spans.push(spans);
            let first = checker.reference[i].as_ref();
            if let Some(why) = first.and_then(|r| replica::disagreement(&result, r)) {
                checker.fail(format!("replica disagrees with run_workload on job {i}: {why}"));
            }
        }
        traced_walls.push(t.elapsed().as_secs_f64());
        let mut total = Spans::default();
        job_spans.iter().for_each(|s| total.add(s));
        pass_spans.push(total);
    }

    let Some(results) = checker.results().filter(|_| job_spans.len() == jobs.len()) else {
        checker.problems.push("no complete traced pass".into());
        return checker.outcome(Vec::new());
    };
    if let Err(e) = jobs::profile_holds(kind, &results) {
        checker.problems.push(e);
    }
    // The counting pass: untimed, tracing on.
    let mut events = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        checker.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| layers::count_events(job))) {
            Ok((result, counts)) if result == results[i] => events.push(counts),
            Ok(_) => checker.fail(format!("job {i} changed its result with tracing on")),
            Err(_) => checker.fail(format!("traced run of job {i} panicked")),
        }
    }
    if events.len() != jobs.len() {
        return checker.outcome(Vec::new());
    }
    let ns = calib::calibrate(&layers::shape(&jobs, &results, &job_spans, &events));
    let timing = layers::Timing {
        spans: median_spans(&pass_spans),
        untraced_s: median_of(untraced_walls.iter().copied()),
        traced_s: median_of(traced_walls.iter().copied()),
    };
    let metrics = layers::metrics(&jobs, &results, &job_spans, &events, &timing, &ns);

    println!(
        "workload {} seed {}: {} jobs x {} traced passes (+{} untraced), all replicas agree: {}",
        kind.name(),
        args.seed,
        jobs.len(),
        traced_walls.len(),
        untraced_walls.len(),
        checker.failed == 0
    );
    println!("calibrated ns/op: {ns:?}");
    for m in &metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for ((job, r), s) in jobs.iter().zip(&results).zip(&job_spans) {
        eprintln!(
            "span {:<22} {:<16} gpus {} cycles {:>9} advance {:.6} s warp_access {:.6} s \
             ({} calls) deallocate {:.6} s setup {:.6} s build {:.6} s",
            job.workload.name,
            r.manager,
            job.cfg.fleet.gpus,
            r.total_cycles,
            s.advance.as_secs_f64(),
            s.access.as_secs_f64(),
            s.access_calls,
            s.dealloc.as_secs_f64(),
            s.setup.as_secs_f64(),
            s.build.as_secs_f64()
        );
    }
    checker.outcome(metrics)
}

/// The result line: one JSON object.
fn json(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(cli::Command::Run(args)) => args,
        Ok(cli::Command::Help) => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("mosaic-simbench: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    // One simulation thread: the numbers measure the simulator, not the
    // speculative engine or a scheduler.
    mosaic_gpusim::set_sim_threads(Some(1));
    let mut outcome = if args.trace { traced(args) } else { untraced(args) };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        outcome.problems.push(format!("{} is not a finite number", m.name));
        outcome.metrics.retain(|m| m.value.is_finite());
    }
    for p in &outcome.problems {
        eprintln!("simbench: problem: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    println!("{}", json(correct, &outcome));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric listed under `section` in the
    /// repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside simbench/");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            entry[at..at + entry[at..].find('"').expect("closed string")].to_string()
        };
        body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
    }

    fn owned(list: impl Iterator<Item = (&'static str, &'static str)>) -> Vec<(String, String)> {
        list.map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END.into_iter()));
        let timing = layers::Timing { spans: Spans::default(), untraced_s: 1.0, traced_s: 1.0 };
        let per_layer = layers::metrics(&[], &[], &[], &[], &timing, &calib::NsPerOp::default());
        assert_eq!(declared("per_layer"), owned(per_layer.iter().map(|m| (m.name, m.unit))));
    }

    #[test]
    fn canonical_results_match_the_recorded_digests() {
        for kind in Kind::ALL {
            let results: Vec<RunResult> = jobs::jobs(kind, CANONICAL_SEED)
                .iter()
                .map(|j| run_workload(&j.workload, j.cfg))
                .collect();
            assert_eq!(Some(digest(&results)), recorded_digest(kind), "{}", kind.name());
        }
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let outcome = Outcome {
            problems: Vec::new(),
            attempted: 3,
            failed: 0,
            metrics: vec![Metric { name: "wall_s", value: 1.5, unit: "s" }],
        };
        assert_eq!(
            json(true, &outcome),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}"#
        );
    }
}
