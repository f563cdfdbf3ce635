//! Sweep settings and deterministic parallel sweep execution.
//!
//! Every experiment driver boils down to a list of independent
//! [`run_workload`] calls whose results are then folded into rows and
//! averages. `run_workload(&Workload, RunConfig) -> RunResult` is a pure
//! function of its inputs, so those calls can run on any number of
//! threads without changing a single bit of any result — the situation
//! the parallel-simulation literature (MGSim, Accel-Sim's parallel
//! sweeps) exploits for near-linear sweep speedups at unchanged fidelity.
//!
//! A [`Sweep`] is one value that carries everything a driver needs
//! besides its workloads: the scope, the worker count, the optional
//! persistent run cache and the optional trace collector. Drivers take
//! it by reference; nothing about a sweep lives in process-global state,
//! so any number of differently-configured sweeps can run side by side
//! in one process.
//!
//! The worker pool is dependency-free (std `thread` + `Mutex` only, per
//! DESIGN.md §6). Its determinism contract is *ordered collection*: jobs
//! are submitted as an indexed list and results come back in submission
//! order, whatever order the workers finished in. Downstream folding
//! therefore sees exactly the sequence a serial loop would have produced,
//! which is what makes `--jobs N` output byte-identical to `--jobs 1`
//! (per-job progress goes to stderr only).

use crate::common::{AloneBaselines, Scope};
use mosaic_campaign::Store;
use mosaic_gpusim::{alone_config, run_workload, RunConfig, RunResult};
use mosaic_telemetry::{Eta, Event, TraceSession};
use mosaic_workloads::{AppProfile, Workload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The settings of one experiment sweep, passed by reference to every
/// driver (`fig08::run(&sweep)`).
///
/// # Examples
///
/// ```
/// use mosaic_experiments::{Scope, Sweep};
///
/// let serial = Sweep::new(Scope::Smoke);
/// let parallel = Sweep { jobs: 4, ..Sweep::new(Scope::Smoke) };
/// assert_eq!((serial.jobs, parallel.jobs), (1, 4));
/// ```
#[derive(Debug)]
pub struct Sweep {
    /// How much of the paper's evaluation the drivers sweep.
    pub scope: Scope,
    /// Worker threads for independent simulations (0 behaves as 1).
    /// Output is byte-identical at every count.
    pub jobs: usize,
    /// Persistent run cache. While set, every simulation becomes
    /// lookup-before-simulate with per-job checkpointing: each fresh
    /// result is stored the moment its job finishes, so an interrupted
    /// campaign keeps everything it completed.
    pub cache: Option<Store>,
    /// Trace collector. While set, every job of [`Sweep::run_workloads`]
    /// records its events here, in submission order.
    ///
    /// A traced sweep bypasses the cache in both directions — a cache hit
    /// would produce an event-free trace — and the serial
    /// [`Sweep::run_workload_cached`] calls run untraced.
    pub trace: Option<TraceCollector>,
}

/// The trace chunks a traced sweep has collected, in submission order.
#[derive(Debug, Default)]
pub struct TraceCollector(Mutex<Vec<TraceChunk>>);

impl TraceCollector {
    /// Every chunk collected so far.
    pub fn into_chunks(self) -> Vec<TraceChunk> {
        self.0.into_inner().expect("trace buffer poisoned")
    }
}

/// The events of one traced simulation run.
#[derive(Debug, Clone)]
pub struct TraceChunk {
    /// Workload display name.
    pub workload: String,
    /// Manager label.
    pub manager: String,
    /// Captured events in emission order.
    pub events: Vec<Event>,
}

/// Renders trace chunks as JSONL: one `run_begin` line per simulated
/// run, followed by that run's events in emission order. Fixed key
/// order end to end, so equal traces are byte-identical.
pub fn render_trace(chunks: &[TraceChunk]) -> String {
    let mut out = String::new();
    for chunk in chunks {
        out.push_str(&mosaic_telemetry::run_begin_jsonl(&chunk.workload, &chunk.manager));
        out.push('\n');
        for ev in &chunk.events {
            out.push_str(&ev.to_jsonl());
            out.push('\n');
        }
    }
    out
}

impl Sweep {
    /// A serial, uncached, untraced sweep at `scope`.
    pub fn new(scope: Scope) -> Self {
        Sweep { scope, jobs: 1, cache: None, trace: None }
    }

    /// The run cache this sweep may use: none while tracing.
    fn store(&self) -> Option<&Store> {
        self.cache.as_ref().filter(|_| self.trace.is_none())
    }

    /// Runs one simulation inline, through the cache when one is set and
    /// tracing is off. The serial counterpart of [`Sweep::run_workloads`],
    /// for drivers that need a single result inline.
    pub fn run_workload_cached(&self, workload: &Workload, cfg: RunConfig) -> RunResult {
        simulate(self.store(), workload, cfg)
    }

    /// Runs a list of `(workload, config)` simulation jobs on
    /// [`Sweep::jobs`] workers, returning the results in submission order.
    ///
    /// This is the shape every figure driver's inner loop reduces to; the
    /// progress label is `workload [manager]`.
    pub fn run_workloads(&self, jobs: Vec<(Workload, RunConfig)>) -> Vec<RunResult> {
        let tracing = self.trace.is_some();
        let store = self.store();
        let tasks = jobs
            .into_iter()
            .map(|(w, cfg)| {
                let manager = cfg.manager.label();
                let label = format!("{} [{manager}]", w.name);
                let task = move || {
                    if !tracing {
                        return (simulate(store, &w, cfg), None);
                    }
                    let session = TraceSession::start();
                    let result = run_workload(&w, cfg);
                    let chunk = TraceChunk {
                        workload: w.name,
                        manager: manager.to_string(),
                        events: session.finish(),
                    };
                    (result, Some(chunk))
                };
                (label, task)
            })
            .collect();
        let (results, chunks): (Vec<_>, Vec<_>) = run_ordered(self.jobs, tasks).into_iter().unzip();
        if let Some(trace) = &self.trace {
            trace.0.lock().expect("trace buffer poisoned").extend(chunks.into_iter().flatten());
        }
        results
    }

    /// Resolves every alone baseline the given `(workload, config)` pairs
    /// need, running each distinct one once on this sweep's workers.
    ///
    /// The returned map is frozen: drivers fold their rows from it
    /// serially, with no simulation left on the serial path.
    pub fn alone_baselines(&self, items: &[(&Workload, RunConfig)]) -> AloneBaselines {
        let mut slots = HashMap::new();
        let mut jobs = Vec::new();
        for &(workload, cfg) in items {
            for (i, &profile) in workload.apps.iter().enumerate() {
                let alone_cfg = alone_config(cfg, workload.app_count(), i);
                slots.entry(AloneBaselines::key(profile, &alone_cfg)).or_insert_with(|| {
                    jobs.push((solo(profile), alone_cfg));
                    jobs.len() - 1
                });
            }
        }
        let results = self.run_workloads(jobs);
        let ipc = slots.into_iter().map(|(key, job)| (key, results[job].apps[0].ipc)).collect();
        AloneBaselines { ipc }
    }
}

/// A one-application workload.
fn solo(profile: &'static AppProfile) -> Workload {
    Workload { name: profile.name.to_string(), apps: vec![profile] }
}

/// Simulates through `store` when given (lookup-before-simulate with
/// insert-on-miss), else straight. The insert happens here, inside the
/// calling job, not after the enclosing sweep — that per-job
/// checkpointing is what makes campaigns resumable.
fn simulate(store: Option<&Store>, workload: &Workload, cfg: RunConfig) -> RunResult {
    let Some(store) = store else {
        return run_workload(workload, cfg);
    };
    let key = store.run_key(workload, &cfg);
    if let Some(hit) = store.lookup(key) {
        return hit.result;
    }
    let t0 = std::time::Instant::now();
    let result = run_workload(workload, cfg);
    store.insert(key, &result, t0.elapsed().as_millis() as u64);
    result
}

/// Runs every `(label, task)` on up to `jobs` scoped worker threads,
/// returning results in submission order, and prints one
/// `[sweep i/n] label (time)` progress line per completed job on stderr
/// (stdout stays clean for report text; empty labels stay silent).
///
/// Tasks must be independent. With one worker (or at most one task)
/// everything runs inline on the caller's thread — the serial reference
/// the parallel path must be byte-identical to.
fn run_ordered<T, F>(jobs: usize, tasks: Vec<(String, F)>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let total = tasks.len();
    let progress = Progress::new(total);
    if jobs <= 1 || total <= 1 {
        return tasks
            .into_iter()
            .map(|(label, task)| {
                let t0 = std::time::Instant::now();
                let out = task();
                progress.report(&label, t0);
                out
            })
            .collect();
    }

    // Work queue: a cursor over the task list; each worker takes the
    // next un-started task. Results land in their submission slot, so
    // collection order is independent of completion order.
    let queue = Mutex::new((0usize, tasks.into_iter().map(Some).collect::<Vec<_>>()));
    let results = Mutex::new((0..total).map(|_| None).collect::<Vec<Option<T>>>());
    std::thread::scope(|s| {
        for _ in 0..jobs.min(total) {
            s.spawn(|| loop {
                let (index, label, task) = {
                    let mut q = queue.lock().expect("sweep queue poisoned");
                    let index = q.0;
                    if index >= total {
                        break;
                    }
                    q.0 += 1;
                    let (label, task) = q.1[index].take().expect("task taken twice");
                    (index, label, task)
                };
                let t0 = std::time::Instant::now();
                let out = task();
                progress.report(&label, t0);
                results.lock().expect("sweep results poisoned")[index] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("sweep results poisoned")
        .into_iter()
        .map(|slot| slot.expect("every submitted job produces a result"))
        .collect()
}

/// Completion counter behind the per-job stderr progress lines, with an
/// ETA extrapolated from jobs done over batch elapsed time.
#[derive(Debug)]
struct Progress {
    done: AtomicUsize,
    total: usize,
    eta: Eta,
}

impl Progress {
    fn new(total: usize) -> Self {
        Progress { done: AtomicUsize::new(0), total, eta: Eta::start(total) }
    }

    fn report(&self, label: &str, started: std::time::Instant) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !label.is_empty() {
            let eta = if done < self.total {
                format!(" {}", self.eta.render(done))
            } else {
                String::new()
            };
            eprintln!(
                "[sweep {done}/{total}] {label} ({elapsed:.1?}){eta}",
                total = self.total,
                elapsed = started.elapsed()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unlabeled tasks for [`run_ordered`].
    fn unlabeled<F>(tasks: impl IntoIterator<Item = F>) -> Vec<(String, F)> {
        tasks.into_iter().map(|t| (String::new(), t)).collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        // Jobs finishing in reverse submission order must still collect in
        // submission order.
        let out = run_ordered(
            4,
            unlabeled((0..16usize).map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis((16 - i % 16) as u64 * 2));
                    i
                }
            })),
        );
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let tasks = || unlabeled((0..10usize).map(|i| move || i * 3 + 1));
        assert_eq!(run_ordered(1, tasks()), run_ordered(8, tasks()));
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = run_ordered(
            3,
            unlabeled((0..32usize).map(|i| {
                let count = &count;
                move || {
                    count.fetch_add(1, Ordering::SeqCst);
                    i
                }
            })),
        );
        assert_eq!(out.len(), 32);
        assert_eq!(count.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn zero_jobs_runs_serially() {
        assert_eq!(run_ordered(0, unlabeled((0..3usize).map(|i| move || i))), vec![0, 1, 2]);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out: Vec<usize> = run_ordered(4, Vec::<(String, fn() -> usize)>::new());
        assert!(out.is_empty());
    }
}
