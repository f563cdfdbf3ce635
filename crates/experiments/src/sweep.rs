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
//! persistent run cache, the optional trace collector and the memo of
//! every result it has produced. Drivers take it by reference; nothing
//! about a sweep lives in process-global state, so any number of
//! differently-configured sweeps can run side by side in one process.
//!
//! Purity also makes a run's [`run_key`] its identity. Untraced, a sweep
//! simulates each distinct key once: the memo is the first tier and the
//! store the second. A traced batch runs every job it is given.
//!
//! The worker pool is dependency-free (std `thread` + `Mutex` only, per
//! DESIGN.md §6). Its determinism contract is *ordered collection*: jobs
//! are submitted as an indexed list and results come back in submission
//! order, whatever order the workers finished in. Downstream folding
//! therefore sees exactly the sequence a serial loop would have produced,
//! which is what makes `--jobs N` output byte-identical to `--jobs 1`
//! (per-job progress goes to stderr only).

use crate::common::Scope;
use mosaic_campaign::{built_code_digest, run_key, Digest, Store};
use mosaic_gpusim::{alone_config, run_workload, RunConfig, RunResult};
use mosaic_telemetry::{Eta, Event, TraceSession};
use mosaic_workloads::Workload;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// Persistent run cache, the second tier behind [`Sweep::memo`]:
    /// lookup-before-simulate with per-job checkpointing, so an
    /// interrupted campaign keeps every run it completed.
    pub cache: Option<Store>,
    /// Trace collector. While set, every job of [`Sweep::run_workloads`]
    /// runs and records its events here, in submission order, bypassing
    /// both tiers (a served run would leave no events); the serial
    /// [`Sweep::run_workload_cached`] calls run untraced.
    pub trace: Option<TraceCollector>,
    /// The in-process tier, empty at first.
    pub memo: Memo,
}

/// Every result a [`Sweep`] has produced, by [`run_key`], so each
/// distinct run is simulated (or read from the store) once per sweep.
#[derive(Debug, Default)]
pub struct Memo {
    runs: Mutex<HashMap<Digest, RunResult>>,
    served: AtomicU64,
}

impl Memo {
    /// Submitted runs served in-process: repeats of a key seen earlier in
    /// the same batch or an earlier one.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
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
        Sweep { scope, jobs: 1, cache: None, trace: None, memo: Memo::default() }
    }

    /// The run cache this sweep may use: none while tracing.
    fn store(&self) -> Option<&Store> {
        self.cache.as_ref().filter(|_| self.trace.is_none())
    }

    /// A run's one identity: its [`run_key`] under the store's code
    /// digest, or this build's without a store.
    fn key(&self, workload: &Workload, cfg: &RunConfig) -> Digest {
        let code = self.cache.as_ref().map_or_else(built_code_digest, Store::code_digest);
        run_key(workload, cfg, code)
    }

    /// Runs one simulation inline and untraced, through both tiers (the
    /// store only while not tracing): the serial counterpart of
    /// [`Sweep::run_workloads`].
    pub fn run_workload_cached(&self, workload: &Workload, cfg: RunConfig) -> RunResult {
        self.resolve(vec![(workload.clone(), cfg)], false).remove(0)
    }

    /// Runs a list of `(workload, config)` simulation jobs on
    /// [`Sweep::jobs`] workers, returning the results in submission order
    /// (progress label `workload [manager]`). Untraced, equal run keys
    /// collapse before dispatch, keys seen before are served from the
    /// memo, and each other key goes through the store or is simulated.
    pub fn run_workloads(&self, jobs: Vec<(Workload, RunConfig)>) -> Vec<RunResult> {
        let Some(trace) = &self.trace else {
            return self.resolve(jobs, true);
        };
        let tasks = jobs
            .into_iter()
            .map(|(w, cfg)| {
                let label = label(&w, &cfg);
                let task = move || {
                    let session = TraceSession::start();
                    let result = run_workload(&w, cfg);
                    let manager = cfg.manager.label().to_string();
                    (result, TraceChunk { workload: w.name, manager, events: session.finish() })
                };
                (label, task)
            })
            .collect();
        let (results, chunks): (Vec<_>, Vec<_>) = run_ordered(self.jobs, tasks).into_iter().unzip();
        trace.0.lock().expect("trace buffer poisoned").extend(chunks);
        results
    }

    /// The untraced path: one task per distinct key the memo lacks
    /// (labelled when `progress` is set), then every job's result.
    fn resolve(&self, jobs: Vec<(Workload, RunConfig)>, progress: bool) -> Vec<RunResult> {
        let keys: Vec<Digest> = jobs.iter().map(|(w, cfg)| self.key(w, cfg)).collect();
        let store = self.store();
        let tasks: Vec<_> = {
            let runs = self.memo.runs.lock().expect("memo poisoned");
            let mut fresh = HashSet::new();
            jobs.into_iter()
                .zip(keys.iter().copied())
                .filter(|&(_, key)| !runs.contains_key(&key) && fresh.insert(key))
                .map(|((w, cfg), key)| {
                    let label = if progress { label(&w, &cfg) } else { String::new() };
                    (label, move || (key, simulate(store, key, &w, cfg)))
                })
                .collect()
        };
        self.memo.served.fetch_add((keys.len() - tasks.len()) as u64, Ordering::Relaxed);
        let fresh = run_ordered(self.jobs, tasks);
        let mut runs = self.memo.runs.lock().expect("memo poisoned");
        runs.extend(fresh);
        keys.iter().map(|key| runs[key].clone()).collect()
    }

    /// The alone baselines of each `(workload, config)` in `runs`, one
    /// result per application under [`alone_config`]: the `IPC_alone`
    /// runs [`mosaic_gpusim::weighted_speedup`] folds a shared run
    /// against. Each distinct one is submitted once, in first-seen order,
    /// so a traced sweep records it once too.
    pub fn alone_baselines(&self, runs: &[(Workload, RunConfig)]) -> Vec<Vec<RunResult>> {
        let (mut index, mut jobs) = (HashMap::new(), Vec::new());
        let slots: Vec<Vec<usize>> = runs
            .iter()
            .map(|(w, cfg)| {
                w.apps
                    .iter()
                    .enumerate()
                    .map(|(i, &app)| {
                        let solo = Workload { name: app.name.to_string(), apps: vec![app] };
                        let job = (solo, alone_config(*cfg, w.app_count(), i));
                        *index.entry(self.key(&job.0, &job.1)).or_insert_with(|| {
                            jobs.push(job);
                            jobs.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let results = self.run_workloads(jobs);
        slots.iter().map(|apps| apps.iter().map(|&j| results[j].clone()).collect()).collect()
    }
}

/// The progress label of one job: `workload [manager]`.
fn label(workload: &Workload, cfg: &RunConfig) -> String {
    format!("{} [{}]", workload.name, cfg.manager.label())
}

/// Simulates the run keyed `key` through `store` when given
/// (lookup-before-simulate with insert-on-miss), else straight. The
/// insert happens here, inside the calling job, not after the enclosing
/// sweep — that per-job checkpointing is what makes campaigns resumable.
fn simulate(store: Option<&Store>, key: Digest, workload: &Workload, cfg: RunConfig) -> RunResult {
    let Some(store) = store else {
        return run_workload(workload, cfg);
    };
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
            // A closed stderr drops the line: progress is not the verdict.
            let _ = writeln!(
                std::io::stderr(),
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
    use mosaic_gpusim::{run_alone_baselines, weighted_speedup, ManagerKind, Topology};
    use std::path::PathBuf;

    /// A fresh, empty store directory for the test `name`.
    fn store_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mosaic-sweep-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A smoke sweep on `jobs` workers with a store at `dir`.
    fn cached(jobs: usize, dir: &PathBuf) -> Sweep {
        Sweep {
            jobs,
            cache: Some(Store::open(dir).expect("open store")),
            ..Sweep::new(Scope::Smoke)
        }
    }

    #[test]
    fn each_distinct_key_is_simulated_once_per_sweep() {
        let dir = store_dir("memo");
        let sweep = cached(2, &dir);
        let cfg = Scope::Smoke.config(ManagerKind::GpuMmu4K);
        let (mm, gups) = (Workload::from_names(&["MM"]), Workload::from_names(&["GUPS"]));
        let batch = vec![(mm.clone(), cfg), (gups, cfg), (mm.clone(), cfg), (mm, cfg.ideal_tlb())];
        let first = sweep.run_workloads(batch.clone());
        let second = sweep.run_workloads(batch.clone());
        let st = sweep.cache.as_ref().expect("cached").stats();
        assert_eq!((st.misses, st.hits, st.stores), (3, 0, 3), "three distinct keys, each once");
        assert_eq!(sweep.memo.served(), 1 + 4, "the in-batch repeat, then the whole second batch");
        assert_eq!(first.len(), 4);
        assert_eq!(first, second);
        assert_eq!(first[0], first[2], "a repeat is the same run");
        // The serial entry point reads the same memo.
        let inline = sweep.run_workload_cached(&batch[3].0, batch[3].1);
        assert_eq!(inline, first[3]);
        assert_eq!(sweep.cache.as_ref().expect("cached").stats().misses, 3);

        // Traced, every submitted job runs and is recorded; neither tier
        // is read or written.
        let traced = Sweep { trace: Some(TraceCollector::default()), ..cached(2, &dir) };
        let results = traced.run_workloads(batch.clone());
        let st = traced.cache.as_ref().expect("cached").stats();
        assert_eq!((st.hits, st.misses, st.stores), (0, 0, 0), "traced batches bypass the store");
        assert_eq!(traced.memo.served(), 0, "traced batches bypass the memo");
        let chunks = traced.trace.expect("traced").into_chunks();
        let names: Vec<_> =
            chunks.iter().map(|c| (c.workload.as_str(), c.events.is_empty())).collect();
        assert_eq!(names, [("MM", false), ("GUPS", false), ("MM", false), ("MM", false)]);
        assert_eq!(results, first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn alone_baselines_run_once_per_distinct_key() {
        let dir = store_dir("alone");
        let sweep = cached(2, &dir);
        let cfg = Scope::Smoke.config(ManagerKind::GpuMmu4K);
        let pair = Workload::from_names(&["NN", "HS"]);
        let trio = Workload::from_names(&["NN", "HS", "MM"]);
        let runs = [(pair.clone(), cfg), (pair, cfg), (trio, cfg)];
        let alone = sweep.alone_baselines(&runs);
        assert_eq!(alone.iter().map(Vec::len).collect::<Vec<_>>(), [2, 2, 3]);
        // NN and HS at half the SMs, then NN, HS and MM at a third: a
        // different SM share is a different baseline.
        let st = sweep.cache.as_ref().expect("cached").stats();
        assert_eq!((st.misses, st.hits), (5, 0), "one run per distinct key");
        // A traced batch runs every job it is given, so the baselines
        // are collapsed before they are submitted.
        let traced = Sweep { trace: Some(TraceCollector::default()), ..Sweep::new(Scope::Smoke) };
        assert_eq!(traced.alone_baselines(&runs), alone);
        assert_eq!(traced.trace.expect("traced").into_chunks().len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn alone_baselines_distinguish_baseline_relevant_configs() {
        // Regression: keying on (app, sm_count) alone let the points of a
        // TLB-size sweep share the baseline computed under the first
        // point's TLB geometry.
        let sweep = Sweep::new(Scope::Smoke);
        let w = Workload::from_names(&["NN", "HS"]);
        let cfg_a = Scope::Smoke.config(ManagerKind::GpuMmu4K);
        let mut cfg_b = cfg_a;
        cfg_b.system.l1_tlb.base_entries = 8;
        let ideal = cfg_a.ideal_tlb();
        let mosaic = Scope::Smoke.config(ManagerKind::mosaic());
        let runs = [cfg_a, cfg_b, ideal, mosaic].map(|cfg| (w.clone(), cfg));
        let alone = sweep.alone_baselines(&runs);
        // Fields the baseline derivation overrides (manager, ideal TLB,
        // fragmentation) must NOT split the baselines.
        let distinct = sweep.memo.runs.lock().expect("memo").len();
        assert_eq!(distinct, 4, "two TLB geometries are two baselines per app");
        let shared = run_workload(&w, cfg_a);
        let ws: Vec<f64> = alone.iter().map(|a| weighted_speedup(&shared, a)).collect();
        assert_ne!(ws[0], ws[1], "a starved L1 TLB must change the alone baseline");
        assert_eq!(ws[0], ws[2]);
        assert_eq!(ws[0], ws[3]);
    }

    #[test]
    fn alone_baselines_match_run_alone_baselines_on_a_fleet() {
        // One alone-baseline derivation: the sweep's keyed jobs and
        // gpusim's `run_alone_baselines` must agree, also on a multi-GPU
        // shared run, whose baselines run on one device with the app's
        // share of the whole fleet's SMs.
        let cfg = Scope::Smoke.config(ManagerKind::mosaic()).multi_gpu(2, Topology::FullyConnected);
        let w = Workload::from_names(&["NN", "HS"]);
        let shared = run_workload(&w, cfg);
        let expected = weighted_speedup(&shared, &run_alone_baselines(&w, cfg));
        let alone = Sweep { jobs: 2, ..Sweep::new(Scope::Smoke) }.alone_baselines(&[(w, cfg)]);
        assert_eq!(weighted_speedup(&shared, &alone[0]), expected);
    }

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
