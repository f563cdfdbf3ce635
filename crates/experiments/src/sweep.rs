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
//! persistent run cache, the optional trace destination and the memo of
//! every result it has produced. Drivers take it by reference; nothing
//! about a sweep lives in process-global state, so any number of
//! differently-configured sweeps can run side by side in one process.
//!
//! Purity also makes a run's [`run_key`] its identity, and a sweep
//! simulates each distinct key once: the memo is the first tier and the
//! store the second. Tracing changes two things only: the store is
//! bypassed (a stored hit has no events), and each freshly simulated run
//! is recorded to the sweep's [`Trace`].
//!
//! The worker pool is dependency-free (std `thread` + `Mutex` only, per
//! DESIGN.md §6). Its determinism contract is *ordered collection*: jobs
//! are submitted as an indexed list and results come back in submission
//! order, whatever order the workers finished in. Downstream folding
//! therefore sees exactly the sequence a serial loop would have produced,
//! which is what makes `--jobs N` output byte-identical to `--jobs 1`
//! (per-job progress goes to stderr only). The trace keeps the same
//! order: a run is written once every run submitted before it has been.

use crate::common::Scope;
use mosaic_campaign::{built_code_digest, run_key, Digest, Store};
use mosaic_gpusim::{alone_config, run_workload, RunConfig, RunResult};
use mosaic_telemetry::{run_begin_jsonl, Eta, Event, TraceSession};
use mosaic_workloads::Workload;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::io::{self, Write};
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
    /// interrupted campaign keeps every run it completed. Not used while
    /// tracing.
    pub cache: Option<Store>,
    /// Trace destination. While set, each run this sweep simulates
    /// records its events here; runs the memo serves are not recorded
    /// again.
    pub trace: Option<Trace>,
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

/// The JSONL trace of a [`Sweep`]: one `run_begin` line per simulated
/// run, then that run's events in emission order, written as the sweep
/// hands each run over in submission order.
#[derive(Debug)]
pub struct Trace(Mutex<Writer>);

/// A [`Trace`]'s destination, what it has written and its first write
/// error, after which nothing more is written.
#[derive(Debug)]
struct Writer {
    out: Box<dyn Out>,
    runs: usize,
    events: usize,
    error: Option<io::Error>,
}

/// A trace destination (a file, a `Vec<u8>`) that can be downcast back.
trait Out: Write + Send + Debug + Any {}
impl<W: Write + Send + Debug + Any> Out for W {}

impl Trace {
    /// A trace written to `out`.
    pub fn new(out: impl Write + Send + Debug + 'static) -> Self {
        Trace(Mutex::new(Writer { out: Box::new(out), runs: 0, events: 0, error: None }))
    }

    /// Flushes the destination and returns the counts of runs and events
    /// written with the destination itself (downcast it to read a
    /// `Vec<u8>` back), or the first write error.
    pub fn finish(self) -> io::Result<(usize, usize, Box<dyn Any>)> {
        let mut w = self.0.into_inner().expect("trace writer poisoned");
        match w.error.take() {
            Some(e) => Err(e),
            None => w.out.flush().map(|()| (w.runs, w.events, w.out as Box<dyn Any>)),
        }
    }

    /// Writes one run's `run_begin` line and events.
    fn write(&self, workload: &str, manager: &str, events: &[Event]) {
        let mut w = self.0.lock().expect("trace writer poisoned");
        (w.runs, w.events) = (w.runs + 1, w.events + events.len());
        if w.error.is_none() {
            let out = &mut w.out;
            let put = writeln!(out, "{}", run_begin_jsonl(workload, manager))
                .and_then(|()| events.iter().try_for_each(|ev| writeln!(out, "{}", ev.to_jsonl())));
            w.error = put.err();
        }
    }
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

    /// Runs one simulation inline, without a progress line: the serial
    /// counterpart of [`Sweep::run_workloads`].
    pub fn run_workload_cached(&self, workload: &Workload, cfg: RunConfig) -> RunResult {
        self.resolve(vec![(workload.clone(), cfg)], false).remove(0)
    }

    /// Runs a list of `(workload, config)` simulation jobs on
    /// [`Sweep::jobs`] workers, returning the results in submission order
    /// (progress label `workload [manager]`). Equal run keys collapse
    /// before dispatch, keys seen before are served from the memo, and
    /// each other key goes through the store or is simulated.
    pub fn run_workloads(&self, jobs: Vec<(Workload, RunConfig)>) -> Vec<RunResult> {
        self.resolve(jobs, true)
    }

    /// One task per distinct key the memo lacks (labelled when `progress`
    /// is set), then every job's result.
    fn resolve(&self, jobs: Vec<(Workload, RunConfig)>, progress: bool) -> Vec<RunResult> {
        let keys: Vec<Digest> = jobs.iter().map(|(w, cfg)| self.key(w, cfg)).collect();
        let store = self.store();
        let traced = self.trace.is_some();
        let tasks: Vec<_> = {
            let runs = self.memo.runs.lock().expect("memo poisoned");
            let mut fresh = HashSet::new();
            jobs.into_iter()
                .zip(keys.iter().copied())
                .filter(|&(_, key)| !runs.contains_key(&key) && fresh.insert(key))
                .map(|((w, cfg), key)| {
                    let label = if progress { label(&w, &cfg) } else { String::new() };
                    let task = move || {
                        let session = traced.then(TraceSession::start);
                        let result = simulate(store, key, &w, cfg);
                        (key, result, session.map(|s| (w.name, cfg.manager_label(), s.finish())))
                    };
                    (label, task)
                })
                .collect()
        };
        self.memo.served.fetch_add((keys.len() - tasks.len()) as u64, Ordering::Relaxed);
        let mut fresh = Vec::with_capacity(tasks.len());
        run_ordered(self.jobs, tasks, |(key, result, events)| {
            if let (Some(trace), Some((workload, manager, events))) = (&self.trace, events) {
                trace.write(&workload, manager, &events);
            }
            fresh.push((key, result));
        });
        let mut runs = self.memo.runs.lock().expect("memo poisoned");
        runs.extend(fresh);
        keys.iter().map(|key| runs[key].clone()).collect()
    }

    /// The alone baselines of each `(workload, config)` in `runs`, one
    /// result per application under [`alone_config`]: the `IPC_alone`
    /// runs [`mosaic_gpusim::weighted_speedup`] folds a shared run
    /// against. The memo collapses the repeats.
    pub fn alone_baselines(&self, runs: &[(Workload, RunConfig)]) -> Vec<Vec<RunResult>> {
        let jobs = runs
            .iter()
            .flat_map(|(w, cfg)| {
                w.apps.iter().enumerate().map(|(i, &app)| {
                    let solo = Workload { name: app.name.to_string(), apps: vec![app] };
                    (solo, alone_config(*cfg, w.app_count(), i))
                })
            })
            .collect();
        let mut results = self.run_workloads(jobs).into_iter();
        runs.iter().map(|(w, _)| results.by_ref().take(w.app_count()).collect()).collect()
    }
}

/// The progress label of one job: `workload [manager]`.
fn label(workload: &Workload, cfg: &RunConfig) -> String {
    format!("{} [{}]", workload.name, cfg.manager_label())
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

/// Runs every `(label, task)` on up to `jobs` scoped worker threads and
/// hands each result to `emit` in submission order, as soon as every
/// earlier one has been handed over, whatever order the workers finished
/// in. Prints one `[sweep i/n] label (time)` progress line per completed
/// job on stderr (stdout stays clean for report text; empty labels stay
/// silent).
///
/// Tasks must be independent. With one worker (or at most one task)
/// everything runs inline on the caller's thread — the serial reference
/// the parallel path must be byte-identical to.
fn run_ordered<T, F>(jobs: usize, tasks: Vec<(String, F)>, emit: impl FnMut(T) + Send)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let total = tasks.len();
    let progress = Progress::new(total);
    let run = |(label, task): (String, F)| {
        let t0 = std::time::Instant::now();
        let out = task();
        progress.report(&label, t0);
        out
    };
    if jobs <= 1 || total <= 1 {
        return tasks.into_iter().map(run).for_each(emit);
    }

    // Work queue: each worker takes the next un-started task. A result
    // lands in its submission slot, and the filled slots from the cursor
    // on go to `emit`; a result that finished early waits in its slot.
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    let done = Mutex::new((0, slots, emit));
    std::thread::scope(|s| {
        for _ in 0..jobs.min(total) {
            s.spawn(|| loop {
                let Some((index, task)) = queue.lock().expect("sweep queue poisoned").next() else {
                    break;
                };
                let out = run(task);
                let mut done = done.lock().expect("sweep results poisoned");
                let (next, slots, emit) = &mut *done;
                slots[index] = Some(out);
                while let Some(out) = slots.get_mut(*next).and_then(Option::take) {
                    emit(out);
                    *next += 1;
                }
            });
        }
    });
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
    use crate::goldens::rendered_trace;
    use mosaic_gpusim::{run_alone_baselines, weighted_speedup, ManagerKind, Topology};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicBool;

    /// A fresh, empty store directory for the test `name`.
    fn store_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mosaic-sweep-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A destination that refuses every write.
    #[derive(Debug)]
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "destination full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_write_error_is_kept_for_finish() {
        let sweep = Sweep { trace: Some(Trace::new(Full)), ..Sweep::new(Scope::Smoke) };
        let cfg = Scope::Smoke.config(ManagerKind::GpuMmu4K);
        let result = sweep.run_workloads(vec![(Workload::from_names(&["MM"]), cfg)]);
        assert_eq!(result.len(), 1, "the sweep still returns its results");
        let err = sweep.trace.expect("traced").finish().expect_err("the write error surfaces");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
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

        // Traced, each distinct key is simulated and recorded once; the
        // memo serves the repeat and the store is neither read nor written.
        let traced = Sweep { trace: Some(Trace::new(Vec::new())), ..cached(2, &dir) };
        let results = traced.run_workloads(batch.clone());
        let st = traced.cache.as_ref().expect("cached").stats();
        assert_eq!((st.hits, st.misses, st.stores), (0, 0, 0), "traced batches bypass the store");
        assert_eq!(traced.memo.served(), 1, "the memo serves the in-batch repeat");
        assert_eq!(results, first);
        let text = rendered_trace(traced);
        let runs: Vec<_> = text.lines().filter(|l| l.contains("\"run_begin\"")).collect();
        assert_eq!(
            runs,
            [
                run_begin_jsonl("MM", "GPU-MMU"),
                run_begin_jsonl("GUPS", "GPU-MMU"),
                run_begin_jsonl("MM", "Ideal TLB"),
            ]
        );
        assert!(text.lines().count() > 3, "each run records its events");
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
        // Traced, the memo collapses them the same way.
        let traced = Sweep { trace: Some(Trace::new(Vec::new())), ..Sweep::new(Scope::Smoke) };
        assert_eq!(traced.alone_baselines(&runs), alone);
        assert_eq!(rendered_trace(traced).matches("\"run_begin\"").count(), 5);
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

    /// What [`run_ordered`] emits, in emission order.
    fn ordered<T: Send, F: FnOnce() -> T + Send>(jobs: usize, tasks: Vec<(String, F)>) -> Vec<T> {
        let mut out = Vec::new();
        run_ordered(jobs, tasks, |t| out.push(t));
        out
    }

    #[test]
    fn a_result_is_emitted_once_every_earlier_one_is() {
        // Job 1 finishes while job 0 still runs and waits for it; job 2
        // is still running when job 0 goes out. Each wait gives up after
        // 10 s, so a pool that held results back fails instead of hanging.
        let (one_done, zero_out) = (AtomicBool::new(false), AtomicBool::new(false));
        let wait_for = |flag: &AtomicBool| {
            let t0 = std::time::Instant::now();
            while !flag.load(Ordering::SeqCst) && t0.elapsed().as_secs() < 10 {
                std::thread::yield_now();
            }
            flag.load(Ordering::SeqCst)
        };
        let tasks: Vec<Box<dyn FnOnce() -> (usize, bool) + Send + '_>> = vec![
            Box::new(|| (0, wait_for(&one_done))),
            Box::new(|| (1, !one_done.swap(true, Ordering::SeqCst))),
            Box::new(|| (2, wait_for(&zero_out))),
        ];
        let mut emitted = Vec::new();
        run_ordered(2, unlabeled(tasks), |(i, ok)| {
            zero_out.store(true, Ordering::SeqCst);
            emitted.push((i, ok));
        });
        assert_eq!(emitted, [(0, true), (1, true), (2, true)]);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        // Jobs finishing in reverse submission order must still collect in
        // submission order.
        let out = ordered(
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
        assert_eq!(ordered(1, tasks()), ordered(8, tasks()));
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = ordered(
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
        assert_eq!(ordered(0, unlabeled((0..3usize).map(|i| move || i))), vec![0, 1, 2]);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out: Vec<usize> = ordered(4, Vec::<(String, fn() -> usize)>::new());
        assert!(out.is_empty());
    }
}
