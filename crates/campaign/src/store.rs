//! Disk-backed content-addressed store of completed simulation runs.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/objects/<key-hex32>.entry   one run result per file
//! <root>/index.tsv                   append-only human-greppable index
//! ```
//!
//! Entries are written atomically (temp file + rename within the objects
//! directory), so a crash mid-write can never leave a half-entry under a
//! valid key. Loads are corruption-tolerant: any parse mismatch — a
//! truncated file, an entry written by a different format version, a key
//! that does not round-trip — is treated as a cache miss, never an error.
//! The index is a log for people: nothing in the program reads it, so a
//! damaged or missing index changes no lookup (`campaign status` reads
//! the objects themselves, through [`Store::peek`]).

use crate::digest::{run_key, Digest};
use mosaic_core::ManagerStats;
use mosaic_gpusim::{AppResult, RunConfig, RunResult, SystemStats};
use mosaic_telemetry::{StallBreakdown, StallBucket};
use mosaic_workloads::Workload;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry format version; bump on any layout change. Participates in the
/// cache key, so a version bump invalidates every existing entry.
pub const ENTRY_VERSION: &str = "mosaic-campaign entry v2";

/// The workspace code digest this binary was built from, as computed by
/// `build.rs` over every workspace `.rs` file plus `Cargo.lock`.
pub fn built_code_digest() -> Digest {
    Digest::from_hex(env!("MOSAIC_CODE_DIGEST")).expect("build.rs emits 32 hex chars")
}

/// A cache hit: the stored result plus the wall time the original
/// computation took (used for time-saved accounting).
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The deserialized run result, bit-identical to the stored one.
    pub result: RunResult,
    /// Milliseconds the original (cold) simulation took.
    pub wall_ms: u64,
}

/// Hit/miss/store counters of one [`Store`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that returned a stored result.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Failed writes (warned, never fatal).
    pub failures: u64,
    /// Sum of original wall times of all hits — simulation time skipped.
    pub saved_ms: u64,
}

/// A persistent content-addressed run cache rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    code: Digest,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    failures: AtomicU64,
    saved_ms: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`, keyed under
    /// this binary's workspace code digest.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_with_code_digest(dir, built_code_digest())
    }

    /// Opens a store under an explicit code digest. Exists for tests
    /// that need to simulate a source change without rebuilding.
    pub fn open_with_code_digest(dir: impl Into<PathBuf>, code: Digest) -> std::io::Result<Self> {
        let root = dir.into();
        fs::create_dir_all(root.join("objects"))?;
        Ok(Store {
            root,
            code,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            saved_ms: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The code digest entries are keyed under.
    pub fn code_digest(&self) -> Digest {
        self.code
    }

    /// Cache key of one `(workload, config)` run under this store's code
    /// digest.
    pub fn run_key(&self, workload: &Workload, cfg: &RunConfig) -> Digest {
        run_key(workload, cfg, self.code)
    }

    fn object_path(&self, key: Digest) -> PathBuf {
        self.root.join("objects").join(format!("{key}.entry"))
    }

    /// Looks up a key, counting the outcome toward [`Store::stats`].
    pub fn lookup(&self, key: Digest) -> Option<CachedRun> {
        match self.peek(key) {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::SeqCst);
                self.saved_ms.fetch_add(hit.wall_ms, Ordering::SeqCst);
                Some(hit)
            }
            None => {
                self.misses.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
    }

    /// Looks up a key without touching the hit/miss counters (used by
    /// `campaign status`, which must not skew run accounting).
    pub fn peek(&self, key: Digest) -> Option<CachedRun> {
        let text = fs::read_to_string(self.object_path(key)).ok()?;
        parse_entry(&text, key, self.code)
    }

    /// Stores one result under `key`. Write failures are reported on
    /// stderr and counted, but never abort the campaign — the result is
    /// already in memory; losing the cache copy only costs a future
    /// re-run.
    pub fn insert(&self, key: Digest, result: &RunResult, wall_ms: u64) {
        match self.try_insert(key, result, wall_ms) {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => {
                self.failures.fetch_add(1, Ordering::SeqCst);
                eprintln!("[campaign] warning: failed to store {key}: {e}");
            }
        }
    }

    fn try_insert(&self, key: Digest, result: &RunResult, wall_ms: u64) -> std::io::Result<()> {
        let rendered = render_entry(key, self.code, result, wall_ms);
        let final_path = self.object_path(key);
        // Unique temp name per (key, thread) so concurrent workers never
        // clobber each other's in-flight writes; the rename is atomic.
        let tmp_path =
            self.root.join("objects").join(format!(".{key}.{:?}.tmp", std::thread::current().id()));
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(rendered.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;

        let mut line = String::new();
        let _ = writeln!(
            line,
            "{key}\t{}\t{wall_ms}\t{}\t{}",
            self.code, result.workload, result.manager
        );
        let mut index = fs::OpenOptions::new().create(true).append(true).open(self.index_path())?;
        index.write_all(line.as_bytes())?;
        Ok(())
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index.tsv")
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            stores: self.stores.load(Ordering::SeqCst),
            failures: self.failures.load(Ordering::SeqCst),
            saved_ms: self.saved_ms.load(Ordering::SeqCst),
        }
    }
}

/// Renders one entry in the strict fixed-order `key=value` text format.
///
/// Floats use the `{:?}` rendering, which Rust guarantees to be the
/// shortest string that parses back to the exact same bits — the property
/// the cache-hit ≡ recompute contract rests on.
fn render_entry(key: Digest, code: Digest, result: &RunResult, wall_ms: u64) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{ENTRY_VERSION}");
    let _ = writeln!(s, "key={key}");
    let _ = writeln!(s, "code={code}");
    let _ = writeln!(s, "wall_ms={wall_ms}");
    let _ = writeln!(s, "workload={}", result.workload);
    let _ = writeln!(s, "manager={}", result.manager);
    let _ = writeln!(s, "total_cycles={}", result.total_cycles);
    let _ = writeln!(s, "apps={}", result.apps.len());
    for app in &result.apps {
        let _ = writeln!(s, "app={}", app.name);
        let _ = writeln!(s, "asid={}", app.asid);
        let _ = writeln!(s, "instructions={}", app.instructions);
        let _ = writeln!(s, "cycles={}", app.cycles);
        let _ = writeln!(s, "ipc={:?}", app.ipc);
        let _ = writeln!(s, "stall_cycles={}", app.stall_cycles);
        let stall: Vec<String> =
            app.stall.iter().map(|(b, c)| format!("{}:{c}", b.label())).collect();
        let _ = writeln!(s, "stall={}", stall.join(","));
    }
    let st = &result.stats;
    let _ = writeln!(s, "l1_tlb_hits={}", st.l1_tlb_hits);
    let _ = writeln!(s, "l1_tlb_total={}", st.l1_tlb_total);
    let _ = writeln!(s, "l2_tlb_hits={}", st.l2_tlb_hits);
    let _ = writeln!(s, "l2_tlb_total={}", st.l2_tlb_total);
    let _ = writeln!(s, "walks={}", st.walks);
    let _ = writeln!(s, "walk_latency_mean={:?}", st.walk_latency_mean);
    let _ = writeln!(s, "l1_cache_hit_rate={:?}", st.l1_cache_hit_rate);
    let _ = writeln!(s, "l2_cache_hit_rate={:?}", st.l2_cache_hit_rate);
    let _ = writeln!(s, "dram_row_hit_rate={:?}", st.dram_row_hit_rate);
    let _ = writeln!(s, "iobus_transfers={}", st.iobus_transfers);
    let _ = writeln!(s, "iobus_bytes={}", st.iobus_bytes);
    let _ = writeln!(s, "iobus_queue_mean={:?}", st.iobus_queue_mean);
    let _ = writeln!(s, "iobus_queue_max={}", st.iobus_queue_max);
    let _ = writeln!(s, "iobus_service_mean={:?}", st.iobus_service_mean);
    let _ = writeln!(s, "iobus_service_max={}", st.iobus_service_max);
    let _ = writeln!(s, "refaults={}", st.refaults);
    let _ = writeln!(s, "far_faults={}", st.manager.far_faults);
    let _ = writeln!(s, "transferred_bytes={}", st.manager.transferred_bytes);
    let _ = writeln!(s, "coalesces={}", st.manager.coalesces);
    let _ = writeln!(s, "splinters={}", st.manager.splinters);
    let _ = writeln!(s, "migrations={}", st.manager.migrations);
    let _ = writeln!(s, "emergency_allocations={}", st.manager.emergency_allocations);
    let _ = writeln!(s, "evictions={}", st.manager.evictions);
    let _ = writeln!(s, "writeback_bytes={}", st.manager.writeback_bytes);
    let _ = writeln!(s, "footprint_bytes={}", st.footprint_bytes);
    let _ = writeln!(s, "app_footprint_bytes={}", st.app_footprint_bytes);
    let _ = writeln!(s, "touched_bytes={}", st.touched_bytes);
    let _ = writeln!(s, "memory_bloat={:?}", st.memory_bloat);
    let _ = writeln!(s, "remote_accesses={}", st.remote_accesses);
    let _ = writeln!(s, "interconnect_bytes={}", st.interconnect_bytes);
    let _ = writeln!(s, "fleet_migrations={}", st.fleet_migrations);
    let _ = writeln!(s, "fleet_replications={}", st.fleet_replications);
    let _ = writeln!(s, "fleet_copy_bytes={}", st.fleet_copy_bytes);
    let _ = writeln!(s, "end");
    s
}

/// A strict line cursor over the fixed-order entry format. Any deviation
/// (missing field, wrong name, unparsable value) turns the whole entry
/// into a miss via `Option` propagation.
struct Cursor<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Cursor<'a> {
    fn field(&mut self, name: &str) -> Option<&'a str> {
        let line = self.lines.next()?;
        let (n, v) = line.split_once('=')?;
        if n == name {
            Some(v)
        } else {
            None
        }
    }

    fn u64(&mut self, name: &str) -> Option<u64> {
        self.field(name)?.parse().ok()
    }

    fn f64(&mut self, name: &str) -> Option<f64> {
        self.field(name)?.parse().ok()
    }
}

/// Parses an entry, validating the format version, the self-recorded key
/// against the file's expected key, and the code digest. Returns `None`
/// (a miss) on any mismatch.
fn parse_entry(text: &str, expect_key: Digest, expect_code: Digest) -> Option<CachedRun> {
    let mut c = Cursor { lines: text.lines() };
    if c.lines.next()? != ENTRY_VERSION {
        return None;
    }
    if Digest::from_hex(c.field("key")?)? != expect_key {
        return None;
    }
    if Digest::from_hex(c.field("code")?)? != expect_code {
        return None;
    }
    let wall_ms = c.u64("wall_ms")?;
    let workload = c.field("workload")?.to_string();
    let manager = c.field("manager")?.to_string();
    let total_cycles = c.u64("total_cycles")?;
    let n_apps = c.u64("apps")?;
    let mut apps = Vec::new();
    for _ in 0..n_apps {
        let name = c.field("app")?.to_string();
        let asid = c.field("asid")?.parse().ok()?;
        let instructions = c.u64("instructions")?;
        let cycles = c.u64("cycles")?;
        let ipc = c.f64("ipc")?;
        let stall_cycles = c.u64("stall_cycles")?;
        let stall = parse_stall(c.field("stall")?)?;
        apps.push(AppResult { name, asid, instructions, cycles, ipc, stall_cycles, stall });
    }
    let stats = SystemStats {
        l1_tlb_hits: c.u64("l1_tlb_hits")?,
        l1_tlb_total: c.u64("l1_tlb_total")?,
        l2_tlb_hits: c.u64("l2_tlb_hits")?,
        l2_tlb_total: c.u64("l2_tlb_total")?,
        walks: c.u64("walks")?,
        walk_latency_mean: c.f64("walk_latency_mean")?,
        l1_cache_hit_rate: c.f64("l1_cache_hit_rate")?,
        l2_cache_hit_rate: c.f64("l2_cache_hit_rate")?,
        dram_row_hit_rate: c.f64("dram_row_hit_rate")?,
        iobus_transfers: c.u64("iobus_transfers")?,
        iobus_bytes: c.u64("iobus_bytes")?,
        iobus_queue_mean: c.f64("iobus_queue_mean")?,
        iobus_queue_max: c.u64("iobus_queue_max")?,
        iobus_service_mean: c.f64("iobus_service_mean")?,
        iobus_service_max: c.u64("iobus_service_max")?,
        refaults: c.u64("refaults")?,
        manager: ManagerStats {
            far_faults: c.u64("far_faults")?,
            transferred_bytes: c.u64("transferred_bytes")?,
            coalesces: c.u64("coalesces")?,
            splinters: c.u64("splinters")?,
            migrations: c.u64("migrations")?,
            emergency_allocations: c.u64("emergency_allocations")?,
            evictions: c.u64("evictions")?,
            writeback_bytes: c.u64("writeback_bytes")?,
        },
        footprint_bytes: c.u64("footprint_bytes")?,
        app_footprint_bytes: c.u64("app_footprint_bytes")?,
        touched_bytes: c.u64("touched_bytes")?,
        memory_bloat: c.f64("memory_bloat")?,
        remote_accesses: c.u64("remote_accesses")?,
        interconnect_bytes: c.u64("interconnect_bytes")?,
        fleet_migrations: c.u64("fleet_migrations")?,
        fleet_replications: c.u64("fleet_replications")?,
        fleet_copy_bytes: c.u64("fleet_copy_bytes")?,
    };
    if c.lines.next()? != "end" {
        return None;
    }
    let result = RunResult { workload, manager, apps, stats, total_cycles };
    Some(CachedRun { result, wall_ms })
}

/// Parses the `label:cycles,...` stall rendering, requiring every bucket
/// in [`StallBucket::ALL`] order.
fn parse_stall(s: &str) -> Option<StallBreakdown> {
    let mut bd = StallBreakdown::default();
    let mut parts = s.split(',');
    for bucket in StallBucket::ALL {
        let part = parts.next()?;
        let (label, cycles) = part.split_once(':')?;
        if label != bucket.label() {
            return None;
        }
        bd.add(bucket, cycles.parse().ok()?);
    }
    if parts.next().is_some() {
        return None;
    }
    Some(bd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> RunResult {
        let mut stall = StallBreakdown::default();
        stall.add(StallBucket::TlbWalk, 123);
        stall.add(StallBucket::Compute, 456);
        RunResult {
            workload: "MM+GUPS".to_string(),
            manager: "Mosaic".to_string(),
            apps: vec![
                AppResult {
                    name: "MM".to_string(),
                    asid: 0,
                    instructions: 1000,
                    cycles: 2500,
                    ipc: 0.4,
                    stall_cycles: 579,
                    stall,
                },
                AppResult {
                    name: "GUPS".to_string(),
                    asid: 1,
                    instructions: 800,
                    cycles: 3000,
                    ipc: 800.0 / 3000.0,
                    stall_cycles: 0,
                    stall: StallBreakdown::default(),
                },
            ],
            stats: SystemStats {
                l1_tlb_hits: 7,
                l1_tlb_total: 10,
                walk_latency_mean: 0.1 + 0.2, // deliberately non-representable
                memory_bloat: 1.0 / 3.0,
                ..SystemStats::default()
            },
            total_cycles: 3000,
        }
    }

    #[test]
    fn entry_round_trips_bit_identically() {
        let key = Digest(1);
        let code = Digest(2);
        let r = sample_result();
        let text = render_entry(key, code, &r, 42);
        let hit = parse_entry(&text, key, code).expect("round trip");
        assert_eq!(hit.wall_ms, 42);
        assert_eq!(hit.result, r);
        assert_eq!(hit.result.apps[0].ipc.to_bits(), r.apps[0].ipc.to_bits());
        assert_eq!(
            hit.result.stats.walk_latency_mean.to_bits(),
            r.stats.walk_latency_mean.to_bits()
        );
    }

    #[test]
    fn wrong_key_or_code_is_a_miss() {
        let key = Digest(1);
        let code = Digest(2);
        let text = render_entry(key, code, &sample_result(), 1);
        assert!(parse_entry(&text, Digest(3), code).is_none());
        assert!(parse_entry(&text, key, Digest(3)).is_none());
    }

    #[test]
    fn truncated_or_mangled_entries_are_misses() {
        let key = Digest(1);
        let code = Digest(2);
        let text = render_entry(key, code, &sample_result(), 1);
        for cut in [0, 1, text.len() / 2, text.len() - 2] {
            assert!(parse_entry(&text[..cut], key, code).is_none(), "cut at {cut}");
        }
        let mangled = text.replace("total_cycles=", "total_cycles=x");
        assert!(parse_entry(&mangled, key, code).is_none());
    }
}
