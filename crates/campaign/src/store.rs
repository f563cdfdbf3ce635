//! Disk-backed content-addressed store of completed simulation runs.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/objects/<key-hex32>.entry   one run result per file
//! ```
//!
//! An entry is one flat JSON object per line, read and written by the
//! trace's own codec (`mosaic_telemetry::json`): the entry's format, key,
//! code digest and wall time; a header with the run-level, `SystemStats`
//! and `ManagerStats` fields; one object per app; and last the FNV-1a of
//! all the lines before it. Run results carry `f64` values, written
//! `{:?}` so they read back bit-exactly (traces stay integer-only).
//!
//! Entries are written atomically (temp file + rename within the objects
//! directory), so a crash mid-write can never leave a half-entry under a
//! valid key. Loads are corruption-tolerant: any mismatch — a checksum
//! that does not hold (a truncated or bit-rotted file), an entry written
//! by a different format version, a key or code digest that is not the
//! expected one, a missing or mistyped field — is treated as a cache
//! miss, never an error and never a wrong result. `campaign status`
//! reads the objects themselves, through [`Store::peek`].

use crate::digest::{run_key, Digest};
use mosaic_gpusim::{AppResult, RunConfig, RunResult};
use mosaic_sim_core::fnv1a;
use mosaic_telemetry::json::{parse_object, write_object, Value};
use mosaic_telemetry::StallBucket;
use mosaic_workloads::Workload;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Entry format version; bump on any layout change. Participates in the
/// cache key, so a version bump invalidates every existing entry.
pub const ENTRY_VERSION: &str = "mosaic-campaign entry v3";

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
    stats: Mutex<StoreStats>,
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
        Ok(Store { root, code, stats: Mutex::default() })
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
        let hit = self.peek(key);
        self.count(|st| match &hit {
            Some(hit) => {
                st.hits += 1;
                st.saved_ms += hit.wall_ms;
            }
            None => st.misses += 1,
        });
        hit
    }

    /// Looks up a key without touching the hit/miss counters (used by
    /// `campaign status`, which must not skew run accounting).
    pub fn peek(&self, key: Digest) -> Option<CachedRun> {
        let text = fs::read_to_string(self.object_path(key)).ok()?;
        read_entry(&text, key, self.code)
    }

    /// Stores one result under `key`. Write failures are reported on
    /// stderr and counted, but never abort the campaign — the result is
    /// already in memory; losing the cache copy only costs a future
    /// re-run.
    pub fn insert(&self, key: Digest, result: &RunResult, wall_ms: u64) {
        match self.try_insert(key, result, wall_ms) {
            Ok(()) => self.count(|st| st.stores += 1),
            Err(e) => {
                self.count(|st| st.failures += 1);
                eprintln!("[campaign] warning: failed to store {key}: {e}");
            }
        }
    }

    fn try_insert(&self, key: Digest, result: &RunResult, wall_ms: u64) -> std::io::Result<()> {
        let rendered = entry_text(key, self.code, result, wall_ms);
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
        fs::rename(&tmp_path, &final_path)
    }

    fn count(&self, update: impl FnOnce(&mut StoreStats)) {
        update(&mut self.stats.lock().expect("store counters poisoned"));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock().expect("store counters poisoned")
    }
}

/// One `RunResult` field, borrowed by its type, to be written as a
/// flat-object [`Value`] or read back from one (an `f64` bit-exactly,
/// through [`Value::float`]: the cache-hit ≡ recompute contract).
enum Slot<'a> {
    Str(&'a mut String),
    U16(&'a mut u16),
    Num(&'a mut u64),
    F64(&'a mut f64),
}

impl Slot<'_> {
    fn value(&self) -> Value {
        match self {
            Slot::Str(s) => Value::Str(s.to_string()),
            Slot::U16(n) => Value::Num(u64::from(**n)),
            Slot::Num(n) => Value::Num(**n),
            Slot::F64(x) => Value::float(**x),
        }
    }

    /// Takes `value` if it has the field's type.
    fn set(self, value: Value) -> Option<()> {
        match (self, value) {
            (Slot::Str(s), Value::Str(v)) => *s = v,
            (Slot::U16(n), Value::Num(v)) => *n = v.try_into().ok()?,
            (Slot::Num(n), Value::Num(v)) => *n = v,
            (Slot::F64(x), v) => *x = v.as_f64()?,
            _ => return None,
        }
        Some(())
    }
}

/// Names each field once: each `Type owner => field, ...;` row becomes
/// `(key, Slot::Type(&mut owner.field))` pairs keyed by the field's name.
macro_rules! fields {
    ($($slot:ident $owner:expr => $($field:ident),+);+ $(;)?) => {
        [$($((stringify!($field), Slot::$slot(&mut $owner.$field))),+),+]
    };
}

/// The header object's keys: the run-level fields, then every
/// `SystemStats` and `ManagerStats` field. With [`app_fields`] the one
/// list of a result's keys: [`run_to_objects`] writes them and
/// [`run_from_objects`] reads them back in this order.
fn run_fields(r: &mut RunResult) -> [(&'static str, Slot<'_>); 36] {
    fields! {
        Str r => workload, manager;
        Num r => total_cycles;
        Num r.stats => l1_tlb_hits, l1_tlb_total, l2_tlb_hits, l2_tlb_total, walks, iobus_transfers,
            iobus_bytes, iobus_queue_max, iobus_service_max, refaults, footprint_bytes,
            app_footprint_bytes, touched_bytes, remote_accesses, interconnect_bytes,
            fleet_migrations, fleet_replications, fleet_copy_bytes;
        F64 r.stats => walk_latency_mean, l1_cache_hit_rate, l2_cache_hit_rate, dram_row_hit_rate,
            iobus_queue_mean, iobus_service_mean, memory_bloat;
        Num r.stats.manager => far_faults, transferred_bytes, coalesces, splinters, migrations,
            emergency_allocations, evictions, writeback_bytes;
    }
}

/// An app object's keys before its `stall.<label>` ones (one per
/// [`StallBucket::ALL`] entry, in that order).
fn app_fields(a: &mut AppResult) -> [(&'static str, Slot<'_>); 6] {
    fields! {
        Str a => name;
        U16 a => asid;
        Num a => instructions, cycles;
        F64 a => ipc;
        Num a => stall_cycles;
    }
}

/// The key of one stall bucket's cycles in an app object.
fn stall_key(bucket: StallBucket) -> String {
    format!("stall.{}", bucket.label())
}

/// A flat object: keys and values in order.
type Object = Vec<(String, Value)>;

/// `fields` as key/value pairs.
fn to_pairs<'a>(fields: impl IntoIterator<Item = (&'static str, Slot<'a>)>) -> Object {
    fields.into_iter().map(|(key, field)| (key.to_string(), field.value())).collect()
}

/// Reads `fields` off the front of `pairs`, each under its own key.
fn read_fields<'a>(
    pairs: &mut impl Iterator<Item = (String, Value)>,
    fields: impl IntoIterator<Item = (&'static str, Slot<'a>)>,
) -> Option<()> {
    fields.into_iter().try_for_each(|(key, field)| {
        let (got, value) = pairs.next()?;
        (got == key).then_some(())?;
        field.set(value)
    })
}

/// `result` as flat objects: a header (see [`run_fields`]), then one
/// object per app.
fn run_to_objects(result: &RunResult) -> Vec<Object> {
    let mut r = result.clone();
    let mut objects = vec![to_pairs(run_fields(&mut r))];
    for app in &mut r.apps {
        let mut object = to_pairs(app_fields(app));
        object.extend(app.stall.iter().map(|(b, cycles)| (stall_key(b), Value::Num(cycles))));
        objects.push(object);
    }
    objects
}

/// The inverse of [`run_to_objects`]: `None` unless every object carries
/// exactly its keys, in order, each with a value of its field's type.
fn run_from_objects(objects: impl IntoIterator<Item = Object>) -> Option<RunResult> {
    let mut objects = objects.into_iter();
    let mut r = RunResult::default();
    let mut header = objects.next()?.into_iter();
    read_fields(&mut header, run_fields(&mut r))?;
    header.next().is_none().then_some(())?;
    for object in objects {
        let mut pairs = object.into_iter();
        let mut app = AppResult::default();
        read_fields(&mut pairs, app_fields(&mut app))?;
        for bucket in StallBucket::ALL {
            let (key, Value::Num(cycles)) = pairs.next()? else { return None };
            (key == stall_key(bucket)).then_some(())?;
            app.stall.add(bucket, cycles);
        }
        pairs.next().is_none().then_some(())?;
        r.apps.push(app);
    }
    Some(r)
}

/// An entry's first object: its format, key, code digest and wall time.
fn head(key: Digest, code: Digest, wall_ms: u64) -> Object {
    let pairs = [
        ("format", Value::Str(ENTRY_VERSION.into())),
        ("key", Value::Str(key.to_string())),
        ("code", Value::Str(code.to_string())),
        ("wall_ms", Value::Num(wall_ms)),
    ];
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// One entry's text, one flat object per line: its [`head`], then
/// [`run_to_objects`]'s, and last [`checksum_line`] of everything before.
fn entry_text(key: Digest, code: Digest, result: &RunResult, wall_ms: u64) -> String {
    let objects = [head(key, code, wall_ms)].into_iter().chain(run_to_objects(result));
    let body: String =
        objects.map(|o| write_object(o.iter().map(|(k, v)| (k, v))) + "\n").collect();
    let sum = checksum_line(&body);
    body + &sum + "\n"
}

/// The last line of an entry whose other lines are `body`: their FNV-1a,
/// so that any changed byte makes the entry a miss.
fn checksum_line(body: &str) -> String {
    let sum = Value::Str(format!("{:016x}", fnv1a(body.as_bytes())));
    write_object([("fnv1a", &sum)])
}

/// Reads an entry back: `None` (a miss) unless its checksum holds, its
/// first object names this format, `expect_key` and `expect_code`, and
/// the rest are a run result's.
fn read_entry(text: &str, expect_key: Digest, expect_code: Digest) -> Option<CachedRun> {
    let lines = text.strip_suffix('\n')?;
    let (body, sum) = lines.split_at(lines.rfind('\n')? + 1);
    (sum == checksum_line(body)).then_some(())?;
    let mut objects = body.lines().map(parse_object);
    let first = objects.next()?.ok()?;
    let Some((_, Value::Num(wall_ms))) = first.last() else { return None };
    (first == head(expect_key, expect_code, *wall_ms)).then_some(())?;
    let result = run_from_objects(objects.collect::<Result<Vec<_>, _>>().ok()?)?;
    Some(CachedRun { result, wall_ms: *wall_ms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_core::ManagerStats;
    use mosaic_gpusim::SystemStats;
    use mosaic_telemetry::StallBreakdown;

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
            // Every field set, each to its own value, and no `..`: a field
            // the codec leaves out fails the round trip, and a new one
            // stops this from compiling until it is added here too.
            stats: SystemStats {
                l1_tlb_hits: 7,
                l1_tlb_total: 10,
                l2_tlb_hits: 3,
                l2_tlb_total: 5,
                walks: 11,
                walk_latency_mean: 0.1 + 0.2, // deliberately non-representable
                l1_cache_hit_rate: 0.75,
                l2_cache_hit_rate: 0.5,
                dram_row_hit_rate: 0.25,
                iobus_transfers: 12,
                iobus_bytes: 13,
                iobus_queue_mean: 1.5,
                iobus_queue_max: 14,
                iobus_service_mean: 2.5,
                iobus_service_max: 15,
                refaults: 16,
                manager: ManagerStats {
                    far_faults: 17,
                    transferred_bytes: 18,
                    coalesces: 19,
                    splinters: 20,
                    migrations: 21,
                    emergency_allocations: 22,
                    evictions: 23,
                    writeback_bytes: 24,
                },
                footprint_bytes: 25,
                app_footprint_bytes: 26,
                touched_bytes: 27,
                memory_bloat: -1.0 / 3.0,
                remote_accesses: 28,
                interconnect_bytes: 29,
                fleet_migrations: 30,
                fleet_replications: 31,
                fleet_copy_bytes: 32,
            },
            total_cycles: 3000,
        }
    }

    #[test]
    fn entry_round_trips_bit_identically() {
        let key = Digest(1);
        let code = Digest(2);
        let r = sample_result();
        let text = entry_text(key, code, &r, 42);
        let hit = read_entry(&text, key, code).expect("round trip");
        assert_eq!(hit.wall_ms, 42);
        assert_eq!(hit.result, r);
        assert_eq!(hit.result.apps[0].ipc.to_bits(), r.apps[0].ipc.to_bits());
        assert_eq!(
            hit.result.stats.walk_latency_mean.to_bits(),
            r.stats.walk_latency_mean.to_bits()
        );
    }

    /// The layout: the entry's own fields, a header, one object per app
    /// and the checksum, one flat object per line.
    #[test]
    fn entry_lines_are_flat_objects() {
        let text = entry_text(Digest(1), Digest(2), &sample_result(), 42);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            format!(
                r#"{{"format":"{ENTRY_VERSION}","key":"{}","code":"{}","wall_ms":42}}"#,
                Digest(1),
                Digest(2)
            )
        );
        assert!(lines[1].starts_with(
            r#"{"workload":"MM+GUPS","manager":"Mosaic","total_cycles":3000,"l1_tlb_hits":7,"#
        ));
        assert!(lines[1].contains(r#""walk_latency_mean":0.30000000000000004,"#));
        assert!(lines[2].starts_with(
            r#"{"name":"MM","asid":0,"instructions":1000,"cycles":2500,"ipc":0.4,"stall_cycles":579,"stall.tlb-hit":0,"#
        ));
        assert_eq!(lines[4], checksum_line(&text[..text.len() - lines[4].len() - 1]));
        for line in &lines {
            assert!(parse_object(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn wrong_key_or_code_is_a_miss() {
        let key = Digest(1);
        let code = Digest(2);
        let text = entry_text(key, code, &sample_result(), 1);
        assert!(read_entry(&text, Digest(3), code).is_none());
        assert!(read_entry(&text, key, Digest(3)).is_none());
    }

    /// Re-checksums an edited body, so the reader's own checks are tested.
    fn resealed(text: &str) -> String {
        let body: String = text
            .lines()
            .take_while(|l| !l.starts_with(r#"{"fnv1a""#))
            .map(|l| format!("{l}\n"))
            .collect();
        format!("{body}{}\n", checksum_line(&body))
    }

    #[test]
    fn truncated_or_mangled_entries_are_misses() {
        let key = Digest(1);
        let code = Digest(2);
        let text = entry_text(key, code, &sample_result(), 1);
        assert_eq!(resealed(&text), text);
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            assert!(read_entry(&text[..cut], key, code).is_none(), "cut at {cut}");
        }
        // Well-sealed entries whose objects are not a run result's.
        for (from, to) in [
            (r#""total_cycles":3000"#, r#""total_cycles":"x""#),
            (r#""total_cycles":3000"#, r#""total_cycles":3000.0"#),
            (r#""ipc":0.4"#, r#""ipc":4"#),
            (r#""asid":1"#, r#""asid":65536"#),
            (r#""walks":11,"#, ""),
            (r#""stall.tlb-hit":0,"#, r#""stall.tlb-hit":0,"stall.tlb-hit":0,"#),
            (r#"{"name":"GUPS""#, r#"{"extra":1,"name":"GUPS""#),
            (r#""wall_ms":1"#, r#""wall_ms":1,"x":1"#),
            ("mosaic-campaign entry", "mosaic-campaign entry v0"),
        ] {
            let mangled = resealed(&text.replacen(from, to, 1));
            assert_ne!(mangled, text, "{from}");
            assert!(read_entry(&mangled, key, code).is_none(), "{from} -> {to}");
        }
        // Dropping an app is a different result, not a malformed one: the
        // checksum is what catches it.
        let lines: Vec<&str> = text.lines().collect();
        let short = [lines[0], lines[1], lines[2], lines[4], ""].join("\n");
        assert!(read_entry(&short, key, code).is_none());
    }
}
