//! The typed event vocabulary and its JSONL encoding.
//!
//! Events are plain `Copy` records — no strings, no heap — so emitting
//! one into a memory sink is a bounded-cost array write and the null-sink
//! path allocates nothing. Run-level metadata that needs strings (the
//! workload and manager names) is written by the trace *writer* as a
//! `run_begin` JSONL line rather than carried inside [`Event`].
//!
//! [`SCHEMA`] is the one description of the trace format: the encoder
//! ([`Event::to_jsonl`]), the reader ([`read_trace`]) and the Chrome
//! export all take the key names from it.

use crate::json::{parse_object, Value};
use std::fmt::Write;

/// One structured simulator event. All cycle fields are absolute
/// simulated cycles; identifiers are the simulator's own (SM index,
/// `AppId`, large-page number).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A kernel phase started on every SM.
    PhaseBegin {
        /// Phase index within the run.
        phase: u32,
        /// Cycle the phase's SMs were released.
        cycle: u64,
    },
    /// A kernel phase finished (all SMs drained).
    PhaseEnd {
        /// Phase index within the run.
        phase: u32,
        /// Cycle the last SM finished.
        cycle: u64,
    },
    /// Periodic whole-GPU metric snapshot.
    Epoch {
        /// Snapshot cycle.
        cycle: u64,
        /// Instructions retired so far (all SMs, current phase set).
        instructions: u64,
        /// Stall cycles accumulated so far (all SMs).
        stall_cycles: u64,
    },
    /// One warp memory instruction, from issue to slowest transaction.
    WarpMem {
        /// Issuing SM index.
        sm: u32,
        /// Address space of the issuing app.
        asid: u16,
        /// Issue cycle.
        issue: u64,
        /// Completion cycle of the slowest transaction.
        done: u64,
        /// Coalesced transactions in the instruction.
        transactions: u32,
    },
    /// A TLB probe at L1 or L2.
    TlbLookup {
        /// TLB level (1 or 2).
        level: u8,
        /// Probing SM index.
        sm: u32,
        /// Address space probed.
        asid: u16,
        /// Probe cycle.
        cycle: u64,
        /// Whether the probe hit.
        hit: bool,
    },
    /// A page-table walk issued by the walker (fresh, not coalesced).
    PageWalk {
        /// Address space walked.
        asid: u16,
        /// Virtual page number walked.
        vpn: u64,
        /// Cycle the walk was requested.
        issue: u64,
        /// Cycle the walk completed.
        done: u64,
    },
    /// A far fault serviced by the manager (demand paging / migration).
    FarFault {
        /// Faulting address space.
        asid: u16,
        /// Faulting virtual page number.
        vpn: u64,
        /// Cycle the fault was raised.
        cycle: u64,
        /// Cycle the fault service completed.
        done: u64,
    },
    /// One DRAM data access (row activate + burst).
    DramAccess {
        /// Cycle the request reached DRAM.
        cycle: u64,
        /// Cycle the data burst completed.
        done: u64,
        /// Pure service cycles (row access + burst), excluding queueing.
        service: u64,
        /// Whether the access hit the open row.
        row_hit: bool,
    },
    /// A page copy executed in DRAM (migration or compaction).
    PageCopy {
        /// Cycle the copy was requested.
        cycle: u64,
        /// Cycle the copy completed.
        done: u64,
        /// Whether the in-DRAM bulk path was used (vs. the narrow
        /// read-modify-write path).
        bulk: bool,
    },
    /// The manager coalesced a large-page region.
    Coalesce {
        /// Owning address space.
        asid: u16,
        /// Coalesced large-page number.
        lpn: u64,
    },
    /// The manager splintered a large-page region.
    Splinter {
        /// Owning address space.
        asid: u16,
        /// Splintered large-page number.
        lpn: u64,
    },
    /// A TLB shootdown was broadcast to every SM.
    Shootdown {
        /// Address space whose mappings were invalidated.
        asid: u16,
        /// Large-page number invalidated.
        lpn: u64,
        /// Cycle the shootdown was raised.
        cycle: u64,
    },
    /// One large frame was evicted under memory pressure.
    PageEvict {
        /// Address space that owned the evicted frame.
        asid: u16,
        /// Large-page number whose translations were torn down.
        lpn: u64,
        /// Base pages unmapped by the eviction.
        pages: u32,
        /// Cycle the eviction was performed.
        cycle: u64,
    },
    /// Dirty evicted pages were written back over the I/O bus.
    PageWriteback {
        /// Bytes written back.
        bytes: u64,
        /// Cycle the write-back was enqueued.
        cycle: u64,
        /// Cycle the transfer completed on the wire.
        done: u64,
    },
}

impl Event {
    /// The event's [`SCHEMA`] tag and its values, in the order of that
    /// row's keys. This match is the only per-variant list of the trace
    /// format; the key names live in [`SCHEMA`] alone.
    fn tagged_values(&self) -> (&'static str, Vec<Value>) {
        use Value::{Bool, Num};
        match *self {
            Event::PhaseBegin { phase, cycle } => {
                ("phase_begin", vec![Num(phase.into()), Num(cycle)])
            }
            Event::PhaseEnd { phase, cycle } => ("phase_end", vec![Num(phase.into()), Num(cycle)]),
            Event::Epoch { cycle, instructions, stall_cycles } => {
                ("epoch", vec![Num(cycle), Num(instructions), Num(stall_cycles)])
            }
            Event::WarpMem { sm, asid, issue, done, transactions } => (
                "warp_mem",
                vec![
                    Num(sm.into()),
                    Num(asid.into()),
                    Num(issue),
                    Num(done),
                    Num(transactions.into()),
                ],
            ),
            Event::TlbLookup { level, sm, asid, cycle, hit } => (
                "tlb_lookup",
                vec![Num(level.into()), Num(sm.into()), Num(asid.into()), Num(cycle), Bool(hit)],
            ),
            Event::PageWalk { asid, vpn, issue, done } => {
                ("page_walk", vec![Num(asid.into()), Num(vpn), Num(issue), Num(done)])
            }
            Event::FarFault { asid, vpn, cycle, done } => {
                ("far_fault", vec![Num(asid.into()), Num(vpn), Num(cycle), Num(done)])
            }
            Event::DramAccess { cycle, done, service, row_hit } => {
                ("dram_access", vec![Num(cycle), Num(done), Num(service), Bool(row_hit)])
            }
            Event::PageCopy { cycle, done, bulk } => {
                ("page_copy", vec![Num(cycle), Num(done), Bool(bulk)])
            }
            Event::Coalesce { asid, lpn } => ("coalesce", vec![Num(asid.into()), Num(lpn)]),
            Event::Splinter { asid, lpn } => ("splinter", vec![Num(asid.into()), Num(lpn)]),
            Event::Shootdown { asid, lpn, cycle } => {
                ("shootdown", vec![Num(asid.into()), Num(lpn), Num(cycle)])
            }
            Event::PageEvict { asid, lpn, pages, cycle } => {
                ("page_evict", vec![Num(asid.into()), Num(lpn), Num(pages.into()), Num(cycle)])
            }
            Event::PageWriteback { bytes, cycle, done } => {
                ("page_writeback", vec![Num(bytes), Num(cycle), Num(done)])
            }
        }
    }

    /// Serializes the event as one JSONL object. Keys are emitted in the
    /// fixed schema order, so equal events always produce identical
    /// bytes (the golden-trace digests rely on this).
    pub fn to_jsonl(&self) -> String {
        let (tag, values) = self.tagged_values();
        encode(tag, &values)
    }
}

/// The JSONL schema: every event type with its exact, ordered key set
/// (excluding the leading `"type"`). The only list of the trace's keys:
/// [`Event::to_jsonl`] writes them, [`read_trace`] checks them and the
/// Chrome export names its args by them.
pub const SCHEMA: &[(&str, &[&str])] = &[
    ("run_begin", &["workload", "manager"]),
    ("phase_begin", &["phase", "cycle"]),
    ("phase_end", &["phase", "cycle"]),
    ("epoch", &["cycle", "instructions", "stall_cycles"]),
    ("warp_mem", &["sm", "asid", "issue", "done", "transactions"]),
    ("tlb_lookup", &["level", "sm", "asid", "cycle", "hit"]),
    ("page_walk", &["asid", "vpn", "issue", "done"]),
    ("far_fault", &["asid", "vpn", "cycle", "done"]),
    ("dram_access", &["cycle", "done", "service", "row_hit"]),
    ("page_copy", &["cycle", "done", "bulk"]),
    ("coalesce", &["asid", "lpn"]),
    ("splinter", &["asid", "lpn"]),
    ("shootdown", &["asid", "lpn", "cycle"]),
    ("page_evict", &["asid", "lpn", "pages", "cycle"]),
    ("page_writeback", &["bytes", "cycle", "done"]),
];

/// The [`SCHEMA`] row of `tag`.
fn schema_row(tag: &str) -> Option<(&'static str, &'static [&'static str])> {
    SCHEMA.iter().find(|(t, _)| *t == tag).copied()
}

/// Encodes one trace line: the leading `"type"`, then the keys of
/// `tag`'s [`SCHEMA`] row paired with `values` in order.
fn encode(tag: &str, values: &[Value]) -> String {
    let (_, keys) = schema_row(tag).expect("every encoded tag is in SCHEMA");
    let mut line = format!("{{\"type\":\"{tag}\"");
    for (key, value) in keys.iter().zip(values) {
        let _ = write!(line, ",\"{key}\":{value}");
    }
    line.push('}');
    line
}

/// Renders the `run_begin` metadata line that precedes each run's events
/// in a JSONL trace.
pub fn run_begin_jsonl(workload: &str, manager: &str) -> String {
    encode("run_begin", &[Value::Str(workload.into()), Value::Str(manager.into())])
}

/// One trace line read against [`SCHEMA`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The line's 1-based number in its trace.
    pub line: usize,
    /// The `"type"` tag.
    pub tag: &'static str,
    /// The tag's ordered [`SCHEMA`] keys.
    pub keys: &'static [&'static str],
    /// One value per key, in key order.
    pub values: Vec<Value>,
}

impl Record {
    /// The value of `key`, if the record's type has that key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.keys.iter().position(|k| *k == key).map(|i| &self.values[i])
    }
}

/// Reads a JSONL trace against [`SCHEMA`], one [`Record`] per non-blank
/// line: each line must parse as a flat object, lead with a known
/// `"type"`, and carry exactly that type's keys in schema order. An error
/// names its line. `mosaic-trace validate` and the Chrome export both
/// read traces through this.
pub fn read_trace(text: &str) -> impl Iterator<Item = Result<Record, String>> + '_ {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| read_line(line, idx + 1).map_err(|e| format!("line {}: {e}", idx + 1)))
}

fn read_line(text: &str, line: usize) -> Result<Record, String> {
    let mut pairs = parse_object(text)?.into_iter();
    let Some((_, Value::Str(tag))) = pairs.next().filter(|(key, _)| key == "type") else {
        return Err("first key must be \"type\"".into());
    };
    let Some((tag, keys)) = schema_row(&tag) else {
        return Err(format!("unknown event type \"{tag}\""));
    };
    let (got, values): (Vec<String>, Vec<Value>) = pairs.unzip();
    if got != keys {
        return Err(format!("\"{tag}\" keys {got:?} do not match schema {keys:?}"));
    }
    Ok(Record { line, tag, keys, values })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_has_one_value_per_schema_key() {
        let samples = [
            Event::PhaseBegin { phase: 0, cycle: 1 },
            Event::PhaseEnd { phase: 0, cycle: 2 },
            Event::Epoch { cycle: 3, instructions: 4, stall_cycles: 5 },
            Event::WarpMem { sm: 0, asid: 1, issue: 2, done: 3, transactions: 4 },
            Event::TlbLookup { level: 1, sm: 0, asid: 1, cycle: 2, hit: true },
            Event::PageWalk { asid: 1, vpn: 2, issue: 3, done: 4 },
            Event::FarFault { asid: 1, vpn: 2, cycle: 3, done: 4 },
            Event::DramAccess { cycle: 1, done: 2, service: 1, row_hit: false },
            Event::PageCopy { cycle: 1, done: 2, bulk: true },
            Event::Coalesce { asid: 1, lpn: 2 },
            Event::Splinter { asid: 1, lpn: 2 },
            Event::Shootdown { asid: 1, lpn: 2, cycle: 3 },
            Event::PageEvict { asid: 1, lpn: 2, pages: 512, cycle: 3 },
            Event::PageWriteback { bytes: 4096, cycle: 1, done: 2 },
        ];
        let mut trace = String::new();
        for ev in samples {
            let (tag, values) = ev.tagged_values();
            let (_, keys) = schema_row(tag).expect("every event type is in SCHEMA");
            assert_eq!(values.len(), keys.len(), "one value per {tag} key");
            trace.push_str(&ev.to_jsonl());
            trace.push('\n');
        }
        // The reader gives back every value in schema order.
        let records: Vec<Record> = read_trace(&trace).collect::<Result<_, _>>().expect("valid");
        for (ev, record) in samples.iter().zip(&records) {
            assert_eq!((record.tag, record.values.clone()), ev.tagged_values());
        }
        assert_eq!(records.len(), samples.len());
        // SCHEMA covers exactly the 14 event types plus run_begin.
        assert_eq!(SCHEMA.len(), samples.len() + 1);
    }

    /// The exact bytes of one line per event type: every key, its order
    /// and its value's encoding (distinct values, so a swapped key shows).
    #[test]
    fn jsonl_lines_are_pinned() {
        let pinned = [
            (
                Event::PhaseBegin { phase: 1, cycle: 2 },
                r#"{"type":"phase_begin","phase":1,"cycle":2}"#,
            ),
            (Event::PhaseEnd { phase: 3, cycle: 4 }, r#"{"type":"phase_end","phase":3,"cycle":4}"#),
            (
                Event::Epoch { cycle: 5, instructions: 6, stall_cycles: 7 },
                r#"{"type":"epoch","cycle":5,"instructions":6,"stall_cycles":7}"#,
            ),
            (
                Event::WarpMem { sm: 8, asid: 9, issue: 10, done: 11, transactions: 12 },
                r#"{"type":"warp_mem","sm":8,"asid":9,"issue":10,"done":11,"transactions":12}"#,
            ),
            (
                Event::TlbLookup { level: 2, sm: 13, asid: 14, cycle: 15, hit: true },
                r#"{"type":"tlb_lookup","level":2,"sm":13,"asid":14,"cycle":15,"hit":true}"#,
            ),
            (
                Event::PageWalk { asid: 16, vpn: 17, issue: 18, done: 19 },
                r#"{"type":"page_walk","asid":16,"vpn":17,"issue":18,"done":19}"#,
            ),
            (
                Event::FarFault { asid: 20, vpn: 21, cycle: 22, done: 23 },
                r#"{"type":"far_fault","asid":20,"vpn":21,"cycle":22,"done":23}"#,
            ),
            (
                Event::DramAccess { cycle: 24, done: 25, service: 26, row_hit: false },
                r#"{"type":"dram_access","cycle":24,"done":25,"service":26,"row_hit":false}"#,
            ),
            (
                Event::PageCopy { cycle: 27, done: 28, bulk: true },
                r#"{"type":"page_copy","cycle":27,"done":28,"bulk":true}"#,
            ),
            (Event::Coalesce { asid: 29, lpn: 30 }, r#"{"type":"coalesce","asid":29,"lpn":30}"#),
            (Event::Splinter { asid: 31, lpn: 32 }, r#"{"type":"splinter","asid":31,"lpn":32}"#),
            (
                Event::Shootdown { asid: 33, lpn: 34, cycle: 35 },
                r#"{"type":"shootdown","asid":33,"lpn":34,"cycle":35}"#,
            ),
            (
                Event::PageEvict { asid: 36, lpn: 37, pages: 512, cycle: 38 },
                r#"{"type":"page_evict","asid":36,"lpn":37,"pages":512,"cycle":38}"#,
            ),
            (
                Event::PageWriteback { bytes: 4096, cycle: 39, done: u64::MAX },
                r#"{"type":"page_writeback","bytes":4096,"cycle":39,"done":18446744073709551615}"#,
            ),
        ];
        for (ev, line) in pinned {
            assert_eq!(ev.to_jsonl(), line);
        }
        assert_eq!(pinned.len(), SCHEMA.len() - 1, "one pin per event type");
        assert_eq!(
            run_begin_jsonl("GUPS\t\u{1}é", "Mosaic [x]"),
            r#"{"type":"run_begin","workload":"GUPS\t\u0001é","manager":"Mosaic [x]"}"#
        );
    }

    #[test]
    fn reader_rejects_what_the_schema_does_not_name() {
        let first_error = |text: &str| read_trace(text).find_map(Result::err);
        assert_eq!(
            first_error("{\"cycle\":1}").as_deref(),
            Some("line 1: first key must be \"type\"")
        );
        assert_eq!(
            first_error("{\"type\":7}").as_deref(),
            Some("line 1: first key must be \"type\"")
        );
        assert_eq!(
            first_error("\n{\"type\":\"nope\"}").as_deref(),
            Some("line 2: unknown event type \"nope\"")
        );
        assert_eq!(
            first_error("{\"type\":\"coalesce\",\"lpn\":2,\"asid\":1}").as_deref(),
            Some("line 1: \"coalesce\" keys [\"lpn\", \"asid\"] do not match schema [\"asid\", \"lpn\"]")
        );
        assert!(first_error("{\"type\":").unwrap().starts_with("line 1: "));
        assert_eq!(read_trace(" \n\n").count(), 0, "blank lines are skipped");
    }

    #[test]
    fn run_begin_escapes_metadata() {
        let line = run_begin_jsonl("MM \"x\"", "Mosaic");
        assert_eq!(
            line,
            "{\"type\":\"run_begin\",\"workload\":\"MM \\\"x\\\"\",\"manager\":\"Mosaic\"}"
        );
        assert!(crate::json::parse_object(&line).is_ok());
    }
}
