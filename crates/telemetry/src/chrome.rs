//! Chrome `trace_event` exporter: converts a JSONL trace into the JSON
//! array format that chrome://tracing and Perfetto load directly.
//!
//! Every line is read through [`read_trace`], so a trace that
//! `mosaic-trace validate` rejects fails the export with the same error.
//! The export streams: each line is converted and written before the next
//! is read, so memory stays at one line whatever the trace's size.
//! Mapping:
//! - each `run_begin` line starts a new process (`pid`), labelled with
//!   the workload/manager names via `process_name` metadata;
//! - every other event type has one `LAYOUT` row: its track (`tid`),
//!   the field holding its start cycle and the field holding its end
//!   cycle. Every remaining field is an arg, in schema order;
//! - an event with an end field becomes a complete event (`ph:"X"`) with
//!   `ts` = start cycle and `dur` = cycles (1 simulated cycle = 1 µs on
//!   the trace timeline); any other event becomes an instant (`ph:"i"`).
//!   `coalesce` / `splinter` carry no cycle and are placed at the last
//!   cycle seen.

use std::io::{self, BufRead, ErrorKind, Write};

use crate::event::read_trace;
use crate::json::{write_object, Value};

/// `(tag, track, track field, start field, end field)` for every event
/// type but `run_begin`. The track (`tid`) is the fixed name, followed by
/// the track field's value when there is one (`sm3`, `tlb-l1`). Without
/// a start field the event sits at the last cycle seen; with an end
/// field it is a complete event, otherwise an instant.
type Row =
    (&'static str, &'static str, Option<&'static str>, Option<&'static str>, Option<&'static str>);

const LAYOUT: &[Row] = &[
    ("phase_begin", "run", None, Some("cycle"), None),
    ("phase_end", "run", None, Some("cycle"), None),
    ("epoch", "run", None, Some("cycle"), None),
    ("warp_mem", "sm", Some("sm"), Some("issue"), Some("done")),
    ("tlb_lookup", "tlb-l", Some("level"), Some("cycle"), None),
    ("page_walk", "walker", None, Some("issue"), Some("done")),
    ("far_fault", "manager", None, Some("cycle"), Some("done")),
    ("dram_access", "dram", None, Some("cycle"), Some("done")),
    ("page_copy", "dram", None, Some("cycle"), Some("done")),
    ("coalesce", "manager", None, None, None),
    ("splinter", "manager", None, None, None),
    ("shootdown", "manager", None, Some("cycle"), None),
    ("page_evict", "manager", None, Some("cycle"), None),
    ("page_writeback", "iobus", None, Some("cycle"), Some("done")),
];

/// Streams the JSONL trace `input` into `out` (pass a buffered writer) as
/// a Chrome `trace_event` JSON document.
///
/// # Errors
///
/// The first failed write, or an [`ErrorKind::InvalidData`] error naming
/// the first line that is unreadable or does not satisfy the schema.
pub fn jsonl_to_chrome(input: impl BufRead, mut out: impl Write) -> io::Result<()> {
    let bad = |message: String| io::Error::new(ErrorKind::InvalidData, message);
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut pid = 0u64;
    let mut cursor = 0u64; // last cycle seen, for untimestamped events
    for (i, record) in read_trace(input).enumerate() {
        let record = record.map_err(bad)?;
        if i > 0 {
            out.write_all(b",")?;
        }
        if record.tag == "run_begin" {
            let [Value::Str(workload), Value::Str(manager)] = &record.values[..] else {
                return Err(bad(format!("line {}: run_begin names must be strings", record.line)));
            };
            pid += 1;
            cursor = 0;
            write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                Value::Str(format!("{workload} [{manager}]"))
            )?;
            continue;
        }
        let &(name, track, track_field, start, end) =
            LAYOUT.iter().find(|row| row.0 == record.tag).expect("every event type has a row");
        let num = |key: &str| match record.get(key) {
            Some(Value::Num(n)) => Ok(*n),
            _ => Err(bad(format!("line {}: \"{key}\" must be an integer", record.line))),
        };
        let tid = match track_field {
            Some(field) => format!("{track}{}", num(field)?),
            None => track.to_string(),
        };
        let ts = match start {
            Some(field) => num(field)?,
            None => cursor,
        };
        let placed = [track_field, start, end];
        let pairs = record.keys.iter().zip(&record.values);
        let args = write_object(pairs.filter(|(key, _)| !placed.contains(&Some(**key))));
        match end {
            Some(field) => {
                let done = num(field)?;
                cursor = cursor.max(done);
                write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":\"{tid}\",\"name\":\"{name}\",\
                     \"ts\":{ts},\"dur\":{},\"args\":{args}}}",
                    done.saturating_sub(ts).max(1)
                )
            }
            None => {
                cursor = cursor.max(ts);
                write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":\"{tid}\",\"name\":\"{name}\",\
                     \"ts\":{ts},\"args\":{args}}}"
                )
            }
        }?;
    }
    out.write_all(b"]}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_begin_jsonl, Event};

    /// The export of `jsonl` as text, or the trace error.
    fn export(jsonl: &str) -> Result<String, String> {
        let mut out = Vec::new();
        match jsonl_to_chrome(jsonl.as_bytes(), &mut out) {
            Ok(()) => Ok(String::from_utf8(out).expect("the export is UTF-8")),
            Err(e) if e.kind() == ErrorKind::InvalidData => Err(e.to_string()),
            Err(e) => panic!("writing to a Vec failed: {e}"),
        }
    }

    #[test]
    fn round_trips_a_small_trace() {
        let mut jsonl = String::new();
        jsonl.push_str(&run_begin_jsonl("MM", "Mosaic"));
        jsonl.push('\n');
        for ev in [
            Event::PhaseBegin { phase: 0, cycle: 0 },
            Event::WarpMem { sm: 0, asid: 1, issue: 10, done: 300, transactions: 2 },
            Event::TlbLookup { level: 1, sm: 0, asid: 1, cycle: 11, hit: false },
            Event::PageWalk { asid: 1, vpn: 7, issue: 20, done: 180 },
            Event::DramAccess { cycle: 200, done: 260, service: 40, row_hit: true },
            Event::Coalesce { asid: 1, lpn: 3 },
            Event::Shootdown { asid: 1, lpn: 3, cycle: 280 },
            Event::PhaseEnd { phase: 0, cycle: 300 },
        ] {
            jsonl.push_str(&ev.to_jsonl());
            jsonl.push('\n');
        }
        let chrome = export(&jsonl).expect("export succeeds");
        assert!(chrome.starts_with("{\"displayTimeUnit\""));
        assert!(chrome.ends_with("]}"));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"name\":\"process_name\""));
        // The untimestamped coalesce lands at the last-seen cycle (300).
        assert!(chrome.contains("\"name\":\"coalesce\",\"ts\":300"));
    }

    /// A two-run trace holding every event type. The second run opens
    /// with a `splinter`, so the last-cycle cursor must restart at 0.
    fn every_type_trace() -> String {
        let runs = [
            (
                ("MM", "GPU-MMU"),
                vec![
                    Event::PhaseBegin { phase: 0, cycle: 0 },
                    Event::WarpMem { sm: 2, asid: 1, issue: 10, done: 300, transactions: 3 },
                    Event::TlbLookup { level: 2, sm: 2, asid: 1, cycle: 11, hit: false },
                    Event::PageWalk { asid: 1, vpn: 7, issue: 20, done: 180 },
                    Event::FarFault { asid: 1, vpn: 7, cycle: 181, done: 250 },
                    Event::DramAccess { cycle: 200, done: 260, service: 40, row_hit: true },
                    Event::PageCopy { cycle: 270, done: 290, bulk: true },
                    Event::Coalesce { asid: 1, lpn: 3 },
                    Event::Epoch { cycle: 310, instructions: 64, stall_cycles: 12 },
                    Event::PhaseEnd { phase: 0, cycle: 320 },
                ],
            ),
            (
                ("GUPS \"x\"", "Mosaic"),
                vec![
                    Event::Splinter { asid: 2, lpn: 9 },
                    Event::PhaseBegin { phase: 1, cycle: 5 },
                    Event::Shootdown { asid: 2, lpn: 9, cycle: 40 },
                    Event::PageEvict { asid: 2, lpn: 9, pages: 512, cycle: 50 },
                    Event::PageWriteback { bytes: 4096, cycle: 60, done: 60 },
                    Event::TlbLookup { level: 1, sm: 0, asid: 2, cycle: 70, hit: true },
                    Event::DramAccess { cycle: 80, done: 95, service: 15, row_hit: false },
                    Event::PhaseEnd { phase: 1, cycle: 400 },
                ],
            ),
        ];
        let mut jsonl = String::new();
        for ((workload, manager), events) in runs {
            jsonl.push_str(&run_begin_jsonl(workload, manager));
            jsonl.push('\n');
            for ev in events {
                jsonl.push_str(&ev.to_jsonl());
                jsonl.push('\n');
            }
        }
        jsonl
    }

    /// The exact export of [`every_type_trace`]: tracks, timestamps,
    /// durations, args and the cursor, byte for byte.
    #[test]
    fn every_type_export_is_pinned() {
        let pinned = concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":[{"ph":"M","pid":1,"name":"process_name","args":{"name":"MM [GPU-MMU]"}},"#,
            r#"{"ph":"i","s":"t","pid":1,"tid":"run","name":"phase_begin","ts":0,"args":{"phase":0}},"#,
            r#"{"ph":"X","pid":1,"tid":"sm2","name":"warp_mem","ts":10,"dur":290,"args":{"asid":1,"transactions":3}},"#,
            r#"{"ph":"i","s":"t","pid":1,"tid":"tlb-l2","name":"tlb_lookup","ts":11,"args":{"sm":2,"asid":1,"hit":false}},"#,
            r#"{"ph":"X","pid":1,"tid":"walker","name":"page_walk","ts":20,"dur":160,"args":{"asid":1,"vpn":7}},"#,
            r#"{"ph":"X","pid":1,"tid":"manager","name":"far_fault","ts":181,"dur":69,"args":{"asid":1,"vpn":7}},"#,
            r#"{"ph":"X","pid":1,"tid":"dram","name":"dram_access","ts":200,"dur":60,"args":{"service":40,"row_hit":true}},"#,
            r#"{"ph":"X","pid":1,"tid":"dram","name":"page_copy","ts":270,"dur":20,"args":{"bulk":true}},"#,
            r#"{"ph":"i","s":"t","pid":1,"tid":"manager","name":"coalesce","ts":300,"args":{"asid":1,"lpn":3}},"#,
            r#"{"ph":"i","s":"t","pid":1,"tid":"run","name":"epoch","ts":310,"args":{"instructions":64,"stall_cycles":12}},"#,
            r#"{"ph":"i","s":"t","pid":1,"tid":"run","name":"phase_end","ts":320,"args":{"phase":0}},"#,
            r#"{"ph":"M","pid":2,"name":"process_name","args":{"name":"GUPS \"x\" [Mosaic]"}},"#,
            r#"{"ph":"i","s":"t","pid":2,"tid":"manager","name":"splinter","ts":0,"args":{"asid":2,"lpn":9}},"#,
            r#"{"ph":"i","s":"t","pid":2,"tid":"run","name":"phase_begin","ts":5,"args":{"phase":1}},"#,
            r#"{"ph":"i","s":"t","pid":2,"tid":"manager","name":"shootdown","ts":40,"args":{"asid":2,"lpn":9}},"#,
            r#"{"ph":"i","s":"t","pid":2,"tid":"manager","name":"page_evict","ts":50,"args":{"asid":2,"lpn":9,"pages":512}},"#,
            r#"{"ph":"X","pid":2,"tid":"iobus","name":"page_writeback","ts":60,"dur":1,"args":{"bytes":4096}},"#,
            r#"{"ph":"i","s":"t","pid":2,"tid":"tlb-l1","name":"tlb_lookup","ts":70,"args":{"sm":0,"asid":2,"hit":true}},"#,
            r#"{"ph":"X","pid":2,"tid":"dram","name":"dram_access","ts":80,"dur":15,"args":{"service":15,"row_hit":false}},"#,
            r#"{"ph":"i","s":"t","pid":2,"tid":"run","name":"phase_end","ts":400,"args":{"phase":1}}]}"#,
        );
        assert_eq!(export(&every_type_trace()).expect("export succeeds"), pinned);
    }

    #[test]
    fn every_event_type_has_one_layout_row_naming_its_own_keys() {
        for &(tag, keys) in crate::SCHEMA.iter().filter(|(tag, _)| *tag != "run_begin") {
            let rows: Vec<_> = LAYOUT.iter().filter(|row| row.0 == tag).collect();
            let [&(_, _, track_field, start, end)] = rows[..] else {
                panic!("{tag} needs exactly one layout row, has {}", rows.len());
            };
            for field in [track_field, start, end].into_iter().flatten() {
                assert!(keys.contains(&field), "{tag} has no {field} key");
            }
        }
        assert_eq!(LAYOUT.len(), crate::SCHEMA.len() - 1, "no row for run_begin or a stray tag");
    }

    #[test]
    fn rejects_unknown_types_and_bad_lines() {
        assert!(export("{\"type\":\"bogus\"}").is_err());
        assert!(export("not json").is_err());
        assert!(export("\n\n").is_ok(), "blank lines are skipped");
        // What `validate` rejects fails the export too, instead of
        // exporting zeros.
        assert_eq!(
            export("{\"type\":\"epoch\",\"cycle\":1}").unwrap_err(),
            "line 1: \"epoch\" keys [\"cycle\"] do not match schema \
             [\"cycle\", \"instructions\", \"stall_cycles\"]"
        );
        // A placed field must be a number and run_begin's names strings.
        let bad_cycle = "{\"type\":\"shootdown\",\"asid\":1,\"lpn\":2,\"cycle\":true}";
        assert_eq!(export(bad_cycle).unwrap_err(), "line 1: \"cycle\" must be an integer");
        let bad_names = "{\"type\":\"run_begin\",\"workload\":1,\"manager\":\"m\"}";
        assert_eq!(export(bad_names).unwrap_err(), "line 1: run_begin names must be strings");
    }
}
