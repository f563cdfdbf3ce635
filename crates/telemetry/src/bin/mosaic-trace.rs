//! `mosaic-trace`: validate and convert JSONL traces produced by
//! `reproduce --trace`.
//!
//! ```text
//! mosaic-trace validate TRACE.jsonl
//! mosaic-trace chrome TRACE.jsonl -o OUT.json
//! ```
//!
//! Both commands stream the trace a line at a time, so their memory does
//! not grow with the trace. A failed `chrome` conversion leaves no output
//! file behind.
//!
//! Exit status: 0 on success, 1 on an unreadable, invalid or unwritable
//! file, 2 on usage errors. The status holds when stdout or stderr is
//! closed early: output that cannot be written is dropped.

use std::fs::File;
use std::io::{stderr, stdout, BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::process::ExitCode;

use mosaic_telemetry::chrome::jsonl_to_chrome;
use mosaic_telemetry::read_trace;

// `println!` and `eprintln!` that drop the line when the pipe is closed:
// the exit status, not the text, carries the verdict.
macro_rules! out { ($($a:tt)*) => {{ let _ = writeln!(stdout(), $($a)*); }}; }
macro_rules! err { ($($a:tt)*) => {{ let _ = writeln!(stderr(), $($a)*); }}; }

fn usage() -> ExitCode {
    err!("usage:\n  mosaic-trace validate TRACE.jsonl\n  mosaic-trace chrome TRACE.jsonl -o OUT.json");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, out_path) = match &args[..] {
        [command, path] if command == "validate" => (path, None),
        [command, path, flag, out_path] if command == "chrome" && flag == "-o" => {
            (path, Some(out_path))
        }
        _ => return usage(),
    };
    let input = match File::open(path) {
        Ok(file) => BufReader::new(file),
        Err(e) => {
            err!("mosaic-trace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let done = match out_path {
        None => validate(input)
            .map(|count| format!("{path}: {count} events OK"))
            .map_err(|e| format!("{path}: {e}")),
        Some(out_path) => chrome(input, path, out_path).map(|()| format!("wrote {out_path}")),
    };
    match done {
        Ok(line) => {
            out!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            err!("mosaic-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Streams the Chrome export of `input`, read from `path`, into a new
/// file at `out_path`. A failed conversion removes the partial file
/// again (a device such as `/dev/null` is left alone).
fn chrome(input: impl BufRead, path: &str, out_path: &str) -> Result<(), String> {
    let cannot_write = |e| format!("cannot write {out_path}: {e}");
    let mut out = BufWriter::new(File::create(out_path).map_err(cannot_write)?);
    let result = jsonl_to_chrome(input, &mut out).and_then(|()| out.flush());
    if result.is_err() && std::fs::metadata(out_path).is_ok_and(|m| m.is_file()) {
        let _ = std::fs::remove_file(out_path);
    }
    result.map_err(|e| match e.kind() {
        ErrorKind::InvalidData => format!("{path}: {e}"),
        _ => cannot_write(e),
    })
}

/// Validates every line against the event schema through
/// [`read_trace`], one line at a time, returning the number of event
/// lines.
fn validate(input: impl BufRead) -> Result<usize, String> {
    match read_trace(input).try_fold(0, |count, record| record.map(|_| count + 1))? {
        0 => Err("trace contains no events".into()),
        count => Ok(count),
    }
}

#[cfg(test)]
mod tests {
    use super::validate;
    use mosaic_telemetry::{run_begin_jsonl, Event};

    #[test]
    fn validate_accepts_schema_conformant_lines() {
        let mut text = run_begin_jsonl("MM", "Mosaic");
        text.push('\n');
        text.push_str(&Event::Epoch { cycle: 1, instructions: 2, stall_cycles: 3 }.to_jsonl());
        text.push('\n');
        assert_eq!(validate(text.as_bytes()), Ok(2));
    }

    #[test]
    fn validate_rejects_wrong_keys_and_unknown_types() {
        assert!(validate(&b"{\"type\":\"epoch\",\"cycle\":1}"[..]).is_err());
        assert!(validate(&b"{\"type\":\"nope\"}"[..]).is_err());
        assert!(validate(&b"{\"cycle\":1}"[..]).is_err());
        assert!(validate(&b""[..]).is_err(), "empty traces are an error");
    }
}
