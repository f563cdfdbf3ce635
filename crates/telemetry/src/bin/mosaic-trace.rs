//! `mosaic-trace`: validate and convert JSONL traces produced by
//! `reproduce --trace`.
//!
//! ```text
//! mosaic-trace validate TRACE.jsonl
//! mosaic-trace chrome TRACE.jsonl -o OUT.json
//! ```
//!
//! Exit status: 0 on success, 1 on an unreadable, invalid or unwritable
//! file, 2 on usage errors. The status holds when stdout or stderr is
//! closed early: output that cannot be written is dropped.

use std::io::{stderr, stdout, BufRead, BufReader, Write};
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
    match args.first().map(String::as_str) {
        Some("validate") => {
            let [_, path] = &args[..] else { return usage() };
            match std::fs::File::open(path) {
                Err(e) => {
                    err!("mosaic-trace: cannot read {path}: {e}");
                    ExitCode::FAILURE
                }
                Ok(file) => match validate(BufReader::new(file)) {
                    Ok(count) => {
                        out!("{path}: {count} events OK");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        err!("mosaic-trace: {path}: {e}");
                        ExitCode::FAILURE
                    }
                },
            }
        }
        Some("chrome") => {
            let [_, path, flag, out_path] = &args[..] else { return usage() };
            if flag != "-o" {
                return usage();
            }
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    err!("mosaic-trace: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match jsonl_to_chrome(&text) {
                Ok(chrome) => {
                    if let Err(e) = std::fs::write(out_path, chrome) {
                        err!("mosaic-trace: cannot write {out_path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    out!("wrote {out_path}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    err!("mosaic-trace: {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
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
