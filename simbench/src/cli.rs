//! Command-line parsing. Bad input is an `Err` with a message, never a
//! panic; `main` turns it into exit code 2.

use crate::jobs::Kind;

/// Usage text printed with `--help` and after a command-line error.
pub const USAGE: &str = "\
usage: mosaic-simbench --workload <multiapp|oversub|fleet> --seed <u64>
                       [--seconds <1..=3600>] [--trace <0|1>]

  --workload  which seeded job list to run
  --seed      generates the job list (same seed, same simulations)
  --seconds   how long to keep timing passes (default 30)
  --trace     0: end-to-end metrics, tracing off (default)
              1: per-layer metrics from the traced replica pass";

/// A validated benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Kind,
    /// Seed of its job list.
    pub seed: u64,
    /// Seconds to keep timing passes.
    pub seconds: u64,
    /// Whether to run the traced, per-layer measurement.
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Run the benchmark.
    Run(Args),
    /// Print usage and exit.
    Help,
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value.parse().map_err(|_| format!("{flag} needs a non-negative integer, got {value:?}"))
}

/// Parses the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        if !matches!(flag.as_str(), "--workload" | "--seed" | "--seconds" | "--trace") {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let kind = Kind::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (expected multiapp, oversub or fleet)")
                })?;
                workload = Some(kind);
            }
            "--seed" => seed = Some(number(&flag, &value)?),
            "--seconds" => {
                seconds = number(&flag, &value)?;
                if !(1..=3600).contains(&seconds) {
                    return Err(format!("--seconds must be in 1..=3600, got {seconds}"));
                }
            }
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
            }
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    Ok(Command::Run(Args { workload, seed, seconds, trace }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cmd = run("--workload fleet --seed 7 --seconds 10 --trace 1").unwrap();
        let want = Args { workload: Kind::Fleet, seed: 7, seconds: 10, trace: true };
        assert_eq!(cmd, Command::Run(want));
        let defaults = run("--seed 3 --workload multiapp").unwrap();
        let want = Args { workload: Kind::Multiapp, seed: 3, seconds: 30, trace: false };
        assert_eq!(defaults, Command::Run(want));
        assert_eq!(run("--help").unwrap(), Command::Help);
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for bad in [
            "--workload multiapp --seed 1 --frobnicate",
            "--workload nope --seed 1",
            "--workload multiapp --seed -1",
            "--workload multiapp --seed 1x",
            "--workload multiapp --seed 18446744073709551616",
            "--workload multiapp",
            "--seed 1",
            "--workload multiapp --seed",
            "--workload multiapp --seed 1 --trace 2",
            "--workload multiapp --seed 1 --seconds 0",
            "stray",
        ] {
            assert!(run(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
