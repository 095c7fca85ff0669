//! # tiga-cli — drive the whole stack from `.tg` files
//!
//! This crate implements the `tiga` command line (the binary target is named
//! `tiga`); `main.rs` is a thin wrapper so the subcommands stay testable as
//! library functions:
//!
//! * `tiga solve <file.tg>` — parse, lower and solve the model's `control:`
//!   objective; engine and termination flags map onto
//!   [`tiga_solver::SolveOptions`];
//! * `tiga test <file.tg>` — synthesize the winning strategy and run a
//!   mutation campaign against simulated implementations, mapping flags onto
//!   [`tiga_testing::CampaignOptions`];
//! * `tiga zoo` — list the built-in benchmark model zoo, and with
//!   `--emit-tg <dir>` export every zoo model (and its plant) as `.tg` via
//!   the [`tiga_lang::print_system`] serializer;
//! * `tiga fuzz` — differential fuzzing: seeded random timed games through
//!   the [`tiga_gen`] oracles (engine agreement on reachability *and*
//!   safety objectives, printer/parser roundtrip, zone-algebra reference,
//!   `Pred_t` reference), sharded over worker threads with `--jobs`, with
//!   shrunk `.tg` reproducers on failure;
//! * `tiga serve` — strategy synthesis as a service: jsonl requests on
//!   stdin, jsonl responses (verdict, stats, `tiga-strategy v1` text) on
//!   stdout, deduplicated through a content-hash solve cache; `batch`
//!   requests are sharded over the deterministic work queue.
//!
//! All diagnostics are rendered with source spans ([`tiga_lang::LangError`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fuzz;
mod serve;
mod solve;
mod test;
mod zoo;

pub use fuzz::{run_fuzz, FuzzArgs};
pub use serve::{serve_session, ServeArgs, ServeSession};
pub use solve::{run_solve, SolveArgs};
pub use test::{run_test, TestArgs};
pub use zoo::{run_zoo, ZooArgs};

use tiga_lang::TgModel;

/// Exit code for usage errors (bad flags, missing files).
pub const EXIT_USAGE: i32 = 2;
/// Exit code for model/solver failures (parse errors, unsolvable games).
pub const EXIT_FAILURE: i32 = 1;

const USAGE: &str = "\
tiga — game-theoretic testing of real-time systems (DATE 2008)

USAGE:
    tiga solve <file.tg> [--engine otfur|jacobi|worklist] [--exhaustive]
               [--no-strategy] [--max-rounds N] [--purpose '<control: ...>']
               [--show-strategy]
    tiga test  <file.tg> [--spec <plant.tg>] [--threads N] [--seed N]
               [--repetitions N] [--max-mutants N] [--purpose '<control: ...>']
    tiga zoo   [--emit-tg <dir>]
    tiga fuzz  [--seed N] [--count N] [--jobs N] [--shrink|--no-shrink]
               [--out-dir <dir>] [--max-states N] [--zone-rounds N]
               [--zone-samples N]
    tiga serve [--jobs N]

Run `tiga <command> --help` for details of one command.
";

/// Parses argv (without the program name) and runs the requested command.
///
/// Returns the process exit code instead of calling `exit`, so integration
/// tests can drive the CLI in-process.
#[must_use]
pub fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("solve") => solve::main(&args[1..]),
        Some("test") => test::main(&args[1..]),
        Some("zoo") => zoo::main(&args[1..]),
        Some("fuzz") => fuzz::main(&args[1..]),
        Some("serve") => serve::main(&args[1..]),
        Some("--help" | "-h" | "help") => {
            emit(USAGE.trim_end());
            0
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            EXIT_USAGE
        }
        None => {
            eprint!("{USAGE}");
            EXIT_USAGE
        }
    }
}

/// Reads and parses a `.tg` file, rendering span diagnostics (with the
/// source line and caret) on failure.
///
/// # Errors
///
/// Returns a ready-to-print error report.
pub fn load_model(path: &str) -> Result<TgModel, String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("error: cannot read `{path}`: {e}"))?;
    tiga_lang::parse_model(&source).map_err(|err| err.render(&source, path))
}

/// Pops the value of a `--flag VALUE` option from `args`, if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            args.remove(i);
            if i < args.len() {
                Ok(Some(args.remove(i)))
            } else {
                Err(format!("error: `{flag}` expects a value"))
            }
        }
    }
}

/// Returns `true` when the args ask for help (`--help` / `-h`), so
/// subcommand mains can print usage to stdout and exit 0 instead of routing
/// help through the usage-error path (stderr, exit 2).
pub(crate) fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// Pops a boolean `--flag` from `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        None => false,
        Some(i) => {
            args.remove(i);
            true
        }
    }
}

/// Parses a numeric flag value.
fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("error: `{flag}` expects a number, got `{value}`"))
}

/// Prints to stdout, ignoring broken pipes (so `tiga ... | head` does not
/// panic; Rust installs SIG_IGN for SIGPIPE and surfaces EPIPE here).
pub(crate) fn emit(text: &str) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "{text}");
}

/// Rejects leftover arguments after all known flags were consumed.
fn reject_leftovers(args: &[String], usage: &str) -> Result<(), String> {
    if let Some(stray) = args.first() {
        Err(format!("error: unexpected argument `{stray}`\n\n{usage}"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_value_and_flag() {
        let mut args: Vec<String> = ["--engine", "jacobi", "x.tg", "--exhaustive"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            take_value(&mut args, "--engine").unwrap().as_deref(),
            Some("jacobi")
        );
        assert!(take_flag(&mut args, "--exhaustive"));
        assert!(!take_flag(&mut args, "--exhaustive"));
        assert_eq!(args, vec!["x.tg".to_string()]);
        let mut args = vec!["--engine".to_string()];
        assert!(take_value(&mut args, "--engine").is_err());
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert_eq!(run(&["frobnicate".to_string()]), EXIT_USAGE);
        assert_eq!(run(&[]), EXIT_USAGE);
        assert_eq!(run(&["--help".to_string()]), 0);
    }
}
