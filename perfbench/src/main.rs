//! `perfbench`: the compiled half of the benchmark driven by `run.py`.
//!
//! ```text
//! perfbench stream --inputs DIR --seed N --blocks B
//!     print the serve-session block and cycle lengths, then the warm-up and request
//!     stream, one JSON object per line (the request plus what the client
//!     checks in its response)
//! perfbench trace --workload W --inputs DIR --seconds S
//!                 [--tiga PATH] [--objective F]... [--goldens DIR]
//!                 [--campaign F[:SPEC]]... [--seed N --blocks B --e2e-ms X]
//!     replay workload W in-process for about S seconds, timing the calls
//!     into each layer, and print one JSON object of per-layer metrics.
//!     solve-lep4 and campaign run `tiga` untraced before each replayed
//!     objective, for coverage; serve-session takes the untraced
//!     end-to-end time of one request as X
//! perfbench reference
//!     run the fixed reference workload once per stdin line and answer
//!     with its wall time in ms (end-to-end times are scaled by it)
//! ```

mod alloc;
mod reference;
mod stream;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) if out.is_empty() => {}
        Ok(out) => println!("{out}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    }
}

/// Flag values, in the order given.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("`{flag}` expects a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn all(&self, name: &str) -> Vec<String> {
        self.0
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .collect()
    }

    fn one(&self, name: &str) -> Result<String, String> {
        self.all(name)
            .pop()
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let value = self.one(name)?;
        value
            .parse()
            .map_err(|_| format!("--{name} expects a number, got `{value}`"))
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (command, rest) = args
        .split_first()
        .ok_or("expected `stream`, `trace` or `reference`")?;
    if command == "reference" {
        reference::serve()?;
        return Ok(String::new());
    }
    let flags = Flags::parse(rest)?;
    let inputs = PathBuf::from(flags.one("inputs")?);
    match command.as_str() {
        "stream" => {
            let stream = stream::build(&inputs, flags.num("seed")?, flags.num("blocks")?)?;
            let mut lines = vec![format!(
                "{{\"block_len\":{},\"cycle_blocks\":{}}}",
                stream.block_len, stream.cycle_blocks
            )];
            lines.extend(
                stream
                    .warmup
                    .iter()
                    .chain(&stream.items)
                    .enumerate()
                    .map(|(id, item)| item.describe(id + 1)),
            );
            Ok(lines.join("\n"))
        }
        "trace" => {
            let budget = Duration::from_secs_f64(flags.num("seconds")?);
            let report = match flags.one("workload")?.as_str() {
                "solve-lep4" => trace::solve_lep4(
                    &PathBuf::from(flags.one("tiga")?),
                    &inputs,
                    &flags.all("objective"),
                    &PathBuf::from(flags.one("goldens")?),
                    budget,
                )?,
                "campaign" => {
                    let campaigns: Vec<trace::Campaign> = flags
                        .all("campaign")
                        .iter()
                        .map(|c| match c.split_once(':') {
                            Some((file, spec)) => (file.to_string(), Some(spec.to_string())),
                            None => (c.clone(), None),
                        })
                        .collect();
                    trace::campaign(
                        &PathBuf::from(flags.one("tiga")?),
                        &inputs,
                        &campaigns,
                        budget,
                    )?
                }
                "serve-session" => {
                    trace::serve_session(&inputs, flags.num("seed")?, flags.num("blocks")?, budget)?
                }
                other => return Err(format!("unknown workload `{other}`")),
            };
            let e2e_ms = match report.e2e_ms {
                Some(ms) => ms,
                None => flags.num("e2e-ms")?,
            };
            Ok(render(report, e2e_ms))
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The report as one JSON object, with the coverage of the traced calls
/// against the untraced end-to-end time and the difference between them.
fn render(mut report: trace::Report, e2e_ms: f64) -> String {
    let coverage = if e2e_ms > 0.0 {
        report.path_ms / e2e_ms
    } else {
        0.0
    };
    report
        .metrics
        .insert("trace.coverage".to_string(), (coverage, "ratio"));
    report.metrics.insert(
        "trace.overhead_ms".to_string(),
        (report.path_ms - e2e_ms, "ms"),
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|(name, value)| format!("{}:{value}", stream::json_string(name)))
        .collect();
    format!(
        "{{\"ops\":{},\"failed\":{},\"metrics\":{{{}}},\"checks\":{{{}}}}}",
        report.ops,
        report.failed,
        metrics.join(","),
        checks.join(",")
    )
}

/// A finite JSON number.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}
