//! `tiga fuzz` — differential fuzzing of the whole stack.
//!
//! Generates seeded random timed games and runs the five oracles of
//! [`tiga_gen`] over each of them: engine agreement (Otfur vs Jacobi, on
//! reachability and safety objectives alike), printer/parser
//! roundtrip, the zone-algebra reference model, the `Pred_t` reference, and
//! — for every winning game — end-to-end test execution of the synthesized
//! strategy against conformant and mutant simulated implementations with
//! the tioco verdicts as the oracle.
//! `--jobs N` shards the cases over the deterministic work queue of
//! `tiga-testing` with bit-identical findings for any N.  Failing cases are
//! shrunk (unless `--no-shrink`) and written as self-contained `.tg`
//! reproducers.

use crate::{parse_num, reject_leftovers, take_flag, take_value, wants_help, EXIT_USAGE};
use std::path::PathBuf;
use tiga_gen::{fuzz_campaign, FuzzOptions, FuzzReport};

const USAGE: &str = "\
USAGE:
    tiga fuzz [OPTIONS]

OPTIONS:
    --seed N          master seed (default: 1); case i uses the i-th
                      SplitMix64 value derived from it
    --count N         number of generated systems (default: 100)
    --jobs N          shard the cases over N worker threads (0 = all
                      cores; default: 1); findings are bit-identical
                      for any value
    --shrink          shrink failing cases before writing reproducers
                      (default: on)
    --no-shrink       report unshrunk failing systems
    --out-dir DIR     directory for .tg reproducers (default: fuzz-failures;
                      --out is accepted as an alias)
    --bounded P       probability in [0, 1] that a generated objective
                      carries a time bound `<=T` (default: 0); bounded
                      cases also run the bound-monotonicity oracle
    --max-states N    per-engine exploration budget (default: 20000)
    --zone-rounds N   zone-algebra / pred-t rounds per case (default: 2)
    --zone-samples N  sampled valuations per zone round (default: 24)

EXIT STATUS:
    0  every oracle was clean on every case
    1  at least one divergence was found (reproducers in --out)
    2  usage error
";

/// Parsed arguments of `tiga fuzz`.
#[derive(Clone, Debug)]
pub struct FuzzArgs {
    /// Campaign options passed to [`fuzz_campaign`].
    pub options: FuzzOptions,
    /// Where reproducers are written.
    pub out_dir: PathBuf,
}

/// Parses `tiga fuzz` arguments.
///
/// # Errors
///
/// Returns a usage message on unknown or malformed flags.
pub fn parse_args(args: &[String]) -> Result<FuzzArgs, String> {
    let mut args = args.to_vec();
    let mut options = FuzzOptions::default();
    if let Some(seed) = take_value(&mut args, "--seed")? {
        options.seed = parse_num(&seed, "--seed")?;
    }
    if let Some(count) = take_value(&mut args, "--count")? {
        options.count = parse_num(&count, "--count")?;
    }
    if let Some(jobs) = take_value(&mut args, "--jobs")? {
        options.jobs = parse_num(&jobs, "--jobs")?;
    }
    // `--shrink` is the default; the flag is still accepted so invocations
    // can be explicit about it.
    let _ = take_flag(&mut args, "--shrink");
    if take_flag(&mut args, "--no-shrink") {
        options.shrink = false;
    }
    if let Some(p) = take_value(&mut args, "--bounded")? {
        let prob: f64 = p
            .parse()
            .map_err(|_| format!("error: `--bounded` expects a probability, got `{p}`"))?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!(
                "error: `--bounded` expects a probability in [0, 1], got `{p}`"
            ));
        }
        options.gen.bound_prob = prob;
    }
    if let Some(n) = take_value(&mut args, "--max-states")? {
        options.engines.max_states = parse_num(&n, "--max-states")?;
    }
    if let Some(n) = take_value(&mut args, "--zone-rounds")? {
        options.zone_rounds = parse_num(&n, "--zone-rounds")?;
    }
    if let Some(n) = take_value(&mut args, "--zone-samples")? {
        options.zone_samples = parse_num(&n, "--zone-samples")?;
    }
    let out_dir = match (
        take_value(&mut args, "--out-dir")?,
        take_value(&mut args, "--out")?,
    ) {
        (Some(dir), None) | (None, Some(dir)) => PathBuf::from(dir),
        (None, None) => PathBuf::from("fuzz-failures"),
        (Some(_), Some(_)) => {
            return Err("error: `--out-dir` and `--out` are aliases; pass only one".to_string())
        }
    };
    reject_leftovers(&args, USAGE)?;
    Ok(FuzzArgs { options, out_dir })
}

/// Runs `tiga fuzz`, returning the rendered report and whether it was clean.
///
/// Reproducers are written to `args.out_dir` (created on demand) only when
/// there are failures.
///
/// # Errors
///
/// Returns a rendered error if a reproducer cannot be written.
pub fn run_fuzz(args: &FuzzArgs) -> Result<(String, bool), String> {
    let report = fuzz_campaign(&args.options, &mut |done, failures| {
        if done % 100 == 0 {
            crate::emit(&format!(
                "fuzz: {done}/{} cases, {failures} failure(s)",
                args.options.count
            ));
        }
    });
    let mut written = Vec::new();
    for failure in &report.failures {
        if let Some(tg) = &failure.reproducer {
            std::fs::create_dir_all(&args.out_dir)
                .map_err(|e| format!("error: cannot create `{}`: {e}", args.out_dir.display()))?;
            let path = args.out_dir.join(format!(
                "case{}_{:#x}_{}.tg",
                failure.case_index, failure.case_seed, failure.oracle
            ));
            std::fs::write(&path, tg)
                .map_err(|e| format!("error: cannot write `{}`: {e}", path.display()))?;
            written.push(path);
        }
    }
    Ok((
        render_report(&args.options, &report, &written),
        report.is_clean(),
    ))
}

fn render_report(options: &FuzzOptions, report: &FuzzReport, written: &[PathBuf]) -> String {
    let mut out = format!(
        "fuzz campaign: seed {} / {} cases\n\
         engine oracle: {} agreed ({} winning, {} losing; {} safety, {} bounded purposes), {} skipped\n\
         exec oracle: {} strategies executed ({} winning games unobservable), {}/{} mutants detected\n\
         failures: {}",
        options.seed,
        report.cases,
        report.agreed,
        report.winning,
        report.agreed - report.winning,
        report.safety,
        report.bounded,
        report.skipped,
        report.executed,
        report.unobservable,
        report.detected,
        report.mutants,
        report.failures.len(),
    );
    for failure in &report.failures {
        out.push_str(&format!(
            "\n[{}] case {} (seed {:#x}): {}",
            failure.oracle, failure.case_index, failure.case_seed, failure.detail
        ));
    }
    for path in written {
        out.push_str(&format!("\nreproducer written to {}", path.display()));
    }
    out
}

/// Entry point used by [`crate::run`].
pub(crate) fn main(args: &[String]) -> i32 {
    if wants_help(args) {
        crate::emit(USAGE.trim_end());
        return 0;
    }
    match parse_args(args) {
        Err(usage) => {
            eprintln!("{usage}");
            EXIT_USAGE
        }
        Ok(parsed) => match run_fuzz(&parsed) {
            Ok((report, clean)) => {
                crate::emit(&report);
                i32::from(!clean)
            }
            Err(report) => {
                eprintln!("{report}");
                crate::EXIT_FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_flags() {
        let args = parse_args(&strings(&[
            "--seed",
            "7",
            "--count",
            "25",
            "--jobs",
            "4",
            "--no-shrink",
            "--out",
            "/tmp/repro",
            "--max-states",
            "5000",
        ]))
        .unwrap();
        assert_eq!(args.options.seed, 7);
        assert_eq!(args.options.count, 25);
        assert_eq!(args.options.jobs, 4);
        assert!(!args.options.shrink);
        assert_eq!(args.options.engines.max_states, 5000);
        assert_eq!(args.out_dir, PathBuf::from("/tmp/repro"));
    }

    #[test]
    fn out_dir_flag_and_alias() {
        let args = parse_args(&strings(&["--out-dir", "/tmp/r2"])).unwrap();
        assert_eq!(args.out_dir, PathBuf::from("/tmp/r2"));
        assert!(parse_args(&strings(&["--out-dir", "/a", "--out", "/b"])).is_err());
    }

    #[test]
    fn defaults_and_rejections() {
        let args = parse_args(&[]).unwrap();
        assert_eq!(args.options.seed, 1);
        assert_eq!(args.options.jobs, 1);
        assert!(args.options.shrink);
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--count", "x"])).is_err());
        assert!(parse_args(&strings(&["stray"])).is_err());
    }

    #[test]
    fn tiny_campaign_is_clean() {
        // Unique per-process out dir: a leftover directory from an earlier
        // (failing) run or another user must not poison this assertion.
        let out_dir =
            std::env::temp_dir().join(format!("tiga-fuzz-test-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out_dir);
        let args = parse_args(&strings(&[
            "--count",
            "5",
            "--zone-rounds",
            "1",
            "--zone-samples",
            "8",
            "--out",
            out_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let (report, clean) = run_fuzz(&args).unwrap();
        assert!(clean, "{report}");
        assert!(report.contains("5 cases"), "{report}");
        // No failures → no reproducer directory.
        assert!(!args.out_dir.exists());
    }
}
