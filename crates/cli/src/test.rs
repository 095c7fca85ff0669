//! `tiga test` — synthesize a strategy and run a mutation campaign.

use crate::{load_model, parse_num, take_path, take_value, wants_help, EXIT_FAILURE, EXIT_USAGE};
use tiga_testing::{
    default_policies, generate_mutants, run_mutation_campaign_with, CampaignOptions,
    MutationConfig, TestConfig, TestHarness,
};

const USAGE: &str = "\
USAGE:
    tiga test <file.tg> [OPTIONS]

The file's system is the closed product (plant composed with its environment)
and its `control:` line is the test purpose.  A winning strategy is
synthesized, then executed against the conformant specification and a pool of
mutants under several output-timing policies.

OPTIONS:
    --spec <plant.tg>           plant-only model for tioco monitoring and
                                mutation (default: the product itself)
    --threads N                 worker threads (0 = all cores; results are
                                bit-identical for any thread count)
    --seed N                    campaign master seed
    --repetitions N             runs per implementation
    --max-mutants N             cap the generated mutant pool (0 = unlimited)
    --purpose '<control: ...>'  override the file's control: line
";

/// Parsed arguments of `tiga test`.
#[derive(Clone, Debug)]
pub struct TestArgs {
    /// Path to the closed product model.
    pub path: String,
    /// Optional plant-only specification.
    pub spec: Option<String>,
    /// Campaign scheduling and seeding.
    pub campaign: CampaignOptions,
    /// Mutant pool cap (0 = unlimited).
    pub max_mutants: usize,
    /// Objective override.
    pub purpose: Option<String>,
}

/// Parses `tiga test` arguments.
///
/// # Errors
///
/// Returns a usage message on unknown or malformed flags.
pub fn parse_args(args: &[String]) -> Result<TestArgs, String> {
    let mut args = args.to_vec();
    let mut campaign = CampaignOptions::default();
    if let Some(threads) = take_value(&mut args, "--threads")? {
        campaign.threads = parse_num(&threads, "--threads")?;
    }
    if let Some(seed) = take_value(&mut args, "--seed")? {
        campaign.master_seed = parse_num(&seed, "--seed")?;
    }
    if let Some(reps) = take_value(&mut args, "--repetitions")? {
        campaign.repetitions = parse_num(&reps, "--repetitions")?;
    }
    let max_mutants = match take_value(&mut args, "--max-mutants")? {
        None => 0,
        Some(n) => parse_num(&n, "--max-mutants")?,
    };
    let spec = take_value(&mut args, "--spec")?;
    let purpose = take_value(&mut args, "--purpose")?;
    let path = take_path(args, USAGE)?;
    Ok(TestArgs {
        path,
        spec,
        campaign,
        max_mutants,
        purpose,
    })
}

/// Runs `tiga test`, returning `(report, campaign_is_sound)`.
///
/// The boolean is `false` when a conformant implementation failed (a
/// soundness violation — this must never happen and fails the process).
///
/// # Errors
///
/// Returns a rendered diagnostic on parse, synthesis or execution failures.
pub fn run_test(args: &TestArgs) -> Result<(String, bool), String> {
    let model = load_model(&args.path)?;
    let purpose_text = match &args.purpose {
        Some(text) => text.clone(),
        None => model
            .purpose
            .as_ref()
            .map(tiga_lang::control_line)
            .ok_or_else(|| {
                format!(
                    "error: `{}` has no `control:` line; add one or pass --purpose",
                    model.system.name()
                )
            })?,
    };
    let spec = match &args.spec {
        None => model.system.clone(),
        Some(path) => load_model(path)?.system,
    };
    let mutation = MutationConfig {
        max_mutants: args.max_mutants,
        ..MutationConfig::default()
    };
    let mutants = generate_mutants(&spec, &mutation)
        .map_err(|e| format!("error: mutant generation failed: {e}"))?;
    let harness = TestHarness::synthesize(
        model.system.clone(),
        spec.clone(),
        &purpose_text,
        TestConfig::default(),
    )
    .map_err(|e| format!("error: cannot synthesize a test case: {e}"))?;
    let summary = run_mutation_campaign_with(
        &harness,
        &spec,
        &mutants,
        &default_policies(),
        &args.campaign,
    )
    .map_err(|e| format!("error: campaign failed: {e}"))?;
    let sound = summary.false_alarms() == 0;
    let mut report = format!(
        "model: {} ({})\npurpose: {purpose_text}\nstrategy_rules: {}\nmutants: {} (cap {})\n\n{summary}",
        model.system.name(),
        args.path,
        harness.strategy().rule_count(),
        mutants.len(),
        if args.max_mutants == 0 {
            "unlimited".to_string()
        } else {
            args.max_mutants.to_string()
        },
    );
    if !sound {
        report.push_str("\nSOUNDNESS VIOLATION: a conformant implementation failed\n");
    }
    Ok((report, sound))
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
        Ok(parsed) => match run_test(&parsed) {
            Ok((report, sound)) => {
                crate::emit(&report);
                i32::from(!sound)
            }
            Err(report) => {
                eprintln!("{report}");
                EXIT_FAILURE
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
    fn parses_campaign_flags() {
        let args = parse_args(&strings(&[
            "m.tg",
            "--threads",
            "2",
            "--seed",
            "7",
            "--repetitions",
            "3",
            "--max-mutants",
            "5",
        ]))
        .unwrap();
        assert_eq!(args.campaign.threads, 2);
        assert_eq!(args.campaign.master_seed, 7);
        assert_eq!(args.campaign.repetitions, 3);
        assert_eq!(args.max_mutants, 5);
        assert!(args.spec.is_none());
    }

    #[test]
    fn rejects_missing_file() {
        assert!(parse_args(&strings(&["--threads", "2"])).is_err());
    }
}
