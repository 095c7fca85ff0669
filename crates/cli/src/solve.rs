//! `tiga solve` — solve the timed game of a `.tg` model.

use crate::{
    load_model, parse_num, reject_leftovers, take_flag, take_value, wants_help, EXIT_FAILURE,
    EXIT_USAGE,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tiga_solver::json::Escaped;
use tiga_solver::{solve, GameSolution, SolveEngine, SolveOptions, Strategy};
use tiga_tctl::TestPurpose;

const USAGE: &str = "\
USAGE:
    tiga solve <file.tg> [OPTIONS]

OPTIONS:
    --engine otfur|jacobi            fixpoint engine (default: otfur)
    --exhaustive                     disable early termination (propagate the
                                     full winning sets even once the initial
                                     state is decided)
    --no-strategy                    skip strategy extraction
    --max-rounds N                   fixpoint round / reevaluation budget
    --jobs N                         worker threads for the intra-solve
                                     parallel phases; 0 = all cores, default 1
                                     (results are identical for any N)
    --purpose '<control: ...>'       override the file's control: line
    --expect winning|losing          exit non-zero unless the verdict matches
    --show-strategy                  print the synthesized strategy listing
    --stats-json                     emit the full solver statistics as one
                                     JSON object instead of the text report
    --emit-strategy <path>           write the verdict and synthesized
                                     strategy to <path> in the versioned
                                     `tiga-strategy v1` text format
    --emit-controller <path>         minimize the strategy and write it to
                                     <path> in the versioned
                                     `tiga-controller v1` format
";

/// Parsed arguments of `tiga solve`.
#[derive(Clone, Debug)]
pub struct SolveArgs {
    /// Path to the `.tg` model.
    pub path: String,
    /// Solver options assembled from the flags (including the engine).
    pub options: SolveOptions,
    /// Objective override (otherwise the file's `control:` line is used).
    pub purpose: Option<String>,
    /// Fail unless the verdict matches (`Some(true)` = expect winning).
    pub expect_winning: Option<bool>,
    /// Include the strategy listing in the report.
    pub show_strategy: bool,
    /// Emit the statistics as a JSON object instead of the text report.
    pub stats_json: bool,
    /// Write the verdict + strategy in the `tiga-strategy v1` format here.
    pub emit_strategy: Option<String>,
    /// Write the minimized controller in the `tiga-controller v1` format
    /// here.
    pub emit_controller: Option<String>,
}

/// Parses `tiga solve` arguments.
///
/// # Errors
///
/// Returns a usage message on unknown or malformed flags.
pub fn parse_args(args: &[String]) -> Result<SolveArgs, String> {
    let mut args = args.to_vec();
    let engine = match take_value(&mut args, "--engine")? {
        None => SolveEngine::default(),
        Some(name) => SolveEngine::from_name(&name).map_err(|e| format!("error: {e}"))?,
    };
    let mut options = SolveOptions {
        engine,
        ..SolveOptions::default()
    };
    if take_flag(&mut args, "--exhaustive") {
        options.early_termination = false;
    }
    if take_flag(&mut args, "--no-strategy") {
        options.extract_strategy = false;
    }
    if let Some(rounds) = take_value(&mut args, "--max-rounds")? {
        options.max_rounds = parse_num(&rounds, "--max-rounds")?;
    }
    if let Some(jobs) = take_value(&mut args, "--jobs")? {
        options.jobs = parse_num(&jobs, "--jobs")?;
    }
    let purpose = take_value(&mut args, "--purpose")?;
    let expect_winning = match take_value(&mut args, "--expect")?.as_deref() {
        None => None,
        Some("winning") => Some(true),
        Some("losing") => Some(false),
        Some(other) => {
            return Err(format!(
                "error: `--expect` takes `winning` or `losing`, got `{other}`"
            ))
        }
    };
    let show_strategy = take_flag(&mut args, "--show-strategy");
    let stats_json = take_flag(&mut args, "--stats-json");
    let emit_strategy = take_value(&mut args, "--emit-strategy")?;
    let emit_controller = take_value(&mut args, "--emit-controller")?;
    let path = if args.is_empty() {
        return Err(format!("error: missing <file.tg>\n\n{USAGE}"));
    } else {
        args.remove(0)
    };
    reject_leftovers(&args, USAGE)?;
    Ok(SolveArgs {
        path,
        options,
        purpose,
        expect_winning,
        show_strategy,
        stats_json,
        emit_strategy,
        emit_controller,
    })
}

/// Runs `tiga solve`, returning the rendered report.
///
/// # Errors
///
/// Returns a rendered diagnostic (parse error with caret, solver error, or
/// verdict mismatch under `--expect`).
pub fn run_solve(args: &SolveArgs) -> Result<String, String> {
    report_solved(args, &mut solve_model(args)?)
}

/// Everything a solve builds besides its report: the model, the objective,
/// the solution (graph, winning sets, strategy) and the minimized strategy
/// the controller is printed from.
struct Solved {
    model: tiga_lang::TgModel,
    purpose: TestPurpose,
    solution: GameSolution,
    minimized: Option<Strategy>,
}

/// Wall-clock time of the phases after the solve.
#[derive(Default)]
struct PostSolveTimes {
    minimize: Duration,
    /// Printing and writing `--emit-strategy` and `--emit-controller`.
    emit: Duration,
}

/// Loads the model, resolves the objective and solves the game.
fn solve_model(args: &SolveArgs) -> Result<Solved, String> {
    let model = load_model(&args.path)?;
    let purpose = resolve_purpose(&model, args.purpose.as_deref()).map_err(|err| match err {
        PurposeError::Invalid(e) => format!("error: bad --purpose: {e}"),
        PurposeError::Missing => format!(
            "error: `{}` has no `control:` line; add one or pass --purpose",
            model.system.name()
        ),
    })?;
    let solution = solve(&model.system, &purpose, &args.options)
        .map_err(|e| format!("error: solver failed: {e}"))?;
    Ok(Solved {
        model,
        purpose,
        solution,
        minimized: None,
    })
}

/// Emits the requested files and renders the report of a finished solve.
fn report_solved(args: &SolveArgs, solved: &mut Solved) -> Result<String, String> {
    let Solved {
        model,
        purpose,
        solution,
        minimized,
    } = solved;
    let mut times = PostSolveTimes::default();
    if let Some(path) = &args.emit_strategy {
        let start = Instant::now();
        let text = tiga_solver::print_strategy(
            model.system.name(),
            solution.winning_from_initial,
            solution.strategy.as_ref(),
        );
        std::fs::write(path, text)
            .map_err(|e| format!("error: cannot write strategy to `{path}`: {e}"))?;
        times.emit += start.elapsed();
    }
    // Minimize once, shared by `--emit-controller` and the controller
    // fields of `--stats-json`.  Both only print and count the minimized
    // strategy, so nothing compiles it.
    if args.emit_controller.is_some() || args.stats_json {
        if let Some(strategy) = &solution.strategy {
            let start = Instant::now();
            *minimized = Some(tiga_solver::minimize_strategy(strategy));
            times.minimize = start.elapsed();
        }
    }
    if let Some(path) = &args.emit_controller {
        let start = Instant::now();
        let text = tiga_solver::print_controller_source(
            model.system.name(),
            solution.winning_from_initial,
            minimized.as_ref(),
        );
        std::fs::write(path, text)
            .map_err(|e| format!("error: cannot write controller to `{path}`: {e}"))?;
        times.emit += start.elapsed();
    }
    if args.stats_json {
        let report = render_stats_json(&model.system, args, solution, minimized.as_ref(), &times);
        if let Some(expected) = args.expect_winning {
            if solution.winning_from_initial != expected {
                return Err(format!(
                    "{report}\nerror: expected the initial state to be {}, but it is {}",
                    verdict_name(expected),
                    verdict_name(solution.winning_from_initial)
                ));
            }
        }
        return Ok(report);
    }
    let mut report = render_report(&args.path, &model.system, purpose, args, solution);
    if args.show_strategy {
        if let Some(strategy) = &solution.strategy {
            // A bounded strategy plays on the `#t`-augmented product; render
            // it against that system so the extra clock dimension has a name.
            let augmented = tiga_solver::bounded_system(&model.system, purpose)
                .map_err(|e| format!("error: solver failed: {e}"))?;
            let display_system = augmented.as_ref().unwrap_or(&model.system);
            report.push('\n');
            report.push_str(&strategy.display(display_system).to_string());
        }
    }
    if let Some(expected) = args.expect_winning {
        if solution.winning_from_initial != expected {
            return Err(format!(
                "{report}\nerror: expected the initial state to be {}, but it is {}",
                verdict_name(expected),
                verdict_name(solution.winning_from_initial)
            ));
        }
    }
    Ok(report)
}

fn verdict_name(winning: bool) -> &'static str {
    if winning {
        "WINNING"
    } else {
        "LOSING"
    }
}

/// Why [`resolve_purpose`] found no objective.  The CLI and `tiga serve`
/// take the override from different places (the `--purpose` flag, the
/// request's `purpose` field), so each words the error itself.
pub(crate) enum PurposeError {
    /// The override does not parse or resolve against the model.
    Invalid(tiga_tctl::LangError),
    /// There is no override and the model has no `control:` line.
    Missing,
}

/// Resolves the objective: an explicit `control:` override wins, otherwise
/// the model file's own `control:` line.  Shared with `tiga serve`.
pub(crate) fn resolve_purpose(
    model: &tiga_lang::TgModel,
    override_text: Option<&str>,
) -> Result<TestPurpose, PurposeError> {
    match override_text {
        Some(text) => TestPurpose::parse(text, &model.system).map_err(PurposeError::Invalid),
        None => model.purpose.clone().ok_or(PurposeError::Missing),
    }
}

fn render_report(
    path: &str,
    system: &tiga_model::System,
    purpose: &TestPurpose,
    args: &SolveArgs,
    solution: &GameSolution,
) -> String {
    let stats = solution.stats();
    let timed = &solution.timed;
    let strategy_rules = solution
        .strategy
        .as_ref()
        .map_or("-".to_string(), |s| s.rule_count().to_string());
    let mut report = format!(
        "model: {} ({path})\n\
         purpose: {}\n\
         engine: {}\n\
         verdict: {}\n",
        system.name(),
        tiga_lang::control_line(purpose),
        args.options.engine.name(),
        verdict_name(solution.winning_from_initial),
    );
    for (name, value) in stats.counters() {
        let _ = writeln!(report, "{name}: {value}");
    }
    let _ = write!(
        report,
        "strategy_rules: {strategy_rules}\n\
         time: exploration {}us + fixpoint {}us = {}us",
        timed.exploration_time.as_micros(),
        timed.fixpoint_time.as_micros(),
        timed.total_time().as_micros(),
    );
    report
}

/// Renders the full [`tiga_solver::SolverStats`] (plus verdict, engine and
/// timing) as one flat JSON object, for scripted consumers of `--stats-json`.
/// `total_us` is exploration plus fixpoint; the phases after the solve
/// follow it.
fn render_stats_json(
    system: &tiga_model::System,
    args: &SolveArgs,
    solution: &GameSolution,
    minimized: Option<&Strategy>,
    times: &PostSolveTimes,
) -> String {
    let stats = solution.stats();
    let timed = &solution.timed;
    let strategy_rules = solution
        .strategy
        .as_ref()
        .map_or("null".to_string(), |s| s.rule_count().to_string());
    format!(
        "{{\"model\":\"{}\",\"engine\":\"{}\",\"winning\":{},{},\
         \"strategy_rules\":{},{},\
         \"exploration_us\":{},\"fixpoint_us\":{},\"total_us\":{},\
         \"extract_us\":{},\"minimize_us\":{},\"emit_us\":{}}}",
        Escaped(system.name()),
        args.options.engine.name(),
        solution.winning_from_initial,
        stats.json_fields(),
        strategy_rules,
        controller_json_fields(minimized),
        timed.exploration_time.as_micros(),
        timed.fixpoint_time.as_micros(),
        timed.total_time().as_micros(),
        timed.extraction_time.as_micros(),
        times.minimize.as_micros(),
        times.emit.as_micros(),
    )
}

/// The controller summary as JSON fields (no braces): the rule count after
/// minimization and the number of discrete states the controller decides in
/// (compiling builds one program per state of the minimized strategy), or
/// `null`s when no strategy was extracted.  Shared with the `tiga serve`
/// response payloads so both surfaces report the same block.
pub(crate) fn controller_json_fields(minimized: Option<&Strategy>) -> String {
    match minimized {
        Some(m) => format!(
            "\"minimized_rules\":{},\"controller_states\":{}",
            m.rule_count(),
            m.state_count()
        ),
        None => "\"minimized_rules\":null,\"controller_states\":null".to_string(),
    }
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
        Ok(parsed) => {
            let result = solve_model(&parsed).and_then(|mut solved| {
                let report = report_solved(&parsed, &mut solved);
                // The process exits right after this: the OS reclaims the
                // graph, the winning sets and the strategies faster than
                // their destructors would free them one allocation at a time.
                std::mem::forget(solved);
                report
            });
            match result {
                Ok(report) => {
                    crate::emit(&report);
                    0
                }
                Err(report) => {
                    eprintln!("{report}");
                    EXIT_FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_engine_and_flags() {
        let args = parse_args(&strings(&[
            "model.tg",
            "--engine",
            "jacobi",
            "--exhaustive",
            "--max-rounds",
            "42",
            "--expect",
            "winning",
        ]))
        .unwrap();
        assert_eq!(args.path, "model.tg");
        assert_eq!(args.options.engine, SolveEngine::Jacobi);
        assert!(!args.options.early_termination);
        assert_eq!(args.options.max_rounds, 42);
        assert_eq!(args.expect_winning, Some(true));
        assert_eq!(args.options.jobs, 1, "jobs defaults to sequential");
    }

    #[test]
    fn parses_jobs() {
        let args = parse_args(&strings(&["model.tg", "--jobs", "0"])).unwrap();
        assert_eq!(args.options.jobs, 0, "0 = all cores, as in `tiga fuzz`");
        let args = parse_args(&strings(&["model.tg", "--jobs", "4"])).unwrap();
        assert_eq!(args.options.jobs, 4);
        assert!(parse_args(&strings(&["model.tg", "--jobs", "many"])).is_err());
    }

    #[test]
    fn parses_json_flags() {
        let args = parse_args(&strings(&["model.tg"])).unwrap();
        assert!(!args.stats_json);
        let args = parse_args(&strings(&["model.tg", "--stats-json"])).unwrap();
        assert!(args.stats_json);
    }

    #[test]
    fn stats_json_reports_the_full_stats_block() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/tg/smart_light.tg");
        let args = parse_args(&strings(&[path.to_str().unwrap(), "--stats-json"])).unwrap();
        let report = run_solve(&args).unwrap();
        assert!(report.starts_with('{') && report.ends_with('}'), "{report}");
        for key in [
            "\"model\":\"smart-light\"",
            "\"engine\":\"otfur\"",
            "\"winning\":",
            "\"strategy_rules\":",
            "\"minimized_rules\":",
            "\"controller_states\":",
            "\"total_us\":",
        ] {
            assert!(report.contains(key), "missing {key} in {report}");
        }
        // The post-solve phases follow `total_us`; a reachability strategy
        // is recorded during the fixpoint, so there is no extraction phase.
        let json = tiga_solver::json::parse(&report).unwrap();
        let micros = |key: &str| json.field(key).unwrap().usize_field(key).unwrap();
        // Whole microseconds: the total may round up past the sum.
        let parts = micros("exploration_us") + micros("fixpoint_us");
        assert!(
            (parts..=parts + 1).contains(&micros("total_us")),
            "{report}"
        );
        assert_eq!(micros("extract_us"), 0, "{report}");
        for key in ["minimize_us", "emit_us"] {
            let _ = micros(key);
        }
        // Nothing is compiled, so there is no compile phase to time.
        assert!(!report.contains("\"compile_us\""), "{report}");
        assert!(report.ends_with(&format!("\"emit_us\":{}}}", micros("emit_us"))));
        // The 13 counters read back as the solver's own.
        let model = load_model(path.to_str().unwrap()).unwrap();
        let purpose = model.purpose.expect("the file has a control: line");
        let solution = solve(&model.system, &purpose, &args.options).unwrap();
        let json = tiga_solver::json::parse(&report).unwrap();
        let stats = tiga_solver::SolverStats::from_json(&json);
        assert_eq!(stats.as_ref(), Ok(solution.stats()));
        assert!(!report.contains("\"interned_zones\":0,"), "{report}");
    }

    #[test]
    fn emit_strategy_writes_a_roundtrippable_file() {
        let model = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/tg/smart_light.tg");
        let out = std::env::temp_dir().join(format!(
            "tiga-emit-strategy-test-{}.strategy",
            std::process::id()
        ));
        let args = parse_args(&strings(&[
            model.to_str().unwrap(),
            "--emit-strategy",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(args.emit_strategy.as_deref(), out.to_str());
        run_solve(&args).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let file = tiga_solver::parse_strategy(&text).unwrap();
        assert_eq!(file.model, "smart-light");
        assert!(file.winning);
        let strategy = file.strategy.expect("winning game has a strategy");
        assert!(strategy.rule_count() > 0);
        // The file is a serializer fixpoint.
        assert_eq!(
            tiga_solver::print_strategy(&file.model, file.winning, Some(&strategy)),
            text
        );
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn stats_json_minimized_rules_never_exceed_strategy_rules() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/tg/smart_light.tg");
        let args = parse_args(&strings(&[path.to_str().unwrap(), "--stats-json"])).unwrap();
        let report = run_solve(&args).unwrap();
        let json = tiga_solver::json::parse(&report).unwrap();
        let field = |key: &str| json.field(key).unwrap().usize_field(key).unwrap();
        let strategy_rules = field("strategy_rules");
        let minimized = field("minimized_rules");
        let states = field("controller_states");
        assert!(minimized <= strategy_rules, "{report}");
        assert!(minimized >= 1 && states >= 1, "{report}");
        // Without strategy extraction both controller fields are null.
        let args = parse_args(&strings(&[
            path.to_str().unwrap(),
            "--stats-json",
            "--no-strategy",
        ]))
        .unwrap();
        let report = run_solve(&args).unwrap();
        assert!(
            report.contains("\"minimized_rules\":null,\"controller_states\":null"),
            "{report}"
        );
    }

    #[test]
    fn emit_controller_writes_a_roundtrippable_file() {
        let model = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/tg/smart_light.tg");
        let out = std::env::temp_dir().join(format!(
            "tiga-emit-controller-test-{}.controller",
            std::process::id()
        ));
        let args = parse_args(&strings(&[
            model.to_str().unwrap(),
            "--emit-controller",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(args.emit_controller.as_deref(), out.to_str());
        run_solve(&args).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with(tiga_solver::CONTROLLER_FORMAT_HEADER));
        let file = tiga_solver::parse_controller(&text).unwrap();
        assert_eq!(file.model, "smart-light");
        assert!(file.winning);
        let controller = file.controller.expect("winning game has a controller");
        assert!(controller.rule_count() > 0);
        // The file is a serializer fixpoint.
        assert_eq!(
            tiga_solver::print_controller(&file.model, file.winning, Some(&controller)),
            text
        );
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn purpose_errors_carry_byte_spans() {
        let model = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/tg/smart_light.tg");
        let model = model.to_str().unwrap();
        let wide = "control: A<> forall (i: 0..99999999999) true";
        let nested = "control: A<> forall (i: 1024) forall (j: 1025) (i >= 0)";
        let at = wide.find("0..").unwrap();
        for (purpose, message, span) in [
            (
                wide,
                "quantifier range 0..99999999999 has 100000000000 values",
                (at, at + "0..99999999999".len()),
            ),
            (
                nested,
                "quantifiers expand into 1049600 instances",
                ("control: A<> ".len(), nested.len()),
            ),
        ] {
            let args = parse_args(&strings(&[model, "--purpose", purpose])).unwrap();
            let err = run_solve(&args).unwrap_err();
            assert!(
                err.starts_with(&format!(
                    "error: bad --purpose: test-purpose error: {message}"
                )),
                "{err}"
            );
            assert!(
                err.ends_with(&format!("(bytes {}..{})", span.0, span.1)),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&strings(&["m.tg", "--engine", "magic"])).is_err());
        // The engine set is otfur and jacobi; the error lists both.
        let err = parse_args(&strings(&["m.tg", "--engine", "worklist"])).unwrap_err();
        assert_eq!(
            err,
            "error: unknown engine `worklist` (expected otfur, jacobi)"
        );
        assert_eq!(
            main(&strings(&["m.tg", "--engine", "worklist"])),
            EXIT_USAGE
        );
        assert!(parse_args(&strings(&[])).is_err());
        assert!(parse_args(&strings(&["m.tg", "--wat"])).is_err());
        assert!(parse_args(&strings(&["m.tg", "--expect", "maybe"])).is_err());
    }
}
