//! Roundtrip and determinism pins for the `tiga-strategy v2` serializer.
//!
//! Three invariants, over the whole model zoo (reachability *and* safety
//! purposes), fuzz-generated games, and the checked-in goldens:
//!
//! * `parse(print(s)) ≡ s` exactly — the text format is a lossless encoding
//!   of the synthesized strategy (zones compared cell-by-cell);
//! * the printer is a fixpoint: `print(parse(text)) == text` byte-for-byte,
//!   which is what lets CI regenerate `examples/strategies/` and
//!   `examples/controllers/` and `diff -ru` against the checked-in files;
//! * a second solve, whose zone store hashes with fresh keys, serializes
//!   byte-identically — the strategy (not just the verdict) is part of the
//!   solver's determinism contract, so a cached answer is the answer a
//!   fresh solve would give.
//!
//! The printer writes its tokens without `fmt`; on generated strategies it
//! must match a `write!`-based reference printer kept here byte for byte.
//! Generated strategies repeat rule lists across states, which the strategy
//! stores and the text prints once: printing, parsing and every query must
//! still answer per state exactly as the lists that were added.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tiga_bench::{fuzz_matrix_instances, model_zoo, Solver, ZooInstance, SOLVERS};
use tiga_dbm::{max_constant_for, Bound, Dbm, MAX_CONSTANT};
use tiga_model::{AutomatonId, ChannelId, DiscreteState, EdgeId, JointEdge, LocationId};
use tiga_solver::{
    parse_controller, parse_strategy, print_controller, print_strategy, solve, CompiledController,
    Decision, SolveOptions, Strategy, StrategyDecision, StrategyRule, CONTROLLER_FORMAT_HEADER,
    STRATEGY_FORMAT_HEADER,
};

/// Solves `instance` and returns the serialized strategy file.
fn serialized(instance: &ZooInstance, solve: Solver, opts: &SolveOptions) -> String {
    let solution = solve(&instance.system, &instance.purpose, opts).unwrap_or_else(|e| {
        panic!(
            "{}/{} fails to solve: {e}",
            instance.model, instance.purpose_name
        )
    });
    print_strategy(
        instance.system.name(),
        solution.winning_from_initial,
        solution.strategy.as_ref(),
    )
}

/// The full determinism × roundtrip sweep for one instance and solver.
fn check_instance(instance: &ZooInstance, (engine, solve): (&str, Solver)) {
    let label = format!("{}/{} ({engine})", instance.model, instance.purpose_name);
    let baseline = serialized(instance, solve, &SolveOptions::default());

    // Exact roundtrip and printer fixpoint.
    let parsed = parse_strategy(&baseline).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(parsed.model, instance.system.name(), "{label}");
    let reprinted = print_strategy(&parsed.model, parsed.winning, parsed.strategy.as_ref());
    assert_eq!(reprinted, baseline, "{label}: printer must be a fixpoint");

    // A second solve serializes identically.
    let text = serialized(instance, solve, &SolveOptions::default());
    assert_eq!(
        text, baseline,
        "{label}: a second solve must serialize bit-identically"
    );
}

#[test]
fn zoo_strategies_roundtrip_and_are_jobs_invariant() {
    for instance in model_zoo() {
        // The detailed lep4 instances are the zoo's non-toy workload; their
        // eager-engine sweep is minutes of work, so they run otfur only —
        // the solver that actually feeds `tiga serve` and the goldens.
        let solvers = if instance.model == "lep4" {
            &SOLVERS[..1]
        } else {
            &SOLVERS[..]
        };
        for &solver in solvers {
            check_instance(&instance, solver);
        }
    }
}

#[test]
fn fuzz_generated_strategies_roundtrip_and_are_jobs_invariant() {
    let instances = fuzz_matrix_instances();
    assert!(!instances.is_empty());
    let mut winning = 0;
    for instance in &instances {
        check_instance(instance, SOLVERS[0]);
        let solution = solve(
            &instance.system,
            &instance.purpose,
            &SolveOptions::default(),
        )
        .expect("solves");
        winning += usize::from(solution.winning_from_initial);
    }
    assert!(
        winning > 0,
        "the pinned fuzz set must exercise at least one winning strategy"
    );
}

fn examples_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(kind)
}

/// Reads every `*.<extension>` golden under `examples/<kind>/`, checks that
/// `reprint(text)` gives its bytes back and that no rule list is printed
/// twice, and returns how many goldens there were.
fn check_goldens(kind: &str, extension: &str, reprint: impl Fn(&str) -> String) -> usize {
    let mut count = 0;
    let dir = examples_dir(kind);
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|e| e != extension) {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("golden is readable");
        assert_eq!(
            reprint(&text),
            text,
            "{name}: the checked-in golden must be an exact serializer fixpoint"
        );
        let mut lists: HashSet<String> = HashSet::new();
        for list in text.split("\nstate ").skip(1) {
            let rules: String = list
                .lines()
                .skip(1)
                .take_while(|line| line.starts_with("rule "))
                .collect::<Vec<_>>()
                .join("\n");
            assert!(
                rules.is_empty() || lists.insert(rules),
                "{name}: a rule list is printed twice"
            );
        }
        count += 1;
    }
    count
}

#[test]
fn checked_in_goldens_are_serializer_fixpoints() {
    let count = check_goldens("strategies", "strategy", |text| {
        let parsed = parse_strategy(text).unwrap_or_else(|e| panic!("{e}"));
        print_strategy(&parsed.model, parsed.winning, parsed.strategy.as_ref())
    });
    assert!(
        count >= 8,
        "expected ≥ 8 golden strategy files, found {count}"
    );
}

#[test]
fn checked_in_controller_goldens_are_serializer_fixpoints() {
    let count = check_goldens("controllers", "controller", |text| {
        let parsed = parse_controller(text).unwrap_or_else(|e| panic!("{e}"));
        print_controller(&parsed.model, parsed.winning, parsed.controller.as_ref())
    });
    assert!(
        count >= 8,
        "expected ≥ 8 golden controller files, found {count}"
    );
}

/// `text` with its line `at` (1-based) replaced by `with`.
fn edit_line(text: &str, at: usize, with: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines[at - 1] = with;
    lines.join("\n") + "\n"
}

#[test]
fn broken_references_and_v1_headers_are_refused_with_their_line() {
    let strategy = std::fs::read_to_string(examples_dir("strategies").join("lep3.strategy"))
        .expect("golden is readable");
    let controller = std::fs::read_to_string(examples_dir("controllers").join("lep3.controller"))
        .expect("golden is readable");
    for (text, parse) in [
        (
            &strategy,
            (|t| parse_strategy(t).map(drop)) as fn(&str) -> Result<(), String>,
        ),
        (&controller, |t| parse_controller(t).map(drop)),
    ] {
        // The first reference, and the rule line just above its state.
        let lines: Vec<&str> = text.lines().collect();
        let at = 1 + lines
            .iter()
            .position(|l| l.starts_with("same "))
            .expect("a `same` line");
        let rule = lines[at - 3];
        assert!(rule.starts_with("rule "), "{rule}");
        // Every state before the referencing one printed its own list.
        let printed = lines[..at]
            .iter()
            .filter(|l| l.starts_with("state "))
            .count()
            - 1;
        let dangling = format!("same {printed}");
        let header = lines[0].replace(" v2", " v1");
        let cases = [
            (
                edit_line(text, at, &dangling),
                format!(
                    "line {at}: `{dangling}` names no earlier rule list ({printed} printed so far)"
                ),
            ),
            (
                edit_line(text, at, &format!("{}\n{rule}", lines[at - 1])),
                format!("line {}: `rule` after the state's `same`", at + 1),
            ),
            (
                edit_line(text, at, &format!("{0}\n{0}", lines[at - 1])),
                format!("line {}: a second `same` for one state", at + 1),
            ),
            (
                edit_line(text, 1, &header),
                format!("line 1: expected header `{}`, got `{header}`", lines[0]),
            ),
        ];
        for (bad, message) in cases {
            let error = parse(&bad).unwrap_err();
            assert_eq!(error, message);
        }
    }
}

#[test]
fn strategies_at_the_largest_model_constants_roundtrip() {
    // The coffee machine with every constant and the time bound scaled to
    // the largest its two clocks and the bound's own clock allow.
    let big = i64::from(max_constant_for(3));
    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/tg/coffee_machine.bounded.tg"),
    )
    .expect("the example is readable");
    let scaled = source
        .replace("x <= 12 }", &format!("x <= {big} }}"))
        .replace("x <= 5 }", &format!("x <= {} }}", big - 7))
        .replace("x < 10;", &format!("x < {};", big - 2))
        .replace("x >= 10;", &format!("x >= {};", big - 2))
        .replace("x >= 3;", &format!("x >= {};", big / 2))
        .replace("z >= 1;", &format!("z >= {};", big / 3));
    assert_eq!(scaled.matches(&big.to_string()).count(), 1);
    let mut rules = 0;
    for control in [
        format!("control: A[]<={big} not Machine.Refunded"),
        format!("control: A<><={big} Machine.Served"),
    ] {
        let text = scaled.replace("control: A[]<=30 not Machine.Refunded", &control);
        assert_ne!(text, scaled, "the objective line is replaced");
        let model = tiga_lang::parse_model(&text).unwrap_or_else(|e| panic!("{control}: {e}"));
        let purpose = model.purpose.expect("the file has an objective");
        for (engine, solve) in SOLVERS {
            let solution =
                solve(&model.system, &purpose, &SolveOptions::default()).expect("solves");
            let strategy = solution.strategy.as_ref();
            rules += strategy.map_or(0, Strategy::rule_count);
            let printed = print_strategy("ceiling", solution.winning_from_initial, strategy);
            let parsed =
                parse_strategy(&printed).unwrap_or_else(|e| panic!("{control} ({engine}): {e}"));
            assert_eq!(parsed.strategy.as_ref(), strategy, "{control}");
        }
    }
    assert!(rules > 0, "no objective produced a strategy");
}

/// The `tiga-strategy v2` printer as `write!` and the `Display` of
/// [`Bound`] render it: the reference the token-writing printer must match.
/// It numbers the lists by comparing their contents, not through the
/// strategy's own sharing.
fn reference_print(
    header: &str,
    model: &str,
    winning: bool,
    strategy: Option<&Strategy>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "model {model}");
    let _ = writeln!(
        out,
        "verdict {}",
        if winning { "winning" } else { "losing" }
    );
    let Some(strategy) = strategy else {
        out.push_str("strategy none\nend\n");
        return out;
    };
    let _ = writeln!(out, "dim {}", strategy.dim());
    let mut states: Vec<(&DiscreteState, &[StrategyRule])> = strategy.iter().collect();
    states.sort_by(|(a, _), (b, _)| (&a.locations, &a.vars).cmp(&(&b.locations, &b.vars)));
    let mut printed: Vec<&[StrategyRule]> = Vec::new();
    for (discrete, rules) in states {
        out.push_str("state");
        for loc in &discrete.locations {
            let _ = write!(out, " {}", loc.index());
        }
        out.push_str(" /");
        for var in &discrete.vars {
            let _ = write!(out, " {var}");
        }
        out.push('\n');
        if let Some(number) = printed.iter().position(|list| *list == rules) {
            let _ = writeln!(out, "same {number}");
            continue;
        }
        printed.push(rules);
        for rule in rules {
            let _ = write!(out, "rule {} ", rule.rank);
            match &rule.decision {
                Decision::Wait => out.push_str("wait"),
                Decision::Take(JointEdge::Internal { automaton, edge }) => {
                    let _ = write!(out, "take tau {} {}", automaton.index(), edge.index());
                }
                Decision::Take(JointEdge::Sync {
                    channel,
                    output,
                    input,
                }) => {
                    let _ = write!(
                        out,
                        "take sync {} {} {} {} {}",
                        channel.index(),
                        output.0.index(),
                        output.1.index(),
                        input.0.index(),
                        input.1.index()
                    );
                }
            }
            for i in 0..rule.zone.dim() {
                for j in 0..rule.zone.dim() {
                    let _ = write!(out, " {}", rule.zone.at(i, j));
                }
            }
            out.push('\n');
        }
    }
    out.push_str("end\n");
    out
}

/// A canonical non-empty zone from random constraints with negative and
/// positive constants, including the extremes `±max_constant_for(clocks)`
/// that a model over this many clocks may use.  One-clock zones also draw
/// `±MAX_CONSTANT`, the encoding's own limit, which no closure sum exceeds
/// with a single clock.
fn random_zone(rng: &mut StdRng, dim: usize) -> Dbm {
    let mut zone = Dbm::universe(dim);
    if dim < 2 {
        return zone;
    }
    let extreme = max_constant_for(dim - 1);
    for _ in 0..rng.gen_range(0..=2 * dim) {
        let i = rng.gen_range(0..dim);
        let j = rng.gen_range(0..dim);
        if i == j {
            continue;
        }
        let m = match rng.gen_range(0..6) {
            0 => extreme,
            1 => -extreme,
            2 if dim == 2 => MAX_CONSTANT,
            3 if dim == 2 => -MAX_CONSTANT,
            _ => rng.gen_range(-120..=120),
        };
        let mut tighter = zone.clone();
        if tighter.constrain(i, j, Bound::new(m, rng.gen_bool(0.5))) {
            zone = tighter;
        }
    }
    zone
}

fn random_decision(rng: &mut StdRng) -> Decision {
    let mut id = || rng.gen_range(0..=150_usize);
    match id() % 3 {
        0 => Decision::Wait,
        1 => Decision::Take(JointEdge::Internal {
            automaton: AutomatonId::from_index(id()),
            edge: EdgeId::from_index(id()),
        }),
        _ => Decision::Take(JointEdge::Sync {
            channel: ChannelId::from_index(id()),
            output: (AutomatonId::from_index(id()), EdgeId::from_index(id())),
            input: (AutomatonId::from_index(id()), EdgeId::from_index(id())),
        }),
    }
}

/// A random strategy: multi-digit location ids, negative variables, ranks
/// up to `u32::MAX`, both joint-edge variants and extreme bounds.  Many
/// states repeat an earlier state's rule list, as extracted strategies do.
/// Also returns each state's rules as added, the per-state reference.
fn random_strategy(rng: &mut StdRng) -> (Strategy, Vec<(DiscreteState, Vec<StrategyRule>)>) {
    let dim = rng.gen_range(1..=4);
    let mut strategy = Strategy::new(dim);
    let mut reference: Vec<(DiscreteState, Vec<StrategyRule>)> = Vec::new();
    for _ in 0..rng.gen_range(0..=8) {
        let discrete = DiscreteState {
            locations: (0..rng.gen_range(1..=3))
                .map(|_| LocationId::from_index(rng.gen_range(0..=1200)))
                .collect(),
            vars: (0..rng.gen_range(0..=3))
                .map(|_| rng.gen_range(-1000..=1000))
                .collect(),
        };
        let rules: Vec<StrategyRule> = if !reference.is_empty() && rng.gen_bool(0.5) {
            let (_, earlier) = &reference[rng.gen_range(0..reference.len())];
            earlier.clone()
        } else {
            (0..rng.gen_range(1..=4))
                .map(|_| StrategyRule {
                    rank: if rng.gen_bool(0.1) {
                        u32::MAX
                    } else {
                        rng.gen_range(0..=40)
                    },
                    zone: random_zone(rng, dim),
                    decision: random_decision(rng),
                })
                .collect()
        };
        match reference.iter_mut().find(|(d, _)| *d == discrete) {
            Some((_, list)) => list.extend(rules.iter().cloned()),
            None => reference.push((discrete.clone(), rules.clone())),
        }
        strategy.add_rules(discrete, rules);
    }
    (strategy, reference)
}

/// The DBM point of tick-valued clocks (reference clock first).
fn point(ticks: &[i64]) -> Vec<i64> {
    std::iter::once(0).chain(ticks.iter().copied()).collect()
}

/// `rank_of` over one state's rules, straight from its definition.
fn reference_rank(rules: &[StrategyRule], ticks: &[i64], scale: i64) -> Option<u32> {
    rules
        .iter()
        .filter(|r| r.decision == Decision::Wait && r.zone.contains_at(&point(ticks), scale))
        .map(|r| r.rank)
        .min()
}

/// `decide` over one state's rules: the first lowest-rank containing take
/// whose rank is at most the wait rank, otherwise wait.
fn reference_decide<'a>(
    rules: &'a [StrategyRule],
    ticks: &[i64],
    scale: i64,
) -> Option<StrategyDecision<'a>> {
    let rank = reference_rank(rules, ticks, scale)?;
    let mut best: Option<&StrategyRule> = None;
    for rule in rules {
        if let Decision::Take(_) = rule.decision {
            if rule.rank <= rank
                && rule.zone.contains_at(&point(ticks), scale)
                && best.is_none_or(|b| rule.rank < b.rank)
            {
                best = Some(rule);
            }
        }
    }
    Some(match best.map(|rule| &rule.decision) {
        Some(Decision::Take(joint)) => StrategyDecision::Take(joint),
        _ => StrategyDecision::Wait { rank },
    })
}

/// `next_take_delay` over one state's rules: the earliest delay into a take
/// whose rank is at most the wait rank.
fn reference_next_take_delay(rules: &[StrategyRule], ticks: &[i64], scale: i64) -> Option<i64> {
    let rank = reference_rank(rules, ticks, scale)?;
    rules
        .iter()
        .filter(|r| matches!(r.decision, Decision::Take(_)) && r.rank <= rank)
        .filter_map(|r| r.zone.delay_window_at(&point(ticks), scale)?.pick())
        .min()
}

/// Valuations at and around every unary bound of the rules' zones, plus
/// random ones, in ticks of `scale`.
fn probe_valuations(
    rng: &mut StdRng,
    rules: &[StrategyRule],
    dim: usize,
    scale: i64,
) -> Vec<Vec<i64>> {
    let mut corners: Vec<i64> = vec![0];
    for rule in rules {
        for clock in 1..dim {
            for bound in [rule.zone.at(clock, 0), rule.zone.at(0, clock)] {
                if let Some(m) = bound.constant() {
                    let at = i64::from(m).abs() * scale;
                    corners.extend([at.saturating_sub(1).max(0), at, at + 1]);
                }
            }
        }
    }
    let mut valuations: Vec<Vec<i64>> = corners
        .iter()
        .map(|&corner| vec![corner; dim - 1])
        .collect();
    for _ in 0..8 {
        valuations.push(
            (1..dim)
                .map(|_| {
                    corners[rng.gen_range(0..corners.len())] + rng.gen_range(-1..=1_i64).max(0)
                })
                .collect(),
        );
        valuations.push((1..dim).map(|_| rng.gen_range(0..=600)).collect());
    }
    valuations
}

#[test]
fn printer_matches_the_fmt_reference_on_generated_strategies() {
    let mut rng = StdRng::seed_from_u64(0x000B_17E5);
    let mut seen = String::new();
    let mut shared = 0;
    for case in 0..400 {
        let (strategy, reference) = random_strategy(&mut rng);
        let winning = rng.gen_bool(0.5);
        let model = if case % 2 == 0 {
            "lep-4"
        } else {
            "smart light ✓"
        };
        let text = print_strategy(model, winning, Some(&strategy));
        seen.push_str(&text);
        assert_eq!(
            text,
            reference_print(STRATEGY_FORMAT_HEADER, model, winning, Some(&strategy)),
            "case {case}"
        );
        let parsed = parse_strategy(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(parsed.strategy.as_ref(), Some(&strategy), "case {case}");
        // The controller printer shares the body; compiling keeps the rules
        // of a strategy the minimizer cannot shrink.
        let controller = CompiledController::from_minimized(strategy.clone());
        assert_eq!(
            print_controller(model, winning, Some(&controller)),
            reference_print(CONTROLLER_FORMAT_HEADER, model, winning, Some(&strategy)),
            "case {case}"
        );
        // Shared rule lists answer every query as the per-state lists do.
        assert_eq!(strategy.state_count(), reference.len(), "case {case}");
        let distinct: HashSet<&[StrategyRule]> = reference
            .iter()
            .map(|(_, rules)| rules.as_slice())
            .collect();
        shared += reference.len() - distinct.len();
        for (discrete, rules) in &reference {
            assert_eq!(strategy.rules_for(discrete), Some(rules.as_slice()));
            for ticks in probe_valuations(&mut rng, rules, strategy.dim(), 2) {
                let label = format!("case {case}, ticks {ticks:?}");
                assert_eq!(
                    strategy.decide(discrete, &ticks, 2),
                    reference_decide(rules, &ticks, 2),
                    "{label}"
                );
                assert_eq!(
                    strategy.rank_of(discrete, &ticks, 2),
                    reference_rank(rules, &ticks, 2),
                    "{label}"
                );
                assert_eq!(
                    strategy.next_take_delay(discrete, &ticks, 2),
                    reference_next_take_delay(rules, &ticks, 2),
                    "{label}"
                );
            }
        }
    }
    assert!(shared > 200, "only {shared} states repeat a rule list");
    // The generated cases cover what the printer must get right, extreme
    // constants at every dimension included.
    let mut tokens = vec![
        format!("<={MAX_CONSTANT} "),
        format!("<=-{MAX_CONSTANT} "),
        format!("rule {} ", u32::MAX),
        " -".to_string(),
        " take tau ".to_string(),
        " take sync ".to_string(),
        " wait ".to_string(),
        " <-".to_string(),
        " <inf".to_string(),
        "\nsame 0\n".to_string(),
        "\nsame 3\n".to_string(),
    ];
    for clocks in 1..=3 {
        let extreme = max_constant_for(clocks);
        tokens.push(format!("<={extreme} "));
        tokens.push(format!("<=-{extreme} "));
    }
    for token in tokens {
        assert!(seen.contains(&token), "no generated case prints `{token}`");
    }
    for winning in [true, false] {
        assert_eq!(
            print_strategy("m", winning, None),
            reference_print(STRATEGY_FORMAT_HEADER, "m", winning, None)
        );
    }
}
