//! Diagnostics contract over the malformed-input corpus:
//!
//! every file in `tests/corpus/` must be **rejected** with a span-carrying
//! [`LangError`] — never a panic — and the error must render into a
//! rustc-style report that points into the file.

use std::path::PathBuf;
use tiga_lang::{parse_model, LangErrorKind};
use tiga_tctl::MAX_EXPR_DEPTH;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tg"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 15,
        "corpus shrank to {} files — keep the malformed inputs",
        files.len()
    );
    files
}

#[test]
fn every_corpus_file_is_rejected_with_a_span() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).expect("readable corpus file");
        // Catch panics explicitly so a regression names the offending file.
        let result = std::panic::catch_unwind(|| parse_model(&source));
        let result = result.unwrap_or_else(|_| panic!("{name}: parse_model PANICKED"));
        let err = result.err().unwrap_or_else(|| {
            panic!("{name}: expected a diagnostic, but the file parsed successfully")
        });
        assert!(
            err.span.start <= err.span.end,
            "{name}: inverted span {:?}",
            err.span
        );
        assert!(
            err.span.start <= source.len(),
            "{name}: span {:?} outside the {}-byte source",
            err.span,
            source.len()
        );
        assert!(!err.message.is_empty(), "{name}: empty message");
        // The caret shows the position; the message does not repeat it.
        assert!(
            !err.message.contains("at byte"),
            "{name}: message repeats the position: {}",
            err.message
        );
        let report = err.render(&source, &name);
        assert!(
            report.contains(&format!("{name}:")),
            "{name}: report lacks a file:line:col locus\n{report}"
        );
        assert!(
            report.contains('^'),
            "{name}: report lacks a caret underline\n{report}"
        );
    }
}

#[test]
fn specific_diagnostics_name_the_problem() {
    let expectations = [
        ("unbalanced_guard.tg", "`)`"),
        ("unknown_clock.tg", "unknown clock `y`"),
        ("non_integer_bound.tg", "non-integer"),
        ("unknown_location.tg", "unknown location `Nowhere`"),
        ("unknown_channel.tg", "unknown channel `zap`"),
        ("duplicate_clock.tg", "duplicate"),
        ("inverted_range.tg", "range"),
        ("negative_array_size.tg", "positive size"),
        ("huge_array.tg", "maximum"),
        ("two_init_locations.tg", "two `init` locations"),
        ("stray_character.tg", "unexpected character `$`"),
        ("overflowing_literal.tg", "overflows"),
        ("bare_overflowing_literal.tg", "overflows i64"),
        ("keyword_as_name.tg", "keyword `guard`"),
        ("bad_control_line.tg", "Ghost"),
        ("negative_time_bound.tg", "a time bound in 0..="),
        ("huge_time_bound.tg", "a time bound in 0..="),
        ("clock_in_data_guard.tg", "clocks cannot appear"),
        ("no_automaton.tg", "at least one automaton"),
        ("missing_arrow.tg", "`->`"),
        ("unresolved_objective_name.tg", "cannot resolve `x2`"),
        (
            "huge_quantifier_range.tg",
            "quantifier range `Huge` has 2000000 values (the maximum is 1048576)",
        ),
        (
            "bad_objective_token.tg",
            "expected an expression, found `]`",
        ),
        (
            "bare_array_in_guard.tg",
            "array `buf` used without an index",
        ),
        (
            "bare_array_set_target.tg",
            "array `buf` used without an index",
        ),
        ("indexed_scalar.tg", "`n` is not an array"),
        ("indexed_scalar_objective.tg", "`n` is not an array"),
        (
            "location_in_guard.tg",
            "locations and quantifiers can only appear in the `control:` objective",
        ),
        (
            "quantifier_budget_parenthesized.tg",
            "quantifiers expand into 1049600 instances (the budget is 1048576 per objective)",
        ),
    ];
    for (file, needle) in expectations {
        let path = corpus_dir().join(file);
        let source = std::fs::read_to_string(&path).expect("corpus file exists");
        let err = parse_model(&source).expect_err(file);
        assert!(
            err.message.contains(needle),
            "{file}: expected message containing {needle:?}, got: {}",
            err.message
        );
    }
}

#[test]
fn spans_single_out_the_right_source_text() {
    let source = std::fs::read_to_string(corpus_dir().join("unknown_clock.tg")).unwrap();
    let err = parse_model(&source).unwrap_err();
    assert_eq!(&source[err.span.start..err.span.end], "y");

    let source = std::fs::read_to_string(corpus_dir().join("duplicate_clock.tg")).unwrap();
    let err = parse_model(&source).unwrap_err();
    // The *second* declaration is the offender.
    assert!(err.span.start > source.find("clock x").unwrap());

    // Bound errors land on the offending literal, not at the start of the
    // line.
    let source = std::fs::read_to_string(corpus_dir().join("negative_time_bound.tg")).unwrap();
    let err = parse_model(&source).unwrap_err();
    assert_eq!(&source[err.span.start..err.span.end], "-1");

    let source = std::fs::read_to_string(corpus_dir().join("huge_time_bound.tg")).unwrap();
    let err = parse_model(&source).unwrap_err();
    assert!(source[err.span.start..].starts_with("536870911"));
}

#[test]
fn clock_constants_beyond_the_ceiling_point_at_the_literal() {
    for (file, literal) in [
        ("clock_constant_beyond_ceiling.tg", "89478486"),
        ("time_bound_beyond_ceiling.tg", "89478486"),
        ("reset_beyond_ceiling.tg", "178956971"),
    ] {
        let source = std::fs::read_to_string(corpus_dir().join(file)).unwrap();
        let err = parse_model(&source).unwrap_err();
        assert_eq!(
            &source[err.span.start..err.span.end],
            literal,
            "{file}: {err}"
        );
        assert!(err.message.contains("too large"), "{file}: {err}");
        // One less is the largest constant the model may use.
        let smaller = (literal.parse::<i64>().unwrap() - 1).to_string();
        let fits = source.replace(literal, &smaller);
        assert!(parse_model(&fits).is_ok(), "{file} with {smaller}");
    }
}

#[test]
fn objective_diagnostics_point_at_the_offender() {
    let source =
        std::fs::read_to_string(corpus_dir().join("unresolved_objective_name.tg")).unwrap();
    let err = parse_model(&source).unwrap_err();
    assert_eq!(&source[err.span.start..err.span.end], "x2");
    let report = err.render(&source, "unresolved_objective_name.tg");
    assert!(
        report.contains("test-purpose error: cannot resolve `x2`"),
        "{report}"
    );
    let carets = report.lines().last().unwrap().matches('^').count();
    assert_eq!(carets, 2, "the caret underlines `x2` only:\n{report}");

    let source = std::fs::read_to_string(corpus_dir().join("bad_objective_token.tg")).unwrap();
    let err = parse_model(&source).unwrap_err();
    assert_eq!(&source[err.span.start..err.span.end], "]");
    // Tokens are described by their spelling, never by a Rust `Debug` name.
    assert!(!err.message.contains("RBracket"), "{}", err.message);

    let source = std::fs::read_to_string(corpus_dir().join("bad_control_line.tg")).unwrap();
    let err = parse_model(&source).unwrap_err();
    assert_eq!(&source[err.span.start..err.span.end], "Ghost.Location");

    let source = std::fs::read_to_string(corpus_dir().join("huge_quantifier_range.tg")).unwrap();
    let err = parse_model(&source).unwrap_err();
    assert_eq!(&source[err.span.start..err.span.end], "Huge");
}

#[test]
fn names_resolve_alike_in_clauses_and_objectives() {
    // (file, stage, the text the span singles out)
    for (file, kind, at) in [
        ("bare_array_in_guard.tg", LangErrorKind::Lower, "buf"),
        ("bare_array_set_target.tg", LangErrorKind::Lower, "buf"),
        ("indexed_scalar.tg", LangErrorKind::Lower, "n"),
        ("indexed_scalar_objective.tg", LangErrorKind::Control, "n"),
        ("location_in_guard.tg", LangErrorKind::Lower, "A.L0"),
    ] {
        let source = std::fs::read_to_string(corpus_dir().join(file)).unwrap();
        let err = parse_model(&source).unwrap_err();
        assert_eq!(err.kind, kind, "{file}: {err}");
        assert_eq!(&source[err.span.start..err.span.end], at, "{file}: {err}");
    }
}

#[test]
fn a_budget_caret_covers_the_closing_parenthesis() {
    let file = "quantifier_budget_parenthesized.tg";
    let source = std::fs::read_to_string(corpus_dir().join(file)).unwrap();
    let err = parse_model(&source).unwrap_err();
    let at = &source[err.span.start..err.span.end];
    assert_eq!(at, "forall (i: 1024) forall (j: 1025) (x + i + j >= 0)");
    let report = err.render(&source, file);
    // The stage is named once, by the kind.
    assert!(
        report.starts_with("test-purpose error: quantifiers expand into"),
        "{report}"
    );
    let carets = report.lines().last().unwrap().matches('^').count();
    assert_eq!(carets, at.len(), "the caret ends under the `)`:\n{report}");
}

#[test]
fn guards_and_objectives_are_capped_in_depth() {
    let model = |guard: &str, objective: &str| {
        format!(
            "clock x\nvar v: int[0, 3] = 0\nautomaton A {{\n    init location L\n    \
             edge L -> L {{ guard x >= {guard} }}\n}}\ncontrol: A<> {objective}\n"
        )
    };
    let deep = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
    let chain = |n: usize| vec!["v == 0"; n].join(" or ");
    let message = format!("expression nests deeper than {MAX_EXPR_DEPTH} levels");
    assert!(parse_model(&model(&deep(MAX_EXPR_DEPTH), "A.L")).is_ok());
    for source in [
        model(&deep(100_000), "A.L"),
        model("1", &deep(100_000)),
        model("1", &chain(100_000)),
    ] {
        let err = parse_model(&source).expect_err("too deep");
        assert_eq!(err.message, message);
        let at = &source[err.span.start..err.span.end];
        assert!(at == "(" || at == "v == 0", "{at:?}");
    }
}
