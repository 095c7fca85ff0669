//! The serializer/parser round-trip contract:
//!
//! ```text
//! parse(print(sys)) ≡ sys        (structural equality on `System`)
//! ```
//!
//! pinned across the whole benchmark model zoo (products *and* plants), the
//! seeded mutant pools derived from every plant, and randomly generated
//! expression trees.  Objectives round-trip too: a programmatic purpose
//! printed on the `control:` line parses back to the same predicate.  Every
//! checked-in `examples/tg/*.tg` file is a printer fixpoint.

use proptest::prelude::*;
use std::path::PathBuf;
use tiga_bench::model_zoo;
use tiga_lang::{parse_model, print_system};
use tiga_model::{AutomatonId, CmpOp, Expr, LocationId, System, VarTable};
use tiga_models::{coffee_machine, leader_election, smart_light};
use tiga_tctl::{StatePredicate, TestPurpose};
use tiga_testing::{generate_mutants, MutationConfig};

/// One full round trip, asserting structural equality and re-printing
/// stability (print ∘ parse ∘ print is a fixpoint).
fn assert_roundtrip(system: &System, context: &str) {
    let printed = print_system(system, None);
    let model = parse_model(&printed)
        .unwrap_or_else(|e| panic!("{context}: printed .tg does not parse:\n{e}\n---\n{printed}"));
    assert_eq!(
        &model.system, system,
        "{context}: parse(print(sys)) differs from sys\n---\n{printed}"
    );
    let reprinted = print_system(&model.system, None);
    assert_eq!(
        printed, reprinted,
        "{context}: printing is not a fixpoint after one round trip"
    );
}

#[test]
fn zoo_products_roundtrip_with_purposes() {
    for instance in model_zoo() {
        let printed = print_system(&instance.system, Some(&instance.purpose));
        let model = parse_model(&printed).unwrap_or_else(|e| {
            panic!(
                "{}/{}: printed .tg does not parse:\n{e}",
                instance.model, instance.purpose_name
            )
        });
        assert_eq!(
            model.system, instance.system,
            "{}/{} system differs after round trip",
            instance.model, instance.purpose_name
        );
        let purpose = model.purpose.expect("control line survives the round trip");
        assert_eq!(
            purpose, instance.purpose,
            "{}/{} purpose differs after round trip",
            instance.model, instance.purpose_name
        );
    }
}

#[test]
fn checked_in_tg_files_parse_and_are_printer_fixpoints() {
    // Every `examples/tg/*.tg` parses, and printing the parsed model
    // reproduces the file byte for byte.  Plant files carry no objective;
    // every other file carries one.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/tg");
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/tg exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "tg") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).expect("readable");
        let model = parse_model(&source).unwrap_or_else(|e| panic!("{}", e.render(&source, &name)));
        assert_eq!(
            print_system(&model.system, model.purpose.as_ref()),
            source,
            "{name} is not a printer fixpoint"
        );
        assert_eq!(
            model.purpose.is_none(),
            name.ends_with(".plant.tg"),
            "{name}: only plant files lack a control: line"
        );
        count += 1;
    }
    assert!(count >= 14, "only {count} checked-in .tg files");
}

#[test]
fn zoo_plants_roundtrip() {
    let plants = [
        ("smart_light", smart_light::plant().unwrap()),
        ("coffee_machine", coffee_machine::plant().unwrap()),
        (
            "lep3",
            leader_election::plant(leader_election::LepConfig::new(3)).unwrap(),
        ),
        (
            "lep4-detailed",
            leader_election::plant(leader_election::LepConfig::detailed(4)).unwrap(),
        ),
    ];
    for (name, plant) in &plants {
        assert_roundtrip(plant, name);
    }
}

#[test]
fn seeded_mutants_roundtrip() {
    let plants = [
        ("smart_light", smart_light::plant().unwrap()),
        ("coffee_machine", coffee_machine::plant().unwrap()),
        (
            "lep3",
            leader_election::plant(leader_election::LepConfig::new(3)).unwrap(),
        ),
    ];
    let mut total = 0;
    for (name, plant) in &plants {
        let mutants = generate_mutants(plant, &MutationConfig::default()).unwrap();
        assert!(!mutants.is_empty(), "{name} generates no mutants");
        for mutant in &mutants {
            assert_roundtrip(&mutant.system, &format!("{name}/{}", mutant.name));
        }
        total += mutants.len();
    }
    assert!(total >= 30, "mutant pools shrank suspiciously: {total}");
}

#[test]
fn awkward_names_roundtrip_quoted() {
    // Names that collide with keywords or are not identifiers must be quoted
    // by the printer and survive the trip.
    let mut b = tiga_model::SystemBuilder::new("weird system/name");
    let _x = b.clock("guard").unwrap();
    let press = b.input_channel("reset").unwrap();
    b.int_var("când", 0, 3, 1).unwrap();
    let mut a = tiga_model::AutomatonBuilder::new("edge");
    let l0 = a.location("init").unwrap();
    let l1 = a.location("with space").unwrap();
    a.add_edge(tiga_model::EdgeBuilder::new(l0, l1).input(press));
    b.add_automaton(a.build().unwrap()).unwrap();
    let system = b.build().unwrap();
    assert_roundtrip(&system, "awkward-names");
}

#[test]
fn programmatic_purposes_print_reparseably() {
    // A purpose built from a predicate (no source text) must be
    // reconstructed into parseable tctl syntax, not the Display placeholder.
    let system = smart_light::product().unwrap();
    let (aut, loc) = system.location_by_qualified_name("IUT.Bright").unwrap();
    let purpose =
        tiga_tctl::TestPurpose::reachability(tiga_tctl::StatePredicate::Location(aut, loc));
    assert!(purpose.source.is_empty());
    let printed = print_system(&system, Some(&purpose));
    let model = parse_model(&printed)
        .unwrap_or_else(|e| panic!("programmatic purpose does not re-parse: {e}\n---\n{printed}"));
    assert_eq!(model.system, system);
    let reparsed = model.purpose.expect("control line present");
    assert_eq!(reparsed.quantifier, purpose.quantifier);
    assert_eq!(reparsed.predicate, purpose.predicate);
}

#[test]
fn bounded_purposes_roundtrip() {
    let system = smart_light::product().unwrap();
    // Parsed bounded purposes keep their source verbatim through the printer.
    for control in [
        "control: A<><=7 IUT.Bright",
        "control: A[]<=0 not IUT.Bright",
    ] {
        let purpose = tiga_tctl::TestPurpose::parse(control, &system).unwrap();
        let printed = print_system(&system, Some(&purpose));
        let model = parse_model(&printed)
            .unwrap_or_else(|e| panic!("`{control}` does not survive printing: {e}\n{printed}"));
        assert_eq!(model.system, system, "`{control}` perturbed the system");
        assert_eq!(
            model.purpose.expect("control line present"),
            purpose,
            "`{control}` differs after the round trip"
        );
    }
    // A programmatic bounded purpose reconstructs with its bound intact.
    let (aut, loc) = system.location_by_qualified_name("IUT.Bright").unwrap();
    let purpose =
        tiga_tctl::TestPurpose::reachability(tiga_tctl::StatePredicate::Location(aut, loc))
            .with_bound(9);
    assert!(purpose.source.is_empty());
    let printed = print_system(&system, Some(&purpose));
    let model = parse_model(&printed)
        .unwrap_or_else(|e| panic!("programmatic bounded purpose does not re-parse: {e}"));
    let reparsed = model.purpose.expect("control line present");
    assert_eq!(reparsed.bound, Some(9));
    assert_eq!(reparsed.quantifier, purpose.quantifier);
    assert_eq!(reparsed.predicate, purpose.predicate);
}

// ---- random expression trees -------------------------------------------

/// A variable table with a scalar and an array, matching indices 0 and 1.
fn expr_table() -> VarTable {
    let mut table = VarTable::new();
    table.declare("n", 1, -8, 8, 0).unwrap();
    table.declare("buf", 3, 0, 1, 0).unwrap();
    table
}

fn arb_cmp() -> proptest::strategy::Union<CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// Random expression trees over the two declared variables.
fn arb_expr(depth: u32) -> proptest::strategy::Union<Expr> {
    let scalar = tiga_model::VarId::from_index(0);
    let array = tiga_model::VarId::from_index(1);
    if depth == 0 {
        return prop_oneof![
            (-50i64..50).prop_map(Expr::constant),
            Just(Expr::var(scalar)),
            (0i64..3).prop_map(move |i| Expr::index(array, Expr::constant(i))),
        ];
    }
    let sub = move || arb_expr(depth - 1);
    prop_oneof![
        (-50i64..50).prop_map(Expr::constant),
        Just(Expr::var(scalar)),
        (0i64..3).prop_map(move |i| Expr::index(array, Expr::constant(i))),
        sub().prop_map(|e| Expr::Neg(Box::new(e))),
        sub().prop_map(Expr::negated),
        (sub(), sub()).prop_map(|(a, b)| a + b),
        (sub(), sub()).prop_map(|(a, b)| a - b),
        (sub(), sub()).prop_map(|(a, b)| a * b),
        (sub(), sub()).prop_map(|(a, b)| Expr::Div(Box::new(a), Box::new(b))),
        (sub(), sub()).prop_map(|(a, b)| Expr::Mod(Box::new(a), Box::new(b))),
        (arb_cmp(), sub(), sub()).prop_map(|(op, a, b)| a.cmp(op, b)),
        (sub(), sub()).prop_map(|(a, b)| a.and(b)),
        (sub(), sub()).prop_map(|(a, b)| a.or(b)),
        (sub(), sub(), sub()).prop_map(|(c, t, e)| Expr::ite(c, t, e)),
    ]
}

proptest! {
    /// Print → parse over a whole system whose edge guard carries the random
    /// expression, so the expression goes through the real pipeline.
    #[test]
    fn random_expressions_roundtrip(expr in arb_expr(3)) {
        let table = expr_table();
        let mut b = tiga_model::SystemBuilder::new("expr-prop");
        b.int_var("n", -8, 8, 0).unwrap();
        b.int_array("buf", 3, 0, 1, 0).unwrap();
        let mut a = tiga_model::AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        a.add_edge(tiga_model::EdgeBuilder::new(l0, l0).when(expr.clone()));
        b.add_automaton(a.build().unwrap()).unwrap();
        let system = b.build().unwrap();

        let printed = print_system(&system, None);
        let reparsed = parse_model(&printed).unwrap_or_else(|e| panic!(
            "printed expression `{}` does not parse: {e}",
            tiga_lang::expr_to_tg(&expr, &table)
        ));
        prop_assert_eq!(&reparsed.system, &system);
    }
}

// ---- objectives -----------------------------------------------------------

fn corpus_valid(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus_valid")
        .join(name);
    std::fs::read_to_string(path).expect("valid corpus file exists")
}

/// Prints `purpose` as the objective of `system`, re-parses the file and
/// returns the re-parsed objective (after checking the system survived).
fn reparse_objective(system: &System, purpose: &TestPurpose) -> TestPurpose {
    let printed = print_system(system, Some(purpose));
    let model = parse_model(&printed).unwrap_or_else(|e| {
        panic!(
            "printed objective does not parse:\n{}\n---\n{printed}",
            e.render(&printed, "printed.tg")
        )
    });
    assert_eq!(&model.system, system, "{printed}");
    model.purpose.expect("control line present")
}

#[test]
fn objectives_name_whatever_declarations_name() {
    for (file, control_line) in [
        ("objective_keyword_location.tg", r#"control: A<> M."not""#),
        (
            "objective_quoted_automaton.tg",
            r#"control: A<> "my-aut".Busy"#,
        ),
    ] {
        let source = corpus_valid(file);
        let model = parse_model(&source).unwrap_or_else(|e| panic!("{}", e.render(&source, file)));
        let purpose = model.purpose.expect("objective present");
        assert!(
            matches!(purpose.predicate, StatePredicate::Location(..)),
            "{file}: {:?}",
            purpose.predicate
        );
        let solution = tiga_solver::solve(
            &model.system,
            &purpose,
            &tiga_solver::SolveOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(solution.winning_from_initial, "{file}: the tester wins");
        // Rebuilt from the predicate, the line quotes names the way the
        // declarations are quoted.
        let programmatic = TestPurpose::reachability(purpose.predicate.clone());
        let printed = print_system(&model.system, Some(&programmatic));
        assert!(
            printed.lines().any(|line| line == control_line),
            "{file}: expected `{control_line}` in\n{printed}"
        );
        let reparsed = reparse_objective(&model.system, &programmatic);
        assert_eq!(reparsed.predicate, purpose.predicate, "{file}");
    }
}

/// A system whose names exercise quoting on the `control:` line: a scalar
/// `n`, an array `buf[3]`, automaton `A` and automaton `"my-aut"` with a
/// location `not`.
fn objective_system() -> System {
    let mut b = tiga_model::SystemBuilder::new("objective-prop");
    b.int_var("n", -8, 8, 0).unwrap();
    b.int_array("buf", 3, 0, 1, 0).unwrap();
    for (name, locations) in [("A", ["L0", "L1"]), ("my-aut", ["Busy", "not"])] {
        let mut a = tiga_model::AutomatonBuilder::new(name);
        for location in locations {
            a.location(location).unwrap();
        }
        b.add_automaton(a.build().unwrap()).unwrap();
    }
    b.build().unwrap()
}

/// Random predicates built with the same smart constructors the resolver
/// uses, so that the printed form has exactly one parse.  Expression leaves
/// are comparisons and conditionals: a bare `&&`, `||`, `!` or constant at
/// the top of an expression leaf would re-parse as the predicate connective
/// or literal it spells.
fn arb_pred(depth: u32) -> proptest::strategy::Union<StatePredicate> {
    if depth == 0 {
        return prop_oneof![
            (0usize..2, 0usize..2).prop_map(|(a, l)| StatePredicate::Location(
                AutomatonId::from_index(a),
                LocationId::from_index(l)
            )),
            (arb_cmp(), arb_expr(1), arb_expr(1))
                .prop_map(|(op, a, b)| StatePredicate::Expr(a.cmp(op, b))),
            (arb_expr(1), arb_expr(1), arb_expr(1))
                .prop_map(|(c, t, e)| StatePredicate::Expr(Expr::ite(c, t, e))),
        ];
    }
    let sub = move || arb_pred(depth - 1);
    prop_oneof![
        sub(),
        sub().prop_map(StatePredicate::negated),
        (sub(), sub()).prop_map(|(a, b)| a.and(b)),
        (sub(), sub()).prop_map(|(a, b)| a.or(b)),
    ]
}

proptest! {
    /// print → parse over a whole file whose `control:` line is rebuilt from
    /// a random predicate returns that predicate exactly.
    #[test]
    fn random_objectives_roundtrip(predicate in arb_pred(2), safety in any::<bool>()) {
        let system = objective_system();
        let purpose = if safety {
            TestPurpose::safety(predicate)
        } else {
            TestPurpose::reachability(predicate)
        };
        let reparsed = reparse_objective(&system, &purpose);
        prop_assert_eq!(reparsed.quantifier, purpose.quantifier);
        prop_assert_eq!(&reparsed.predicate, &purpose.predicate);
    }
}

#[test]
fn negative_constants_and_conditionals_roundtrip_in_objectives() {
    let system = objective_system();
    let n = system.vars().lookup("n").unwrap();
    for (predicate, line) in [
        (
            StatePredicate::Expr(Expr::var(n).eq(Expr::constant(-3))),
            "control: A<> (n == -3)",
        ),
        (
            StatePredicate::Expr(Expr::ite(
                Expr::var(n).gt(Expr::constant(0)),
                Expr::constant(1),
                Expr::constant(0),
            )),
            "control: A<> ((n > 0) ? 1 : 0)",
        ),
    ] {
        let purpose = TestPurpose::reachability(predicate);
        assert_eq!(purpose.display(&system).to_string(), line);
        assert_eq!(
            reparse_objective(&system, &purpose).predicate,
            purpose.predicate
        );
    }
}
