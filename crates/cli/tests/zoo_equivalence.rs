//! Acceptance pin: the checked-in `examples/tg/` files are faithful to the
//! benchmark model zoo.
//!
//! * every checked-in `.tg` parses;
//! * `tiga solve examples/tg/smart_light.tg` (default options) reproduces
//!   the same verdict and `SolverStats` state counts as solving the
//!   `model_zoo()` entry;
//! * the checked-in products are structurally equal to the zoo's systems
//!   (for lep3/lep4 these come from the leader-election generator), and
//!   each safety and time-bounded purpose file parses to its zoo instance
//!   and solves winning;
//! * `tiga test` on the benchmark's four campaigns reports the run, mutant
//!   and detection counts recorded in `perfbench/expected_campaigns.json`,
//!   with no false alarm, and prints exactly the reports checked in under
//!   `crates/cli/tests/campaigns/` — every run's verdict, not just the
//!   totals; so do six more campaigns, four of them with mutants drawn
//!   from a plant-only `--spec`.

use std::path::{Path, PathBuf};
use tiga_bench::model_zoo;
use tiga_lang::{parse_model, print_system};
use tiga_solver::{solve, SolveOptions};
use tiga_testing::CampaignOptions;

fn tg_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/tg")
}

fn load(name: &str) -> tiga_lang::TgModel {
    let path = tg_dir().join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_model(&source).unwrap_or_else(|e| panic!("{name}: {}", e.render(&source, name)))
}

#[test]
fn every_checked_in_tg_file_parses() {
    let mut count = 0;
    for entry in std::fs::read_dir(tg_dir()).expect("examples/tg exists") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "tg") {
            load(&path.file_name().unwrap().to_string_lossy());
            count += 1;
        }
    }
    assert!(
        count >= 6,
        "expected ≥ 6 checked-in .tg files, found {count}"
    );
}

#[test]
fn solve_smart_light_tg_matches_programmatic_zoo_entry() {
    let model = load("smart_light.tg");
    let purpose = model.purpose.as_ref().expect("has a control: line");
    let from_file = solve(&model.system, purpose, &SolveOptions::default()).expect("solves");

    let zoo = model_zoo();
    let reference = zoo
        .iter()
        .find(|i| i.model == "smart_light" && i.purpose_name == "bright")
        .expect("zoo has smart_light/bright");
    assert_eq!(model.system, reference.system, "parsed system differs");
    let from_zoo = solve(
        &reference.system,
        &reference.purpose,
        &SolveOptions::default(),
    )
    .expect("solves");

    assert_eq!(
        from_file.winning_from_initial, from_zoo.winning_from_initial,
        "verdicts differ"
    );
    let (a, b) = (from_file.stats(), from_zoo.stats());
    assert_eq!(a.discrete_states, b.discrete_states);
    assert_eq!(a.graph_edges, b.graph_edges);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.winning_zones, b.winning_zones);
    assert_eq!(a.reach_zones, b.reach_zones);
    assert_eq!(a.subsumed_zones, b.subsumed_zones);
    assert_eq!(a.pruned_evaluations, b.pruned_evaluations);
    assert_eq!(a.early_terminated, b.early_terminated);
}

#[test]
fn checked_in_products_equal_zoo_models() {
    let zoo = model_zoo();
    for (file, model_id) in [
        ("smart_light.tg", "smart_light"),
        ("coffee_machine.tg", "coffee_machine"),
        ("lep3.tg", "lep3"),
        ("lep4.tg", "lep4"),
    ] {
        let parsed = load(file);
        let reference = zoo
            .iter()
            .find(|i| i.model == model_id)
            .unwrap_or_else(|| panic!("zoo has {model_id}"));
        assert_eq!(
            parsed.system, reference.system,
            "{file} differs from the zoo model {model_id}"
        );
        // The checked-in file carries the model's primary purpose.
        assert_eq!(
            parsed.purpose.expect("product files carry a control: line"),
            reference.purpose,
            "{file} carries a different purpose than the zoo's primary one"
        );
    }
}

#[test]
fn checked_in_files_are_printer_fixpoints() {
    let zoo = model_zoo();
    for instance in &zoo {
        if instance.purpose_name != zoo_primary(&instance.model) {
            continue;
        }
        let file = tg_dir().join(format!("{}.tg", instance.model));
        let on_disk = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let printed = print_system(&instance.system, Some(&instance.purpose));
        assert_eq!(
            on_disk,
            printed,
            "{} is not the printed zoo instance",
            file.display()
        );
    }
}

#[test]
fn checked_in_safety_instances_match_the_zoo_and_are_winning() {
    // The safety zoo: every `A[]` purpose is checked in as
    // `<model>.<purpose>.tg`, parses back to the zoo instance,
    // is a printer fixpoint, and solves WINNING with a safe controller.
    let zoo = model_zoo();
    let safety: Vec<_> = zoo
        .iter()
        .filter(|i| i.purpose.quantifier == tiga_tctl::PathQuantifier::Safety)
        .collect();
    assert!(
        safety.len() >= 2,
        "expected at least two safety zoo instances, found {}",
        safety.len()
    );
    for instance in safety {
        let file = format!("{}.{}.tg", instance.model, instance.purpose_name);
        let parsed = load(&file);
        assert_eq!(
            parsed.system, instance.system,
            "{file} differs from the zoo instance"
        );
        let purpose = parsed.purpose.expect("safety files carry a control: line");
        assert_eq!(purpose, instance.purpose, "{file}: purpose differs");
        let on_disk = std::fs::read_to_string(tg_dir().join(&file)).expect("readable");
        assert_eq!(
            on_disk,
            print_system(&instance.system, Some(&instance.purpose)),
            "{file} is not a printer fixpoint"
        );
        let solution = solve(&parsed.system, &purpose, &SolveOptions::default()).expect("solves");
        assert!(solution.winning_from_initial, "{file} must be enforceable");
        assert!(
            solution.strategy.is_some(),
            "{file}: the safe controller must be extracted"
        );
    }
}

#[test]
fn checked_in_bounded_instances_match_the_zoo_and_are_winning() {
    // The time-bounded zoo: every purpose with a bound is checked in as
    // `<model>.<purpose>.tg`, round-trips with its bound intact, and
    // solves WINNING with an extracted strategy over the `#t`-augmented
    // product (one extra clock column).
    let zoo = model_zoo();
    let bounded: Vec<_> = zoo.iter().filter(|i| i.purpose.bound.is_some()).collect();
    assert!(
        bounded.len() >= 2,
        "expected at least two bounded zoo instances, found {}",
        bounded.len()
    );
    for instance in bounded {
        let file = format!("{}.{}.tg", instance.model, instance.purpose_name);
        let parsed = load(&file);
        assert_eq!(
            parsed.system, instance.system,
            "{file} differs from the zoo instance"
        );
        let purpose = parsed.purpose.expect("bounded files carry a control: line");
        assert_eq!(purpose, instance.purpose, "{file}: purpose differs");
        assert_eq!(
            purpose.bound, instance.purpose.bound,
            "{file}: bound differs"
        );
        let solution = solve(&parsed.system, &purpose, &SolveOptions::default()).expect("solves");
        assert!(solution.winning_from_initial, "{file} must be enforceable");
        assert_eq!(
            solution.bound, purpose.bound,
            "{file}: the solution must record the bound it was solved under"
        );
        let strategy = solution
            .strategy
            .as_ref()
            .expect("bounded strategies must be extracted");
        assert_eq!(
            strategy.dim(),
            parsed.system.dim() + 1,
            "{file}: bounded strategies range over the #t-augmented product"
        );
    }
}

/// The primary (first-listed) purpose of each zoo model.
fn zoo_primary(model: &str) -> &'static str {
    match model {
        "coffee_machine" => "coffee",
        "smart_light" => "bright",
        "lep3" => "tp1",
        "lep4" => "tp2",
        other => panic!("unknown zoo model {other}"),
    }
}

/// The campaigns `perfbench/run.py` measures, with the plant-only `--spec`
/// it passes (its `CAMPAIGNS` table).
const CAMPAIGNS: [(&str, Option<&str>); 4] = [
    ("smart_light.never_bright.tg", None),
    ("coffee_machine.no_refund.tg", None),
    ("lep3.tg", None),
    ("smart_light.bounded.tg", Some("smart_light.plant.tg")),
];

/// `tiga test <file> [--spec <spec>]`'s report on a campaign under the
/// given campaign options, as printed from `examples/tg/` (the model path
/// in its header is the bare file name), and whether no conformant run
/// failed.
fn campaign_report(file: &str, spec: Option<&str>, campaign: CampaignOptions) -> (String, bool) {
    let tg = |name: &str| tg_dir().join(name).to_string_lossy().into_owned();
    let args = tiga_cli::TestArgs {
        path: tg(file),
        spec: spec.map(tg),
        campaign,
        max_mutants: 0,
        purpose: None,
    };
    let (report, sound) = tiga_cli::run_test(&args).unwrap_or_else(|e| panic!("{file}: {e}"));
    let report = report.replacen(&format!("({})", args.path), &format!("({file})"), 1);
    (report, sound)
}

#[test]
fn benchmark_campaigns_report_their_recorded_counts() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perfbench/expected_campaigns.json");
    let text = std::fs::read_to_string(&path).expect("perfbench/expected_campaigns.json");
    let expected = tiga_solver::json::parse(&text).expect("valid JSON");
    for (file, spec) in CAMPAIGNS {
        let (report, sound) = campaign_report(file, spec, CampaignOptions::default());
        let summary = report
            .lines()
            .find_map(|l| l.strip_prefix("campaign: "))
            .unwrap_or_else(|| panic!("{file}: no campaign line in\n{report}"));
        // `N runs, N mutants, N detected (score S), N false alarms`
        let counts: Vec<(&str, usize)> = summary
            .split(", ")
            .map(|part| {
                let (n, what) = part.split_once(' ').expect("`<count> <what>`");
                let what = what.split(" (").next().unwrap_or(what);
                (what, n.parse().expect("a count"))
            })
            .collect();
        let count = |what: &str| {
            let found = counts.iter().find(|(w, _)| *w == what);
            found
                .unwrap_or_else(|| panic!("{file}: no `{what}` in {summary:?}"))
                .1
        };
        let recorded = expected.field(file).expect("recorded campaign");
        for what in ["runs", "mutants", "detected"] {
            let want = recorded
                .field(what)
                .and_then(|n| n.usize_field(what))
                .unwrap();
            assert_eq!(count(what), want, "{file}: {what} in {summary:?}");
        }
        assert_eq!(count("false alarms"), 0, "{file}: {summary:?}");
        assert!(sound, "{file}: {report}");
    }
}

/// Campaigns pinned by a golden report beside the benchmark's four, each
/// with its golden's file name.  The `.plant-spec` ones draw their mutants
/// from a plant-only system.
const GOLDEN_CAMPAIGNS: [(&str, Option<&str>, &str); 6] = [
    ("lep3.tg", Some("lep3.plant.tg"), "lep3.plant-spec.txt"),
    ("lep4.tg", Some("lep4.plant.tg"), "lep4.plant-spec.txt"),
    (
        "coffee_machine.no_refund.tg",
        Some("coffee_machine.plant.tg"),
        "coffee_machine.no_refund.plant-spec.txt",
    ),
    (
        "smart_light.never_bright.tg",
        Some("smart_light.plant.tg"),
        "smart_light.never_bright.plant-spec.txt",
    ),
    ("lep4.tg", None, "lep4.txt"),
    (
        "coffee_machine.bounded.tg",
        None,
        "coffee_machine.bounded.txt",
    ),
];

/// The two safety campaigns, pinned also under another master seed, two
/// repetitions and two worker threads ([`seed7`]) by their `.seed7.txt`
/// goldens, so reseeded jittery implementations and parallel workers keep
/// their verdicts too.
const SEED7_CAMPAIGNS: [(&str, &str); 2] = [
    (
        "smart_light.never_bright.tg",
        "smart_light.never_bright.seed7.txt",
    ),
    (
        "coffee_machine.no_refund.tg",
        "coffee_machine.no_refund.seed7.txt",
    ),
];

/// `tiga test --seed 7 --repetitions 2 --threads 2`.
fn seed7() -> CampaignOptions {
    CampaignOptions::default()
        .master_seed(7)
        .repetitions(2)
        .threads(2)
}

/// The full report of each benchmark campaign, and of the campaigns in
/// [`GOLDEN_CAMPAIGNS`] and [`SEED7_CAMPAIGNS`] — the header, the summary
/// and every run's verdict — matches the one checked in under
/// `crates/cli/tests/campaigns/`, which is `tiga test`'s stdout run from
/// `examples/tg/`.  Regenerate a file after an intended change with
/// `(cd examples/tg && ../../target/release/tiga test <file> [--spec <spec>] --threads 1)`,
/// or for a `.seed7.txt` golden
/// `(cd examples/tg && ../../target/release/tiga test <name>.tg --seed 7 --repetitions 2 --threads 2)`.
#[test]
fn benchmark_campaigns_print_their_golden_reports() {
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/campaigns");
    let benchmark = CAMPAIGNS.map(|(file, spec)| {
        let stem = file.strip_suffix(".tg").expect("a .tg file");
        (
            file,
            spec,
            format!("{stem}.txt"),
            CampaignOptions::default(),
        )
    });
    let others = GOLDEN_CAMPAIGNS
        .map(|(file, spec, golden)| (file, spec, golden.to_string(), CampaignOptions::default()));
    let reseeded = SEED7_CAMPAIGNS.map(|(file, golden)| (file, None, golden.to_string(), seed7()));
    let all = benchmark.into_iter().chain(others).chain(reseeded);
    for (file, spec, golden, campaign) in all {
        let (report, _) = campaign_report(file, spec, campaign);
        let golden = goldens.join(golden);
        let want = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        // The CLI prints the report followed by a newline.
        assert_eq!(format!("{report}\n"), want, "{file}: the report moved");
    }
}
