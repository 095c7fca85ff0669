//! Roundtrip and determinism pins for the `tiga-strategy v1` serializer.
//!
//! Three invariants, over the whole model zoo (reachability *and* safety
//! purposes), fuzz-generated games, and the checked-in goldens:
//!
//! * `parse(print(s)) ≡ s` exactly — the text format is a lossless encoding
//!   of the synthesized strategy (zones compared cell-by-cell);
//! * the printer is a fixpoint: `print(parse(text)) == text` byte-for-byte,
//!   which is what lets CI regenerate `examples/strategies/` and `diff -ru`
//!   against the checked-in files;
//! * the serialized strategy is byte-identical for `--jobs ∈ {1, 4}` — the
//!   strategy (not just the verdict) is part of the solver's determinism
//!   contract, so a cache populated at one parallelism level answers
//!   requests made at another bit-identically.

use std::path::{Path, PathBuf};
use tiga_bench::{fuzz_matrix_instances, model_zoo, ZooInstance};
use tiga_solver::{parse_strategy, print_strategy, solve, SolveEngine, SolveOptions};

fn options(engine: SolveEngine, jobs: usize) -> SolveOptions {
    SolveOptions {
        engine,
        jobs,
        ..SolveOptions::default()
    }
}

/// Solves `instance` and returns the serialized strategy file.
fn serialized(instance: &ZooInstance, opts: &SolveOptions) -> String {
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

/// The full determinism × roundtrip sweep for one instance and engine.
fn check_instance(instance: &ZooInstance, engine: SolveEngine) {
    let label = format!(
        "{}/{} ({})",
        instance.model,
        instance.purpose_name,
        engine.name()
    );
    let baseline = serialized(instance, &options(engine, 1));

    // Exact roundtrip and printer fixpoint.
    let parsed = parse_strategy(&baseline).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(parsed.model, instance.system.name(), "{label}");
    let reprinted = print_strategy(&parsed.model, parsed.winning, parsed.strategy.as_ref());
    assert_eq!(reprinted, baseline, "{label}: printer must be a fixpoint");

    // Serialization is invariant under parallelism.
    let text = serialized(instance, &options(engine, 4));
    assert_eq!(
        text, baseline,
        "{label}: jobs=4 must serialize bit-identically"
    );
}

#[test]
fn zoo_strategies_roundtrip_and_are_jobs_invariant() {
    for instance in model_zoo() {
        // The detailed lep4 instances are the zoo's non-toy workload; their
        // eager-engine sweep is minutes of work, so they run otfur only —
        // the engine that actually feeds `tiga serve` and the goldens.
        let engines: &[SolveEngine] = if instance.model == "lep4" {
            &[SolveEngine::Otfur]
        } else {
            &[SolveEngine::Otfur, SolveEngine::Jacobi]
        };
        for &engine in engines {
            check_instance(&instance, engine);
        }
    }
}

#[test]
fn fuzz_generated_strategies_roundtrip_and_are_jobs_invariant() {
    let instances = fuzz_matrix_instances();
    assert!(!instances.is_empty());
    let mut winning = 0;
    for instance in &instances {
        check_instance(instance, SolveEngine::Otfur);
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

fn strategies_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/strategies")
}

#[test]
fn checked_in_goldens_are_serializer_fixpoints() {
    let mut count = 0;
    for entry in std::fs::read_dir(strategies_dir()).expect("examples/strategies exists") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|e| e != "strategy") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("golden is readable");
        let parsed = parse_strategy(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let reprinted = print_strategy(&parsed.model, parsed.winning, parsed.strategy.as_ref());
        assert_eq!(
            reprinted, text,
            "{name}: the checked-in golden must be an exact serializer fixpoint"
        );
        count += 1;
    }
    assert!(
        count >= 8,
        "expected ≥ 8 golden strategy files, found {count}"
    );
}
