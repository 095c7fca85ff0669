//! Emits the engine × model ablation matrix as machine-readable JSON, and
//! optionally gates it against a checked-in baseline.
//!
//! Runs both solver engines (`otfur`, `jacobi`) over the
//! benchmark model zoo *and* the fixed fuzz seed set
//! ([`tiga_bench::fuzz_matrix_instances`]) and writes one JSON object per
//! (model, purpose, engine) combination to `BENCH_solver.json` (override
//! with `--out PATH`).
//!
//! `--smoke` restricts the zoo sweep to the smallest model, every safety
//! purpose, every time-bounded purpose and the LEP-N scaling family, so CI
//! can exercise the full pipeline — including the safety dual fixpoint,
//! the `#t`-augmented bounded attractor and a non-toy workload — in
//! seconds and archive the artifact; the fuzz seed set is always
//! included, pinning engine counters on *generated* systems too.
//!
//! `--check PATH` compares the run's *deterministic* counters (explored
//! states, zone counts, the five zone-memory counters, verdicts — never
//! wall time) against a previously
//! written matrix and exits non-zero on any drift; CI runs
//!
//! ```text
//! solver_matrix --smoke --check BENCH_solver.baseline.json
//! ```
//!
//! Refresh the baseline after an intentional solver change with:
//!
//! ```text
//! cargo run --release -p tiga-bench --bin solver_matrix -- --smoke --out BENCH_solver.baseline.json
//! ```

use tiga_bench::{
    compare_to_baseline, engine_matrix_rows, fuzz_matrix_instances, matrix_rows_to_json, model_zoo,
    parse_matrix_json, BaselineRow,
};
use tiga_tctl::PathQuantifier;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // A flag given without its value is a hard error: silently ignoring a
    // truncated `--check` would disable the regression gate with exit 0.
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .unwrap_or_else(|| {
                    eprintln!("error: `{flag}` expects a value");
                    std::process::exit(2);
                })
                .clone()
        })
    };
    let check_path = flag_value("--check");
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_solver.json".to_string());

    // Load and parse the baseline *before* the matrix run: a missing or
    // malformed baseline is a usage error (exit 2) and must be reported
    // immediately, never as a panic — the file is hand-refreshed and CI
    // feeds whatever is checked in.
    let baseline = check_path.map(|baseline_path| {
        let baseline_text = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "error: cannot read baseline `{baseline_path}`: {e}\n\
                     hint: create it with `cargo run --release -p tiga-bench --bin solver_matrix \
                     -- --smoke --out {baseline_path}`"
                );
                std::process::exit(2);
            }
        };
        match parse_matrix_json(&baseline_text) {
            Ok(rows) => (baseline_path, rows),
            Err(e) => {
                eprintln!("error: malformed baseline `{baseline_path}`: {e}");
                std::process::exit(2);
            }
        }
    });

    let zoo = model_zoo();
    let mut instances = if smoke {
        // The zoo is ordered smallest-first; the smoke run keeps the first
        // model's purposes, every safety purpose (so the dual fixpoint is
        // gated too), every time-bounded purpose (so the `#t`-augmented
        // attractor's counters are pinned) and the whole LEP family (so
        // the baseline pins the scaling rows, lep4 included).
        let first = zoo[0].model.clone();
        zoo.into_iter()
            .filter(|z| {
                z.model == first
                    || z.model.starts_with("lep")
                    || z.purpose.quantifier == PathQuantifier::Safety
                    || z.purpose.bound.is_some()
            })
            .collect::<Vec<_>>()
    } else {
        zoo
    };
    // The fixed fuzz seed set rides along in both modes: engine counters on
    // generated systems are part of the baseline contract.
    instances.extend(fuzz_matrix_instances());

    let mut rows = Vec::new();
    for instance in &instances {
        for row in engine_matrix_rows(instance) {
            println!(
                "{}/{} [{}]: winning={} states={} iterations={} subsumed={} pruned={} early={} total={}us",
                row.model,
                row.purpose,
                row.engine,
                row.solution.winning_from_initial,
                row.solution.stats().discrete_states,
                row.solution.stats().iterations,
                row.solution.stats().subsumed_zones,
                row.solution.stats().pruned_evaluations,
                row.solution.stats().early_terminated,
                row.solution.timed.total_time().as_micros(),
            );
            rows.push(row);
        }
    }

    let json = matrix_rows_to_json(&rows);
    std::fs::write(&out_path, json).expect("write BENCH_solver.json");
    println!("wrote {} rows to {out_path}", rows.len());

    if let Some((baseline_path, baseline)) = baseline {
        let current: Vec<BaselineRow> = rows.iter().map(BaselineRow::from).collect();
        let diffs = compare_to_baseline(&current, &baseline);
        if diffs.is_empty() {
            println!(
                "baseline check: {} rows match {baseline_path}",
                current.len()
            );
        } else {
            let regressions = diffs.iter().filter(|d| d.regression).count();
            eprintln!(
                "baseline check FAILED against {baseline_path} ({} diffs, {regressions} regressions):",
                diffs.len()
            );
            for diff in &diffs {
                eprintln!("  {diff}");
            }
            eprintln!(
                "refresh after an intentional solver change with:\n  cargo run --release -p \
                 tiga-bench --bin solver_matrix -- --smoke --out {baseline_path}"
            );
            std::process::exit(1);
        }
    }
}
