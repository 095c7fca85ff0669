//! Solver-stat regression gating against a checked-in baseline.
//!
//! The solver engines are fully deterministic: for a fixed model, purpose
//! and engine, the explored-state / zone counters in [`SolverStats`] are
//! bit-identical across runs and machines (hash maps are used for interning
//! only, never iterated).  That makes the counters — unlike wall time — a
//! sound CI gate: `solver_matrix --smoke --check BENCH_solver.baseline.json`
//! recomputes the smoke matrix and fails on any drift from the checked-in
//! baseline.
//!
//! The gate is a *snapshot*: improvements fail too (with a message telling
//! the author to refresh), so the baseline always documents the current
//! engine behaviour.  Refreshing is one command:
//!
//! ```text
//! cargo run --release -p tiga-bench --bin solver_matrix -- --smoke --out BENCH_solver.baseline.json
//! ```
//!
//! The baseline file is ordinary `solver_matrix` output; every counter —
//! the work, effectiveness and zone-memory counters alike — is compared
//! exactly, while the `*_us` timing fields are present but ignored.  Any
//! other field is an error, so a counter removed from [`SolverStats`]
//! cannot linger in the file unchecked.

use crate::MatrixRow;
use std::fmt;
use tiga_solver::json::{self, Counter, Json};
use tiga_solver::SolverStats;

/// The deterministic slice of one matrix row: everything that is compared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineRow {
    /// Model identifier.
    pub model: String,
    /// Purpose identifier.
    pub purpose: String,
    /// Engine name.
    pub engine: String,
    /// Whether the initial state is winning.
    pub winning: bool,
    /// The solver counters.
    pub stats: SolverStats,
}

impl BaselineRow {
    /// Stable row key within a matrix.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}/{} [{}]", self.model, self.purpose, self.engine)
    }
}

impl From<&MatrixRow> for BaselineRow {
    fn from(row: &MatrixRow) -> Self {
        BaselineRow {
            model: row.model.clone(),
            purpose: row.purpose.clone(),
            engine: row.engine.clone(),
            winning: row.solution.winning_from_initial,
            stats: row.solution.stats().clone(),
        }
    }
}

/// One detected difference between the current run and the baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineDiff {
    /// Row key (`model/purpose [engine]`).
    pub key: String,
    /// Human-readable description of the drift.
    pub detail: String,
    /// `true` when the drift makes the solver *worse* (more work, lost
    /// verdict/termination); `false` for improvements, which still fail the
    /// snapshot but tell the author to refresh instead of to investigate.
    pub regression: bool,
}

impl fmt::Display for BaselineDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.regression {
            "REGRESSION"
        } else {
            "improvement"
        };
        write!(f, "{tag}: {}: {}", self.key, self.detail)
    }
}

/// Compares the current rows against the baseline.  Empty result = gate
/// passes.  Missing or extra rows are regressions (the matrix shape is part
/// of the contract).
#[must_use]
pub fn compare_to_baseline(current: &[BaselineRow], baseline: &[BaselineRow]) -> Vec<BaselineDiff> {
    let mut diffs = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.key() == base.key()) else {
            diffs.push(BaselineDiff {
                key: base.key(),
                detail: "row missing from the current run".to_string(),
                regression: true,
            });
            continue;
        };
        compare_row(cur, base, &mut diffs);
    }
    for cur in current {
        if !baseline.iter().any(|b| b.key() == cur.key()) {
            diffs.push(BaselineDiff {
                key: cur.key(),
                detail: "row not present in the baseline (refresh it)".to_string(),
                regression: true,
            });
        }
    }
    diffs
}

/// Counters that measure how often an optimization fired: fewer is worse.
/// Every other count measures work or memory: more is worse.
const EFFECTIVENESS: [&str; 3] = ["subsumed_zones", "pruned_evaluations", "intern_hits"];

fn compare_row(cur: &BaselineRow, base: &BaselineRow, diffs: &mut Vec<BaselineDiff>) {
    let key = cur.key();
    if cur.winning != base.winning {
        diffs.push(BaselineDiff {
            key: key.clone(),
            detail: format!(
                "verdict flipped: winning {} -> {}",
                base.winning, cur.winning
            ),
            regression: true,
        });
    }
    for ((name, was), (_, now)) in base.stats.counters().into_iter().zip(cur.stats.counters()) {
        let regression = match (was, now) {
            _ if was == now => continue,
            (Counter::Count(was), Counter::Count(now)) if EFFECTIVENESS.contains(&name) => {
                now < was
            }
            (Counter::Count(was), Counter::Count(now)) => now > was,
            // Losing early termination means more work; gaining it is an
            // improvement.
            (was, _) => was == Counter::Flag(true),
        };
        diffs.push(BaselineDiff {
            key: key.clone(),
            detail: format!("{name}: {was} -> {now}"),
            regression,
        });
    }
}

/// Parses `solver_matrix` JSON output back into baseline rows.  A lone row
/// object reads as a one-row matrix.
///
/// # Errors
///
/// Returns the JSON syntax error with its byte offset, or the first row
/// with a missing, mistyped or unknown field.
pub fn parse_matrix_json(input: &str) -> Result<Vec<BaselineRow>, String> {
    let rows = match json::parse(input) {
        Ok(Json::Arr(rows)) => rows,
        Ok(row) => vec![row],
        Err(err) => return Err(format!("byte {}: {}", err.at, err.message)),
    };
    if rows.is_empty() {
        return Err("baseline JSON contains no rows".to_string());
    }
    rows.iter()
        .enumerate()
        .map(|(i, row)| parse_row(row).map_err(|e| format!("row {}: {e}", i + 1)))
        .collect()
}

/// The fields that identify a row; the others are `*_us` timing fields and
/// the [`SolverStats::counters`].
const IDENTITY: [&str; 4] = ["model", "purpose", "engine", "winning"];

fn parse_row(row: &Json) -> Result<BaselineRow, String> {
    if let Json::Obj(fields) = row {
        let counters = SolverStats::default().counters();
        let known = |key: &str| {
            IDENTITY.contains(&key)
                || key.ends_with("_us")
                || counters.iter().any(|(name, _)| *name == key)
        };
        if let Some((key, _)) = fields.iter().find(|(key, _)| !known(key)) {
            return Err(format!("unknown field `{key}`"));
        }
    }
    let text = |name: &str| Ok::<_, String>(row.field(name)?.str_field(name)?.to_string());
    Ok(BaselineRow {
        model: text("model")?,
        purpose: text("purpose")?,
        engine: text("engine")?,
        winning: row.field("winning")?.bool_field("winning")?,
        stats: SolverStats::from_json(row)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BaselineRow {
        BaselineRow {
            model: "coffee_machine".into(),
            purpose: "coffee".into(),
            engine: "otfur".into(),
            winning: true,
            stats: SolverStats {
                discrete_states: 5,
                graph_edges: 9,
                iterations: 11,
                winning_zones: 5,
                peak_federation_size: 2,
                reach_zones: 6,
                subsumed_zones: 4,
                pruned_evaluations: 3,
                early_terminated: true,
                interned_zones: 3,
                intern_hits: 3,
                dbm_clones: 4,
                peak_live_zones: 9,
            },
        }
    }

    const SAMPLE_JSON: &str = r#"[
  {"model": "coffee_machine", "purpose": "coffee", "engine": "otfur", "winning": true, "discrete_states": 5, "graph_edges": 9, "iterations": 11, "winning_zones": 5, "peak_federation_size": 2, "reach_zones": 6, "subsumed_zones": 4, "pruned_evaluations": 3, "early_terminated": true, "interned_zones": 3, "intern_hits": 3, "dbm_clones": 4, "peak_live_zones": 9, "exploration_us": 12, "fixpoint_us": 34, "total_us": 46}
]
"#;

    #[test]
    fn parses_matrix_json() {
        let rows = parse_matrix_json(SAMPLE_JSON).unwrap();
        assert_eq!(rows, vec![sample()]);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_matrix_json("[]").is_err());
        assert!(parse_matrix_json("{\"model\": \"m\"}")
            .unwrap_err()
            .contains("missing field"));
        let bad = SAMPLE_JSON.replace("\"discrete_states\": 5", "\"discrete_states\": maybe");
        assert!(parse_matrix_json(&bad)
            .unwrap_err()
            .contains("expected a JSON value"));
        let bad = SAMPLE_JSON.replace("\"discrete_states\": 5", "\"discrete_states\": \"5\"");
        assert!(parse_matrix_json(&bad)
            .unwrap_err()
            .contains("`discrete_states` must be a non-negative number"));
    }

    #[test]
    fn unknown_fields_are_rejected_by_name() {
        // A counter that no longer exists, or any other stray key, must not
        // pass the gate unchecked.
        for key in ["stale_counter", "fixpoint_ms"] {
            let bad = SAMPLE_JSON.replace(
                "\"peak_live_zones\": 9,",
                &format!("\"peak_live_zones\": 9, \"{key}\": 44,"),
            );
            let err = parse_matrix_json(&bad).unwrap_err();
            assert!(err.contains(&format!("unknown field `{key}`")), "{err}");
        }
    }

    #[test]
    fn every_prefix_truncation_is_a_clean_error_or_fewer_rows() {
        // A truncated baseline (half-written file, interrupted download)
        // must never panic: every byte-prefix of a real matrix JSON either
        // fails with a message or parses as complete rows only.
        let full = parse_matrix_json(SAMPLE_JSON).unwrap();
        for cut in 0..SAMPLE_JSON.len() {
            let prefix = &SAMPLE_JSON[..cut];
            let result = std::panic::catch_unwind(|| parse_matrix_json(prefix))
                .unwrap_or_else(|_| panic!("prefix of {cut} bytes PANICKED:\n{prefix}"));
            if let Ok(rows) = result {
                assert!(
                    rows.len() <= full.len(),
                    "prefix of {cut} bytes invented rows"
                );
                assert_eq!(rows, full[..rows.len()].to_vec());
            }
        }
    }

    #[test]
    fn truncation_variants_error_with_messages() {
        // Mid-string cut: the object never closes.
        let err = parse_matrix_json("[\n  {\"model\": \"cof").unwrap_err();
        assert!(err.contains("unterminated string"), "{err}");
        // Closed object with the tail fields missing.
        let err = parse_matrix_json("[{\"model\": \"m\", \"purpose\": \"p\"}]").unwrap_err();
        assert!(err.contains("missing field"), "{err}");
        // Unterminated string value inside a closed object.
        let err = parse_matrix_json("[{\"model\": \"m}]").unwrap_err();
        assert!(!err.is_empty());
        // Stray bytes only.
        assert!(parse_matrix_json("}}}}").is_err());
        assert!(parse_matrix_json("").is_err());
    }

    #[test]
    fn reordered_keys_parse_identically() {
        // Field lookup is by name, so key order inside an object must not
        // matter — a hand-edited or re-serialized baseline stays valid.
        let reordered = r#"[
  {"early_terminated": true, "engine": "otfur", "winning": true, "discrete_states": 5, "model": "coffee_machine", "graph_edges": 9, "purpose": "coffee", "iterations": 11, "peak_federation_size": 2, "winning_zones": 5, "subsumed_zones": 4, "reach_zones": 6, "pruned_evaluations": 3, "dbm_clones": 4, "intern_hits": 3, "peak_live_zones": 9, "interned_zones": 3}
]
"#;
        assert_eq!(parse_matrix_json(reordered).unwrap(), vec![sample()]);
    }

    #[test]
    fn identical_rows_pass_the_gate() {
        assert!(compare_to_baseline(&[sample()], &[sample()]).is_empty());
    }

    #[test]
    fn worse_counters_are_regressions() {
        let mut worse = sample();
        worse.stats.discrete_states += 10;
        worse.stats.subsumed_zones -= 1;
        worse.stats.early_terminated = false;
        let diffs = compare_to_baseline(&[worse], &[sample()]);
        assert_eq!(diffs.len(), 3, "{diffs:?}");
        assert!(diffs.iter().all(|d| d.regression), "{diffs:?}");
    }

    #[test]
    fn better_counters_are_flagged_as_improvements() {
        let mut better = sample();
        better.stats.discrete_states -= 1;
        better.stats.pruned_evaluations += 2;
        let diffs = compare_to_baseline(&[better], &[sample()]);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs.iter().all(|d| !d.regression), "{diffs:?}");
    }

    #[test]
    fn tampered_memory_counters_fail_the_gate() {
        // A row whose memory counters drifted from the baseline fails the
        // gate, labelled by the direction the change points.
        let mut tampered = sample();
        tampered.stats.intern_hits -= 1;
        tampered.stats.dbm_clones -= 1;
        tampered.stats.interned_zones += 1;
        tampered.stats.peak_live_zones += 1;
        let diffs = compare_to_baseline(&[tampered], &[sample()]);
        assert_eq!(diffs.len(), 4, "{diffs:?}");
        for (field, regression) in [
            ("intern_hits", true),
            ("dbm_clones", false),
            ("interned_zones", true),
            ("peak_live_zones", true),
        ] {
            let diff = diffs.iter().find(|d| d.detail.starts_with(field));
            assert_eq!(diff.map(|d| d.regression), Some(regression), "{diffs:?}");
        }
    }

    #[test]
    fn verdict_flip_and_shape_changes_are_regressions() {
        let mut flipped = sample();
        flipped.winning = false;
        let diffs = compare_to_baseline(&[flipped], &[sample()]);
        assert!(
            diffs.iter().any(|d| d.detail.contains("verdict")),
            "{diffs:?}"
        );

        let mut extra = sample();
        extra.engine = "jacobi".into();
        let diffs = compare_to_baseline(&[sample(), extra.clone()], &[sample()]);
        assert!(
            diffs.iter().any(|d| d.detail.contains("not present")),
            "{diffs:?}"
        );
        let diffs = compare_to_baseline(&[sample()], &[sample(), extra]);
        assert!(
            diffs.iter().any(|d| d.detail.contains("missing")),
            "{diffs:?}"
        );
    }

    #[test]
    fn real_matrix_output_roundtrips_through_the_parser() {
        let zoo = crate::model_zoo();
        let rows = crate::engine_matrix_rows(&zoo[0]);
        let json = crate::matrix_rows_to_json(&rows);
        let parsed = parse_matrix_json(&json).unwrap();
        let direct: Vec<BaselineRow> = rows.iter().map(BaselineRow::from).collect();
        assert_eq!(parsed, direct);
        assert!(compare_to_baseline(&parsed, &direct).is_empty());
    }
}
