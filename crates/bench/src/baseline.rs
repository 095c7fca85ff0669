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
//! exactly, while the timing fields are present but ignored.  Parsing is
//! hand-rolled (the offline build has no serde) and tolerant of whitespace,
//! but expects the field set `matrix_rows_to_json` emits.

use crate::MatrixRow;
use std::fmt;
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
    /// Explored discrete states.
    pub discrete_states: u64,
    /// Explored game-graph edges.
    pub graph_edges: u64,
    /// Fixpoint iterations / reevaluations.
    pub iterations: u64,
    /// Zones in the winning federations.
    pub winning_zones: u64,
    /// Largest federation seen.
    pub peak_federation_size: u64,
    /// Zones in the reach federations.
    pub reach_zones: u64,
    /// Zones subsumed by the passed list.
    pub subsumed_zones: u64,
    /// Reevaluations skipped by losing-subtree pruning.
    pub pruned_evaluations: u64,
    /// Whether the search stopped early.
    pub early_terminated: bool,
    /// Distinct zones interned by the zone store.
    pub interned_zones: u64,
    /// Intern lookups that found the zone already present.
    pub intern_hits: u64,
    /// Deep DBM copies at the solver's storage sites.
    pub dbm_clones: u64,
    /// Peak simultaneous reach + winning zone count.
    pub peak_live_zones: u64,
    /// Bytes saved by minimal-constraint zone storage.
    pub minimized_bytes_saved: u64,
}

impl BaselineRow {
    /// Stable row key within a matrix.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}/{} [{}]", self.model, self.purpose, self.engine)
    }

    fn from_stats(
        model: &str,
        purpose: &str,
        engine: &str,
        winning: bool,
        s: &SolverStats,
    ) -> Self {
        BaselineRow {
            model: model.to_string(),
            purpose: purpose.to_string(),
            engine: engine.to_string(),
            winning,
            discrete_states: s.discrete_states as u64,
            graph_edges: s.graph_edges as u64,
            iterations: s.iterations as u64,
            winning_zones: s.winning_zones as u64,
            peak_federation_size: s.peak_federation_size as u64,
            reach_zones: s.reach_zones as u64,
            subsumed_zones: s.subsumed_zones as u64,
            pruned_evaluations: s.pruned_evaluations as u64,
            early_terminated: s.early_terminated,
            interned_zones: s.interned_zones as u64,
            intern_hits: s.intern_hits as u64,
            dbm_clones: s.dbm_clones as u64,
            peak_live_zones: s.peak_live_zones as u64,
            minimized_bytes_saved: s.minimized_bytes_saved as u64,
        }
    }
}

impl From<&MatrixRow> for BaselineRow {
    fn from(row: &MatrixRow) -> Self {
        BaselineRow::from_stats(
            &row.model,
            &row.purpose,
            &row.engine,
            row.solution.winning_from_initial,
            row.solution.stats(),
        )
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
    if cur.early_terminated != base.early_terminated {
        diffs.push(BaselineDiff {
            key: key.clone(),
            detail: format!(
                "early_terminated changed: {} -> {}",
                base.early_terminated, cur.early_terminated
            ),
            // Losing early termination means more work; gaining it is an
            // improvement.
            regression: base.early_terminated,
        });
    }
    // Work and memory counters: higher = worse.
    let work: [(&str, u64, u64); 9] = [
        ("discrete_states", base.discrete_states, cur.discrete_states),
        ("graph_edges", base.graph_edges, cur.graph_edges),
        ("iterations", base.iterations, cur.iterations),
        ("winning_zones", base.winning_zones, cur.winning_zones),
        (
            "peak_federation_size",
            base.peak_federation_size,
            cur.peak_federation_size,
        ),
        ("reach_zones", base.reach_zones, cur.reach_zones),
        ("interned_zones", base.interned_zones, cur.interned_zones),
        ("dbm_clones", base.dbm_clones, cur.dbm_clones),
        ("peak_live_zones", base.peak_live_zones, cur.peak_live_zones),
    ];
    for (name, was, now) in work {
        if was != now {
            diffs.push(BaselineDiff {
                key: key.clone(),
                detail: format!("{name}: {was} -> {now}"),
                regression: now > was,
            });
        }
    }
    // Effectiveness counters: lower = worse (the optimizations fired less).
    let effectiveness: [(&str, u64, u64); 4] = [
        ("subsumed_zones", base.subsumed_zones, cur.subsumed_zones),
        (
            "pruned_evaluations",
            base.pruned_evaluations,
            cur.pruned_evaluations,
        ),
        ("intern_hits", base.intern_hits, cur.intern_hits),
        (
            "minimized_bytes_saved",
            base.minimized_bytes_saved,
            cur.minimized_bytes_saved,
        ),
    ];
    for (name, was, now) in effectiveness {
        if was != now {
            diffs.push(BaselineDiff {
                key: key.clone(),
                detail: format!("{name}: {was} -> {now}"),
                regression: now < was,
            });
        }
    }
}

/// Parses `solver_matrix` JSON output back into baseline rows.
///
/// # Errors
///
/// Returns a description of the first malformed object or missing field.
pub fn parse_matrix_json(input: &str) -> Result<Vec<BaselineRow>, String> {
    let mut rows = Vec::new();
    let mut rest = input;
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            return Err("unbalanced `{` in baseline JSON".to_string());
        };
        let object = &rest[open + 1..open + close];
        rows.push(parse_object(object).map_err(|e| format!("row {}: {e}", rows.len() + 1))?);
        rest = &rest[open + close + 1..];
    }
    if rows.is_empty() {
        return Err("baseline JSON contains no rows".to_string());
    }
    Ok(rows)
}

fn parse_object(object: &str) -> Result<BaselineRow, String> {
    Ok(BaselineRow {
        model: field_str(object, "model")?,
        purpose: field_str(object, "purpose")?,
        engine: field_str(object, "engine")?,
        winning: field_bool(object, "winning")?,
        discrete_states: field_u64(object, "discrete_states")?,
        graph_edges: field_u64(object, "graph_edges")?,
        iterations: field_u64(object, "iterations")?,
        winning_zones: field_u64(object, "winning_zones")?,
        peak_federation_size: field_u64(object, "peak_federation_size")?,
        reach_zones: field_u64(object, "reach_zones")?,
        subsumed_zones: field_u64(object, "subsumed_zones")?,
        pruned_evaluations: field_u64(object, "pruned_evaluations")?,
        early_terminated: field_bool(object, "early_terminated")?,
        interned_zones: field_u64(object, "interned_zones")?,
        intern_hits: field_u64(object, "intern_hits")?,
        dbm_clones: field_u64(object, "dbm_clones")?,
        peak_live_zones: field_u64(object, "peak_live_zones")?,
        minimized_bytes_saved: field_u64(object, "minimized_bytes_saved")?,
    })
}

/// The raw text of `"name": <value>` inside one flat JSON object.
fn field_raw<'a>(object: &'a str, name: &str) -> Result<&'a str, String> {
    let needle = format!("\"{name}\":");
    let at = object
        .find(&needle)
        .ok_or_else(|| format!("missing field `{name}`"))?;
    let value = object[at + needle.len()..].trim_start();
    let end = if let Some(inner) = value.strip_prefix('"') {
        inner
            .find('"')
            .map(|i| i + 2)
            .ok_or_else(|| format!("unterminated string for `{name}`"))?
    } else {
        value.find([',', '\n']).unwrap_or(value.len())
    };
    Ok(value[..end].trim_end())
}

fn field_str(object: &str, name: &str) -> Result<String, String> {
    let raw = field_raw(object, name)?;
    raw.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(ToString::to_string)
        .ok_or_else(|| format!("field `{name}` is not a string: `{raw}`"))
}

fn field_u64(object: &str, name: &str) -> Result<u64, String> {
    let raw = field_raw(object, name)?;
    raw.parse()
        .map_err(|_| format!("field `{name}` is not an integer: `{raw}`"))
}

fn field_bool(object: &str, name: &str) -> Result<bool, String> {
    match field_raw(object, name)? {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("field `{name}` is not a bool: `{other}`")),
    }
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
            minimized_bytes_saved: 44,
        }
    }

    const SAMPLE_JSON: &str = r#"[
  {"model": "coffee_machine", "purpose": "coffee", "engine": "otfur", "winning": true, "discrete_states": 5, "graph_edges": 9, "iterations": 11, "winning_zones": 5, "peak_federation_size": 2, "reach_zones": 6, "subsumed_zones": 4, "pruned_evaluations": 3, "early_terminated": true, "interned_zones": 3, "intern_hits": 3, "dbm_clones": 4, "peak_live_zones": 9, "minimized_bytes_saved": 44, "exploration_us": 12, "fixpoint_us": 34, "total_us": 46}
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
            .contains("not an integer"));
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
        assert!(err.contains("unbalanced"), "{err}");
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
  {"early_terminated": true, "engine": "otfur", "winning": true, "discrete_states": 5, "model": "coffee_machine", "graph_edges": 9, "purpose": "coffee", "iterations": 11, "peak_federation_size": 2, "winning_zones": 5, "subsumed_zones": 4, "reach_zones": 6, "pruned_evaluations": 3, "minimized_bytes_saved": 44, "dbm_clones": 4, "intern_hits": 3, "peak_live_zones": 9, "interned_zones": 3}
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
        worse.discrete_states += 10;
        worse.subsumed_zones -= 1;
        worse.early_terminated = false;
        let diffs = compare_to_baseline(&[worse], &[sample()]);
        assert_eq!(diffs.len(), 3, "{diffs:?}");
        assert!(diffs.iter().all(|d| d.regression), "{diffs:?}");
    }

    #[test]
    fn better_counters_are_flagged_as_improvements() {
        let mut better = sample();
        better.discrete_states -= 1;
        better.pruned_evaluations += 2;
        let diffs = compare_to_baseline(&[better], &[sample()]);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs.iter().all(|d| !d.regression), "{diffs:?}");
    }

    #[test]
    fn tampered_memory_counters_fail_the_gate() {
        // A row whose memory counters drifted from the baseline fails the
        // gate, labelled by the direction the change points.
        let mut tampered = sample();
        tampered.intern_hits -= 1;
        tampered.dbm_clones += 1;
        tampered.interned_zones += 1;
        tampered.peak_live_zones += 1;
        tampered.minimized_bytes_saved += 1;
        let diffs = compare_to_baseline(&[tampered], &[sample()]);
        assert_eq!(diffs.len(), 5, "{diffs:?}");
        for (field, regression) in [
            ("intern_hits", true),
            ("dbm_clones", true),
            ("interned_zones", true),
            ("peak_live_zones", true),
            ("minimized_bytes_saved", false),
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
