//! In-process pins for the `tiga serve` jsonl protocol.
//!
//! The invariants CI's serve-smoke job later checks from the outside are
//! asserted here at the source: duplicate submissions are answered from the
//! solve cache with a payload byte-identical to the original solve's, batch
//! responses merge in submission order and are bit-identical for any
//! `--jobs`, and malformed input produces spanned error responses without
//! ending the session.  Hits write the payload stored when the game was
//! solved and re-submissions of the same text skip parsing, so the pins
//! below also cover what that must not change: an edited file is a new game,
//! and a stored payload equals what a fresh session renders.

use std::io::Cursor;
use std::path::{Path, PathBuf};
use tiga_cli::{serve_session, ServeArgs, ServeSession};
use tiga_solver::json::{self, Escaped};

fn tg_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/tg")
}

fn tg(name: &str) -> String {
    tg_dir().join(name).to_string_lossy().into_owned()
}

/// Feeds `requests` through one serve session and returns the response lines.
fn session(requests: &[String], jobs: usize) -> Vec<String> {
    let input = requests.join("\n");
    let mut output = Vec::new();
    serve_session(Cursor::new(input), &mut output, &ServeArgs { jobs })
        .expect("in-memory I/O cannot fail");
    let text = String::from_utf8(output).expect("responses are UTF-8");
    text.lines().map(ToString::to_string).collect()
}

/// Extracts the stable `payload` object from an ok response line.  The
/// payload is the envelope's last field, so it spans from the marker to the
/// envelope's closing brace.
fn payload(line: &str) -> &str {
    let start = line
        .find("\"payload\":")
        .unwrap_or_else(|| panic!("no payload in {line}"))
        + "\"payload\":".len();
    &line[start..line.len() - 1]
}

fn json_string(text: &str) -> String {
    format!("\"{}\"", Escaped(text))
}

#[test]
fn duplicate_submissions_hit_the_cache_with_byte_identical_payloads() {
    let requests = vec![
        format!(
            "{{\"id\":1,\"path\":{}}}",
            json_string(&tg("smart_light.tg"))
        ),
        format!(
            "{{\"id\":2,\"path\":{}}}",
            json_string(&tg("smart_light.tg"))
        ),
    ];
    let mut payloads_by_jobs = Vec::new();
    for jobs in [1, 4] {
        let lines = session(&requests, jobs);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"id\":1,"), "{}", lines[0]);
        assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
        assert!(lines[0].contains("\"cache_misses\":1"), "{}", lines[0]);
        assert!(lines[1].contains("\"id\":2,"), "{}", lines[1]);
        assert!(lines[1].contains("\"cache\":\"hit\""), "{}", lines[1]);
        assert!(lines[1].contains("\"cache_hits\":1"), "{}", lines[1]);
        assert!(lines[0].contains("\"verdict\":\"winning\""), "{}", lines[0]);
        assert_eq!(
            payload(&lines[0]),
            payload(&lines[1]),
            "hit payload must be byte-identical to the miss"
        );
        assert!(
            payload(&lines[0]).contains("\"strategy\":\"tiga-strategy v2\\u000a"),
            "payload embeds the versioned strategy text"
        );
        payloads_by_jobs.push(payload(&lines[0]).to_string());
    }
    assert_eq!(
        payloads_by_jobs[0], payloads_by_jobs[1],
        "payloads are bit-identical for any --jobs"
    );
}

#[test]
fn inline_source_shares_the_cache_key_with_its_file() {
    let source = std::fs::read_to_string(tg("smart_light.tg")).unwrap();
    let requests = vec![
        format!("{{\"path\":{}}}", json_string(&tg("smart_light.tg"))),
        format!("{{\"model\":{}}}", json_string(&source)),
    ];
    let lines = session(&requests, 1);
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(
        lines[1].contains("\"cache\":\"hit\""),
        "an inline copy of the same model is the same game: {}",
        lines[1]
    );
    assert_eq!(payload(&lines[0]), payload(&lines[1]));
}

#[test]
fn malformed_lines_are_spanned_errors_and_the_session_survives() {
    let light = json_string(&tg("smart_light.tg"));
    let requests = vec![
        "{\"id\":1,\"path\" \"oops\"}".to_string(),
        "{\"id\":2,\"path\":\"/nonexistent/missing.tg\"}".to_string(),
        format!(
            "{{\"id\":3,\"path\":{},\"wat\":true}}",
            json_string(&tg("smart_light.tg"))
        ),
        format!(
            "{{\"id\":4,\"path\":{}}}",
            json_string(&tg("smart_light.tg"))
        ),
        // Nested far past the reader's depth cap, then a quantifier range
        // past its cap; the session answers the request after them.
        format!("{{\"id\":5,\"x\":{}}}", "[".repeat(200_000) + &"]".repeat(200_000)),
        format!("{{\"id\":6,\"path\":{light},\"purpose\":\"control: A<> forall (i: 0..99999999999) true\"}}"),
        format!("{{\"id\":7,\"path\":{light}}}"),
    ];
    let lines = session(&requests, 1);
    assert_eq!(lines.len(), 7, "{lines:?}");
    // JSON syntax error: spanned with line and byte offset, id falls back to
    // the line number.
    assert!(
        lines[0].contains("\"id\":1,\"status\":\"error\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("\"line\":1,\"byte\":15"), "{}", lines[0]);
    // Missing file: a request-level error.
    assert!(lines[1].contains("\"id\":2,"), "{}", lines[1]);
    assert!(lines[1].contains("\"status\":\"error\""), "{}", lines[1]);
    assert!(lines[1].contains("cannot read"), "{}", lines[1]);
    // Unknown field: rejected, not ignored.
    assert!(lines[2].contains("\"status\":\"error\""), "{}", lines[2]);
    assert!(
        lines[2].contains("unknown request field `wat`"),
        "{}",
        lines[2]
    );
    // The session is still alive and solves the good request.
    assert!(lines[3].contains("\"id\":4,"), "{}", lines[3]);
    assert!(lines[3].contains("\"status\":\"ok\""), "{}", lines[3]);
    // Too deep: refused at the first bracket past the cap, the 64th `[`
    // after the 12-byte `{"id":5,"x":` prefix.
    assert_eq!(
        lines[4],
        "{\"id\":5,\"status\":\"error\",\"line\":5,\"byte\":75,\
         \"error\":\"bad request JSON: arrays and objects nest deeper than 64 levels\"}"
    );
    // Too wide: the purpose's range is refused before it is expanded.
    let wide = "quantifier range 0..99999999999 has 100000000000 values";
    assert!(lines[5].starts_with("{\"id\":6,\"kind\":\"solve\",\"status\":\"error\""));
    assert!(lines[5].contains(wide), "{}", lines[5]);
    // The error carries the span of the range within the purpose.
    let at = "control: A<> forall (i: ".len();
    let span = format!("(bytes {at}..{})", at + "0..99999999999".len());
    assert!(lines[5].contains(&span), "{}", lines[5]);
    assert!(lines[6].starts_with("{\"id\":7,\"kind\":\"solve\",\"status\":\"ok\""));
}

#[test]
fn purpose_errors_name_the_request_field_not_the_cli_flag() {
    let light = json_string(&tg("smart_light.tg"));
    let plant = json_string(&tg("smart_light.plant.tg"));
    let requests = vec![
        format!("{{\"id\":1,\"path\":{light},\"purpose\":\"control: A<> Nobody.Home\"}}"),
        format!("{{\"id\":2,\"path\":{plant}}}"),
        format!("{{\"id\":3,\"path\":{light},\"purpose\":\"control: A<> forall (i: 0..99999999999) true\"}}"),
    ];
    let lines = session(&requests, 1);
    assert_eq!(lines.len(), 3, "{lines:?}");
    for line in &lines {
        assert!(line.contains("\"status\":\"error\""), "{line}");
        // A serve client never passed a flag, and the envelope already
        // says `error`.
        assert!(!line.contains("--purpose"), "{line}");
        assert!(!line.contains("\"error\":\"error: "), "{line}");
    }
    assert!(
        lines[0].contains("\"error\":\"bad purpose: "),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("has no `control:` line; add one or send a `purpose`"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"error\":\"bad purpose: "),
        "{}",
        lines[2]
    );
}

#[test]
fn deep_and_long_objectives_are_answered_and_the_session_survives() {
    let light = json_string(&tg("smart_light.tg"));
    let purpose = |id: usize, objective: String| {
        format!("{{\"id\":{id},\"path\":{light},\"purpose\":\"control: A<> {objective}\"}}")
    };
    let requests = vec![
        // Nested far past the expression depth cap, then chained as far.
        purpose(1, "(".repeat(100_000) + "IUT.Bright" + &")".repeat(100_000)),
        purpose(2, vec!["IUT.Bright"; 100_000].join(" or ")),
        // A wide quantifier expands into a shallow balanced conjunction.
        purpose(3, "forall (i: 131072) (i >= 0)".to_string()),
        format!("{{\"id\":4,\"path\":{light}}}"),
    ];
    let lines = session(&requests, 1);
    assert_eq!(lines.len(), 4, "{lines:?}");
    let deep = format!(
        "expression nests deeper than {} levels",
        tiga_tctl::MAX_EXPR_DEPTH
    );
    for (id, line) in lines[..2].iter().enumerate() {
        let id = id + 1;
        assert!(line.starts_with(&format!(
            "{{\"id\":{id},\"kind\":\"solve\",\"status\":\"error\""
        )));
        assert!(line.contains(&deep), "{line}");
    }
    for (id, line) in lines[2..].iter().enumerate() {
        let id = id + 3;
        assert!(line.starts_with(&format!(
            "{{\"id\":{id},\"kind\":\"solve\",\"status\":\"ok\""
        )));
        assert!(line.contains("\"verdict\":\"winning\""), "{line}");
    }
}

#[test]
fn nested_quantifiers_past_the_budget_are_refused_and_the_session_survives() {
    let light = json_string(&tg("smart_light.tg"));
    let nested = "forall (i: 1024) forall (j: 1024) forall (k: 1024) (i >= 0)";
    let requests = vec![
        // 2^30 instances: each range passes the per-range cap, their
        // product is refused before anything is expanded.
        format!("{{\"id\":1,\"path\":{light},\"purpose\":\"control: A<> {nested}\"}}"),
        format!("{{\"id\":2,\"path\":{light}}}"),
    ];
    let lines = session(&requests, 1);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(
        lines[0].starts_with("{\"id\":1,\"kind\":\"solve\",\"status\":\"error\""),
        "{}",
        lines[0]
    );
    let budget = format!(
        "quantifiers expand into 1073741824 instances (the budget is {} per objective)",
        tiga_tctl::MAX_ARRAY_SIZE
    );
    assert!(lines[0].contains(&budget), "{}", lines[0]);
    // The span covers the outer quantifier, its body's closing `)` included.
    let at = "control: A<> ".len();
    let span = format!("(bytes {at}..{})", at + nested.len());
    assert!(lines[0].contains(&span), "{}", lines[0]);
    assert!(
        lines[1].starts_with("{\"id\":2,\"kind\":\"solve\",\"status\":\"ok\""),
        "{}",
        lines[1]
    );
}

#[test]
fn unknown_engines_are_error_lines_and_the_session_survives() {
    // `solve` runs OTFUR only: a request naming an engine, even the one
    // every request runs, is refused as an unknown field.
    let requests = vec![
        format!(
            "{{\"id\":1,\"path\":{},\"engine\":\"jacobi\"}}",
            json_string(&tg("smart_light.tg"))
        ),
        format!(
            "{{\"id\":2,\"path\":{},\"engine\":\"otfur\"}}",
            json_string(&tg("smart_light.tg"))
        ),
        format!(
            "{{\"id\":3,\"path\":{}}}",
            json_string(&tg("smart_light.tg"))
        ),
    ];
    let lines = session(&requests, 1);
    assert_eq!(lines.len(), 3, "{lines:?}");
    for (i, line) in lines[..2].iter().enumerate() {
        assert!(line.contains(&format!("\"id\":{},", i + 1)), "{line}");
        assert!(line.contains("\"status\":\"error\""), "{line}");
        assert!(line.contains("unknown request field `engine`"), "{line}");
    }
    assert!(lines[2].contains("\"id\":3,"), "{}", lines[2]);
    assert!(lines[2].contains("\"status\":\"ok\""), "{}", lines[2]);
    assert!(!payload(&lines[2]).contains("\"engine\""), "{}", lines[2]);
}

#[test]
fn batch_responses_merge_in_order_and_deduplicate() {
    let paths = [
        tg("smart_light.tg"),
        tg("coffee_machine.tg"),
        tg("smart_light.tg"), // duplicate of item 0
        "/nonexistent/missing.tg".to_string(),
    ];
    let request = format!(
        "{{\"id\":9,\"kind\":\"batch\",\"paths\":[{}]}}",
        paths
            .iter()
            .map(|p| json_string(p))
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut outputs_by_jobs = Vec::new();
    for jobs in [1, 4] {
        let lines = session(std::slice::from_ref(&request), jobs);
        assert_eq!(lines.len(), 5, "4 items + summary: {lines:?}");
        for (i, line) in lines[..4].iter().enumerate() {
            assert!(
                line.contains(&format!("\"index\":{i},")),
                "responses merge in submission order: {line}"
            );
            assert!(line.contains("\"id\":9,\"kind\":\"batch-item\""), "{line}");
        }
        assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
        assert!(lines[1].contains("\"cache\":\"miss\""), "{}", lines[1]);
        assert!(lines[2].contains("\"cache\":\"hit\""), "{}", lines[2]);
        assert_eq!(
            payload(&lines[0]),
            payload(&lines[2]),
            "the duplicate's payload is byte-identical"
        );
        assert!(lines[3].contains("\"status\":\"error\""), "{}", lines[3]);
        let summary = &lines[4];
        assert!(summary.contains("\"id\":9,\"kind\":\"batch\""), "{summary}");
        assert!(summary.contains("\"items\":4,\"errors\":1"), "{summary}");
        assert!(
            summary.contains("\"cache_hits\":1,\"cache_misses\":2"),
            "{summary}"
        );
        // Everything except the envelope timing is --jobs-invariant; strip
        // elapsed_us and compare the whole session byte-for-byte.
        let stripped: Vec<String> = lines.iter().map(|l| strip_field(l, "elapsed_us")).collect();
        outputs_by_jobs.push(stripped);
    }
    assert_eq!(
        outputs_by_jobs[0], outputs_by_jobs[1],
        "batch output is bit-identical for any --jobs"
    );
}

/// Removes a `"name":<digits>` field (with its preceding or trailing comma)
/// from a response line, for timing-insensitive comparisons.
fn strip_field(line: &str, name: &str) -> String {
    let marker = format!("\"{name}\":");
    let Some(start) = line.find(&marker) else {
        return line.to_string();
    };
    let mut end = start + marker.len();
    let bytes = line.as_bytes();
    while end < bytes.len() && bytes[end].is_ascii_digit() {
        end += 1;
    }
    if end < bytes.len() && bytes[end] == b',' {
        end += 1; // also swallow the trailing comma
    } else if start > 0 && bytes[start - 1] == b',' {
        return format!("{}{}", &line[..start - 1], &line[end..]);
    }
    format!("{}{}", &line[..start], &line[end..])
}

#[test]
fn purpose_override_changes_the_game_and_the_cache_key() {
    let requests = vec![
        format!(
            "{{\"id\":1,\"path\":{}}}",
            json_string(&tg("smart_light.tg"))
        ),
        format!(
            "{{\"id\":2,\"path\":{},\"purpose\":\"control: A[] not IUT.Bright\"}}",
            json_string(&tg("smart_light.tg"))
        ),
        // The plant file has no control: line, so it needs an override...
        format!(
            "{{\"id\":3,\"path\":{}}}",
            json_string(&tg("smart_light.plant.tg"))
        ),
        // ...and solves fine with one.
        format!(
            "{{\"id\":4,\"path\":{},\"purpose\":\"control: A<> IUT.Bright\"}}",
            json_string(&tg("smart_light.plant.tg"))
        ),
    ];
    let lines = session(&requests, 1);
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(
        lines[1].contains("\"cache\":\"miss\""),
        "a different objective is a different game: {}",
        lines[1]
    );
    assert!(lines[1].contains("\"status\":\"ok\""), "{}", lines[1]);
    assert!(lines[2].contains("\"status\":\"error\""), "{}", lines[2]);
    assert!(lines[3].contains("\"status\":\"ok\""), "{}", lines[3]);
}

#[test]
fn solver_options_reach_the_solve_and_the_key() {
    let requests = vec![
        format!(
            "{{\"id\":1,\"path\":{}}}",
            json_string(&tg("smart_light.tg"))
        ),
        // Different semantics-relevant options → different cache entry.
        format!(
            "{{\"id\":2,\"path\":{},\"exhaustive\":true}}",
            json_string(&tg("smart_light.tg"))
        ),
        // A solve runs on one thread: `jobs` is an unknown field, and the
        // session goes on.
        format!(
            "{{\"id\":3,\"path\":{},\"jobs\":4}}",
            json_string(&tg("smart_light.tg"))
        ),
        // no_strategy variant: payload carries a verdict-only strategy file.
        format!(
            "{{\"id\":4,\"path\":{},\"strategy\":false}}",
            json_string(&tg("smart_light.tg"))
        ),
        // The first request again: same key, same payload.
        format!(
            "{{\"id\":5,\"path\":{}}}",
            json_string(&tg("smart_light.tg"))
        ),
    ];
    let lines = session(&requests, 1);
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(lines[1].contains("\"cache\":\"miss\""), "{}", lines[1]);
    assert!(
        lines[1].contains("\"early_terminated\":false"),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains("\"status\":\"error\""), "{}", lines[2]);
    assert!(
        lines[2].contains("unknown request field `jobs`"),
        "{}",
        lines[2]
    );
    assert!(lines[4].contains("\"cache\":\"hit\""), "{}", lines[4]);
    assert_eq!(payload(&lines[0]), payload(&lines[4]));
    assert!(lines[3].contains("\"cache\":\"miss\""), "{}", lines[3]);
    assert!(lines[3].contains("\"strategy_rules\":null"), "{}", lines[3]);
    assert!(
        payload(&lines[3]).contains("strategy none"),
        "verdict-only files still serialize: {}",
        lines[3]
    );
}

#[test]
fn controller_fields_and_downloads_ride_the_same_cache_entry() {
    let requests = vec![
        format!(
            "{{\"id\":1,\"path\":{}}}",
            json_string(&tg("smart_light.tg"))
        ),
        // Same game, controller requested: must be a cache hit — the flag
        // selects what the response carries, not what is cached.
        format!(
            "{{\"id\":2,\"path\":{},\"controller\":true}}",
            json_string(&tg("smart_light.tg"))
        ),
        // No strategy extracted → controller summary is null.
        format!(
            "{{\"id\":3,\"path\":{},\"strategy\":false,\"controller\":true}}",
            json_string(&tg("smart_light.tg"))
        ),
    ];
    let lines = session(&requests, 1);
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(lines[0].contains("\"minimized_rules\":"), "{}", lines[0]);
    assert!(lines[0].contains("\"controller_states\":"), "{}", lines[0]);
    assert!(
        !payload(&lines[0]).contains("\"controller\":\"tiga-controller"),
        "without the flag the serialized controller stays out: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"cache\":\"hit\""),
        "`controller` must not change the cache key: {}",
        lines[1]
    );
    assert!(
        payload(&lines[1]).contains("\"controller\":\"tiga-controller v2\\u000a"),
        "the flag adds the versioned controller text: {}",
        lines[1]
    );
    // Modulo the requested controller field, the hit payload is the miss's.
    let with_flag = payload(&lines[1]);
    let marker = ",\"controller\":\"";
    let start = with_flag.find(marker).unwrap();
    let end = with_flag[start + marker.len()..]
        .find("\"}")
        .map(|i| start + marker.len() + i + 1)
        .unwrap();
    let stripped = format!("{}{}", &with_flag[..start], &with_flag[end..]);
    assert_eq!(stripped, payload(&lines[0]));
    // The minimized controller never has more rules than the strategy.
    let payload = json::parse(payload(&lines[0])).unwrap();
    let field = |key: &str| payload.field(key).unwrap().usize_field(key).unwrap();
    assert!(
        field("minimized_rules") <= field("strategy_rules"),
        "{}",
        lines[0]
    );
    assert!(
        lines[2].contains("\"minimized_rules\":null,\"controller_states\":null"),
        "{}",
        lines[2]
    );
}

#[test]
fn numeric_request_fields_reject_negatives_and_overflow() {
    let light = json_string(&tg("smart_light.tg"));
    let requests = vec![
        format!("{{\"id\":1,\"path\":{light},\"max_rounds\":-1}}"),
        format!("{{\"id\":2,\"path\":{light},\"max_states\":-2}}"),
        // Beyond i64: rejected by the JSON reader itself, with a byte offset.
        format!("{{\"id\":3,\"path\":{light},\"max_rounds\":99999999999999999999}}"),
        // The session survives all of it and solves the next request.
        format!("{{\"id\":4,\"path\":{light}}}"),
    ];
    let lines = session(&requests, 1);
    assert_eq!(lines.len(), 4, "{lines:?}");
    for (line, needle) in [
        (
            &lines[0],
            "`max_rounds` must be a non-negative number, got -1",
        ),
        (
            &lines[1],
            "`max_states` must be a non-negative number, got -2",
        ),
    ] {
        assert!(line.contains("\"status\":\"error\""), "{line}");
        assert!(line.contains(needle), "expected {needle:?} in {line}");
    }
    assert!(lines[2].contains("\"status\":\"error\""), "{}", lines[2]);
    assert!(lines[2].contains("\"byte\":"), "{}", lines[2]);
    assert!(lines[2].contains("bad number"), "{}", lines[2]);
    assert!(lines[3].contains("\"status\":\"ok\""), "{}", lines[3]);
}

#[test]
fn bounded_purposes_get_distinct_cache_entries() {
    let light = json_string(&tg("smart_light.tg"));
    let requests = vec![
        format!("{{\"id\":1,\"path\":{light},\"purpose\":\"control: A<><=50 IUT.Bright\"}}"),
        // Same model, same predicate, different bound: a different game —
        // the bound lands in the canonical control: line, hence in the key.
        format!("{{\"id\":2,\"path\":{light},\"purpose\":\"control: A<><=60 IUT.Bright\"}}"),
        // Repeating the first bound hits its (still cached) entry.
        format!("{{\"id\":3,\"path\":{light},\"purpose\":\"control: A<><=50 IUT.Bright\"}}"),
        // The unbounded purpose is a third distinct game.
        format!("{{\"id\":4,\"path\":{light},\"purpose\":\"control: A<> IUT.Bright\"}}"),
        // An out-of-range bound is a spanned request error, not a panic.
        format!("{{\"id\":5,\"path\":{light},\"purpose\":\"control: A<><=-1 IUT.Bright\"}}"),
    ];
    let lines = session(&requests, 1);
    assert_eq!(lines.len(), 5, "{lines:?}");
    let key = |line: &str| {
        let marker = "\"key\":\"";
        let start = line.find(marker).unwrap() + marker.len();
        line[start..].split('"').next().unwrap().to_string()
    };
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(
        lines[1].contains("\"cache\":\"miss\""),
        "a different bound is a different game: {}",
        lines[1]
    );
    assert_ne!(
        key(&lines[0]),
        key(&lines[1]),
        "bounds T=50 and T=60 must produce distinct cache keys"
    );
    assert!(
        lines[2].contains("\"cache\":\"hit\""),
        "both bounded games sit in one session cache: {}",
        lines[2]
    );
    assert_eq!(key(&lines[0]), key(&lines[2]));
    assert_eq!(payload(&lines[0]), payload(&lines[2]));
    assert!(lines[3].contains("\"cache\":\"miss\""), "{}", lines[3]);
    assert_ne!(key(&lines[3]), key(&lines[0]));
    assert!(lines[4].contains("\"status\":\"error\""), "{}", lines[4]);
    assert!(lines[4].contains("a time bound in 0..="), "{}", lines[4]);
}

#[test]
fn blank_lines_are_skipped_and_ids_echo_strings() {
    let requests = vec![
        String::new(),
        format!(
            "{{\"id\":\"job-a\",\"path\":{}}}",
            json_string(&tg("coffee_machine.tg"))
        ),
        "   ".to_string(),
    ];
    let lines = session(&requests, 1);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"id\":\"job-a\","), "{}", lines[0]);
    assert!(
        lines[0].contains("\"model\":\"coffee-machine\""),
        "{}",
        lines[0]
    );
}

/// A scratch directory of this test process, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("tiga-serve-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn key_of(line: &str) -> &str {
    let start = line.find("\"key\":\"").expect("ok responses carry a key") + "\"key\":\"".len();
    &line[start..start + 16]
}

#[test]
fn an_edited_file_is_a_new_submission() {
    let dir = ScratchDir::new("edited");
    let model = dir.0.join("model.tg");
    let request = format!("{{\"path\":{}}}", json_string(&model.to_string_lossy()));
    let light = std::fs::read_to_string(tg("smart_light.tg")).unwrap();
    let coffee = std::fs::read_to_string(tg("coffee_machine.tg")).unwrap();
    // One session, the file rewritten between requests: the path stays, the
    // content (and so the game) changes, and changing it back hits again.
    let mut session = ServeSession::new(ServeArgs { jobs: 1 });
    let mut answer = |text: &str| {
        std::fs::write(&model, text).unwrap();
        let mut out = Vec::new();
        session.respond(&request, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    };
    let first = answer(&light);
    let edited = answer(&coffee);
    let reverted = answer(&light);
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    assert!(edited.contains("\"cache\":\"miss\""), "{edited}");
    assert!(edited.contains("\"model\":\"coffee-machine\""), "{edited}");
    assert_ne!(key_of(&first), key_of(&edited));
    assert!(reverted.contains("\"cache\":\"hit\""), "{reverted}");
    assert_eq!(payload(first.trim_end()), payload(reverted.trim_end()));
}

#[test]
fn a_repeated_submission_with_new_options_still_solves() {
    let light = json_string(&tg("smart_light.tg"));
    let no_strategy = format!("{{\"path\":{light},\"strategy\":false}}");
    // The second request re-submits the same text, which the memo knows,
    // but under options not solved yet: a miss, parsed again, whose payload
    // equals a fresh session's.
    let lines = session(&[format!("{{\"path\":{light}}}"), no_strategy.clone()], 1);
    let fresh = session(&[no_strategy], 1);
    assert!(lines[1].contains("\"cache\":\"miss\""), "{}", lines[1]);
    assert_eq!(payload(&lines[1]), payload(&fresh[0]));
    assert_ne!(key_of(&lines[0]), key_of(&lines[1]));
}

#[test]
fn stored_payloads_equal_a_fresh_render_for_every_objective() {
    // Every checked-in objective small enough for a debug-build test: the
    // controller field rendered on a later hit equals the one rendered on a
    // miss in a fresh session, and the plain hit equals its miss.
    let mut objectives: Vec<String> = std::fs::read_dir(tg_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| {
            name.ends_with(".tg") && !name.ends_with(".plant.tg") && !name.starts_with("lep4")
        })
        .collect();
    objectives.sort();
    assert!(objectives.len() >= 8, "{objectives:?}");
    for name in &objectives {
        let path = json_string(&tg(name));
        let plain = format!("{{\"path\":{path}}}");
        let with_controller = format!("{{\"path\":{path},\"controller\":true}}");
        let warm = session(&[plain.clone(), plain, with_controller.clone()], 1);
        let cold = session(&[with_controller], 1);
        assert!(warm[1].contains("\"cache\":\"hit\""), "{name}: {}", warm[1]);
        assert!(warm[2].contains("\"cache\":\"hit\""), "{name}: {}", warm[2]);
        assert!(
            cold[0].contains("\"cache\":\"miss\""),
            "{name}: {}",
            cold[0]
        );
        assert_eq!(payload(&warm[0]), payload(&warm[1]), "{name}");
        assert_eq!(payload(&warm[2]), payload(&cold[0]), "{name}");
        assert!(
            payload(&warm[2]).starts_with(&payload(&warm[0])[..payload(&warm[0]).len() - 1]),
            "{name}: the controller field follows the stored payload"
        );
    }
}

#[test]
fn a_session_fed_line_by_line_answers_like_serve_session() {
    let requests = vec![
        format!("{{\"path\":{}}}", json_string(&tg("coffee_machine.tg"))),
        String::new(),
        "not json".to_string(),
        format!(
            "{{\"path\":{},\"controller\":true}}",
            json_string(&tg("coffee_machine.tg"))
        ),
    ];
    let mut fed = ServeSession::new(ServeArgs { jobs: 1 });
    let mut out = Vec::new();
    for request in &requests {
        fed.respond(request, &mut out).unwrap();
    }
    let strip = |text: &str| -> Vec<String> {
        text.lines().map(|l| strip_field(l, "elapsed_us")).collect()
    };
    let fed = strip(&String::from_utf8(out).unwrap());
    assert_eq!(fed, strip(&session(&requests, 1).join("\n")));
    // Blank lines count towards the line numbers.
    assert!(fed[1].contains("\"id\":3,"), "{}", fed[1]);
}
