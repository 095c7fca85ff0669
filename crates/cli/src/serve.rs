//! `tiga serve` — strategy synthesis as a long-running service.
//!
//! A persistent process that reads one JSON request per line on stdin and
//! writes one JSON response per line on stdout (jsonl in, jsonl out).  Each
//! request carries a `.tg` model (inline source or a file path), an optional
//! `control:` objective override and solver knobs; the response carries the
//! verdict, the full 13-field `SolverStats` block (as in
//! `tiga solve --stats-json`), timing, the strategy in the versioned
//! `tiga-strategy v1` text format, and the minimized/compiled controller
//! summary (`minimized_rules`/`controller_states`).  A request with
//! `"controller":true` additionally receives the compiled controller itself
//! in the `tiga-controller v1` text format; the controller is compiled once
//! when the game is first solved and stored in the cache entry, so the flag
//! never changes what is cached, only what is serialized into the response.
//!
//! Underneath sits a content-hash [`SolveCache`] keyed on the canonical
//! serialized system (`print_system` output, including the `control:` line)
//! plus the semantics-relevant options: repeated or duplicate submissions
//! are answered from the cache with `"cache":"hit"` and a payload that is
//! byte-identical to the original solve's.  The cache stores the payload
//! rendered once, when the game is solved, so a hit writes stored bytes
//! after a fresh envelope; and the session remembers which game each
//! submitted source text parsed to, so a repeated submission skips parsing
//! and `print_system` too.  A `batch` request fans a list
//! of models through the work queue (`tiga_parallel::run_keyed`): distinct
//! games are solved concurrently, duplicates are deduplicated before any
//! solving happens, and the responses are merged in submission order — the
//! whole output stream is bit-identical for any `--jobs`, the same
//! discipline as `tiga fuzz`.
//!
//! Malformed input never kills the process: a line that is not valid JSON,
//! a request with bad fields, or a model that fails to parse each produce a
//! `"status":"error"` response (with the line number and, for JSON syntax
//! errors, the byte offset) and the session continues.  Requests are read
//! by [`tiga_solver::json`], which refuses nesting deeper than
//! [`json::MAX_DEPTH`]; objectives refuse quantifier ranges longer than
//! [`tiga_lang::MAX_ARRAY_SIZE`].

use crate::solve::{resolve_purpose, PurposeError};
use crate::{parse_num, reject_leftovers, take_value, wants_help, EXIT_FAILURE, EXIT_USAGE};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tiga_solver::json::{self, Escaped, Json};
use tiga_solver::{solve, CompiledController, SolveCache, SolveEngine, SolveOptions};
use tiga_tctl::TestPurpose;

const USAGE: &str = "\
USAGE:
    tiga serve [OPTIONS]

Reads one JSON request per line on stdin, writes one JSON response per line
on stdout.  Solved games are kept in a content-hash cache for the lifetime
of the process; duplicate submissions are answered from it (\"cache\":\"hit\")
with a payload byte-identical to the original solve's.

REQUESTS:
    {\"id\":1,\"path\":\"model.tg\"}                    solve a .tg file
    {\"id\":2,\"model\":\"clock x; ...\"}               solve inline source
    {\"id\":3,\"kind\":\"batch\",\"paths\":[...]}        fan a list through the
                                                   work queue, responses
                                                   merged in order
    optional fields: \"purpose\" (control: line override), \"engine\"
    (otfur|jacobi), \"exhaustive\" (bool), \"strategy\" (bool,
    default true), \"controller\" (bool, default false: include the compiled
    controller in the `tiga-controller v1` text format in the payload),
    \"max_rounds\", \"max_states\", \"jobs\" (solve requests: intra-solve
    threads; default: the server's --jobs)

OPTIONS:
    --jobs N    worker threads: shards batch requests over the queue and is
                the default intra-solve parallelism for single requests
                (0 = all cores; default 1).  Responses are bit-identical
                for any value.
";

/// Parsed arguments of `tiga serve`.
#[derive(Clone, Debug)]
pub struct ServeArgs {
    /// Worker threads for batch sharding / default intra-solve parallelism.
    pub jobs: usize,
}

/// Parses `tiga serve` arguments.
///
/// # Errors
///
/// Returns a usage message on unknown or malformed flags.
pub fn parse_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut args = args.to_vec();
    let jobs = match take_value(&mut args, "--jobs")? {
        Some(n) => parse_num(&n, "--jobs")?,
        None => 1,
    };
    reject_leftovers(&args, USAGE)?;
    Ok(ServeArgs { jobs })
}

/// Runs a serve session: reads jsonl requests from `input` until EOF and
/// writes jsonl responses to `output`.
///
/// Request-level failures are reported as `"status":"error"` responses and
/// never abort the session; the returned error is only for broken I/O.
///
/// # Errors
///
/// Returns the first I/O error on `input` or `output`.
pub fn serve_session<R: BufRead, W: Write>(
    input: R,
    output: &mut W,
    args: &ServeArgs,
) -> std::io::Result<()> {
    let mut session = ServeSession::new(args.clone());
    for line in input.lines() {
        session.respond(&line?, output)?;
        output.flush()?;
    }
    Ok(())
}

/// The state of one serve session: the solve cache and the submission memo.
/// [`serve_session`] feeds it the lines of a reader; an embedder can feed it
/// request lines one at a time.
pub struct ServeSession {
    args: ServeArgs,
    /// Lines seen so far, blank ones included: the default request `id`
    /// and the line number in error responses.
    lines: usize,
    /// Rendered payloads, keyed on the game and its semantics-relevant
    /// options.
    cache: SolveCache<Arc<Rendered>>,
    /// Submitted source text (with the `purpose` override, if any) → the
    /// game it parses to, so that an identical re-submission skips parsing,
    /// lowering and `print_system`.  Path requests still read the file, so
    /// an edited file is a new submission.
    games: HashMap<(Option<String>, String), Arc<Game>>,
}

impl ServeSession {
    /// A session with an empty cache.
    #[must_use]
    pub fn new(args: ServeArgs) -> Self {
        ServeSession {
            args,
            lines: 0,
            cache: SolveCache::new(),
            games: HashMap::new(),
        }
    }

    /// Answers one request line, writing its response lines (one for a
    /// solve request, one per item plus a summary for a batch) to `output`.
    /// A blank line counts towards the line numbers and gets no response.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error on `output`.
    pub fn respond<W: Write>(&mut self, line: &str, output: &mut W) -> std::io::Result<()> {
        self.lines += 1;
        if line.trim().is_empty() {
            return Ok(());
        }
        for response in handle_line(line, self.lines, self) {
            response.write_to(output)?;
        }
        Ok(())
    }
}

/// Handles one request line, returning the response lines it produces (one
/// for solve requests, one per item plus a summary for batches).
fn handle_line(line: &str, line_no: usize, session: &mut ServeSession) -> Vec<Response> {
    let started = Instant::now();
    let json = match json::parse(line) {
        Ok(json) => json,
        Err(err) => {
            return vec![Response::Line(format!(
                "{{\"id\":{line_no},\"status\":\"error\",\"line\":{line_no},\
                 \"byte\":{},\"error\":\"{}\"}}",
                err.at,
                Escaped(&format!("bad request JSON: {}", err.message)),
            ))]
        }
    };
    match Request::from_json(&json, line_no, session.args.jobs) {
        Err(message) => vec![error_response(
            &format!("{line_no}"),
            "request",
            line_no,
            &message,
        )],
        Ok(request) => match request.kind {
            RequestKind::Solve => vec![handle_solve(&request, line_no, session, started)],
            RequestKind::Batch => handle_batch(&request, line_no, session, started),
        },
    }
}

fn handle_solve(
    request: &Request,
    line_no: usize,
    session: &mut ServeSession,
    started: Instant,
) -> Response {
    let source = &request.sources[0];
    let prepared = match prepare(source, request, line_no, 0, &mut session.games) {
        Ok(prepared) => prepared,
        Err(message) => return error_response(&request.id, "solve", line_no, &message),
    };
    let cache = &mut session.cache;
    let (rendered, cached) = match cache.lookup(&prepared.key) {
        Some(rendered) => (rendered, true),
        None => match solve_and_render(&prepared) {
            Ok(rendered) => {
                cache.store(prepared.key, Arc::clone(&rendered));
                (rendered, false)
            }
            Err(message) => return error_response(&request.id, "solve", line_no, &message),
        },
    };
    ok_response(
        &request.id,
        "solve",
        None,
        cached,
        request.controller,
        rendered,
        cache,
        started,
    )
}

fn handle_batch(
    request: &Request,
    line_no: usize,
    session: &mut ServeSession,
    started: Instant,
) -> Vec<Response> {
    let prepared: Vec<Result<Prepared, String>> = request
        .sources
        .iter()
        .enumerate()
        .map(|(i, source)| prepare(source, request, line_no, i, &mut session.games))
        .collect();
    let cache = &mut session.cache;
    // Plan the shard: every item whose key is not already cached goes to the
    // work queue; `run_keyed` deduplicates within the batch so each distinct
    // game is solved (and rendered) once, concurrently, while the merge below
    // stays in submission order — deterministic output for any `--jobs`.
    let mut planned_to_run = vec![false; prepared.len()];
    let mut work: Vec<(String, usize)> = Vec::new();
    for (i, item) in prepared.iter().enumerate() {
        if let Ok(p) = item {
            if !cache.contains(&p.key) {
                planned_to_run[i] = true;
                work.push((p.key.clone(), i));
            }
        }
    }
    let jobs = session.args.jobs;
    let results = tiga_parallel::run_keyed(work, jobs, |_key, first_index| {
        match &prepared[first_index] {
            Ok(p) => solve_and_render(p),
            Err(_) => unreachable!("only Ok items are planned into the work queue"),
        }
    });

    let mut responses = Vec::with_capacity(prepared.len() + 1);
    let mut errors = 0usize;
    let mut next_result = results.into_iter();
    for (i, item) in prepared.iter().enumerate() {
        let kind = "batch-item";
        match item {
            Err(message) => {
                errors += 1;
                responses.push(item_error_response(&request.id, kind, i, message));
            }
            Ok(p) => {
                let computed = if planned_to_run[i] {
                    Some(next_result.next().expect("one result per planned item").0)
                } else {
                    None
                };
                // The counted lookup happens here, in submission order: the
                // first occurrence of a key is the miss, every later
                // duplicate — whether solved speculatively by the queue or
                // cached in an earlier request — is a hit.
                let (rendered, cached) = match cache.lookup(&p.key) {
                    Some(rendered) => (rendered, true),
                    None => match computed.expect("uncached items were planned into the queue") {
                        Ok(rendered) => {
                            cache.store(p.key.clone(), Arc::clone(&rendered));
                            (rendered, false)
                        }
                        Err(message) => {
                            errors += 1;
                            responses.push(item_error_response(&request.id, kind, i, &message));
                            continue;
                        }
                    },
                };
                responses.push(ok_response(
                    &request.id,
                    kind,
                    Some(i),
                    cached,
                    request.controller,
                    rendered,
                    cache,
                    started,
                ));
            }
        }
    }
    let stats = cache.stats();
    responses.push(Response::Line(format!(
        "{{\"id\":{},\"kind\":\"batch\",\"status\":\"{}\",\"items\":{},\"errors\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"cache_entries\":{},\"elapsed_us\":{}}}",
        request.id,
        if errors == 0 { "ok" } else { "error" },
        prepared.len(),
        errors,
        stats.hits,
        stats.misses,
        cache.len(),
        started.elapsed().as_micros(),
    )));
    responses
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

enum RequestKind {
    Solve,
    Batch,
}

enum ModelSource {
    Inline(String),
    Path(String),
}

struct Request {
    /// The request's `id` re-encoded as a JSON token, echoed in responses.
    id: String,
    kind: RequestKind,
    sources: Vec<ModelSource>,
    purpose: Option<String>,
    options: SolveOptions,
    /// Include the serialized compiled controller in response payloads.
    /// Not part of the cache key: the controller is compiled and cached
    /// unconditionally, the flag only selects what the response carries.
    controller: bool,
}

impl Request {
    fn from_json(json: &Json, line_no: usize, default_jobs: usize) -> Result<Request, String> {
        let Json::Obj(fields) = json else {
            return Err("request must be a JSON object".to_string());
        };
        let mut id = format!("{line_no}");
        let mut kind = RequestKind::Solve;
        let mut inline: Option<String> = None;
        let mut path: Option<String> = None;
        let mut inlines: Option<Vec<String>> = None;
        let mut paths: Option<Vec<String>> = None;
        let mut purpose: Option<String> = None;
        let mut controller = false;
        let mut options = SolveOptions {
            jobs: default_jobs,
            ..SolveOptions::default()
        };
        for (name, value) in fields {
            match name.as_str() {
                "id" => {
                    id = match value {
                        Json::Int(n) => n.to_string(),
                        Json::Str(s) => format!("\"{}\"", Escaped(s)),
                        _ => return Err("`id` must be a number or a string".to_string()),
                    }
                }
                "kind" => match value.str_field("kind")? {
                    "solve" => kind = RequestKind::Solve,
                    "batch" => kind = RequestKind::Batch,
                    other => return Err(format!("unknown request kind `{other}`")),
                },
                "model" => inline = Some(value.str_field("model")?.to_string()),
                "path" => path = Some(value.str_field("path")?.to_string()),
                "models" => inlines = Some(string_array(value, "models")?),
                "paths" => paths = Some(string_array(value, "paths")?),
                "purpose" => purpose = Some(value.str_field("purpose")?.to_string()),
                "engine" => options.engine = SolveEngine::from_name(value.str_field("engine")?)?,
                "exhaustive" => options.early_termination = !value.bool_field("exhaustive")?,
                "strategy" => options.extract_strategy = value.bool_field("strategy")?,
                "controller" => controller = value.bool_field("controller")?,
                "max_rounds" => options.max_rounds = value.usize_field("max_rounds")?,
                "max_states" => options.explore.max_states = value.usize_field("max_states")?,
                "jobs" => options.jobs = value.usize_field("jobs")?,
                other => return Err(format!("unknown request field `{other}`")),
            }
        }
        let sources = match kind {
            RequestKind::Solve => {
                if inlines.is_some() || paths.is_some() {
                    return Err("`models`/`paths` need `\"kind\":\"batch\"`".to_string());
                }
                match (inline, path) {
                    (Some(_), Some(_)) => {
                        return Err("pass `model` or `path`, not both".to_string())
                    }
                    (Some(text), None) => vec![ModelSource::Inline(text)],
                    (None, Some(p)) => vec![ModelSource::Path(p)],
                    (None, None) => {
                        return Err("a solve request needs `model` or `path`".to_string())
                    }
                }
            }
            RequestKind::Batch => {
                if inline.is_some() || path.is_some() {
                    return Err("a batch request takes `models` or `paths` arrays".to_string());
                }
                // Batch items run concurrently across the queue; intra-solve
                // parallelism would oversubscribe it.
                options.jobs = 1;
                let sources: Vec<ModelSource> = match (inlines, paths) {
                    (Some(_), Some(_)) => {
                        return Err("pass `models` or `paths`, not both".to_string())
                    }
                    (Some(texts), None) => texts.into_iter().map(ModelSource::Inline).collect(),
                    (None, Some(ps)) => ps.into_iter().map(ModelSource::Path).collect(),
                    (None, None) => {
                        return Err("a batch request needs `models` or `paths`".to_string())
                    }
                };
                if sources.is_empty() {
                    return Err("a batch request needs at least one model".to_string());
                }
                sources
            }
        };
        Ok(Request {
            id,
            kind,
            sources,
            purpose,
            options,
            controller,
        })
    }
}

fn string_array(value: &Json, name: &str) -> Result<Vec<String>, String> {
    let error = || format!("`{name}` must be an array of strings");
    let Json::Arr(items) = value else {
        return Err(error());
    };
    items
        .iter()
        .map(|item| {
            item.str_field(name)
                .map(ToString::to_string)
                .map_err(|_| error())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Solving
// ---------------------------------------------------------------------------

/// A submission resolved down to a solvable game: the lowered system, its
/// objective and the canonical text the cache key is built from.
struct Game {
    canonical: String,
    system: tiga_model::System,
    purpose: TestPurpose,
}

/// A request item: its game plus its cache key.
struct Prepared {
    key: String,
    game: Arc<Game>,
    options: SolveOptions,
}

fn prepare(
    source: &ModelSource,
    request: &Request,
    line_no: usize,
    item: usize,
    games: &mut HashMap<(Option<String>, String), Arc<Game>>,
) -> Result<Prepared, String> {
    let (text, label) = match source {
        ModelSource::Inline(text) => (text.clone(), format!("request-{line_no}.{item}")),
        ModelSource::Path(path) => (
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?,
            path.clone(),
        ),
    };
    let submission = (request.purpose.clone(), text);
    let game = match games.get(&submission) {
        Some(game) => Arc::clone(game),
        None => {
            let text = &submission.1;
            let model = tiga_lang::parse_model(text).map_err(|err| err.render(text, &label))?;
            let purpose =
                resolve_purpose(&model, request.purpose.as_deref()).map_err(|err| match err {
                    PurposeError::Invalid(e) => format!("bad purpose: {e}"),
                    PurposeError::Missing => format!(
                        "`{}` has no `control:` line; add one or send a `purpose`",
                        model.system.name()
                    ),
                })?;
            // The canonical exact-inverse serialization of the lowered system
            // (with its objective) is the content-hash identity of the game:
            // a file and an inline copy of it, or two formattings of the same
            // model, share a key.
            let game = Arc::new(Game {
                canonical: tiga_lang::print_system(&model.system, Some(&purpose)),
                system: model.system,
                purpose,
            });
            games.insert(submission, Arc::clone(&game));
            game
        }
    };
    Ok(Prepared {
        key: SolveCache::key(&game.canonical, &request.options),
        game,
        options: request.options.clone(),
    })
}

/// Solves a game, compiles its strategy and renders the response payload —
/// the one time the payload is rendered: every hit writes these bytes.
fn solve_and_render(prepared: &Prepared) -> Result<Arc<Rendered>, String> {
    let game = &prepared.game;
    let solution = solve(&game.system, &game.purpose, &prepared.options)
        .map_err(|e| format!("solver failed: {e}"))?;
    // Minimize + compile at store time: every later hit answers the
    // controller fields (and a `"controller":true` download) for free.
    let controller = solution.strategy.as_ref().map(CompiledController::compile);
    let model = game.system.name();
    let winning = solution.winning_from_initial;
    let strategy_text = tiga_solver::print_strategy(model, winning, solution.strategy.as_ref());
    let mut payload = format!(
        "{{\"model\":\"{model}\",\"engine\":\"{engine}\",\"verdict\":\"{verdict}\",\
         {stats_fields},\"strategy_rules\":{strategy_rules},{controller_fields},\"strategy\":\"",
        model = Escaped(model),
        engine = prepared.options.engine.name(),
        verdict = if winning { "winning" } else { "losing" },
        stats_fields = solution.stats().json_fields(),
        strategy_rules = solution
            .strategy
            .as_ref()
            .map_or("null".to_string(), |s| s.rule_count().to_string()),
        controller_fields = crate::solve::controller_json_fields(controller.as_ref()),
    );
    payload.reserve(strategy_text.len() + 1);
    let _ = write!(payload, "{}\"", Escaped(&strategy_text));
    Ok(Arc::new(Rendered {
        fingerprint: SolveCache::fingerprint(&prepared.key),
        payload,
        model: model.to_string(),
        winning,
        controller,
        controller_field: OnceLock::new(),
    }))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A cache entry in the form responses need.  The stable payload is a pure
/// function of the key (the canonical text names the model, the options the
/// engine), so it is rendered once, when the game is solved, and every hit
/// writes the same bytes as the miss that stored it.
struct Rendered {
    /// The key's printable digest.
    fingerprint: String,
    /// The payload object without its closing brace, which follows the
    /// optional controller field.
    payload: String,
    // What the controller download is rendered from.
    model: String,
    winning: bool,
    controller: Option<CompiledController>,
    /// `,"controller":"…"`, rendered on the first request that asks for it.
    controller_field: OnceLock<String>,
}

impl Rendered {
    fn controller_field(&self) -> &str {
        self.controller_field.get_or_init(|| {
            let text =
                tiga_solver::print_controller(&self.model, self.winning, self.controller.as_ref());
            let mut field = String::with_capacity(text.len() + 16);
            let _ = write!(field, ",\"controller\":\"{}\"", Escaped(&text));
            field
        })
    }
}

/// One response line.
enum Response {
    /// A line rendered in full: errors and batch summaries.
    Line(String),
    /// An ok response: the volatile envelope up to `"payload":`, then the
    /// stored payload, written without copying it into the envelope.
    Ok {
        envelope: String,
        rendered: Arc<Rendered>,
        controller: bool,
    },
}

impl Response {
    fn write_to<W: Write>(&self, output: &mut W) -> std::io::Result<()> {
        match self {
            Response::Line(line) => output.write_all(line.as_bytes())?,
            Response::Ok {
                envelope,
                rendered,
                controller,
            } => {
                output.write_all(envelope.as_bytes())?;
                output.write_all(rendered.payload.as_bytes())?;
                if *controller {
                    output.write_all(rendered.controller_field().as_bytes())?;
                }
                output.write_all(b"}}")?;
            }
        }
        output.write_all(b"\n")
    }
}

/// Builds an ok response: a volatile envelope (cache status, counters,
/// timing) followed by the stored payload.  The serialized controller is
/// included only on request; it is rendered from the cached controller, so
/// the payload stays a pure function of (entry, request flag) — hits remain
/// byte-identical to their miss.
#[allow(clippy::too_many_arguments)]
fn ok_response(
    id: &str,
    kind: &str,
    index: Option<usize>,
    cached: bool,
    include_controller: bool,
    rendered: Arc<Rendered>,
    cache: &SolveCache<Arc<Rendered>>,
    started: Instant,
) -> Response {
    if include_controller {
        // Render before taking the time, so `elapsed_us` covers it.
        rendered.controller_field();
    }
    let stats = cache.stats();
    let index_field = index.map_or(String::new(), |i| format!("\"index\":{i},"));
    let envelope = format!(
        "{{\"id\":{id},\"kind\":\"{kind}\",{index_field}\"status\":\"ok\",\
         \"cache\":\"{cache_status}\",\"key\":\"{key}\",\
         \"cache_hits\":{hits},\"cache_misses\":{misses},\"cache_entries\":{entries},\
         \"elapsed_us\":{elapsed},\"payload\":",
        cache_status = if cached { "hit" } else { "miss" },
        key = rendered.fingerprint,
        hits = stats.hits,
        misses = stats.misses,
        entries = cache.len(),
        elapsed = started.elapsed().as_micros(),
    );
    Response::Ok {
        envelope,
        rendered,
        controller: include_controller,
    }
}

fn error_response(id: &str, kind: &str, line_no: usize, message: &str) -> Response {
    Response::Line(format!(
        "{{\"id\":{id},\"kind\":\"{kind}\",\"status\":\"error\",\"line\":{line_no},\
         \"error\":\"{}\"}}",
        Escaped(message)
    ))
}

fn item_error_response(id: &str, kind: &str, index: usize, message: &str) -> Response {
    Response::Line(format!(
        "{{\"id\":{id},\"kind\":\"{kind}\",\"index\":{index},\"status\":\"error\",\
         \"error\":\"{}\"}}",
        Escaped(message)
    ))
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
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            match serve_session(stdin.lock(), &mut out, &parsed) {
                Ok(()) => 0,
                // A consumer hanging up mid-session (e.g. `| head`) is a
                // normal way for a pipe server to stop.
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
                Err(e) => {
                    eprintln!("error: serve I/O failed: {e}");
                    EXIT_FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_the_protocol_surface() {
        let json = json::parse(
            r#"{"id":7,"kind":"batch","paths":["a.tg","b.tg"],"exhaustive":true,"jobs":0,"note":null,"neg":-3}"#,
        )
        .unwrap();
        let Json::Obj(fields) = &json else {
            panic!("not an object")
        };
        assert_eq!(fields[0], ("id".to_string(), Json::Int(7)));
        assert_eq!(fields[1].1, Json::Str("batch".to_string()));
        assert_eq!(
            fields[2].1,
            Json::Arr(vec![
                Json::Str("a.tg".to_string()),
                Json::Str("b.tg".to_string())
            ])
        );
        assert_eq!(fields[3].1, Json::Bool(true));
        assert_eq!(fields[4].1.usize_field("jobs"), Ok(0));
        assert_eq!(fields[5].1, Json::Null);
        assert_eq!(fields[6].1, Json::Int(-3));
    }

    #[test]
    fn json_string_escapes_roundtrip() {
        let json = json::parse(r#"{"s":"a\nb\t\"q\"\\\u0041\u00e9\ud83d\ude00"}"#).unwrap();
        let Json::Obj(fields) = &json else {
            panic!("not an object")
        };
        assert_eq!(fields[0].1, Json::Str("a\nb\t\"q\"\\Aé😀".to_string()));
    }

    #[test]
    fn json_errors_carry_byte_offsets() {
        let err = json::parse("{\"a\" 1}").unwrap_err();
        assert_eq!(err.at, 5);
        assert!(json::parse("not json at all").is_err());
        assert!(json::parse("{\"a\":1} extra").is_err());
        assert!(json::parse("{\"a\":1.5}").is_err(), "floats are rejected");
        assert!(json::parse("\"lone \\ud800\"").is_err());
        // Truncations never panic.
        let good = r#"{"id":1,"path":"x.tg","models":["a"],"purpose":"control: A<> true"}"#;
        for cut in 0..good.len() {
            let _ = json::parse(&good[..cut]);
        }
    }

    #[test]
    fn requests_reject_malformed_shapes() {
        let args_jobs = 1;
        let parse = |text: &str| Request::from_json(&json::parse(text).unwrap(), 1, args_jobs);
        assert!(parse(r#"{"path":"a.tg","model":"x"}"#).is_err());
        assert!(parse(r#"{}"#).is_err());
        assert!(parse(r#"{"kind":"batch","paths":[]}"#).is_err());
        assert!(parse(r#"{"kind":"batch","path":"a.tg"}"#).is_err());
        assert!(parse(r#"{"kind":"frobnicate","path":"a.tg"}"#).is_err());
        assert!(
            parse(r#"{"path":"a.tg","wat":1}"#).is_err(),
            "unknown fields"
        );
        assert!(parse(r#"{"path":"a.tg","engine":"magic"}"#).is_err());
        assert!(
            parse(r#"{"paths":["a.tg"]}"#).is_err(),
            "batch arrays need kind=batch"
        );
        let ok = parse(r#"{"id":"x","path":"a.tg","engine":"jacobi","exhaustive":true}"#).unwrap();
        assert_eq!(ok.id, "\"x\"");
        assert_eq!(ok.options.engine, SolveEngine::Jacobi);
        assert!(!ok.options.early_termination);
        assert!(!ok.controller, "controller defaults to false");
        let ok = parse(r#"{"path":"a.tg","controller":true}"#).unwrap();
        assert!(ok.controller);
        assert!(parse(r#"{"path":"a.tg","controller":1}"#).is_err());
    }
}
