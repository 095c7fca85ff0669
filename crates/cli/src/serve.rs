//! `tiga serve` — strategy synthesis as a long-running service.
//!
//! A persistent process that reads one JSON request per line on stdin and
//! writes one JSON response per line on stdout (jsonl in, jsonl out).  Each
//! request carries a `.tg` model (inline source or a file path), an optional
//! `control:` objective override and solver knobs; the response carries the
//! verdict, the full 13-field `SolverStats` block (as in
//! `tiga solve --stats-json`), timing, the strategy in the versioned
//! `tiga-strategy v2` text format (each distinct rule list printed once,
//! later states referring back to it), and the minimized controller summary
//! (`minimized_rules`/`controller_states`).  A request with
//! `"controller":true` additionally receives the controller itself in the
//! `tiga-controller v2` text format; it is printed from the minimized
//! strategy when the game is solved and kept with the payload, so the flag
//! never changes what is kept, only what is written into the response.
//! Nothing in a session decides with a controller, so none is compiled.
//!
//! A session keeps only bytes between requests, under one budget
//! (`KEPT_BYTES`, 16 MiB) that evicts the least recently used first: the
//! rendered answers, keyed on the canonical serialized system
//! (`print_system` output, including the `control:` line) plus the
//! semantics-relevant options ([`SolveCache::key`]), and a memo from each
//! submitted source text to that canonical text.  A repeated or duplicate
//! submission is answered with `"cache":"hit"` and a payload byte-identical
//! to the original solve's: a memo hit builds the key without parsing or
//! `print_system`, and an answer hit writes kept bytes after a fresh
//! envelope.  A parsed game lives only for the request that parsed it; a
//! known submission whose answer was evicted is parsed and solved again, to
//! the same bytes.  Envelopes count answer hits, misses and evictions and
//! the live answer count.  A `batch` request fans a list
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
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;
use tiga_solver::json::{self, Escaped, Json};
use tiga_solver::{minimize_strategy, solve, CacheStats, SolveCache, SolveOptions};
use tiga_tctl::TestPurpose;

const USAGE: &str = "\
USAGE:
    tiga serve [OPTIONS]

Reads one JSON request per line on stdin, writes one JSON response per line
on stdout.  The answers of solved games are kept in a content-hash cache of
at most 16 MiB, least recently used dropped first; duplicate submissions
are answered from it (\"cache\":\"hit\") with a payload byte-identical to
the original solve's, and a dropped game is solved again to the same bytes.

REQUESTS:
    {\"id\":1,\"path\":\"model.tg\"}                    solve a .tg file
    {\"id\":2,\"model\":\"clock x; ...\"}               solve inline source
    {\"id\":3,\"kind\":\"batch\",\"paths\":[...]}        fan a list through the
                                                   work queue, responses
                                                   merged in order
    optional fields: \"purpose\" (control: line override),
    \"exhaustive\" (bool), \"strategy\" (bool, default true),
    \"controller\" (bool, default false: include the controller in the
    `tiga-controller v2` text format in the payload; both formats print
    each distinct rule list once),
    \"max_rounds\", \"max_states\"

OPTIONS:
    --jobs N    worker threads that batch requests are sharded over
                (0 = all cores; default 1).  Each solve runs on one
                thread, and responses are bit-identical for any value.
";

/// Parsed arguments of `tiga serve`.
#[derive(Clone, Debug)]
pub struct ServeArgs {
    /// Worker threads that batch requests are sharded over.
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

/// The state of one serve session: what it keeps between requests, and the
/// line count.  [`serve_session`] feeds it the lines of a reader; an
/// embedder can feed it request lines one at a time.
pub struct ServeSession {
    args: ServeArgs,
    /// Lines seen so far, blank ones included: the default request `id`
    /// and the line number in error responses.
    lines: usize,
    kept: Kept,
}

impl ServeSession {
    /// A session that keeps nothing yet, under the session byte budget
    /// (16 MiB).
    #[must_use]
    pub fn new(args: ServeArgs) -> Self {
        ServeSession::with_budget(args, KEPT_BYTES)
    }

    /// A session whose memo and answers share `budget` bytes.
    pub(crate) fn with_budget(args: ServeArgs, budget: usize) -> Self {
        ServeSession {
            args,
            lines: 0,
            kept: Kept::new(budget),
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
    match Request::from_json(&json, line_no) {
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
    let kept = &mut session.kept;
    let answer = prepare(&request.sources[0], request, line_no, 0, kept).and_then(|prepared| {
        match kept.lookup(&prepared.key) {
            Some(rendered) => Ok((rendered, true)),
            None => {
                let rendered = solve_and_render(&prepared)?;
                kept.store(prepared.key, Arc::clone(&rendered));
                Ok((rendered, false))
            }
        }
    });
    kept.trim();
    match answer {
        Ok((rendered, cached)) => ok_response(
            &request.id,
            "solve",
            None,
            cached,
            request.controller,
            rendered,
            kept,
            started,
        ),
        Err(message) => error_response(&request.id, "solve", line_no, &message),
    }
}

fn handle_batch(
    request: &Request,
    line_no: usize,
    session: &mut ServeSession,
    started: Instant,
) -> Vec<Response> {
    let kept = &mut session.kept;
    let prepared: Vec<Result<Prepared, String>> = request
        .sources
        .iter()
        .enumerate()
        .map(|(i, source)| prepare(source, request, line_no, i, kept))
        .collect();
    // Plan the shard: every item whose key is not already kept goes to the
    // work queue; `run_keyed` deduplicates within the batch so each distinct
    // game is solved (and rendered) once, concurrently, while the merge below
    // stays in submission order — deterministic output for any `--jobs`.
    // Nothing is evicted before the batch ends, so the plan holds.
    let mut planned_to_run = vec![false; prepared.len()];
    let mut work: Vec<(String, usize)> = Vec::new();
    for (i, item) in prepared.iter().enumerate() {
        if let Ok(p) = item {
            if !kept.contains(&p.key) {
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
                // kept from an earlier request — is a hit.
                let (rendered, cached) = match kept.lookup(&p.key) {
                    Some(rendered) => (rendered, true),
                    None => match computed.expect("unkept items were planned into the queue") {
                        Ok(rendered) => {
                            kept.store(p.key.clone(), Arc::clone(&rendered));
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
                    kept,
                    started,
                ));
            }
        }
    }
    kept.trim();
    responses.push(Response::Line(format!(
        "{{\"id\":{},\"kind\":\"batch\",\"status\":\"{}\",\"items\":{},\"errors\":{},\
         {},\"elapsed_us\":{}}}",
        request.id,
        if errors == 0 { "ok" } else { "error" },
        prepared.len(),
        errors,
        kept.counter_fields(),
        started.elapsed().as_micros(),
    )));
    responses
}

// ---------------------------------------------------------------------------
// What a session keeps
// ---------------------------------------------------------------------------

/// The bytes a session keeps between requests: its submission memo and its
/// rendered answers together, as [`Kept`] accounts them.
///
/// 16 MiB holds the hot set of the checked-in examples (≈ 1.2 MB) thirteen
/// times over: every objective's payload with and without a strategy is
/// ≈ 0.64 MB, their controller fields ≈ 0.41 MB (lep4's two are 0.39 MB of
/// it), keys and memo ≈ 0.1 MB.  The rest holds about 2 200 one-off games
/// the size of a bounded smart-light purpose (≈ 7 KB each) before the least
/// recently used is dropped; perfbench's 2 288-request serve stream keeps
/// 8.3 MB and evicts nothing.
pub(crate) const KEPT_BYTES: usize = 16 << 20;

/// What [`Kept`] accounts for one memo entry or answer beyond its text: the
/// hash-map slot, the `Arc` headers and the recency entry.
const ITEM_OVERHEAD: usize = 128;

/// A submission as it was sent: the `purpose` override, if any, and the
/// source text.  Path requests still read the file, so an edited file is a
/// new submission.
type Submission = (Option<String>, String);

/// What a session keeps between requests, all of it bytes, under one budget:
///
/// - the memo: each submission → the canonical text of the game it parsed
///   to, so that a re-submission builds its key without parsing, lowering
///   and `print_system`;
/// - the answers: each game's rendered payload and controller field, keyed
///   on the canonical text and the semantics-relevant options
///   ([`SolveCache::key`]).
///
/// Every use of an item stamps it with the next tick of one clock.
/// [`Kept::trim`] drops the items with the oldest stamps until the
/// accounted bytes fit the budget, so the same requests always evict the
/// same items, and an evicted game is solved again to the same bytes.
struct Kept {
    budget: usize,
    /// Accounted bytes of the memo and the answers.
    bytes: usize,
    clock: u64,
    /// Every item by its last use, oldest first.
    recency: BTreeMap<u64, Item>,
    memo: HashMap<Arc<Submission>, Stamped<Arc<str>>>,
    answers: HashMap<Arc<str>, Stamped<Arc<Rendered>>>,
    /// Counted answer lookups.
    stats: CacheStats,
    /// Answers dropped to fit the budget.
    evictions: u64,
}

/// A kept value with its last use and its accounted bytes.
struct Stamped<T> {
    value: T,
    used: u64,
    bytes: usize,
}

/// A kept item, by the key of its map.
enum Item {
    Memo(Arc<Submission>),
    Answer(Arc<str>),
}

impl Kept {
    fn new(budget: usize) -> Self {
        Kept {
            budget,
            bytes: 0,
            clock: 0,
            recency: BTreeMap::new(),
            memo: HashMap::new(),
            answers: HashMap::new(),
            stats: CacheStats::default(),
            evictions: 0,
        }
    }

    /// Accounts a new item and stamps it with the next tick.
    fn stamp(&mut self, item: Item, bytes: usize) -> u64 {
        self.bytes += bytes;
        self.clock += 1;
        self.recency.insert(self.clock, item);
        self.clock
    }

    /// Moves a used item from its old stamp to the next tick.
    fn restamp(recency: &mut BTreeMap<u64, Item>, clock: &mut u64, used: &mut u64) {
        let item = recency.remove(used).expect("every kept item has a stamp");
        *clock += 1;
        recency.insert(*clock, item);
        *used = *clock;
    }

    /// The canonical text a submission parsed to, if it is remembered.
    fn canonical(&mut self, submission: &Submission) -> Option<Arc<str>> {
        let entry = self.memo.get_mut(submission)?;
        Kept::restamp(&mut self.recency, &mut self.clock, &mut entry.used);
        Some(Arc::clone(&entry.value))
    }

    fn remember(&mut self, submission: Submission, canonical: Arc<str>) {
        let bytes = submission.0.as_ref().map_or(0, String::len)
            + submission.1.len()
            + canonical.len()
            + ITEM_OVERHEAD;
        let submission = Arc::new(submission);
        let used = self.stamp(Item::Memo(Arc::clone(&submission)), bytes);
        self.memo.insert(
            submission,
            Stamped {
                value: canonical,
                used,
                bytes,
            },
        );
    }

    /// Whether an answer is kept, without counting or stamping it (used to
    /// plan batch sharding before the in-order merge does the lookups).
    fn contains(&self, key: &str) -> bool {
        self.answers.contains_key(key)
    }

    /// Looks up an answer, counting a hit or a miss.
    fn lookup(&mut self, key: &str) -> Option<Arc<Rendered>> {
        let Some(entry) = self.answers.get_mut(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        Kept::restamp(&mut self.recency, &mut self.clock, &mut entry.used);
        Some(Arc::clone(&entry.value))
    }

    fn store(&mut self, key: String, rendered: Arc<Rendered>) {
        let bytes = key.len() + rendered.bytes() + ITEM_OVERHEAD;
        let key: Arc<str> = key.into();
        let used = self.stamp(Item::Answer(Arc::clone(&key)), bytes);
        self.answers.insert(
            key,
            Stamped {
                value: rendered,
                used,
                bytes,
            },
        );
    }

    /// Drops the least recently used items until the rest fit the budget.
    fn trim(&mut self) {
        while self.bytes > self.budget {
            let (_, item) = self
                .recency
                .pop_first()
                .expect("accounted bytes belong to kept items");
            self.bytes -= match item {
                Item::Memo(submission) => self.memo.remove(&submission).expect("stamped").bytes,
                Item::Answer(key) => {
                    self.evictions += 1;
                    self.answers.remove(&key).expect("stamped").bytes
                }
            };
        }
    }

    /// The cumulative counters and the live answer count, as JSON fields.
    fn counter_fields(&self) -> String {
        format!(
            "\"cache_hits\":{},\"cache_misses\":{},\"cache_entries\":{},\"cache_evictions\":{}",
            self.stats.hits,
            self.stats.misses,
            self.answers.len(),
            self.evictions,
        )
    }
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
    /// Include the serialized controller in response payloads.  Not part
    /// of the cache key: the controller text is rendered and kept
    /// unconditionally, the flag only selects what the response carries.
    controller: bool,
}

impl Request {
    fn from_json(json: &Json, line_no: usize) -> Result<Request, String> {
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
        let mut options = SolveOptions::default();
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
                "exhaustive" => options.early_termination = !value.bool_field("exhaustive")?,
                "strategy" => options.extract_strategy = value.bool_field("strategy")?,
                "controller" => controller = value.bool_field("controller")?,
                "max_rounds" => options.max_rounds = value.usize_field("max_rounds")?,
                "max_states" => options.explore.max_states = value.usize_field("max_states")?,
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

/// A parsed game: the lowered system and its objective.  It lives only for
/// the request that parsed it.
struct Game {
    system: tiga_model::System,
    purpose: TestPurpose,
}

/// A request item: its cache key and what its answer is solved from.
struct Prepared {
    key: String,
    options: SolveOptions,
    source: GameSource,
}

/// Where an item's game comes from, if its answer is not kept.
enum GameSource {
    /// This request parsed it, for the memo.
    Parsed(Game),
    /// The memo knew the submission; it is parsed again only if it is
    /// solved.
    Known(Submission, String),
}

fn prepare(
    source: &ModelSource,
    request: &Request,
    line_no: usize,
    item: usize,
    kept: &mut Kept,
) -> Result<Prepared, String> {
    let (text, label) = match source {
        ModelSource::Inline(text) => (text.clone(), format!("request-{line_no}.{item}")),
        ModelSource::Path(path) => (
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?,
            path.clone(),
        ),
    };
    let submission = (request.purpose.clone(), text);
    let (key, source) = match kept.canonical(&submission) {
        Some(canonical) => (
            SolveCache::key(&canonical, &request.options),
            GameSource::Known(submission, label),
        ),
        None => {
            let game = parse_game(&submission, &label)?;
            // The canonical exact-inverse serialization of the lowered system
            // (with its objective) is the content-hash identity of the game:
            // a file and an inline copy of it, or two formattings of the same
            // model, share a key.
            let canonical: Arc<str> =
                tiga_lang::print_system(&game.system, Some(&game.purpose)).into();
            let key = SolveCache::key(&canonical, &request.options);
            kept.remember(submission, canonical);
            (key, GameSource::Parsed(game))
        }
    };
    Ok(Prepared {
        key,
        options: request.options.clone(),
        source,
    })
}

fn parse_game((purpose, text): &Submission, label: &str) -> Result<Game, String> {
    let model = tiga_lang::parse_model(text).map_err(|err| err.render(text, label))?;
    let purpose = resolve_purpose(&model, purpose.as_deref()).map_err(|err| match err {
        PurposeError::Invalid(e) => format!("bad purpose: {e}"),
        PurposeError::Missing => format!(
            "`{}` has no `control:` line; add one or send a `purpose`",
            model.system.name()
        ),
    })?;
    Ok(Game {
        system: model.system,
        purpose,
    })
}

/// Solves a game, minimizes its strategy and renders the response payload
/// and the controller field — the one time they are rendered: every hit
/// writes these bytes.
fn solve_and_render(prepared: &Prepared) -> Result<Arc<Rendered>, String> {
    let reparsed;
    let game = match &prepared.source {
        GameSource::Parsed(game) => game,
        GameSource::Known(submission, label) => {
            reparsed = parse_game(submission, label)?;
            &reparsed
        }
    };
    let solution = solve(&game.system, &game.purpose, &prepared.options)
        .map_err(|e| format!("solver failed: {e}"))?;
    // The controller fields and the controller text are printed from the
    // minimized strategy; nothing decides with it here, so it is not
    // compiled.
    let minimized = solution.strategy.as_ref().map(minimize_strategy);
    let model = game.system.name();
    let winning = solution.winning_from_initial;
    let strategy_text = tiga_solver::print_strategy(model, winning, solution.strategy.as_ref());
    let mut payload = format!(
        "{{\"model\":\"{model}\",\"verdict\":\"{verdict}\",\
         {stats_fields},\"strategy_rules\":{strategy_rules},{controller_fields},\"strategy\":\"",
        model = Escaped(model),
        verdict = if winning { "winning" } else { "losing" },
        stats_fields = solution.stats().json_fields(),
        strategy_rules = solution
            .strategy
            .as_ref()
            .map_or("null".to_string(), |s| s.rule_count().to_string()),
        controller_fields = crate::solve::controller_json_fields(minimized.as_ref()),
    );
    payload.reserve(strategy_text.len() + 1);
    let _ = write!(payload, "{}\"", Escaped(&strategy_text));
    let controller_text = tiga_solver::print_controller_source(model, winning, minimized.as_ref());
    let mut controller_field = String::with_capacity(controller_text.len() + 16);
    let _ = write!(
        controller_field,
        ",\"controller\":\"{}\"",
        Escaped(&controller_text)
    );
    // Escapes outgrow the reserved room; a kept answer holds only its bytes.
    payload.shrink_to_fit();
    controller_field.shrink_to_fit();
    Ok(Arc::new(Rendered {
        fingerprint: SolveCache::fingerprint(&prepared.key),
        payload,
        controller_field,
    }))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A kept answer: plain strings.  The stable payload is a pure function of
/// the key (the canonical text names the model and objective, the options
/// the budgets), so it is rendered once, when the game is solved, and every
/// hit writes the same bytes as the miss that stored it.
struct Rendered {
    /// The key's printable digest.
    fingerprint: String,
    /// The payload object without its closing brace, which follows the
    /// optional controller field.
    payload: String,
    /// `,"controller":"…"`, written for requests that ask for it.
    controller_field: String,
}

impl Rendered {
    /// The bytes [`Kept`] accounts for this answer's text.
    fn bytes(&self) -> usize {
        self.fingerprint.len() + self.payload.len() + self.controller_field.len()
    }
}

/// One response line.
enum Response {
    /// A line rendered in full: errors and batch summaries.
    Line(String),
    /// An ok response: the volatile envelope up to `"payload":`, then the
    /// kept payload, written without copying it into the envelope.
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
                    output.write_all(rendered.controller_field.as_bytes())?;
                }
                output.write_all(b"}}")?;
            }
        }
        output.write_all(b"\n")
    }
}

/// Builds an ok response: a volatile envelope (cache status, counters,
/// timing) followed by the kept payload and, on request, the controller
/// field rendered with it — hits stay byte-identical to their miss.
#[allow(clippy::too_many_arguments)]
fn ok_response(
    id: &str,
    kind: &str,
    index: Option<usize>,
    cached: bool,
    include_controller: bool,
    rendered: Arc<Rendered>,
    kept: &Kept,
    started: Instant,
) -> Response {
    let index_field = index.map_or(String::new(), |i| format!("\"index\":{i},"));
    let envelope = format!(
        "{{\"id\":{id},\"kind\":\"{kind}\",{index_field}\"status\":\"ok\",\
         \"cache\":\"{cache_status}\",\"key\":\"{key}\",{counters},\
         \"elapsed_us\":{elapsed},\"payload\":",
        cache_status = if cached { "hit" } else { "miss" },
        key = rendered.fingerprint,
        counters = kept.counter_fields(),
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

    fn light_request(bound: usize) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/tg/smart_light.tg");
        format!(
            "{{\"path\":\"{}\",\"purpose\":\"control: A<><={bound} IUT.Bright\",\"controller\":true}}",
            Escaped(&path.to_string_lossy())
        )
    }

    fn answer(session: &mut ServeSession, request: &str) -> String {
        let mut out = Vec::new();
        session.respond(request, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// The payload, including the controller field.
    fn payload(line: &str) -> &str {
        &line[line.find("\"payload\":").expect("an ok response")..]
    }

    fn key(line: &str) -> &str {
        let at = line.find("\"key\":\"").unwrap() + "\"key\":\"".len();
        &line[at..at + 16]
    }

    /// Every kept item is accounted for at least its text, and the total is
    /// within the budget.
    fn assert_accounted(kept: &Kept) {
        let memo: usize = kept
            .memo
            .iter()
            .map(|(s, m)| {
                assert!(m.bytes >= s.1.len() + m.value.len());
                m.bytes
            })
            .sum();
        let answers: usize = kept
            .answers
            .iter()
            .map(|(key, a)| {
                let text = key.len() + a.value.payload.len() + a.value.controller_field.len();
                assert!(a.bytes >= text);
                a.bytes
            })
            .sum();
        assert_eq!(kept.bytes, memo + answers);
        assert_eq!(kept.recency.len(), kept.memo.len() + kept.answers.len());
        assert!(
            kept.bytes <= kept.budget,
            "{} > {}",
            kept.bytes,
            kept.budget
        );
    }

    #[test]
    fn a_small_budget_evicts_the_least_recently_used_and_solves_the_same_bytes() {
        let args = ServeArgs { jobs: 1 };
        // Room for about three of these games, memo entries included.
        let mut probe = ServeSession::new(args.clone());
        answer(&mut probe, &light_request(20));
        let budget = probe.kept.bytes * 7 / 2;
        let mut session = ServeSession::with_budget(args, budget);
        let hot = answer(&mut session, &light_request(20));
        let mut first = Vec::new();
        for bound in 21..30 {
            let line = answer(&mut session, &light_request(bound));
            assert!(line.contains("\"cache\":\"miss\""), "{line}");
            assert_accounted(&session.kept);
            first.push(line);
            // Hit after every new game, the hot game is never the coldest.
            let again = answer(&mut session, &light_request(20));
            assert!(again.contains("\"cache\":\"hit\""), "{bound}: {again}");
            assert_eq!(payload(&again), payload(&hot));
            assert_accounted(&session.kept);
        }
        assert!(session.kept.evictions > 0);
        // The games still kept are the most recently solved ones.
        let kept: Vec<bool> = first
            .iter()
            .map(|line| {
                let key = key(line);
                session
                    .kept
                    .answers
                    .values()
                    .any(|a| a.value.fingerprint == key)
            })
            .collect();
        assert!(!kept[0] && kept[kept.len() - 1], "{kept:?}");
        assert!(kept.windows(2).all(|w| w[1] || !w[0]), "{kept:?}");
        // The coldest game was evicted: solving it again is a miss that
        // answers the same payload and controller field.
        let again = answer(&mut session, &light_request(21));
        assert!(again.contains("\"cache\":\"miss\""), "{again}");
        assert!(
            again.contains("\"controller\":\"tiga-controller v2"),
            "{again}"
        );
        assert_eq!(payload(&again), payload(&first[0]));
        assert!(again.contains(&format!(
            "\"cache_entries\":{},\"cache_evictions\":{},",
            session.kept.answers.len(),
            session.kept.evictions
        )));
    }

    #[test]
    fn a_budget_too_small_for_one_answer_still_answers() {
        let mut session = ServeSession::with_budget(ServeArgs { jobs: 1 }, 0);
        let first = answer(&mut session, &light_request(20));
        let second = answer(&mut session, &light_request(20));
        assert!(second.contains("\"cache\":\"miss\""), "{second}");
        assert!(
            second.contains("\"cache_entries\":0,\"cache_evictions\":2,"),
            "{second}"
        );
        assert_eq!(payload(&first), payload(&second));
        assert_eq!(session.kept.bytes, 0);
        assert!(session.kept.recency.is_empty() && session.kept.memo.is_empty());
    }

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
        let parse = |text: &str| Request::from_json(&json::parse(text).unwrap(), 1);
        assert!(parse(r#"{"path":"a.tg","model":"x"}"#).is_err());
        assert!(parse(r#"{}"#).is_err());
        assert!(parse(r#"{"kind":"batch","paths":[]}"#).is_err());
        assert!(parse(r#"{"kind":"batch","path":"a.tg"}"#).is_err());
        assert!(parse(r#"{"kind":"frobnicate","path":"a.tg"}"#).is_err());
        assert!(
            parse(r#"{"path":"a.tg","wat":1}"#).is_err(),
            "unknown fields"
        );
        // `solve` runs OTFUR only, on one thread: `engine` and `jobs` are
        // unknown fields, whatever they hold.
        for (field, value) in [
            ("engine", r#""otfur""#),
            ("engine", r#""jacobi""#),
            ("engine", r#""magic""#),
            ("jobs", "1"),
            ("jobs", "4"),
            ("jobs", "-3"),
        ] {
            for line in [
                format!(r#"{{"path":"a.tg","{field}":{value}}}"#),
                format!(r#"{{"kind":"batch","paths":["a.tg"],"{field}":{value}}}"#),
            ] {
                assert_eq!(
                    parse(&line).err(),
                    Some(format!("unknown request field `{field}`")),
                    "{line}"
                );
            }
        }
        assert!(
            parse(r#"{"paths":["a.tg"]}"#).is_err(),
            "batch arrays need kind=batch"
        );
        let ok = parse(r#"{"id":"x","path":"a.tg","exhaustive":true}"#).unwrap();
        assert_eq!(ok.id, "\"x\"");
        assert!(!ok.options.early_termination);
        assert!(!ok.controller, "controller defaults to false");
        let ok = parse(r#"{"path":"a.tg","controller":true}"#).unwrap();
        assert!(ok.controller);
        assert!(parse(r#"{"path":"a.tg","controller":1}"#).is_err());
    }
}
