//! Stable textual serialization of verdicts and strategies.
//!
//! `tiga serve` answers from a content-hash cache and CI pins golden
//! strategies byte-for-byte, so strategies need a serialization format that
//! is *stable* (the same strategy always prints to the same bytes,
//! regardless of hash-map iteration order or `--jobs`) and
//! *exact* (`parse(print(s)) ≡ s` on rules, ranks, zones and decisions).
//! crates.io is unreachable, so the format is hand-rolled in the same
//! spirit as `tiga_lang::print_system` and `crates/bench/src/baseline.rs`:
//! a versioned line-oriented text format.
//!
//! # Format (`tiga-strategy v1`)
//!
//! ```text
//! tiga-strategy v1
//! model <system name, verbatim to end of line>
//! verdict winning|losing
//! strategy none                      # when no strategy was extracted
//! dim <n>                            # otherwise: DBM dimension, then states
//! state <loc> <loc> ... / <var> ...  # location ids, `/`, variable values
//! rule <rank> wait <n·n bounds>
//! rule <rank> take tau <aut> <edge> <n·n bounds>
//! rule <rank> take sync <chan> <out-aut> <out-edge> <in-aut> <in-edge> <n·n bounds>
//! end
//! ```
//!
//! Zones are printed as the full row-major DBM matrix, one token per bound:
//! `<inf` (unconstrained), `<=m` or `<m` — exactly the [`tiga_dbm::Bound`]
//! display forms, so every canonical DBM round-trips bit-exactly.  States
//! are sorted by (locations, variables); rules keep their extraction order,
//! which the solver already guarantees is identical for any thread count.
//! Ids are raw indices (`LocationId::index` etc.); a strategy file is only
//! meaningful against the system it was extracted from.
//!
//! The format is per state, but a [`Strategy`] stores each distinct rule
//! list once: the printer renders a list's `rule` lines the first time a
//! state that uses it is printed and copies those bytes for every later
//! one, and the parser interns each state's list as it closes, so a file's
//! repeated lists are stored once again.  Zone constants of a solve stay
//! inside the encoding because the solver refuses systems whose constants
//! pass [`tiga_dbm::max_constant_for`] their clock count.

use crate::strategy::{Decision, Strategy, StrategyRule};
use tiga_dbm::{Bound, Dbm};
use tiga_model::{AutomatonId, ChannelId, DiscreteState, EdgeId, JointEdge, LocationId};

/// The header line every serialized strategy starts with.
pub const STRATEGY_FORMAT_HEADER: &str = "tiga-strategy v1";

/// The header line every serialized compiled controller starts with (the
/// body is the controller's minimized source strategy in the same shape;
/// see `crate::controller::print_controller`).
pub const CONTROLLER_FORMAT_HEADER: &str = "tiga-controller v1";

/// A parsed strategy file: the verdict plus the strategy it justifies (absent
/// for losing games or `--no-strategy` solves).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyFile {
    /// Name of the system the strategy was extracted from.
    pub model: String,
    /// Whether the initial state is winning.
    pub winning: bool,
    /// The strategy, when one was extracted.
    pub strategy: Option<Strategy>,
}

/// Prints a verdict and optional strategy in the versioned `tiga-strategy`
/// format.
///
/// The output is byte-stable: states are emitted in sorted order and every
/// zone as its full canonical bound matrix, so the same solution always
/// serializes to the same bytes.
#[must_use]
pub fn print_strategy(model: &str, winning: bool, strategy: Option<&Strategy>) -> String {
    print_with_header(STRATEGY_FORMAT_HEADER, model, winning, strategy)
}

/// Shared printer behind [`print_strategy`] and the controller format, which
/// differ only in their header line.
///
/// Tokens are written straight into one byte buffer sized up front:
/// integers through [`push_uint`]/[`push_int`], bounds through
/// [`push_bound`], no `fmt` machinery.  A block's rule lines are rendered
/// the first time a state that uses it is printed; every later state with
/// the same block copies those bytes.
#[must_use]
pub(crate) fn print_with_header(
    header: &str,
    model: &str,
    winning: bool,
    strategy: Option<&Strategy>,
) -> String {
    let Some(strategy) = strategy else {
        let mut out = Vec::with_capacity(header.len() + model.len() + 48);
        push_preamble(&mut out, header, model, winning);
        out.extend_from_slice(b"strategy none\nend\n");
        return into_string(out);
    };
    // One scratch vector: a slot per block, then the states to print.
    let blocks = strategy.block_slots();
    let mut slots: Vec<Slot<'_>> = Vec::with_capacity(blocks + strategy.state_count());
    slots.resize_with(blocks, || Slot::Block(None));
    slots.extend(
        strategy
            .state_blocks()
            .map(|(discrete, block)| Slot::State(discrete, block)),
    );
    let (printed, states) = slots.split_at_mut(blocks);
    // States are distinct, so the unstable sort is deterministic.
    states.sort_unstable_by(|a, b| {
        let (a, b) = (a.state().0, b.state().0);
        a.locations
            .cmp(&b.locations)
            .then_with(|| a.vars.cmp(&b.vars))
    });
    let mut out = Vec::with_capacity(printed_size_hint(header, model, strategy, states));
    push_preamble(&mut out, header, model, winning);
    out.extend_from_slice(b"dim ");
    push_uint(&mut out, strategy.dim() as u64);
    out.push(b'\n');
    for slot in states.iter() {
        let (discrete, block) = slot.state();
        out.extend_from_slice(b"state");
        for loc in &discrete.locations {
            out.push(b' ');
            push_uint(&mut out, loc.index() as u64);
        }
        out.extend_from_slice(b" /");
        for &var in &discrete.vars {
            out.push(b' ');
            push_int(&mut out, var);
        }
        out.push(b'\n');
        let Slot::Block(lines) = &mut printed[block as usize] else {
            unreachable!("the first slots are the blocks'")
        };
        match lines {
            Some((start, end)) => out.extend_from_within(*start..*end),
            None => {
                let start = out.len();
                push_rules(&mut out, strategy.block(block));
                *lines = Some((start, out.len()));
            }
        }
    }
    out.extend_from_slice(b"end\n");
    into_string(out)
}

/// An entry of the printer's scratch vector.
enum Slot<'a> {
    /// Where a block's rule lines were first written, once they were.
    Block(Option<(usize, usize)>),
    /// A state to print and its block.
    State(&'a DiscreteState, u32),
}

impl<'a> Slot<'a> {
    fn state(&self) -> (&'a DiscreteState, u32) {
        match *self {
            Slot::State(discrete, block) => (discrete, block),
            Slot::Block(_) => unreachable!("the last slots are the states'"),
        }
    }
}

/// Writes one `rule` line per rule.
fn push_rules(out: &mut Vec<u8>, rules: &[StrategyRule]) {
    for rule in rules {
        out.extend_from_slice(b"rule ");
        push_uint(out, u64::from(rule.rank));
        match &rule.decision {
            Decision::Wait => out.extend_from_slice(b" wait"),
            Decision::Take(JointEdge::Internal { automaton, edge }) => {
                out.extend_from_slice(b" take tau");
                push_ids(out, &[automaton.index(), edge.index()]);
            }
            Decision::Take(JointEdge::Sync {
                channel,
                output,
                input,
            }) => {
                out.extend_from_slice(b" take sync");
                push_ids(
                    out,
                    &[
                        channel.index(),
                        output.0.index(),
                        output.1.index(),
                        input.0.index(),
                        input.1.index(),
                    ],
                );
            }
        }
        let dim = rule.zone.dim();
        for i in 0..dim {
            for j in 0..dim {
                out.push(b' ');
                push_bound(out, rule.zone.at(i, j));
            }
        }
        out.push(b'\n');
    }
}

/// The printed bytes as text: the model name is the only non-ASCII input,
/// and it is copied from a `&str`.
fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the printer writes UTF-8")
}

/// The header, `model` and `verdict` lines.
fn push_preamble(out: &mut Vec<u8>, header: &str, model: &str, winning: bool) {
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(b"\nmodel ");
    out.extend_from_slice(model.as_bytes());
    out.extend_from_slice(if winning {
        b"\nverdict winning\n"
    } else {
        b"\nverdict losing\n"
    });
}

/// An upper estimate of the printed length, so the output buffer is
/// allocated once: a bound token takes at most 7 bytes for the constants
/// that occur in practice, an id or variable at most 11.
fn printed_size_hint(header: &str, model: &str, strategy: &Strategy, states: &[Slot<'_>]) -> usize {
    let per_rule = 48 + strategy.dim() * strategy.dim() * 8;
    header.len()
        + model.len()
        + 64
        + states
            .iter()
            .map(|slot| {
                let (discrete, block) = slot.state();
                8 + 12 * (discrete.locations.len() + discrete.vars.len())
                    + per_rule * strategy.block(block).len()
            })
            .sum::<usize>()
}

/// Writes ` <id>` for each id.
fn push_ids(out: &mut Vec<u8>, ids: &[usize]) {
    for &id in ids {
        out.push(b' ');
        push_uint(out, id as u64);
    }
}

/// Writes a bound as its [`Bound`] display token: `<inf`, `<m` or `<=m`.
fn push_bound(out: &mut Vec<u8>, bound: Bound) {
    match bound.constant() {
        None => out.extend_from_slice(b"<inf"),
        Some(m) => {
            out.extend_from_slice(if bound.is_strict() { b"<" } else { b"<=" });
            push_int(out, i64::from(m));
        }
    }
}

/// Writes a signed integer in decimal, as `Display` does.
fn push_int(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    push_uint(out, n.unsigned_abs());
}

/// Writes an unsigned integer in decimal, as `Display` does.
fn push_uint(out: &mut Vec<u8>, mut n: u64) {
    if n < 10 {
        out.push(b'0' + n as u8);
        return;
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    while n > 0 {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.extend_from_slice(&digits[start..]);
}

/// Parses a `tiga-strategy v1` file back into a [`StrategyFile`].
///
/// The parse is exact: zones are checked to be canonical (re-closing the
/// printed bounds must reproduce them), so `parse(print(s)) ≡ s` and any
/// hand-edited non-canonical zone is rejected instead of silently changed.
///
/// # Errors
///
/// Returns a `line N: ...` message on the first malformed line.
pub fn parse_strategy(text: &str) -> Result<StrategyFile, String> {
    parse_with_header(STRATEGY_FORMAT_HEADER, text)
}

/// Shared parser behind [`parse_strategy`] and the controller format, which
/// differ only in the expected header line.
pub(crate) fn parse_with_header(expected: &str, text: &str) -> Result<StrategyFile, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty strategy file")?;
    if header.trim_end() != expected {
        return Err(format!(
            "line 1: expected header `{expected}`, got `{header}`"
        ));
    }
    let (n, model_line) = lines.next().ok_or("missing `model` line")?;
    let model = model_line
        .strip_prefix("model ")
        .ok_or_else(|| format!("line {}: expected `model <name>`", n + 1))?
        .to_string();
    let (n, verdict_line) = lines.next().ok_or("missing `verdict` line")?;
    let winning = match verdict_line.trim_end() {
        "verdict winning" => true,
        "verdict losing" => false,
        other => {
            return Err(format!(
                "line {}: expected `verdict winning|losing`, got `{other}`",
                n + 1
            ))
        }
    };

    let (n, body_first) = lines.next().ok_or("missing strategy body")?;
    if body_first.trim_end() == "strategy none" {
        let (n, last) = lines.next().ok_or("missing `end` line")?;
        if last.trim_end() != "end" {
            return Err(format!("line {}: expected `end`, got `{last}`", n + 1));
        }
        finish(lines)?;
        return Ok(StrategyFile {
            model,
            winning,
            strategy: None,
        });
    }

    let dim: usize = body_first
        .strip_prefix("dim ")
        .and_then(|d| d.trim_end().parse().ok())
        .filter(|d| *d >= 1)
        .ok_or_else(|| format!("line {}: expected `dim <n>` or `strategy none`", n + 1))?;
    let mut strategy = Strategy::new(dim);
    // The state being read and its rules so far; each state's list is
    // interned when the next `state` line or `end` closes it.
    let mut current: Option<DiscreteState> = None;
    let mut rules: Vec<StrategyRule> = Vec::new();
    while let Some((n, line)) = lines.next() {
        let line_no = n + 1;
        let line = line.trim_end();
        if line == "end" {
            if let Some(discrete) = current.take() {
                strategy.add_rules_from(discrete, &rules);
            }
            finish(lines)?;
            return Ok(StrategyFile {
                model,
                winning,
                strategy: Some(strategy),
            });
        }
        if let Some(rest) = line.strip_prefix("state ") {
            let next = parse_state(line_no, rest)?;
            if let Some(discrete) = current.replace(next) {
                strategy.add_rules_from(discrete, &rules);
            }
            rules.clear();
        } else if let Some(rest) = line.strip_prefix("rule ") {
            if current.is_none() {
                return Err(format!("line {line_no}: `rule` before any `state`"));
            }
            rules.push(parse_rule(line_no, rest, dim)?);
        } else {
            return Err(format!(
                "line {line_no}: expected `state`, `rule` or `end`, got `{line}`"
            ));
        }
    }
    Err("missing `end` line".to_string())
}

/// After `end`, only blank lines may follow.
fn finish<'a>(lines: impl Iterator<Item = (usize, &'a str)>) -> Result<(), String> {
    for (n, line) in lines {
        if !line.trim().is_empty() {
            return Err(format!("line {}: trailing content `{line}`", n + 1));
        }
    }
    Ok(())
}

fn parse_state(line_no: usize, rest: &str) -> Result<DiscreteState, String> {
    let (locs, vars) = rest
        .split_once('/')
        .ok_or_else(|| format!("line {line_no}: `state` line needs a `/` separator"))?;
    let locations = locs
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map(LocationId::from_index)
                .map_err(|_| format!("line {line_no}: bad location id `{t}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if locations.is_empty() {
        return Err(format!("line {line_no}: `state` line has no locations"));
    }
    let vars = vars
        .split_whitespace()
        .map(|t| {
            t.parse::<i64>()
                .map_err(|_| format!("line {line_no}: bad variable value `{t}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DiscreteState { locations, vars })
}

fn parse_rule(line_no: usize, rest: &str, dim: usize) -> Result<StrategyRule, String> {
    let mut tokens = rest.split_whitespace();
    let rank: u32 = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("line {line_no}: `rule` needs a numeric rank"))?;
    let decision = match tokens.next() {
        Some("wait") => Decision::Wait,
        Some("take") => match tokens.next() {
            Some("tau") => {
                let automaton = parse_index(line_no, tokens.next(), "automaton id")?;
                let edge = parse_index(line_no, tokens.next(), "edge id")?;
                Decision::Take(JointEdge::Internal {
                    automaton: AutomatonId::from_index(automaton),
                    edge: EdgeId::from_index(edge),
                })
            }
            Some("sync") => {
                let channel = parse_index(line_no, tokens.next(), "channel id")?;
                let oa = parse_index(line_no, tokens.next(), "output automaton id")?;
                let oe = parse_index(line_no, tokens.next(), "output edge id")?;
                let ia = parse_index(line_no, tokens.next(), "input automaton id")?;
                let ie = parse_index(line_no, tokens.next(), "input edge id")?;
                Decision::Take(JointEdge::Sync {
                    channel: ChannelId::from_index(channel),
                    output: (AutomatonId::from_index(oa), EdgeId::from_index(oe)),
                    input: (AutomatonId::from_index(ia), EdgeId::from_index(ie)),
                })
            }
            other => {
                return Err(format!(
                    "line {line_no}: expected `take tau|sync`, got `{}`",
                    other.unwrap_or("<eol>")
                ))
            }
        },
        other => {
            return Err(format!(
                "line {line_no}: expected `wait` or `take`, got `{}`",
                other.unwrap_or("<eol>")
            ))
        }
    };
    let mut bounds = Vec::with_capacity(dim * dim);
    for _ in 0..dim * dim {
        let token = tokens
            .next()
            .ok_or_else(|| format!("line {line_no}: zone needs {} bounds", dim * dim))?;
        bounds.push(parse_bound(line_no, token)?);
    }
    if let Some(extra) = tokens.next() {
        return Err(format!("line {line_no}: trailing token `{extra}`"));
    }
    let zone = rebuild_zone(line_no, dim, &bounds)?;
    Ok(StrategyRule {
        rank,
        zone,
        decision,
    })
}

fn parse_index(line_no: usize, token: Option<&str>, what: &str) -> Result<usize, String> {
    token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("line {line_no}: bad {what} `{}`", token.unwrap_or("<eol>")))
}

fn parse_bound(line_no: usize, token: &str) -> Result<Bound, String> {
    if token == "<inf" {
        return Ok(Bound::INF);
    }
    let (m, strict) = if let Some(m) = token.strip_prefix("<=") {
        (m, false)
    } else if let Some(m) = token.strip_prefix('<') {
        (m, true)
    } else {
        return Err(format!("line {line_no}: bad bound `{token}`"));
    };
    let m: i32 = m
        .parse()
        .map_err(|_| format!("line {line_no}: bad bound `{token}`"))?;
    if !(-tiga_dbm::MAX_CONSTANT..=tiga_dbm::MAX_CONSTANT).contains(&m) {
        return Err(format!(
            "line {line_no}: bound constant out of range `{token}`"
        ));
    }
    Ok(Bound::new(m, strict))
}

/// Re-closes the printed bounds and checks the result reproduces them: a
/// serialized zone is canonical by construction, so any deviation means the
/// file was corrupted or hand-edited into a non-canonical matrix.
fn rebuild_zone(line_no: usize, dim: usize, bounds: &[Bound]) -> Result<Dbm, String> {
    let mut constraints = Vec::new();
    for i in 0..dim {
        for j in 0..dim {
            let b = bounds[i * dim + j];
            if i != j && !b.is_inf() {
                constraints.push((i, j, b));
            }
        }
    }
    let zone = Dbm::from_constraints(dim, &constraints);
    for i in 0..dim {
        for j in 0..dim {
            if zone.at(i, j) != bounds[i * dim + j] {
                return Err(format!(
                    "line {line_no}: zone is not canonical at ({i},{j}): \
                     stored {} but closure gives {}",
                    bounds[i * dim + j],
                    zone.at(i, j)
                ));
            }
        }
    }
    if zone.is_empty() {
        return Err(format!("line {line_no}: zone is empty"));
    }
    Ok(zone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_model::{AutomatonBuilder, EdgeBuilder, SystemBuilder};

    fn tiny_system() -> (tiga_model::System, DiscreteState, JointEdge) {
        let mut b = SystemBuilder::new("t");
        let _x = b.clock("x").unwrap();
        let go = b.input_channel("go").unwrap();
        let mut plant = AutomatonBuilder::new("P");
        let l0 = plant.location("L0").unwrap();
        let l1 = plant.location("L1").unwrap();
        plant.add_edge(EdgeBuilder::new(l0, l1).input(go));
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("U");
        let u0 = user.location("U0").unwrap();
        user.add_edge(EdgeBuilder::new(u0, u0).output(go));
        b.add_automaton(user.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let d = sys.initial_discrete();
        let je = sys.enabled_joint_edges(&d).unwrap().remove(0);
        (sys, d, je)
    }

    fn zone_between(lo: i32, hi: i32) -> Dbm {
        let mut z = Dbm::universe(2);
        z.constrain(0, 1, Bound::le(-lo));
        z.constrain(1, 0, Bound::lt(hi));
        z
    }

    fn sample_strategy() -> Strategy {
        let (sys, d, je) = tiny_system();
        let mut strat = Strategy::new(sys.dim());
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 2,
                zone: Dbm::universe(2),
                decision: Decision::Wait,
            },
        );
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(2, 5),
                decision: Decision::Take(je),
            },
        );
        let mut other = d;
        other.locations[0] = LocationId::from_index(1);
        strat.add_rule(
            other,
            StrategyRule {
                rank: 0,
                zone: zone_between(0, 3),
                decision: Decision::Wait,
            },
        );
        strat
    }

    #[test]
    fn roundtrip_is_exact() {
        let strat = sample_strategy();
        let text = print_strategy("tiny", true, Some(&strat));
        let file = parse_strategy(&text).unwrap();
        assert_eq!(file.model, "tiny");
        assert!(file.winning);
        assert_eq!(file.strategy.as_ref(), Some(&strat));
        // The printer is a fixpoint: print(parse(print(s))) == print(s).
        let again = print_strategy("tiny", true, file.strategy.as_ref());
        assert_eq!(again, text);
    }

    #[test]
    fn printing_is_independent_of_insertion_order() {
        let (sys, d, je) = tiny_system();
        let mut other = d.clone();
        other.locations[0] = LocationId::from_index(1);
        let wait = StrategyRule {
            rank: 1,
            zone: Dbm::universe(2),
            decision: Decision::Wait,
        };
        let take = StrategyRule {
            rank: 1,
            zone: zone_between(1, 4),
            decision: Decision::Take(je),
        };
        let mut a = Strategy::new(sys.dim());
        a.add_rule(d.clone(), wait.clone());
        a.add_rule(other.clone(), take.clone());
        let mut b = Strategy::new(sys.dim());
        b.add_rule(other, take);
        b.add_rule(d, wait);
        assert_eq!(
            print_strategy("t", true, Some(&a)),
            print_strategy("t", true, Some(&b)),
            "state order is canonicalized, not insertion-dependent"
        );
    }

    #[test]
    fn verdict_only_files_roundtrip() {
        let text = print_strategy("loser", false, None);
        assert!(text.contains("verdict losing"));
        assert!(text.contains("strategy none"));
        let file = parse_strategy(&text).unwrap();
        assert_eq!(file.model, "loser");
        assert!(!file.winning);
        assert!(file.strategy.is_none());
    }

    #[test]
    fn sync_decisions_roundtrip() {
        let strat = sample_strategy();
        let text = print_strategy("t", true, Some(&strat));
        // The `go` channel produces a sync joint edge in the sample.
        assert!(text.contains("take sync"), "{text}");
        let file = parse_strategy(&text).unwrap();
        assert_eq!(file.strategy.unwrap(), strat);
    }

    #[test]
    fn bound_tokens_roundtrip() {
        for b in [Bound::INF, Bound::le(3), Bound::lt(-2), Bound::ZERO_LE] {
            assert_eq!(parse_bound(1, &b.to_string()).unwrap(), b);
        }
        assert!(parse_bound(1, ">=3").is_err());
        assert!(parse_bound(1, "<=x").is_err());
        assert!(parse_bound(1, "<=999999999999").is_err());
    }

    #[test]
    fn malformed_files_are_rejected_with_line_numbers() {
        let strat = sample_strategy();
        let good = print_strategy("t", true, Some(&strat));
        // Corrupt the header.
        let bad = good.replacen("v1", "v9", 1);
        assert!(parse_strategy(&bad).unwrap_err().contains("line 1"));
        // Drop the `end` line.
        let bad = good.replace("end\n", "");
        assert!(parse_strategy(&bad).unwrap_err().contains("end"));
        // A rule before any state.
        let bad = "tiga-strategy v1\nmodel t\nverdict winning\ndim 2\nrule 1 wait <=0 <=0 <inf <=0\nend\n";
        assert!(parse_strategy(bad)
            .unwrap_err()
            .contains("before any `state`"));
        // Wrong bound count.
        let bad = "tiga-strategy v1\nmodel t\nverdict winning\ndim 2\nstate 0 0 /\nrule 1 wait <=0\nend\n";
        assert!(parse_strategy(bad).unwrap_err().contains("4 bounds"));
        // Non-canonical zone: closure tightens the stored `(0,1)` bound.
        let bad = "tiga-strategy v1\nmodel t\nverdict winning\ndim 2\nstate 0 0 /\n\
                   rule 1 wait <=0 <inf <=5 <=0\nend\n";
        assert!(parse_strategy(bad).unwrap_err().contains("not canonical"));
        // An empty zone.
        let bad = "tiga-strategy v1\nmodel t\nverdict winning\ndim 2\nstate 0 0 /\n\
                   rule 1 wait <=0 <-1 <=0 <=0\nend\n";
        assert!(parse_strategy(bad).is_err());
        // Truncations never panic (baseline.rs discipline).
        for cut in 0..good.len() {
            let _ = parse_strategy(&good[..cut]);
        }
    }

    #[test]
    fn prefix_truncation_of_none_files_never_panics() {
        let good = print_strategy("t", false, None);
        for cut in 0..good.len() {
            let _ = parse_strategy(&good[..cut]);
        }
    }
}
