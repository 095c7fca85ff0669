//! Stable textual serialization of verdicts and strategies.
//!
//! `tiga serve` answers from a content-hash cache and CI pins golden
//! strategies byte-for-byte, so strategies need a serialization format that
//! is *stable* (the same strategy always prints to the same bytes,
//! regardless of hash-map iteration order) and
//! *exact* (`parse(print(s)) ≡ s` on rules, ranks, zones and decisions).
//! crates.io is unreachable, so the format is hand-rolled in the same
//! spirit as `tiga_lang::print_system` and `crates/bench/src/baseline.rs`:
//! a versioned line-oriented text format.
//!
//! # Format (`tiga-strategy v2`)
//!
//! ```text
//! tiga-strategy v2
//! model <system name, verbatim to end of line>
//! verdict winning|losing
//! strategy none                      # when no strategy was extracted
//! dim <n>                            # otherwise: DBM dimension, then states
//! state <loc> <loc> ... / <var> ...  # location ids, `/`, variable values
//! rule <rank> wait <n·n bounds>
//! rule <rank> take tau <aut> <edge> <n·n bounds>
//! rule <rank> take sync <chan> <out-aut> <out-edge> <in-aut> <in-edge> <n·n bounds>
//! same <k>                           # instead of rules: rule list number k
//! end
//! ```
//!
//! Zones are printed as the full row-major DBM matrix, one token per bound:
//! `<inf` (unconstrained), `<=m` or `<m` — exactly the [`tiga_dbm::Bound`]
//! display forms, so every canonical DBM round-trips bit-exactly.  States
//! are sorted by (locations, variables); rules keep their extraction order,
//! which is deterministic.
//! Ids are raw indices (`LocationId::index` etc.); a strategy file is only
//! meaningful against the system it was extracted from.
//!
//! Many states carry the same rule list, and a [`Strategy`] stores each
//! distinct list once.  The text does too: the distinct lists are numbered
//! 0, 1, 2, … in the order their first state is printed, that state prints
//! the list's `rule` lines, and every later state with an equal list prints
//! `same <k>` instead.  The parser attaches such a state to the list it
//! read, without hashing the list again, and refuses a reference to a list
//! not yet printed, rules after a reference and a state printed twice.
//! Version 1, which repeated every list under each of its states, is not
//! read any more.  Zone constants of a solve stay inside the encoding
//! because the solver refuses systems whose constants pass
//! [`tiga_dbm::max_constant_for`] their clock count.

use crate::strategy::{Decision, Strategy, StrategyRule};
use tiga_dbm::{Bound, Dbm};
use tiga_model::{AutomatonId, ChannelId, DiscreteState, EdgeId, JointEdge, LocationId};

/// The header line every serialized strategy starts with.
pub const STRATEGY_FORMAT_HEADER: &str = "tiga-strategy v2";

/// The header line every serialized compiled controller starts with (the
/// body is the controller's minimized source strategy in the same shape;
/// see `crate::controller::print_controller`).
pub const CONTROLLER_FORMAT_HEADER: &str = "tiga-controller v2";

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
/// [`push_bound`], no `fmt` machinery.  Blocks are distinct lists, so a
/// block's number is its list's: the first state of a block prints its
/// rule lines, every later one a `same` line.
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
    let (numbers, states) = slots.split_at_mut(blocks);
    // States are distinct, so the unstable sort is deterministic.
    states.sort_unstable_by(|a, b| {
        let (a, b) = (a.state().0, b.state().0);
        a.locations
            .cmp(&b.locations)
            .then_with(|| a.vars.cmp(&b.vars))
    });
    let mut lists = 0;
    for slot in states.iter() {
        let Slot::Block(number) = &mut numbers[slot.state().1 as usize] else {
            unreachable!("the first slots are the blocks'")
        };
        if number.is_none() {
            *number = Some(lists);
            lists += 1;
        }
    }
    let mut out = Vec::with_capacity(printed_size_hint(header, model, strategy, numbers, states));
    push_preamble(&mut out, header, model, winning);
    out.extend_from_slice(b"dim ");
    push_uint(&mut out, strategy.dim() as u64);
    out.push(b'\n');
    let mut printed = 0;
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
        let number = numbers[block as usize].number();
        if number == printed {
            push_rules(&mut out, strategy.block(block));
            printed += 1;
        } else {
            out.extend_from_slice(b"same ");
            push_uint(&mut out, number);
            out.push(b'\n');
        }
    }
    out.extend_from_slice(b"end\n");
    into_string(out)
}

/// An entry of the printer's scratch vector.
enum Slot<'a> {
    /// The number of a block's list, once a state that uses it is placed.
    Block(Option<u64>),
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

    fn number(&self) -> u64 {
        match *self {
            Slot::Block(Some(number)) => number,
            _ => unreachable!("every printed state's block is numbered"),
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
/// that occur in practice, an id or variable at most 11, and each numbered
/// list's rules are counted once.
fn printed_size_hint(
    header: &str,
    model: &str,
    strategy: &Strategy,
    numbers: &[Slot<'_>],
    states: &[Slot<'_>],
) -> usize {
    let per_rule = 48 + strategy.dim() * strategy.dim() * 8;
    let rules: usize = (0..numbers.len() as u32)
        .filter(|&block| matches!(numbers[block as usize], Slot::Block(Some(_))))
        .map(|block| per_rule * strategy.block(block).len())
        .sum();
    let state_lines: usize = states
        .iter()
        .map(|slot| {
            let discrete = slot.state().0;
            32 + 12 * (discrete.locations.len() + discrete.vars.len())
        })
        .sum();
    header.len() + model.len() + 64 + rules + state_lines
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

/// Parses a `tiga-strategy v2` file back into a [`StrategyFile`].
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
    // The block of each list read so far, by its number in the file.
    let mut lists: Vec<u32> = Vec::new();
    // The state being read and its rules so far; a state's list is interned
    // when the next `state` line or `end` closes it.  `referenced` marks a
    // state already attached by its `same` line.
    let mut current: Option<DiscreteState> = None;
    let mut rules: Vec<StrategyRule> = Vec::new();
    let mut referenced = false;
    while let Some((n, line)) = lines.next() {
        let line_no = n + 1;
        let line = line.trim_end();
        if line == "end" {
            close(&mut strategy, &mut lists, current.take(), &mut rules);
            finish(lines)?;
            return Ok(StrategyFile {
                model,
                winning,
                strategy: Some(strategy),
            });
        }
        if let Some(rest) = line.strip_prefix("state ") {
            close(&mut strategy, &mut lists, current.take(), &mut rules);
            let next = parse_state(line_no, rest)?;
            if strategy.rules_for(&next).is_some() {
                return Err(format!("line {line_no}: the state is printed twice"));
            }
            current = Some(next);
            referenced = false;
        } else if let Some(rest) = line.strip_prefix("rule ") {
            if referenced {
                return Err(format!("line {line_no}: `rule` after the state's `same`"));
            }
            if current.is_none() {
                return Err(format!("line {line_no}: `rule` before any `state`"));
            }
            rules.push(parse_rule(line_no, rest, dim)?);
        } else if let Some(rest) = line.strip_prefix("same ") {
            if referenced {
                return Err(format!("line {line_no}: a second `same` for one state"));
            }
            if !rules.is_empty() {
                return Err(format!("line {line_no}: `same` after the state's rules"));
            }
            let discrete = current
                .take()
                .ok_or_else(|| format!("line {line_no}: `same` before any `state`"))?;
            let block = rest
                .parse::<usize>()
                .ok()
                .and_then(|number| lists.get(number))
                .ok_or_else(|| {
                    format!(
                        "line {line_no}: `same {rest}` names no earlier rule list \
                         ({} printed so far)",
                        lists.len()
                    )
                })?;
            strategy.insert_state(discrete, *block);
            referenced = true;
        } else {
            return Err(format!(
                "line {line_no}: expected `state`, `rule`, `same` or `end`, got `{line}`"
            ));
        }
    }
    Err("missing `end` line".to_string())
}

/// Attaches a state read with its rules to their list, which becomes the
/// next numbered one.  A state without rules or a reference adds nothing.
fn close(
    strategy: &mut Strategy,
    lists: &mut Vec<u32>,
    current: Option<DiscreteState>,
    rules: &mut Vec<StrategyRule>,
) {
    if let Some(discrete) = current.filter(|_| !rules.is_empty()) {
        let block = strategy.intern_block(std::mem::take(rules));
        lists.push(block);
        strategy.insert_state(discrete, block);
    }
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
        let bad = good.replacen("v2", "v9", 1);
        assert!(parse_strategy(&bad).unwrap_err().contains("line 1"));
        // Drop the `end` line.
        let bad = good.replace("end\n", "");
        assert!(parse_strategy(&bad).unwrap_err().contains("end"));
        // A rule before any state.
        let bad = "tiga-strategy v2\nmodel t\nverdict winning\ndim 2\nrule 1 wait <=0 <=0 <inf <=0\nend\n";
        assert!(parse_strategy(bad)
            .unwrap_err()
            .contains("before any `state`"));
        // Wrong bound count.
        let bad = "tiga-strategy v2\nmodel t\nverdict winning\ndim 2\nstate 0 0 /\nrule 1 wait <=0\nend\n";
        assert!(parse_strategy(bad).unwrap_err().contains("4 bounds"));
        // Non-canonical zone: closure tightens the stored `(0,1)` bound.
        let bad = "tiga-strategy v2\nmodel t\nverdict winning\ndim 2\nstate 0 0 /\n\
                   rule 1 wait <=0 <inf <=5 <=0\nend\n";
        assert!(parse_strategy(bad).unwrap_err().contains("not canonical"));
        // An empty zone.
        let bad = "tiga-strategy v2\nmodel t\nverdict winning\ndim 2\nstate 0 0 /\n\
                   rule 1 wait <=0 <-1 <=0 <=0\nend\n";
        assert!(parse_strategy(bad).is_err());
        // Truncations never panic (baseline.rs discipline).
        for cut in 0..good.len() {
            let _ = parse_strategy(&good[..cut]);
        }
    }

    /// A strategy whose three states share two lists: the first and third
    /// state print `same` lines.
    fn shared_strategy() -> Strategy {
        let list = |lo, hi| {
            vec![StrategyRule {
                rank: 1,
                zone: zone_between(lo, hi),
                decision: Decision::Wait,
            }]
        };
        let state = |location| DiscreteState {
            locations: vec![LocationId::from_index(location)],
            vars: vec![-1],
        };
        let mut strat = Strategy::new(2);
        strat.add_rules(state(3), list(0, 3));
        strat.add_rules(state(1), list(0, 3));
        strat.add_rules(state(2), list(1, 4));
        strat.add_rules(state(0), list(1, 4));
        strat
    }

    #[test]
    fn each_list_is_printed_once_and_referenced_after() {
        let strat = shared_strategy();
        let text = print_strategy("t", true, Some(&strat));
        assert_eq!(
            text,
            "tiga-strategy v2\nmodel t\nverdict winning\ndim 2\n\
             state 0 / -1\nrule 1 wait <=0 <=-1 <4 <=0\n\
             state 1 / -1\nrule 1 wait <=0 <=0 <3 <=0\n\
             state 2 / -1\nsame 0\n\
             state 3 / -1\nsame 1\nend\n"
        );
        let file = parse_strategy(&text).unwrap();
        assert_eq!(file.strategy.as_ref(), Some(&strat));
        assert_eq!(print_strategy("t", true, file.strategy.as_ref()), text);
    }

    #[test]
    fn malformed_references_are_rejected_with_line_numbers() {
        // `strategy_roundtrip.rs` refuses a reference to the next list,
        // rules after a reference, two references and v1 headers.
        let good = print_strategy("t", true, Some(&shared_strategy()));
        let cases = [
            (
                good.replace("same 0", "same 9"),
                "line 10: `same 9` names no earlier rule list (2 printed so far)",
            ),
            (
                good.replace("same 0", "same x"),
                "line 10: `same x` names no earlier rule list",
            ),
            (
                good.replacen("<3 <=0\n", "<3 <=0\nsame 0\n", 1),
                "line 9: `same` after the state's rules",
            ),
            (
                good.replace("dim 2\n", "dim 2\nsame 0\n"),
                "line 5: `same` before any `state`",
            ),
            (
                good.replace("state 2 /", "state 1 /"),
                "line 9: the state is printed twice",
            ),
        ];
        for (bad, message) in cases {
            let error = parse_strategy(&bad).unwrap_err();
            assert!(
                error.starts_with(message),
                "{error} (expected {message})\n{bad}"
            );
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
