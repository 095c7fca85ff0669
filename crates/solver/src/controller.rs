//! The `Controller` abstraction and compiled microsecond controllers.
//!
//! Online test execution asks three questions per step — *what should I do*
//! ([`Controller::decide`]), *how far from the goal am I*
//! ([`Controller::rank_of`]) and *when should I wake up*
//! ([`Controller::next_take_delay`]).  The interpreted [`Strategy`] answers
//! them by scanning every rule of the discrete state and testing full
//! `dim²` bound matrices; under heavy traffic (10⁶+ step campaigns, many
//! concurrent simulated IUTs) that scan *is* the hot path.
//!
//! [`CompiledController`] lowers a [minimized](crate::minimize) strategy
//! into a static per-discrete-state decision structure:
//!
//! * discrete states are interned into a hash map of dense indices, so the
//!   per-step lookup is one hash instead of a `HashMap<DiscreteState, Vec>`
//!   walk per query kind;
//! * each state's rules are split into wait/take programs and sorted by
//!   rank (stably, preserving the interpreter's first-in-order tie-break),
//!   so rank walks terminate at the first containing rule;
//! * zones are reduced to their minimal constraint systems
//!   ([`tiga_dbm::MinimalZone`]-style), so point containment checks only
//!   the generating constraints instead of the full matrix;
//! * a per-state interval index over the most discriminating ("pivot")
//!   clock maps the queried valuation to a segment of candidate rules via
//!   one binary search, so `decide`/`rank_of` only visit rules whose pivot
//!   window can contain the value;
//! * queries never allocate: the reference clock is handled positionally
//!   instead of materializing the `dbm_point` vector.
//!
//! Every answer is pinned identical to the interpreted strategy by the
//! differential suites (`crates/bench/tests/controller_differential.rs`,
//! `crates/gen/tests/minimize_props.rs`).

use crate::minimize::minimize_strategy;
use crate::serialize::{
    parse_with_header, print_with_header, StrategyFile, CONTROLLER_FORMAT_HEADER,
};
use crate::strategy::{Decision, Strategy, StrategyDecision, StrategyRule};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use tiga_dbm::{DelayWindow, MinimalConstraint, StateHasher};
use tiga_model::{DiscreteState, JointEdge};

/// The per-query discrete-state lookup is the fixed cost of *every*
/// compiled-controller query; with the rule walk reduced to a handful of
/// minimal-constraint checks, `SipHash` would dominate the whole query.  The
/// map is built once from solver output and only ever probed, never grown
/// from untrusted input, so the word-at-a-time [`StateHasher`] is safe here.
type StateMap = HashMap<DiscreteState, u32, BuildHasherDefault<StateHasher>>;

/// The online interface of a synthesized strategy: everything the test
/// executor needs, abstracted over the representation.
///
/// [`Strategy`] implements it by interpretation (the reference
/// implementation); [`CompiledController`] implements it with a compiled
/// decision structure.  The contract is exact equivalence: for every query,
/// a compiled controller returns precisely what the strategy it was
/// compiled from returns.
pub trait Controller {
    /// DBM dimension of the underlying zones (number of clocks + 1).
    fn dim(&self) -> usize;

    /// Decides what the tester should do at a concrete state; `None` means
    /// the state is not covered (outside the winning region).
    fn decide(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<StrategyDecision<'_>>;

    /// The rank (distance-to-goal measure) of a concrete valuation, `None`
    /// if uncovered.
    fn rank_of(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<u32>;

    /// The earliest additional delay (in ticks) after which an admissible
    /// `Take` rule becomes applicable by pure delay, if any.
    fn next_take_delay(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<i64>;

    /// One executor step's decision workload in a single query: the
    /// decision, plus — when the decision is to wait — the
    /// [`next_take_delay`](Controller::next_take_delay) wake-up hint.
    ///
    /// Semantically this is exactly `decide` followed by `next_take_delay`
    /// on a `Wait` (the provided implementation *is* that composition, and
    /// the equivalence is pinned by the differential suites); a compiled
    /// controller overrides it to answer both from one state lookup and one
    /// wait-rank walk.
    fn decide_with_wakeup(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<(StrategyDecision<'_>, Option<i64>)> {
        let decision = self.decide(discrete, ticks, scale)?;
        let wakeup = match decision {
            StrategyDecision::Wait { .. } => self.next_take_delay(discrete, ticks, scale),
            StrategyDecision::Take(_) => None,
        };
        Some((decision, wakeup))
    }
}

impl Controller for Strategy {
    fn dim(&self) -> usize {
        Strategy::dim(self)
    }

    fn decide(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<StrategyDecision<'_>> {
        Strategy::decide(self, discrete, ticks, scale)
    }

    fn rank_of(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<u32> {
        Strategy::rank_of(self, discrete, ticks, scale)
    }

    fn next_take_delay(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<i64> {
        Strategy::next_take_delay(self, discrete, ticks, scale)
    }
}

/// One lowered rule: rank plus the range of its zone's minimal generating
/// constraints in the state's constraint arena.  Twelve bytes, so a whole
/// state's rule program fits in a cache line or two; the `Take` payloads
/// live in a parallel array that the walk only touches on a hit.
#[derive(Clone, Copy, Debug)]
struct CompiledRule {
    rank: u32,
    /// Start of the rule's constraints in [`StateProgram::arena`].
    lo: u32,
    /// One past the end of the rule's constraints.
    hi: u32,
}

/// A pre-decoded minimal constraint `x_i − x_j ≺ m`: the bound's constant
/// and strictness are unpacked at compile time, so the containment check is
/// a single fused comparison `v_i − v_j ≤ scale·m + adj` with no
/// infinity/strictness branches (`adj` is `0` for `≤`, `−1` for `<` —
/// exact for integer-valued scaled clocks).  `∞` bounds are dropped during
/// lowering: they admit everything.
#[derive(Clone, Copy, Debug)]
struct CompiledConstraint {
    /// Row clock index (0 = reference clock).
    i: u16,
    /// Column clock index (0 = reference clock).
    j: u16,
    /// The bound constant `m`.
    m: i32,
    /// `0` for a weak bound, `−1` for a strict one.
    adj: i64,
}

impl CompiledConstraint {
    /// Decodes a minimal constraint; `None` for `∞` (no constraint).
    fn decode(c: &MinimalConstraint) -> Option<CompiledConstraint> {
        let m = c.bound.constant()?;
        Some(CompiledConstraint {
            i: c.i,
            j: c.j,
            m,
            adj: if c.bound.is_strict() { -1 } else { 0 },
        })
    }

    /// Whether the constraint admits the (scaled) difference value.
    #[inline]
    fn admits(&self, diff_scaled: i64, scale: i64) -> bool {
        diff_scaled <= scale * i64::from(self.m) + self.adj
    }
}

/// Scaled value of DBM clock `i` (`0` is the reference clock, pinned at 0).
#[inline]
fn clock_value(ticks: &[i64], i: usize) -> i64 {
    if i == 0 {
        0
    } else {
        ticks[i - 1]
    }
}

/// The compiled decision program of one discrete state.
#[derive(Clone, Debug)]
struct StateProgram {
    /// All rules' minimal constraints, concatenated; [`CompiledRule::lo`]/
    /// [`CompiledRule::hi`] index into this, so a rule walk streams one
    /// contiguous allocation instead of chasing a `Vec` per rule.
    arena: Vec<CompiledConstraint>,
    /// Wait rules, stably sorted by rank ascending.
    waits: Vec<CompiledRule>,
    /// Take rules, stably sorted by rank ascending (the intra-rank order is
    /// the extraction order, preserving the first-in-order tie-break).
    takes: Vec<CompiledRule>,
    /// The joint edges of `takes`, parallel by index.
    take_edges: Vec<JointEdge>,
    /// The pivot clock the interval index discriminates on (DBM index).
    pivot: usize,
    /// Sorted distinct unary pivot-bound constants: the segment boundaries.
    cuts: Vec<i32>,
    /// Per-segment candidate lists in CSR layout: segment `s` of `waits` is
    /// `wait_items[wait_offsets[s]..wait_offsets[s+1]]` (there are
    /// `cuts.len() + 1` segments), candidates in rank order.
    wait_offsets: Vec<u32>,
    wait_items: Vec<u32>,
    /// Same for `takes`.
    take_offsets: Vec<u32>,
    take_items: Vec<u32>,
}

impl StateProgram {
    /// The segment index for a scaled pivot value: segment `s` covers
    /// `[cuts[s−1], cuts[s]]` (closed on both ends — boundary values are
    /// listed as candidates of both adjacent segments).
    fn segment_of(&self, ticks: &[i64], scale: i64) -> usize {
        if self.cuts.is_empty() {
            return 0;
        }
        let v = clock_value(ticks, self.pivot);
        self.cuts.partition_point(|&c| i64::from(c) * scale < v)
    }

    /// Whether the rule's zone contains the valuation (reference clock
    /// handled positionally — no `dbm_point` allocation).  Checking the
    /// minimal generating constraints is equivalent to the full canonical
    /// matrix by closure.
    fn contains(&self, rule: CompiledRule, ticks: &[i64], scale: i64) -> bool {
        self.arena[rule.lo as usize..rule.hi as usize]
            .iter()
            .all(|c| {
                let vi = clock_value(ticks, c.i as usize);
                let vj = clock_value(ticks, c.j as usize);
                c.admits(vi - vj, scale)
            })
    }

    /// The window of delays `d ≥ 0` with `v + d` inside the rule's zone —
    /// the allocation-free equivalent of [`tiga_dbm::Dbm::delay_window_at`]
    /// over the minimal constraint system.  Delay-invariant difference
    /// constraints are checked on `v`; unary constraints become bounds on
    /// `d`.  Because the minimal system generates the zone, the resulting
    /// interval (and its strictness) is identical to the full-matrix one.
    fn delay_window(&self, rule: CompiledRule, ticks: &[i64], scale: i64) -> Option<DelayWindow> {
        let mut window = DelayWindow {
            min: 0,
            min_strict: false,
            max: None,
            max_strict: false,
        };
        for c in &self.arena[rule.lo as usize..rule.hi as usize] {
            let (i, j) = (c.i as usize, c.j as usize);
            let (m, strict) = (c.m, c.adj != 0);
            if i != 0 && j != 0 {
                // x_i − x_j is invariant under delay: must hold already.
                let diff = clock_value(ticks, i) - clock_value(ticks, j);
                if !c.admits(diff, scale) {
                    return None;
                }
            } else if j == 0 {
                // x_i ≤ m:  d ≤ scale·m − v_i.
                let cand = scale * i64::from(m) - clock_value(ticks, i);
                match window.max {
                    None => {
                        window.max = Some(cand);
                        window.max_strict = strict;
                    }
                    Some(cur) => {
                        if cand < cur || (cand == cur && strict) {
                            window.max = Some(cand);
                            window.max_strict = strict;
                        }
                    }
                }
            } else {
                // −x_j ≤ m, i.e. x_j ≥ −m:  d ≥ −scale·m − v_j.
                let cand = -scale * i64::from(m) - clock_value(ticks, j);
                if cand > window.min || (cand == window.min && strict) {
                    window.min = cand;
                    window.min_strict = strict;
                }
            }
        }
        if window.is_empty() {
            return None;
        }
        Some(window)
    }

    /// The `waits` candidates of one segment, in rank order.
    #[inline]
    fn wait_candidates(&self, segment: usize) -> &[u32] {
        &self.wait_items
            [self.wait_offsets[segment] as usize..self.wait_offsets[segment + 1] as usize]
    }

    /// The `takes` candidates of one segment, in rank order.
    #[inline]
    fn take_candidates(&self, segment: usize) -> &[u32] {
        &self.take_items
            [self.take_offsets[segment] as usize..self.take_offsets[segment + 1] as usize]
    }

    /// Minimum rank over containing wait rules: first hit in the rank walk.
    fn wait_rank(&self, segment: usize, ticks: &[i64], scale: i64) -> Option<u32> {
        self.wait_candidates(segment)
            .iter()
            .map(|&w| self.waits[w as usize])
            .find(|&rule| self.contains(rule, ticks, scale))
            .map(|rule| rule.rank)
    }
}

/// A strategy lowered into a static per-discrete-state decision structure.
///
/// Built by [`CompiledController::compile`] (which minimizes first) or
/// [`CompiledController::from_minimized`].  Holds the minimized source
/// [`Strategy`] for serialization, equality and reporting; equality
/// compares sources (the lowered form is a deterministic function of it).
#[derive(Clone, Debug)]
pub struct CompiledController {
    source: Strategy,
    states: StateMap,
    programs: Vec<StateProgram>,
}

impl PartialEq for CompiledController {
    fn eq(&self, other: &Self) -> bool {
        self.source == other.source
    }
}

impl Eq for CompiledController {}

impl CompiledController {
    /// Minimizes a strategy and compiles the result.
    #[must_use]
    pub fn compile(strategy: &Strategy) -> Self {
        CompiledController::from_minimized(minimize_strategy(strategy))
    }

    /// Compiles a strategy that is already minimized (or that the caller
    /// wants compiled as-is — minimization is an optimization, never a
    /// semantic requirement).
    #[must_use]
    pub fn from_minimized(strategy: Strategy) -> Self {
        let dim = strategy.dim();
        let mut states = StateMap::with_capacity_and_hasher(
            strategy.state_count(),
            BuildHasherDefault::default(),
        );
        let mut programs = Vec::with_capacity(strategy.state_count());
        // Buffers reused across every rule and state; each state keeps an
        // exact-size copy of its arena and cuts.
        let mut minimal: Vec<MinimalConstraint> = Vec::new();
        let mut constants: Vec<i32> = Vec::new();
        let mut arena: Vec<CompiledConstraint> = Vec::new();
        let mut waits: Vec<(u32, &StrategyRule)> = Vec::new();
        let mut takes: Vec<(u32, &StrategyRule)> = Vec::new();
        for (discrete, rules) in strategy.iter() {
            // Sorting by (rank, extraction order) keeps the extraction order
            // within a rank, which `decide`'s first-in-order tie-break
            // depends on.
            waits.clear();
            takes.clear();
            for (order, rule) in rules.iter().enumerate() {
                match rule.decision {
                    Decision::Wait => waits.push((order as u32, rule)),
                    Decision::Take(_) => takes.push((order as u32, rule)),
                }
            }
            waits.sort_unstable_by_key(|(order, rule)| (rule.rank, *order));
            takes.sort_unstable_by_key(|(order, rule)| (rule.rank, *order));
            arena.clear();
            let mut lower = |list: &[(u32, &StrategyRule)]| -> Vec<CompiledRule> {
                list.iter()
                    .map(|(_, rule)| {
                        let lo = arena.len() as u32;
                        minimal.clear();
                        rule.zone.push_minimal_constraints(&mut minimal);
                        arena.extend(minimal.iter().filter_map(CompiledConstraint::decode));
                        CompiledRule {
                            rank: rule.rank,
                            lo,
                            hi: arena.len() as u32,
                        }
                    })
                    .collect()
            };
            let lowered_waits = lower(&waits);
            let lowered_takes = lower(&takes);
            let take_edges: Vec<JointEdge> = takes
                .iter()
                .map(|(_, rule)| match &rule.decision {
                    Decision::Take(je) => je.clone(),
                    Decision::Wait => unreachable!("takes only holds Take rules"),
                })
                .collect();
            let pivot = choose_pivot(dim, rules, &mut constants);
            let cuts = collect_cuts(pivot, rules, &mut constants);
            let (wait_offsets, wait_items) = segment_index(pivot, &cuts, &waits);
            let (take_offsets, take_items) = segment_index(pivot, &cuts, &takes);
            let program = StateProgram {
                arena: arena.clone(),
                waits: lowered_waits,
                takes: lowered_takes,
                take_edges,
                pivot,
                cuts,
                wait_offsets,
                wait_items,
                take_offsets,
                take_items,
            };
            states.insert(discrete.clone(), programs.len() as u32);
            programs.push(program);
        }
        CompiledController {
            source: strategy,
            states,
            programs,
        }
    }

    /// The minimized strategy this controller was compiled from.
    #[must_use]
    pub fn source(&self) -> &Strategy {
        &self.source
    }

    /// Number of compiled discrete states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.programs.len()
    }

    /// Number of rules in the minimized source strategy.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.source.rule_count()
    }

    fn program(&self, discrete: &DiscreteState) -> Option<&StateProgram> {
        self.states
            .get(discrete)
            .map(|&index| &self.programs[index as usize])
    }
}

impl Controller for CompiledController {
    fn dim(&self) -> usize {
        self.source.dim()
    }

    fn decide(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<StrategyDecision<'_>> {
        let program = self.program(discrete)?;
        let segment = program.segment_of(ticks, scale);
        let rank = program.wait_rank(segment, ticks, scale)?;
        for &t in program.take_candidates(segment) {
            let rule = program.takes[t as usize];
            if rule.rank > rank {
                break;
            }
            if program.contains(rule, ticks, scale) {
                return Some(StrategyDecision::Take(&program.take_edges[t as usize]));
            }
        }
        Some(StrategyDecision::Wait { rank })
    }

    fn rank_of(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<u32> {
        let program = self.program(discrete)?;
        let segment = program.segment_of(ticks, scale);
        program.wait_rank(segment, ticks, scale)
    }

    fn next_take_delay(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<i64> {
        let program = self.program(discrete)?;
        let segment = program.segment_of(ticks, scale);
        let rank = program.wait_rank(segment, ticks, scale)?;
        // Delays cross segments, so this walks the full rank-sorted take
        // program (early exit at the rank gate) rather than one segment.
        let mut best: Option<i64> = None;
        for &rule in &program.takes {
            if rule.rank > rank {
                break;
            }
            if let Some(window) = program.delay_window(rule, ticks, scale) {
                if let Some(delay) = window.pick() {
                    if best.is_none_or(|b| delay < b) {
                        best = Some(delay);
                    }
                }
            }
        }
        best
    }

    fn decide_with_wakeup(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<(StrategyDecision<'_>, Option<i64>)> {
        // One state lookup and one wait-rank walk answer both halves of the
        // step: `decide`'s take walk first, then — on a wait — the wake-up
        // scan over the same rank-gated take program `next_take_delay` uses.
        let program = self.program(discrete)?;
        let segment = program.segment_of(ticks, scale);
        let rank = program.wait_rank(segment, ticks, scale)?;
        for &t in program.take_candidates(segment) {
            let rule = program.takes[t as usize];
            if rule.rank > rank {
                break;
            }
            if program.contains(rule, ticks, scale) {
                return Some((
                    StrategyDecision::Take(&program.take_edges[t as usize]),
                    None,
                ));
            }
        }
        let mut best: Option<i64> = None;
        for &rule in &program.takes {
            if rule.rank > rank {
                break;
            }
            if let Some(window) = program.delay_window(rule, ticks, scale) {
                if let Some(delay) = window.pick() {
                    if best.is_none_or(|b| delay < b) {
                        best = Some(delay);
                    }
                }
            }
        }
        Some((StrategyDecision::Wait { rank }, best))
    }
}

/// Picks the real clock with the most distinct unary bound constants across
/// the state's rules — the most discriminating axis for the interval index.
/// `constants` is a scratch buffer.
fn choose_pivot(dim: usize, rules: &[StrategyRule], constants: &mut Vec<i32>) -> usize {
    if dim <= 1 {
        return 0;
    }
    (1..dim)
        .max_by_key(|&clock| {
            constants.clear();
            for rule in rules {
                for bound in [rule.zone.at(clock, 0), rule.zone.at(0, clock)] {
                    if let Some(m) = bound.constant() {
                        constants.push(m);
                    }
                }
            }
            constants.sort_unstable();
            constants.dedup();
            constants.len()
        })
        .unwrap_or(0)
}

/// The sorted distinct segment boundaries: every unary pivot-bound constant
/// (upper bounds as-is, lower bounds negated into value space).  They are
/// collected in the scratch buffer `cuts`.
fn collect_cuts(pivot: usize, rules: &[StrategyRule], cuts: &mut Vec<i32>) -> Vec<i32> {
    cuts.clear();
    if pivot != 0 {
        for rule in rules {
            if let Some(m) = rule.zone.at(pivot, 0).constant() {
                cuts.push(m);
            }
            if let Some(m) = rule.zone.at(0, pivot).constant() {
                cuts.push(-m);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
    }
    cuts.clone()
}

/// The segment index of a rank-sorted rule list in CSR form (offsets +
/// items): segment `s` lists, in rule order, the indices of the rules whose
/// closed pivot window intersects the closed segment range.  The
/// assignment is conservative — candidates still pass the full containment
/// check — so boundary overlaps are harmless.
fn segment_index(
    pivot: usize,
    cuts: &[i32],
    rules: &[(u32, &StrategyRule)],
) -> (Vec<u32>, Vec<u32>) {
    // First segment whose closed range reaches the rule's lower pivot
    // bound, last one that starts at or below its upper bound.
    let span = |rule: &StrategyRule| {
        if pivot == 0 {
            return (0, cuts.len());
        }
        let first = match rule.zone.at(0, pivot).constant() {
            None => 0,
            Some(m) => cuts.partition_point(|&c| c < -m),
        };
        let last = match rule.zone.at(pivot, 0).constant() {
            None => cuts.len(),
            Some(hi) => cuts.partition_point(|&c| c <= hi),
        };
        (first, last)
    };
    // Segment `s`'s count goes to `offsets[s + 2]`; after the prefix sum,
    // `offsets[s + 1]` is the segment's start and serves as its fill
    // cursor, which leaves it at the segment's end — the next one's start.
    let mut offsets = vec![0u32; cuts.len() + 3];
    for (_, rule) in rules {
        let (first, last) = span(rule);
        for count in &mut offsets[first + 2..=last + 2] {
            *count += 1;
        }
    }
    for s in 2..offsets.len() {
        offsets[s] += offsets[s - 1];
    }
    let mut items = vec![0u32; offsets[offsets.len() - 1] as usize];
    for (index, (_, rule)) in rules.iter().enumerate() {
        let (first, last) = span(rule);
        for cursor in &mut offsets[first + 1..=last + 1] {
            items[*cursor as usize] = index as u32;
            *cursor += 1;
        }
    }
    offsets.pop();
    (offsets, items)
}

/// Prints a compiled controller in the versioned `tiga-controller v1`
/// format: the same body shape as [`crate::print_strategy`] (the minimized
/// source strategy, states sorted, canonical zones), under the controller
/// header.  Byte-stable and exact-inverse with [`parse_controller`].
#[must_use]
pub fn print_controller(
    model: &str,
    winning: bool,
    controller: Option<&CompiledController>,
) -> String {
    print_controller_source(model, winning, controller.map(CompiledController::source))
}

/// Prints a minimized strategy in the `tiga-controller v1` format without
/// compiling it: the bytes [`print_controller`] writes for
/// `CompiledController::from_minimized(minimized)`, for callers that only
/// print the controller.
#[must_use]
pub fn print_controller_source(model: &str, winning: bool, minimized: Option<&Strategy>) -> String {
    print_with_header(CONTROLLER_FORMAT_HEADER, model, winning, minimized)
}

/// A parsed controller file: the verdict plus the recompiled controller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControllerFile {
    /// Name of the system the controller was compiled for.
    pub model: String,
    /// Whether the initial state is winning.
    pub winning: bool,
    /// The controller, when one was emitted.
    pub controller: Option<CompiledController>,
}

/// Parses a `tiga-controller v1` file and recompiles the decision
/// structure.  `parse_controller(print_controller(c)) ≡ c`, and the printer
/// is a fixpoint.
///
/// # Errors
///
/// Returns a `line N: ...` message on the first malformed line.
pub fn parse_controller(text: &str) -> Result<ControllerFile, String> {
    let StrategyFile {
        model,
        winning,
        strategy,
    } = parse_with_header(CONTROLLER_FORMAT_HEADER, text)?;
    Ok(ControllerFile {
        model,
        winning,
        controller: strategy.map(CompiledController::from_minimized),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyRule;
    use tiga_dbm::{Bound, Dbm};
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
        z.constrain(1, 0, Bound::le(hi));
        z
    }

    fn sample_strategy() -> (tiga_model::System, DiscreteState, Strategy) {
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
                zone: zone_between(4, 5),
                decision: Decision::Wait,
            },
        );
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 2,
                zone: zone_between(2, 5),
                decision: Decision::Take(je.clone()),
            },
        );
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(4, 5),
                decision: Decision::Take(je),
            },
        );
        (sys, d, strat)
    }

    #[test]
    fn compiled_controller_matches_the_interpreter_pointwise() {
        let (_sys, d, strat) = sample_strategy();
        let compiled = CompiledController::compile(&strat);
        for ticks in 0..=30_i64 {
            assert_eq!(
                Controller::decide(&compiled, &d, &[ticks], 4),
                Strategy::decide(&strat, &d, &[ticks], 4),
                "decide at ticks {ticks}"
            );
            assert_eq!(
                Controller::rank_of(&compiled, &d, &[ticks], 4),
                Strategy::rank_of(&strat, &d, &[ticks], 4),
                "rank_of at ticks {ticks}"
            );
            assert_eq!(
                Controller::next_take_delay(&compiled, &d, &[ticks], 4),
                Strategy::next_take_delay(&strat, &d, &[ticks], 4),
                "next_take_delay at ticks {ticks}"
            );
        }
        // Uncovered discrete states answer None everywhere.
        let mut other = d.clone();
        other.locations[0] = tiga_model::LocationId::from_index(1);
        assert_eq!(Controller::decide(&compiled, &other, &[0], 4), None);
        assert_eq!(Controller::rank_of(&compiled, &other, &[0], 4), None);
        assert_eq!(
            Controller::next_take_delay(&compiled, &other, &[0], 4),
            None
        );
    }

    #[test]
    fn controller_files_roundtrip_exactly() {
        let (_sys, _d, strat) = sample_strategy();
        let compiled = CompiledController::compile(&strat);
        let text = print_controller("tiny", true, Some(&compiled));
        assert!(text.starts_with("tiga-controller v1\n"), "{text}");
        let file = parse_controller(&text).unwrap();
        assert_eq!(file.model, "tiny");
        assert!(file.winning);
        assert_eq!(file.controller.as_ref(), Some(&compiled));
        // Printer fixpoint.
        let again = print_controller("tiny", true, file.controller.as_ref());
        assert_eq!(again, text);
        // Verdict-only files roundtrip too.
        let none = print_controller("loser", false, None);
        let file = parse_controller(&none).unwrap();
        assert!(!file.winning);
        assert!(file.controller.is_none());
        // A strategy header is rejected.
        let wrong = crate::print_strategy("tiny", true, Some(compiled.source()));
        assert!(parse_controller(&wrong).unwrap_err().contains("line 1"));
    }

    #[test]
    fn a_minimized_strategy_prints_as_its_compiled_controller() {
        let (_sys, _d, strat) = sample_strategy();
        let minimized = minimize_strategy(&strat);
        let compiled = CompiledController::from_minimized(minimized.clone());
        assert_eq!(
            print_controller_source("tiny", true, Some(&minimized)),
            print_controller("tiny", true, Some(&compiled))
        );
        // One program per strategy state.
        assert_eq!(compiled.state_count(), minimized.state_count());
        assert_eq!(compiled.rule_count(), minimized.rule_count());
        assert_eq!(
            print_controller_source("loser", false, None),
            print_controller("loser", false, None)
        );
    }

    #[test]
    fn compiling_is_idempotent_on_minimized_strategies() {
        let (_sys, _d, strat) = sample_strategy();
        let compiled = CompiledController::compile(&strat);
        let again = CompiledController::compile(compiled.source());
        assert_eq!(compiled, again);
        assert!(compiled.rule_count() <= strat.rule_count());
        assert_eq!(compiled.state_count(), 1);
    }
}
