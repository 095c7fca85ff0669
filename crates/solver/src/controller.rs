//! The `Controller` abstraction and compiled microsecond controllers.
//!
//! Online test execution asks one question per step: *what should I do,
//! and until when does a wait hold* ([`Controller::decide_with_wakeup`]).
//! The interpreted [`Strategy`] answers it by scanning every rule of the
//! discrete state and testing full `dim²` bound matrices.
//!
//! [`CompiledController`] lowers a [minimized](crate::minimize) strategy
//! into a static per-discrete-state decision structure sized for that
//! query's real traffic: the rule lists are short (the largest checked-in
//! controller, `lep4.tp4`, holds 6 rules per list), so each query walks its
//! state's rules directly.
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
//! * queries never allocate: the reference clock is handled positionally
//!   instead of materializing the `dbm_point` vector;
//! * states that share a rule list (one [`Strategy`] block) share one
//!   compiled program: the state map points each state at its block's
//!   program, so compilation runs once per distinct list.
//!
//! [`Controller::rank_of`] and [`Controller::next_take_delay`], which no
//! front end asks per step, are answered by the source strategy the
//! controller was compiled from.
//!
//! Every answer is pinned identical to the interpreted strategy by the
//! differential suites (`crates/bench/tests/controller_differential.rs`,
//! `crates/gen/tests/minimize_props.rs`).

use crate::minimize::minimize_strategy;
use crate::serialize::{
    parse_with_header, print_with_header, StrategyFile, CONTROLLER_FORMAT_HEADER,
};
use crate::strategy::{dbm_point, Decision, Strategy, StrategyDecision, StrategyRule};
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
    /// decision, plus — when the decision is to wait — its *wake-up*: the
    /// first delay `W > 0`, in ticks, after which
    /// [`decide`](Controller::decide) no longer answers `Wait` (a take is
    /// due, or the valuation leaves the strategy), or `None` if the answer
    /// stays `Wait` along the whole delay ray.  `decide` answers `Wait` at
    /// every delay in `[0, W)`, so the executor waits once, by `W` at most.
    ///
    /// The wake-up is a property of `decide` alone, so every representation
    /// of one strategy returns the same one; [`Strategy`] and
    /// [`CompiledController`] both compute it with one walk over their
    /// rules' containment changes.
    fn decide_with_wakeup(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<(StrategyDecision<'_>, Option<i64>)>;
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

    fn decide_with_wakeup(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<(StrategyDecision<'_>, Option<i64>)> {
        let decision = Strategy::decide(self, discrete, ticks, scale)?;
        if !matches!(decision, StrategyDecision::Wait { .. }) {
            return Some((decision, None));
        }
        let rules = self.rules_for(discrete)?;
        let vals = dbm_point(ticks);
        let wakeup = wakeup(|| {
            rules.iter().map(|rule| {
                let take = matches!(rule.decision, Decision::Take(_));
                (rule.rank, take, rule.zone.delay_window_at(&vals, scale))
            })
        });
        Some((decision, wakeup))
    }
}

/// The wake-up of a `Wait` answer (see [`Controller::decide_with_wakeup`]),
/// from the queried state's rules as `(rank, takes, window)`: each rule's
/// rank, whether it is a take rule, and its [`DelayWindow`] from the queried
/// valuation (`None` if no delay enters its zone).
///
/// A rule contains the valuation delayed by `d` exactly when its window
/// admits `d`, so `decide`'s answer can only change where a window starts
/// or stops admitting.  The walk visits those points in increasing order
/// and re-decides at each from the windows alone: the answer is `Wait`
/// while some wait rule contains the point and no take rule of at most the
/// least such rank does.  `rules` is called once per visited point.
fn wakeup<I>(rules: impl Fn() -> I) -> Option<i64>
where
    I: Iterator<Item = (u32, bool, Option<DelayWindow>)>,
{
    let mut at = 0;
    loop {
        let mut next: Option<i64> = None;
        let (mut wait_rank, mut take_rank) = (None, None);
        for (rank, take, window) in rules() {
            let Some(window) = window else { continue };
            if window.admits(at) {
                let least = if take { &mut take_rank } else { &mut wait_rank };
                if least.is_none_or(|r| rank < r) {
                    *least = Some(rank);
                }
            }
            // Integer delays inside a window with a strict end stop one
            // tick short of it.
            let enter = window.min + i64::from(window.min_strict);
            let leave = window.max.map(|max| max + i64::from(!window.max_strict));
            for change in [Some(enter), leave].into_iter().flatten() {
                if change > at && next.is_none_or(|n| change < n) {
                    next = Some(change);
                }
            }
        }
        let waits = wait_rank.is_some_and(|w| take_rank.is_none_or(|t| t > w));
        if at > 0 && !waits {
            return Some(at);
        }
        at = next?;
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
}

impl StateProgram {
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

    /// The decision at a valuation: the first containing take rule in rank
    /// order whose rank is at most the wait rank, and otherwise `Wait`.
    fn decide(&self, ticks: &[i64], scale: i64) -> Option<StrategyDecision<'_>> {
        let rank = self.wait_rank(ticks, scale)?;
        for (&rule, edge) in self.takes.iter().zip(&self.take_edges) {
            if rule.rank > rank {
                break;
            }
            if self.contains(rule, ticks, scale) {
                return Some(StrategyDecision::Take(edge));
            }
        }
        Some(StrategyDecision::Wait { rank })
    }

    /// Minimum rank over containing wait rules: first hit in the rank walk.
    fn wait_rank(&self, ticks: &[i64], scale: i64) -> Option<u32> {
        self.waits
            .iter()
            .find(|&&rule| self.contains(rule, ticks, scale))
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
    /// semantic requirement).  One program is built per distinct rule list.
    #[must_use]
    pub fn from_minimized(strategy: Strategy) -> Self {
        let mut states = StateMap::with_capacity_and_hasher(
            strategy.state_count(),
            BuildHasherDefault::default(),
        );
        let mut programs = Vec::new();
        // Source block -> its program: states that share a rule list share
        // one compiled program.
        let mut compiled: Vec<Option<u32>> = vec![None; strategy.block_slots()];
        // Buffers reused across every rule and block; each program keeps an
        // exact-size copy of its arena.
        let mut minimal: Vec<MinimalConstraint> = Vec::new();
        let mut arena: Vec<CompiledConstraint> = Vec::new();
        let mut waits: Vec<(u32, &StrategyRule)> = Vec::new();
        let mut takes: Vec<(u32, &StrategyRule)> = Vec::new();
        for (discrete, block) in strategy.state_blocks() {
            let program = *compiled[block as usize].get_or_insert_with(|| {
                let rules = strategy.block(block);
                // Sorting by (rank, extraction order) keeps the extraction
                // order within a rank, which `decide`'s first-in-order
                // tie-break depends on.
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
                programs.push(StateProgram {
                    arena: arena.clone(),
                    waits: lowered_waits,
                    takes: lowered_takes,
                    take_edges,
                });
                (programs.len() - 1) as u32
            });
            states.insert(discrete.clone(), program);
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

    /// Number of compiled discrete states (states that share a rule list
    /// share one program, so there may be fewer programs).
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
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
        self.program(discrete)?.decide(ticks, scale)
    }

    fn rank_of(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<u32> {
        self.source.rank_of(discrete, ticks, scale)
    }

    fn next_take_delay(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<i64> {
        self.source.next_take_delay(discrete, ticks, scale)
    }

    fn decide_with_wakeup(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<(StrategyDecision<'_>, Option<i64>)> {
        let program = self.program(discrete)?;
        let decision = program.decide(ticks, scale)?;
        if !matches!(decision, StrategyDecision::Wait { .. }) {
            return Some((decision, None));
        }
        let wakeup = wakeup(|| {
            let waits = program.waits.iter().map(|rule| (rule, false));
            let takes = program.takes.iter().map(|rule| (rule, true));
            waits
                .chain(takes)
                .map(|(&rule, take)| (rule.rank, take, program.delay_window(rule, ticks, scale)))
        });
        Some((decision, wakeup))
    }
}

/// Prints a compiled controller in the versioned `tiga-controller v2`
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

/// Prints a minimized strategy in the `tiga-controller v2` format without
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

/// Parses a `tiga-controller v2` file and recompiles the decision
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
            assert_eq!(
                Controller::decide_with_wakeup(&compiled, &d, &[ticks], 4),
                Controller::decide_with_wakeup(&strat, &d, &[ticks], 4),
                "decide_with_wakeup at ticks {ticks}"
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
        assert_eq!(
            Controller::decide_with_wakeup(&compiled, &other, &[0], 4),
            None
        );
    }

    #[test]
    fn controller_files_roundtrip_exactly() {
        let (_sys, _d, strat) = sample_strategy();
        let compiled = CompiledController::compile(&strat);
        let text = print_controller("tiny", true, Some(&compiled));
        assert!(text.starts_with("tiga-controller v2\n"), "{text}");
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
