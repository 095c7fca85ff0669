//! State-based winning strategies.
//!
//! A strategy maps (discrete state, clock valuation) pairs to a decision:
//! either *take* a specific controllable joint edge now, or *wait* (the `λ`
//! move of the paper).  Strategies are extracted from the rank-annotated
//! winning sets computed by the backward fixpoint and are guaranteed to make
//! progress toward the goal: every prescribed action leads into a
//! strictly-lower-rank part of the winning set, and every prescribed wait is
//! justified by an eventual action, a rank decrease by pure delay, or an
//! opponent move forced by an invariant.
//!
//! # What a strategy stores
//!
//! Many discrete states carry the very same rule list: lep4.tp4's 2 387
//! strategy states have 73 distinct lists, lep5 tp4's 35 154 have 111.  A
//! [`Strategy`] therefore keeps each distinct list once, as a *block*, and
//! maps every state to a block index (the compact-storage idea of Larsen,
//! Larsson, Pettersson and Yi, RTSS 1997).  Producers intern a state's
//! finished list; minimization, controller compilation and printing work
//! once per block and relabel the states.  Blocks are indexed by a randomly
//! keyed `SipHash` of their contents, because strategies are built from the
//! models untrusted `tiga serve` clients send.  Block numbering is never
//! observable: equality, iteration and `rule_count` are per state, and the
//! text format numbers the lists in its own sorted state order.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault};
use tiga_dbm::{Dbm, StateHasher};
use tiga_model::{DiscreteState, JointEdge, System};

/// What the tester should do in a region of a discrete state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Immediately take this controllable joint edge (send the input).
    Take(JointEdge),
    /// Wait (`λ`): let time pass or let the plant produce an output.
    Wait,
}

/// One rule of a state-based strategy: inside `zone`, the given decision is
/// sound and leads toward the goal.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StrategyRule {
    /// Fixpoint round at which this region was justified (lower is closer to
    /// the goal).
    pub rank: u32,
    /// Clock zone in which the rule applies.
    pub zone: Dbm,
    /// The prescribed decision.
    pub decision: Decision,
}

/// The decision returned by [`Strategy::decide`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrategyDecision<'a> {
    /// Send the input corresponding to this controllable joint edge now.
    Take(&'a JointEdge),
    /// Wait; the current state's rank is reported for diagnostics.
    Wait {
        /// Rank of the waiting region (distance-to-goal measure).
        rank: u32,
    },
}

/// The distinct rule lists of a strategy, indexed by their contents.
///
/// Blocks are only ever appended: a state whose list grows points at the
/// longer list, and the block it leaves stays stored even if no state uses
/// it any more.  Consumers visit blocks through the states, so such a block
/// costs memory only.
#[derive(Clone, Default)]
struct Blocks {
    lists: Vec<Vec<StrategyRule>>,
    /// The randomly keyed `SipHash` of a list -> its block.  A list whose
    /// hash is taken by a different list is indexed under the next free
    /// value; nothing is ever removed, so lookups probe the same sequence.
    index: HashMap<u64, u32, BuildHasherDefault<StateHasher>>,
    hasher: RandomState,
}

impl Blocks {
    /// Returns the block holding `rules`, copying a borrowed list only when
    /// no block holds it yet.
    fn intern(&mut self, rules: Cow<'_, [StrategyRule]>) -> u32 {
        let mut key = self.hasher.hash_one(&*rules);
        loop {
            match self.index.entry(key) {
                Entry::Occupied(entry) if self.lists[*entry.get() as usize] == *rules => {
                    return *entry.get();
                }
                Entry::Occupied(_) => key = key.wrapping_add(1),
                Entry::Vacant(entry) => {
                    let block = self.lists.len() as u32;
                    self.lists.push(rules.into_owned());
                    entry.insert(block);
                    return block;
                }
            }
        }
    }
}

/// A state-based winning strategy (the paper's Definition 6, restricted to
/// the winning states).
///
/// Each distinct rule list is stored once as a block that every state with
/// that list shares (a state then holds only the block's index).
///
/// Equality is structural — same dimension, same states, same rules in the
/// same order per state — which is what the serialization roundtrip
/// (`parse_strategy(print_strategy(s)) == s`) pins; how the lists are
/// shared does not enter it.
#[derive(Clone, Default)]
pub struct Strategy {
    dim: usize,
    /// Discrete state -> index into `blocks`.
    states: HashMap<DiscreteState, u32>,
    blocks: Blocks,
}

impl Strategy {
    /// Creates an empty strategy over clock dimension `dim`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Strategy {
            dim,
            ..Strategy::default()
        }
    }

    /// An empty strategy with room for `states` discrete states, so a
    /// builder that knows its state count never rehashes.
    pub(crate) fn with_capacity(dim: usize, states: usize) -> Self {
        Strategy {
            dim,
            states: HashMap::with_capacity(states),
            ..Strategy::default()
        }
    }

    /// DBM dimension of the rule zones.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds a rule for a discrete state.  The state moves to the block of
    /// its longer list, so the states that shared its old block keep their
    /// rules; the old block stays stored.  Build a state's list first and
    /// add it with [`Strategy::add_rules`] to store only the finished list.
    pub fn add_rule(&mut self, discrete: DiscreteState, rule: StrategyRule) {
        if rule.zone.is_empty() {
            return;
        }
        self.append(discrete, Cow::Owned(vec![rule]));
    }

    /// Appends a discrete state's rules in order: a state without rules yet
    /// gets the list interned as its block.  Rules with empty zones are
    /// skipped, as in [`Strategy::add_rule`].
    pub fn add_rules(&mut self, discrete: DiscreteState, mut rules: Vec<StrategyRule>) {
        rules.retain(|rule| !rule.zone.is_empty());
        if !rules.is_empty() {
            self.append(discrete, Cow::Owned(rules));
        }
    }

    /// [`Strategy::add_rules`] from a borrowed list, which is copied only
    /// when no block holds it yet: producers build each state's list in one
    /// reused buffer.
    pub(crate) fn add_rules_from(&mut self, discrete: DiscreteState, rules: &[StrategyRule]) {
        if rules.iter().any(|rule| rule.zone.is_empty()) {
            self.add_rules(discrete, rules.to_vec());
        } else if !rules.is_empty() {
            self.append(discrete, Cow::Borrowed(rules));
        }
    }

    /// Appends a non-empty list without empty zones to a state's rules.
    fn append(&mut self, discrete: DiscreteState, rules: Cow<'_, [StrategyRule]>) {
        let blocks = &mut self.blocks;
        match self.states.entry(discrete) {
            Entry::Vacant(entry) => {
                entry.insert(blocks.intern(rules));
            }
            Entry::Occupied(mut entry) => {
                let mut joined = blocks.lists[*entry.get() as usize].clone();
                joined.extend_from_slice(&rules);
                entry.insert(blocks.intern(Cow::Owned(joined)));
            }
        }
    }

    /// Interns a finished rule list (non-empty, no empty zones) and returns
    /// its block; the list becomes a state's rules through
    /// [`Strategy::insert_state`].
    pub(crate) fn intern_block(&mut self, rules: Vec<StrategyRule>) -> u32 {
        debug_assert!(!rules.is_empty() && rules.iter().all(|r| !r.zone.is_empty()));
        self.blocks.intern(Cow::Owned(rules))
    }

    /// Points a state that has no rules yet at an interned block.
    pub(crate) fn insert_state(&mut self, discrete: DiscreteState, block: u32) {
        let previous = self.states.insert(discrete, block);
        debug_assert!(previous.is_none(), "the state already had rules");
    }

    /// Every state with its block index.  Indices are below
    /// [`Strategy::block_slots`], so consumers memoize per block in a
    /// vector of that length.
    pub(crate) fn state_blocks(&self) -> impl Iterator<Item = (&DiscreteState, u32)> {
        self.states
            .iter()
            .map(|(discrete, &block)| (discrete, block))
    }

    /// The rules of a block.
    pub(crate) fn block(&self, block: u32) -> &[StrategyRule] {
        &self.blocks.lists[block as usize]
    }

    /// One past the largest block index.
    pub(crate) fn block_slots(&self) -> usize {
        self.blocks.lists.len()
    }

    /// Number of discrete states with at least one rule.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Total number of rules, summed over the states (a list that several
    /// states share counts once per state).
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.state_blocks()
            .map(|(_, block)| self.block(block).len())
            .sum()
    }

    /// The rules attached to a discrete state, if any.
    #[must_use]
    pub fn rules_for(&self, discrete: &DiscreteState) -> Option<&[StrategyRule]> {
        self.states.get(discrete).map(|&block| self.block(block))
    }

    /// Iterates over all (state, rules) entries.
    pub fn iter(&self) -> impl Iterator<Item = (&DiscreteState, &[StrategyRule])> {
        self.state_blocks()
            .map(|(discrete, block)| (discrete, self.block(block)))
    }

    /// The rank of a concrete valuation: the smallest rank of a *wait/region*
    /// rule containing it, i.e. its distance-to-goal measure.
    ///
    /// Returns `None` if the valuation is not covered (not a winning state).
    #[must_use]
    pub fn rank_of(&self, discrete: &DiscreteState, ticks: &[i64], scale: i64) -> Option<u32> {
        let rules = self.rules_for(discrete)?;
        let vals = dbm_point(ticks);
        rules
            .iter()
            .filter(|r| matches!(r.decision, Decision::Wait) && r.zone.contains_at(&vals, scale))
            .map(|r| r.rank)
            .min()
    }

    /// Decides what the tester should do at a concrete state.
    ///
    /// Returns `None` if the state is not covered by the strategy (e.g. the
    /// run has left the winning region, which cannot happen against a
    /// conformant implementation).
    #[must_use]
    pub fn decide(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<StrategyDecision<'_>> {
        let rules = self.rules_for(discrete)?;
        let vals = dbm_point(ticks);
        // Single pass: track the wait rank (min over containing Wait rules)
        // and the best containing Take rule (min rank, first-in-order wins
        // ties) simultaneously.  The rank gate `take.rank <= wait rank` is
        // applied at the end: the minimum over the gated subset equals the
        // global minimum whenever the gate admits it, and the gate rejecting
        // the global minimum rejects the whole subset.
        let mut wait_rank: Option<u32> = None;
        let mut best: Option<&StrategyRule> = None;
        for rule in rules {
            match rule.decision {
                Decision::Wait => {
                    if wait_rank.is_none_or(|r| rule.rank < r)
                        && rule.zone.contains_at(&vals, scale)
                    {
                        wait_rank = Some(rule.rank);
                    }
                }
                Decision::Take(_) => {
                    if best.is_none_or(|b| rule.rank < b.rank)
                        && rule.zone.contains_at(&vals, scale)
                    {
                        best = Some(rule);
                    }
                }
            }
        }
        // Rank 0 regions are goal states; nothing to do (the executor detects
        // the goal through the test purpose), report Wait.
        let rank = wait_rank?;
        match best {
            Some(rule) if rule.rank <= rank => match &rule.decision {
                Decision::Take(je) => Some(StrategyDecision::Take(je)),
                Decision::Wait => unreachable!("best only holds Take rules"),
            },
            _ => Some(StrategyDecision::Wait { rank }),
        }
    }

    /// The earliest additional delay (in ticks) after which a `Take` rule
    /// becomes applicable by pure delay, if any.
    ///
    /// The executor uses this as a wake-up hint while waiting; it re-evaluates
    /// [`Strategy::decide`] at that moment.
    ///
    /// Only `Take` rules that pass the same rank gate as [`Strategy::decide`]
    /// (rule rank at most the current wait rank) contribute: waking up for a
    /// higher-rank action that `decide` would then refuse to take is a
    /// spurious wakeup.
    #[must_use]
    pub fn next_take_delay(
        &self,
        discrete: &DiscreteState,
        ticks: &[i64],
        scale: i64,
    ) -> Option<i64> {
        let rules = self.rules_for(discrete)?;
        let rank = self.rank_of(discrete, ticks, scale)?;
        let vals = dbm_point(ticks);
        let mut best: Option<i64> = None;
        for rule in rules {
            if !matches!(rule.decision, Decision::Take(_)) || rule.rank > rank {
                continue;
            }
            if let Some(window) = rule.zone.delay_window_at(&vals, scale) {
                if let Some(delay) = window.pick() {
                    if best.is_none_or(|b| delay < b) {
                        best = Some(delay);
                    }
                }
            }
        }
        best
    }

    /// Renders the strategy in the style of the paper's Fig. 5.
    #[must_use]
    pub fn display<'a>(&'a self, system: &'a System) -> DisplayStrategy<'a> {
        DisplayStrategy {
            strategy: self,
            system,
        }
    }
}

impl PartialEq for Strategy {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.states.len() == other.states.len()
            && self
                .iter()
                .all(|(discrete, rules)| other.rules_for(discrete) == Some(rules))
    }
}

impl Eq for Strategy {}

impl fmt::Debug for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a Strategy);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Strategy")
            .field("dim", &self.dim)
            .field("entries", &Entries(self))
            .finish()
    }
}

/// Converts tick-valued clocks to the DBM point layout (reference clock 0
/// prepended).
pub(crate) fn dbm_point(ticks: &[i64]) -> Vec<i64> {
    let mut vals = Vec::with_capacity(ticks.len() + 1);
    vals.push(0);
    vals.extend_from_slice(ticks);
    vals
}

/// Helper returned by [`Strategy::display`]; prints a Fig.-5-style listing.
pub struct DisplayStrategy<'a> {
    strategy: &'a Strategy,
    system: &'a System,
}

impl fmt::Display for DisplayStrategy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = self.system.clock_names();
        // Sort states for a stable, readable listing.
        let mut states: Vec<(&DiscreteState, &[StrategyRule])> = self.strategy.iter().collect();
        states.sort_by_key(|(d, _)| format!("{}", d.display(self.system)));
        for (discrete, rules) in states {
            writeln!(f, "State: ( {} )", discrete.display(self.system))?;
            let mut rules = rules.to_vec();
            rules.sort_by_key(|r| (r.rank, matches!(r.decision, Decision::Wait)));
            for rule in &rules {
                match &rule.decision {
                    Decision::Wait => writeln!(
                        f,
                        "  While you are in ({}), wait.",
                        rule.zone.display_with(&names)
                    )?,
                    Decision::Take(je) => writeln!(
                        f,
                        "  When you are in ({}), take transition {}.",
                        rule.zone.display_with(&names),
                        je.label(self.system)
                    )?,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_dbm::Bound;
    use tiga_model::{AutomatonBuilder, EdgeBuilder, SystemBuilder};

    fn tiny_system() -> (System, DiscreteState, JointEdge) {
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

    #[test]
    fn decide_prefers_low_rank_take_within_rank() {
        let (sys, d, je) = tiny_system();
        let mut strat = Strategy::new(sys.dim());
        // Whole space is a rank-2 wait region; action applies for x in [2, 5]
        // at rank 2, and a closer action for x in [4, 5] at rank 1.
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
                decision: Decision::Take(je.clone()),
            },
        );
        // x = 0: no take applicable yet -> wait at rank 2.
        assert_eq!(
            strat.decide(&d, &[0], 4),
            Some(StrategyDecision::Wait { rank: 2 })
        );
        // x = 3: the rank-2 take applies.
        assert!(matches!(
            strat.decide(&d, &[12], 4),
            Some(StrategyDecision::Take(_))
        ));
        // x = 4.5: both takes apply; the lower-rank one is still a Take.
        assert!(matches!(
            strat.decide(&d, &[18], 4),
            Some(StrategyDecision::Take(_))
        ));
        // Rank query follows the wait regions.
        assert_eq!(strat.rank_of(&d, &[0], 4), Some(2));
        // Unknown discrete state is uncovered.
        let mut other = d.clone();
        other.locations[0] = tiga_model::LocationId::from_index(1);
        assert_eq!(strat.decide(&other, &[0], 4), None);
    }

    #[test]
    fn higher_rank_take_is_not_used_from_lower_rank_region() {
        let (sys, d, je) = tiny_system();
        let mut strat = Strategy::new(sys.dim());
        // Rank-1 wait region covering everything...
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: Dbm::universe(2),
                decision: Decision::Wait,
            },
        );
        // ...and a rank-3 action: taking it would move *away* from the goal.
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 3,
                zone: Dbm::universe(2),
                decision: Decision::Take(je),
            },
        );
        assert_eq!(
            strat.decide(&d, &[0], 4),
            Some(StrategyDecision::Wait { rank: 1 })
        );
    }

    #[test]
    fn next_take_delay_finds_entry_point() {
        let (sys, d, je) = tiny_system();
        let mut strat = Strategy::new(sys.dim());
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: Dbm::universe(2),
                decision: Decision::Wait,
            },
        );
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(3, 6),
                decision: Decision::Take(je),
            },
        );
        // From x = 1 at scale 4, the action region starts after 8 ticks.
        assert_eq!(strat.next_take_delay(&d, &[4], 4), Some(8));
        // From x = 7 the region is behind: no entry by delay.
        assert_eq!(strat.next_take_delay(&d, &[28], 4), None);
    }

    #[test]
    fn next_take_delay_ignores_takes_above_the_wait_rank() {
        let (sys, d, je) = tiny_system();
        let mut strat = Strategy::new(sys.dim());
        // Rank-1 wait region covering everything...
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: Dbm::universe(2),
                decision: Decision::Wait,
            },
        );
        // ...and a rank-3 action ahead by delay.  `decide` would refuse it
        // (rank 3 > wait rank 1), so waking up for it is spurious.
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 3,
                zone: zone_between(3, 6),
                decision: Decision::Take(je.clone()),
            },
        );
        assert_eq!(strat.next_take_delay(&d, &[4], 4), None);
        // A rank-1 action further out is admissible and wins the hint.
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(5, 6),
                decision: Decision::Take(je),
            },
        );
        assert_eq!(strat.next_take_delay(&d, &[4], 4), Some(16));
        // An uncovered valuation yields no hint at all.
        let mut other = d.clone();
        other.locations[0] = tiga_model::LocationId::from_index(1);
        assert_eq!(strat.next_take_delay(&other, &[4], 4), None);
    }

    #[test]
    fn display_lists_rules_in_fig5_style() {
        let (sys, d, je) = tiny_system();
        let mut strat = Strategy::new(sys.dim());
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(0, 2),
                decision: Decision::Wait,
            },
        );
        strat.add_rule(
            d,
            StrategyRule {
                rank: 1,
                zone: zone_between(2, 4),
                decision: Decision::Take(je),
            },
        );
        let text = format!("{}", strat.display(&sys));
        assert!(text.contains("State: ( P.L0, U.U0 )"), "{text}");
        assert!(text.contains("wait."), "{text}");
        assert!(text.contains("take transition go?"), "{text}");
        assert_eq!(strat.state_count(), 1);
        assert_eq!(strat.rule_count(), 2);
    }

    #[test]
    fn add_rules_appends_in_order_and_skips_empty_zones() {
        let (sys, d, je) = tiny_system();
        let mut empty = Dbm::universe(2);
        empty.constrain(1, 0, Bound::lt(0));
        let rule = |rank: u32, zone: Dbm, decision: Decision| StrategyRule {
            rank,
            zone,
            decision,
        };
        let mut batched = Strategy::new(sys.dim());
        batched.add_rules(
            d.clone(),
            vec![
                rule(2, Dbm::universe(2), Decision::Wait),
                rule(1, empty.clone(), Decision::Wait),
            ],
        );
        batched.add_rules(
            d.clone(),
            vec![rule(1, zone_between(2, 5), Decision::Take(je.clone()))],
        );
        batched.add_rules(d.clone(), vec![rule(3, empty.clone(), Decision::Wait)]);
        let mut other = d.clone();
        other.locations[0] = tiga_model::LocationId::from_index(1);
        batched.add_rules(other.clone(), vec![rule(1, empty, Decision::Wait)]);
        batched.add_rules(other, Vec::new());
        // The same as adding the non-empty rules one by one.
        let mut single = Strategy::new(sys.dim());
        single.add_rule(d.clone(), rule(2, Dbm::universe(2), Decision::Wait));
        single.add_rule(d, rule(1, zone_between(2, 5), Decision::Take(je)));
        assert_eq!(batched, single);
        assert_eq!(batched.state_count(), 1);
        assert_eq!(batched.rule_count(), 2);
    }

    fn state(location: usize) -> DiscreteState {
        DiscreteState {
            locations: vec![tiga_model::LocationId::from_index(location)],
            vars: Vec::new(),
        }
    }

    fn wait(rank: u32, lo: i32, hi: i32) -> StrategyRule {
        StrategyRule {
            rank,
            zone: zone_between(lo, hi),
            decision: Decision::Wait,
        }
    }

    #[test]
    fn equal_lists_share_one_block() {
        let mut strat = Strategy::new(2);
        let list = vec![wait(1, 0, 3), wait(2, 3, 5)];
        for location in 0..4 {
            strat.add_rules(state(location), list.clone());
        }
        strat.add_rules_from(state(4), &list);
        strat.add_rules(state(5), vec![wait(1, 0, 3)]);
        let blocks: std::collections::HashSet<u32> =
            strat.state_blocks().map(|(_, block)| block).collect();
        assert_eq!(blocks.len(), 2);
        assert_eq!(strat.block_slots(), 2);
        assert_eq!(strat.state_count(), 6);
        assert_eq!(strat.rule_count(), 5 * 2 + 1);
        for location in 0..5 {
            assert_eq!(strat.rules_for(&state(location)), Some(list.as_slice()));
        }
    }

    #[test]
    fn add_rule_on_a_shared_block_leaves_the_other_states_alone() {
        let mut strat = Strategy::new(2);
        let list = vec![wait(1, 0, 3)];
        for location in 0..3 {
            strat.add_rules(state(location), list.clone());
        }
        strat.add_rule(state(1), wait(2, 3, 5));
        assert_eq!(strat.rules_for(&state(0)), Some(list.as_slice()));
        assert_eq!(strat.rules_for(&state(2)), Some(list.as_slice()));
        assert_eq!(
            strat.rules_for(&state(1)),
            Some([wait(1, 0, 3), wait(2, 3, 5)].as_slice())
        );
        // Growing a state's own block in place, and growing it into a list
        // another state already has, both keep every other state's rules.
        strat.add_rule(state(1), wait(3, 5, 7));
        strat.add_rules(state(3), vec![wait(1, 0, 3), wait(2, 3, 5)]);
        strat.add_rule(state(3), wait(3, 5, 7));
        assert_eq!(strat.rules_for(&state(3)), strat.rules_for(&state(1)));
        strat.add_rule(state(0), wait(4, 7, 9));
        assert_eq!(strat.rules_for(&state(2)), Some(list.as_slice()));
        assert_eq!(strat.rules_for(&state(0)).map(<[_]>::len), Some(2));
        assert_eq!(strat.rule_count(), 2 + 3 + 1 + 3);
        // States that grew into the same list share its block.
        let block = |location| {
            strat
                .state_blocks()
                .find(|(discrete, _)| **discrete == state(location))
                .map(|(_, block)| block)
        };
        assert_eq!(block(1), block(3));
        let live: std::collections::HashSet<u32> =
            strat.state_blocks().map(|(_, block)| block).collect();
        assert_eq!(live.len(), 3);
    }

    #[test]
    fn equality_does_not_depend_on_insertion_order_or_sharing() {
        let lists = [
            vec![wait(1, 0, 3)],
            vec![wait(1, 0, 3), wait(2, 3, 5)],
            vec![wait(1, 0, 3)],
        ];
        let mut forward = Strategy::new(2);
        for (location, list) in lists.iter().enumerate() {
            forward.add_rules(state(location), list.clone());
        }
        let mut backward = Strategy::new(2);
        for (location, list) in lists.iter().enumerate().rev() {
            for rule in list {
                backward.add_rule(state(location), rule.clone());
            }
        }
        assert_eq!(forward, backward);
        assert_eq!(format!("{forward:?}").len(), format!("{backward:?}").len());
        backward.add_rule(state(2), wait(2, 3, 5));
        assert_ne!(forward, backward);
        // Same lists, but on different states.
        let mut moved = Strategy::new(2);
        moved.add_rules(state(0), lists[1].clone());
        moved.add_rules(state(1), lists[0].clone());
        moved.add_rules(state(2), lists[2].clone());
        assert_ne!(forward, moved);
    }

    #[test]
    fn empty_zones_are_not_stored() {
        let (sys, d, je) = tiny_system();
        let mut strat = Strategy::new(sys.dim());
        let mut empty = Dbm::universe(2);
        empty.constrain(1, 0, Bound::lt(0));
        strat.add_rule(
            d,
            StrategyRule {
                rank: 1,
                zone: empty,
                decision: Decision::Take(je),
            },
        );
        assert_eq!(strat.rule_count(), 0);
        assert_eq!(strat.state_count(), 0);
    }
}
