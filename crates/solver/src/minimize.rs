//! Semantics-preserving strategy minimization.
//!
//! Extracted strategies keep every intermediate fixpoint region: the same
//! wait zone re-justified at ranks 1, 2, …, n shows up n times, and `Take`
//! regions frequently repeat or abut across rounds.  [`minimize_strategy`]
//! shrinks a strategy without changing a single observable answer — for
//! every `(discrete, ticks, scale)` query, `decide`, `rank_of` and
//! `next_take_delay` return exactly what the original returned.
//!
//! Three rewrites run per discrete state, to a fixpoint:
//!
//! 1. **Wait subsumption** — a `Wait` rule of rank `r` is dropped when its
//!    zone is covered by the union of other `Wait` zones of rank `<= r`.
//!    `rank_of` is a *minimum* over containing wait rules — wait rules are a
//!    rank-indexed set, order-insensitive — so every point of the dropped
//!    zone keeps a containing wait of rank `<= r` and the minimum is
//!    unchanged (below the dropped rank it was already attained elsewhere;
//!    at it, the covering rule attains it).
//! 2. **Take shadowing** — a `Take` rule is dropped when its zone is covered
//!    by the union of `Take` zones that beat it in the selection order
//!    (strictly lower rank, or equal rank and earlier in order).  `decide`
//!    picks the first minimal-rank containing `Take`, so a rule that is
//!    everywhere outranked is never the answer; the rank gate and the
//!    wake-up hint are preserved because every beating rule passes the gate
//!    whenever the shadowed rule would have.
//! 3. **Union merge** — two rules of equal rank and identical decision merge
//!    into their convex hull when every hull point outside the union
//!    (`hull ∖ a ∖ b`) is already answered by a rule that wins against the
//!    merged one: for `Wait` rules, covered by other waits of rank `<= r`
//!    (the rank minimum at those points stays put); for `Take` rules,
//!    covered by takes of *strictly* lower rank — such takes beat the merged
//!    rule in `decide` wherever they contain the point, and they pass the
//!    `next_take_delay` rank gate whenever the merged rule does, so the
//!    minimum over delay windows is also preserved (any delay admitted by
//!    the hull lands in `a`, `b`, or a covering zone, whose own window
//!    admits it).  The hull of two canonical DBMs is the pointwise maximum
//!    of their bound matrices ([`Dbm::hull`]).
//!    `Take` merges are skipped at any rank where a different-edge `Take`
//!    zone overlaps the hull: the first-in-order tie-break among equal-rank
//!    rules could otherwise flip.
//!
//! Every rewrite is checked against the rule set *as currently retained* and
//! preserves the three query functions exactly, so any sequence of rewrites
//! composes soundly; each one strictly shrinks the rule count or grows a
//! zone to a fixed hull, so the fixpoint loop terminates.  The loop ends
//! after the first round that merges nothing: such a round leaves the next
//! one nothing to do (see `minimize_state`).
//!
//! The rewrites only read a state's own rule list, so they run once per
//! distinct list (a [`Strategy`] block): every state that shares a list
//! points at the one minimized block of the output.

use crate::strategy::{Decision, Strategy, StrategyRule};
use std::borrow::Cow;
use tiga_dbm::{Coverage, Dbm};

/// Before/after rule counts of a minimization run, for stats reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimizeReport {
    /// Rules in the input strategy.
    pub rules_before: usize,
    /// Rules in the minimized strategy.
    pub rules_after: usize,
}

/// Minimizes a strategy; the result answers every `decide` / `rank_of` /
/// `next_take_delay` query identically to the input.
#[must_use]
pub fn minimize_strategy(strategy: &Strategy) -> Strategy {
    minimize_strategy_with_report(strategy).0
}

/// [`minimize_strategy`], also returning the before/after rule counts.
///
/// Each distinct rule list (block) of the input is minimized once; every
/// state that shares it then points at the one minimized block, so no rule
/// is copied per state.
#[must_use]
pub fn minimize_strategy_with_report(strategy: &Strategy) -> (Strategy, MinimizeReport) {
    let mut out = Strategy::with_capacity(strategy.dim(), strategy.state_count());
    let mut report = MinimizeReport {
        rules_before: strategy.rule_count(),
        rules_after: 0,
    };
    let mut scratch = Scratch {
        coverage: Coverage::default(),
        hull: Dbm::universe(strategy.dim()),
    };
    // Input block -> minimized block of `out`.
    let mut minimized: Vec<Option<u32>> = vec![None; strategy.block_slots()];
    for (discrete, block) in strategy.state_blocks() {
        let target = *minimized[block as usize].get_or_insert_with(|| {
            let rules = minimize_state(strategy.block(block), &mut scratch)
                .into_iter()
                .map(|rule| StrategyRule {
                    rank: rule.rank,
                    zone: rule.zone.into_owned(),
                    decision: rule.decision.clone(),
                })
                .collect();
            out.intern_block(rules)
        });
        report.rules_after += out.block(target).len();
        out.insert_state(discrete.clone(), target);
    }
    (out, report)
}

/// A rule while its state is minimized: the zone stays borrowed from the
/// input until a merge grows it, so dropped rules are never copied.
struct Working<'a> {
    rank: u32,
    zone: Cow<'a, Dbm>,
    decision: &'a Decision,
}

/// Buffers reused across every state of one minimization run.
struct Scratch {
    coverage: Coverage,
    /// The candidate hull of a merge, kept only when the merge happens.
    hull: Dbm,
}

/// Runs the three rewrites over one state's rules until a round merges
/// nothing.
///
/// A round without a merge leaves the next round nothing to do.  After a
/// drop pass, no retained rule is covered: each was checked against the
/// rules retained at its turn, later drops only shrink that cover set, and
/// coverage is monotone in the cover set.  Wait drops and take drops never
/// touch each other's class, so the take pass cannot uncover a wait.  With
/// no merge, the next round would start from the very rules these drop
/// passes left, drop none of them, and then meet the same rule set that
/// this round's merge pass already found nothing to merge in.
fn minimize_state<'a>(rules: &'a [StrategyRule], scratch: &mut Scratch) -> Vec<Working<'a>> {
    let mut rules: Vec<Working<'a>> = rules
        .iter()
        .map(|rule| Working {
            rank: rule.rank,
            zone: Cow::Borrowed(&rule.zone),
            decision: &rule.decision,
        })
        .collect();
    loop {
        drop_subsumed(&mut rules, Class::Wait, &mut scratch.coverage);
        drop_subsumed(&mut rules, Class::Take, &mut scratch.coverage);
        if !merge_exact_unions(&mut rules, scratch) {
            return rules;
        }
    }
}

/// Which selection order a rule participates in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Wait,
    Take,
}

fn class_of(rule: &Working<'_>) -> Class {
    match rule.decision {
        Decision::Wait => Class::Wait,
        Decision::Take(_) => Class::Take,
    }
}

/// Drops every rule of `class` whose zone is covered by the union of
/// currently-retained same-class zones that answer for it: for `Wait`
/// rules, any other wait of rank `<= r` (the rank minimum is
/// order-insensitive); for `Take` rules, takes that beat it in the
/// selection order (strictly lower rank, or equal rank and earlier).
fn drop_subsumed(rules: &mut Vec<Working<'_>>, class: Class, coverage: &mut Coverage) {
    let mut index = 0;
    while index < rules.len() {
        if class_of(&rules[index]) != class {
            index += 1;
            continue;
        }
        let rank = rules[index].rank;
        let covers = rules
            .iter()
            .enumerate()
            .filter(|&(other, r)| {
                other != index
                    && class_of(r) == class
                    && match class {
                        Class::Wait => r.rank <= rank,
                        Class::Take => r.rank < rank || (r.rank == rank && other < index),
                    }
            })
            .map(|(_, r)| &*r.zone);
        if coverage.covers(&rules[index].zone, covers) {
            rules.remove(index);
        } else {
            index += 1;
        }
    }
}

/// Greedily merges same-rank same-decision rule pairs whose convex hull
/// adds no point that is not already answered identically by another rule.
/// Returns whether any merge happened.
fn merge_exact_unions(rules: &mut Vec<Working<'_>>, scratch: &mut Scratch) -> bool {
    let mut changed = false;
    let mut a = 0;
    while a < rules.len() {
        let mut b = a + 1;
        while b < rules.len() {
            if rules[a].rank == rules[b].rank && rules[a].decision == rules[b].decision {
                rules[a].zone.hull_into(&rules[b].zone, &mut scratch.hull);
                if mergeable(rules, a, b, &scratch.hull, &mut scratch.coverage) {
                    match &mut rules[a].zone {
                        Cow::Owned(zone) => std::mem::swap(zone, &mut scratch.hull),
                        borrowed => *borrowed = Cow::Owned(scratch.hull.clone()),
                    }
                    rules.remove(b);
                    changed = true;
                    // Re-scan partners for the grown zone from scratch.
                    b = a + 1;
                    continue;
                }
            }
            b += 1;
        }
        a += 1;
    }
    changed
}

/// Whether rules `a` and `b` (same rank, same decision) may merge into
/// `hull`: every hull point outside `a ∪ b` must already be answered by a
/// winning rule — another wait of rank `<= r` for `Wait` merges, a
/// strictly-lower-rank take for `Take` merges — and for `Take` rules no
/// different-edge `Take` of the same rank may overlap the hull (the
/// first-in-order tie-break among equal ranks would otherwise be disturbed).
fn mergeable(
    rules: &[Working<'_>],
    a: usize,
    b: usize,
    hull: &Dbm,
    coverage: &mut Coverage,
) -> bool {
    let class = class_of(&rules[a]);
    let rank = rules[a].rank;
    let others = rules
        .iter()
        .enumerate()
        .filter(|&(other, r)| {
            other != a
                && other != b
                && class_of(r) == class
                && match class {
                    Class::Wait => r.rank <= rank,
                    Class::Take => r.rank < rank,
                }
        })
        .map(|(_, r)| &*r.zone);
    if !coverage.covers(
        hull,
        [&*rules[a].zone, &*rules[b].zone].into_iter().chain(others),
    ) {
        return false;
    }
    if matches!(rules[a].decision, Decision::Take(_)) {
        for (other, rule) in rules.iter().enumerate() {
            if other != a
                && other != b
                && rule.rank == rank
                && matches!(rule.decision, Decision::Take(_))
                && rule.decision != rules[a].decision
                && rule.zone.intersects(hull)
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_dbm::Bound;
    use tiga_model::{AutomatonBuilder, DiscreteState, EdgeBuilder, JointEdge, SystemBuilder};

    fn tiny_system() -> (tiga_model::System, DiscreteState, Vec<JointEdge>) {
        let mut b = SystemBuilder::new("t");
        let _x = b.clock("x").unwrap();
        let go = b.input_channel("go").unwrap();
        let halt = b.input_channel("halt").unwrap();
        let mut plant = AutomatonBuilder::new("P");
        let l0 = plant.location("L0").unwrap();
        let l1 = plant.location("L1").unwrap();
        plant.add_edge(EdgeBuilder::new(l0, l1).input(go));
        plant.add_edge(EdgeBuilder::new(l0, l1).input(halt));
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("U");
        let u0 = user.location("U0").unwrap();
        user.add_edge(EdgeBuilder::new(u0, u0).output(go));
        user.add_edge(EdgeBuilder::new(u0, u0).output(halt));
        b.add_automaton(user.build().unwrap()).unwrap();
        let sys = b.build().unwrap();
        let d = sys.initial_discrete();
        let edges = sys.enabled_joint_edges(&d).unwrap();
        (sys, d, edges)
    }

    fn zone_between(lo: i32, hi: i32) -> Dbm {
        let mut z = Dbm::universe(2);
        z.constrain(0, 1, Bound::le(-lo));
        z.constrain(1, 0, Bound::le(hi));
        z
    }

    #[test]
    fn repeated_wait_regions_collapse_to_the_lowest_rank() {
        let (sys, d, _) = tiny_system();
        let mut strat = Strategy::new(sys.dim());
        for rank in 1..=5 {
            strat.add_rule(
                d.clone(),
                StrategyRule {
                    rank,
                    zone: Dbm::universe(2),
                    decision: Decision::Wait,
                },
            );
        }
        let (min, report) = minimize_strategy_with_report(&strat);
        assert_eq!(report.rules_before, 5);
        assert_eq!(report.rules_after, 1);
        assert_eq!(min.rule_count(), 1);
        assert_eq!(min.rank_of(&d, &[0], 4), Some(1));
        assert_eq!(strat.rank_of(&d, &[0], 4), Some(1));
    }

    #[test]
    fn adjacent_same_rank_zones_merge_exactly() {
        let (sys, d, _) = tiny_system();
        let mut strat = Strategy::new(sys.dim());
        // [0,2] ∪ [2,5] = [0,5]: hull is exact.
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(0, 2),
                decision: Decision::Wait,
            },
        );
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(2, 5),
                decision: Decision::Wait,
            },
        );
        let min = minimize_strategy(&strat);
        assert_eq!(min.rule_count(), 1);
        let rules = min.rules_for(&d).unwrap();
        assert_eq!(rules[0].zone, zone_between(0, 5));
    }

    #[test]
    fn disjoint_zones_do_not_merge() {
        let (sys, d, _) = tiny_system();
        let mut strat = Strategy::new(sys.dim());
        // [0,1] ∪ [4,5]: the hull [0,5] strictly contains the union.
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(0, 1),
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
        let min = minimize_strategy(&strat);
        assert_eq!(min.rule_count(), 2);
        assert_eq!(min.rank_of(&d, &[8], 4), None);
        assert_eq!(strat.rank_of(&d, &[8], 4), None);
    }

    #[test]
    fn shadowed_take_rules_are_dropped() {
        let (sys, d, edges) = tiny_system();
        let go = edges[0].clone();
        let mut strat = Strategy::new(sys.dim());
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 2,
                zone: Dbm::universe(2),
                decision: Decision::Wait,
            },
        );
        // Rank-1 take over [0,5] shadows the rank-2 take over [2,4].
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(0, 5),
                decision: Decision::Take(go.clone()),
            },
        );
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 2,
                zone: zone_between(2, 4),
                decision: Decision::Take(go.clone()),
            },
        );
        let min = minimize_strategy(&strat);
        assert_eq!(min.rule_count(), 2);
        for ticks in [0_i64, 9, 13, 21] {
            assert_eq!(min.decide(&d, &[ticks], 4), strat.decide(&d, &[ticks], 4));
            assert_eq!(
                min.next_take_delay(&d, &[ticks], 4),
                strat.next_take_delay(&d, &[ticks], 4)
            );
        }
    }

    #[test]
    fn take_merge_is_blocked_by_an_overlapping_other_edge_tie() {
        let (sys, d, edges) = tiny_system();
        let go = edges[0].clone();
        let halt = edges[1].clone();
        let mut strat = Strategy::new(sys.dim());
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: Dbm::universe(2),
                decision: Decision::Wait,
            },
        );
        // go on [0,2], then halt on [2,3] (earlier in order than the second
        // go region), then go on [2,5]: merging the go zones into [0,5]
        // would steal the tie from halt at x ∈ [2,3].
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(0, 2),
                decision: Decision::Take(go.clone()),
            },
        );
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(2, 3),
                decision: Decision::Take(halt.clone()),
            },
        );
        strat.add_rule(
            d.clone(),
            StrategyRule {
                rank: 1,
                zone: zone_between(2, 5),
                decision: Decision::Take(go.clone()),
            },
        );
        let min = minimize_strategy(&strat);
        for ticks in 0..=24_i64 {
            assert_eq!(
                min.decide(&d, &[ticks], 4),
                strat.decide(&d, &[ticks], 4),
                "x ticks = {ticks}"
            );
        }
    }
}
