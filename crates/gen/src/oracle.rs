//! The five differential oracles of the fuzzing harness.
//!
//! 1. **Engine agreement** — `solve` (on-the-fly) and the `solve_jacobi`
//!    reference must return the same verdict on a generated game —
//!    reachability (`A<>`) *and* safety (`A[]`) — and (for small graphs)
//!    semantically identical winning federations: the exhaustive
//!    on-the-fly engine must match the Jacobi oracle's `jacobi ∩ reach`
//!    per discrete state (its documented confinement).
//! 2. **Roundtrip** — `parse(print(sys)) ≡ sys` and the objective survives,
//!    on *generated* systems rather than the hand-written zoo.
//! 3. **Zone algebra** — `Federation` `up`/`down`/`free`/`reset`/
//!    `intersect`/`subtract` agree with the exact rational-valuation
//!    reference model of [`crate::refmodel`], and `zone_subtract` satisfies
//!    its partition laws.
//! 4. **`Pred_t`** — the timed-predecessor operator against the exact
//!    rational interval-sweep reference ([`check_pred_t`]).
//! 5. **Test execution** — for generated *winning* games, the synthesized
//!    strategy is executed end-to-end via [`TestHarness`] against the
//!    conformant implementation (under every deterministic output policy)
//!    and a pool of mutants, with the tioco verdicts as the oracle: the
//!    soundness theorem says a conformant implementation can never fail,
//!    and a winning strategy must actually drive every conformant run to a
//!    `pass` ([`check_test_execution`]).

use crate::refmodel;
use rand::rngs::StdRng;
use rand::Rng;
use tiga_dbm::{zone_subtract, Bound, Dbm, Federation};
use tiga_lang::{parse_model, print_system};
use tiga_model::{DiscreteState, System};
use tiga_solver::{solve, solve_jacobi, GameSolution, SolveOptions, SolverError};
use tiga_tctl::TestPurpose;
use tiga_testing::{
    default_policies, generate_mutants, HarnessError, MutationConfig, OutputPolicy, SimulatedIut,
    TestConfig, TestHarness,
};

/// Outcome of the engine-agreement oracle on one generated game.
#[derive(Clone, Debug)]
pub enum EngineCheck {
    /// All engines agreed; the shared verdict is reported for statistics.
    Agreed {
        /// Whether the initial state is winning.
        winning: bool,
    },
    /// The case was not solvable within budget (or not a reachability game);
    /// not a failure.
    Skipped(String),
    /// The engines disagreed — a bug in at least one of them.
    Diverged(String),
}

/// Budget and depth knobs for the engine-agreement oracle.
#[derive(Clone, Debug)]
pub struct EngineCheckOptions {
    /// Forward-exploration state cap per engine.
    pub max_states: usize,
    /// Compare full winning federations (not just verdicts) when the Jacobi
    /// graph has at most this many discrete states.
    pub deep_compare_limit: usize,
}

impl Default for EngineCheckOptions {
    fn default() -> Self {
        EngineCheckOptions {
            max_states: 20_000,
            deep_compare_limit: 300,
        }
    }
}

fn solve_options(early: bool, max_states: usize) -> SolveOptions {
    let mut options = SolveOptions {
        early_termination: early,
        ..SolveOptions::default()
    };
    options.explore.max_states = max_states;
    options
}

/// Runs all engines on one game and compares their answers.
#[must_use]
pub fn check_engine_agreement(
    system: &System,
    purpose: &TestPurpose,
    options: &EngineCheckOptions,
) -> EngineCheck {
    let jacobi = match solve_jacobi(system, purpose, &solve_options(true, options.max_states)) {
        Ok(solution) => solution,
        Err(SolverError::StateLimitExceeded { .. }) => {
            return EngineCheck::Skipped("state limit exceeded".into());
        }
        Err(e) => return EngineCheck::Diverged(format!("jacobi failed to solve: {e}")),
    };
    let mut runs: Vec<(&'static str, GameSolution)> = Vec::new();
    for (name, early) in [("otfur", true), ("otfur-exhaustive", false)] {
        match solve(system, purpose, &solve_options(early, options.max_states)) {
            Ok(solution) => runs.push((name, solution)),
            Err(e) => {
                return EngineCheck::Diverged(format!(
                    "jacobi solved the game but {name} failed: {e}"
                ));
            }
        }
    }
    for (name, solution) in &runs {
        if solution.winning_from_initial != jacobi.winning_from_initial {
            return EngineCheck::Diverged(format!(
                "verdict disagreement: jacobi={} but {name}={}",
                verdict(jacobi.winning_from_initial),
                verdict(solution.winning_from_initial)
            ));
        }
    }
    // Early-terminating otfur may stop anywhere; only its verdict is
    // comparable.  `runs[1]` is the exhaustive run.
    if jacobi.graph.len() <= options.deep_compare_limit {
        if let Some(detail) = deep_compare(system, &jacobi, &runs[1].1) {
            return EngineCheck::Diverged(detail);
        }
    }
    EngineCheck::Agreed {
        winning: jacobi.winning_from_initial,
    }
}

/// The bound-monotonicity oracle: on a time-bounded purpose, the verdict
/// must be monotone in the bound — for reachability, winning under `T`
/// implies winning under any looser bound and unbounded; for safety,
/// dually, winning under a looser bound (or unbounded) implies winning
/// under `T`.  Returns a description of the first violation; `None` when
/// the purpose is unbounded, the budget is exceeded, or everything holds.
#[must_use]
pub fn check_bound_monotonicity(
    system: &System,
    purpose: &TestPurpose,
    options: &EngineCheckOptions,
) -> Option<String> {
    let bound = purpose.bound?;
    let mut unbounded = purpose.clone();
    unbounded.bound = None;
    unbounded.source = String::new();
    let mut looser = purpose.clone();
    looser.bound = Some(bound.saturating_mul(2).saturating_add(1));
    looser.source = String::new();

    let budget = solve_options(true, options.max_states);
    let verdict_of = |p: &TestPurpose, label: &str| match solve_jacobi(system, p, &budget) {
        Ok(solution) => Some(Ok(solution.winning_from_initial)),
        Err(SolverError::StateLimitExceeded { .. }) => None,
        Err(e) => Some(Err(format!("{label} solve failed: {e}"))),
    };
    let tight = match verdict_of(purpose, "bounded")? {
        Ok(w) => w,
        Err(e) => return Some(e),
    };
    let loose = match verdict_of(&looser, "loosely bounded")? {
        Ok(w) => w,
        Err(e) => return Some(e),
    };
    let free = match verdict_of(&unbounded, "unbounded")? {
        Ok(w) => w,
        Err(e) => return Some(e),
    };
    let ok = match purpose.quantifier {
        tiga_tctl::PathQuantifier::Reachability => tight <= loose && loose <= free,
        tiga_tctl::PathQuantifier::Safety => free <= loose && loose <= tight,
    };
    if ok {
        None
    } else {
        Some(format!(
            "bound monotonicity violated ({:?}): T={bound} -> {}, T={} -> {}, unbounded -> {}",
            purpose.quantifier,
            verdict(tight),
            looser.bound.unwrap_or(0),
            verdict(loose),
            verdict(free)
        ))
    }
}

fn verdict(winning: bool) -> &'static str {
    if winning {
        "WINNING"
    } else {
        "LOSING"
    }
}

/// Winning-set comparison beyond the verdict (see module docs): the
/// exhaustive on-the-fly engine confines winning sets to the explored reach
/// zones, so it must match `jacobi ∩ reach` per state.
fn deep_compare(
    system: &System,
    jacobi: &GameSolution,
    exhaustive: &GameSolution,
) -> Option<String> {
    if exhaustive.graph.len() != jacobi.graph.len() {
        return Some(format!(
            "exhaustive otfur explored {} states, jacobi {}",
            exhaustive.graph.len(),
            jacobi.graph.len()
        ));
    }
    let mut discrete = DiscreteState::default();
    for (id, node) in jacobi.graph.nodes().iter().enumerate() {
        jacobi.graph.discrete(id, &mut discrete);
        let Some(other) = exhaustive.graph.node_of(&discrete) else {
            return Some(format!(
                "exhaustive otfur graph is missing state {}",
                discrete.display(system)
            ));
        };
        let expected = jacobi.winning[id].intersection(&node.reach);
        if !expected.set_equals(&exhaustive.winning[other]) {
            return Some(format!(
                "exhaustive otfur winning set differs from jacobi ∩ reach in {}",
                discrete.display(system)
            ));
        }
    }
    None
}

/// Checks `parse(print(sys)) ≡ sys` (plus objective survival and printer
/// fixpoint) on one generated system.  Returns a description of the first
/// violation.
#[must_use]
pub fn check_roundtrip(system: &System, purpose: &TestPurpose) -> Option<String> {
    let printed = print_system(system, Some(purpose));
    let model = match parse_model(&printed) {
        Ok(model) => model,
        Err(e) => {
            return Some(format!("printed .tg does not parse: {e}\n---\n{printed}"));
        }
    };
    if &model.system != system {
        return Some(format!(
            "parse(print(sys)) differs from sys\n---\n{printed}"
        ));
    }
    match &model.purpose {
        None => return Some("control: line lost in the round trip".into()),
        Some(p) if p != purpose => {
            return Some(format!(
                "objective changed in the round trip: `{}` vs `{}`",
                p, purpose
            ));
        }
        Some(_) => {}
    }
    let reprinted = print_system(&model.system, model.purpose.as_ref());
    if reprinted != printed {
        return Some("printing is not a fixpoint after one round trip".into());
    }
    None
}

// ---- test execution -------------------------------------------------------

/// Outcome of the test-execution oracle on one generated game.
#[derive(Clone, Debug)]
pub enum ExecCheck {
    /// The strategy was synthesized and executed; tallies for the report.
    Executed {
        /// Mutant implementations exercised.
        mutants: usize,
        /// ... of which the injected fault was detected (verdict `fail`).
        detected: usize,
    },
    /// The purpose is not enforceable, so there is no strategy to execute;
    /// not a failure when the caller has not already established a winning
    /// verdict.
    NotApplicable,
    /// The system has *controllable* internal (`tau`) edges, which violate
    /// the paper's observability test hypothesis: the strategy may prescribe
    /// a silent move that a black-box run cannot be told about.  Such games
    /// still exercise the solver oracles; test execution does not apply.
    /// (Uncontrollable internal edges are fine — they follow the shared
    /// forced-progression rule.)
    Unobservable,
    /// A soundness violation — a bug in the strategy extraction, the test
    /// executor, or the conformance monitor.
    Diverged(String),
}

/// Budgets of the test-execution oracle.
#[derive(Clone, Debug)]
pub struct ExecCheckOptions {
    /// Forward-exploration state cap for the harness synthesis (matches the
    /// engine oracle's budget so a game the engines solved is in reach).
    pub max_states: usize,
    /// Upper bound on the mutant pool exercised per case.
    pub max_mutants: usize,
    /// Execution budgets (tick scale, step and time caps).  The default is
    /// deliberately smaller than [`TestConfig::default`]: generated systems
    /// have single-digit constants, so a short observation window keeps the
    /// campaign fast while still deciding every run.
    pub config: TestConfig,
}

impl Default for ExecCheckOptions {
    fn default() -> Self {
        ExecCheckOptions {
            max_states: 20_000,
            max_mutants: 8,
            config: TestConfig {
                max_steps: 600,
                max_ticks: 4_000,
                ..TestConfig::default()
            },
        }
    }
}

/// Runs the synthesized strategy of a *winning* generated game against the
/// conformant implementation and a mutant pool (the fifth fuzz oracle).
///
/// The conformant implementation — the generated closed network itself,
/// simulated under every deterministic output policy — must `pass`: a
/// winning reachability strategy drives any conformant implementation into
/// the goal, and a winning safety strategy keeps it inside the safe set for
/// the whole observation budget.  Any `fail` contradicts tioco soundness
/// and any `inconclusive` contradicts the winning verdict, so both are
/// reported as divergences.  Repeated runs must also be bit-identical (the
/// executor is deterministic).  Mutants may or may not be caught — their
/// tally is reported, not asserted.
///
/// Systems with *controllable* internal (`tau`) edges are
/// [`ExecCheck::Unobservable`]: the paper's test hypothesis requires an
/// observable specification, and a strategy-prescribed silent move would
/// desynchronize every tracker in the harness.
#[must_use]
pub fn check_test_execution(
    system: &System,
    purpose: &TestPurpose,
    options: &ExecCheckOptions,
) -> ExecCheck {
    // Test execution assumes the paper's observability hypothesis.
    // *Uncontrollable* internal edges are fine: they only fire when time is
    // blocked, under the deterministic forced-progression rule that the
    // executor, the monitor and the simulated implementation share.  A
    // *controllable* internal edge, however, is a silent move the strategy
    // itself may prescribe — the black box cannot be told about it, so no
    // tracker stays synchronized with the implementation.
    let has_controllable_tau = system.automata().iter().any(|a| {
        a.edges()
            .iter()
            .any(|e| e.sync == tiga_model::Sync::Tau && e.controllable == Some(true))
    });
    if has_controllable_tau {
        return ExecCheck::Unobservable;
    }
    let mut solve_options = SolveOptions::default();
    solve_options.explore.max_states = options.max_states;
    let harness = match TestHarness::synthesize_with(
        system.clone(),
        system.clone(),
        &purpose.source,
        options.config.clone(),
        &solve_options,
    ) {
        Ok(harness) => harness,
        Err(HarnessError::NotEnforceable { .. }) => return ExecCheck::NotApplicable,
        Err(e) => return ExecCheck::Diverged(format!("harness synthesis failed: {e}")),
    };

    let scale = options.config.scale;
    let mut first_report = None;
    for policy in default_policies() {
        let mut iut = SimulatedIut::closed("conformant", system.clone(), scale, policy);
        let report = match harness.execute(&mut iut) {
            Ok(report) => report,
            Err(e) => {
                return ExecCheck::Diverged(format!(
                    "conformant execution errored under {policy:?}: {e}"
                ));
            }
        };
        if !report.verdict.is_pass() {
            return ExecCheck::Diverged(format!(
                "conformant implementation under {policy:?} got `{}` instead of pass",
                report.verdict
            ));
        }
        if let OutputPolicy::Eager = policy {
            first_report = Some(report);
        }
    }
    // Determinism of the executor: the same (strategy, implementation,
    // policy) run twice must produce the same verdict, trace and step count.
    if let Some(first) = first_report {
        let mut iut =
            SimulatedIut::closed("conformant", system.clone(), scale, OutputPolicy::Eager);
        match harness.execute(&mut iut) {
            Ok(again) if again == first => {}
            Ok(_) => {
                return ExecCheck::Diverged(
                    "re-running the eager conformant implementation changed the report".into(),
                );
            }
            Err(e) => return ExecCheck::Diverged(format!("re-run errored: {e}")),
        }
        // Compiled ≡ interpreted: the same run driven by the interpreted
        // strategy (instead of the default compiled controller) must produce
        // the identical report, trace included.
        let mut iut =
            SimulatedIut::closed("conformant", system.clone(), scale, OutputPolicy::Eager);
        match harness.execute_controlled(&mut iut, harness.strategy()) {
            Ok(interpreted) if interpreted == first => {}
            Ok(_) => {
                return ExecCheck::Diverged(
                    "interpreted strategy and compiled controller produced different reports"
                        .into(),
                );
            }
            Err(e) => return ExecCheck::Diverged(format!("interpreted run errored: {e}")),
        }
    }

    let mutation = MutationConfig {
        max_mutants: options.max_mutants,
        ..MutationConfig::default()
    };
    let mutants = match generate_mutants(system, &mutation) {
        Ok(mutants) => mutants,
        Err(e) => return ExecCheck::Diverged(format!("mutant generation failed: {e}")),
    };
    let mut detected = 0;
    for mutant in &mutants {
        let mut iut = SimulatedIut::closed(
            &mutant.name,
            mutant.system.clone(),
            scale,
            OutputPolicy::Eager,
        );
        match harness.execute(&mut iut) {
            Ok(report) => detected += usize::from(report.verdict.is_fail()),
            Err(e) => {
                return ExecCheck::Diverged(format!(
                    "mutant `{}` execution errored: {e}",
                    mutant.name
                ));
            }
        }
    }
    ExecCheck::Executed {
        mutants: mutants.len(),
        detected,
    }
}

// ---- zone algebra ---------------------------------------------------------

/// Generates a pseudo-random non-empty zone (the generator half of oracle 3;
/// also drives the `zone_subtract` property tests).
#[must_use]
pub fn random_zone(rng: &mut StdRng, dim: usize, max_const: i32) -> Dbm {
    loop {
        let mut zone = Dbm::universe(dim);
        let constraints = rng.gen_range(0..2 * dim);
        for _ in 0..constraints {
            let i = rng.gen_range(0..dim);
            let j = rng.gen_range(0..dim);
            if i == j {
                continue;
            }
            let m = rng.gen_range(-max_const..=max_const);
            let bound = if rng.gen_bool(0.5) {
                Bound::le(m)
            } else {
                Bound::lt(m)
            };
            zone.constrain(i, j, bound);
        }
        if !zone.is_empty() {
            return zone;
        }
    }
}

/// Generates a pseudo-random federation with up to `zones` member zones.
#[must_use]
pub fn random_federation(rng: &mut StdRng, dim: usize, zones: usize, max_const: i32) -> Federation {
    let count = rng.gen_range(1..=zones.max(1));
    Federation::from_zones(dim, (0..count).map(|_| random_zone(rng, dim, max_const)))
}

/// A random scaled valuation with `vals[0] = 0`.
fn random_valuation(rng: &mut StdRng, dim: usize, max_const: i32, scale: i64) -> Vec<i64> {
    let top = (i64::from(max_const) + 2) * scale;
    let mut vals = vec![0i64; dim];
    for v in vals.iter_mut().skip(1) {
        *v = rng.gen_range(0..=top);
    }
    vals
}

/// Checks the `zone_subtract` partition laws for one `(a, b)` pair:
/// every piece is non-empty, inside `a`, disjoint from `b` and from the
/// other pieces; `(a \ b) ∪ (a ∩ b)` denotes exactly `a`; and subtracting
/// `b` again from any piece is the identity.
///
/// Shared by the campaign's zone-algebra oracle and the dedicated property
/// tests (`tests/zone_subtract_props.rs`), so the law set cannot drift
/// between the two.  Returns a description of the first violation.
#[must_use]
pub fn subtract_partition_violation(a: &Dbm, b: &Dbm) -> Option<String> {
    let dim = a.dim();
    let pieces = zone_subtract(a, b);
    for (idx, piece) in pieces.iter().enumerate() {
        if piece.is_empty() {
            return Some(format!("zone_subtract produced an empty piece #{idx}"));
        }
        if !piece.is_subset_of(a) {
            return Some(format!(
                "zone_subtract piece #{idx} leaves the minuend\na = {a:?}\nb = {b:?}"
            ));
        }
        if piece.intersects(b) {
            return Some(format!(
                "zone_subtract piece #{idx} intersects the subtrahend\na = {a:?}\nb = {b:?}"
            ));
        }
        for (jdx, other) in pieces.iter().enumerate().skip(idx + 1) {
            if piece.intersects(other) {
                return Some(format!(
                    "zone_subtract pieces #{idx} and #{jdx} overlap\na = {a:?}\nb = {b:?}"
                ));
            }
        }
        let again = Federation::from_zones(dim, zone_subtract(piece, b));
        if !again.set_equals(&Federation::from_zone(piece.clone())) {
            return Some(format!(
                "zone_subtract piece #{idx} is not stable under re-subtraction\na = {a:?}\nb = {b:?}"
            ));
        }
    }
    let mut recovered = Federation::from_zones(dim, pieces);
    if let Some(meet) = a.intersection(b) {
        recovered.add_zone(meet);
    }
    if !recovered.set_equals(&Federation::from_zone(a.clone())) {
        return Some(format!(
            "(a \\ b) ∪ (a ∩ b) differs from a\na = {a:?}\nb = {b:?}"
        ));
    }
    None
}

/// One round of the zone-algebra oracle: random zones/federations through
/// every per-zone transformer and the subtraction laws, checked against the
/// reference model at `samples` random rational valuations.
///
/// Returns a description of the first violation.
#[must_use]
pub fn check_zone_algebra(
    rng: &mut StdRng,
    dim: usize,
    max_const: i32,
    samples: usize,
) -> Option<String> {
    let scale = 2;
    let a = random_zone(rng, dim, max_const);
    let b = random_zone(rng, dim, max_const);

    // zone_subtract partition laws (symbolic, no sampling).
    if let Some(violation) = subtract_partition_violation(&a, &b) {
        return Some(violation);
    }

    // Federation transformers vs the reference model at sampled valuations.
    let fa = random_federation(rng, dim, 3, max_const);
    let fb = random_federation(rng, dim, 3, max_const);
    let mut up = fa.clone();
    up.up();
    let mut down = fa.clone();
    down.down();
    let free_k = if dim > 1 {
        Some(rng.gen_range(1..dim))
    } else {
        None
    };
    let freed = free_k.map(|k| {
        let mut f = fa.clone();
        f.free(k);
        f
    });
    let reset_v = rng.gen_range(0..=max_const);
    let reset = free_k.map(|k| {
        let mut f = fa.clone();
        f.reset(k, reset_v);
        f
    });
    let inter = fa.intersection(&fb);
    let diff = fa.difference(&fb);

    for _ in 0..samples {
        let vals = random_valuation(rng, dim, max_const, scale);
        let in_a = fa.iter().any(|z| refmodel::zone_contains(z, &vals, scale));
        let in_b = fb.iter().any(|z| refmodel::zone_contains(z, &vals, scale));
        let point = || {
            vals.iter()
                .skip(1)
                .map(|v| format!("{}", *v as f64 / scale as f64))
                .collect::<Vec<_>>()
                .join(", ")
        };
        if inter.contains_at(&vals, scale) != (in_a && in_b) {
            return Some(format!(
                "intersection disagrees with the reference at ({})\nfa = {fa:?}\nfb = {fb:?}",
                point()
            ));
        }
        if diff.contains_at(&vals, scale) != (in_a && !in_b) {
            return Some(format!(
                "difference disagrees with the reference at ({})\nfa = {fa:?}\nfb = {fb:?}",
                point()
            ));
        }
        let ref_up = fa.iter().any(|z| refmodel::up_contains(z, &vals, scale));
        if up.contains_at(&vals, scale) != ref_up {
            return Some(format!(
                "up() disagrees with the reference at ({})\nfa = {fa:?}",
                point()
            ));
        }
        let ref_down = fa.iter().any(|z| refmodel::down_contains(z, &vals, scale));
        if down.contains_at(&vals, scale) != ref_down {
            return Some(format!(
                "down() disagrees with the reference at ({})\nfa = {fa:?}",
                point()
            ));
        }
        if let (Some(k), Some(freed)) = (free_k, &freed) {
            let ref_free = fa
                .iter()
                .any(|z| refmodel::free_contains(z, k, &vals, scale));
            if freed.contains_at(&vals, scale) != ref_free {
                return Some(format!(
                    "free({k}) disagrees with the reference at ({})\nfa = {fa:?}",
                    point()
                ));
            }
        }
        if let (Some(k), Some(reset)) = (free_k, &reset) {
            let ref_reset = fa
                .iter()
                .any(|z| refmodel::reset_contains(z, k, reset_v, &vals, scale));
            if reset.contains_at(&vals, scale) != ref_reset {
                return Some(format!(
                    "reset({k}, {reset_v}) disagrees with the reference at ({})\nfa = {fa:?}",
                    point()
                ));
            }
        }
    }
    None
}

/// One round of the `Pred_t` oracle (the fourth fuzz oracle): random good
/// and bad federations through [`tiga_dbm::Federation::pred_t`], checked
/// against the exact rational interval-sweep reference
/// [`refmodel::pred_t_contains`] at `samples` random valuations.
///
/// Returns a description of the first violation.
#[must_use]
pub fn check_pred_t(
    rng: &mut StdRng,
    dim: usize,
    max_const: i32,
    samples: usize,
) -> Option<String> {
    let scale = 2;
    let good = random_federation(rng, dim, 3, max_const);
    let bad = if rng.gen_bool(0.2) {
        Federation::empty(dim)
    } else {
        random_federation(rng, dim, 3, max_const)
    };
    let result = good.pred_t(&bad);
    let good_zones: Vec<&Dbm> = good.iter().collect();
    let bad_zones: Vec<&Dbm> = bad.iter().collect();
    for _ in 0..samples {
        let vals = random_valuation(rng, dim, max_const, scale);
        let expected = refmodel::pred_t_contains(&good_zones, &bad_zones, &vals, scale);
        if result.contains_at(&vals, scale) != expected {
            let point = vals
                .iter()
                .skip(1)
                .map(|v| format!("{}", *v as f64 / scale as f64))
                .collect::<Vec<_>>()
                .join(", ");
            return Some(format!(
                "pred_t disagrees with the reference at ({point}): \
                 pred_t said {}, reference said {expected}\ngood = {good:?}\nbad = {bad:?}",
                !expected
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_zones_are_nonempty_and_in_range() {
        let mut rng = StdRng::seed_from_u64(0x2008_D47E);
        for _ in 0..50 {
            let z = random_zone(&mut rng, 4, 10);
            assert!(!z.is_empty());
        }
        let fed = random_federation(&mut rng, 4, 3, 10);
        assert!(!fed.is_empty());
    }

    #[test]
    fn pred_t_oracle_is_clean_on_seeded_rounds() {
        let mut rng = StdRng::seed_from_u64(0x9ED7);
        for round in 0..100 {
            for dim in 2..=4 {
                if let Some(detail) = check_pred_t(&mut rng, dim, 6, 24) {
                    panic!("round {round}, dim {dim}: {detail}");
                }
            }
        }
    }

    #[test]
    fn engine_agreement_covers_safety_objectives() {
        // With the reachability-only skip gone, generated `A[]` games are
        // checked cases; force a safety-heavy distribution to exercise the
        // dual fixpoint across all engines.
        let config = crate::GenConfig {
            safety_prob: 1.0,
            ..crate::GenConfig::default()
        };
        let options = EngineCheckOptions::default();
        let mut agreed = 0;
        for seed in 0..30 {
            let (system, purpose) = crate::generate_spec(seed, &config).build().unwrap();
            assert_eq!(purpose.quantifier, tiga_tctl::PathQuantifier::Safety);
            match check_engine_agreement(&system, &purpose, &options) {
                EngineCheck::Agreed { .. } => agreed += 1,
                EngineCheck::Skipped(reason) => {
                    panic!("seed {seed}: safety case skipped ({reason})")
                }
                EngineCheck::Diverged(detail) => panic!("seed {seed}: {detail}"),
            }
        }
        assert_eq!(agreed, 30);
    }

    #[test]
    fn zone_algebra_oracle_is_clean_on_seeded_rounds() {
        let mut rng = StdRng::seed_from_u64(0xA15E);
        for round in 0..50 {
            for dim in 2..=4 {
                if let Some(detail) = check_zone_algebra(&mut rng, dim, 6, 16) {
                    panic!("round {round}, dim {dim}: {detail}");
                }
            }
        }
    }

    #[test]
    fn engine_agreement_on_generated_systems() {
        let config = crate::GenConfig::default();
        let options = EngineCheckOptions::default();
        let mut agreed = 0;
        for seed in 0..30 {
            let (system, purpose) = crate::generate_spec(seed, &config).build().unwrap();
            match check_engine_agreement(&system, &purpose, &options) {
                EngineCheck::Agreed { .. } => agreed += 1,
                EngineCheck::Skipped(_) => {}
                EngineCheck::Diverged(detail) => panic!("seed {seed}: {detail}"),
            }
        }
        assert!(agreed >= 20, "only {agreed}/30 cases were solvable");
    }

    #[test]
    fn test_execution_oracle_on_generated_winning_games() {
        // The full fifth-oracle loop on a slice of the default distribution:
        // every game the engines call winning must synthesize a harness and
        // drive the conformant implementation to `pass` under every policy.
        let config = crate::GenConfig::default();
        let engine_options = EngineCheckOptions::default();
        let exec_options = ExecCheckOptions::default();
        let mut executed = 0;
        for seed in 0..30 {
            let (system, purpose) = crate::generate_spec(seed, &config).build().unwrap();
            let winning = match check_engine_agreement(&system, &purpose, &engine_options) {
                EngineCheck::Agreed { winning } => winning,
                EngineCheck::Skipped(_) => continue,
                EngineCheck::Diverged(detail) => panic!("seed {seed}: {detail}"),
            };
            if !winning {
                continue;
            }
            match check_test_execution(&system, &purpose, &exec_options) {
                ExecCheck::Executed { .. } => executed += 1,
                // Internal edges are outside the observability hypothesis.
                ExecCheck::Unobservable => {}
                // The engines proved the game winning with the same state
                // budget, so the harness must find the strategy too.
                ExecCheck::NotApplicable => {
                    panic!("seed {seed}: winning game deemed not enforceable")
                }
                ExecCheck::Diverged(detail) => panic!("seed {seed}: {detail}"),
            }
        }
        assert!(executed >= 10, "only {executed}/30 cases were executed");
    }

    #[test]
    fn roundtrip_oracle_on_generated_systems() {
        let config = crate::GenConfig::default();
        for seed in 0..60 {
            let (system, purpose) = crate::generate_spec(seed, &config).build().unwrap();
            if let Some(detail) = check_roundtrip(&system, &purpose) {
                panic!("seed {seed}: {detail}");
            }
        }
    }
}
