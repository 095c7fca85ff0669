//! Strategy-driven test execution (Algorithm 3.1 of the paper).
//!
//! The executor incrementally builds a test run by consulting the winning
//! strategy: either it sends the prescribed input to the implementation, or
//! it waits — for a bounded amount of time derived from the strategy's next
//! action region and the product invariant — observing outputs.  Every
//! observation is checked against the specification through the
//! [`SpecMonitor`] (tioco), producing `fail` on a violation and `pass` once
//! the test purpose is reached.  Safety purposes (`control: A[] φ`) invert
//! the goal check: entering a `¬φ` state is a failure, and a run that
//! exhausts its step or time budget while maintaining `φ` passes — the safe
//! controller is allowed to be non-terminating.
//!
//! As in the paper's `TestExec`, a wait is one delay per decision: the
//! executor asks the controller for its decision together with the first
//! delay after which that answer is no longer `Wait`
//! ([`Controller::decide_with_wakeup`]), and lets the implementation run
//! for the least of that wake-up, the product's invariant deadline and the
//! remaining time budget.  The implementation may cut the wait short with
//! an output, which the executor then checks and follows.
//!
//! Time-bounded purposes (`control: A<><=T φ` / `control: A[]<=T φ`) tighten
//! the run's time budget to `T` model time units: a bounded reachability run
//! that has not reached `φ` by the deadline ends
//! `Inconclusive(BoundExceeded)` (attributed to the purpose, not the
//! executor's own budget), and a bounded safety run passes as soon as the
//! deadline is reached with `φ` still holding — the bound is weak, so a
//! violation at exactly `T` still fails.  The controller of a bounded
//! purpose was synthesized on the `#t`-augmented product (see
//! [`tiga_solver::bounded_system`]); the executor transparently appends the
//! elapsed time to the clock valuation when consulting it.

use crate::iut::{DelayOutcome, Iut};
use crate::monitor::{MonitorOutcome, SpecMonitor};
use crate::trace::TimedTrace;
use crate::verdict::{FailReason, InconclusiveReason, Verdict};
use tiga_model::{
    ConcreteState, DiscreteState, Interpreter, JointEdge, Liveness, ModelError, System,
};
use tiga_solver::{Controller, StrategyDecision};
use tiga_tctl::{PathQuantifier, TestPurpose};

/// Configuration of a test execution.
#[derive(Clone, Debug)]
pub struct TestConfig {
    /// Ticks per model time unit (must match the implementation under test).
    pub scale: i64,
    /// Maximum number of executor steps before giving up.
    pub max_steps: usize,
    /// Maximum total virtual time, in ticks.
    pub max_ticks: i64,
}

impl Default for TestConfig {
    fn default() -> Self {
        TestConfig {
            scale: 4,
            max_steps: 10_000,
            max_ticks: 100_000,
        }
    }
}

/// The outcome of one test execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestReport {
    /// Final verdict.
    pub verdict: Verdict,
    /// The observable timed trace of the run.
    pub trace: TimedTrace,
    /// Ticks per time unit used during the run.
    pub scale: i64,
    /// Number of executor steps taken: one per decision (an input sent, or
    /// one wait with the output or silent internal move that may end it),
    /// the step that ends the run included.
    pub steps: usize,
    /// Name of the implementation under test.
    pub iut_name: String,
}

/// Strategy-driven test executor (the paper's `TestExec`).
///
/// Generic over the controller representation: any [`Controller`] — the
/// interpreted [`tiga_solver::Strategy`] or a compiled
/// [`tiga_solver::CompiledController`] — drives the run; both are pinned to
/// produce identical verdicts and traces by the differential suites.
#[derive(Clone)]
pub struct TestExecutor<'a> {
    product: &'a System,
    spec: &'a System,
    controller: &'a dyn Controller,
    purpose: &'a TestPurpose,
    /// The liveness the controller's states were reduced by; every query
    /// projects the tracked product state through it.
    liveness: &'a Liveness,
    config: TestConfig,
}

impl std::fmt::Debug for TestExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestExecutor")
            .field("product", &self.product.name())
            .field("purpose", &self.purpose.source)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a> TestExecutor<'a> {
    /// Creates an executor.
    ///
    /// * `product` — the closed plant∥environment network the strategy was
    ///   synthesized on; the executor tracks its state to consult the
    ///   strategy.
    /// * `spec` — the plant-only specification used for tioco monitoring.
    /// * `controller` — a winning controller for `purpose` on `product`
    ///   (an interpreted strategy or a compiled controller).  For a
    ///   time-bounded purpose the controller must have been synthesized on
    ///   the `#t`-augmented product (one extra trailing clock dimension);
    ///   the executor appends the elapsed time to every query.
    /// * `liveness` — the reduction the controller's states were explored
    ///   under, [`tiga_solver::objective_liveness`] of `product` and the
    ///   purpose's predicate; compute it once and share it between runs.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the configuration is invalid (non-positive
    /// scale).
    pub fn new(
        product: &'a System,
        spec: &'a System,
        controller: &'a dyn Controller,
        purpose: &'a TestPurpose,
        liveness: &'a Liveness,
        config: TestConfig,
    ) -> Result<Self, ModelError> {
        if config.scale <= 0 {
            return Err(ModelError::Invalid(
                "tick scale must be positive".to_string(),
            ));
        }
        Ok(TestExecutor {
            product,
            spec,
            controller,
            purpose,
            liveness,
            config,
        })
    }

    /// Runs the test against an implementation and produces a report.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] only for internal evaluation failures of the
    /// models (not for conformance violations, which yield a
    /// [`Verdict::Fail`]).
    pub fn run(&self, iut: &mut dyn Iut) -> Result<TestReport, ModelError> {
        iut.reset();
        let scale = self.config.scale;
        let iut_name = iut.name().to_string();
        let interp = Interpreter::new(self.product, scale)?;
        let mut product_state = interp.initial_state()?;
        // Discrete steps build the product's successor here and swap it in
        // (see `Interpreter::fire_sync`), so a run steps without allocating.
        let mut scratch = product_state.clone();
        let mut monitor = SpecMonitor::new(self.spec, scale)?;
        let mut trace = TimedTrace::new();
        let mut now: i64 = 0;
        let mut steps = 0usize;
        // The product state the controller is queried with: dead variables
        // back at their initial values, as in the explored states.
        let mut projected = DiscreteState::default();
        // The clock valuation a bounded controller is queried with: the
        // product's clocks plus the elapsed time.
        let mut bounded_clocks = Vec::new();

        let finish = move |verdict: Verdict, trace: TimedTrace, steps: usize| TestReport {
            verdict,
            trace,
            scale,
            steps,
            iut_name: iut_name.clone(),
        };

        let safety = self.purpose.quantifier == PathQuantifier::Safety;
        // A time-bounded purpose caps the run at `T` model time units; the
        // effective time budget is the tighter of the bound and the
        // executor's own `max_ticks`, and exhaustion is attributed to
        // whichever was hit.
        let bound_ticks = self.purpose.bound.map(|t| t.saturating_mul(scale));
        let budget_ticks = match bound_ticks {
            Some(b) => b.min(self.config.max_ticks),
            None => self.config.max_ticks,
        };
        loop {
            steps += 1;
            if safety {
                // Safety purpose `A[] φ`: entering `¬φ` is the failure —
                // checked before the budgets, so a violation in the final
                // state is never masked as a pass — and a run that exhausts
                // its budget without ever leaving `φ` passes (the
                // controller is allowed to be non-terminating).
                let predicate_holds = self
                    .purpose
                    .predicate
                    .holds(self.product, &product_state.discrete)?;
                if !predicate_holds {
                    return Ok(finish(
                        Verdict::Fail(FailReason::SafetyViolation {
                            state: format!("{}", product_state.discrete.display(self.product)),
                            at_ticks: now,
                        }),
                        trace,
                        steps,
                    ));
                }
                if steps > self.config.max_steps || now >= budget_ticks {
                    // For a bounded purpose this fires at the deadline `T`
                    // itself: the `¬φ` check above ran first, so a violation
                    // at exactly `T` fails (weak bound), while `φ` holding
                    // through the deadline passes.
                    return Ok(finish(Verdict::Pass, trace, steps));
                }
            } else {
                if steps > self.config.max_steps {
                    return Ok(finish(
                        Verdict::Inconclusive(InconclusiveReason::StepBudgetExhausted),
                        trace,
                        steps,
                    ));
                }
                // Goal check (pass as soon as the purpose holds).
                if self
                    .purpose
                    .predicate
                    .holds(self.product, &product_state.discrete)?
                {
                    return Ok(finish(Verdict::Pass, trace, steps));
                }
                if now >= budget_ticks {
                    // The goal check above ran first, so reaching `φ` at
                    // exactly the deadline still passes (weak bound).
                    let reason = match bound_ticks {
                        Some(b) if now >= b => InconclusiveReason::BoundExceeded {
                            bound: self.purpose.bound.unwrap_or(0),
                        },
                        _ => InconclusiveReason::TimeBudgetExhausted,
                    };
                    return Ok(finish(Verdict::Inconclusive(reason), trace, steps));
                }
            }

            let discrete = &product_state.discrete;
            let query = self.liveness.project(discrete, &mut projected);
            // One fused query answers both the decision and — on a wait —
            // its wake-up, the delay at which the answer changes.  Bounded
            // controllers play on the
            // `#t`-augmented product, whose extra trailing clock is the
            // never-reset elapsed time — exactly `now`.
            let clocks = if self.purpose.bound.is_some() {
                bounded_clocks.clone_from(&product_state.clocks);
                bounded_clocks.push(now);
                &bounded_clocks
            } else {
                &product_state.clocks
            };
            let decision = self.controller.decide_with_wakeup(query, clocks, scale);
            match decision {
                None => {
                    return Ok(finish(
                        Verdict::Inconclusive(InconclusiveReason::OffStrategy {
                            state: format!("{}", discrete.display(self.product)),
                        }),
                        trace,
                        steps,
                    ));
                }
                Some((StrategyDecision::Take(joint), _)) => {
                    match joint {
                        JointEdge::Sync { channel, .. } => {
                            let name = self.product.channel(*channel).name().to_string();
                            iut.offer_input(&name);
                            monitor.observe_input(&name)?;
                            if !interp.fire_sync(&mut product_state, *channel, &mut scratch)? {
                                return Ok(finish(
                                    Verdict::Inconclusive(InconclusiveReason::OffStrategy {
                                        state: format!(
                                            "strategy prescribed {name}? but the product cannot fire it"
                                        ),
                                    }),
                                    trace,
                                    steps,
                                ));
                            }
                            trace.push_input(&name);
                        }
                        JointEdge::Internal { automaton, edge } => {
                            // A controllable internal move of the environment
                            // model: only the product state changes.
                            let edge_ref = tiga_model::EdgeRef {
                                automaton: *automaton,
                                edge: *edge,
                            };
                            if !interp.fire_edge(&mut product_state, edge_ref, &mut scratch)? {
                                return Ok(finish(
                                    Verdict::Inconclusive(InconclusiveReason::OffStrategy {
                                        state: "strategy prescribed a disabled internal move"
                                            .to_string(),
                                    }),
                                    trace,
                                    steps,
                                ));
                            }
                        }
                    }
                }
                Some((StrategyDecision::Wait { .. }, wakeup)) => {
                    // One wait per decision: until the controller's answer
                    // changes, the product's invariant forces an output, or
                    // the budget runs out, whichever comes first.  The
                    // implementation may answer earlier with an output.
                    let mut wait = budget_ticks - now;
                    if let Some(w) = wakeup {
                        wait = wait.min(w);
                    }
                    if let Some(b) = interp.max_delay(&product_state)? {
                        wait = wait.min(b);
                    }
                    let wait = wait.max(0);

                    if wait == 0 {
                        // The product invariant forbids further delay: an
                        // uncontrollable output is due *now*.
                        match iut.delay(0) {
                            DelayOutcome::Output { channel, .. } => {
                                match self.handle_output(
                                    &interp,
                                    &mut monitor,
                                    (&mut product_state, &mut scratch),
                                    &mut trace,
                                    &channel,
                                    now,
                                )? {
                                    Some(fail) => {
                                        return Ok(finish(Verdict::Fail(fail), trace, steps))
                                    }
                                    None => continue,
                                }
                            }
                            DelayOutcome::Quiet => {
                                // Nothing happened although the invariant
                                // requires progress: check whose deadline it
                                // is.  It is the implementation's fault only
                                // if the closed product — the world the
                                // implementation lives in — actually offers
                                // an output synchronization to discharge it.
                                // A lone half-edge with no receiver is not an
                                // output the implementation could have
                                // produced.
                                if interp.output_sync_enabled(&product_state)? {
                                    return Ok(finish(
                                        Verdict::Fail(FailReason::MissedDeadline { at_ticks: now }),
                                        trace,
                                        steps,
                                    ));
                                }
                                // No output is due: the blocked product may
                                // still progress through a forced internal
                                // move (the plant changes state silently).
                                // Advance product and specification through
                                // the same deterministic hop — a quiet
                                // simulated implementation made it too.
                                if interp.fire_first_internal(&mut product_state, &mut scratch)? {
                                    monitor.progress_internal()?;
                                    continue;
                                }
                                let spec_bound = monitor.max_allowed_delay()?;
                                if spec_bound == Some(0) {
                                    // Nothing can discharge the deadline and
                                    // the strategy prescribed waiting, so the
                                    // run is stuck for good.  A blocked safety
                                    // run maintains its predicate forever, so
                                    // it passes; a reachability purpose is out
                                    // of reach.
                                    if safety {
                                        return Ok(finish(Verdict::Pass, trace, steps));
                                    }
                                    return Ok(finish(
                                        Verdict::Inconclusive(InconclusiveReason::SpecTimelock {
                                            at_ticks: now,
                                        }),
                                        trace,
                                        steps,
                                    ));
                                }
                                return Ok(finish(
                                    Verdict::Inconclusive(InconclusiveReason::UnboundedWait),
                                    trace,
                                    steps,
                                ));
                            }
                        }
                    }

                    match iut.delay(wait) {
                        DelayOutcome::Quiet => {
                            if let MonitorOutcome::Violation(fail) = monitor.observe_delay(wait)? {
                                trace.push_delay(wait);
                                return Ok(finish(Verdict::Fail(fail), trace, steps));
                            }
                            if !interp.delay(&mut product_state, wait)? {
                                return Ok(finish(
                                    Verdict::Inconclusive(InconclusiveReason::OffStrategy {
                                        state: "product invariant violated while waiting"
                                            .to_string(),
                                    }),
                                    trace,
                                    steps,
                                ));
                            }
                            trace.push_delay(wait);
                            now += wait;
                        }
                        DelayOutcome::Output { after, channel } => {
                            if after > 0 {
                                if let MonitorOutcome::Violation(fail) =
                                    monitor.observe_delay(after)?
                                {
                                    trace.push_delay(after);
                                    return Ok(finish(Verdict::Fail(fail), trace, steps));
                                }
                                if !interp.delay(&mut product_state, after)? {
                                    return Ok(finish(
                                        Verdict::Inconclusive(InconclusiveReason::OffStrategy {
                                            state: "product invariant violated before output"
                                                .to_string(),
                                        }),
                                        trace,
                                        steps,
                                    ));
                                }
                                trace.push_delay(after);
                                now += after;
                            }
                            match self.handle_output(
                                &interp,
                                &mut monitor,
                                (&mut product_state, &mut scratch),
                                &mut trace,
                                &channel,
                                now,
                            )? {
                                Some(fail) => return Ok(finish(Verdict::Fail(fail), trace, steps)),
                                None => continue,
                            }
                        }
                    }
                }
            }
        }
    }

    /// Processes an observed output: tioco check, product update (through
    /// the product state's scratch), trace.  Returns `Some(reason)` if the
    /// output is a conformance violation.
    fn handle_output(
        &self,
        interp: &Interpreter<'_>,
        monitor: &mut SpecMonitor<'_>,
        (product_state, scratch): (&mut ConcreteState, &mut ConcreteState),
        trace: &mut TimedTrace,
        channel: &str,
        now: i64,
    ) -> Result<Option<FailReason>, ModelError> {
        trace.push_output(channel);
        if let MonitorOutcome::Violation(fail) = monitor.observe_output(channel)? {
            return Ok(Some(fail));
        }
        let Some(ch) = self.product.channel_by_name(channel) else {
            return Ok(Some(FailReason::UnexpectedOutput {
                channel: channel.to_string(),
                at_ticks: now,
            }));
        };
        if interp.fire_sync(product_state, ch, scratch)? {
            Ok(None)
        } else {
            Ok(Some(FailReason::EnvironmentRefusedOutput {
                channel: channel.to_string(),
                at_ticks: now,
            }))
        }
    }
}
