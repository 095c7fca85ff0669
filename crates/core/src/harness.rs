//! High-level entry point: synthesize a strategy for a test purpose and use
//! it as a test case.
//!
//! [`TestHarness`] bundles the whole pipeline of the paper's Fig. 4:
//! SPEC (TIOGA) + test purpose → UPPAAL-TIGA-style strategy synthesis →
//! strategy-driven test generation and execution → verdict.

use crate::exec::{TestConfig, TestExecutor, TestReport};
use crate::iut::Iut;
use crate::verdict::Verdict;
use std::fmt;
use tiga_model::{Liveness, ModelError, System};
use tiga_solver::{
    objective_liveness, solve, CompiledController, Controller, GameSolution, SolveOptions,
    SolverError, Strategy,
};
use tiga_tctl::{LangError, TestPurpose};

/// Errors raised while assembling a test harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum HarnessError {
    /// The test purpose could not be parsed or resolved.
    Purpose(LangError),
    /// The game could not be solved.
    Solver(SolverError),
    /// The models could not be evaluated.
    Model(ModelError),
    /// The purpose is not enforceable: no winning strategy exists, so it
    /// cannot be used as a test case.
    NotEnforceable {
        /// The offending purpose, for the error message.
        purpose: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Purpose(e) => write!(f, "{e}"),
            HarnessError::Solver(e) => write!(f, "solver error: {e}"),
            HarnessError::Model(e) => write!(f, "model error: {e}"),
            HarnessError::NotEnforceable { purpose } => {
                write!(f, "no winning strategy exists for `{purpose}`")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<LangError> for HarnessError {
    fn from(e: LangError) -> Self {
        HarnessError::Purpose(e)
    }
}

impl From<SolverError> for HarnessError {
    fn from(e: SolverError) -> Self {
        HarnessError::Solver(e)
    }
}

impl From<ModelError> for HarnessError {
    fn from(e: ModelError) -> Self {
        HarnessError::Model(e)
    }
}

/// A synthesized, executable test case: the winning strategy for one test
/// purpose, ready to be run against implementations.
pub struct TestHarness {
    product: System,
    spec: System,
    purpose: TestPurpose,
    solution: GameSolution,
    controller: CompiledController,
    /// The purpose's liveness on `product`, which the controller's states
    /// were reduced by; every execution borrows it.
    liveness: Liveness,
    config: TestConfig,
}

impl TestHarness {
    /// Synthesizes a test harness.
    ///
    /// * `product` — the closed network: plant TIOGA composed with its
    ///   environment model (the game is solved on this system);
    /// * `spec` — the plant-only specification used for conformance
    ///   monitoring (pass a clone of `product` to monitor against the whole
    ///   network instead);
    /// * `purpose` — a `control: A<> φ` (reachability) or `control: A[] φ`
    ///   (safety) test purpose over `product`; safety test cases drive a
    ///   safe, possibly non-terminating controller and pass when the
    ///   observation budget ends inside `φ`.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::NotEnforceable`] if no winning strategy exists,
    /// or the underlying parsing/solving errors.
    ///
    /// The game is solved by [`tiga_solver::solve`] with
    /// [`SolveOptions::default`]: the on-the-fly (OTFUR) engine stops
    /// exploring as soon as the initial state is decided and extracts the
    /// strategy during the search.  Use [`TestHarness::synthesize_with`] to
    /// set budgets or early termination.
    pub fn synthesize(
        product: System,
        spec: System,
        purpose: &str,
        config: TestConfig,
    ) -> Result<Self, HarnessError> {
        Self::synthesize_with(product, spec, purpose, config, &SolveOptions::default())
    }

    /// Like [`TestHarness::synthesize`], with explicit solver options
    /// (exploration limits, early-termination control).
    ///
    /// # Errors
    ///
    /// Same as [`TestHarness::synthesize`].
    pub fn synthesize_with(
        product: System,
        spec: System,
        purpose: &str,
        config: TestConfig,
        options: &SolveOptions,
    ) -> Result<Self, HarnessError> {
        let parsed = TestPurpose::parse(purpose, &product)?;
        let solution = solve(&product, &parsed, options)?;
        let Some(strategy) = solution.strategy.as_ref() else {
            return Err(HarnessError::NotEnforceable {
                purpose: purpose.to_string(),
            });
        };
        if !solution.winning_from_initial {
            return Err(HarnessError::NotEnforceable {
                purpose: purpose.to_string(),
            });
        }
        let controller = CompiledController::compile(strategy);
        let liveness = objective_liveness(&product, &parsed.predicate);
        Ok(TestHarness {
            product,
            spec,
            purpose: parsed,
            solution,
            controller,
            liveness,
            config,
        })
    }

    /// The synthesized winning strategy (the test case).
    ///
    /// # Panics
    ///
    /// Never panics: `synthesize` guarantees the strategy exists.
    #[must_use]
    pub fn strategy(&self) -> &Strategy {
        self.solution
            .strategy
            .as_ref()
            .expect("synthesize only succeeds with a strategy")
    }

    /// The minimized, compiled controller executions run on by default.
    #[must_use]
    pub fn controller(&self) -> &CompiledController {
        &self.controller
    }

    /// The solved game (winning sets, statistics, explored graph).
    #[must_use]
    pub fn solution(&self) -> &GameSolution {
        &self.solution
    }

    /// The parsed test purpose.
    #[must_use]
    pub fn purpose(&self) -> &TestPurpose {
        &self.purpose
    }

    /// The closed product model the strategy plays on.
    #[must_use]
    pub fn product(&self) -> &System {
        &self.product
    }

    /// The plant-only specification used for tioco monitoring.
    #[must_use]
    pub fn spec(&self) -> &System {
        &self.spec
    }

    /// The execution configuration.
    #[must_use]
    pub fn config(&self) -> &TestConfig {
        &self.config
    }

    /// Executes the test case against an implementation.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] only for internal model-evaluation failures;
    /// conformance violations are reported through the verdict.
    /// Runs on the compiled controller; [`TestHarness::execute_controlled`]
    /// accepts an explicit controller (e.g. the interpreted strategy) for
    /// differential comparison.
    pub fn execute(&self, iut: &mut dyn Iut) -> Result<TestReport, ModelError> {
        self.execute_controlled(iut, &self.controller)
    }

    /// Executes the test case with an explicit controller.
    ///
    /// The differential suites run the same IUT under the compiled
    /// controller and the interpreted [`TestHarness::strategy`] and pin
    /// verdicts and traces identical.
    ///
    /// # Errors
    ///
    /// Same as [`TestHarness::execute`].
    pub fn execute_controlled(
        &self,
        iut: &mut dyn Iut,
        controller: &dyn Controller,
    ) -> Result<TestReport, ModelError> {
        let executor = TestExecutor::new(
            &self.product,
            &self.spec,
            controller,
            &self.purpose,
            &self.liveness,
            self.config.clone(),
        )?;
        executor.run(iut)
    }

    /// Executes the test case repeatedly (fresh reset every time) and returns
    /// the first non-`Pass` verdict, or `Pass` if all repetitions pass.
    ///
    /// Useful against implementations with jittery output policies, where
    /// different runs may exercise different output timings.
    ///
    /// # Errors
    ///
    /// Same as [`TestHarness::execute`].
    pub fn execute_repeated(
        &self,
        iut: &mut dyn Iut,
        repetitions: usize,
    ) -> Result<TestReport, ModelError> {
        let mut last = None;
        for _ in 0..repetitions.max(1) {
            let report = self.execute(iut)?;
            if !matches!(report.verdict, Verdict::Pass) {
                return Ok(report);
            }
            last = Some(report);
        }
        Ok(last.expect("at least one repetition"))
    }
}

impl fmt::Debug for TestHarness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestHarness")
            .field("product", &self.product.name())
            .field("purpose", &self.purpose.source)
            .field("strategy_rules", &self.strategy().rule_count())
            .field("controller_rules", &self.controller.rule_count())
            .finish()
    }
}
