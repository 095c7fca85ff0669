//! Online tioco conformance monitoring.
//!
//! The monitor tracks the state of the (deterministic, input-enabled)
//! specification along the observed timed trace and checks, for every
//! observation, the tioco condition
//! `Out(i After σ) ⊆ Out(s After σ)`:
//!
//! * an observed **output** must be producible by the specification in its
//!   current state;
//! * an observed **delay** must be permitted by the specification (its
//!   invariant may force an output earlier, in which case silence is a
//!   fault).

use crate::verdict::FailReason;
use tiga_model::{ConcreteState, Interpreter, ModelError, System};

/// The result of feeding one observation to the monitor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonitorOutcome {
    /// The observation conforms; the specification state was advanced.
    Ok,
    /// The observation violates tioco.
    Violation(FailReason),
}

/// Online conformance monitor for a deterministic specification.
///
/// # Examples
///
/// ```
/// use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, SystemBuilder};
/// use tiga_testing::SpecMonitor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Specification: after `req?` the plant answers `resp!` within [1, 3].
/// let mut b = SystemBuilder::new("spec");
/// let x = b.clock("x")?;
/// let req = b.input_channel("req")?;
/// let resp = b.output_channel("resp")?;
/// let mut a = AutomatonBuilder::new("Plant");
/// let idle = a.location("Idle")?;
/// let busy = a.location("Busy")?;
/// a.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
/// a.add_edge(EdgeBuilder::new(idle, busy).input(req).reset(x));
/// a.add_edge(
///     EdgeBuilder::new(busy, idle)
///         .output(resp)
///         .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
/// );
/// b.add_automaton(a.build()?)?;
/// let spec = b.build()?;
///
/// let mut monitor = SpecMonitor::new(&spec, 4)?;
/// monitor.observe_input("req")?;
/// // An answer after 0.5 time units is too early: the guard requires x >= 1.
/// assert!(monitor.observe_delay(2)?.is_ok_observation());
/// assert!(!monitor.observe_output("resp")?.is_ok_observation());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SpecMonitor<'a> {
    interp: Interpreter<'a>,
    state: ConcreteState,
    /// Where discrete steps build the successor (see
    /// [`Interpreter::fire_edge`]); its contents are never read.
    scratch: ConcreteState,
    elapsed: i64,
}

impl MonitorOutcome {
    /// Returns `true` if the observation conformed to the specification.
    #[must_use]
    pub fn is_ok_observation(&self) -> bool {
        matches!(self, MonitorOutcome::Ok)
    }

    /// The failure reason, if the observation was a violation.
    #[must_use]
    pub fn violation(&self) -> Option<&FailReason> {
        match self {
            MonitorOutcome::Ok => None,
            MonitorOutcome::Violation(r) => Some(r),
        }
    }
}

impl<'a> SpecMonitor<'a> {
    /// Creates a monitor for a specification, with `scale` ticks per time
    /// unit.
    ///
    /// # Errors
    ///
    /// Propagates model errors (invalid scale, invariant violation in the
    /// initial state).
    pub fn new(system: &'a System, scale: i64) -> Result<Self, ModelError> {
        let interp = Interpreter::new(system, scale)?;
        let state = interp.initial_state()?;
        Ok(SpecMonitor {
            interp,
            scratch: state.clone(),
            state,
            elapsed: 0,
        })
    }

    /// Total observed time so far, in ticks.
    #[must_use]
    pub fn elapsed_ticks(&self) -> i64 {
        self.elapsed
    }

    /// The specification state reached after the observed trace.
    #[must_use]
    pub fn state(&self) -> &ConcreteState {
        &self.state
    }

    /// The maximal further delay the specification allows before it *must*
    /// produce some action (`None` if unbounded).
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors.
    pub fn max_allowed_delay(&self) -> Result<Option<i64>, ModelError> {
        self.interp.max_delay(&self.state)
    }

    /// Advances the specification through one forced internal (`tau`) move,
    /// if any is enabled — the deterministic first-in-declaration-order rule
    /// of [`Interpreter::fire_first_internal`].
    ///
    /// The executor calls this when the closed product is time-blocked and
    /// progresses through a silent move: the specification, when it has the
    /// same internal structure, must follow to stay synchronized.  Returns
    /// whether the specification moved.
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors.
    pub fn progress_internal(&mut self) -> Result<bool, ModelError> {
        self.interp
            .fire_first_internal(&mut self.state, &mut self.scratch)
    }

    /// Observes the tester sending an input.
    ///
    /// The specification is assumed input-enabled; if it has no edge for the
    /// input in the current state, the input is ignored (the state is
    /// unchanged), matching the usual interpretation of missing input edges
    /// as self-loops.
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors; an unknown channel name is a
    /// model error.
    pub fn observe_input(&mut self, channel: &str) -> Result<MonitorOutcome, ModelError> {
        let ch = self
            .interp
            .system()
            .channel_by_name(channel)
            .ok_or_else(|| ModelError::UnknownName(channel.to_string()))?;
        self.interp
            .after_input(&mut self.state, ch, &mut self.scratch)?;
        Ok(MonitorOutcome::Ok)
    }

    /// Observes `delay` ticks of silence.
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors.
    pub fn observe_delay(&mut self, delay: i64) -> Result<MonitorOutcome, ModelError> {
        if self.interp.delay(&mut self.state, delay)? {
            self.elapsed += delay;
            Ok(MonitorOutcome::Ok)
        } else {
            Ok(MonitorOutcome::Violation(FailReason::IllegalDelay {
                delay_ticks: delay,
                at_ticks: self.elapsed,
            }))
        }
    }

    /// Observes the implementation producing an output.
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors.
    pub fn observe_output(&mut self, channel: &str) -> Result<MonitorOutcome, ModelError> {
        let Some(ch) = self.interp.system().channel_by_name(channel) else {
            return Ok(MonitorOutcome::Violation(FailReason::UnexpectedOutput {
                channel: channel.to_string(),
                at_ticks: self.elapsed,
            }));
        };
        if self
            .interp
            .after_output(&mut self.state, ch, &mut self.scratch)?
        {
            Ok(MonitorOutcome::Ok)
        } else {
            Ok(MonitorOutcome::Violation(FailReason::UnexpectedOutput {
                channel: channel.to_string(),
                at_ticks: self.elapsed,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_model::{AutomatonBuilder, ClockConstraint, CmpOp, EdgeBuilder, SystemBuilder};

    fn spec() -> System {
        let mut b = SystemBuilder::new("spec");
        let x = b.clock("x").unwrap();
        let req = b.input_channel("req").unwrap();
        let resp = b.output_channel("resp").unwrap();
        let _late = b.output_channel("late").unwrap();
        let mut a = AutomatonBuilder::new("Plant");
        let idle = a.location("Idle").unwrap();
        let busy = a.location("Busy").unwrap();
        a.set_invariant(busy, vec![ClockConstraint::new(x, CmpOp::Le, 3)]);
        a.add_edge(EdgeBuilder::new(idle, busy).input(req).reset(x));
        a.add_edge(
            EdgeBuilder::new(busy, idle)
                .output(resp)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 1)),
        );
        b.add_automaton(a.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn conformant_trace_is_accepted() {
        let s = spec();
        let mut m = SpecMonitor::new(&s, 4).unwrap();
        assert!(m.observe_delay(20).unwrap().is_ok_observation());
        assert!(m.observe_input("req").unwrap().is_ok_observation());
        assert!(m.observe_delay(8).unwrap().is_ok_observation());
        assert!(m.observe_output("resp").unwrap().is_ok_observation());
        assert!(m.observe_delay(100).unwrap().is_ok_observation());
        assert_eq!(m.elapsed_ticks(), 128);
    }

    #[test]
    fn too_early_output_is_a_violation() {
        let s = spec();
        let mut m = SpecMonitor::new(&s, 4).unwrap();
        m.observe_input("req").unwrap();
        m.observe_delay(2).unwrap();
        let outcome = m.observe_output("resp").unwrap();
        assert!(matches!(
            outcome.violation(),
            Some(FailReason::UnexpectedOutput { .. })
        ));
    }

    #[test]
    fn wrong_output_is_a_violation() {
        let s = spec();
        let mut m = SpecMonitor::new(&s, 4).unwrap();
        m.observe_input("req").unwrap();
        m.observe_delay(8).unwrap();
        assert!(!m.observe_output("late").unwrap().is_ok_observation());
        assert!(!m.observe_output("unknown").unwrap().is_ok_observation());
    }

    #[test]
    fn silence_beyond_deadline_is_a_violation() {
        let s = spec();
        let mut m = SpecMonitor::new(&s, 4).unwrap();
        m.observe_input("req").unwrap();
        assert_eq!(m.max_allowed_delay().unwrap(), Some(12));
        let outcome = m.observe_delay(13).unwrap();
        assert!(matches!(
            outcome.violation(),
            Some(FailReason::IllegalDelay { .. })
        ));
    }

    #[test]
    fn unknown_inputs_are_errors_and_unmatched_inputs_ignored() {
        let s = spec();
        let mut m = SpecMonitor::new(&s, 4).unwrap();
        assert!(m.observe_input("nonexistent").is_err());
        // `req` in Busy has no edge: ignored, state unchanged.
        m.observe_input("req").unwrap();
        let before = m.state().clone();
        m.observe_input("req").unwrap();
        assert_eq!(m.state(), &before);
    }
}
