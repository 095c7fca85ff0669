//! Shared symbolic-exploration engine.
//!
//! Both solver engines explore the game forward through the same
//! primitives: hashing-based interning of discrete states and enumeration
//! of delay-closed symbolic successors.  [`Explorer`] packages them behind
//! one implementation so the two cannot drift apart.
//!
//! The explorer caches, per interned discrete state, the derived data every
//! client recomputed before this module existed: the invariant zone and the
//! urgency flag.  Successor zones are delay-closed within the target
//! invariant and extrapolated with the system's maximal constants, exactly as
//! [`System::delay_close`] prescribes.  Every state is then reduced by the
//! game's [`Liveness`]: the dead variables of each target take their
//! initial values again, and its dead clocks are freed.  Successors come
//! back un-interned ([`Explorer::successor_candidates`]), so callers can
//! compute them on worker threads and intern the targets afterwards in a
//! fixed order; [`Explorer::into_parts`] hands the interned states and
//! their index to the explored graph without copying them.

use crate::error::ModelError;
use crate::liveness::Liveness;
use crate::symbolic::{DiscreteState, JointEdge};
use crate::system::System;
use std::collections::HashMap;
use tiga_dbm::{Dbm, Federation};

/// Dense index of an interned discrete state inside an [`Explorer`].
pub type StateIndex = usize;

/// An interned discrete state together with its cached derived data.
#[derive(Clone, Debug)]
pub struct ExploredState {
    /// The discrete state (locations and variable store).
    pub discrete: DiscreteState,
    /// Conjunction of the location invariants, as a zone.
    pub invariant: Dbm,
    /// Whether some current location is urgent (no delay allowed).
    pub urgent: bool,
}

/// One symbolic successor step whose target has *not* been interned yet,
/// returned by [`Explorer::successor_candidates`].
///
/// The read-only candidate computation is the expensive part of forward
/// exploration (guard evaluation, successor zones, delay closure); keeping
/// it free of interning lets callers run it for many `(state, zone)` pairs
/// on worker threads and intern the targets afterwards, in a deterministic
/// merge order.
#[derive(Clone, Debug)]
pub struct CandidateStep {
    /// The joint (composed) model edge taken.
    pub joint: JointEdge,
    /// The target discrete state, its dead variables forgotten (intern it
    /// to obtain a [`StateIndex`]).
    pub discrete: DiscreteState,
    /// Delay-closed, extrapolated successor zone with the target's dead
    /// clocks freed (never empty).
    pub zone: Dbm,
    /// Whether the step is a controllable (tester) move.
    pub controllable: bool,
}

/// Incremental symbolic explorer over a [`System`].
///
/// States are interned on first sight through a hash map keyed by the full
/// [`DiscreteState`] and receive dense [`StateIndex`]es, so clients can keep
/// per-state data in plain vectors that grow in lockstep with
/// [`Explorer::len`].
#[derive(Clone, Debug)]
pub struct Explorer<'a> {
    system: &'a System,
    liveness: Liveness,
    max_bounds: Vec<i32>,
    states: Vec<ExploredState>,
    index: HashMap<DiscreteState, StateIndex>,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer with no interned states, reducing every state
    /// by `liveness`, the liveness of `system` under the game's objective.
    #[must_use]
    pub fn new(system: &'a System, liveness: Liveness) -> Self {
        Explorer {
            system,
            liveness,
            max_bounds: system.max_bounds(),
            states: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Number of interned discrete states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if no state has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// An interned state by index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn state(&self, idx: StateIndex) -> &ExploredState {
        &self.states[idx]
    }

    /// Interns a discrete state, computing its invariant and urgency on first
    /// sight.  The state is taken as given: the explorer's own states come
    /// reduced by its liveness, and so must any other.
    ///
    /// # Errors
    ///
    /// Returns an error if an invariant bound cannot be evaluated.
    pub fn intern(&mut self, discrete: DiscreteState) -> Result<StateIndex, ModelError> {
        if let Some(&idx) = self.index.get(&discrete) {
            return Ok(idx);
        }
        let invariant = self.system.invariant_zone(&discrete)?;
        let urgent = self.system.is_urgent(&discrete);
        let idx = self.states.len();
        self.states.push(ExploredState {
            discrete: discrete.clone(),
            invariant,
            urgent,
        });
        self.index.insert(discrete, idx);
        Ok(idx)
    }

    /// Interns the initial discrete state and returns it together with the
    /// delay-closed, extrapolated initial zone, its dead clocks freed — the
    /// root of any forward exploration.
    ///
    /// # Errors
    ///
    /// Propagates invariant evaluation errors.
    pub fn initial(&mut self) -> Result<(StateIndex, Dbm), ModelError> {
        // The initial store holds every variable's initial value already.
        let mut root = self.system.initial_exploration_state()?;
        self.liveness
            .free_dead_clocks(&root.discrete.locations, &mut root.zone);
        let idx = self.intern(root.discrete)?;
        Ok((idx, root.zone))
    }

    /// Enumerates the symbolic successors of `(source, zone)`: one
    /// [`CandidateStep`] per enabled joint edge whose delay-closed successor
    /// zone is non-empty.  Target states are not interned, so this can run
    /// on worker threads against a shared `&Explorer`.
    ///
    /// # Errors
    ///
    /// Propagates guard/update/invariant evaluation errors.
    pub fn successor_candidates(
        &self,
        source: StateIndex,
        zone: &Dbm,
    ) -> Result<Vec<CandidateStep>, ModelError> {
        let discrete = &self.states[source].discrete;
        let joint_edges = self.system.enabled_joint_edges(discrete)?;
        let mut steps = Vec::with_capacity(joint_edges.len());
        for joint in joint_edges {
            // `System::joint_successor_from` followed by
            // `System::delay_close`, with the target invariant evaluated
            // once — or not at all when the target is already interned —
            // and the target reduced by liveness.  Dead variables are
            // forgotten only after the range check, so an out-of-range
            // write still disables the edge.
            let Some(mut target) = self.system.apply_joint_discrete(discrete, &joint)? else {
                continue;
            };
            self.liveness.forget_dead_vars(&mut target);
            let mut succ = self.system.apply_joint_clocks(zone, discrete, &joint)?;
            if succ.is_empty() {
                continue;
            }
            let computed;
            let (invariant, urgent) = match self.index.get(&target) {
                Some(&idx) => (&self.states[idx].invariant, self.states[idx].urgent),
                None => {
                    computed = self.system.invariant_zone(&target)?;
                    (&computed, self.system.is_urgent(&target))
                }
            };
            if !System::close_within(&mut succ, invariant, urgent, &self.max_bounds) {
                continue;
            }
            self.liveness.free_dead_clocks(&target.locations, &mut succ);
            let controllable = self.system.is_controllable(&joint);
            steps.push(CandidateStep {
                joint,
                discrete: target,
                zone: succ,
                controllable,
            });
        }
        Ok(steps)
    }

    /// Consumes the explorer and returns the interned states, indexed by
    /// [`StateIndex`], the map from each discrete state to its index, and
    /// the liveness the states were reduced by.
    #[must_use]
    pub fn into_parts(
        self,
    ) -> (
        Vec<ExploredState>,
        HashMap<DiscreteState, StateIndex>,
        Liveness,
    ) {
        (self.states, self.index, self.liveness)
    }
}

impl System {
    /// Predecessor federation through a joint edge: the set of source-state
    /// valuations from which taking `je` lands inside some member zone of
    /// `target`.
    ///
    /// # Errors
    ///
    /// Propagates guard/reset/invariant evaluation errors from
    /// [`System::joint_pred_zone`].
    pub fn joint_pred_federation(
        &self,
        source: &DiscreteState,
        je: &JointEdge,
        target: &Federation,
    ) -> Result<Federation, ModelError> {
        let mut out = Federation::empty(self.dim());
        for zone in target {
            out.add_zone(self.joint_pred_zone(source, je, zone)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::ClockConstraint;
    use crate::builder::{AutomatonBuilder, EdgeBuilder, SystemBuilder};
    use crate::expr::CmpOp;

    /// Plant: Idle --go?--> Work (resets x, invariant x <= 5),
    /// Work --done!{x>=2}--> Idle; User closes the system.
    fn sample_system() -> System {
        let mut b = SystemBuilder::new("sample");
        let x = b.clock("x").unwrap();
        let go = b.input_channel("go").unwrap();
        let done = b.output_channel("done").unwrap();
        let mut plant = AutomatonBuilder::new("Plant");
        let idle = plant.location("Idle").unwrap();
        let work = plant.location("Work").unwrap();
        plant.set_invariant(work, vec![ClockConstraint::new(x, CmpOp::Le, 5)]);
        plant.add_edge(EdgeBuilder::new(idle, work).input(go).reset(x));
        plant.add_edge(
            EdgeBuilder::new(work, idle)
                .output(done)
                .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 2)),
        );
        b.add_automaton(plant.build().unwrap()).unwrap();
        let mut user = AutomatonBuilder::new("User");
        let u = user.location("U").unwrap();
        user.add_edge(EdgeBuilder::new(u, u).output(go));
        user.add_edge(EdgeBuilder::new(u, u).input(done));
        b.add_automaton(user.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn interning_is_idempotent_and_caches_invariants() {
        let sys = sample_system();
        let mut ex = Explorer::new(&sys, Liveness::new(&sys, &[], &[]));
        assert!(ex.is_empty());
        let (root, zone) = ex.initial().unwrap();
        assert_eq!(ex.len(), 1);
        assert!(!zone.is_empty());
        let again = ex.intern(sys.initial_discrete()).unwrap();
        assert_eq!(root, again);
        assert_eq!(ex.len(), 1);
        assert!(!ex.state(root).urgent);
        assert_eq!(ex.state(root).discrete, sys.initial_discrete());
        let (states, index, _) = ex.into_parts();
        assert_eq!(states.len(), 1);
        assert_eq!(index.get(&sys.initial_discrete()), Some(&root));
    }

    #[test]
    fn successors_are_delay_closed_and_intern_targets() {
        let sys = sample_system();
        let mut ex = Explorer::new(&sys, Liveness::new(&sys, &[], &[]));
        let (root, zone) = ex.initial().unwrap();
        let mut steps = ex.successor_candidates(root, &zone).unwrap();
        assert_eq!(steps.len(), 1);
        let step = steps.remove(0);
        assert!(step.controllable, "go? is a tester input");
        let target = ex.intern(step.discrete).unwrap();
        assert_ne!(target, root);
        assert_eq!(ex.len(), 2);
        // Delay-closed within the Work invariant x <= 5.
        assert!(step.zone.contains_scaled(&[0, 10]));
        assert!(!step.zone.contains_scaled(&[0, 11]));
        // The Work state's cached invariant agrees.
        let work = ex.state(target);
        assert!(work.invariant.contains_scaled(&[0, 10]));
        assert!(!work.invariant.contains_scaled(&[0, 11]));
    }

    #[test]
    fn pred_federation_inverts_successor_zones() {
        let sys = sample_system();
        let mut ex = Explorer::new(&sys, Liveness::new(&sys, &[], &[]));
        let (root, zone) = ex.initial().unwrap();
        let step = ex.successor_candidates(root, &zone).unwrap().remove(0);
        let target_fed = Federation::from_zone(step.zone.clone());
        let pred = sys
            .joint_pred_federation(&ex.state(root).discrete, &step.joint, &target_fed)
            .unwrap();
        // Every valuation of the root zone can take go? into the successor.
        for z in &Federation::from_zone(zone) {
            assert!(pred.includes_zone(z));
        }
    }
}
