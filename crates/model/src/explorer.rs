//! Shared symbolic-exploration engine.
//!
//! Both solver engines explore the game forward through the same
//! primitives: hashing-based interning of discrete states and enumeration
//! of delay-closed symbolic successors.  [`Explorer`] packages them behind
//! one implementation so the two cannot drift apart.
//!
//! The explorer caches, per interned discrete state, the derived data every
//! client recomputed before this module existed: the invariant zone and the
//! urgency flag.  Successors are computed on the system's compiled network
//! (see [`System`]'s symbolic semantics): the joint edges come from the
//! per-location edge index, guards and updates from the pre-decoded atoms,
//! and successor zones are delay-closed within the target invariant —
//! conjoined bound by bound with incremental `constrain`s when it is
//! constant — and extrapolated with the system's maximal constants, exactly
//! as [`System::delay_close`] prescribes.  Every state is then reduced by
//! the game's [`Liveness`]: the dead variables of each target take their
//! initial values again, and its dead clocks are freed.
//!
//! [`Explorer::successor_candidates`] builds each target in one scratch
//! state and looks it up once.  A target that is already interned comes
//! back as its [`StateIndex`] ([`CandidateTarget::Known`]): it is neither
//! copied nor hashed again when it is discovered.  A new target comes back
//! as the state itself ([`CandidateTarget::New`]), so callers can compute
//! the candidates of a whole batch and intern the new targets afterwards in
//! a fixed order.  The lookup reads the index as it stood before the batch.
//! [`Explorer::into_parts`] hands the interned states and their index to
//! the explored graph without copying them.  The index stays on the
//! standard library's keyed SipHash: `tiga serve` explores models sent by
//! untrusted clients.

use crate::error::ModelError;
use crate::liveness::Liveness;
use crate::symbolic::{DiscreteState, JointEdge};
use crate::system::System;
use std::collections::hash_map::Entry;
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

/// The target of a [`CandidateStep`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CandidateTarget {
    /// The target was already interned when the candidate was computed.
    Known(StateIndex),
    /// A target not interned yet, its dead variables forgotten (intern it
    /// to obtain a [`StateIndex`]).
    New(DiscreteState),
}

/// One symbolic successor step, returned by
/// [`Explorer::successor_candidates`].
///
/// The read-only candidate computation is the expensive part of forward
/// exploration (guard evaluation, successor zones, delay closure); keeping
/// it free of interning lets callers run it for many `(state, zone)` pairs
/// and intern the new targets afterwards, in a deterministic merge order.
#[derive(Clone, Debug)]
pub struct CandidateStep {
    /// The joint (composed) model edge taken.
    pub joint: JointEdge,
    /// The target discrete state: its index when it was already interned,
    /// else the state itself.
    pub target: CandidateTarget,
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
        let vacant = match self.index.entry(discrete) {
            Entry::Occupied(known) => return Ok(*known.get()),
            Entry::Vacant(vacant) => vacant,
        };
        let invariant = self.system.invariant_zone(vacant.key())?;
        let urgent = self.system.is_urgent(vacant.key());
        let idx = self.states.len();
        self.states.push(ExploredState {
            discrete: vacant.key().clone(),
            invariant,
            urgent,
        });
        vacant.insert(idx);
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
    /// zone is non-empty.  New target states are not interned, so this runs
    /// against a shared `&Explorer`.
    ///
    /// Each target is built in one scratch state and looked up once: an
    /// interned target travels as its [`StateIndex`], and only a new one
    /// is copied out.
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
        let mut steps = Vec::new();
        let mut target = discrete.clone();
        // The joint edges are walked, not collected.  After the first
        // successor error only the enumeration goes on: an error of a later
        // data guard still comes first, as when every guard was evaluated
        // before any successor.
        let mut failed = None;
        self.system.try_for_each_joint_edge(discrete, |joint| {
            if failed.is_none() {
                match self.candidate(discrete, zone, joint, &mut target) {
                    Ok(Some(step)) => steps.push(step),
                    Ok(None) => {}
                    Err(e) => failed = Some(e),
                }
            }
            Ok(false)
        })?;
        match failed {
            Some(e) => Err(e),
            None => Ok(steps),
        }
    }

    /// The candidate step of `joint` from `(discrete, zone)`, if its
    /// successor zone is non-empty, with the target built in `target`:
    /// `System::joint_successor_from` followed by `System::delay_close`,
    /// the target reduced by liveness.  Dead variables are forgotten only
    /// after the range check, so an out-of-range write still disables the
    /// edge.
    fn candidate(
        &self,
        discrete: &DiscreteState,
        zone: &Dbm,
        joint: JointEdge,
        target: &mut DiscreteState,
    ) -> Result<Option<CandidateStep>, ModelError> {
        target.clone_from(discrete);
        if !self.system.apply_joint_in_place(target, &joint)? {
            return Ok(None);
        }
        self.liveness.forget_dead_vars(target);
        let mut succ = zone.clone();
        if !self
            .system
            .apply_joint_clocks(&mut succ, discrete, &joint)?
        {
            return Ok(None);
        }
        let known = self.index.get(&*target).copied();
        let (invariant, urgent) = match known {
            Some(idx) => (Some(&self.states[idx].invariant), self.states[idx].urgent),
            None => (None, self.system.is_urgent(target)),
        };
        if !self
            .system
            .close_within(&mut succ, target, invariant, urgent, &self.max_bounds)?
        {
            return Ok(None);
        }
        self.liveness.free_dead_clocks(&target.locations, &mut succ);
        let controllable = self.system.is_controllable(&joint);
        Ok(Some(CandidateStep {
            joint,
            target: match known {
                Some(idx) => CandidateTarget::Known(idx),
                None => CandidateTarget::New(target.clone()),
            },
            zone: succ,
            controllable,
        }))
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
        let CandidateTarget::New(discrete) = step.target else {
            panic!("the Work state is not interned yet");
        };
        let target = ex.intern(discrete).unwrap();
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
