//! Shared symbolic-exploration engine.
//!
//! Both solver engines explore the game forward through the same
//! primitives: interning of discrete states and enumeration of
//! delay-closed symbolic successors.  [`Explorer`] packages them behind
//! one implementation so the two cannot drift apart.
//!
//! States are interned in a [`StateStore`]: packed into words, found
//! through a keyed SipHash of those words, and numbered densely in
//! discovery order.  The explorer keeps one [`Invariant`] (the invariant
//! zone and the urgency flag) per distinct invariant key, not per state:
//! the key is the state's packed location vector when every invariant of
//! its locations is pre-decoded, and the whole packed state otherwise, when
//! a bound reads variables.  Successors are computed on the system's
//! compiled network (see [`System`]'s symbolic semantics): the joint edges
//! come from the per-location edge index, guards and updates from the
//! pre-decoded atoms, and successor zones are delay-closed within the
//! target invariant — conjoined bound by bound with incremental
//! `constrain`s when it is constant — and extrapolated with the system's
//! maximal constants, exactly as [`System::delay_close`] prescribes.
//! Every state is then reduced by the game's [`Liveness`]: the dead
//! variables of each target take their initial values again, and its dead
//! clocks are freed.
//!
//! [`Explorer::successor_candidates`] builds each target in one scratch
//! state, packs it and looks it up once; a new target with a non-empty
//! successor zone is interned right there, so every candidate carries its
//! target's [`StateIndex`].  The solve runs on one thread and computes
//! candidates in discovery order, so the indices are those of interning
//! each target when it is discovered.  [`Explorer::into_parts`] hands the
//! store and the invariants to the explored graph without copying them.

use crate::error::ModelError;
use crate::liveness::Liveness;
use crate::store::{PackedSet, StateIndex, StateStore};
use crate::symbolic::{DiscreteState, JointEdge};
use crate::system::System;
use tiga_dbm::{Dbm, Federation};

/// Dense index of an [`Invariant`] inside an [`Explorer`].
pub type InvariantId = usize;

/// The invariant shared by the interned states with one invariant key.
#[derive(Clone, Debug)]
pub struct Invariant {
    /// Conjunction of the location invariants, as a zone.
    pub zone: Dbm,
    /// Whether some location is urgent (no delay allowed).
    pub urgent: bool,
}

/// One symbolic successor step, returned by
/// [`Explorer::successor_candidates`].
#[derive(Clone, Debug)]
pub struct CandidateStep {
    /// The joint (composed) model edge taken.
    pub joint: JointEdge,
    /// The interned target discrete state.
    pub target: StateIndex,
    /// Delay-closed, extrapolated successor zone with the target's dead
    /// clocks freed (never empty).
    pub zone: Dbm,
    /// Whether the step is a controllable (tester) move.
    pub controllable: bool,
}

/// The parts of an [`Explorer`] an explored graph keeps: the interned
/// states, each state's invariant id, the invariants and the liveness the
/// states were reduced by.
pub type ExploredParts = (StateStore, Vec<InvariantId>, Vec<Invariant>, Liveness);

/// Incremental symbolic explorer over a [`System`].
///
/// States receive dense [`StateIndex`]es on first sight, so clients can
/// keep per-state data in plain vectors that grow in lockstep with
/// [`Explorer::len`].
#[derive(Clone, Debug)]
pub struct Explorer<'a> {
    system: &'a System,
    liveness: Liveness,
    max_bounds: Vec<i32>,
    store: StateStore,
    /// The invariant of each interned state.
    invariant_of: Vec<InvariantId>,
    /// The invariant keys, numbered like `invariants`.
    invariant_keys: PackedSet,
    invariants: Vec<Invariant>,
    /// Scratch: the unpacked source and target of a successor walk, and
    /// the packed target and its invariant key.
    source: DiscreteState,
    target: DiscreteState,
    packed: Vec<u64>,
    key: Vec<u64>,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer with no interned states, reducing every state
    /// by `liveness`, the liveness of `system` under the game's objective.
    #[must_use]
    pub fn new(system: &'a System, liveness: Liveness) -> Self {
        let store = StateStore::new(system);
        let words = store.layout().words();
        Explorer {
            system,
            liveness,
            max_bounds: system.max_bounds(),
            store,
            invariant_of: Vec::new(),
            invariant_keys: PackedSet::new(words),
            invariants: Vec::new(),
            source: DiscreteState::default(),
            target: DiscreteState::default(),
            packed: vec![0; words],
            key: vec![0; words],
        }
    }

    /// Number of interned discrete states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` if no state has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The interned states.
    #[must_use]
    pub fn store(&self) -> &StateStore {
        &self.store
    }

    /// The invariant id of an interned state.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn invariant_id(&self, idx: StateIndex) -> InvariantId {
        self.invariant_of[idx]
    }

    /// The invariants, indexed by [`InvariantId`]: one per distinct key.
    #[must_use]
    pub fn invariants(&self) -> &[Invariant] {
        &self.invariants
    }

    /// The invariant of an interned state.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn invariant(&self, idx: StateIndex) -> &Invariant {
        &self.invariants[self.invariant_of[idx]]
    }

    /// Interns a discrete state, finding or computing its invariant on
    /// first sight.  The state is taken as given: the explorer's own states
    /// come reduced by its liveness, and so must any other.
    ///
    /// # Errors
    ///
    /// Returns an error if the state does not pack (a value outside its
    /// declared range) or an invariant bound cannot be evaluated.
    pub fn intern(&mut self, discrete: &DiscreteState) -> Result<StateIndex, ModelError> {
        self.store.layout().pack(discrete, &mut self.packed)?;
        match self.store.lookup(&self.packed) {
            Ok(idx) => Ok(idx),
            Err(vacant) => {
                let invariant = self.invariant_for(discrete)?;
                self.invariant_of.push(invariant);
                Ok(self.store.insert(vacant, &self.packed))
            }
        }
    }

    /// The invariant id of `discrete`, whose words are in `self.packed`,
    /// computing the invariant when its key is new.
    fn invariant_for(&mut self, discrete: &DiscreteState) -> Result<InvariantId, ModelError> {
        self.key.copy_from_slice(&self.packed);
        if self
            .system
            .network()
            .invariant_is_decoded(&discrete.locations)
        {
            self.store.layout().keep_locations(&mut self.key);
        }
        match self.invariant_keys.lookup(&self.key) {
            Ok(id) => Ok(id),
            Err(vacant) => {
                let zone = self.system.invariant_zone(discrete)?;
                let urgent = self.system.is_urgent(discrete);
                self.invariants.push(Invariant { zone, urgent });
                Ok(self.invariant_keys.insert(vacant, &self.key))
            }
        }
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
        let idx = self.intern(&root.discrete)?;
        Ok((idx, root.zone))
    }

    /// Enumerates the symbolic successors of `(source, zone)`: one
    /// [`CandidateStep`] per enabled joint edge whose delay-closed successor
    /// zone is non-empty.  Each such target is interned as it is found.
    ///
    /// # Errors
    ///
    /// Propagates guard/update/invariant evaluation errors.
    pub fn successor_candidates(
        &mut self,
        source: StateIndex,
        zone: &Dbm,
    ) -> Result<Vec<CandidateStep>, ModelError> {
        let system = self.system;
        let mut discrete = std::mem::take(&mut self.source);
        let mut target = std::mem::take(&mut self.target);
        self.store.decode(source, &mut discrete);
        let mut steps = Vec::new();
        // The joint edges are walked, not collected.  After the first
        // successor error only the enumeration goes on: an error of a later
        // data guard still comes first, as when every guard was evaluated
        // before any successor.
        let mut failed = None;
        let walk = system.try_for_each_joint_edge(&discrete, |joint| {
            if failed.is_none() {
                match self.candidate(&discrete, zone, joint, &mut target) {
                    Ok(Some(step)) => steps.push(step),
                    Ok(None) => {}
                    Err(e) => failed = Some(e),
                }
            }
            Ok(false)
        });
        self.source = discrete;
        self.target = target;
        walk?;
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
    /// edge.  A new target is interned only once its zone is known to be
    /// non-empty.
    fn candidate(
        &mut self,
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
        self.store.layout().pack(target, &mut self.packed)?;
        let found = self.store.lookup(&self.packed);
        let invariant = match found {
            Ok(idx) => self.invariant_of[idx],
            Err(_) => self.invariant_for(target)?,
        };
        let Invariant { zone: inv, urgent } = &self.invariants[invariant];
        if !self
            .system
            .close_within(&mut succ, target, Some(inv), *urgent, &self.max_bounds)?
        {
            return Ok(None);
        }
        let target_idx = match found {
            Ok(idx) => idx,
            Err(vacant) => {
                self.invariant_of.push(invariant);
                self.store.insert(vacant, &self.packed)
            }
        };
        self.liveness.free_dead_clocks(&target.locations, &mut succ);
        let controllable = self.system.is_controllable(&joint);
        Ok(Some(CandidateStep {
            joint,
            target: target_idx,
            zone: succ,
            controllable,
        }))
    }

    /// Consumes the explorer and returns the interned states, each state's
    /// invariant id, the invariants and the liveness the states were
    /// reduced by.
    #[must_use]
    pub fn into_parts(self) -> ExploredParts {
        (
            self.store,
            self.invariant_of,
            self.invariants,
            self.liveness,
        )
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
        let again = ex.intern(&sys.initial_discrete()).unwrap();
        assert_eq!(root, again);
        assert_eq!(ex.len(), 1);
        assert!(!ex.invariant(root).urgent);
        let mut decoded = DiscreteState::default();
        ex.store().decode(root, &mut decoded);
        assert_eq!(decoded, sys.initial_discrete());
        let (store, invariant_of, invariants, _) = ex.into_parts();
        assert_eq!(
            (store.len(), invariant_of.len(), invariants.len()),
            (1, 1, 1)
        );
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
        assert_ne!(step.target, root);
        assert_eq!(ex.len(), 2, "the Work state is interned with its step");
        // Delay-closed within the Work invariant x <= 5.
        assert!(step.zone.contains_scaled(&[0, 10]));
        assert!(!step.zone.contains_scaled(&[0, 11]));
        // The Work state's cached invariant agrees.
        let work = &ex.invariant(step.target).zone;
        assert!(work.contains_scaled(&[0, 10]));
        assert!(!work.contains_scaled(&[0, 11]));
        // Idle and Work have different invariants.
        assert_eq!(ex.invariants().len(), 2);
    }

    #[test]
    fn pred_federation_inverts_successor_zones() {
        let sys = sample_system();
        let mut ex = Explorer::new(&sys, Liveness::new(&sys, &[], &[]));
        let (root, zone) = ex.initial().unwrap();
        let step = ex.successor_candidates(root, &zone).unwrap().remove(0);
        let target_fed = Federation::from_zone(step.zone.clone());
        let mut source = DiscreteState::default();
        ex.store().decode(root, &mut source);
        let pred = sys
            .joint_pred_federation(&source, &step.joint, &target_fed)
            .unwrap();
        // Every valuation of the root zone can take go? into the successor.
        for z in &Federation::from_zone(zone) {
            assert!(pred.includes_zone(z));
        }
    }
}
