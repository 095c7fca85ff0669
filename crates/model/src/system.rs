//! A system: a network of timed (I/O game) automata sharing clocks, discrete
//! variables and synchronization channels.
//!
//! A [`System`] is an immutable, shared value: it is never changed after
//! [`crate::SystemBuilder::build`], and a clone shares its declarations,
//! automata and compiled network instead of copying them.  A variant is a
//! new system: [`System::with_automaton`] swaps one automaton and shares
//! the others, and [`System::with_extra_clock`] adds a clock and shares
//! every automaton.

use crate::automaton::Automaton;
use crate::builder::check_automaton;
use crate::decl::{Channel, ClockDecl, VarTable};
use crate::error::ModelError;
use crate::ids::{AutomatonId, ChannelId, ClockId, LocationId};
use crate::network::Network;
use std::sync::Arc;

/// A complete model: global declarations plus a vector of automata composed
/// in parallel.
///
/// Systems are constructed through [`crate::SystemBuilder`]; the struct itself
/// is immutable, so analyses can borrow it freely, and cloning it is a
/// reference-count bump.
///
/// # Examples
///
/// ```
/// use tiga_model::{SystemBuilder, AutomatonBuilder, EdgeBuilder};
///
/// # fn main() -> Result<(), tiga_model::ModelError> {
/// let mut builder = SystemBuilder::new("demo");
/// let x = builder.clock("x")?;
/// let press = builder.input_channel("press")?;
///
/// let mut machine = AutomatonBuilder::new("Machine");
/// let idle = machine.location("Idle")?;
/// let busy = machine.location("Busy")?;
/// machine.set_initial(idle);
/// machine.add_edge(EdgeBuilder::new(idle, busy).input(press).reset(x));
/// builder.add_automaton(machine.build()?)?;
///
/// let system = builder.build()?;
/// assert_eq!(system.dim(), 2);
/// assert_eq!(system.automata().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct System {
    inner: Arc<SystemInner>,
}

/// The parts of a [`System`], shared by its clones.  The name and the
/// declarations are shared on their own as well, by the variants
/// [`System::with_automaton`] and [`System::with_extra_clock`] derive; each
/// sits where a `Vec` would, so reading them takes no extra step.
#[derive(Debug, PartialEq, Eq)]
struct SystemInner {
    name: Arc<str>,
    clocks: Arc<[ClockDecl]>,
    channels: Arc<[Channel]>,
    vars: VarTable,
    automata: Vec<Automaton>,
    /// The automata compiled for the hot paths (see [`Network`]); derived
    /// from the fields above when the system is built.
    network: Network,
}

impl System {
    /// Assembles a system from validated parts and compiles its network.
    pub(crate) fn new(
        name: impl Into<Arc<str>>,
        clocks: impl Into<Arc<[ClockDecl]>>,
        channels: impl Into<Arc<[Channel]>>,
        vars: VarTable,
        automata: Vec<Automaton>,
    ) -> Self {
        let network = Network::compile(&automata, &vars);
        System {
            inner: Arc::new(SystemInner {
                name: name.into(),
                clocks: clocks.into(),
                channels: channels.into(),
                vars,
                automata,
                network,
            }),
        }
    }

    /// System name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Declared clocks, in declaration order.
    #[must_use]
    pub fn clocks(&self) -> &[ClockDecl] {
        &self.inner.clocks
    }

    /// Declared channels, in declaration order.
    #[must_use]
    pub fn channels(&self) -> &[Channel] {
        &self.inner.channels
    }

    /// The discrete-variable table.
    #[must_use]
    pub fn vars(&self) -> &VarTable {
        &self.inner.vars
    }

    /// The automata composed in parallel.
    #[must_use]
    pub fn automata(&self) -> &[Automaton] {
        &self.inner.automata
    }

    /// The automata compiled for the hot paths.
    #[inline]
    pub(crate) fn network(&self) -> &Network {
        &self.inner.network
    }

    /// An automaton by identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this system.
    #[must_use]
    pub fn automaton(&self, id: AutomatonId) -> &Automaton {
        &self.automata()[id.index()]
    }

    /// A channel by identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this system.
    #[must_use]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels()[id.index()]
    }

    /// A clock declaration by identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this system.
    #[must_use]
    pub fn clock(&self, id: ClockId) -> &ClockDecl {
        &self.clocks()[id.index()]
    }

    /// DBM dimension: number of clocks plus one for the reference clock.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.clocks().len() + 1
    }

    /// Clock names in DBM order (excluding the reference clock), handy for
    /// zone pretty-printing.
    #[must_use]
    pub fn clock_names(&self) -> Vec<String> {
        self.clocks().iter().map(|c| c.name().to_string()).collect()
    }

    /// Looks up an automaton by name.
    #[must_use]
    pub fn automaton_by_name(&self, name: &str) -> Option<AutomatonId> {
        self.automata()
            .iter()
            .position(|a| a.name() == name)
            .map(AutomatonId::from_index)
    }

    /// Looks up a channel by name.
    #[must_use]
    pub fn channel_by_name(&self, name: &str) -> Option<ChannelId> {
        self.channels()
            .iter()
            .position(|c| c.name() == name)
            .map(ChannelId::from_index)
    }

    /// Looks up a clock by name.
    #[must_use]
    pub fn clock_by_name(&self, name: &str) -> Option<ClockId> {
        self.clocks()
            .iter()
            .position(|c| c.name() == name)
            .map(ClockId::from_index)
    }

    /// Looks up a location by `"Automaton.Location"` qualified name.
    #[must_use]
    pub fn location_by_qualified_name(&self, qualified: &str) -> Option<(AutomatonId, LocationId)> {
        let (aut_name, loc_name) = qualified.split_once('.')?;
        let aut = self.automaton_by_name(aut_name)?;
        let loc = self.automaton(aut).location_by_name(loc_name)?;
        Some((aut, loc))
    }

    /// Per-clock maximal constants used for extrapolation during forward
    /// exploration (index 0 is the reference clock and stays 0).
    ///
    /// Constants are collected from every guard and invariant; bounds that
    /// depend on variables are over-approximated from the variable ranges.
    #[must_use]
    pub fn max_bounds(&self) -> Vec<i32> {
        let mut max = vec![0i64; self.dim()];
        let mut bump = |clock: ClockId, value: i64| {
            let slot = &mut max[clock.dbm_index()];
            if value > *slot {
                *slot = value;
            }
        };
        for aut in self.automata() {
            for loc in aut.locations() {
                for c in &loc.invariant {
                    let m = c.max_constant(self.vars());
                    bump(c.left, m);
                    if let Some(r) = c.minus {
                        bump(r, m);
                    }
                }
            }
            for edge in aut.edges() {
                for c in &edge.guard.clocks {
                    let m = c.max_constant(self.vars());
                    bump(c.left, m);
                    if let Some(r) = c.minus {
                        bump(r, m);
                    }
                }
                for r in &edge.resets {
                    if let Some(v) = r.value.as_constant() {
                        bump(r.clock, v.abs());
                    }
                }
            }
        }
        for (i, c) in self.clocks().iter().enumerate() {
            let slot = &mut max[i + 1];
            let floor = i64::from(c.max_constant_floor());
            if floor > *slot {
                *slot = floor;
            }
        }
        max.into_iter()
            .map(|m| i32::try_from(m).unwrap_or(i32::MAX / 8))
            .collect()
    }

    /// Returns a copy of the system extended with one fresh, never-reset
    /// clock whose extrapolation constant is at least `max_constant`.
    ///
    /// No location, edge or invariant mentions the new clock, so the
    /// augmented system has exactly the same behaviour — the clock merely
    /// measures global elapsed time.  This is how time-bounded objectives
    /// (`control: A<><=T φ`) are lowered: the solver runs the ordinary
    /// unbounded fixpoint on the augmented system and intersects the goal
    /// (or bad-state) seeds with `new_clock <= T`.
    ///
    /// Existing [`crate::ClockId`]s remain valid in the augmented system,
    /// and zones over it have [`System::dim`]` + 1` dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if a clock named `name` already
    /// exists, and [`ModelError::Invalid`] if `max_constant` is negative or
    /// exceeds [`tiga_dbm::MAX_CONSTANT`].
    pub fn with_extra_clock(
        &self,
        name: &str,
        max_constant: i32,
    ) -> Result<(System, ClockId), ModelError> {
        if self.clocks().iter().any(|c| c.name() == name) {
            return Err(ModelError::DuplicateName(name.to_string()));
        }
        if !(0..=tiga_dbm::MAX_CONSTANT).contains(&max_constant) {
            return Err(ModelError::Invalid(format!(
                "extrapolation constant {max_constant} for clock `{name}` outside 0..={}",
                tiga_dbm::MAX_CONSTANT
            )));
        }
        let id = ClockId::from_index(self.clocks().len());
        let clock = ClockDecl::with_max_constant(name, max_constant);
        let clocks: Arc<[ClockDecl]> = self.clocks().iter().cloned().chain([clock]).collect();
        let inner = &self.inner;
        let sys = System::new(
            Arc::clone(&inner.name),
            clocks,
            Arc::clone(&inner.channels),
            inner.vars.clone(),
            self.automata().to_vec(),
        );
        Ok((sys, id))
    }

    /// Returns a copy of the system in which automaton `id` is replaced by
    /// `automaton`; the name, the declarations and every other automaton
    /// are shared, and the network is compiled anew.
    ///
    /// This is how a mutation campaign derives a mutant from its plant:
    /// only the mutated automaton is rebuilt.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`crate::SystemBuilder::add_automaton`], from
    /// the same checks: [`ModelError::DuplicateName`] if another automaton
    /// has the same name, and [`ModelError::InvalidReference`] if the
    /// automaton refers to clocks, channels, variables or locations this
    /// system or the automaton does not declare, or if `id` is not one of
    /// the system's automata.
    pub fn with_automaton(
        &self,
        id: AutomatonId,
        automaton: Automaton,
    ) -> Result<System, ModelError> {
        let mut automata = self.automata().to_vec();
        if id.index() >= automata.len() {
            return Err(ModelError::InvalidReference(format!(
                "automaton #{} of {}",
                id.index(),
                self.name()
            )));
        }
        let others = self.automata().iter().enumerate();
        let others = others.filter(|&(i, _)| i != id.index()).map(|(_, a)| a);
        check_automaton(
            &automaton,
            others,
            self.clocks(),
            self.channels(),
            self.vars(),
        )?;
        automata[id.index()] = automaton;
        let inner = &self.inner;
        Ok(System::new(
            Arc::clone(&inner.name),
            Arc::clone(&inner.clocks),
            Arc::clone(&inner.channels),
            inner.vars.clone(),
            automata,
        ))
    }

    /// Total number of locations across all automata (a rough size measure
    /// reported by solver statistics).
    #[must_use]
    pub fn location_count(&self) -> usize {
        self.automata().iter().map(|a| a.locations().len()).sum()
    }

    /// Total number of edges across all automata.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.automata().iter().map(|a| a.edges().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::ClockConstraint;
    use crate::builder::{AutomatonBuilder, EdgeBuilder, SystemBuilder};
    use crate::expr::CmpOp;

    fn tiny_system() -> System {
        let mut b = SystemBuilder::new("tiny");
        let x = b.clock("x").unwrap();
        let y = b.clock("y").unwrap();
        let go = b.input_channel("go").unwrap();
        let done = b.output_channel("done").unwrap();
        let _n = b.int_var("n", 0, 3, 0).unwrap();

        let mut a = AutomatonBuilder::new("Proc");
        let idle = a.location("Idle").unwrap();
        let work = a.location("Work").unwrap();
        a.set_initial(idle);
        a.set_invariant(work, vec![ClockConstraint::new(x, CmpOp::Le, 5)]);
        a.add_edge(
            EdgeBuilder::new(idle, work)
                .input(go)
                .guard_clock(ClockConstraint::new(y, CmpOp::Ge, 2))
                .reset(x),
        );
        a.add_edge(EdgeBuilder::new(work, idle).output(done));
        let aut = a.build().unwrap();

        let mut env = AutomatonBuilder::new("Env");
        let e0 = env.location("E0").unwrap();
        env.set_initial(e0);
        env.add_edge(EdgeBuilder::new(e0, e0).output(go));
        env.add_edge(EdgeBuilder::new(e0, e0).input(done));
        let envaut = env.build().unwrap();

        b.add_automaton(aut).unwrap();
        b.add_automaton(envaut).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lookups_by_name() {
        let sys = tiny_system();
        assert_eq!(sys.dim(), 3);
        assert!(sys.automaton_by_name("Proc").is_some());
        assert!(sys.automaton_by_name("Nope").is_none());
        assert!(sys.channel_by_name("go").is_some());
        assert!(sys.clock_by_name("y").is_some());
        let (aut, loc) = sys.location_by_qualified_name("Proc.Work").unwrap();
        assert_eq!(sys.automaton(aut).location(loc).name, "Work");
        assert!(sys.location_by_qualified_name("Proc.Nowhere").is_none());
        assert!(sys.location_by_qualified_name("NoDot").is_none());
        assert_eq!(sys.clock_names(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn max_bounds_cover_guards_and_invariants() {
        let sys = tiny_system();
        let bounds = sys.max_bounds();
        // Reference clock.
        assert_eq!(bounds[0], 0);
        // x bounded by the invariant x <= 5.
        assert_eq!(bounds[sys.clock_by_name("x").unwrap().dbm_index()], 5);
        // y bounded by the guard y >= 2.
        assert_eq!(bounds[sys.clock_by_name("y").unwrap().dbm_index()], 2);
    }

    #[test]
    fn with_extra_clock_extends_dim_and_extrapolation() {
        let sys = tiny_system();
        let (aug, tick) = sys.with_extra_clock("#t", 42).unwrap();
        assert_eq!(aug.dim(), sys.dim() + 1);
        assert_eq!(aug.clock(tick).name(), "#t");
        // Existing clock ids keep their meaning.
        assert_eq!(aug.clock_by_name("x"), sys.clock_by_name("x"));
        // The extrapolation bound covers the new clock even though no
        // constraint mentions it.
        let bounds = aug.max_bounds();
        assert_eq!(bounds[tick.dbm_index()], 42);
        // Old clocks are unaffected.
        assert_eq!(bounds[aug.clock_by_name("x").unwrap().dbm_index()], 5);
        // Behaviour-level structure is untouched.
        assert_eq!(aug.edge_count(), sys.edge_count());
        assert!(std::ptr::eq(aug.channels(), sys.channels()));
        assert!(std::ptr::eq(
            aug.vars().iter().as_slice(),
            sys.vars().iter().as_slice()
        ));

        assert!(matches!(
            aug.with_extra_clock("#t", 1),
            Err(ModelError::DuplicateName(_))
        ));
        assert!(matches!(
            sys.with_extra_clock("#u", -1),
            Err(ModelError::Invalid(_))
        ));
        assert!(matches!(
            sys.with_extra_clock("#u", i32::MAX),
            Err(ModelError::Invalid(_))
        ));
    }

    /// `tiny_system`'s declarations, without its automata.
    fn tiny_declarations() -> SystemBuilder {
        let mut b = SystemBuilder::new("tiny");
        b.clock("x").unwrap();
        b.clock("y").unwrap();
        b.input_channel("go").unwrap();
        b.output_channel("done").unwrap();
        b.int_var("n", 0, 3, 0).unwrap();
        b
    }

    /// `tiny_system` without its `Proc` automaton.
    fn tiny_builder_without_proc() -> SystemBuilder {
        let mut b = tiny_declarations();
        b.add_automaton(tiny_system().automata()[1].clone())
            .unwrap();
        b
    }

    #[test]
    fn with_automaton_swaps_one_automaton_and_shares_the_rest() {
        let sys = tiny_system();
        let proc_id = sys.automaton_by_name("Proc").unwrap();
        let mut a = AutomatonBuilder::new("Proc");
        let idle = a.location("Idle").unwrap();
        a.add_edge(EdgeBuilder::new(idle, idle).output(sys.channel_by_name("done").unwrap()));
        let small = a.build().unwrap();
        let swapped = sys.with_automaton(proc_id, small.clone()).unwrap();
        assert_eq!(swapped.automaton(proc_id), &small);
        assert_eq!(swapped.automata()[1], sys.automata()[1]);
        // The name and the declarations are the plant's, not copies.
        assert!(std::ptr::eq(swapped.name(), sys.name()));
        assert!(std::ptr::eq(swapped.clocks(), sys.clocks()));
        assert!(std::ptr::eq(swapped.channels(), sys.channels()));
        assert!(std::ptr::eq(
            swapped.vars().iter().as_slice(),
            sys.vars().iter().as_slice()
        ));
        // The same system from the builder, network included.
        let mut b = tiny_declarations();
        b.add_automaton(small).unwrap();
        b.add_automaton(sys.automata()[1].clone()).unwrap();
        assert_eq!(swapped, b.build().unwrap());
        // Swapping the old automaton back in restores the system.
        let restored = swapped.with_automaton(proc_id, sys.automaton(proc_id).clone());
        assert_eq!(restored.unwrap(), sys);
    }

    #[test]
    fn with_automaton_refuses_what_add_automaton_refuses() {
        let sys = tiny_system();
        let proc_id = sys.automaton_by_name("Proc").unwrap();
        let (idle, work) = (LocationId::from_index(0), LocationId::from_index(1));
        let edge = |e: EdgeBuilder| {
            let mut a = AutomatonBuilder::new("Proc");
            a.location("Idle").unwrap();
            a.location("Work").unwrap();
            a.add_edge(e);
            a.build().unwrap()
        };
        let undeclared_clock = ClockId::from_index(2);
        let mut bad_invariant = AutomatonBuilder::new("Proc");
        let l = bad_invariant.location("Idle").unwrap();
        bad_invariant.add_invariant(l, ClockConstraint::new(undeclared_clock, CmpOp::Le, 3));
        let mut duplicate = AutomatonBuilder::new("Env");
        duplicate.location("E0").unwrap();
        let bad = [
            bad_invariant.build().unwrap(),
            edge(
                EdgeBuilder::new(idle, work).guard_clock(ClockConstraint::diff(
                    ClockId::from_index(0),
                    undeclared_clock,
                    CmpOp::Ge,
                    1,
                )),
            ),
            edge(EdgeBuilder::new(idle, work).reset(undeclared_clock)),
            edge(EdgeBuilder::new(idle, work).input(ChannelId::from_index(2))),
            edge(EdgeBuilder::new(idle, work).set(crate::ids::VarId::from_index(1), 0)),
            // An edge past the last location: `AutomatonBuilder::build`
            // refuses it, so it is assembled directly.
            Automaton::new(
                "Proc".to_string(),
                vec![crate::automaton::Location::new("Idle")],
                idle,
                vec![EdgeBuilder::new(idle, work).build()],
            ),
            duplicate.build().unwrap(),
        ];
        for automaton in bad {
            let from_builder = tiny_builder_without_proc()
                .add_automaton(automaton.clone())
                .expect_err("the builder refuses it");
            let from_swap = sys
                .with_automaton(proc_id, automaton)
                .expect_err("the swap refuses it");
            assert_eq!(from_swap, from_builder);
        }
        // Keeping its own name is no clash, and an id past the last
        // automaton is refused.
        let same = sys.with_automaton(proc_id, sys.automaton(proc_id).clone());
        assert_eq!(same.unwrap(), sys);
        assert!(matches!(
            sys.with_automaton(AutomatonId::from_index(2), sys.automata()[0].clone()),
            Err(ModelError::InvalidReference(_))
        ));
    }

    #[test]
    fn size_measures() {
        let sys = tiny_system();
        assert_eq!(sys.location_count(), 3);
        assert_eq!(sys.edge_count(), 4);
        assert_eq!(sys.name(), "tiny");
        assert_eq!(sys.channels().len(), 2);
        assert_eq!(sys.vars().len(), 1);
    }
}
