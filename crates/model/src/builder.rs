//! Fluent builders for systems, automata and edges.
//!
//! The builders are the public way of constructing models programmatically
//! (the reproduction does not parse UPPAAL XML).  They perform the structural
//! validation that keeps later analyses panic-free: unique names, resolved
//! identifiers, declared initial locations.

use crate::automaton::{
    Assignment, Automaton, ClockConstraint, ClockReset, Edge, Guard, Location, Sync,
};
use crate::decl::{Channel, ChannelKind, ClockDecl, VarTable};
use crate::error::ModelError;
use crate::expr::Expr;
use crate::ids::{AutomatonId, ChannelId, ClockId, LocationId, VarId};
use crate::system::System;

/// Builder for a [`System`].
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Default)]
pub struct SystemBuilder {
    name: String,
    clocks: Vec<ClockDecl>,
    channels: Vec<Channel>,
    vars: VarTable,
    automata: Vec<Automaton>,
}

impl SystemBuilder {
    /// Starts building a system with the given name.
    #[must_use]
    pub fn new(name: &str) -> Self {
        SystemBuilder {
            name: name.to_string(),
            ..SystemBuilder::default()
        }
    }

    /// Declares a clock.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if a clock with this name exists.
    pub fn clock(&mut self, name: &str) -> Result<ClockId, ModelError> {
        if self.clocks.iter().any(|c| c.name() == name) {
            return Err(ModelError::DuplicateName(name.to_string()));
        }
        self.clocks.push(ClockDecl::new(name));
        Ok(ClockId::from_index(self.clocks.len() - 1))
    }

    fn channel(&mut self, name: &str, kind: ChannelKind) -> Result<ChannelId, ModelError> {
        if self.channels.iter().any(|c| c.name() == name) {
            return Err(ModelError::DuplicateName(name.to_string()));
        }
        self.channels.push(Channel::new(name, kind));
        Ok(ChannelId::from_index(self.channels.len() - 1))
    }

    /// Declares an input channel (controllable: offered by the tester).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] on name clashes.
    pub fn input_channel(&mut self, name: &str) -> Result<ChannelId, ModelError> {
        self.channel(name, ChannelKind::Input)
    }

    /// Declares an output channel (uncontrollable: produced by the plant).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] on name clashes.
    pub fn output_channel(&mut self, name: &str) -> Result<ChannelId, ModelError> {
        self.channel(name, ChannelKind::Output)
    }

    /// Declares an internal channel (controllability taken from the edges).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] on name clashes.
    pub fn internal_channel(&mut self, name: &str) -> Result<ChannelId, ModelError> {
        self.channel(name, ChannelKind::Internal)
    }

    /// Declares a bounded integer variable.
    ///
    /// # Errors
    ///
    /// See [`VarTable::declare`].
    pub fn int_var(
        &mut self,
        name: &str,
        lower: i64,
        upper: i64,
        initial: i64,
    ) -> Result<VarId, ModelError> {
        self.vars.declare(name, 1, lower, upper, initial)
    }

    /// Declares a bounded integer array with `size` elements.
    ///
    /// # Errors
    ///
    /// See [`VarTable::declare`].
    pub fn int_array(
        &mut self,
        name: &str,
        size: usize,
        lower: i64,
        upper: i64,
        initial: i64,
    ) -> Result<VarId, ModelError> {
        self.vars.declare(name, size, lower, upper, initial)
    }

    /// Declares a named integer constant (a variable with a singleton range).
    ///
    /// # Errors
    ///
    /// See [`VarTable::declare`].
    pub fn constant(&mut self, name: &str, value: i64) -> Result<VarId, ModelError> {
        self.vars.declare(name, 1, value, value, value)
    }

    /// Adds a fully built automaton to the system.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if another automaton has the same
    /// name, or [`ModelError::InvalidReference`] if the automaton refers to
    /// clocks, channels or variables not declared on this builder.
    pub fn add_automaton(&mut self, automaton: Automaton) -> Result<AutomatonId, ModelError> {
        check_automaton(
            &automaton,
            &self.automata,
            &self.clocks,
            &self.channels,
            &self.vars,
        )?;
        self.automata.push(automaton);
        Ok(AutomatonId::from_index(self.automata.len() - 1))
    }

    /// Finalizes the system.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Invalid`] if the system has no automaton.
    pub fn build(self) -> Result<System, ModelError> {
        if self.automata.is_empty() {
            return Err(ModelError::Invalid("system has no automaton".to_string()));
        }
        Ok(System::new(
            self.name,
            self.clocks,
            self.channels,
            self.vars,
            self.automata,
        ))
    }

    /// Read access to the variable table while still building (useful for
    /// defining expressions that reference earlier declarations).
    #[must_use]
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }
}

/// Checks that `automaton` may join a system with these declarations next
/// to the automata `others`: its name is not taken, and every clock,
/// channel, variable and location it refers to is declared.
///
/// # Errors
///
/// Returns [`ModelError::DuplicateName`] if one of `others` has the same
/// name, and [`ModelError::InvalidReference`] for an undeclared reference.
pub(crate) fn check_automaton<'a>(
    automaton: &Automaton,
    others: impl IntoIterator<Item = &'a Automaton>,
    clocks: &[ClockDecl],
    channels: &[Channel],
    vars: &VarTable,
) -> Result<(), ModelError> {
    if others.into_iter().any(|a| a.name() == automaton.name()) {
        return Err(ModelError::DuplicateName(automaton.name().to_string()));
    }
    // The error context is rendered only when a check fails: mutation
    // campaigns check an automaton per mutant.
    let check_clock = |clock: ClockId, ctx: &dyn Fn() -> String| -> Result<(), ModelError> {
        if clock.index() >= clocks.len() {
            return Err(ModelError::InvalidReference(format!("clock in {}", ctx())));
        }
        Ok(())
    };
    let check_constraints =
        |cs: &[ClockConstraint], ctx: &dyn Fn() -> String| -> Result<(), ModelError> {
            for c in cs {
                check_clock(c.left, ctx)?;
                if let Some(r) = c.minus {
                    check_clock(r, ctx)?;
                }
            }
            Ok(())
        };
    let n_locs = automaton.locations().len();
    for loc in automaton.locations() {
        check_constraints(&loc.invariant, &|| format!("invariant of {}", loc.name))?;
    }
    for (idx, edge) in automaton.edges().iter().enumerate() {
        let ctx = || format!("edge #{idx} of {}", automaton.name());
        if edge.source.index() >= n_locs || edge.target.index() >= n_locs {
            return Err(ModelError::InvalidReference(ctx()));
        }
        if let Some(ch) = edge.sync.channel() {
            if ch.index() >= channels.len() {
                return Err(ModelError::InvalidReference(format!(
                    "channel in {}",
                    ctx()
                )));
            }
        }
        check_constraints(&edge.guard.clocks, &ctx)?;
        for r in &edge.resets {
            check_clock(r.clock, &ctx)?;
        }
        for u in &edge.updates {
            if u.target.index() >= vars.len() {
                return Err(ModelError::InvalidReference(format!(
                    "variable in {}",
                    ctx()
                )));
            }
        }
    }
    Ok(())
}

/// Builder for a single [`Automaton`].
#[derive(Debug)]
pub struct AutomatonBuilder {
    name: String,
    locations: Vec<Location>,
    initial: Option<LocationId>,
    edges: Vec<Edge>,
}

impl AutomatonBuilder {
    /// Starts building an automaton with the given name.
    #[must_use]
    pub fn new(name: &str) -> Self {
        AutomatonBuilder {
            name: name.to_string(),
            locations: Vec::new(),
            initial: None,
            edges: Vec::new(),
        }
    }

    /// Declares a location.
    ///
    /// The first declared location becomes the initial location unless
    /// [`AutomatonBuilder::set_initial`] chooses another one.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] on name clashes within the
    /// automaton.
    pub fn location(&mut self, name: &str) -> Result<LocationId, ModelError> {
        if self.locations.iter().any(|l| l.name == name) {
            return Err(ModelError::DuplicateName(format!("{}.{}", self.name, name)));
        }
        self.locations.push(Location::new(name));
        let id = LocationId::from_index(self.locations.len() - 1);
        if self.initial.is_none() {
            self.initial = Some(id);
        }
        Ok(id)
    }

    /// Chooses the initial location.
    pub fn set_initial(&mut self, loc: LocationId) -> &mut Self {
        self.initial = Some(loc);
        self
    }

    /// Sets (replaces) the invariant of a location.
    ///
    /// # Panics
    ///
    /// Panics if the location does not belong to this builder.
    pub fn set_invariant(&mut self, loc: LocationId, invariant: Vec<ClockConstraint>) -> &mut Self {
        self.locations[loc.index()].invariant = invariant;
        self
    }

    /// Adds one constraint to the invariant of a location.
    ///
    /// # Panics
    ///
    /// Panics if the location does not belong to this builder.
    pub fn add_invariant(&mut self, loc: LocationId, constraint: ClockConstraint) -> &mut Self {
        self.locations[loc.index()].invariant.push(constraint);
        self
    }

    /// Marks a location as urgent (time cannot elapse there).
    ///
    /// # Panics
    ///
    /// Panics if the location does not belong to this builder.
    pub fn set_urgent(&mut self, loc: LocationId) -> &mut Self {
        self.locations[loc.index()].urgent = true;
        self
    }

    /// Adds an edge.
    pub fn add_edge(&mut self, edge: impl Into<Edge>) -> &mut Self {
        self.edges.push(edge.into());
        self
    }

    /// Finalizes the automaton.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingInitialLocation`] for an automaton with no
    /// location, and [`ModelError::InvalidReference`] if an edge refers to a
    /// location that was not declared.
    pub fn build(self) -> Result<Automaton, ModelError> {
        let initial = self
            .initial
            .ok_or_else(|| ModelError::MissingInitialLocation(self.name.clone()))?;
        let n = self.locations.len();
        for edge in &self.edges {
            if edge.source.index() >= n || edge.target.index() >= n {
                return Err(ModelError::InvalidReference(format!(
                    "edge of automaton {}",
                    self.name
                )));
            }
        }
        Ok(Automaton::new(
            self.name,
            self.locations,
            initial,
            self.edges,
        ))
    }
}

/// Builder for an [`Edge`].
///
/// The builder starts as an internal (`tau`) edge with a trivially true guard
/// and no resets or updates; the chainable methods refine it.
#[derive(Clone, Debug)]
pub struct EdgeBuilder {
    edge: Edge,
}

impl EdgeBuilder {
    /// Starts an edge from `source` to `target`.
    #[must_use]
    pub fn new(source: LocationId, target: LocationId) -> Self {
        EdgeBuilder {
            edge: Edge {
                source,
                target,
                sync: Sync::Tau,
                guard: Guard::always(),
                resets: Vec::new(),
                updates: Vec::new(),
                controllable: None,
            },
        }
    }

    /// Labels the edge with a receiving synchronization `channel?`.
    #[must_use]
    pub fn input(mut self, channel: ChannelId) -> Self {
        self.edge.sync = Sync::Input(channel);
        self
    }

    /// Labels the edge with an emitting synchronization `channel!`.
    #[must_use]
    pub fn output(mut self, channel: ChannelId) -> Self {
        self.edge.sync = Sync::Output(channel);
        self
    }

    /// Adds a clock constraint to the guard.
    #[must_use]
    pub fn guard_clock(mut self, constraint: ClockConstraint) -> Self {
        self.edge.guard.clocks.push(constraint);
        self
    }

    /// Conjoins a data guard over the discrete variables.
    #[must_use]
    pub fn when(mut self, condition: Expr) -> Self {
        self.edge.guard.data = Some(match self.edge.guard.data.take() {
            None => condition,
            Some(existing) => existing.and(condition),
        });
        self
    }

    /// Resets a clock to zero.
    #[must_use]
    pub fn reset(mut self, clock: ClockId) -> Self {
        self.edge.resets.push(ClockReset::to_zero(clock));
        self
    }

    /// Resets a clock to the value of an expression.
    #[must_use]
    pub fn reset_to(mut self, clock: ClockId, value: impl Into<Expr>) -> Self {
        self.edge.resets.push(ClockReset::to_value(clock, value));
        self
    }

    /// Assigns a scalar variable.
    #[must_use]
    pub fn set(mut self, var: VarId, value: impl Into<Expr>) -> Self {
        self.edge.updates.push(Assignment::set(var, value));
        self
    }

    /// Assigns an array element.
    #[must_use]
    pub fn set_element(
        mut self,
        var: VarId,
        index: impl Into<Expr>,
        value: impl Into<Expr>,
    ) -> Self {
        self.edge
            .updates
            .push(Assignment::set_element(var, index, value));
        self
    }

    /// Overrides the controllability of a `tau` edge (sync edges inherit the
    /// channel's kind).
    #[must_use]
    pub fn controllable(mut self, controllable: bool) -> Self {
        self.edge.controllable = Some(controllable);
        self
    }

    /// Finishes the edge.
    #[must_use]
    pub fn build(self) -> Edge {
        self.edge
    }
}

impl From<EdgeBuilder> for Edge {
    fn from(b: EdgeBuilder) -> Edge {
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    #[test]
    fn duplicate_declarations_rejected() {
        let mut b = SystemBuilder::new("s");
        b.clock("x").unwrap();
        assert!(matches!(b.clock("x"), Err(ModelError::DuplicateName(_))));
        b.input_channel("a").unwrap();
        assert!(matches!(
            b.output_channel("a"),
            Err(ModelError::DuplicateName(_))
        ));
        b.int_var("v", 0, 1, 0).unwrap();
        assert!(matches!(
            b.int_var("v", 0, 1, 0),
            Err(ModelError::DuplicateName(_))
        ));
    }

    #[test]
    fn automaton_requires_location() {
        let a = AutomatonBuilder::new("A");
        assert!(matches!(
            a.build(),
            Err(ModelError::MissingInitialLocation(_))
        ));
    }

    #[test]
    fn first_location_is_default_initial() {
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        let _l1 = a.location("L1").unwrap();
        let aut = a.build().unwrap();
        assert_eq!(aut.initial(), l0);
    }

    #[test]
    fn duplicate_location_rejected() {
        let mut a = AutomatonBuilder::new("A");
        a.location("L0").unwrap();
        assert!(matches!(
            a.location("L0"),
            Err(ModelError::DuplicateName(_))
        ));
    }

    #[test]
    fn edge_with_unknown_location_rejected() {
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        a.add_edge(EdgeBuilder::new(l0, LocationId::from_index(7)));
        assert!(matches!(a.build(), Err(ModelError::InvalidReference(_))));
    }

    #[test]
    fn system_validates_foreign_references() {
        let mut b = SystemBuilder::new("s");
        let _x = b.clock("x").unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        // Guard refers to a clock index that does not exist in the system.
        a.add_edge(EdgeBuilder::new(l0, l0).guard_clock(ClockConstraint::new(
            ClockId::from_index(5),
            CmpOp::Ge,
            1,
        )));
        let aut = a.build().unwrap();
        assert!(matches!(
            b.add_automaton(aut),
            Err(ModelError::InvalidReference(_))
        ));
    }

    #[test]
    fn system_needs_an_automaton() {
        let b = SystemBuilder::new("empty");
        assert!(matches!(b.build(), Err(ModelError::Invalid(_))));
    }

    #[test]
    fn duplicate_automaton_names_rejected() {
        let mut b = SystemBuilder::new("s");
        let mut a1 = AutomatonBuilder::new("A");
        a1.location("L").unwrap();
        let mut a2 = AutomatonBuilder::new("A");
        a2.location("L").unwrap();
        b.add_automaton(a1.build().unwrap()).unwrap();
        assert!(matches!(
            b.add_automaton(a2.build().unwrap()),
            Err(ModelError::DuplicateName(_))
        ));
    }

    #[test]
    fn edge_builder_accumulates_guard_and_effects() {
        let mut b = SystemBuilder::new("s");
        let x = b.clock("x").unwrap();
        let c = b.input_channel("c").unwrap();
        let v = b.int_var("v", 0, 5, 0).unwrap();
        let mut a = AutomatonBuilder::new("A");
        let l0 = a.location("L0").unwrap();
        let l1 = a.location("L1").unwrap();
        let edge: Edge = EdgeBuilder::new(l0, l1)
            .input(c)
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, 2))
            .when(Expr::var(v).lt(Expr::constant(5)))
            .when(Expr::var(v).ge(Expr::constant(0)))
            .reset(x)
            .set(v, Expr::var(v) + Expr::constant(1))
            .into();
        assert_eq!(edge.sync, Sync::Input(c));
        assert_eq!(edge.guard.clocks.len(), 1);
        assert!(edge.guard.data.is_some());
        assert_eq!(edge.resets.len(), 1);
        assert_eq!(edge.updates.len(), 1);
        a.add_edge(EdgeBuilder::new(l0, l1));
        let aut = a.build().unwrap();
        b.add_automaton(aut).unwrap();
        assert!(b.build().is_ok());
    }
}
