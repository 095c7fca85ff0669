//! Lowering: resolved construction of a [`System`] from a [`FileAst`].
//!
//! All name resolution happens here, against the declarations collected from
//! the file, and every failure is reported with the [`Span`] of the offending
//! name.  Expressions resolve through [`tiga_tctl::Resolver`], the resolver
//! the `control:` objective goes through too once the system is built.

use crate::ast::{AutomatonAst, ChannelKindAst, ConstraintAst, EdgeAst, FileAst, Spanned};
use std::collections::HashMap;
use tiga_model::{
    AutomatonBuilder, ChannelId, ClockConstraint, ClockId, EdgeBuilder, Expr, LocationId,
    ModelError, System, SystemBuilder,
};
use tiga_tctl::{LangError, Resolver, Span, TestPurpose, MAX_ARRAY_SIZE};

/// Default system name when the file has no `system` header.
pub const DEFAULT_SYSTEM_NAME: &str = "system";

/// A fully lowered `.tg` file: the built system plus the optional objective.
#[derive(Clone, Debug)]
pub struct TgModel {
    /// The constructed system.
    pub system: System,
    /// The parsed `control:` objective, if the file has one.
    pub purpose: Option<TestPurpose>,
}

/// Clocks and channels by name, shared by all automata of a file; the
/// variables are the builder's.
struct Scope {
    clocks: HashMap<String, ClockId>,
    channels: HashMap<String, ChannelId>,
    /// The largest clock constant the file may use (see [`constant_limit`]).
    max_constant: i64,
}

impl Scope {
    fn clock(&self, name: &Spanned<String>) -> Result<ClockId, LangError> {
        self.clocks
            .get(&name.node)
            .copied()
            .ok_or_else(|| LangError::lower(format!("unknown clock `{}`", name.node), name.span))
    }

    /// Refuses a constant clock bound or reset value beyond
    /// [`Scope::max_constant`]; bounds that read variables are checked when
    /// they are evaluated.
    fn check_constant(&self, value: &Expr, span: Span) -> Result<(), LangError> {
        match value.as_constant() {
            Some(m) if m.unsigned_abs() > self.max_constant.unsigned_abs() => {
                Err(LangError::lower(
                    format!(
                        "clock constant {m} is too large: this model allows at most {}",
                        self.max_constant
                    ),
                    span,
                ))
            }
            _ => Ok(()),
        }
    }

    fn channel(&self, name: &Spanned<String>) -> Result<ChannelId, LangError> {
        self.channels
            .get(&name.node)
            .copied()
            .ok_or_else(|| LangError::lower(format!("unknown channel `{}`", name.node), name.span))
    }

    /// The error for a data-expression name that no `var` or `const`
    /// declares.
    fn unknown_var(&self, name: &str, span: Span) -> LangError {
        let hint = if self.clocks.contains_key(name) {
            " (clocks cannot appear in data expressions; use `guard`/`inv` constraints)"
        } else {
            ""
        };
        LangError::lower(format!("unknown variable `{name}`{hint}"), span)
    }
}

fn model_err(e: &ModelError, span: Span) -> LangError {
    LangError::lower(e.to_string(), span)
}

/// Lowers a parsed file onto the model builders.
///
/// # Errors
///
/// Returns a span-carrying [`LangError`] for unresolved names, duplicate
/// declarations, invalid ranges, missing initial locations and objective
/// errors.
pub fn lower_file(file: &FileAst) -> Result<TgModel, LangError> {
    let name = file
        .system_name
        .as_ref()
        .map_or(DEFAULT_SYSTEM_NAME, |n| n.node.as_str());
    let mut builder = SystemBuilder::new(name);
    let mut scope = Scope {
        clocks: HashMap::new(),
        channels: HashMap::new(),
        max_constant: constant_limit(file),
    };
    if let Some(t) = file.control.as_ref().and_then(|c| c.bound.as_ref()) {
        if t.node > scope.max_constant {
            return Err(LangError::lower(
                format!(
                    "time bound {} is too large: this model allows at most {}",
                    t.node, scope.max_constant
                ),
                t.span,
            ));
        }
    }

    for clock in &file.clocks {
        let id = builder
            .clock(&clock.node)
            .map_err(|e| model_err(&e, clock.span))?;
        scope.clocks.insert(clock.node.clone(), id);
    }
    for (kind, channel) in &file.channels {
        let id = match kind {
            ChannelKindAst::Input => builder.input_channel(&channel.node),
            ChannelKindAst::Output => builder.output_channel(&channel.node),
            ChannelKindAst::Internal => builder.internal_channel(&channel.node),
        }
        .map_err(|e| model_err(&e, channel.span))?;
        scope.channels.insert(channel.node.clone(), id);
    }
    for var in &file.vars {
        match &var.size {
            None => builder.int_var(&var.name.node, var.lower, var.upper, var.initial),
            Some(size) => {
                if size.node <= 0 {
                    return Err(LangError::lower(
                        format!("array `{}` must have a positive size", var.name.node),
                        size.span,
                    ));
                }
                // Sanity cap: the flattened store materializes `size` i64
                // slots, so an absurd size from untrusted input must become
                // a diagnostic, not an allocation.
                if size.node > MAX_ARRAY_SIZE {
                    return Err(LangError::lower(
                        format!(
                            "array `{}` has size {} (the maximum is {MAX_ARRAY_SIZE})",
                            var.name.node, size.node
                        ),
                        size.span,
                    ));
                }
                builder.int_array(
                    &var.name.node,
                    usize::try_from(size.node).expect("positive size fits usize"),
                    var.lower,
                    var.upper,
                    var.initial,
                )
            }
        }
        .map_err(|e| model_err(&e, var.span))?;
    }

    if file.automata.is_empty() {
        let span = file.system_name.as_ref().map_or(Span::at(0), |n| n.span);
        return Err(LangError::lower(
            "a .tg file must declare at least one automaton",
            span,
        ));
    }
    for automaton in &file.automata {
        let unknown = |name: &str, span| scope.unknown_var(name, span);
        let resolver = Resolver::clause(builder.vars(), &unknown);
        let lowered = lower_automaton(automaton, &scope, &resolver)?;
        builder
            .add_automaton(lowered)
            .map_err(|e| model_err(&e, automaton.name.span))?;
    }
    let system = builder.build().map_err(|e| model_err(&e, Span::at(0)))?;

    let purpose = match &file.control {
        None => None,
        Some(control) => Some(control.resolve(&system)?),
    };
    Ok(TgModel { system, purpose })
}

/// The largest clock constant (and time bound) of a file: the encoding's
/// limit for its clocks, counting the clock a time bound adds
/// ([`tiga_model::max_constant_for`]).  Beyond it, the zones of a solve can
/// saturate, and their strategy files would not parse back.
fn constant_limit(file: &FileAst) -> i64 {
    let bounded = file.control.as_ref().is_some_and(|c| c.bound.is_some());
    i64::from(tiga_model::max_constant_for(
        file.clocks.len() + usize::from(bounded),
    ))
}

fn lower_automaton(
    automaton: &AutomatonAst,
    scope: &Scope,
    resolver: &Resolver<'_>,
) -> Result<tiga_model::Automaton, LangError> {
    let mut builder = AutomatonBuilder::new(&automaton.name.node);
    let mut locations: HashMap<&str, LocationId> = HashMap::new();
    let mut initial: Option<(&str, Span)> = None;
    for loc in &automaton.locations {
        let id = builder
            .location(&loc.name.node)
            .map_err(|e| model_err(&e, loc.name.span))?;
        locations.insert(&loc.name.node, id);
        if loc.init {
            if let Some((first, _)) = initial {
                return Err(LangError::lower(
                    format!(
                        "automaton `{}` has two `init` locations (`{first}` and `{}`)",
                        automaton.name.node, loc.name.node
                    ),
                    loc.name.span,
                ));
            }
            initial = Some((&loc.name.node, loc.name.span));
            builder.set_initial(id);
        }
        if loc.urgent {
            builder.set_urgent(id);
        }
        let invariant = loc
            .invariant
            .iter()
            .map(|c| lower_constraint(c, scope, resolver))
            .collect::<Result<Vec<_>, _>>()?;
        builder.set_invariant(id, invariant);
    }
    for edge in &automaton.edges {
        let edge = lower_edge(edge, &locations, scope, resolver, &automaton.name.node)?;
        builder.add_edge(edge);
    }
    builder
        .build()
        .map_err(|e| model_err(&e, automaton.name.span))
}

fn lower_edge(
    edge: &EdgeAst,
    locations: &HashMap<&str, LocationId>,
    scope: &Scope,
    resolver: &Resolver<'_>,
    automaton: &str,
) -> Result<tiga_model::Edge, LangError> {
    let resolve = |name: &Spanned<String>| -> Result<LocationId, LangError> {
        locations.get(name.node.as_str()).copied().ok_or_else(|| {
            LangError::lower(
                format!(
                    "unknown location `{}` in automaton `{automaton}`",
                    name.node
                ),
                name.span,
            )
        })
    };
    let mut b = EdgeBuilder::new(resolve(&edge.source)?, resolve(&edge.target)?);
    if let Some(sync) = &edge.sync {
        let channel = scope.channel(&sync.channel)?;
        b = if sync.receive {
            b.input(channel)
        } else {
            b.output(channel)
        };
    }
    for constraint in &edge.guard {
        b = b.guard_clock(lower_constraint(constraint, scope, resolver)?);
    }
    for when in &edge.when {
        b = b.when(resolver.expr(when)?);
    }
    for reset in &edge.resets {
        let clock = scope.clock(&reset.clock)?;
        b = match &reset.value {
            None => b.reset(clock),
            Some(value) => {
                let value_expr = resolver.expr(value)?;
                scope.check_constant(&value_expr, value.span)?;
                b.reset_to(clock, value_expr)
            }
        };
    }
    for update in &edge.updates {
        let (target, index) = resolver.target(&update.target, update.index.as_ref())?;
        let value = resolver.expr(&update.value)?;
        b = match index {
            None => b.set(target, value),
            Some(index) => b.set_element(target, index, value),
        };
    }
    if let Some(controllable) = edge.controllable {
        b = b.controllable(controllable);
    }
    Ok(b.build())
}

fn lower_constraint(
    c: &ConstraintAst,
    scope: &Scope,
    resolver: &Resolver<'_>,
) -> Result<ClockConstraint, LangError> {
    let left = scope.clock(&c.left)?;
    let bound = resolver.expr(&c.bound)?;
    scope.check_constant(&bound, c.bound.span)?;
    Ok(match &c.minus {
        None => ClockConstraint::new(left, c.op, bound),
        Some(minus) => ClockConstraint::diff(left, scope.clock(minus)?, c.op, bound),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use tiga_model::{ChannelKind, CmpOp, Sync};

    fn lower(src: &str) -> Result<TgModel, LangError> {
        lower_file(&parse_file(src)?)
    }

    #[test]
    fn lowers_a_complete_system() {
        let src = r#"
system "demo"
clock x
input press
output done
const LIMIT = 3
var count: int[0, 10] = 0
var slots[2]: int[0, 1] = 0

automaton M {
    init location Idle
    location Busy { inv x <= 3 }
    edge Idle -> Busy on press? {
        guard x >= 1;
        when (count < LIMIT);
        reset x;
        set count := (count + 1);
        set slots[0] := 1
    }
    edge Busy -> Idle on done!
    edge Busy -> Busy { controllable }
}
control: A<> M.Busy
"#;
        let model = lower(src).unwrap();
        let sys = &model.system;
        assert_eq!(sys.name(), "demo");
        assert_eq!(sys.clocks().len(), 1);
        assert_eq!(sys.channels().len(), 2);
        assert_eq!(sys.channels()[0].kind(), ChannelKind::Input);
        assert_eq!(sys.vars().len(), 3);
        let m = &sys.automata()[0];
        assert_eq!(m.locations().len(), 2);
        assert_eq!(m.location(m.initial()).name, "Idle");
        assert_eq!(m.edges().len(), 3);
        let e0 = &m.edges()[0];
        assert!(matches!(e0.sync, Sync::Input(_)));
        assert_eq!(e0.guard.clocks.len(), 1);
        assert_eq!(e0.guard.clocks[0].op, CmpOp::Ge);
        assert!(e0.guard.data.is_some());
        assert_eq!(e0.resets.len(), 1);
        assert_eq!(e0.updates.len(), 2);
        assert_eq!(m.edges()[2].controllable, Some(true));
        assert!(model.purpose.is_some());
    }

    #[test]
    fn unknown_names_point_at_their_spans() {
        let src = "automaton A { init location L edge L -> L { guard y >= 1 } }";
        let err = lower(src).unwrap_err();
        assert!(err.message.contains("unknown clock `y`"), "{err}");
        assert_eq!(&src[err.span.start..err.span.end], "y");

        let src = "automaton A { init location L edge L -> M }";
        let err = lower(src).unwrap_err();
        assert!(err.message.contains("unknown location `M`"), "{err}");

        let src = "automaton A { init location L edge L -> L on zap? }";
        let err = lower(src).unwrap_err();
        assert!(err.message.contains("unknown channel `zap`"), "{err}");

        let src = "clock x\nautomaton A { init location L edge L -> L { when x > 1 } }";
        let err = lower(src).unwrap_err();
        assert!(err.message.contains("clocks cannot appear"), "{err}");
    }

    #[test]
    fn structural_errors_are_reported() {
        let err = lower("clock x").unwrap_err();
        assert!(err.message.contains("at least one automaton"), "{err}");

        let err = lower("clock x\nclock x\nautomaton A { init location L }").unwrap_err();
        assert!(err.message.to_lowercase().contains("duplicate"), "{err}");

        let src = "automaton A { init location L init location M }";
        let err = lower(src).unwrap_err();
        assert!(err.message.contains("two `init` locations"), "{err}");

        let src = "var v: int[5, 3] = 4\nautomaton A { init location L }";
        let err = lower(src).unwrap_err();
        assert!(err.message.contains("range"), "{err}");
    }

    #[test]
    fn control_line_errors_map_into_the_tg_source() {
        let src = "automaton A { init location L }\ncontrol: A<> B.Nowhere\n";
        let err = lower(src).unwrap_err();
        assert!(err.message.contains("resolve"), "{err}");
        assert_eq!(&src[err.span.start..err.span.end], "B.Nowhere");

        let src = "automaton A { init location L edge L -> L { when A.L } }";
        let err = lower(src).unwrap_err();
        assert!(
            err.message.contains("only appear in the `control:`"),
            "{err}"
        );
        assert_eq!(&src[err.span.start..err.span.end], "A.L");
    }

    #[test]
    fn first_location_is_initial_without_init_marker() {
        let model = lower("automaton A { location L location M }").unwrap();
        let a = &model.system.automata()[0];
        assert_eq!(a.location(a.initial()).name, "L");
    }
}
