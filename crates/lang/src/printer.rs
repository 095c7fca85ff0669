//! Pretty-printer: any in-memory [`System`] back to `.tg` source.
//!
//! The printer is the inverse of the parse→lower pipeline and maintains the
//! round-trip invariant pinned by `tests/roundtrip.rs`:
//!
//! ```text
//! parse(print(sys)) ≡ sys      (structural equality on `System`)
//! ```
//!
//! The key choices that make the inverse exact:
//!
//! * declarations are emitted in declaration order, so index-based
//!   identifiers are reassigned identically on re-parse;
//! * expressions, including those of a programmatic objective, go through
//!   the one printer of `tiga-tctl` ([`expr_to_tg`]), which parenthesizes
//!   fully and prints negative constants as literals;
//! * names that collide with `.tg` keywords or connectives, or are not
//!   identifiers, are quoted — on the `control:` line too — and the lexer
//!   maps them back to the same string.

use std::fmt::Write as _;
use tiga_model::{
    Assignment, Automaton, ChannelKind, ClockConstraint, ClockReset, Edge, Expr, Sync, System,
};
use tiga_tctl::{expr_to_tg, quoted, TestPurpose};

/// Renders a system (and optional objective) as `.tg` source.
///
/// The output parses back (see [`crate::parse_model`]) to a system that is
/// structurally equal to `system`, with the objective preserved verbatim.
#[must_use]
pub fn print_system(system: &System, purpose: Option<&TestPurpose>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "system {}", quoted(system.name()));

    if !system.clocks().is_empty() {
        out.push('\n');
        for clock in system.clocks() {
            let _ = writeln!(out, "clock {}", quoted(clock.name()));
        }
    }
    if !system.channels().is_empty() {
        out.push('\n');
        for channel in system.channels() {
            let keyword = match channel.kind() {
                ChannelKind::Input => "input",
                ChannelKind::Output => "output",
                ChannelKind::Internal => "internal",
            };
            let _ = writeln!(out, "{keyword} {}", quoted(channel.name()));
        }
    }
    if !system.vars().is_empty() {
        out.push('\n');
        for decl in system.vars() {
            if !decl.is_array() && decl.lower() == decl.upper() && decl.initial() == decl.lower() {
                let _ = writeln!(out, "const {} = {}", quoted(decl.name()), decl.initial());
            } else if decl.is_array() {
                let _ = writeln!(
                    out,
                    "var {}[{}]: int[{}, {}] = {}",
                    quoted(decl.name()),
                    decl.size(),
                    decl.lower(),
                    decl.upper(),
                    decl.initial()
                );
            } else {
                let _ = writeln!(
                    out,
                    "var {}: int[{}, {}] = {}",
                    quoted(decl.name()),
                    decl.lower(),
                    decl.upper(),
                    decl.initial()
                );
            }
        }
    }

    for automaton in system.automata() {
        out.push('\n');
        print_automaton(&mut out, automaton, system);
    }

    if let Some(purpose) = purpose {
        out.push('\n');
        let _ = writeln!(out, "{}", control_line_for(purpose, system));
    }
    out
}

/// The `control:` line for an objective: its original source when it was
/// parsed from text.  Programmatic purposes (empty `source`) render through
/// the structural `Display` (quantifier, bound and predicate with index-based
/// names); use [`control_line_for`] when the line must re-parse against a
/// specific system.
#[must_use]
pub fn control_line(purpose: &TestPurpose) -> String {
    if purpose.source.is_empty() {
        purpose.to_string()
    } else {
        purpose.source.clone()
    }
}

/// The `control:` line for an objective, reconstructed from the resolved
/// predicate (and time bound, if any) when the purpose was built
/// programmatically (no source text), so the printed file re-parses.
#[must_use]
pub fn control_line_for(purpose: &TestPurpose, system: &System) -> String {
    if purpose.source.is_empty() {
        purpose.display(system).to_string()
    } else {
        purpose.source.clone()
    }
}

fn print_automaton(out: &mut String, automaton: &Automaton, system: &System) {
    let _ = writeln!(out, "automaton {} {{", quoted(automaton.name()));
    for (idx, location) in automaton.locations().iter().enumerate() {
        let init = if automaton.initial().index() == idx {
            "init "
        } else {
            ""
        };
        let urgent = if location.urgent { "urgent " } else { "" };
        let _ = write!(out, "    {init}{urgent}location {}", quoted(&location.name));
        if location.invariant.is_empty() {
            out.push('\n');
        } else {
            let _ = writeln!(
                out,
                " {{ inv {} }}",
                constraint_list(&location.invariant, system)
            );
        }
    }
    for edge in automaton.edges() {
        print_edge(out, edge, automaton, system);
    }
    out.push_str("}\n");
}

fn print_edge(out: &mut String, edge: &Edge, automaton: &Automaton, system: &System) {
    let _ = write!(
        out,
        "    edge {} -> {}",
        quoted(&automaton.location(edge.source).name),
        quoted(&automaton.location(edge.target).name)
    );
    match edge.sync {
        Sync::Tau => {}
        Sync::Input(ch) => {
            let _ = write!(out, " on {}?", quoted(system.channel(ch).name()));
        }
        Sync::Output(ch) => {
            let _ = write!(out, " on {}!", quoted(system.channel(ch).name()));
        }
    }
    let mut clauses: Vec<String> = Vec::new();
    if !edge.guard.clocks.is_empty() {
        clauses.push(format!(
            "guard {}",
            constraint_list(&edge.guard.clocks, system)
        ));
    }
    if let Some(data) = &edge.guard.data {
        clauses.push(format!("when {}", expr_to_tg(data, system.vars())));
    }
    for ClockReset { clock, value } in &edge.resets {
        let name = quoted(system.clock(*clock).name());
        if matches!(value, Expr::Const(0)) {
            clauses.push(format!("reset {name}"));
        } else {
            clauses.push(format!(
                "reset {name} := {}",
                expr_to_tg(value, system.vars())
            ));
        }
    }
    for Assignment {
        target,
        index,
        value,
    } in &edge.updates
    {
        let name = quoted(system.vars().decl(*target).name());
        match index {
            None => clauses.push(format!(
                "set {name} := {}",
                expr_to_tg(value, system.vars())
            )),
            Some(index) => clauses.push(format!(
                "set {name}[{}] := {}",
                expr_to_tg(index, system.vars()),
                expr_to_tg(value, system.vars())
            )),
        }
    }
    match edge.controllable {
        None => {}
        Some(true) => clauses.push("controllable".to_string()),
        Some(false) => clauses.push("uncontrollable".to_string()),
    }
    if clauses.is_empty() {
        out.push('\n');
    } else {
        let _ = writeln!(out, " {{ {} }}", clauses.join("; "));
    }
}

fn constraint_list(constraints: &[ClockConstraint], system: &System) -> String {
    constraints
        .iter()
        .map(|c| constraint_to_tg(c, system))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders a clock constraint in re-parseable `.tg` syntax.
#[must_use]
pub fn constraint_to_tg(c: &ClockConstraint, system: &System) -> String {
    let left = quoted(system.clock(c.left).name());
    let bound = expr_to_tg(&c.bound, system.vars());
    match c.minus {
        None => format!("{left} {} {bound}", c.op),
        Some(minus) => format!(
            "{left} - {} {} {bound}",
            quoted(system.clock(minus).name()),
            c.op
        ),
    }
}
