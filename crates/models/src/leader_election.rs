//! The Leader Election Protocol (LEP) case study of the paper's Section 4.
//!
//! The protocol elects the node with the lowest address as the leader by
//! message passing.  Following the paper, the model has three parts:
//!
//! * **IUT** — one arbitrary protocol node as the plant (a TIOGA): it
//!   receives messages, forwards strictly better (lower) addresses, and
//!   announces a `timeout!` after waiting [`T_WAIT`] time units (with up to
//!   [`PROC_TIME`] of timing uncertainty) without useful information —
//!   uncontrollable outputs with timing uncertainty;
//! * **Buffer** — a bounded message buffer of capacity `n` (the `inUse[i]`
//!   array of the paper's TP2/TP3);
//! * **Env** — the chaotic environment consisting of all other nodes, which
//!   may inject messages with arbitrary addresses and absorbs the IUT's
//!   announcements.
//!
//! The model is parametric in the number of nodes `n`: the buffer has `n`
//! slots and message addresses range over `0 .. n-1` with the IUT holding the
//! worst address `n-1` (the paper bounds the distance between nodes by
//! `n-1`).
//!
//! ### Substitution note
//!
//! The paper's exact UPPAAL model is not published; this reconstruction keeps
//! the documented ingredients (uncontrollable `timeout!` within a time frame,
//! `betterInfo`/`forward` bookkeeping, a capacity-`n` buffer with `inUse[]`,
//! chaotic other nodes) so that the three test purposes TP1–TP3 are
//! well-defined and the state space grows with `n` in the same qualitative
//! way as Table 1.  Message values are chosen by the environment at delivery
//! time (value-passing is expanded into per-value channels `deliver0`,
//! `deliver1`, …), which keeps the implementation black-box testable.

use tiga_model::{
    AutomatonBuilder, ChannelId, ClockConstraint, CmpOp, EdgeBuilder, Expr, ModelError, System,
    SystemBuilder,
};

/// Time a node waits for useful information before announcing a timeout.
pub const T_WAIT: i64 = 10;
/// Processing deadline (and timing uncertainty window) for reactions.
pub const PROC_TIME: i64 = 2;
/// Minimum spacing between injections of the chaotic environment.
pub const ENV_PACE: i64 = 1;

/// Configuration of the parametric LEP model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LepConfig {
    /// Number of protocol nodes (buffer capacity and address range).
    pub nodes: usize,
    /// Whether the buffer stores the address carried by every message
    /// (the *detailed* variant).  The abstract variant only tracks slot
    /// occupancy and lets the chaotic environment choose the delivered
    /// address, which keeps the state space small; the detailed variant
    /// restores the explosive growth of the paper's Table 1.
    pub track_values: bool,
}

impl LepConfig {
    /// Creates the abstract-buffer configuration with `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` (the protocol needs at least two nodes).
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 2, "the protocol needs at least two nodes");
        LepConfig {
            nodes,
            track_values: false,
        }
    }

    /// Creates the detailed configuration (per-slot message addresses).
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    #[must_use]
    pub fn detailed(nodes: usize) -> Self {
        LepConfig {
            track_values: true,
            ..LepConfig::new(nodes)
        }
    }

    /// The paper's TP1: the IUT has seen better information and is about to
    /// forward it.
    #[must_use]
    pub fn tp1(&self) -> String {
        "control: A<> (IUT.betterInfo == 1) and IUT.forward".to_string()
    }

    /// The paper's TP2: every buffer slot is in use.
    #[must_use]
    pub fn tp2(&self) -> String {
        "control: A<> forall (i: BufferId) (inUse[i] == 1)".to_string()
    }

    /// The paper's TP3: every buffer slot is in use and the IUT is idle.
    #[must_use]
    pub fn tp3(&self) -> String {
        "control: A<> forall (i: BufferId) (inUse[i] == 1) and IUT.idle".to_string()
    }

    /// An avoid (safety) purpose: keep the IUT out of the leader role.
    ///
    /// The tester wins by delivering a better address before the election
    /// timeout fires: `timeout!` only leaves `waiting`, so once the IUT has
    /// forwarded the better address and returned to `idle` it can never
    /// become leader.  Enforceable for every node count `>= 2`, in both the
    /// abstract and the detailed configuration.
    #[must_use]
    pub fn tp4(&self) -> String {
        "control: A[] not IUT.leader".to_string()
    }

    /// All four purposes with their names: TP1–TP3 in the order of Table 1,
    /// then the [`LepConfig::tp4`] avoid purpose.
    #[must_use]
    pub fn purposes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("TP1", self.tp1()),
            ("TP2", self.tp2()),
            ("TP3", self.tp3()),
            ("TP4", self.tp4()),
        ]
    }
}

struct LepChannels {
    push: ChannelId,
    deliver: Vec<ChannelId>,
    send: ChannelId,
    timeout: ChannelId,
}

fn declare_shared(
    builder: &mut SystemBuilder,
    config: LepConfig,
) -> Result<LepChannels, ModelError> {
    let n = config.nodes;
    // Constants first so that test purposes can reference them.
    builder.constant("N", n as i64)?;
    builder.constant("BufferId", n as i64)?;
    builder.int_array("inUse", n, 0, 1, 0)?;
    builder.int_var("betterInfo", 0, 1, 0)?;
    builder.int_var("bestSeen", 0, (n - 1) as i64, (n - 1) as i64)?;
    builder.int_var("curMsg", 0, (n - 1) as i64, (n - 1) as i64)?;
    if config.track_values {
        builder.int_array("slotVal", n, 0, (n - 1) as i64, 0)?;
    }

    let push = builder.input_channel("push")?;
    let mut deliver = Vec::with_capacity(n);
    for k in 0..n {
        deliver.push(builder.input_channel(&format!("deliver{k}"))?);
    }
    let send = builder.output_channel("send")?;
    let timeout = builder.output_channel("timeout")?;
    Ok(LepChannels {
        push,
        deliver,
        send,
        timeout,
    })
}

fn build_iut(
    builder: &mut SystemBuilder,
    channels: &LepChannels,
    _config: LepConfig,
) -> Result<(), ModelError> {
    let x = builder.clock("x")?;
    let tp = builder.clock("Tp")?;
    let vars = builder.vars();
    let better_info = vars.lookup("betterInfo").expect("declared");
    let best_seen = vars.lookup("bestSeen").expect("declared");
    let cur_msg = vars.lookup("curMsg").expect("declared");

    let mut iut = AutomatonBuilder::new("IUT");
    let waiting = iut.location("waiting")?;
    let forward = iut.location("forward")?;
    let idle = iut.location("idle")?;
    let leader = iut.location("leader")?;
    iut.set_initial(waiting);
    iut.set_invariant(
        waiting,
        vec![ClockConstraint::new(x, CmpOp::Le, T_WAIT + PROC_TIME)],
    );
    iut.set_invariant(
        forward,
        vec![ClockConstraint::new(tp, CmpOp::Le, PROC_TIME)],
    );

    // Receiving a message: the per-value channels record the received
    // address.  A strictly better (lower) address is remembered and will be
    // forwarded; anything else is discarded on the spot.  (The reaction is
    // folded into the receiving edge so that the implementation state stays
    // observable through its inputs and outputs — a standard testability
    // assumption.)
    for (k, ch) in channels.deliver.iter().enumerate() {
        let value = Expr::constant(k as i64);
        for source in [waiting, idle, leader] {
            // Better information: move to `forward` and remember it.
            iut.add_edge(
                EdgeBuilder::new(source, forward)
                    .input(*ch)
                    .when(value.clone().lt(Expr::var(best_seen)))
                    .set(cur_msg, value.clone())
                    .set(better_info, Expr::constant(1))
                    .set(best_seen, value.clone())
                    .reset(tp),
            );
            // Useless information: stay (the timeout clock keeps running).
            iut.add_edge(
                EdgeBuilder::new(source, source)
                    .input(*ch)
                    .when(value.clone().ge(Expr::var(best_seen)))
                    .set(cur_msg, value.clone()),
            );
        }
        // While forwarding, further deliveries are absorbed.
        iut.add_edge(
            EdgeBuilder::new(forward, forward)
                .input(*ch)
                .set(cur_msg, value.clone()),
        );
    }
    // Forwarding the better information into the network (buffer), within
    // PROC_TIME of having received it (uncontrollable instant).
    iut.add_edge(
        EdgeBuilder::new(forward, idle)
            .output(channels.send)
            .reset(x),
    );
    // Timeout: without better information the node eventually claims
    // leadership, at an uncontrollable instant in [T_WAIT, T_WAIT+PROC_TIME].
    iut.add_edge(
        EdgeBuilder::new(waiting, leader)
            .output(channels.timeout)
            .guard_clock(ClockConstraint::new(x, CmpOp::Ge, T_WAIT)),
    );

    builder.add_automaton(iut.build()?)?;
    Ok(())
}

fn build_buffer(
    builder: &mut SystemBuilder,
    channels: &LepChannels,
    config: LepConfig,
) -> Result<(), ModelError> {
    let n = config.nodes;
    let vars = builder.vars();
    let in_use = vars.lookup("inUse").expect("declared");
    let best_seen = vars.lookup("bestSeen").expect("declared");
    let slot_val = if config.track_values {
        Some(vars.lookup("slotVal").expect("declared"))
    } else {
        None
    };

    let mut buffer = AutomatonBuilder::new("Buffer");
    let b = buffer.location("B")?;
    buffer.set_initial(b);

    // A slot is filled in "stack" order: the first free slot after the used
    // prefix.  Both the environment's `push` and the IUT's `send` occupy a
    // slot; when the buffer is full, messages are dropped.
    for (channel, from_env) in [(channels.push, true), (channels.send, false)] {
        for i in 0..n {
            let mut guard = Expr::index(in_use, Expr::constant(i as i64)).eq(Expr::constant(0));
            if i > 0 {
                guard = guard
                    .and(Expr::index(in_use, Expr::constant((i - 1) as i64)).eq(Expr::constant(1)));
            }
            match slot_val {
                None => {
                    buffer.add_edge(
                        EdgeBuilder::new(b, b)
                            .input(channel)
                            .when(guard)
                            .set_element(in_use, Expr::constant(i as i64), Expr::constant(1)),
                    );
                }
                Some(slot_val) if from_env => {
                    // Detailed variant: the (chaotic) environment chooses the
                    // injected address at push time.
                    for k in 0..n {
                        buffer.add_edge(
                            EdgeBuilder::new(b, b)
                                .input(channel)
                                .when(guard.clone())
                                .set_element(in_use, Expr::constant(i as i64), Expr::constant(1))
                                .set_element(
                                    slot_val,
                                    Expr::constant(i as i64),
                                    Expr::constant(k as i64),
                                ),
                        );
                    }
                }
                Some(slot_val) => {
                    // The IUT forwards its best-seen address.
                    buffer.add_edge(
                        EdgeBuilder::new(b, b)
                            .input(channel)
                            .when(guard)
                            .set_element(in_use, Expr::constant(i as i64), Expr::constant(1))
                            .set_element(slot_val, Expr::constant(i as i64), Expr::var(best_seen)),
                    );
                }
            }
        }
        // Overflow: drop.
        let full = Expr::index(in_use, Expr::constant((n - 1) as i64)).eq(Expr::constant(1));
        buffer.add_edge(EdgeBuilder::new(b, b).input(channel).when(full));
    }

    // Delivery: the last used slot is handed to the IUT.  In the abstract
    // variant the delivered address is chosen by the chaotic environment; in
    // the detailed variant it is the stored address.
    for i in 0..n {
        let mut guard = Expr::index(in_use, Expr::constant(i as i64)).eq(Expr::constant(1));
        if i + 1 < n {
            guard = guard
                .and(Expr::index(in_use, Expr::constant((i + 1) as i64)).eq(Expr::constant(0)));
        }
        for (k, ch) in channels.deliver.iter().enumerate() {
            let mut edge_guard = guard.clone();
            if let Some(slot_val) = slot_val {
                edge_guard = edge_guard.and(
                    Expr::index(slot_val, Expr::constant(i as i64)).eq(Expr::constant(k as i64)),
                );
            }
            let mut edge = EdgeBuilder::new(b, b)
                .output(*ch)
                .when(edge_guard)
                .set_element(in_use, Expr::constant(i as i64), Expr::constant(0));
            if let Some(slot_val) = slot_val {
                // Normalize freed slots so equivalent buffer contents collapse
                // onto the same discrete state.
                edge = edge.set_element(slot_val, Expr::constant(i as i64), Expr::constant(0));
            }
            buffer.add_edge(edge);
        }
    }

    builder.add_automaton(buffer.build()?)?;
    Ok(())
}

fn build_env(builder: &mut SystemBuilder, channels: &LepChannels) -> Result<(), ModelError> {
    let z = builder.clock("z")?;
    let mut env = AutomatonBuilder::new("Env");
    let e = env.location("E")?;
    env.set_initial(e);
    // Other nodes inject messages into the buffer, at most once per time unit.
    env.add_edge(
        EdgeBuilder::new(e, e)
            .output(channels.push)
            .guard_clock(ClockConstraint::new(z, CmpOp::Ge, ENV_PACE))
            .reset(z),
    );
    // The environment absorbs the IUT's announcements.
    env.add_edge(EdgeBuilder::new(e, e).input(channels.timeout));
    builder.add_automaton(env.build()?)?;
    Ok(())
}

/// The closed game product for `n` nodes: IUT ∥ Buffer ∥ Env.
///
/// # Errors
///
/// Propagates builder validation errors.
pub fn product(config: LepConfig) -> Result<System, ModelError> {
    let mut builder = SystemBuilder::new(&format!("lep-{}", config.nodes));
    let channels = declare_shared(&mut builder, config)?;
    build_iut(&mut builder, &channels, config)?;
    build_buffer(&mut builder, &channels, config)?;
    build_env(&mut builder, &channels)?;
    builder.build()
}

/// The plant (IUT node) alone, used as the tioco specification and as the
/// basis for simulated implementations.
///
/// # Errors
///
/// Propagates builder validation errors.
pub fn plant(config: LepConfig) -> Result<System, ModelError> {
    let mut builder = SystemBuilder::new(&format!("lep-{}-plant", config.nodes));
    let channels = declare_shared(&mut builder, config)?;
    build_iut(&mut builder, &channels, config)?;
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_lang::{parse_model, print_system};
    use tiga_solver::{solve_jacobi, SolveOptions};
    use tiga_tctl::TestPurpose;

    #[test]
    fn models_build_for_various_sizes() {
        for n in [2, 3, 4, 5] {
            let config = LepConfig::new(n);
            let sys = product(config).unwrap();
            assert_eq!(sys.automata().len(), 3);
            assert_eq!(sys.clocks().len(), 3);
            // push + n delivers + send + timeout.
            assert_eq!(sys.channels().len(), n + 3);
            let plant = plant(config).unwrap();
            assert_eq!(plant.automata().len(), 1);
        }
    }

    #[test]
    fn checked_in_lep_files_are_the_generator_output() {
        // `examples/tg/lep{3,4}*.tg` are this generator's output, printed
        // with their purpose: byte for byte, and parsing back to the same
        // system and purpose.
        let lep3 = LepConfig::new(3);
        let lep4 = LepConfig::detailed(4);
        let files = [
            ("lep3.tg", lep3, Some(lep3.tp1())),
            ("lep3.tp4.tg", lep3, Some(lep3.tp4())),
            ("lep3.plant.tg", lep3, None),
            ("lep4.tg", lep4, Some(lep4.tp2())),
            ("lep4.tp4.tg", lep4, Some(lep4.tp4())),
            ("lep4.plant.tg", lep4, None),
        ];
        for (file, config, purpose) in files {
            let path = format!("{}/../../examples/tg/{file}", env!("CARGO_MANIFEST_DIR"));
            let on_disk = std::fs::read_to_string(&path).unwrap();
            let system = match purpose {
                Some(_) => product(config),
                None => plant(config),
            }
            .unwrap();
            let purpose = purpose.map(|text| TestPurpose::parse(&text, &system).unwrap());
            assert_eq!(
                print_system(&system, purpose.as_ref()),
                on_disk,
                "{file} differs from the generator's output"
            );
            let parsed = parse_model(&on_disk).unwrap();
            assert_eq!(parsed.system, system, "{file} parses to another system");
            assert_eq!(parsed.purpose, purpose, "{file} parses to another purpose");
        }
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn too_small_configuration_panics() {
        let _ = LepConfig::new(1);
    }

    #[test]
    fn all_purposes_parse() {
        let config = LepConfig::new(3);
        let sys = product(config).unwrap();
        for (_, text) in config.purposes() {
            TestPurpose::parse(&text, &sys).unwrap();
        }
    }

    #[test]
    fn tp1_is_enforceable_for_three_nodes() {
        let config = LepConfig::new(3);
        let sys = product(config).unwrap();
        let tp = TestPurpose::parse(&config.tp1(), &sys).unwrap();
        let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        assert!(solution.winning_from_initial, "TP1 must be winnable");
    }

    #[test]
    fn tp2_is_enforceable_for_three_nodes() {
        let config = LepConfig::new(3);
        let sys = product(config).unwrap();
        let tp = TestPurpose::parse(&config.tp2(), &sys).unwrap();
        let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        assert!(solution.winning_from_initial, "TP2 must be winnable");
    }

    #[test]
    fn tp3_is_enforceable_for_three_nodes() {
        let config = LepConfig::new(3);
        let sys = product(config).unwrap();
        let tp = TestPurpose::parse(&config.tp3(), &sys).unwrap();
        let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        assert!(solution.winning_from_initial, "TP3 must be winnable");
    }

    #[test]
    fn tp4_avoidance_is_enforceable_for_three_nodes() {
        let config = LepConfig::new(3);
        let sys = product(config).unwrap();
        let tp = TestPurpose::parse(&config.tp4(), &sys).unwrap();
        let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
        assert!(
            solution.winning_from_initial,
            "TP4 (avoid leadership) must be winnable"
        );
    }

    #[test]
    fn detailed_variant_builds_and_is_enforceable() {
        let config = LepConfig::detailed(3);
        let sys = product(config).unwrap();
        assert!(sys.vars().lookup("slotVal").is_some());
        for (name, text) in config.purposes() {
            let tp = TestPurpose::parse(&text, &sys).unwrap();
            let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
            assert!(
                solution.winning_from_initial,
                "{name} must be winnable (detailed)"
            );
        }
    }

    #[test]
    fn detailed_variant_explores_more_states() {
        let abstract_cfg = LepConfig::new(3);
        let detailed_cfg = LepConfig::detailed(3);
        let mut states = Vec::new();
        for cfg in [abstract_cfg, detailed_cfg] {
            let sys = product(cfg).unwrap();
            let tp = TestPurpose::parse(&cfg.tp2(), &sys).unwrap();
            let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
            states.push(solution.stats().discrete_states);
        }
        assert!(
            states[1] > states[0],
            "tracking message values must enlarge the state space: {states:?}"
        );
    }

    #[test]
    fn strategy_generation_scales_with_n() {
        // The explored graph grows with the number of nodes (Table 1 trend).
        let mut sizes = Vec::new();
        for n in [2, 3] {
            let config = LepConfig::new(n);
            let sys = product(config).unwrap();
            let tp = TestPurpose::parse(&config.tp2(), &sys).unwrap();
            let solution = solve_jacobi(&sys, &tp, &SolveOptions::default()).unwrap();
            sizes.push(solution.stats().discrete_states);
        }
        assert!(sizes[0] < sizes[1], "sizes: {sizes:?}");
    }
}
