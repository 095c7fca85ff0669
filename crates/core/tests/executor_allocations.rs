//! Allocation gates of the test executor: a wait step allocates nothing,
//! and a run that takes outputs allocates little.
//!
//! The executor, the tioco monitor and the simulated implementation step
//! their states in place, so a conformant run of the smart-light safety
//! purpose — which waits from start to finish — makes the same number of
//! heap allocations whether its time budget allows 10 000 ticks or ten
//! times as many: a wait costs nothing for its length.  A discrete step
//! walks the compiled network's joint edges without collecting them, so
//! the reachability run below, which takes inputs and outputs, stays under
//! a fixed ceiling.
//!
//! Models are immutable and shared, so a campaign pays for none of
//! them per run: cloning a system or an automaton allocates nothing,
//! building the never-bright campaign's 201 simulated implementations
//! allocates only their run states, and a mutant rebuilds only the
//! automaton it changes.
//!
//! A counting global allocator, for this test binary only, counts the
//! allocations made on the test's own thread.  The library crates stay
//! `forbid(unsafe_code)`; the unsafe code is the forwarding shim below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tiga_models::smart_light::{product, PURPOSE_BRIGHT, PURPOSE_NEVER_BRIGHT};
use tiga_testing::{
    default_policies, generate_mutants, MutationConfig, OutputPolicy, SimulatedIut, TestConfig,
    TestHarness, Verdict,
};

/// Forwards every call to the system allocator and counts allocations
/// (including reallocations) per thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread that is being torn down has no counter left; its
    // allocations are not the test's.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its caller's arguments unchanged to `System`,
// so each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s.  Counting only touches a const-initialized thread-local
// cell, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (that
        // is, from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
        // from this allocator and that `new_size` is valid for `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_conformant_waiting_run_allocates_the_same_at_any_length() {
    let system = product().expect("the smart-light model parses");
    for policy in default_policies() {
        let run = |max_ticks: i64| {
            let config = TestConfig {
                max_ticks,
                ..TestConfig::default()
            };
            let harness = TestHarness::synthesize(
                system.clone(),
                system.clone(),
                PURPOSE_NEVER_BRIGHT,
                config,
            )
            .expect("never_bright is enforceable");
            let scale = harness.config().scale;
            let mut iut = SimulatedIut::new("conformant", system.clone(), scale, policy);
            let before = allocations();
            let report = harness.execute(&mut iut).expect("the run evaluates");
            let allocs = allocations() - before;
            assert_eq!(report.verdict, Verdict::Pass, "{policy:?}");
            // The run waits out its whole time budget.
            assert_eq!(report.trace.total_ticks(), max_ticks, "{policy:?}");
            allocs
        };
        let (short_allocs, long_allocs) = (run(10_000), run(100_000));
        assert_eq!(
            short_allocs, long_allocs,
            "{policy:?}: {short_allocs} allocations in 10 000 ticks, {long_allocs} in 100 000"
        );
    }
}

#[test]
fn an_output_taking_run_stays_under_its_allocation_ceiling() {
    // The run drives the light to `Bright`: two inputs and two outputs.
    // Synchronizations that collected the enabled joint edges into a
    // vector made 28 allocations here, and a simulated implementation that
    // collected its output windows into a vector made 24.
    const CEILING: u64 = 22;
    let system = product().expect("the smart-light model parses");
    let harness = TestHarness::synthesize(
        system.clone(),
        system.clone(),
        PURPOSE_BRIGHT,
        TestConfig::default(),
    )
    .expect("bright is enforceable");
    let scale = harness.config().scale;
    let mut iut = SimulatedIut::new("conformant", system, scale, OutputPolicy::Eager);
    let before = allocations();
    let report = harness.execute(&mut iut).expect("the run evaluates");
    let allocs = allocations() - before;
    assert_eq!(report.verdict, Verdict::Pass);
    assert!(
        allocs <= CEILING,
        "{allocs} allocations in {} steps, ceiling {CEILING}",
        report.steps
    );
}

#[test]
fn cloning_a_system_or_an_automaton_allocates_nothing() {
    let system = product().expect("the smart-light model parses");
    let before = allocations();
    let copy = system.clone();
    let automaton = system.automata()[0].clone();
    let allocs = allocations() - before;
    assert_eq!(allocs, 0, "cloning a system and an automaton");
    assert_eq!(copy, system);
    assert_eq!(&automaton, &system.automata()[0]);
}

#[test]
fn building_a_campaigns_implementations_allocates_only_their_run_states() {
    // The never-bright campaign: the product and its 66 mutants, each under
    // the three default policies.  A model clone once allocated a deep copy
    // of the system for each of the 201 implementations.
    let system = product().expect("the smart-light model parses");
    let mutants = generate_mutants(&system, &MutationConfig::default()).expect("mutants");
    assert_eq!(mutants.len(), 66);
    let systems: Vec<_> = std::iter::once(&system)
        .chain(mutants.iter().map(|m| &m.system))
        .collect();
    let scale = TestConfig::default().scale;
    // What one implementation allocates for itself: its name and its run
    // states, from a system it is handed by value.
    let before = allocations();
    let iut = SimulatedIut::new("conformant", system.clone(), scale, OutputPolicy::Eager);
    let run_state = allocations() - before;
    drop(iut);
    let policies = default_policies();
    let mut iuts = Vec::with_capacity(policies.len() * systems.len());
    let before = allocations();
    for &policy in &policies {
        for sys in &systems {
            iuts.push(SimulatedIut::new("iut", (*sys).clone(), scale, policy));
        }
    }
    let allocs = allocations() - before;
    assert_eq!(iuts.len(), 201);
    assert_eq!(
        allocs,
        201 * run_state,
        "201 implementations, {run_state} allocations each for the run state"
    );
}

#[test]
fn generating_smart_lights_mutants_stays_under_its_allocation_ceiling() {
    // Rebuilding the whole system for each of the 66 mutants made 6 667
    // allocations; rebuilding only the mutated automaton made 4 633, and
    // sharing the name and the declarations with the plant makes 3 973.
    const CEILING: u64 = 3_973;
    let system = product().expect("the smart-light model parses");
    let before = allocations();
    let mutants = generate_mutants(&system, &MutationConfig::default()).expect("mutants");
    let allocs = allocations() - before;
    assert_eq!(mutants.len(), 66);
    assert!(allocs <= CEILING, "{allocs} allocations, ceiling {CEILING}");
}
