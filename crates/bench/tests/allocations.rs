//! Allocation regression checks for the solver's inner-loop kernels.
//!
//! A counting global allocator, installed in this test binary only (the
//! libraries stay `forbid(unsafe_code)`), counts the allocations made on the
//! calling thread.  Counting per thread keeps the figures exact while the
//! harness runs other tests on other threads.
//!
//! The zone kernels must not allocate at all: `Dbm::constrain`,
//! `Dbm::intersects` up to dimension 8, and the coverage check on a
//! single-cover hit, on covers that all miss the zone and, once warm, on a
//! zone it has to split.  `zone_subtract` on disjoint inputs allocates only
//! its result.  One small zoo solve plus minimization must stay under a
//! fixed allocation ceiling, and so must each post-solve phase — strategy
//! extraction, minimization, compilation and printing — of one safety and
//! one reachability objective.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tiga_bench::lep_detailed_instance;
use tiga_dbm::{zone_subtract, Bound, Coverage, Dbm};
use tiga_models::smart_light;
use tiga_solver::{
    minimize_strategy, minimize_strategy_with_report, print_controller, solve, CompiledController,
    SolveOptions,
};
use tiga_tctl::TestPurpose;

struct Counting;

thread_local! {
    // Const-initialized and without a destructor, so reading it never
    // allocates and is valid for the whole life of the thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its caller's arguments unchanged to `System`,
// so each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s.  Counting only bumps a thread-local cell and never
// allocates.
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

/// The allocations `f` makes on this thread, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

/// The box `lo <= x_k <= hi` on every real clock of a `dim`-dimensional zone.
fn boxed(dim: usize, lo: i32, hi: i32) -> Dbm {
    let mut z = Dbm::universe(dim);
    for k in 1..dim {
        assert!(z.constrain(0, k, Bound::le(-lo)));
        assert!(z.constrain(k, 0, Bound::le(hi)));
    }
    z
}

/// `x_1 - x_2 <= -1` (clock 2 ahead of clock 1) in a box, for `dim >= 3`.
fn skewed(dim: usize, lo: i32, hi: i32) -> Dbm {
    let mut z = boxed(dim, lo, hi);
    assert!(z.constrain(1, 2, Bound::le(-1)));
    z
}

#[test]
fn constrain_does_not_allocate() {
    for dim in 2..=9 {
        let mut z = boxed(dim, 1, 8);
        let (n, kept) = allocations(|| {
            z.constrain(1, 0, Bound::lt(5)) && z.constrain(0, dim - 1, Bound::le(-2))
        });
        assert!(kept);
        assert_eq!(n, 0, "constrain allocated at dim {dim}");
    }
}

#[test]
fn intersects_does_not_allocate_up_to_dim_8() {
    for dim in 5..=8 {
        // Both pairs pass the pairwise refutation, so both take the exact
        // closure: one overlaps, the other only closes the alternating
        // cycle x1 < x2 <= x3 < x4 <= x1.
        let a = boxed(dim, 0, 6);
        let overlapping = boxed(dim, 2, 9);
        let mut ascending = boxed(dim, 0, 6);
        assert!(ascending.constrain(1, 2, Bound::lt(0)) && ascending.constrain(3, 4, Bound::lt(0)));
        let mut wrapping = boxed(dim, 0, 6);
        assert!(wrapping.constrain(2, 3, Bound::le(0)) && wrapping.constrain(4, 1, Bound::le(0)));
        let (n, verdicts) =
            allocations(|| (a.intersects(&overlapping), ascending.intersects(&wrapping)));
        assert_eq!(verdicts, (true, false), "dim {dim}");
        assert!(ascending.intersection(&wrapping).is_none());
        assert_eq!(n, 0, "intersects allocated at dim {dim}");
    }
}

#[test]
fn coverage_misses_and_splits_do_not_allocate_when_warm() {
    let dim = 5;
    let mut coverage = Coverage::default();
    // Every cover misses the zone: nothing is subtracted.
    let zone = boxed(dim, 0, 2);
    let disjoint = [boxed(dim, 4, 6), boxed(dim, 7, 9)];
    // Covered only jointly: the zone is split along the first cover.
    let along_x1 = |lo: i32, hi: i32| {
        let mut z = boxed(dim, 0, 9);
        assert!(z.constrain(0, 1, Bound::le(-lo)) && z.constrain(1, 0, Bound::le(hi)));
        z
    };
    let wide = along_x1(2, 8);
    let halves = [along_x1(0, 6), along_x1(4, 10)];
    // The first calls size the buffers; later calls reuse them.
    assert!(!coverage.covers(&zone, &disjoint));
    assert!(coverage.covers(&wide, &halves));
    let (n, verdicts) = allocations(|| {
        (
            coverage.covers(&zone, &disjoint),
            coverage.covers(&wide, &halves),
        )
    });
    assert_eq!(verdicts, (false, true));
    assert_eq!(n, 0, "a warm coverage check allocated");
    // The owned subtraction allocates exactly its result: the list and one
    // piece.
    let (n, owned) = allocations(|| zone_subtract(&zone, &disjoint[0]));
    assert_eq!(owned, vec![zone.clone()]);
    assert_eq!(n, 2, "zone_subtract allocated beyond its result");
}

#[test]
fn single_cover_hit_does_not_allocate() {
    let dim = 5;
    let zone = boxed(dim, 2, 3);
    let covers = [boxed(dim, 5, 9), boxed(dim, 0, 4), skewed(dim, 0, 9)];
    let mut coverage = Coverage::default();
    let (n, covered) = allocations(|| coverage.covers(&zone, &covers));
    assert!(covered);
    assert_eq!(n, 0, "a single-cover hit allocated");
}

/// Allocations of one smart-light `A<> IUT.Bright` solve plus minimization
/// are 833 since a strategy stores each distinct rule list once and the
/// minimizer works once per list (debug and release builds alike).  They
/// were 907 before that, 964 before the strategy was recorded one state at
/// a time and the minimizer borrowed its input zones, 1 039 while the zone
/// store also kept a minimal form of every zone and the graph copied the
/// explorer's states, and 2 110 before the zone kernels stopped allocating.
/// The ceiling leaves about 10 % headroom.
const SMALL_SOLVE_CEILING: u64 = 920;

#[test]
fn small_zoo_solve_and_minimize_stay_under_the_ceiling() {
    let system = smart_light::product().expect("smart-light model parses");
    let purpose = TestPurpose::parse(smart_light::PURPOSE_BRIGHT, &system).expect("purpose parses");
    let options = SolveOptions::default();
    let (n, rules) = allocations(|| {
        let solution = solve(&system, &purpose, &options).expect("solves");
        assert!(solution.winning_from_initial);
        let strategy = solution.strategy.as_ref().expect("strategy extracted");
        minimize_strategy(strategy).rule_count()
    });
    assert!(rules > 0);
    assert!(
        n <= SMALL_SOLVE_CEILING,
        "small solve + minimize made {n} allocations (ceiling {SMALL_SOLVE_CEILING})"
    );
}

/// Allocations of the post-solve phases of one objective.
#[derive(Debug)]
struct PostSolve {
    extract: u64,
    minimize: u64,
    compile: u64,
    print: u64,
}

/// Counts each post-solve phase of the detailed lep4 objective `index`.
/// Extraction is the difference between a solve with and one without a
/// strategy: reachability records its rules during the fixpoint, safety
/// extracts them afterwards.  Returns the counts and the rule and state
/// counts of the extracted strategy.
fn post_solve_allocations(index: usize) -> (PostSolve, usize, usize) {
    let (system, purpose) = lep_detailed_instance(4, index);
    let with = SolveOptions::default();
    let without = SolveOptions {
        extract_strategy: false,
        ..SolveOptions::default()
    };
    let (bare, _) = allocations(|| solve(&system, &purpose, &without).expect("solves"));
    let (full, solution) = allocations(|| solve(&system, &purpose, &with).expect("solves"));
    let strategy = solution
        .strategy
        .as_ref()
        .expect("the objective is winning");
    let (minimize, (minimized, _)) = allocations(|| minimize_strategy_with_report(strategy));
    let (compile, controller) = allocations(|| CompiledController::from_minimized(minimized));
    let (print, text) = allocations(|| print_controller(system.name(), true, Some(&controller)));
    assert!(text.ends_with("end\n"));
    let counts = PostSolve {
        extract: full - bare,
        minimize,
        compile,
        print,
    };
    (counts, strategy.rule_count(), strategy.state_count())
}

/// Ceilings per post-solve phase (extraction / minimization / compilation /
/// printing), about 5 % above the counts when they were set, debug and
/// release builds alike: (safety) 47 876 / 5 241 / 5 440 / 2 and
/// (reachability) 10 826 / 6 536 / 8 793 / 2, since a strategy stores each
/// distinct rule list once and minimization, compilation and printing work
/// once per list.  Before that they were 58 244 / 17 576 / 26 269 / 2 and
/// 11 340 / 11 924 / 18 817 / 2; before extraction stopped cloning each
/// rule's state and zone, the minimizer each input zone, the compiler its
/// per-rule minimal forms and the printer growing its output, they were
/// 126 984 / 33 284 / 137 109 / 19 and 17 839 / 14 821 / 66 753 / 18; any
/// of those coming back breaks a ceiling.
const POST_SOLVE_CEILINGS: [(usize, &str, PostSolve); 2] = [
    (
        3,
        "lep4 tp4 (safety)",
        PostSolve {
            extract: 50_300,
            minimize: 5_500,
            compile: 5_720,
            print: 2,
        },
    ),
    (
        1,
        "lep4 tp2 (reachability)",
        PostSolve {
            extract: 11_400,
            minimize: 6_870,
            compile: 9_240,
            print: 2,
        },
    ),
];

#[test]
fn post_solve_phases_stay_under_their_ceilings() {
    for (index, name, ceiling) in POST_SOLVE_CEILINGS {
        let (counts, rules, states) = post_solve_allocations(index);
        assert!(rules > states, "{name}: {rules} rules over {states} states");
        for (phase, n, max) in [
            ("extraction", counts.extract, ceiling.extract),
            ("minimization", counts.minimize, ceiling.minimize),
            ("compilation", counts.compile, ceiling.compile),
            ("printing", counts.print, ceiling.print),
        ] {
            assert!(
                n <= max,
                "{name}: {phase} made {n} allocations (ceiling {max}; all phases {counts:?})"
            );
        }
    }
}
