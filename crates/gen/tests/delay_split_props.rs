//! Delay-split invariance of the simulated implementations: a wait asked for
//! in one [`Iut::delay`] and the same wait split at random points report the
//! same outputs at the same ticks and end in the same state.
//!
//! The test executor waits once per decision, however long; a real
//! implementation behaves the same whichever way its waits are cut.  Every
//! [`OutputPolicy`] is checked, in the open ([`SimulatedIut::new`]) and the
//! closed ([`SimulatedIut::closed`]) view, on every checked-in `.tg` model,
//! on their mutants and on generated systems.  Each run offers seeded
//! random inputs between its waits, so the implementations visit more than
//! their initial states.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use tiga_gen::{generate_spec, GenConfig};
use tiga_model::{ChannelKind, System};
use tiga_testing::{
    generate_mutants, DelayOutcome, Iut, MutationConfig, OutputPolicy, SimulatedIut,
};

const SCALE: i64 = 4;
/// Rounds of (maybe an input, then one wait) per run.
const ROUNDS: usize = 8;
/// Outputs a run observes at most: an output loop at one instant would
/// otherwise never let a wait end.
const MAX_OUTPUTS: usize = 24;

/// Lets `pieces` of time pass in turn, each asked for in as many delays as
/// outputs cut it into, and records every output with its tick.  Stops
/// once `outputs` holds [`MAX_OUTPUTS`].
fn wait(iut: &mut SimulatedIut, now: &mut i64, pieces: &[i64], outputs: &mut Vec<(i64, String)>) {
    for &piece in pieces {
        let mut left = piece;
        while left > 0 {
            if outputs.len() >= MAX_OUTPUTS {
                return;
            }
            match iut.delay(left) {
                DelayOutcome::Quiet => {
                    *now += left;
                    left = 0;
                }
                DelayOutcome::Output { after, channel } => {
                    *now += after;
                    left -= after;
                    outputs.push((*now, channel));
                }
            }
        }
    }
}

/// `total` cut at up to four random points.
fn split(total: i64, rng: &mut StdRng) -> Vec<i64> {
    let mut cuts: Vec<i64> = (0..rng.gen_range(1..=4))
        .map(|_| rng.gen_range(1..total.max(2)))
        .filter(|&cut| cut < total)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut pieces = Vec::with_capacity(cuts.len() + 1);
    let mut from = 0;
    for cut in cuts.into_iter().chain([total]) {
        pieces.push(cut - from);
        from = cut;
    }
    pieces
}

/// Runs one implementation of `system` twice, whole waits against split
/// ones, under every policy and both views.  Returns the outputs seen.
fn check(system: &System, what: &str, rng: &mut StdRng) -> usize {
    let inputs: Vec<String> = system
        .channels()
        .iter()
        .filter(|c| c.kind() == ChannelKind::Input)
        .map(|c| c.name().to_string())
        .collect();
    let policies = [
        OutputPolicy::Eager,
        OutputPolicy::Lazy,
        OutputPolicy::Offset(rng.gen_range(1..=12)),
        OutputPolicy::Jittery {
            seed: rng.gen_range(0..u64::MAX),
        },
    ];
    let mut seen = 0;
    for policy in policies {
        for closed in [false, true] {
            let build = || {
                if closed {
                    SimulatedIut::closed("iut", system.clone(), SCALE, policy)
                } else {
                    SimulatedIut::new("iut", system.clone(), SCALE, policy)
                }
            };
            let (mut whole, mut parts) = (build(), build());
            let (mut whole_now, mut parts_now) = (0, 0);
            let (mut whole_out, mut parts_out) = (Vec::new(), Vec::new());
            for round in 0..ROUNDS {
                if !inputs.is_empty() && rng.gen_bool(0.5) {
                    let input = &inputs[rng.gen_range(0..inputs.len())];
                    whole.offer_input(input);
                    parts.offer_input(input);
                }
                let total = rng.gen_range(1..=50 * SCALE);
                wait(&mut whole, &mut whole_now, &[total], &mut whole_out);
                wait(
                    &mut parts,
                    &mut parts_now,
                    &split(total, rng),
                    &mut parts_out,
                );
                let case = format!("{what}, {policy:?}, closed {closed}, round {round}");
                assert_eq!(whole_out, parts_out, "{case}: outputs");
                assert_eq!(whole_now, parts_now, "{case}: time");
                assert_eq!(whole.state(), parts.state(), "{case}: state");
                assert_eq!(whole.ignored_inputs(), parts.ignored_inputs(), "{case}");
            }
            seen += whole_out.len();
        }
    }
    seen
}

#[test]
fn checked_in_models_and_their_mutants_give_the_same_outputs_however_a_wait_is_split() {
    let mut rng = StdRng::seed_from_u64(0x5B17_0017);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/tg");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/tg exists")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "tg"))
        .collect();
    files.sort();
    let (mut systems, mut outputs) = (0, 0);
    for path in &files {
        let source = std::fs::read_to_string(path).expect("readable");
        let name = path.file_name().unwrap().to_string_lossy();
        let model = tiga_lang::parse_model(&source)
            .unwrap_or_else(|e| panic!("{}", e.render(&source, &name)));
        outputs += check(&model.system, &name, &mut rng);
        let mutants = generate_mutants(&model.system, &MutationConfig::default()).expect("mutants");
        for mutant in &mutants {
            outputs += check(
                &mutant.system,
                &format!("{name}: {}", mutant.name),
                &mut rng,
            );
        }
        systems += 1 + mutants.len();
    }
    assert!(systems >= 600, "only {systems} systems checked");
    assert!(outputs >= 10_000, "only {outputs} outputs observed");
}

#[test]
fn generated_systems_give_the_same_outputs_however_a_wait_is_split() {
    let mut rng = StdRng::seed_from_u64(0x5B17_0018);
    let (mut systems, mut outputs) = (0, 0);
    for seed in 0..200 {
        let Ok((system, _)) = generate_spec(seed, &GenConfig::default()).build() else {
            continue;
        };
        outputs += check(&system, &format!("seed {seed}"), &mut rng);
        systems += 1;
    }
    assert!(systems >= 150, "only {systems} systems built");
    assert!(outputs >= 1_000, "only {outputs} outputs observed");
}
