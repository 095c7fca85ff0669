//! `tiga solve --max-rounds N` with a budget too small for the fixpoint
//! fails and names the budget, instead of printing a verdict (and writing
//! a controller) computed from partial federations.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `S0 -a!-> S1 -b!-> S2 -c!-> Bad`, each step forced within one time unit:
/// the safety objective is losing, decided only after three rounds.
const FORCED_OUTPUT_CHAIN: &str = r#"system "forced"

clock x

output a
output b
output c

automaton P {
    init location S0 { inv x <= 1 }
    location S1 { inv x <= 1 }
    location S2 { inv x <= 1 }
    location Bad
    edge S0 -> S1 on a! { reset x }
    edge S1 -> S2 on b! { reset x }
    edge S2 -> Bad on c! { reset x }
}

automaton Env {
    init location E
    edge E -> E on a?
    edge E -> E on b?
    edge E -> E on c?
}

control: A[] not P.Bad
"#;

fn tiga(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tiga"))
        .args(args)
        .output()
        .expect("runs tiga")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Asserts that a solve failed on its round budget of 1 and printed no
/// verdict.
fn assert_budget_error(output: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{what}: exited successfully");
    assert!(
        stderr.contains("round budget of 1"),
        "{what}: the error names no budget: {stderr}"
    );
    assert!(
        !stdout(output).contains("verdict"),
        "{what}: printed a verdict"
    );
}

#[test]
fn an_exhausted_round_budget_fails_the_solve() {
    // A winning reachability game that OTFUR cannot decide in one
    // reevaluation per state.
    let light = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/tg/smart_light.tg");
    let light = light.to_str().expect("a UTF-8 path");
    let purpose = ["--purpose", "control: A<> IUT.Bright"];
    let solved = tiga(&[&["solve", light][..], &purpose].concat());
    assert!(solved.status.success());
    assert!(stdout(&solved).contains("verdict: WINNING"));
    let starved = tiga(&[&["solve", light, "--max-rounds", "1"][..], &purpose].concat());
    assert_budget_error(&starved, "smart_light A<> IUT.Bright");

    // A losing safety game must neither be called winning nor get a
    // controller written for it.
    let model = scratch("forced_output_chain.tg");
    std::fs::write(&model, FORCED_OUTPUT_CHAIN).unwrap();
    let model = model.to_str().expect("a UTF-8 path");
    let solved = tiga(&["solve", model]);
    assert!(solved.status.success());
    assert!(stdout(&solved).contains("verdict: LOSING"));
    let controller = scratch("forced_output_chain.controller");
    let _ = std::fs::remove_file(&controller);
    let emit = controller.to_str().expect("a UTF-8 path");
    let starved = tiga(&[
        "solve",
        model,
        "--max-rounds",
        "1",
        "--emit-controller",
        emit,
    ]);
    assert_budget_error(&starved, "forced output chain");
    assert!(!controller.exists(), "a controller was written");
}
