//! `tiga zoo` — list the built-in benchmark model zoo.

use crate::{reject_leftovers, wants_help, EXIT_USAGE};
use std::fmt::Write as _;
use tiga_bench::model_zoo;

const USAGE: &str = "\
USAGE:
    tiga zoo

Lists the benchmark model zoo (every case-study product with its test
purposes).  The models themselves are the `.tg` files under `examples/tg/`
in this repository.
";

/// Renders the `tiga zoo` listing: one line per zoo instance.
#[must_use]
pub fn run_zoo() -> String {
    let zoo = model_zoo();
    let mut out = String::new();
    let _ = writeln!(out, "{} zoo instances:", zoo.len());
    for instance in &zoo {
        let _ = writeln!(
            out,
            "  {:<16} {:<18} {} automata, {} clocks, {} channels — {}",
            instance.model,
            instance.purpose_name,
            instance.system.automata().len(),
            instance.system.clocks().len(),
            instance.system.channels().len(),
            instance.purpose.source,
        );
    }
    out
}

/// Entry point used by [`crate::run`].
pub(crate) fn main(args: &[String]) -> i32 {
    if wants_help(args) {
        crate::emit(USAGE.trim_end());
        return 0;
    }
    if let Err(usage) = reject_leftovers(args, USAGE) {
        eprintln!("{usage}");
        return EXIT_USAGE;
    }
    crate::emit(run_zoo().trim_end());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_covers_the_zoo() {
        let listing = run_zoo();
        for model in ["coffee_machine", "smart_light", "lep3"] {
            assert!(listing.contains(model), "{listing}");
        }
    }
}
