//! The `serve-session` request stream.
//!
//! A warm-up submits every checked-in objective once with the default flags
//! and once with `"strategy":false`, so that every later re-submission is a
//! cache hit.  The measured stream is a sequence of blocks.  Each block
//! re-submits every checked-in objective once, in a seeded order, with a
//! fixed share carrying `"strategy":false` or `"controller":true` (rotating
//! over a cycle of blocks), and mixes in misses at seeded positions: small
//! generated games printed inline, and
//! the smart-light product under distinct `A<><=T` purposes.  Every miss
//! carries the verdict of an in-process Jacobi solve for the client to check.

use std::collections::HashSet;
use std::path::Path;
use tiga_solver::{solve_jacobi, ExploreOptions, SolveOptions};
use tiga_tctl::TestPurpose;

/// Hits per block that carry `"strategy":false` (a different cache entry,
/// filled by the warm-up).
const NO_STRATEGY_HITS: usize = 2;
/// Hits per block that carry `"controller":true`.
const CONTROLLER_HITS: usize = 2;
/// Generated-game misses per block.
const GENERATED_MISSES: usize = 4;
/// Bounded smart-light purpose misses per block.
const PURPOSE_MISSES: usize = 4;
/// Generated games are kept only when the Jacobi oracle explores between
/// these many discrete states (the selection `fuzz_matrix_instances` makes,
/// with a lower ceiling so that no single miss dominates a run).
const GEN_MIN_STATES: usize = 4;
const GEN_MAX_STATES: usize = 500;
/// The product that bounded purposes are put on, and their targets.
const PURPOSE_MODEL: &str = "smart_light.tg";
const PURPOSE_TARGETS: [&str; 4] = ["IUT.Bright", "IUT.Dim", "IUT.L4", "IUT.L6"];
/// Bounds of the purposes: one band, so that their solves cost about the
/// same whatever the seed draws.
const PURPOSE_BOUNDS: std::ops::Range<i64> = 150..400;

/// What the client should expect back for a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Warmup,
    Hit,
    Miss,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Warmup => "warmup",
            Kind::Hit => "hit",
            Kind::Miss => "miss",
        }
    }
}

/// One request of the stream.
#[derive(Clone, Debug)]
pub struct Item {
    pub kind: Kind,
    /// The checked-in objective file (warm-up and hits), or what the miss is.
    pub label: String,
    /// A model file, relative to the inputs directory.
    pub path: Option<String>,
    /// An inline model.
    pub model: Option<String>,
    /// A `control:` override.
    pub purpose: Option<String>,
    pub strategy: bool,
    pub controller: bool,
    /// The in-process Jacobi verdict (misses only).
    pub expect_winning: Option<bool>,
}

impl Item {
    fn hit(kind: Kind, file: &str, strategy: bool, controller: bool) -> Item {
        Item {
            kind,
            label: file.to_string(),
            path: Some(file.to_string()),
            model: None,
            purpose: None,
            strategy,
            controller,
            expect_winning: None,
        }
    }

    /// The `tiga serve` request line (without the newline).
    pub fn request(&self, id: usize) -> String {
        let mut line = format!("{{\"id\":{id}");
        if let Some(path) = &self.path {
            line.push_str(&format!(",\"path\":{}", json_string(path)));
        }
        if let Some(model) = &self.model {
            line.push_str(&format!(",\"model\":{}", json_string(model)));
        }
        if let Some(purpose) = &self.purpose {
            line.push_str(&format!(",\"purpose\":{}", json_string(purpose)));
        }
        if !self.strategy {
            line.push_str(",\"strategy\":false");
        }
        if self.controller {
            line.push_str(",\"controller\":true");
        }
        line.push('}');
        line
    }

    /// The stream file line: the request plus what the client checks.
    pub fn describe(&self, id: usize) -> String {
        let expect = match self.expect_winning {
            Some(true) => "\"winning\"",
            Some(false) => "\"losing\"",
            None => "null",
        };
        format!(
            "{{\"kind\":\"{}\",\"label\":{},\"strategy\":{},\"controller\":{},\"expect\":{expect},\"request\":{}}}",
            self.kind.name(),
            json_string(&self.label),
            self.strategy,
            self.controller,
            json_string(&self.request(id)),
        )
    }
}

/// The warm-up requests and the measured stream.
pub struct Stream {
    pub warmup: Vec<Item>,
    pub items: Vec<Item>,
    /// Requests per block.
    pub block_len: usize,
    /// Blocks per cycle: every cycle submits the same requests.
    pub cycle_blocks: usize,
}

/// Builds the stream for `seed` over the `.tg` files in `inputs`.
pub fn build(inputs: &Path, seed: u64, blocks: usize) -> Result<Stream, String> {
    let objectives = objectives(inputs)?;
    let mut warmup = Vec::new();
    let mut taken = HashSet::new();
    for (file, canonical) in &objectives {
        warmup.push(Item::hit(Kind::Warmup, file, true, false));
        warmup.push(Item::hit(Kind::Warmup, file, false, false));
        taken.insert(canonical.clone());
    }
    let mut rng = SplitMix(seed);
    let mut generated = Generated {
        rng: SplitMix(rng.next()),
    };
    let mut purposes = Purposes::new(inputs, &mut rng)?;
    let mut items = Vec::new();
    let n = objectives.len();
    for b in 0..blocks {
        // Flags rotate by two slots per block, so over every cycle of
        // blocks each objective carries each flag equally often and every
        // cycle submits the same hits; only the order is seeded.
        let mut block: Vec<Item> = objectives
            .iter()
            .enumerate()
            .map(|(i, (file, _))| {
                let slot = (i + 2 * b) % n;
                let strategy = slot >= NO_STRATEGY_HITS;
                let controller = strategy && slot < NO_STRATEGY_HITS + CONTROLLER_HITS;
                Item::hit(Kind::Hit, file, strategy, controller)
            })
            .collect();
        rng.shuffle(&mut block);
        for _ in 0..GENERATED_MISSES {
            let miss = generated.next(&mut taken);
            block.insert(rng.below(block.len() + 1), miss);
        }
        for _ in 0..PURPOSE_MISSES {
            let miss = purposes.next(&mut taken)?;
            block.insert(rng.below(block.len() + 1), miss);
        }
        items.extend(block);
    }
    Ok(Stream {
        warmup,
        items,
        block_len: n + GENERATED_MISSES + PURPOSE_MISSES,
        cycle_blocks: if n % 2 == 0 { n / 2 } else { n },
    })
}

/// The `.tg` files of `inputs` that carry a `control:` objective, sorted,
/// with the canonical text their cache key is built from.
fn objectives(inputs: &Path) -> Result<Vec<(String, String)>, String> {
    let entries =
        std::fs::read_dir(inputs).map_err(|e| format!("cannot list {}: {e}", inputs.display()))?;
    let mut files: Vec<String> = entries
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".tg"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let model = load(&inputs.join(&file))?;
        if let Some(purpose) = &model.purpose {
            let canonical = tiga_lang::print_system(&model.system, Some(purpose));
            out.push((file, canonical));
        }
    }
    if out.is_empty() {
        return Err(format!("no objectives in {}", inputs.display()));
    }
    Ok(out)
}

pub fn load(path: &Path) -> Result<tiga_lang::TgModel, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    tiga_lang::parse_model(&text).map_err(|e| e.render(&text, &path.display().to_string()))
}

/// Small generated games, each distinct from every earlier request.
struct Generated {
    rng: SplitMix,
}

impl Generated {
    fn next(&mut self, taken: &mut HashSet<String>) -> Item {
        let config = tiga_gen::GenConfig::default();
        let budget = SolveOptions {
            explore: ExploreOptions {
                max_states: GEN_MAX_STATES,
                ..ExploreOptions::default()
            },
            ..SolveOptions::default()
        };
        loop {
            let case_seed = self.rng.next();
            let spec = tiga_gen::generate_spec(case_seed, &config);
            let Ok((system, purpose)) = spec.build() else {
                continue;
            };
            let Ok(solution) = solve_jacobi(&system, &purpose, &budget) else {
                continue;
            };
            if solution.stats().discrete_states < GEN_MIN_STATES {
                continue;
            }
            let canonical = tiga_lang::print_system(&system, Some(&purpose));
            if !taken.insert(canonical.clone()) {
                continue;
            }
            return Item {
                kind: Kind::Miss,
                label: format!("generated {case_seed:#018x}"),
                path: None,
                model: Some(canonical),
                purpose: None,
                strategy: true,
                controller: false,
                expect_winning: Some(solution.winning_from_initial),
            };
        }
    }
}

/// Distinct `A<><=T` purposes on the smart-light product, in seeded order.
struct Purposes {
    model: tiga_lang::TgModel,
    pending: Vec<String>,
}

impl Purposes {
    fn new(inputs: &Path, rng: &mut SplitMix) -> Result<Purposes, String> {
        let model = load(&inputs.join(PURPOSE_MODEL))?;
        let mut pending: Vec<String> = PURPOSE_TARGETS
            .iter()
            .flat_map(|target| PURPOSE_BOUNDS.map(move |t| format!("control: A<><={t} {target}")))
            .collect();
        rng.shuffle(&mut pending);
        Ok(Purposes { model, pending })
    }

    fn next(&mut self, taken: &mut HashSet<String>) -> Result<Item, String> {
        while let Some(text) = self.pending.pop() {
            let purpose = TestPurpose::parse(&text, &self.model.system)
                .map_err(|e| format!("bad purpose `{text}`: {e}"))?;
            if !taken.insert(tiga_lang::print_system(&self.model.system, Some(&purpose))) {
                continue;
            }
            let solution = solve_jacobi(&self.model.system, &purpose, &SolveOptions::default())
                .map_err(|e| format!("cannot solve `{text}`: {e}"))?;
            return Ok(Item {
                kind: Kind::Miss,
                label: format!("{PURPOSE_MODEL} {text}"),
                path: Some(PURPOSE_MODEL.to_string()),
                model: None,
                purpose: Some(text),
                strategy: true,
                controller: false,
                expect_winning: Some(solution.winning_from_initial),
            });
        }
        Err("the stream asked for more bounded purposes than there are".to_string())
    }
}

/// SplitMix64: a small seeded generator, enough to shuffle a stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        out
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 step, the same mixer `tiga_testing` reseeds campaign jobs
/// with.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
