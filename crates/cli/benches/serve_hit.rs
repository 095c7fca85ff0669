//! In-process latency of `tiga serve` cache hits.
//!
//! A hit writes the payload rendered when the game was first solved, and an
//! identical re-submission skips parsing and `print_system`, so a hit costs
//! reading the model file, two hash lookups, the envelope and a copy of the
//! stored bytes into the output.  Each bench answers one request line from a
//! warm `ServeSession` into a reused buffer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::Path;
use tiga_cli::{ServeArgs, ServeSession};

fn request(file: &str, extra: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/tg")
        .join(file);
    format!(
        "{{\"id\":1,\"path\":{:?}{extra}}}",
        path.display().to_string()
    )
}

fn bench_hits(c: &mut Criterion) {
    let mut session = ServeSession::new(ServeArgs { jobs: 1 });
    let mut out = Vec::new();
    let cases = [
        ("lep4_strategy", request("lep4.tg", "")),
        (
            "lep4_no_strategy",
            request("lep4.tg", ",\"strategy\":false"),
        ),
        (
            "lep4_controller",
            request("lep4.tg", ",\"controller\":true"),
        ),
        ("smart_light_strategy", request("smart_light.tg", "")),
    ];
    for (_, line) in &cases {
        session.respond(line, &mut out).expect("in-memory output");
        session.respond(line, &mut out).expect("in-memory output");
    }
    assert!(
        String::from_utf8_lossy(&out)
            .lines()
            .skip(1)
            .step_by(2)
            .all(|line| line.contains("\"cache\":\"hit\"")),
        "every second submission is a hit"
    );
    let mut group = c.benchmark_group("serve_hit");
    for (name, line) in &cases {
        group.bench_function(*name, |b| {
            b.iter(|| {
                out.clear();
                session.respond(line, &mut out).expect("in-memory output");
                black_box(out.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hits);
criterion_main!(benches);
