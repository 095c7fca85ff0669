//! The reference workload that end-to-end times are scaled by.
//!
//! The benchmark runs on shared machines whose speed drifts by up to 2×
//! over minutes.  `run.py` times this fixed piece of work between the
//! operations it measures and scales each operation's time by how long the
//! reference took around it, which cancels most of the drift.  The work
//! resembles the solver's inner loops — closing small `i32` matrices,
//! hashing them into a map, allocating and sorting — so that contention
//! slows it the way it slows `tiga`.  It must never change: every recorded
//! end-to-end time is relative to it.

use crate::stream::SplitMix;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, Write};
use std::time::Instant;

const ROUNDS: usize = 60_000;
const DIM: usize = 5;

fn work() -> u64 {
    let mut rng = SplitMix(42);
    let mut zones: Vec<Vec<i32>> = Vec::new();
    let mut index: HashMap<Vec<i32>, usize> = HashMap::new();
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        let mut z: Vec<i32> = (0..DIM * DIM).map(|_| (rng.next() % 64) as i32).collect();
        for k in 0..DIM {
            for i in 0..DIM {
                for j in 0..DIM {
                    let via = z[i * DIM + k].saturating_add(z[k * DIM + j]);
                    if via < z[i * DIM + j] {
                        z[i * DIM + j] = via;
                    }
                }
            }
        }
        let next = index.len();
        acc = acc.wrapping_add(*index.entry(z.clone()).or_insert(next) as u64);
        zones.push(z);
        if zones.len() > 8192 {
            zones.sort();
            zones.truncate(4096);
        }
        if index.len() > 50_000 {
            index.clear();
        }
    }
    acc
}

/// Runs the reference once per input line and answers with its wall time
/// in milliseconds, until the input ends.
pub fn serve() -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        let start = Instant::now();
        black_box(work());
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        writeln!(out, "{ms}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
