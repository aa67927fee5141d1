//! Timed smoke of the lock-free cache read path — the cache perf gate.
//!
//! Builds a synthetic `bat/cache/v1` store, indexes it with
//! [`bat_cache::CacheIndex`] and measures single-core lookups/s over a
//! deterministic hit/miss stream, plus the reader-scaling ratio at a few
//! thread counts (lock-free reads should scale ~linearly). `--write FILE`
//! records the baseline (`BENCH_cache_lookup.json`); CI runs
//! `cache_lookup_smoke --check BENCH_cache_lookup.json` and fails on a
//! regression of more than 30%.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bat_cache::{CacheIndex, CacheStore};
use bat_harness::Args;

/// Cells in the synthetic store (a realistic shipped-cache size: every
/// benchmark × architecture × a few dozen scenarios).
const CELLS: usize = 1024;

/// Lookups per timed pass.
const LOOKUPS: u64 = 1 << 21;

/// Reader counts for the scaling sweep.
const SCALING_READERS: [usize; 3] = [1, 2, 4];

/// Tolerated slowdown vs the recorded baseline before the gate fails.
/// Generous on purpose: CI machines vary, and the gate exists to catch
/// wholesale regressions (a lock sneaking into the read path), not
/// scheduler jitter.
const MAX_REGRESSION: f64 = 0.30;

/// The synthetic store: `CELLS` distinct (benchmark, arch, scenario) keys,
/// each with one observed configuration. Deterministic by construction.
fn build_store() -> CacheStore {
    let mut store = CacheStore::new();
    for i in 0..CELLS {
        let bench = format!("bench-{}", i % 16);
        let arch = format!("arch-{}", (i / 16) % 8);
        let scenario = format!("objective=time;budget={};runs=3", 100 + i / 128);
        let config = BTreeMap::from([("block_size_x".to_string(), 32 + (i as i64 % 8) * 32)]);
        store.observe(
            &bench,
            &arch,
            &scenario,
            &config,
            1.0 + i as f64 * 0.001,
            None,
        );
    }
    store
}

/// The key stream: deterministic scattered indices (no RNG — the gate must
/// not depend on rand's stream shape), half resolving to present cells and
/// half to misses.
fn key_stream() -> Vec<(String, String, String)> {
    (0..4096u64)
        .map(|j| {
            let i = ((j * 2654435761) % (2 * CELLS as u64)) as usize;
            if i < CELLS {
                (
                    format!("bench-{}", i % 16),
                    format!("arch-{}", (i / 16) % 8),
                    format!("objective=time;budget={};runs=3", 100 + i / 128),
                )
            } else {
                // Never inserted: exercises the miss path.
                (
                    format!("bench-{}", i % 16),
                    format!("arch-miss-{}", i % 8),
                    "objective=time;budget=999;runs=3".to_string(),
                )
            }
        })
        .collect()
}

/// Single-core lookups/s: warm-up pass, then best of 3 timed passes.
fn measure(index: &CacheIndex, keys: &[(String, String, String)]) -> f64 {
    let pass = |n: u64| {
        let mut hits = 0u64;
        for j in 0..n {
            let (b, a, s) = &keys[(j % keys.len() as u64) as usize];
            hits += u64::from(index.lookup(b, a, s).is_some());
        }
        hits
    };
    std::hint::black_box(pass(LOOKUPS / 8));
    let mut best = f64::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        std::hint::black_box(pass(LOOKUPS));
        best = best.min(start.elapsed().as_secs_f64());
    }
    LOOKUPS as f64 / best
}

/// Aggregate lookups/s with `readers` concurrent threads hammering the
/// same shared index — the lock-free-scaling claim, measured.
fn measure_readers(
    index: &Arc<CacheIndex>,
    keys: &Arc<Vec<(String, String, String)>>,
) -> Vec<(usize, f64)> {
    SCALING_READERS
        .iter()
        .map(|&readers| {
            let start = Instant::now();
            let handles: Vec<_> = (0..readers)
                .map(|r| {
                    let index = Arc::clone(index);
                    let keys = Arc::clone(keys);
                    std::thread::spawn(move || {
                        let mut hits = 0u64;
                        for j in 0..LOOKUPS {
                            let (b, a, s) =
                                &keys[((j + r as u64 * 17) % keys.len() as u64) as usize];
                            hits += u64::from(index.lookup(b, a, s).is_some());
                        }
                        std::hint::black_box(hits)
                    })
                })
                .collect();
            for h in handles {
                let _ = h.join();
            }
            let total = (readers as u64 * LOOKUPS) as f64;
            (readers, total / start.elapsed().as_secs_f64())
        })
        .collect()
}

/// Extract `"lookups_per_sec": RATE` from the baseline JSON (hand-rolled:
/// the gate must not add deps).
fn baseline_rate(json: &str) -> Option<f64> {
    let key = "\"lookups_per_sec\"";
    let pos = json.find(key)?;
    let rest = &json[pos + key.len()..];
    let colon = rest.find(':')?;
    let tail = &rest[colon + 1..];
    let end = tail.find([',', '}', '\n']).unwrap_or(tail.len());
    tail[..end].trim().parse().ok()
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv, &["--write", "--check"], &[]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cache_lookup_smoke: {e}");
            return std::process::ExitCode::from(2);
        }
    };

    let store = build_store();
    let index = Arc::new(CacheIndex::build(&store));
    let keys = Arc::new(key_stream());
    let mut rate = measure(&index, &keys);
    println!(
        "single-core: {:.2} M lookups/s over {} cells",
        rate / 1e6,
        index.len()
    );

    if let Some(path) = args.get("--write") {
        let scaling = measure_readers(&index, &keys);
        for (readers, agg) in &scaling {
            println!("readers {readers}: {:.2} M lookups/s aggregate", agg / 1e6);
        }
        let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
        let mut body = String::from("{\n  \"schema\": \"bat/bench-cache-lookup/v1\",\n");
        body.push_str(&format!("  \"cells\": {CELLS},\n"));
        body.push_str(&format!("  \"host_threads\": {host_threads},\n"));
        body.push_str(&format!("  \"lookups_per_sec\": {rate:.0},\n"));
        body.push_str("  \"reader_scaling\": {\n");
        for (i, (readers, agg)) in scaling.iter().enumerate() {
            let sep = if i + 1 == scaling.len() { "" } else { "," };
            body.push_str(&format!("    \"readers_{readers}\": {agg:.0}{sep}\n"));
        }
        body.push_str("  }\n}\n");
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cache_lookup_smoke: cannot write {path}: {e}");
            return std::process::ExitCode::FAILURE;
        }
        println!("baseline written to {path}");
    }

    if let Some(path) = args.get("--check") {
        let json = match std::fs::read_to_string(path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("cache_lookup_smoke: cannot read {path}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        let Some(want) = baseline_rate(&json) else {
            eprintln!("cache_lookup_smoke: no lookups_per_sec in {path}");
            return std::process::ExitCode::FAILURE;
        };
        // Shared hosts drift through slow phases best-of-3 cannot ride
        // out; a real lost fast path is slow in every phase. Re-measure up
        // to twice before failing.
        let floor = want * (1.0 - MAX_REGRESSION);
        for retry in 0..2 {
            if rate >= floor {
                break;
            }
            eprintln!(
                "gate: apparent regression, re-measuring (retry {})",
                retry + 1
            );
            rate = rate.max(measure(&index, &keys));
        }
        let verdict = if rate < floor { "REGRESSED" } else { "ok" };
        println!(
            "gate: {:.2} M lookups/s vs baseline {:.2} M (floor {:.2} M) — {verdict}",
            rate / 1e6,
            want / 1e6,
            floor / 1e6,
        );
        if rate < floor {
            eprintln!("cache_lookup_smoke: lookup rate regressed more than 30% from {path}");
            return std::process::ExitCode::FAILURE;
        }
    }
    std::process::ExitCode::SUCCESS
}
