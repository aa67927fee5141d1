//! Shared helpers for the `bat` CLI.

use bat_analysis::{sampled_valid, Landscape};
use bat_core::Error;
use bat_gpusim::GpuArch;
use bat_harness::Args;
use bat_kernels::{benchmark, GpuBenchmark, BENCHMARK_NAMES};

/// The benchmarks the paper searches exhaustively (§V).
pub const EXHAUSTIVE_BENCHES: [&str; 4] = ["pnpoly", "nbody", "gemm", "convolution"];

/// Benchmarks selected by `--bench` (comma-separated) or all seven.
pub fn selected_benches(args: &Args) -> Result<Vec<String>, Error> {
    let Some(list) = args.get("--bench") else {
        return Ok(BENCHMARK_NAMES.iter().map(|s| s.to_string()).collect());
    };
    list.split(',')
        .map(|s| {
            let s = s.trim().to_ascii_lowercase();
            if BENCHMARK_NAMES.contains(&s.as_str()) {
                Ok(s)
            } else {
                Err(Error::spec(format!(
                    "unknown benchmark {s:?}; available: {BENCHMARK_NAMES:?}"
                )))
            }
        })
        .collect()
}

/// Architectures selected by `--arch` (comma-separated) or the testbed.
pub fn selected_archs(args: &Args) -> Result<Vec<GpuArch>, Error> {
    let Some(list) = args.get("--arch") else {
        return Ok(GpuArch::paper_testbed());
    };
    list.split(',')
        .map(|s| {
            GpuArch::by_name(s.trim()).ok_or_else(|| {
                Error::spec(format!(
                    "unknown GPU {s:?}; available: RTX 2080 Ti, RTX 3060, RTX 3090, RTX Titan"
                ))
            })
        })
        .collect()
}

/// Bind a benchmark to an architecture.
pub fn bench_on(name: &str, arch: &GpuArch) -> Result<GpuBenchmark, Error> {
    benchmark(name, arch.clone())
        .ok_or_else(|| Error::spec(format!("unknown benchmark {name:?}; see `bat list`")))
}

/// Collect the paper-protocol landscape: exhaustive for the four small
/// benchmarks, `samples` distinct valid configurations otherwise.
pub fn paper_landscape(bench: &GpuBenchmark, samples: usize, seed: u64) -> Landscape {
    if EXHAUSTIVE_BENCHES.contains(&bat_core::TuningProblem::name(bench)) {
        Landscape::exhaustive(bench)
    } else {
        sampled_valid(bench, samples, seed, samples.saturating_mul(10_000))
            .expect("valid-space sampling failed; space too constrained")
    }
}

/// Print an aligned text table: `header` then `rows` (the harness's
/// renderer, so both binaries format tables identically).
pub fn print_table(header: &[String], rows: &[Vec<String>]) {
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print!("{}", bat_harness::render_table(&refs, rows));
}

/// Format a float with `d` decimals.
pub fn f(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

/// Format an optional percentage.
pub fn pct(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{:.1}%", v * 100.0),
        None => "fail".to_string(),
    }
}
