//! `bat` — the BAT-rs command-line interface.
//!
//! Regenerates every table and figure of the BAT 2.0 paper on the simulated
//! GPU testbed, and runs/compares tuners on the benchmark suite.

mod commands;
mod ctx;

use std::process::ExitCode;

use bat_harness::{dispatch, Command, RUN_FLAGS};
use commands::*;

const HELP: &str = "\
bat — BAT-rs: a benchmarking suite for kernel tuners (BAT 2.0 reproduction)

USAGE:
    bat <command> [options]

EXPERIMENT COMMANDS (one per paper table/figure):
    tables       Tables I-VII: tunable parameter spaces
    table8       Table VIII: search-space sizes (cardinality/constrained/valid/reduced)
    fig1         performance distributions centred on the median configuration
    fig2         random-search convergence curves
    fig3         proportion-of-centrality search difficulty (FFG + PageRank)
    fig4         max speedup of optimum over median
    fig5         performance-portability matrices
    fig6         permutation feature importance (+ regressor R²)

SUITE COMMANDS:
    list                 benchmarks, GPUs and tuners
    tune                 run one tuner  (--bench, --tuner, --budget, --seed, --batch, --json, --t4, --source)
    pareto               multi-objective tuning: time × energy Pareto fronts
                         (--bench, --arch, --budget, --seed, --tuner, --capacity, --batch)
    campaign             run a declarative campaign spec: the same command as
                         `bat-harness run`, with the same flags (--spec FILE,
                         --out FILE, ...; `bat-harness help` lists them all)
    cache                inspect/merge/evict bat/cache/v1 stores:
                         inspect --input FILE [--bench B --arch A ranks
                         warm-start donor architectures], merge --inputs
                         A,B,... --out FILE (order-independent, byte-stable),
                         evict --input FILE --out FILE (drop replay blobs,
                         keep the compact shippable cells)
    serve                host tuning sessions as a daemon, one session per
                         connection (--addr HOST:PORT, --slots N concurrent
                         batches, --threads N, --metrics ADDR serves
                         Prometheus text exposition over HTTP,
                         --heartbeat N prints a status line every N seconds,
                         0 disables, default 10, --cache FILE loads a
                         bat/cache/v1 store and answers wire cache_lookup
                         requests from a lock-free index); clients connect
                         with `bat campaign --connect HOST:PORT`
    compare              compare all tuners at equal budget (--bench, --budget, --repeats)
    ranks                cross-benchmark tuner ranking, Friedman-style (--budget, --repeats)
    online               KTT-style dynamic autotuning time-to-solution (--bench, --invocations)
    difficulty           FDC / walk-autocorrelation / minima statistics (--bench, --samples)
    noise                measurement-noise sensitivity of selection quality (--bench, --budget)
    convergence-tuners   best-so-far curves for every tuner (--bench, --budget)
    source               print generated CUDA for a configuration (--bench, --config v1,v2,...)
    t1                   print a benchmark's T1 specification document (--bench)

COMMON OPTIONS (a command rejects any flag it does not take, a stray or
repeated argument, and a flag missing its value; --help or -h after a
command prints this text):
    --bench a,b,...      restrict to benchmarks (default: all seven): every
                         command but list, campaign, serve, cache merge/evict
    --arch a,b,...       restrict to GPUs (default: RTX 2080 Ti, RTX 3060, RTX 3090,
                         RTX Titan): the same commands but tables, t1, source
    --samples N          sample count for the non-exhaustive benchmarks (default
                         10000): table8, fig1-fig6, compare, online, difficulty,
                         convergence-tuners
    --seed N             RNG seed (default 0): table8, fig1-fig6, tune, pareto,
                         online, difficulty, noise

EXAMPLES:
    bat table8 --samples 3000
    bat fig5 --bench pnpoly
    bat tune --bench hotspot --arch rtx3090 --tuner greedy-ils --budget 500
    bat campaign --spec specs/ci-smoke.json --out smoke.json
";

/// Every command, with the flags it takes a value for and its switches.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("list", &[], &[], cmd_list),
    ("tables", &["--bench"], &[], cmd_tables),
    ("table8", &["--bench", "--arch", "--samples", "--seed"], &[], cmd_table8),
    ("fig1", &["--bench", "--arch", "--samples", "--seed", "--bins"], &[], cmd_fig1),
    ("fig2", &["--bench", "--arch", "--samples", "--seed", "--reps", "--max-evals"], &[], cmd_fig2),
    ("fig3", &["--bench", "--arch", "--samples", "--seed"], &[], cmd_fig3),
    ("fig4", &["--bench", "--arch", "--samples", "--seed"], &[], cmd_fig4),
    ("fig5", &["--bench", "--arch", "--samples", "--seed"], &[], cmd_fig5),
    ("fig6", &["--bench", "--arch", "--samples", "--seed"], &[], cmd_fig6),
    ("tune", &["--bench", "--arch", "--budget", "--seed", "--batch", "--tuner"], &["--json", "--t4", "--source"], cmd_tune),
    ("pareto", &["--bench", "--arch", "--budget", "--seed", "--batch", "--tuner", "--capacity"], &[], cmd_pareto),
    ("campaign", RUN_FLAGS.0, RUN_FLAGS.1, bat_harness::run_command),
    ("serve", &["--addr", "--slots", "--threads", "--metrics", "--heartbeat", "--cache"], &[], cmd_serve),
    ("cache inspect", &["--input", "--bench", "--arch"], &[], cmd_cache_inspect),
    ("cache merge", &["--inputs", "--out"], &[], cmd_cache_merge),
    ("cache evict", &["--input", "--out"], &[], cmd_cache_evict),
    ("compare", &["--bench", "--arch", "--budget", "--repeats", "--samples"], &[], cmd_compare),
    ("ranks", &["--bench", "--arch", "--budget", "--repeats"], &[], cmd_ranks),
    ("online", &["--bench", "--arch", "--samples", "--seed", "--budget", "--invocations"], &[], cmd_online),
    ("difficulty", &["--bench", "--arch", "--samples", "--seed"], &[], cmd_difficulty),
    ("noise", &["--bench", "--arch", "--seed", "--budget", "--repeats"], &[], cmd_noise),
    ("convergence-tuners", &["--bench", "--arch", "--samples", "--budget", "--repeats"], &[], cmd_convergence_tuners),
    ("source", &["--bench", "--config"], &[], cmd_source),
    ("t1", &["--bench"], &[], cmd_t1),
];

/// Run the command `args` names. A typed [`bat_core::Error`] is printed
/// and exits 1, instead of a panic; an unknown command prints the usage
/// and exits 2.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(COMMANDS, HELP, &args) {
        Some(Ok(code)) => code,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        None => {
            if let Some(cmd) = args.first() {
                eprintln!("unknown command {cmd:?}\n");
            }
            print!("{HELP}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
#[path = "../../harness/src/doc_lines.rs"]
mod doc_lines;
