//! `bat-harness` — run declarative tuning campaigns and summarize their
//! artifacts.
//!
//! The binary is a thin shell over [`bat_harness`]: it reads a spec JSON,
//! executes (or resumes) the campaign, writes the deterministic result
//! artifact, and prints the summary tables. CI runs it twice and byte-
//! diffs the outputs.

use std::process::ExitCode;

use bat_core::Error;
use bat_harness::{
    convergence_auc, dispatch, load_result_file, load_spec_file, merge_files, render_table,
    report_run, run_campaign, run_command, set_threads, Args, CampaignSummary, Command,
    ExperimentSpec, RUN_FLAGS,
};

const HELP: &str = "\
bat-harness — declarative experiment orchestration for BAT-rs

USAGE:
    bat-harness run --spec FILE [--out FILE] [--resume] [--serial] [--strict] [--quiet] [--shard I/N] [--batch N] [--fault-rate R] [--threads N] [--connect EP] [--trace FILE] [--cache FILE]
    bat-harness merge --spec FILE --inputs A,B,... --out FILE [--quiet]
    bat-harness summary --input FILE
    bat-harness sweep-batch --spec FILE [--batches 1,4,16,64] [--threads N]
    bat-harness trials --spec FILE

COMMANDS:
    run        execute a campaign spec; writes the CampaignResult JSON to
               --out (or stdout, plus a <out>.meta.json T4 metadata
               document) and prints the summary tables. `bat campaign` is
               the same command with the same flags
    merge      merge shard artifacts into the complete campaign artifact
               (missing trials execute); byte-identical to the unsharded run
    summary    print the summary tables of an existing result artifact
    sweep-batch
               run the spec once per batch size and print the batch-vs-
               quality view: throughput, mean final best and mean
               convergence AUC per batch size (see specs/batch-sweep.json)
    trials     list the compiled trials of a spec without running them

Every command of both binaries rejects an unknown flag, a stray argument,
a repeated flag and a flag missing its value; `--help` or `-h` after a
command prints this text.

OPTIONS:
    --spec FILE    campaign spec (see specs/ for examples)
    --out FILE     where to write the result JSON (default: stdout)
    --resume       reuse trials already present in --out, run only the rest
    --serial       run trials sequentially (determinism oracle; the output
                   must be byte-identical to the parallel run)
    --shard I/N    override the spec's shard block: run only every N-th
                   compiled trial, starting at I (0-based)
    --batch N      override the spec's protocol.batch (measurement
                   parallelism of the ask/tell protocol; 1 = the classic
                   serial protocol, stored canonically as absent)
    --fault-rate R override the spec's faults.transient_rate (0 disables;
                   an otherwise-default fault block collapses to absent, so
                   `--fault-rate 0` reproduces the fault-free artifact
                   byte for byte)
    --threads N    worker-pool size for parallel evaluation (precedence:
                   --threads, then the BAT_THREADS environment variable,
                   then available_parallelism; artifacts are byte-identical
                   at every setting)
    --connect EP   evaluation endpoint: in-process (default), loopback
                   (an in-process daemon behind the real bat/wire/v1
                   codec), or HOST:PORT of a running `bat serve` daemon;
                   artifacts are byte-identical across endpoints
    --trace FILE   write a bat/trace/v1 JSONL span trace of the run
                   (campaign → trial → step → batch → decode/measure);
                   telemetry only — the artifact stays byte-identical
    --cache FILE   persistent bat/cache/v1 best-config store: trials whose
                   exact fingerprint is cached replay verbatim (the warm
                   artifact is byte-identical to the cold one), misses tune
                   and fold back into the cache atomically
    --inputs A,B   comma-separated shard artifacts to merge
    --strict       exit non-zero if any trial found no valid configuration
    --quiet        suppress the summary tables and throughput line
";

/// Every command, with the flags it takes a value for and its switches.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("run", RUN_FLAGS.0, RUN_FLAGS.1, run_command),
    ("merge", &["--spec", "--inputs", "--out"], &["--quiet"], cmd_merge),
    ("summary", &["--input"], &[], cmd_summary),
    ("sweep-batch", &["--spec", "--batches", "--threads"], &[], cmd_sweep_batch),
    ("trials", &["--spec"], &[], cmd_trials),
];

fn load_spec(args: &Args) -> Result<ExperimentSpec, Error> {
    load_spec_file(args.required("--spec")?)
}

fn cmd_merge(args: &Args) -> Result<ExitCode, Error> {
    let spec = load_spec(args)?;
    let inputs: Vec<String> = args
        .required("--inputs")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if inputs.is_empty() {
        return Err(Error::spec("--inputs names no artifacts"));
    }
    let out = args.required("--out")?;
    let run = merge_files(&spec, &inputs, out)?;
    report_run(&run, args.has("--quiet"));
    eprintln!("merged {} artifacts into {out}", inputs.len());
    Ok(ExitCode::SUCCESS)
}

/// `sweep-batch` — the batch-vs-quality view: run the same campaign at
/// several `protocol.batch` values and tabulate, per batch size, the
/// measurement throughput against the search quality it buys (mean final
/// best and mean convergence AUC against a sweep-wide per-cell reference).
/// Quality at `batch = 1` is the serial protocol's; larger batches trade
/// staler search state for batched measurement, and this table is how that
/// trade is audited.
fn cmd_sweep_batch(args: &Args) -> Result<ExitCode, Error> {
    if let Some(threads) = args.get("--threads") {
        set_threads(threads)?;
    }
    let base = load_spec(args)?;
    let batches: Vec<u32> = args
        .get("--batches")
        .unwrap_or("1,4,16,64")
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .ok()
                .filter(|&b| b >= 1)
                .ok_or_else(|| Error::spec(format!("bad --batches entry {s:?}")))
        })
        .collect::<Result<_, _>>()?;

    let mut runs = Vec::new();
    for &batch in &batches {
        let mut spec = base.clone();
        spec.protocol.set_batch(batch);
        let run = run_campaign(&spec)?;
        eprintln!(
            "batch {batch:4}: {} trials in {:.2}s",
            run.executed,
            run.wall.as_secs_f64()
        );
        runs.push((batch, run));
    }

    // Sweep-wide per-cell reference: the best objective any batch size
    // found in a benchmark × architecture cell, so AUC is comparable
    // across batch sizes.
    let mut cell_best: std::collections::BTreeMap<(String, String), f64> =
        std::collections::BTreeMap::new();
    for (_, run) in &runs {
        for t in &run.result.trials {
            if let Some(ms) = t.best_ms {
                let key = (t.benchmark.clone(), t.architecture.clone());
                let slot = cell_best.entry(key).or_insert(f64::INFINITY);
                *slot = slot.min(ms);
            }
        }
    }

    let fmt_opt = |v: Option<f64>, digits: usize| match v {
        Some(x) => format!("{x:.digits$}"),
        None => "—".into(),
    };
    let mean = |xs: &[f64]| (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(batch, run)| {
            let bests: Vec<f64> = run.result.trials.iter().filter_map(|t| t.best_ms).collect();
            let aucs: Vec<f64> = run
                .result
                .trials
                .iter()
                .filter_map(|t| {
                    let key = (t.benchmark.clone(), t.architecture.clone());
                    convergence_auc(t, *cell_best.get(&key)?)
                })
                .collect();
            let rate = run.executed_evals as f64 / run.wall.as_secs_f64().max(1e-9);
            vec![
                batch.to_string(),
                format!("{:.1}", rate / 1e3),
                fmt_opt(mean(&bests), 4),
                fmt_opt(mean(&aucs), 4),
                format!("{}/{}", bests.len(), run.result.trials.len()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["batch", "evals/s (k)", "mean best ms", "mean AUC", "solved"],
            &rows
        )
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_summary(args: &Args) -> Result<ExitCode, Error> {
    let result = load_result_file(args.required("--input")?)?;
    print!("{}", CampaignSummary::from_result(&result).render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_trials(args: &Args) -> Result<ExitCode, Error> {
    let spec = load_spec(args)?;
    let trials = spec.compile().map_err(Error::spec)?;
    let rows: Vec<Vec<String>> = trials
        .iter()
        .map(|t| {
            vec![
                t.key.benchmark.clone(),
                t.key.architecture.clone(),
                t.key.tuner.clone(),
                t.key.rep.to_string(),
                t.seed.to_string(),
                t.budget.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        bat_harness::render_table(
            &[
                "benchmark",
                "architecture",
                "tuner",
                "rep",
                "seed",
                "budget"
            ],
            &rows
        )
    );
    println!("{} trials", trials.len());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(COMMANDS, HELP, &args) {
        Some(Ok(code)) => code,
        Some(Err(e)) => {
            eprintln!("bat-harness: {e}");
            ExitCode::from(2)
        }
        None => {
            eprint!("{HELP}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod doc_lines;

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Option<Result<ExitCode, Error>> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        dispatch(COMMANDS, HELP, &args)
    }

    /// `merge`, `summary`, `sweep-batch` and `trials` reject an unknown
    /// flag, a stray argument, a flag missing its value and a repeated flag
    /// with a spec error naming it, before they read any file (`run`'s
    /// rows are with `RunArgs` in the library's `cli` tests).
    #[test]
    fn every_command_rejects_unknown_stray_valueless_and_repeated_flags() {
        for (args, token) in [
            (&["merge", "--spec", "s.json", "--quite"][..], "--quite"),
            (&["merge", "--spec", "s.json", "stray"], "stray"),
            (&["merge", "--spec", "s.json", "--out"], "--out"),
            (
                &["merge", "--quiet", "--spec", "s.json", "--quiet"],
                "--quiet",
            ),
            (&["summary", "--inputs", "r.json"], "--inputs"),
            (&["summary", "r.json"], "r.json"),
            (&["summary", "--input"], "--input"),
            (
                &["summary", "--input", "a.json", "--input", "b.json"],
                "--input",
            ),
            (
                &["sweep-batch", "--spec", "s.json", "--batch", "4"],
                "--batch",
            ),
            (&["sweep-batch", "--spec", "s.json", "4"], "4"),
            (
                &["sweep-batch", "--threads", "--spec", "s.json"],
                "--threads",
            ),
            (
                &["sweep-batch", "--batches", "1", "--batches", "4"],
                "--batches",
            ),
            (&["trials", "--spec", "s.json", "--out", "t.txt"], "--out"),
            (&["trials", "specs/ci-smoke.json"], "specs/ci-smoke.json"),
            (&["trials", "--spec"], "--spec"),
            (
                &["trials", "--spec", "a.json", "--spec", "b.json"],
                "--spec",
            ),
        ] {
            let outcome = run(args);
            assert!(
                matches!(&outcome, Some(Err(Error::Spec(m))) if m.contains(token)),
                "{args:?}: {outcome:?}"
            );
        }
    }

    #[test]
    fn help_after_run_prints_the_usage_and_runs_nothing() {
        // Without `--help` both are spec errors: no `--spec`, a stray flag.
        for args in [
            &["run", "--help"][..],
            &["run", "--spec", "s.json", "-h", "--bogus"],
        ] {
            assert!(matches!(run(args), Some(Ok(ExitCode::SUCCESS))), "{args:?}");
        }
        assert!(run(&["bogus"]).is_none());
    }

    /// Every `bat-harness …` line of the README parses against its
    /// command's declared flags.
    #[test]
    fn documented_command_lines_parse() {
        let lines =
            doc_lines::command_lines(include_str!("../../../README.md"), "bat-harness", true);
        assert!(lines.len() >= 10, "found only {lines:?}");
        for line in lines {
            let (command, rest) = bat_harness::find_command(COMMANDS, &line)
                .unwrap_or_else(|| panic!("{line:?} names no command"));
            if let Err(e) = Args::parse(rest, command.1, command.2) {
                panic!("{line:?}: {e}");
            }
        }
    }
}
