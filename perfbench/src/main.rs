//! `bat-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Untraced (`--trace 0`): set the workload up several times, run its
//! timed region until `--seconds` are spent, check every artifact, and
//! print the end-to-end metrics. Traced (`--trace 1`): one untraced pass
//! and one traced pass of the same work, whose artifacts must agree, then
//! the per-layer metrics. The last line of standard output is always the
//! JSON result; the exit code is 0 only when every check passed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bat_perfbench::report::{layer_metrics, metric, result_line, Metric, ACCOUNTING_TOLERANCE};
use bat_perfbench::stats::{fastest, median, peak_rss_mb, quartiles};
use bat_perfbench::trace::self_times;
use bat_perfbench::workloads::{setup, timed, traced, verify, Rep, Workload};

/// Fewest set-ups per untraced run; `setup_s` is their median.
const SETUP_MIN: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: bat-perfbench --workload paper-ranking|search-sweep|loopback|cache-extend \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The outcome of one invocation, before printing.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn untraced(a: &Args, work: &std::path::Path) -> Result<Outcome, String> {
    // Set-up runs before every pass, so set-up and passes sample the same
    // stretch of host load; a few extra set-ups follow if passes are long.
    let window = Instant::now();
    let mut setup_s = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut prepared;
    loop {
        let start = Instant::now();
        prepared = setup(a.workload, a.seed, work)?;
        let set = start.elapsed().as_secs_f64();
        setup_s.push(set);
        match timed(&prepared) {
            Ok(rep) => {
                let next = set + rep.wall_s;
                reps.push(rep);
                if window.elapsed().as_secs_f64() + next > a.seconds {
                    break;
                }
            }
            Err(e) => {
                let trials = prepared.trials() as u64;
                return Ok(Outcome {
                    problems: vec![format!("timed region failed: {e}")],
                    attempted: (reps.len() as u64 + 1) * trials,
                    failed: trials,
                    metrics: Vec::new(),
                });
            }
        }
    }
    while setup_s.len() < SETUP_MIN {
        let start = Instant::now();
        prepared = setup(a.workload, a.seed, work)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let p = prepared;
    let peak = peak_rss_mb();
    let digests: Vec<&[(String, u64)]> = reps.iter().map(|r| r.digests.as_slice()).collect();
    let problems = verify(&p, &digests)?;

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    for (i, r) in reps.iter().enumerate() {
        let legs: Vec<String> = r.leg_s.iter().map(|s| format!("{s:.4}")).collect();
        println!(
            "pass {i}: wall {:.4} s (legs {}), {} evals",
            r.wall_s,
            legs.join(" + "),
            r.evals
        );
    }
    for (name, d) in &reps[0].digests {
        println!("digest {name} {d:016x}");
    }
    let (q1, q3) = quartiles(&walls);
    println!(
        "passes: {} — wall median {:.4} s, quartiles {q1:.4}..{q3:.4} s, best {:.4} s",
        walls.len(),
        median(&walls),
        fastest(&walls)
    );
    println!(
        "set-ups: {} — median {:.4} s",
        setup_s.len(),
        median(&setup_s)
    );
    // The best pass is the reported wall time: on a shared host, slow
    // phases last tens of seconds and move the median of a window far
    // more than they move its fastest pass.
    let best = fastest(&walls);
    let evals = reps[0].evals;
    Ok(Outcome {
        problems,
        attempted: (reps.len() * p.trials()) as u64,
        failed: 0,
        metrics: vec![
            metric("wall_s", best, "s"),
            metric("evals_per_s", evals as f64 / best, "1/s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", peak, "MB"),
        ],
    })
}

fn traced_run(a: &Args, work: &std::path::Path) -> Result<Outcome, String> {
    let p = setup(a.workload, a.seed, work)?;
    let attempted = 2 * p.trials() as u64;
    let rep = match timed(&p) {
        Ok(rep) => rep,
        Err(e) => {
            return Ok(Outcome {
                problems: vec![format!("timed region failed: {e}")],
                attempted,
                failed: attempted,
                metrics: Vec::new(),
            })
        }
    };
    let t = traced(&p)?;
    let mut problems = verify(&p, &[&rep.digests])?;
    if t.digests != rep.digests {
        problems.push("traced trial loop produced different artifacts than the harness".into());
    }
    let threads = rayon::current_num_threads();
    let mut notes = Vec::new();
    let metrics = layer_metrics(&t, rep.wall_s, threads, &mut notes);
    let accounted = metrics
        .iter()
        .find(|m| m.name == "trace.accounted_ratio")
        .map_or(0.0, |m| m.value);
    if (accounted - 1.0).abs() > ACCOUNTING_TOLERANCE {
        problems.push(format!(
            "layer self times account for {accounted:.4} of wall × threads, outside ±{ACCOUNTING_TOLERANCE}"
        ));
    }
    for n in &notes {
        println!("{n}");
    }
    println!(
        "untraced wall {:.4} s, traced wall {:.4} s, {} spans, {threads} pool threads",
        rep.wall_s,
        t.wall_s,
        t.tree.spans.len()
    );
    let trace_file = work.parent().unwrap_or(work).join(format!(
        "trace-{}-seed{}.jsonl",
        a.workload.name(),
        a.seed
    ));
    let jsonl = t.tree.to_jsonl(&t.tuners, &self_times(&t.tree.spans));
    std::fs::write(&trace_file, jsonl).map_err(|e| format!("writing {trace_file:?}: {e}"))?;
    println!("trace written to {}", trace_file.display());
    Ok(Outcome {
        problems,
        attempted,
        failed: 0,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Scratch files live under the current directory (the checkout root),
    // one directory per process; trace files stay beside them.
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("creating {work:?}: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = if args.trace {
        traced_run(&args, &work)
    } else {
        untraced(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.problems.is_empty();
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{:<28} {:>16.6} ratio", "failed_ratio", failed_ratio);
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
