//! The `run` command line, shared by `bat-harness run` and `bat campaign`.
//!
//! Both binaries hand their arguments to [`run_command`], so the two
//! front-ends accept exactly the same flags and reject the same mistakes:
//! an unknown flag or a flag missing its value is an [`Error::Spec`],
//! never silently ignored.

use std::process::ExitCode;

use bat_core::Error;

use crate::campaign::Endpoint;
use crate::files::{load_spec_file, report_run, run_spec_to_file_cached};
use crate::spec::ShardSpec;

/// The parsed `run` flags.
#[derive(Debug, Default, PartialEq)]
struct RunArgs {
    spec: Option<String>,
    out: Option<String>,
    resume: bool,
    serial: bool,
    shard: Option<ShardSpec>,
    batch: Option<u32>,
    fault_rate: Option<f64>,
    threads: Option<String>,
    endpoint: Endpoint,
    trace: Option<String>,
    cache: Option<String>,
    strict: bool,
    quiet: bool,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, Error> {
        let mut parsed = RunArgs::default();
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_flag() {
            match flag {
                "--resume" => parsed.resume = true,
                "--serial" => parsed.serial = true,
                "--strict" => parsed.strict = true,
                "--quiet" => parsed.quiet = true,
                "--spec" => parsed.spec = Some(flags.value(flag)?.into()),
                "--out" => parsed.out = Some(flags.value(flag)?.into()),
                "--trace" => parsed.trace = Some(flags.value(flag)?.into()),
                "--cache" => parsed.cache = Some(flags.value(flag)?.into()),
                "--connect" => parsed.endpoint = Endpoint::parse(flags.value(flag)?)?,
                "--shard" => parsed.shard = Some(parse_shard(flags.value(flag)?)?),
                "--batch" => {
                    let batch = flags.value(flag)?;
                    parsed.batch = Some(
                        batch
                            .parse()
                            .map_err(|_| Error::spec(format!("bad --batch value {batch:?}")))?,
                    );
                }
                "--fault-rate" => {
                    let rate = flags.value(flag)?;
                    parsed.fault_rate = Some(
                        rate.parse()
                            .ok()
                            .filter(|r| (0.0..=1.0).contains(r))
                            .ok_or_else(|| {
                                Error::spec(format!("--fault-rate must be in [0, 1], got {rate:?}"))
                            })?,
                    );
                }
                "--threads" => parsed.threads = Some(flags.value(flag)?.into()),
                other => return Err(Error::spec(format!("unknown run flag {other:?}"))),
            }
        }
        Ok(parsed)
    }
}

/// A strict walk over `--flag [value]` arguments, shared by `run` and
/// `bat serve`: the caller matches each flag, takes its value with
/// [`Flags::value`], and reports any flag it does not know as an error.
pub struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// Walk `args` from the first.
    pub fn new(args: &'a [String]) -> Flags<'a> {
        Flags(args.iter())
    }

    /// The next flag (or stray argument), `None` at the end.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value of `flag`. A value may not itself look like a flag:
    /// `--out --quiet` is a missing `--out` value, not a file named
    /// `--quiet`.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, Error> {
        self.0
            .next()
            .filter(|v| !v.starts_with("--"))
            .map(String::as_str)
            .ok_or_else(|| Error::spec(format!("{flag} expects a value")))
    }
}

/// Parse an `I/N` shard selector.
fn parse_shard(s: &str) -> Result<ShardSpec, Error> {
    let (index, count) = s
        .split_once('/')
        .ok_or_else(|| Error::spec(format!("--shard expects I/N, got {s:?}")))?;
    let index = index
        .parse()
        .map_err(|_| Error::spec(format!("bad shard index {index:?}")))?;
    let count = count
        .parse()
        .map_err(|_| Error::spec(format!("bad shard count {count:?}")))?;
    Ok(ShardSpec { index, count })
}

/// Apply a `--threads N` value: size the worker pool before any parallel
/// work runs (precedence: `--threads`, then `BAT_THREADS`, then the host's
/// available parallelism).
pub fn set_threads(threads: &str) -> Result<(), Error> {
    let n = threads.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
        Error::spec(format!(
            "--threads expects a positive integer, got {threads:?}"
        ))
    })?;
    if !rayon::set_global_threads(n) {
        return Err(Error::spec(
            "--threads came too late: the worker pool already started",
        ));
    }
    Ok(())
}

/// Run the `run` command: parse `args` (everything after `run`), execute
/// the spec through [`run_spec_to_file_cached`], print the artifact to
/// stdout when there is no `--out`, and report to stderr. Exits with
/// failure under `--strict` when any trial found no valid configuration.
pub fn run_command(args: &[String]) -> Result<ExitCode, Error> {
    let args = RunArgs::parse(args)?;
    if let Some(threads) = &args.threads {
        set_threads(threads)?;
    }
    // Telemetry only: the trace sink never touches the artifact.
    if let Some(path) = &args.trace {
        bat_obs::trace::install(std::path::Path::new(path))
            .map_err(|e| Error::io(format!("--trace {path}: {e}")))?;
    }
    let path = args
        .spec
        .as_deref()
        .ok_or_else(|| Error::spec("--spec FILE is required; see specs/ for examples"))?;
    let mut spec = load_spec_file(path)?;
    spec.shard = args.shard.or(spec.shard);
    if let Some(batch) = args.batch {
        spec.protocol.set_batch(batch);
    }
    if let Some(rate) = args.fault_rate {
        spec.set_fault_rate(rate);
    }

    let run = run_spec_to_file_cached(
        &spec,
        args.out.as_deref(),
        args.resume,
        args.serial,
        &args.endpoint,
        args.cache.as_deref(),
    )?;
    if args.out.is_none() {
        println!("{}", run.result.to_json());
    }
    let failed = report_run(&run, args.quiet);
    bat_obs::trace::flush();
    if failed > 0 && args.strict {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunArgs, Error> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        RunArgs::parse(&args)
    }

    #[test]
    fn misspelled_flags_are_rejected() {
        let err = parse(&["--spec", "s.json", "--fualt-rate", "0.5", "--out", "x.json"]);
        assert!(matches!(err, Err(Error::Spec(m)) if m.contains("--fualt-rate")));
    }

    #[test]
    fn a_trailing_flag_without_its_value_is_rejected() {
        let err = parse(&["--spec", "s.json", "--out"]);
        assert!(matches!(err, Err(Error::Spec(m)) if m.contains("--out")));
        // Nor may the next flag stand in for the value.
        let err = parse(&["--spec", "s.json", "--out", "--quiet"]);
        assert!(matches!(err, Err(Error::Spec(m)) if m.contains("--out")));
    }

    #[test]
    fn serial_is_honoured() {
        let args = parse(&["--spec", "s.json", "--serial"]).unwrap();
        assert!(args.serial);
        assert!(!parse(&["--spec", "s.json"]).unwrap().serial);
    }

    #[test]
    fn every_flag_parses_into_its_field() {
        let args = parse(&[
            "--spec",
            "s.json",
            "--out",
            "o.json",
            "--resume",
            "--shard",
            "1/3",
            "--batch",
            "8",
            "--fault-rate",
            "0.25",
            "--threads",
            "2",
            "--connect",
            "loopback",
            "--trace",
            "t.jsonl",
            "--cache",
            "c.json",
            "--strict",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(
            args,
            RunArgs {
                spec: Some("s.json".into()),
                out: Some("o.json".into()),
                resume: true,
                serial: false,
                shard: Some(ShardSpec { index: 1, count: 3 }),
                batch: Some(8),
                fault_rate: Some(0.25),
                threads: Some("2".into()),
                endpoint: Endpoint::Loopback,
                trace: Some("t.jsonl".into()),
                cache: Some("c.json".into()),
                strict: true,
                quiet: true,
            }
        );
    }

    #[test]
    fn bad_values_are_typed_errors() {
        for bad in [
            &["--batch", "many"][..],
            &["--fault-rate", "1.5"],
            &["--shard", "3"],
            &["--connect", "carrier-pigeon"],
            &["stray"],
        ] {
            assert!(matches!(parse(bad), Err(Error::Spec(_))), "{bad:?}");
        }
        // Rejected before the worker pool is touched.
        assert!(matches!(set_threads("0"), Err(Error::Spec(_))));
    }
}
