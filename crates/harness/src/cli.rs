//! The one command-line parser of `bat` and `bat-harness`, and the `run`
//! command both binaries share.
//!
//! Every command of both binaries declares the flags it takes a value
//! for and its switches, and parses its arguments with [`Args::parse`]:
//! an unknown flag, a stray argument, a flag missing its value or a
//! repeated flag is an [`Error::Spec`] naming it, never silently ignored.
//! `bat-harness run` and `bat campaign` both declare [`RUN_FLAGS`] and run
//! [`run_command`], so they accept exactly the same flags.

use std::process::ExitCode;
use std::str::FromStr;

use bat_core::Error;

use crate::campaign::Endpoint;
use crate::files::{load_spec_file, report_run, run_spec_to_file_cached};
use crate::spec::ShardSpec;

/// A command's arguments, parsed against the flags it declares.
#[derive(Debug)]
pub struct Args<'a>(Vec<(&'a str, Option<&'a str>)>);

impl<'a> Args<'a> {
    /// Parse `args`: each flag in `values` takes the next argument as its
    /// value, each flag in `switches` stands alone. A value may not
    /// itself look like a flag: `--out --quiet` is a missing `--out`
    /// value, not a file named `--quiet`.
    pub fn parse(args: &'a [String], values: &[&str], switches: &[&str]) -> Result<Self, Error> {
        let mut parsed: Vec<(&str, Option<&str>)> = Vec::new();
        let mut args = args.iter().map(String::as_str);
        while let Some(flag) = args.next() {
            let value = if values.contains(&flag) {
                let value = args.next().filter(|v| !v.starts_with("--"));
                Some(value.ok_or_else(|| Error::spec(format!("{flag} expects a value")))?)
            } else if switches.contains(&flag) {
                None
            } else if flag.starts_with('-') {
                return Err(Error::spec(format!("unknown flag {flag:?}")));
            } else {
                return Err(Error::spec(format!("unexpected argument {flag:?}")));
            };
            if parsed.iter().any(|&(f, _)| f == flag) {
                return Err(Error::spec(format!("{flag} is given more than once")));
            }
            parsed.push((flag, value));
        }
        Ok(Args(parsed))
    }

    /// The value of `flag`, if it was given.
    pub fn get(&self, flag: &str) -> Option<&'a str> {
        self.0.iter().find(|&&(f, _)| f == flag)?.1
    }

    /// The value of `flag`, which the command requires.
    pub fn required(&self, flag: &str) -> Result<&'a str, Error> {
        self.get(flag)
            .ok_or_else(|| Error::spec(format!("{flag} is required")))
    }

    /// Whether the switch (or flag) `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|&(f, _)| f == flag)
    }

    /// The value of `flag` parsed as a `T`, if it was given.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, Error> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| Error::spec(format!("bad {flag} value {v:?}")))
            })
            .transpose()
    }

    /// The value of `flag` parsed as a `T`, or `default` when absent.
    pub fn get_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, Error> {
        Ok(self.parsed(flag)?.unwrap_or(default))
    }
}

/// A command of `bat` or `bat-harness`: its name (`cache inspect` for a
/// subcommand), the flags it takes a value for, its switches, and the
/// function that runs it on its parsed arguments.
pub type Command = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
    fn(&Args) -> Result<ExitCode, Error>,
);

/// The command of `table` that `args` names, and the arguments after its
/// name.
pub fn find_command<'c, 'a>(
    table: &'c [Command],
    args: &'a [String],
) -> Option<(&'c Command, &'a [String])> {
    table.iter().find_map(|command| {
        let words: Vec<&str> = command.0.split(' ').collect();
        let named = args.len() >= words.len() && words.iter().zip(args).all(|(w, a)| *w == *a);
        named.then(|| (command, &args[words.len()..]))
    })
}

/// Run the command of `table` that `args` names on the rest of `args`;
/// `None` when `args` names none. `help`, or `--help` or `-h` anywhere
/// after a command name, prints `help` and runs nothing.
pub fn dispatch(table: &[Command], help: &str, args: &[String]) -> Option<Result<ExitCode, Error>> {
    if args.first()? == "help" || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{help}");
        return Some(Ok(ExitCode::SUCCESS));
    }
    let (&(_, values, switches, run), rest) = find_command(table, args)?;
    Some(Args::parse(rest, values, switches).and_then(|args| run(&args)))
}

/// The flags of `run`: those that take a value, then the switches.
#[rustfmt::skip]
pub const RUN_FLAGS: (&[&str], &[&str]) = (
    &["--spec", "--out", "--shard", "--batch", "--fault-rate", "--threads", "--connect", "--trace", "--cache"],
    &["--resume", "--serial", "--strict", "--quiet"],
);

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
    fn parse(args: &Args) -> Result<RunArgs, Error> {
        let fault_rate = args.parsed("--fault-rate")?;
        if let Some(rate) = fault_rate.filter(|r: &f64| !(0.0..=1.0).contains(r)) {
            return Err(Error::spec(format!(
                "--fault-rate must be in [0, 1], got {rate}"
            )));
        }
        let owned = |flag| args.get(flag).map(String::from);
        Ok(RunArgs {
            spec: owned("--spec"),
            out: owned("--out"),
            resume: args.has("--resume"),
            serial: args.has("--serial"),
            shard: args.get("--shard").map(parse_shard).transpose()?,
            batch: args.parsed("--batch")?,
            fault_rate,
            threads: owned("--threads"),
            endpoint: args
                .get("--connect")
                .map(Endpoint::parse)
                .transpose()?
                .unwrap_or_default(),
            trace: owned("--trace"),
            cache: owned("--cache"),
            strict: args.has("--strict"),
            quiet: args.has("--quiet"),
        })
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

/// Run the `run` command on `args` (parsed against [`RUN_FLAGS`]): execute
/// the spec through [`run_spec_to_file_cached`], print the artifact to
/// stdout when there is no `--out`, and report to stderr. Exits with
/// failure under `--strict` when any trial found no valid configuration.
pub fn run_command(args: &Args) -> Result<ExitCode, Error> {
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
        RunArgs::parse(&Args::parse(&args, RUN_FLAGS.0, RUN_FLAGS.1)?)
    }

    /// An unknown (here: misspelled) flag, a stray argument, a flag
    /// missing its value and a repeated flag or switch are each a spec
    /// error naming the offending token.
    #[test]
    fn run_rejects_unknown_stray_valueless_and_repeated_flags() {
        for (args, token) in [
            (
                &["--spec", "s.json", "--fualt-rate", "0.5", "--out", "x.json"][..],
                "--fualt-rate",
            ),
            (&["--spec", "s.json", "-q"], "-q"),
            (&["--spec", "s.json", "stray"], "stray"),
            (&["--spec", "s.json", "--batch"], "--batch"),
            (
                &["--spec", "a.json", "--out", "o.json", "--spec", "b.json"],
                "--spec",
            ),
            (&["--spec", "s.json", "--quiet", "--quiet"], "--quiet"),
        ] {
            let err = parse(args);
            assert!(
                matches!(&err, Err(Error::Spec(m)) if m.contains(token)),
                "{args:?}: {err:?}"
            );
        }
    }

    #[test]
    fn typed_getters_parse_or_default() {
        let argv: Vec<String> = ["--n", "7", "--x", "abc", "--on"]
            .map(String::from)
            .to_vec();
        let args = Args::parse(&argv, &["--n", "--x", "--m"], &["--on", "--off"]).unwrap();
        assert_eq!(args.get("--n"), Some("7"));
        assert_eq!(args.get("--m"), None);
        assert!(args.has("--on") && !args.has("--off"));
        assert_eq!(args.get_or("--n", 1u64).unwrap(), 7);
        assert_eq!(args.get_or("--m", 1u64).unwrap(), 1);
        let err = args.get_or("--x", 1u64);
        assert!(matches!(err, Err(Error::Spec(m)) if m.contains("--x") && m.contains("abc")));
        // A negative number is a value, not a flag.
        let argv: Vec<String> = ["--n", "-3"].map(String::from).to_vec();
        let args = Args::parse(&argv, &["--n"], &[]).unwrap();
        assert_eq!(args.get_or("--n", 0i64).unwrap(), -3);
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
