//! The campaign executor: compiled trials in, a deterministic artifact out.
//!
//! Every trial is independent — its own problem instance, evaluator,
//! tuner and RNG seed — so trials fan out over the compat-rayon pool and
//! the result is bit-identical no matter how many threads ran them or in
//! what order they finished. Resume works the same way: trials already
//! present in a prior (possibly partial) result are reused verbatim and
//! only the missing ones execute.
//!
//! Every public entry point is a thin configuration of one private
//! engine, [`execute`], and every trial — in-process or remote — is
//! recorded by one function, [`record_trial`].

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use rayon::prelude::*;

use bat_core::{Error, EvalBackend, Evaluator, Protocol, TuningProblem, TuningRun};
use bat_server::wire::OpenSession;
use bat_server::{Daemon, RemoteBackend, ServerConfig};
use bat_tuners::{default_tuners, Tuner};

use crate::result::{CampaignResult, TrialRecord, RESULT_SCHEMA};
use crate::spec::{CompiledTrial, ExperimentSpec, ObjectiveMode, RecordLevel};

/// Trials executed between checkpoint writes of the output artifact.
/// Small enough that an interrupted long campaign loses little work,
/// large enough that serialization stays a rounding error next to trial
/// execution.
pub(crate) const CHECKPOINT_TRIALS: usize = 32;

/// Where campaign trials evaluate.
///
/// The historical (and default) endpoint is [`Endpoint::InProcess`]: each
/// trial builds its own [`Evaluator`] in this process. The remote
/// endpoints route every trial through the `bat/wire/v1` protocol
/// instead — [`Endpoint::Loopback`] against a daemon living in this
/// process (exercising the full codec without a socket), [`Endpoint::Tcp`]
/// against a `bat serve` daemon elsewhere. Because all three share the
/// evaluator semantics, the produced artifacts are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Endpoint {
    /// Evaluate trials with in-process evaluators (the default).
    #[default]
    InProcess,
    /// Spin up a daemon in this process and talk to it over the real
    /// wire codec via an in-memory stream.
    Loopback,
    /// Connect to a `bat serve` daemon at `host:port` (one session per
    /// trial).
    Tcp(String),
}

impl Endpoint {
    /// Parse a `--connect` argument: `in-process`, `loopback`, or a
    /// `host:port` address.
    pub fn parse(s: &str) -> Result<Endpoint, Error> {
        match s {
            "in-process" => Ok(Endpoint::InProcess),
            "loopback" => Ok(Endpoint::Loopback),
            addr if addr.contains(':') => Ok(Endpoint::Tcp(addr.to_string())),
            other => Err(Error::spec(format!(
                "bad endpoint {other:?}: expected in-process, loopback, or host:port"
            ))),
        }
    }
}

/// An [`Endpoint`] resolved for one campaign run: the loopback daemon is
/// created once and shared by every trial (sessions are cheap; daemons
/// own the fair scheduler), so concurrent trials contend exactly like
/// concurrent clients of a real server.
enum Target {
    InProcess,
    Loopback(Daemon),
    Tcp(String),
}

impl Target {
    fn of(endpoint: &Endpoint) -> Target {
        match endpoint {
            Endpoint::InProcess => Target::InProcess,
            Endpoint::Loopback => Target::Loopback(Daemon::new(ServerConfig::default())),
            Endpoint::Tcp(addr) => Target::Tcp(addr.clone()),
        }
    }
}

/// A finished campaign plus execution metadata. The metadata (wall time,
/// executed/reused counts) is deliberately *not* part of the serialized
/// [`CampaignResult`], which must stay a pure function of the spec.
#[derive(Debug)]
pub struct CampaignRun {
    /// The deterministic artifact.
    pub result: CampaignResult,
    /// Whether every compiled trial is present in `result` — always true
    /// for a returned run: an interrupted run returns nothing and leaves
    /// its last checkpoint on disk instead.
    pub complete: bool,
    /// Trials executed in this run.
    pub executed: usize,
    /// Trials reused from a prior result.
    pub reused: usize,
    /// Evaluations spent by the trials executed in this run (reused trials
    /// excluded).
    pub executed_evals: u64,
    /// Wall time spent executing trials.
    pub wall: Duration,
}

impl CampaignRun {
    /// Executed-trial throughput (trials per second of wall time).
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        self.executed as f64 / self.wall.as_secs_f64()
    }

    /// Evaluation throughput of the trials executed in this run.
    pub fn evals_per_sec(&self) -> f64 {
        if self.wall.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        self.executed_evals as f64 / self.wall.as_secs_f64()
    }

    /// One-line execution report (trial counts, wall time, throughput) —
    /// shared by every front-end so the binaries cannot drift.
    pub fn report(&self) -> String {
        format!(
            "{} trials ({} executed, {} reused) in {:.2}s — {:.1} trials/s, {:.0} evals/s",
            self.result.trials.len(),
            self.executed,
            self.reused,
            self.wall.as_secs_f64(),
            self.trials_per_sec(),
            self.evals_per_sec(),
        )
    }
}

/// Look up a suite tuner by name (the default registry plus the
/// multi-objective tuners of `bat-moo`).
pub fn tuner_by_name(name: &str) -> Option<Box<dyn Tuner>> {
    default_tuners()
        .into_iter()
        .chain(bat_moo::moo_tuners())
        .find(|t| t.name() == name)
}

/// Statistics of one tuning run's evaluator — the single source of truth
/// shared with the wire protocol (`SessionStats`) and the summary's
/// resilience tallies. Defined in `bat-core` next to [`EvalBackend`],
/// whose provided `stats()` builds it from the backend's own counters.
pub use bat_core::EvalStats;

/// The harness measurement discipline: a fresh budgeted [`Evaluator`]
/// per run, measuring energy too when `energy` is set.
fn evaluator(
    problem: &dyn TuningProblem,
    protocol: Protocol,
    budget: u64,
    energy: bool,
) -> Evaluator<'_> {
    let eval = Evaluator::with_protocol(problem, protocol).with_budget(budget);
    if energy {
        eval.with_energy()
    } else {
        eval
    }
}

/// Run one tuner on one problem under the harness measurement discipline:
/// a fresh budgeted [`Evaluator`] per run, everything flowing through the
/// shared protocol. `energy` turns on the second objective, so
/// measurements carry `energy_mj` whenever the problem prices it (what
/// `bat pareto` needs); without it the run is the historical time-only one.
pub fn run_tuning(
    problem: &dyn TuningProblem,
    tuner: &dyn Tuner,
    protocol: Protocol,
    budget: u64,
    seed: u64,
    energy: bool,
) -> (TuningRun, EvalStats) {
    let eval = evaluator(problem, protocol, budget, energy);
    let run = tuner.tune(&eval, seed);
    (run, eval.stats())
}

/// The wire-session description of one compiled trial: same protocol,
/// budget, energy flag, scalarization and fault block the in-process
/// evaluator would get, so the daemon's session is semantically the
/// trial's evaluator.
fn open_session(ct: &CompiledTrial) -> OpenSession {
    let mut open = OpenSession::new(&ct.key.benchmark, &ct.key.architecture, ct.protocol);
    open.budget = Some(ct.budget);
    open.energy = ct.objective.mode != ObjectiveMode::Time;
    open.scalarization = ct.objective.scalarization().map(Into::into);
    open.faults = ct.faults.map(|f| (f.model(), f.retry_policy()).into());
    open
}

/// Tune `ct` against `backend` and record the trial — the one trial
/// recorder of every endpoint. The shared ask/tell driver runs against
/// any backend alike, and the Pareto front (like the rest of the record)
/// is derived from the returned run.
fn record_trial(ct: &CompiledTrial, backend: &dyn EvalBackend) -> Result<TrialRecord, Error> {
    let tuner = tuner_by_name(&ct.key.tuner)
        .ok_or_else(|| Error::spec(format!("unknown tuner {:?}", ct.key.tuner)))?;
    let run = tuner.try_tune(backend, ct.seed)?;
    let names = backend.space().names();
    let keep_history = ct.record == RecordLevel::Full;
    let mut record =
        TrialRecord::from_run(&ct.key, ct.seed, &run, names, backend.stats(), keep_history);
    if ct.objective.mode == ObjectiveMode::Pareto {
        let front = bat_moo::front_of_run(&run, ct.objective.front_capacity());
        record.front = Some(front.front().to_vec());
    }
    Ok(record)
}

/// Record `ct` over an open remote session, then close it.
fn record_remote<S: Read + Write>(
    ct: &CompiledTrial,
    backend: RemoteBackend<S>,
) -> Result<TrialRecord, Error> {
    let record = record_trial(ct, &backend)?;
    backend.close()?;
    Ok(record)
}

/// The evaluator an in-process trial tunes `problem` with: every
/// non-`time` mode measures energy, and a spec-level `faults` block
/// installs the fault model and retry policy. Without one the evaluation
/// path — and therefore every artifact byte — is exactly the pre-fault
/// one.
fn trial_evaluator<'p>(problem: &'p dyn TuningProblem, ct: &CompiledTrial) -> Evaluator<'p> {
    let energy = ct.objective.mode != ObjectiveMode::Time;
    let eval = evaluator(problem, ct.protocol, ct.budget, energy);
    match ct.faults {
        Some(f) => eval.with_faults(f.model(), f.retry_policy()),
        None => eval,
    }
}

/// Record `ct` with an in-process evaluator. The trial only chooses its
/// problem: blended objectives wrap the kernel in a
/// [`bat_moo::Scalarized`] (`best_ms` then holds the blend), time and
/// Pareto modes tune the kernel itself.
fn record_in_process(ct: &CompiledTrial) -> Result<TrialRecord, Error> {
    let arch = bat_gpusim::GpuArch::by_name(&ct.key.architecture)
        .ok_or_else(|| Error::spec(format!("unknown GPU {:?}", ct.key.architecture)))?;
    let problem = bat_kernels::benchmark(&ct.key.benchmark, arch)
        .ok_or_else(|| Error::spec(format!("unknown benchmark {:?}", ct.key.benchmark)))?;
    match ct.objective.scalarization() {
        None => record_trial(ct, &trial_evaluator(&problem, ct)),
        Some(s) => {
            let blended = bat_moo::Scalarized::new(problem, s);
            record_trial(ct, &trial_evaluator(&blended, ct))
        }
    }
}

/// Execute one trial at `target`, wrapped in a `trial` trace span
/// parented (via explicit id — trials run on pool threads, not under the
/// campaign span's thread stack) to the enclosing `campaign` span.
fn execute_trial(ct: &CompiledTrial, target: &Target, parent: u64) -> Result<TrialRecord, Error> {
    let mut sp = bat_obs::trace::span_at("trial", parent);
    sp.record_str("tuner", &ct.key.tuner);
    sp.record_str("benchmark", &ct.key.benchmark);
    sp.record_u64("seed", ct.seed);
    let out = match target {
        Target::InProcess => record_in_process(ct),
        Target::Loopback(daemon) => record_remote(
            ct,
            RemoteBackend::open(daemon.connect_loopback(), open_session(ct))?,
        ),
        Target::Tcp(addr) => record_remote(ct, RemoteBackend::connect(addr, open_session(ct))?),
    };
    if let Ok(record) = &out {
        sp.record_u64("evals", record.evals);
    }
    out
}

/// How trials are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Execution {
    /// Fan trials out over the compat-rayon pool (the default).
    Parallel,
    /// Run trials one by one on the calling thread (determinism oracle).
    Serial,
}

/// How strictly a prior artifact's spec must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PriorMatch {
    /// Byte-for-byte spec equality — the resume contract. Kept strict on
    /// purpose: resuming a *sharded* spec from an unsharded artifact would
    /// let the checkpoint writer overwrite a complete artifact with the
    /// shard's subset, destroying the other shards' trials.
    Exact,
    /// Equality modulo the shard block — the merge contract, where shard
    /// artifacts deliberately recombine into the unsharded campaign
    /// (per-trial seeds never depend on the shard block).
    IgnoreShard,
}

/// Check that `prior` is an artifact of `spec`'s campaign. A mismatch is
/// an [`Error::Session`] starting "cannot resume".
fn validate_prior(
    spec: &ExperimentSpec,
    prior: &CampaignResult,
    matching: PriorMatch,
) -> Result<(), Error> {
    if prior.schema != RESULT_SCHEMA {
        return Err(Error::session(format!(
            "cannot resume: prior result schema {:?} is not {RESULT_SCHEMA:?}",
            prior.schema
        )));
    }
    let matches = match matching {
        PriorMatch::Exact => prior.spec == *spec,
        PriorMatch::IgnoreShard => prior.spec.same_campaign(spec),
    };
    if !matches {
        return Err(Error::session(
            "cannot resume: prior result was produced by a different spec",
        ));
    }
    Ok(())
}

type PriorIndex<'a> = std::collections::HashMap<(&'a str, &'a str, &'a str, u32), &'a TrialRecord>;

/// Index prior records by trial key (first prior holding a key wins) — a
/// linear `find()` per compiled trial would make resuming large campaigns
/// quadratic.
fn index_prior<'a>(priors: &[&'a CampaignResult]) -> PriorIndex<'a> {
    let mut index = PriorIndex::new();
    for p in priors {
        for r in &p.trials {
            index
                .entry((
                    r.tuner.as_str(),
                    r.benchmark.as_str(),
                    r.architecture.as_str(),
                    r.rep,
                ))
                .or_insert(r);
        }
    }
    index
}

/// The prior's record for `ct`, if its key and seed match.
fn reuse_record(index: &PriorIndex<'_>, ct: &CompiledTrial) -> Option<TrialRecord> {
    index
        .get(&(
            ct.key.tuner.as_str(),
            ct.key.benchmark.as_str(),
            ct.key.architecture.as_str(),
            ct.key.rep,
        ))
        .filter(|r| r.seed == ct.seed)
        .map(|r| (*r).clone())
}

/// A checkpoint callback: receives the canonical-order partial artifact.
pub(crate) type Checkpoint<'a> = &'a mut dyn FnMut(&CampaignResult) -> Result<(), Error>;

/// The campaign engine behind every entry point.
///
/// Every compiled trial found in `priors` (validated under `matching`;
/// the first prior holding a key wins) is reused verbatim, the rest
/// execute at `endpoint`. Without a `checkpoint` all pending trials run
/// in one pass. With one, they run in [`CHECKPOINT_TRIALS`]-sized steps
/// and `checkpoint` receives the partial artifact after each step (and
/// once up front when every trial was reused), so an interrupted run
/// loses at most one step.
pub(crate) fn execute(
    spec: &ExperimentSpec,
    priors: &[&CampaignResult],
    matching: PriorMatch,
    execution: Execution,
    endpoint: &Endpoint,
    mut checkpoint: Option<Checkpoint<'_>>,
) -> Result<CampaignRun, Error> {
    let target = Target::of(endpoint);
    let compiled = spec.compile().map_err(Error::spec)?;
    for p in priors {
        validate_prior(spec, p, matching)?;
    }

    // `present[i]` ⇔ compiled trial `i` is already in `result.trials`
    // (which stays sorted in canonical compiled order throughout).
    let prior_index = index_prior(priors);
    let mut present = vec![false; compiled.len()];
    let mut trials = Vec::with_capacity(compiled.len());
    for (i, ct) in compiled.iter().enumerate() {
        if let Some(r) = reuse_record(&prior_index, ct) {
            present[i] = true;
            trials.push(r);
        }
    }
    let reused = trials.len();
    let mut result = CampaignResult {
        schema: RESULT_SCHEMA.to_string(),
        spec: spec.clone(),
        trials,
    };
    let todo: Vec<(usize, &CompiledTrial)> = present
        .iter()
        .enumerate()
        .filter(|(_, p)| !**p)
        .map(|(i, _)| (i, &compiled[i]))
        .collect();
    let executed = todo.len();
    let step = match checkpoint {
        Some(_) => CHECKPOINT_TRIALS,
        None => executed.max(1),
    };
    if let (0, Some(checkpoint)) = (executed, checkpoint.as_mut()) {
        checkpoint(&result)?;
    }

    let mut campaign_span = bat_obs::trace::span("campaign");
    campaign_span.record_str("name", &spec.name);
    campaign_span.record_u64("trials", compiled.len() as u64);
    campaign_span.record_u64("reused", reused as u64);
    let parent = campaign_span.id();

    let start = Instant::now();
    let mut executed_evals = 0u64;
    // Records arrive in strictly ascending compiled index, so a running
    // cursor yields each insert position in O(1) amortized instead of a
    // per-record prefix scan. Inserts only shift when resuming into holes
    // before reused trials; fresh runs append.
    let mut cursor_i = 0usize;
    let mut cursor_pos = 0usize;
    for chunk in todo.chunks(step) {
        let run = |&(i, ct): &(usize, &CompiledTrial)| (i, execute_trial(ct, &target, parent));
        let outcomes: Vec<(usize, Result<TrialRecord, Error>)> = match execution {
            Execution::Parallel => chunk.par_iter().map(run).collect(),
            Execution::Serial => chunk.iter().map(run).collect(),
        };
        for (i, outcome) in outcomes {
            let record = outcome?;
            executed_evals += record.evals;
            while cursor_i < i {
                cursor_pos += usize::from(present[cursor_i]);
                cursor_i += 1;
            }
            result.trials.insert(cursor_pos, record);
            present[i] = true;
        }
        if let Some(checkpoint) = checkpoint.as_mut() {
            checkpoint(&result)?;
        }
    }

    Ok(CampaignRun {
        result,
        complete: true,
        executed,
        reused,
        executed_evals,
        wall: start.elapsed(),
    })
}

/// Run a campaign, fanning trials out over the compat-rayon pool.
pub fn run_campaign(spec: &ExperimentSpec) -> Result<CampaignRun, Error> {
    run_campaign_at(spec, &Endpoint::InProcess)
}

/// [`run_campaign`] against an explicit evaluation [`Endpoint`]. The
/// artifact is byte-identical across endpoints; only where evaluations
/// execute changes.
pub fn run_campaign_at(spec: &ExperimentSpec, endpoint: &Endpoint) -> Result<CampaignRun, Error> {
    execute(
        spec,
        &[],
        PriorMatch::Exact,
        Execution::Parallel,
        endpoint,
        None,
    )
}

/// Run a campaign strictly sequentially (the determinism oracle: its
/// result must be byte-identical to [`run_campaign`]'s).
pub fn run_campaign_serial(spec: &ExperimentSpec) -> Result<CampaignRun, Error> {
    execute(
        spec,
        &[],
        PriorMatch::Exact,
        Execution::Serial,
        &Endpoint::InProcess,
        None,
    )
}

/// Run a campaign, reusing every trial of `prior` that matches the spec
/// (same key and derived seed). `prior` may be partial — e.g. an artifact
/// from an interrupted run — and may even contain no usable trials, in
/// which case this degenerates to a full run.
pub fn resume_campaign(
    spec: &ExperimentSpec,
    prior: &CampaignResult,
) -> Result<CampaignRun, Error> {
    execute(
        spec,
        &[prior],
        PriorMatch::Exact,
        Execution::Parallel,
        &Endpoint::InProcess,
        None,
    )
}

/// Merge any number of (typically shard) artifacts into `spec`'s campaign:
/// every compiled trial found in a prior is reused (first prior wins),
/// missing trials execute. Merging the complete shards of a spec therefore
/// reproduces the unsharded artifact byte-for-byte without executing
/// anything.
pub fn merge_campaigns(
    spec: &ExperimentSpec,
    priors: &[CampaignResult],
) -> Result<CampaignRun, Error> {
    let refs: Vec<&CampaignResult> = priors.iter().collect();
    execute(
        spec,
        &refs,
        PriorMatch::IgnoreShard,
        Execution::Parallel,
        &Endpoint::InProcess,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ObjectiveSpec, Selector, ShardSpec};

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            tuners: Selector::Subset(vec!["random-search".into(), "simulated-annealing".into()]),
            benchmarks: Selector::Subset(vec!["nbody".into()]),
            architectures: Selector::Subset(vec!["RTX 3090".into()]),
            budget: 25,
            repetitions: 2,
            ..ExperimentSpec::new("campaign-unit")
        }
    }

    #[test]
    fn parallel_and_serial_runs_are_byte_identical() {
        let s = spec();
        let a = run_campaign(&s).unwrap();
        let b = run_campaign_serial(&s).unwrap();
        assert_eq!(a.result.to_json(), b.result.to_json());
        assert_eq!(a.executed, 4);
        assert_eq!(a.reused, 0);
    }

    #[test]
    fn loopback_campaign_is_byte_identical_to_in_process() {
        let s = spec();
        let local = run_campaign(&s).unwrap();
        let loopback = run_campaign_at(&s, &Endpoint::Loopback).unwrap();
        assert_eq!(loopback.result.to_json(), local.result.to_json());
        assert_eq!(loopback.executed, 4);
    }

    #[test]
    fn loopback_matches_in_process_across_objectives_and_faults() {
        // Every objective mode routes through the daemon differently
        // (energy flag, scalarization block, client-side fronts), and a
        // fault block rides along on the wire — all must reproduce the
        // in-process artifact byte for byte.
        for mode in [
            ObjectiveMode::Energy,
            ObjectiveMode::Edp,
            ObjectiveMode::Scalarized,
            ObjectiveMode::Pareto,
        ] {
            let mut s = ExperimentSpec {
                objective: ObjectiveSpec {
                    mode,
                    weight: (mode == ObjectiveMode::Scalarized).then_some(0.3),
                    front_capacity: (mode == ObjectiveMode::Pareto).then_some(8),
                    ..ObjectiveSpec::default()
                },
                record: crate::spec::RecordLevel::Curve,
                budget: 15,
                repetitions: 1,
                ..spec()
            };
            s.set_fault_rate(0.05);
            let local = run_campaign(&s).unwrap();
            let loopback = run_campaign_at(&s, &Endpoint::Loopback).unwrap();
            assert_eq!(
                loopback.result.to_json(),
                local.result.to_json(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn endpoint_parses_the_connect_argument() {
        assert_eq!(Endpoint::parse("in-process").unwrap(), Endpoint::InProcess);
        assert_eq!(Endpoint::parse("loopback").unwrap(), Endpoint::Loopback);
        assert_eq!(
            Endpoint::parse("10.0.0.1:4780").unwrap(),
            Endpoint::Tcp("10.0.0.1:4780".into())
        );
        assert!(Endpoint::parse("carrier-pigeon").is_err());
    }

    #[test]
    fn remote_failures_are_typed_not_stringly() {
        // A daemonless TCP endpoint fails with a transport error wrapped
        // in the unified hierarchy, not a panic or ad-hoc string.
        let s = spec();
        let err = run_campaign_at(&s, &Endpoint::Tcp("127.0.0.1:1".into())).unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err:?}");
        // A trial naming an unknown tuner (reachable through resumable
        // artifacts, past spec validation) is a spec error.
        let mut ct = s.compile().unwrap().remove(0);
        ct.key.tuner = "no-such-tuner".into();
        let core = execute_trial(&ct, &Target::InProcess, 0).unwrap_err();
        assert!(matches!(core, Error::Spec(_)));
    }

    #[test]
    fn trials_spend_their_budget_and_record_order_is_canonical() {
        let s = spec();
        let run = run_campaign(&s).unwrap();
        assert_eq!(run.result.trials.len(), 4);
        for t in &run.result.trials {
            assert_eq!(t.evals, 25);
            assert!(t.best_ms.is_some());
            assert!(t.distinct_evals <= t.evals);
        }
        let keys: Vec<(String, u32)> = run
            .result
            .trials
            .iter()
            .map(|t| (t.tuner.clone(), t.rep))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("random-search".into(), 0),
                ("random-search".into(), 1),
                ("simulated-annealing".into(), 0),
                ("simulated-annealing".into(), 1),
            ]
        );
    }

    #[test]
    fn resume_from_partial_result_reproduces_full_result() {
        let s = spec();
        let full = run_campaign(&s).unwrap();
        let mut partial = full.result.clone();
        partial.trials.truncate(1);
        let resumed = resume_campaign(&s, &partial).unwrap();
        assert_eq!(resumed.reused, 1);
        assert_eq!(resumed.executed, 3);
        assert_eq!(resumed.result.to_json(), full.result.to_json());
    }

    #[test]
    fn resume_rejects_foreign_artifacts() {
        let s = spec();
        let full = run_campaign(&s).unwrap();
        let other = ExperimentSpec { seed: 99, ..spec() };
        assert!(matches!(
            resume_campaign(&other, &full.result),
            Err(Error::Session(_))
        ));
        // Resume is shard-strict: a sharded spec must not resume from (and
        // later overwrite) the unsharded artifact — recombination goes
        // through `merge_campaigns` only.
        let sharded = ExperimentSpec {
            shard: Some(ShardSpec { index: 0, count: 2 }),
            ..spec()
        };
        assert!(matches!(
            resume_campaign(&sharded, &full.result),
            Err(Error::Session(_))
        ));
        // Merge accepts the same pairing by design.
        assert!(merge_campaigns(&sharded, std::slice::from_ref(&full.result)).is_ok());
    }

    #[test]
    fn sharded_runs_merge_to_the_unsharded_artifact() {
        let s = spec();
        let full = run_campaign(&s).unwrap();
        let shards: Vec<CampaignResult> = (0..2)
            .map(|index| {
                run_campaign(&ExperimentSpec {
                    shard: Some(ShardSpec { index, count: 2 }),
                    ..spec()
                })
                .unwrap()
                .result
            })
            .collect();
        assert_eq!(shards[0].trials.len() + shards[1].trials.len(), 4);
        let merged = merge_campaigns(&s, &shards).unwrap();
        assert_eq!(merged.executed, 0);
        assert_eq!(merged.reused, 4);
        assert_eq!(merged.result.to_json(), full.result.to_json());
        // A missing shard degenerates to executing the hole.
        let partial = merge_campaigns(&s, &shards[..1]).unwrap();
        assert_eq!(partial.reused, shards[0].trials.len());
        assert_eq!(partial.result.to_json(), full.result.to_json());
    }

    #[test]
    fn pareto_objective_records_clean_fronts() {
        let s = ExperimentSpec {
            tuners: Selector::Subset(vec!["nsga2".into(), "random-search".into()]),
            objective: ObjectiveSpec {
                mode: ObjectiveMode::Pareto,
                front_capacity: Some(8),
                ..ObjectiveSpec::default()
            },
            record: crate::spec::RecordLevel::Curve,
            budget: 60,
            repetitions: 1,
            ..spec()
        };
        let run = run_campaign(&s).unwrap();
        let serial = run_campaign_serial(&s).unwrap();
        assert_eq!(run.result.to_json(), serial.result.to_json());
        for t in &run.result.trials {
            let front = t.front.as_ref().expect("pareto trials record fronts");
            assert!(!front.is_empty() && front.len() <= 8);
            // Mutually non-dominated, sorted by time.
            for w in front.windows(2) {
                assert!(w[0].time_ms < w[1].time_ms);
                assert!(w[0].energy_mj > w[1].energy_mj);
            }
            assert!(t.best_energy_mj.is_some());
        }
    }

    #[test]
    fn scalarized_objectives_measure_energy_and_stay_deterministic() {
        for mode in [
            ObjectiveMode::Energy,
            ObjectiveMode::Edp,
            ObjectiveMode::Scalarized,
        ] {
            let s = ExperimentSpec {
                objective: ObjectiveSpec {
                    mode,
                    weight: (mode == ObjectiveMode::Scalarized).then_some(0.5),
                    ..ObjectiveSpec::default()
                },
                record: crate::spec::RecordLevel::Curve,
                budget: 20,
                ..spec()
            };
            let a = run_campaign(&s).unwrap();
            let b = run_campaign_serial(&s).unwrap();
            assert_eq!(a.result.to_json(), b.result.to_json(), "{mode:?}");
            for t in &a.result.trials {
                assert!(t.best_ms.is_some(), "{mode:?}");
                assert!(t.best_energy_mj.is_some(), "{mode:?}");
            }
        }
    }

    #[test]
    fn objective_modes_select_different_optima() {
        // On gemm × RTX 3090 with a healthy budget, the time-optimal and
        // energy-optimal configurations should differ (that is the whole
        // point of the second objective).
        let base = ExperimentSpec {
            tuners: Selector::Subset(vec!["greedy-ils".into()]),
            benchmarks: Selector::Subset(vec!["gemm".into()]),
            architectures: Selector::Subset(vec!["RTX 3090".into()]),
            budget: 400,
            repetitions: 1,
            record: crate::spec::RecordLevel::Curve,
            ..ExperimentSpec::new("objective-split")
        };
        let time = run_campaign(&base).unwrap();
        let energy = run_campaign(&ExperimentSpec {
            objective: ObjectiveSpec {
                mode: ObjectiveMode::Energy,
                ..ObjectiveSpec::default()
            },
            ..base.clone()
        })
        .unwrap();
        let t_cfg = &time.result.trials[0].best_config;
        let e_cfg = &energy.result.trials[0].best_config;
        assert_ne!(t_cfg, e_cfg, "time and energy optima coincide");
    }

    #[test]
    fn run_tuning_matches_direct_evaluator_use() {
        let arch = bat_gpusim::GpuArch::rtx_3090();
        let p = bat_kernels::benchmark("nbody", arch).unwrap();
        let tuner = tuner_by_name("random-search").unwrap();
        let (run, stats) = run_tuning(&p, tuner.as_ref(), Protocol::default(), 30, 7, false);
        let eval = Evaluator::with_protocol(&p, Protocol::default()).with_budget(30);
        let direct = bat_tuners::RandomSearch.tune(&eval, 7);
        assert_eq!(run, direct);
        assert_eq!(stats.evals, 30);
    }
}
