//! The four workloads: set-up, the timed region, the traced region and
//! the correctness checks.
//!
//! The timed region calls the harness exactly as a user's front-end
//! does (`run_campaign_at`, `run_spec_to_file_cached`). The traced
//! region replays the same campaign through a trial loop owned by the
//! benchmark (`tuner_by_name` → `Tuner::start` → `try_drive` over the
//! timing wrappers → `TrialRecord::from_run`), and must produce the same
//! artifact bytes.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;

use bat_cache::CacheStore;
use bat_core::{EvalBackend, Evaluator, TuningProblem};
use bat_gpusim::GpuArch;
use bat_harness::{
    cache_prior, campaign_metadata, fold_run_into_cache, known_tuners, load_spec_file,
    metadata_path, run_campaign_at, run_spec_to_file_cached, tuner_by_name, CampaignResult,
    CompiledTrial, Endpoint, ExperimentSpec, RecordLevel, TrialRecord, RESULT_SCHEMA,
};
use bat_server::wire::{OpenSession, Request, Response};
use bat_server::{codec, Daemon, RemoteBackend, ServerConfig};
use bat_tuners::try_drive;

use crate::layers::{CountingStream, TracedBackend, TracedStep, WireCounts};
use crate::stats::fnv64;
use crate::trace::{Kind, Span, SpanTree, TrialLog, NO_PARENT};

/// The seed every spec file carries; runs at this seed are checked
/// against [`COMMITTED`].
pub const DEFAULT_SEED: u64 = 0;

/// Trials between artifact checkpoints, as in the harness's file-backed
/// runs.
const CHECKPOINT_TRIALS: usize = 32;

/// FNV-64 digests of every artifact at [`DEFAULT_SEED`]:
/// `(workload, artifact, digest)`.
pub const COMMITTED: [(&str, &str, u64); 6] = [
    ("paper-ranking", "artifact", 0x4a98_6f99_f21b_5ea5),
    ("search-sweep", "artifact", 0x8909_8179_4943_2278),
    ("loopback", "artifact.b1", 0x5eb9_7bbd_0e10_dd33),
    ("loopback", "artifact.b64", 0x428c_265f_6b52_5d33),
    ("cache-extend", "artifact", 0xb6ad_c22e_8f7c_fecc),
    ("cache-extend", "cache", 0xeff3_f91c_b280_e0db),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `specs/paper-ranking.json` in-process: the headline campaign.
    PaperRanking,
    /// The nine search heuristics at budget 2000, batch 1, in-process.
    SearchSweep,
    /// The search heuristics over the loopback wire, batch 1 then 64.
    Loopback,
    /// A cached campaign extending a pristine two-rep cache to four reps.
    CacheExtend,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PaperRanking,
        Workload::SearchSweep,
        Workload::Loopback,
        Workload::CacheExtend,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRanking => "paper-ranking",
            Workload::SearchSweep => "search-sweep",
            Workload::Loopback => "loopback",
            Workload::CacheExtend => "cache-extend",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One campaign the workload runs: the spec, where it evaluates, and its
/// compiled trials.
pub struct Leg {
    /// Leg label used in digests and metric names (`""` for one-leg
    /// workloads).
    pub label: &'static str,
    /// The campaign.
    pub spec: ExperimentSpec,
    /// Where its trials evaluate.
    pub endpoint: Endpoint,
    /// Its compiled trials, in canonical order.
    pub compiled: Vec<CompiledTrial>,
}

/// A workload after set-up.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed (the specs' `seed`).
    pub seed: u64,
    /// The campaigns of the timed region, run in order.
    pub legs: Vec<Leg>,
    /// `cache-extend`: the pristine two-rep cache file's bytes.
    pub pristine: Vec<u8>,
    work: PathBuf,
}

/// One pass over the timed region.
pub struct Rep {
    /// Wall time of the region, all legs.
    pub wall_s: f64,
    /// Wall time per leg.
    pub leg_s: Vec<f64>,
    /// Evaluations executed (cache-replayed trials excluded).
    pub evals: u64,
    /// Artifact digests: `(name, digest)`.
    pub digests: Vec<(String, u64)>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn spec_path(w: Workload) -> String {
    format!("{}/specs/{}.json", env!("CARGO_MANIFEST_DIR"), w.name())
}

impl Prepared {
    fn cache_path(&self) -> PathBuf {
        self.work.join("cache.json")
    }

    fn artifact_path(&self) -> PathBuf {
        self.work.join("artifact.json")
    }

    /// Trials the timed region attempts, all legs.
    pub fn trials(&self) -> usize {
        self.legs.iter().map(|l| l.compiled.len()).sum()
    }
}

fn path_str(p: &Path) -> Result<&str, String> {
    p.to_str()
        .ok_or_else(|| format!("work path {p:?} is not UTF-8"))
}

/// Everything before the timed region: load and compile the specs, build
/// each (benchmark, architecture) problem once, warm the worker pool,
/// start a loopback daemon and ping it (`loopback`), and build the
/// pristine cache from a cold two-rep run (`cache-extend`).
pub fn setup(workload: Workload, seed: u64, work: &Path) -> Result<Prepared, String> {
    let mut spec = load_spec_file(&spec_path(workload)).map_err(err)?;
    spec.seed = seed;
    if !spec.objective.is_default() || spec.faults.is_some() {
        return Err("benchmark specs must be time-only and fault-free".into());
    }
    let mut legs = Vec::new();
    if workload == Workload::Loopback {
        for (label, batch) in [("b1", 1), ("b64", 64)] {
            let mut leg = spec.clone();
            leg.protocol.set_batch(batch);
            legs.push((label, leg, Endpoint::Loopback));
        }
    } else {
        legs.push(("", spec.clone(), Endpoint::InProcess));
    }
    let legs: Vec<Leg> = legs
        .into_iter()
        .map(|(label, spec, endpoint)| {
            let compiled = spec.compile().map_err(err)?;
            Ok(Leg {
                label,
                spec,
                endpoint,
                compiled,
            })
        })
        .collect::<Result<_, String>>()?;

    let cells: BTreeSet<(&str, &str)> = legs
        .iter()
        .flat_map(|l| &l.compiled)
        .map(|ct| (ct.key.benchmark.as_str(), ct.key.architecture.as_str()))
        .collect();
    for (benchmark, architecture) in cells {
        std::hint::black_box(build_problem(benchmark, architecture)?);
    }

    let threads = rayon::current_num_threads();
    let warm: usize = (0..threads * 8)
        .into_par_iter()
        .map(std::hint::black_box)
        .sum();
    std::hint::black_box(warm);

    if workload == Workload::Loopback {
        let daemon = Daemon::new(ServerConfig::default());
        let mut conn = daemon.connect_loopback();
        codec::write_request(&mut conn, Request::Ping).map_err(err)?;
        match codec::read_response(&mut conn).map_err(err)? {
            Response::Pong => {}
            other => return Err(format!("loopback daemon answered {other:?} to ping")),
        }
    }

    let mut prepared = Prepared {
        workload,
        seed,
        legs,
        pristine: Vec::new(),
        work: work.to_path_buf(),
    };
    if workload == Workload::CacheExtend {
        let mut cold = spec;
        cold.repetitions = 2;
        let path = prepared.work.join("pristine.json");
        remove(&path)?;
        run_spec_to_file_cached(
            &cold,
            None,
            false,
            false,
            &Endpoint::InProcess,
            Some(path_str(&path)?),
        )
        .map_err(err)?;
        prepared.pristine = std::fs::read(&path).map_err(err)?;
    }
    Ok(prepared)
}

fn remove(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {path:?}: {e}"))
        }
        _ => Ok(()),
    }
}

fn build_problem(benchmark: &str, architecture: &str) -> Result<bat_kernels::GpuBenchmark, String> {
    let arch =
        GpuArch::by_name(architecture).ok_or_else(|| format!("unknown GPU {architecture:?}"))?;
    bat_kernels::benchmark(benchmark, arch)
        .ok_or_else(|| format!("unknown benchmark {benchmark:?}"))
}

/// Reset the cache-extend files: a fresh copy of the pristine cache, no
/// artifact.
fn fresh_cache(p: &Prepared) -> Result<(), String> {
    std::fs::write(p.cache_path(), &p.pristine).map_err(err)?;
    remove(&p.artifact_path())?;
    remove(Path::new(&metadata_path(path_str(&p.artifact_path())?)))
}

fn file_digest(path: &Path) -> Result<u64, String> {
    Ok(fnv64(
        &std::fs::read(path).map_err(|e| format!("reading {path:?}: {e}"))?,
    ))
}

fn digest_name(leg: &Leg) -> String {
    if leg.label.is_empty() {
        "artifact".into()
    } else {
        format!("artifact.{}", leg.label)
    }
}

/// One pass over the timed region, through the harness's public entry
/// points.
pub fn timed(p: &Prepared) -> Result<Rep, String> {
    let mut rep = Rep {
        wall_s: 0.0,
        leg_s: Vec::new(),
        evals: 0,
        digests: Vec::new(),
    };
    if p.workload == Workload::CacheExtend {
        fresh_cache(p)?;
        let leg = &p.legs[0];
        let start = Instant::now();
        let run = run_spec_to_file_cached(
            &leg.spec,
            Some(path_str(&p.artifact_path())?),
            false,
            false,
            &leg.endpoint,
            Some(path_str(&p.cache_path())?),
        )
        .map_err(err)?;
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.leg_s.push(rep.wall_s);
        rep.evals = run.executed_evals;
        rep.digests
            .push(("artifact".into(), file_digest(&p.artifact_path())?));
        rep.digests
            .push(("cache".into(), file_digest(&p.cache_path())?));
        return Ok(rep);
    }
    for leg in &p.legs {
        let start = Instant::now();
        let run = run_campaign_at(&leg.spec, &leg.endpoint).map_err(err)?;
        let wall = start.elapsed().as_secs_f64();
        if !run.complete {
            return Err(format!("{} left trials unexecuted", leg.spec.name));
        }
        rep.wall_s += wall;
        rep.leg_s.push(wall);
        rep.evals += run.executed_evals;
        rep.digests
            .push((digest_name(leg), fnv64(run.result.to_json().as_bytes())));
    }
    Ok(rep)
}

/// Check `reps` against each other, the workload's cross-checks and, at
/// [`DEFAULT_SEED`], the committed digests. Returns every problem found.
pub fn verify(p: &Prepared, reps: &[&[(String, u64)]]) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let Some(first) = reps.first() else {
        return Ok(vec!["no run completed".into()]);
    };
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r != first {
            problems.push(format!("run {i} produced different artifacts than run 0"));
        }
    }
    let digest = |name: &str| first.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
    match p.workload {
        Workload::Loopback => {
            for leg in &p.legs {
                let start = Instant::now();
                let run = run_campaign_at(&leg.spec, &Endpoint::InProcess).map_err(err)?;
                let name = digest_name(leg);
                println!(
                    "{name} in-process (cross-check): wall {:.4} s",
                    start.elapsed().as_secs_f64()
                );
                if digest(&name) != Some(fnv64(run.result.to_json().as_bytes())) {
                    problems.push(format!("loopback {name} differs from the in-process run"));
                }
            }
        }
        Workload::CacheExtend => {
            let run = run_campaign_at(&p.legs[0].spec, &Endpoint::InProcess).map_err(err)?;
            if digest("artifact") != Some(fnv64(run.result.to_json().as_bytes())) {
                problems.push("cached artifact differs from the cold artifact".into());
            }
        }
        Workload::PaperRanking | Workload::SearchSweep => {}
    }
    if p.seed == DEFAULT_SEED {
        for (w, name, want) in COMMITTED {
            if w == p.workload.name() && digest(name) != Some(want) {
                problems.push(format!(
                    "{name} digest {:016x} is not the committed {want:016x}",
                    digest(name).unwrap_or(0)
                ));
            }
        }
    }
    Ok(problems)
}

/// Program counters read before and after the traced region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `bat_eval_memo_hits_total`.
    pub memo_hits: u64,
    /// `bat_eval_measured_total`.
    pub measured: u64,
    /// `bat_serve_requests_total`.
    pub requests: u64,
    /// `rayon::pool_busy_us()`.
    pub pool_busy_us: u64,
}

impl Counters {
    fn read() -> Counters {
        let c = |name| bat_obs::metrics::counter_value(name).unwrap_or(0);
        Counters {
            memo_hits: c("bat_eval_memo_hits_total"),
            measured: c("bat_eval_measured_total"),
            requests: c("bat_serve_requests_total"),
            pool_busy_us: rayon::pool_busy_us(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            memo_hits: self.memo_hits - before.memo_hits,
            measured: self.measured - before.measured,
            requests: self.requests - before.requests,
            pool_busy_us: self.pool_busy_us - before.pool_busy_us,
        }
    }
}

/// What the traced region recorded.
pub struct Traced {
    /// Every span.
    pub tree: SpanTree,
    /// Tuner names, indexed by trial span tags.
    pub tuners: Vec<String>,
    /// Wall time of the traced region.
    pub wall_s: f64,
    /// Artifact digests, as in [`Rep::digests`].
    pub digests: Vec<(String, u64)>,
    /// Evaluations and distinct evaluations over every executed trial.
    pub evals: u64,
    /// Distinct configurations measured over every executed trial.
    pub distinct: u64,
    /// Artifact bytes written, all legs.
    pub artifact_bytes: u64,
    /// Counter deltas over the traced region.
    pub counters: Counters,
    /// Client-side wire traffic.
    pub wire: Arc<WireCounts>,
    /// `cache-extend`: size of the cache file loaded.
    pub cache_file_bytes: u64,
    /// `cache-extend`: trials replayed from the cache.
    pub cache_hits: u64,
    /// `cache-extend`: trials executed.
    pub cache_misses: u64,
}

/// Where a traced trial evaluates.
enum Via<'a> {
    InProcess,
    Loopback(&'a Daemon, &'a Arc<WireCounts>),
}

/// One trial, replayed through the benchmark's own trial loop with every
/// layer boundary timed. Time-only, fault-free trials only (checked in
/// [`setup`]).
fn traced_trial(ct: &CompiledTrial, tag: u8, leg: u8, via: &Via<'_>) -> TrialOutcome {
    let log = TrialLog::open(tag, leg);
    let tuner =
        tuner_by_name(&ct.key.tuner).ok_or_else(|| format!("unknown tuner {:?}", ct.key.tuner))?;
    let keep_history = ct.record == RecordLevel::Full;
    let record = match via {
        Via::InProcess => {
            let problem = log.time(Kind::ProblemBuild, || {
                build_problem(&ct.key.benchmark, &ct.key.architecture)
            })?;
            let names = problem.space().names().to_vec();
            let eval = Evaluator::with_protocol(&problem, ct.protocol).with_budget(ct.budget);
            let backend = TracedBackend::new(&eval, &log, Kind::EvaluateBatch);
            let mut session = TracedStep::new(tuner.start(backend.space(), ct.seed), &log);
            let run = try_drive(tuner.name(), &mut session, &backend, ct.seed).map_err(err)?;
            drop(session);
            let stats = EvalBackend::stats(&eval);
            TrialRecord::from_run(&ct.key, ct.seed, &run, &names, stats, keep_history)
        }
        Via::Loopback(daemon, wire) => {
            let remote = log
                .time(Kind::Open, || {
                    let mut open =
                        OpenSession::new(&ct.key.benchmark, &ct.key.architecture, ct.protocol);
                    open.budget = Some(ct.budget);
                    let conn = CountingStream::new(daemon.connect_loopback(), Arc::clone(wire));
                    RemoteBackend::open(conn, open)
                })
                .map_err(err)?;
            let names = remote.space().names().to_vec();
            let backend = TracedBackend::new(&remote, &log, Kind::Rpc);
            let mut session = TracedStep::new(tuner.start(backend.space(), ct.seed), &log);
            let run = try_drive(tuner.name(), &mut session, &backend, ct.seed).map_err(err)?;
            drop(session);
            let stats = EvalBackend::stats(&remote);
            let record = TrialRecord::from_run(&ct.key, ct.seed, &run, &names, stats, keep_history);
            log.time(Kind::Close, || remote.close()).map_err(err)?;
            record
        }
    };
    Ok((record, log.close()))
}

/// A traced trial's record and spans, or why it failed.
type TrialOutcome = Result<(TrialRecord, Vec<Span>), String>;

/// Trial spans waiting to be adopted under their fan-out span once the
/// traced region has ended, so span bookkeeping stays out of its wall.
type Pending = Vec<(u32, Vec<Span>)>;

/// Run `todo` (indices into `compiled`) as one traced fan-out under
/// `parent`, filling `slots`.
#[allow(clippy::too_many_arguments)]
fn fan_out(
    tree: &mut SpanTree,
    pending: &mut Pending,
    parent: u32,
    leg: u8,
    compiled: &[CompiledTrial],
    todo: &[usize],
    tags: &HashMap<&str, u8>,
    via: &Via<'_>,
    slots: &mut [Option<TrialRecord>],
) -> Result<(), String> {
    let fan = tree.begin(Kind::Fanout, leg, parent);
    let outcomes: Vec<(usize, TrialOutcome)> = todo
        .to_vec()
        .into_par_iter()
        .map(|i| {
            let ct = &compiled[i];
            (i, traced_trial(ct, tags[ct.key.tuner.as_str()], leg, via))
        })
        .collect();
    tree.end(fan);
    for (i, outcome) in outcomes {
        let (record, spans) = outcome?;
        pending.push((fan, spans));
        slots[i] = Some(record);
    }
    Ok(())
}

fn result_of(spec: &ExperimentSpec, slots: &[Option<TrialRecord>]) -> CampaignResult {
    CampaignResult {
        schema: RESULT_SCHEMA.to_string(),
        spec: spec.clone(),
        trials: slots.iter().flatten().cloned().collect(),
    }
}

/// Write a document the way the harness does: temp file, then rename.
fn write_atomic(path: &str, contents: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("writing {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {tmp}: {e}"))
}

/// The traced region: the timed region's work through the benchmark's
/// own trial loop, with spans at every layer boundary.
pub fn traced(p: &Prepared) -> Result<Traced, String> {
    let tuners = known_tuners();
    let tags: HashMap<&str, u8> = tuners
        .iter()
        .enumerate()
        .map(|(i, t)| (t.as_str(), i as u8))
        .collect();
    let wire = Arc::new(WireCounts::default());
    let mut out = Traced {
        tree: SpanTree::default(),
        tuners: tuners.clone(),
        wall_s: 0.0,
        digests: Vec::new(),
        evals: 0,
        distinct: 0,
        artifact_bytes: 0,
        counters: Counters::default(),
        wire: Arc::clone(&wire),
        cache_file_bytes: 0,
        cache_hits: 0,
        cache_misses: 0,
    };
    if p.workload == Workload::CacheExtend {
        fresh_cache(p)?;
        out.cache_file_bytes = p.pristine.len() as u64;
    }
    let before = Counters::read();
    let start = Instant::now();
    let tree = &mut out.tree;
    let root = tree.begin(Kind::Workload, 0, NO_PARENT);
    let mut pending = Pending::new();
    let mut results = Vec::new();
    if p.workload == Workload::CacheExtend {
        let leg = &p.legs[0];
        let (cache, artifact) = (p.cache_path(), p.artifact_path());
        let (cache, artifact) = (path_str(&cache)?, path_str(&artifact)?);
        let mut store = tree
            .time(Kind::CacheLoad, 0, root, || {
                CacheStore::load_or_empty(cache)
            })
            .map_err(err)?;
        let prior = tree.time(Kind::CachePrior, 0, root, || cache_prior(&store, &leg.spec));
        let mut slots: Vec<Option<TrialRecord>> = vec![None; leg.compiled.len()];
        if let Some(prior) = &prior {
            let mut by_key: HashMap<(&str, &str, &str, u32), &TrialRecord> = HashMap::new();
            for r in &prior.trials {
                by_key
                    .entry((&r.tuner, &r.benchmark, &r.architecture, r.rep))
                    .or_insert(r);
            }
            for (slot, ct) in slots.iter_mut().zip(&leg.compiled) {
                let k = &ct.key;
                *slot = by_key
                    .get(&(
                        k.tuner.as_str(),
                        k.benchmark.as_str(),
                        k.architecture.as_str(),
                        k.rep,
                    ))
                    .filter(|r| r.seed == ct.seed)
                    .map(|r| (*r).clone());
            }
        }
        let todo: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
        out.cache_hits = (slots.len() - todo.len()) as u64;
        out.cache_misses = todo.len() as u64;
        for chunk in todo.chunks(CHECKPOINT_TRIALS) {
            fan_out(
                tree,
                &mut pending,
                root,
                0,
                &leg.compiled,
                chunk,
                &tags,
                &Via::InProcess,
                &mut slots,
            )?;
            tree.time(Kind::Checkpoint, 0, root, || {
                write_atomic(artifact, &result_of(&leg.spec, &slots).to_json())
            })?;
        }
        tree.time(Kind::Checkpoint, 0, root, || {
            write_atomic(
                &metadata_path(artifact),
                &campaign_metadata(&leg.spec).to_json(),
            )
        })?;
        let result = result_of(&leg.spec, &slots);
        let changed = tree.time(Kind::CacheFold, 0, root, || {
            let before = store.to_json();
            fold_run_into_cache(&mut store, &result);
            store.to_json() != before
        });
        if changed {
            tree.time(Kind::CacheSave, 0, root, || store.save_atomic(cache))
                .map_err(err)?;
        }
        results.push((leg, result, todo));
    } else {
        for (li, leg) in p.legs.iter().enumerate() {
            let daemon =
                (leg.endpoint == Endpoint::Loopback).then(|| Daemon::new(ServerConfig::default()));
            let via = match &daemon {
                Some(d) => Via::Loopback(d, &wire),
                None => Via::InProcess,
            };
            let mut slots: Vec<Option<TrialRecord>> = vec![None; leg.compiled.len()];
            let todo: Vec<usize> = (0..slots.len()).collect();
            fan_out(
                tree,
                &mut pending,
                root,
                li as u8,
                &leg.compiled,
                &todo,
                &tags,
                &via,
                &mut slots,
            )?;
            results.push((leg, result_of(&leg.spec, &slots), todo));
        }
    }
    tree.end(root);
    out.wall_s = start.elapsed().as_secs_f64();
    out.counters = Counters::read().since(before);
    for (fan, spans) in pending {
        tree.adopt(fan, spans);
    }

    for (leg, result, executed) in &results {
        for &i in executed {
            let r = &result.trials[i];
            out.evals += r.evals;
            out.distinct += r.distinct_evals;
        }
        if p.workload == Workload::CacheExtend {
            out.artifact_bytes += std::fs::metadata(p.artifact_path()).map_err(err)?.len();
            out.digests
                .push(("artifact".into(), file_digest(&p.artifact_path())?));
            out.digests
                .push(("cache".into(), file_digest(&p.cache_path())?));
        } else {
            let doc = result.to_json();
            out.artifact_bytes += doc.len() as u64;
            out.digests.push((digest_name(leg), fnv64(doc.as_bytes())));
        }
    }
    Ok(out)
}
