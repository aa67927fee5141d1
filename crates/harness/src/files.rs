//! The shared file-level front-end flow: spec in, artifact out.
//!
//! The harness has eight campaign/tuning entry points: [`run_campaign`],
//! [`run_campaign_at`], [`run_campaign_serial`], [`resume_campaign`] and
//! [`merge_campaigns`] return results in memory, [`run_tuning`] runs one
//! tuner outside any campaign, and this module's
//! [`run_spec_to_file_cached`] and [`merge_files`] add the file side:
//! checkpointed artifacts, metadata documents and the `--cache` store.
//! Both binaries (`bat-harness run` and its alias `bat campaign`) run
//! through [`run_spec_to_file_cached`] via the shared `run` parser, so
//! resume semantics, checkpointing, error handling and the post-run
//! report cannot drift between them.
//!
//! [`run_campaign`]: crate::run_campaign
//! [`run_campaign_at`]: crate::run_campaign_at
//! [`run_campaign_serial`]: crate::run_campaign_serial
//! [`resume_campaign`]: crate::resume_campaign
//! [`run_tuning`]: crate::run_tuning

use bat_cache::{CacheError, CacheStore};
use bat_core::t4::{T4Metadata, T4_SCHEMA_VERSION};
use bat_core::Error;

use crate::cache_integration::{cache_prior, fold_run_into_cache};
use crate::campaign::{
    execute, merge_campaigns, CampaignRun, Checkpoint, Endpoint, Execution, PriorMatch,
};
use crate::result::{CampaignResult, RESULT_SCHEMA};
use crate::spec::{ExperimentSpec, SPEC_SCHEMA};
use crate::summary::CampaignSummary;

/// Load and parse a campaign spec file.
pub fn load_spec_file(path: &str) -> Result<ExperimentSpec, Error> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Error::io(format!("reading {path}: {e}")))?;
    ExperimentSpec::from_json(&text).map_err(|e| Error::spec(format!("parsing {path}: {e}")))
}

/// Load and parse a campaign result artifact.
pub fn load_result_file(path: &str) -> Result<CampaignResult, Error> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Error::io(format!("reading {path}: {e}")))?;
    CampaignResult::from_json(&text).map_err(|e| Error::spec(format!("parsing {path}: {e}")))
}

/// Execute `spec` and, when `out` is given, write the artifact there —
/// checkpointed every 32 completed trials, so an interrupted run leaves a
/// partial artifact that `resume` picks up — plus its `<out>.meta.json`
/// metadata document.
///
/// With `resume`, trials already present in the `out` artifact are reused
/// (a missing file degenerates to a full run; any other read or parse
/// failure is an error — silently re-running would overwrite the
/// artifact). `serial` runs the in-process determinism oracle and is
/// mutually exclusive with `resume`. `endpoint` selects where trials
/// evaluate (in-process, loopback, or a `bat serve` daemon); the artifact
/// is byte-identical across endpoints.
///
/// When `cache` names a `bat/cache/v1` file (missing is fine — it starts
/// empty), every compiled trial whose exact fingerprint has a stored blob
/// short-circuits: the stored record replays verbatim through the resume
/// machinery, so a warm run's artifact is byte-identical to the cold
/// run's while executing nothing. Misses fall through to tuning, and the
/// finished campaign folds back into the cache atomically (idempotently:
/// a fully-warm run leaves the file untouched, so shipped caches can live
/// on read-only media).
pub fn run_spec_to_file_cached(
    spec: &ExperimentSpec,
    out: Option<&str>,
    resume: bool,
    serial: bool,
    endpoint: &Endpoint,
    cache: Option<&str>,
) -> Result<CampaignRun, Error> {
    if resume && serial {
        return Err(Error::spec("--resume and --serial are mutually exclusive"));
    }
    if serial && *endpoint != Endpoint::InProcess {
        return Err(Error::spec(
            "--serial runs the in-process determinism oracle; drop --connect",
        ));
    }
    let disk_prior: Option<CampaignResult> = if resume {
        let path =
            out.ok_or_else(|| Error::spec("--resume requires --out (the file to resume from)"))?;
        match std::fs::read_to_string(path) {
            Ok(text) => Some(
                CampaignResult::from_json(&text)
                    .map_err(|e| Error::spec(format!("parsing {path}: {e}")))?,
            ),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(Error::io(format!("reading {path}: {e}"))),
        }
    } else {
        None
    };
    let mut store: Option<CacheStore> = match cache {
        Some(path) => Some(CacheStore::load_or_empty(path).map_err(cache_error)?),
        None => None,
    };
    // Disk trials come first, so they win key collisions with the
    // cache-synthesized prior, matching plain resume.
    let cached = store.as_ref().and_then(|s| cache_prior(s, spec));
    let priors: Vec<&CampaignResult> = disk_prior.iter().chain(&cached).collect();

    let execution = if serial {
        Execution::Serial
    } else {
        Execution::Parallel
    };
    let mut write = |partial: &CampaignResult| out.map_or(Ok(()), |p| write_artifact(p, partial));
    let checkpoint = out.is_some().then_some(&mut write as Checkpoint<'_>);
    let run = execute(
        spec,
        &priors,
        PriorMatch::Exact,
        execution,
        endpoint,
        checkpoint,
    )?;
    if let Some(path) = out {
        write_metadata(path, spec)?;
    }

    if let (Some(path), Some(store)) = (cache, store.as_mut()) {
        // Skip the write when nothing changed (fully-warm runs) so a
        // shipped cache can sit on read-only media.
        if fold_run_into_cache(store, &run.result) {
            store.save_atomic(path).map_err(cache_error)?;
        }
    }
    Ok(run)
}

fn cache_error(e: CacheError) -> Error {
    match e {
        CacheError::Io(m) => Error::io(m),
        CacheError::Parse(m) => Error::spec(m),
    }
}

/// Write a document atomically (temp file + rename) so a crash mid-write
/// cannot leave a corrupt file — for the artifact that would make the
/// next `--resume` abort, for the metadata it would break any consumer.
fn write_atomic(path: &str, contents: &str) -> Result<(), Error> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|e| Error::io(format!("writing {tmp}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| Error::io(format!("renaming {tmp} to {path}: {e}")))
}

fn write_artifact(path: &str, result: &CampaignResult) -> Result<(), Error> {
    write_atomic(path, &result.to_json())
}

/// The T4 metadata document describing a campaign's environment: suite,
/// backend, schemas and a human-readable objective description. Emitted
/// alongside every written artifact (`<out>.meta.json`) so campaign
/// results travel with self-describing context, T4-ecosystem style. A pure
/// function of the spec — byte-deterministic like the artifact itself.
pub fn campaign_metadata(spec: &ExperimentSpec) -> T4Metadata {
    let hardware = match spec.validate() {
        Ok((_, _, architectures)) => architectures.join(", "),
        Err(_) => "unknown".to_string(),
    };
    let mut md = T4Metadata::for_platform(hardware);
    md.environment
        .insert("campaign".to_string(), spec.name.clone());
    md.environment
        .insert("objective".to_string(), spec.objective.describe());
    md.environment
        .insert("spec_schema".to_string(), SPEC_SCHEMA.to_string());
    md.environment
        .insert("result_schema".to_string(), RESULT_SCHEMA.to_string());
    md.environment
        .insert("t4_schema".to_string(), T4_SCHEMA_VERSION.to_string());
    md
}

/// Path of the metadata document emitted next to an artifact.
pub fn metadata_path(out: &str) -> String {
    format!("{out}.meta.json")
}

fn write_metadata(out: &str, spec: &ExperimentSpec) -> Result<(), Error> {
    write_atomic(&metadata_path(out), &campaign_metadata(spec).to_json())
}

/// Merge shard artifacts into `spec`'s campaign and write the result (plus
/// its metadata document) to `out`. Missing trials execute, so merging an
/// incomplete shard set still produces the complete artifact.
pub fn merge_files(
    spec: &ExperimentSpec,
    inputs: &[String],
    out: &str,
) -> Result<CampaignRun, Error> {
    let priors: Vec<CampaignResult> = inputs
        .iter()
        .map(|p| load_result_file(p))
        .collect::<Result<_, Error>>()?;
    let run = merge_campaigns(spec, &priors)?;
    write_artifact(out, &run.result)?;
    write_metadata(out, spec)?;
    Ok(run)
}

/// Print the shared post-run report to stderr: summary tables and the
/// throughput line (unless `quiet`), plus a warning naming every trial
/// that found no valid configuration — so a `--strict` failure is
/// actionable from the log alone, not just a count. Returns the
/// failed-trial count so strict front-ends can gate on it.
pub fn report_run(run: &CampaignRun, quiet: bool) -> usize {
    if !quiet {
        eprint!("{}", CampaignSummary::from_result(&run.result).render());
        eprintln!("\n{}", run.report());
    }
    let failed = run.result.failed_trial_keys();
    if !failed.is_empty() {
        eprintln!(
            "warning: {} trial(s) found no valid configuration:",
            failed.len()
        );
        for key in &failed {
            eprintln!("  {key}");
        }
    }
    failed.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CHECKPOINT_TRIALS};
    use crate::spec::Selector;

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            tuners: Selector::Subset(vec!["random-search".into()]),
            benchmarks: Selector::Subset(vec!["nbody".into()]),
            architectures: Selector::Subset(vec!["RTX 3060".into()]),
            budget: 10,
            repetitions: 1,
            ..ExperimentSpec::new("files-unit")
        }
    }

    fn temp_out(name: &str) -> String {
        let dir = std::env::temp_dir().join("bat-harness-files-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn run_write_resume_round_trip() {
        let out = temp_out("artifact.json");

        // Missing artifact + resume degenerates to a full run.
        let first =
            run_spec_to_file_cached(&spec(), Some(&out), true, false, &Endpoint::InProcess, None)
                .unwrap();
        assert!(first.complete);
        assert_eq!(first.executed, 1);
        // Resuming from the written artifact reuses everything.
        let second =
            run_spec_to_file_cached(&spec(), Some(&out), true, false, &Endpoint::InProcess, None)
                .unwrap();
        assert_eq!(second.reused, 1);
        assert_eq!(second.result, first.result);
        assert_eq!(load_result_file(&out).unwrap(), first.result);

        // A corrupt artifact is an error, not a silent re-run.
        std::fs::write(&out, "{ not json").unwrap();
        assert!(run_spec_to_file_cached(
            &spec(),
            Some(&out),
            true,
            false,
            &Endpoint::InProcess,
            None
        )
        .is_err());
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn checkpointed_batches_reproduce_the_single_shot_artifact() {
        // More trials than one checkpoint batch (2 tuners × 2 benchmarks
        // × 10 reps = 40 on a tiny budget) forces at least one mid-run
        // artifact write before completion; the assert pins the relation
        // so a larger CHECKPOINT_TRIALS cannot make this vacuous.
        let spec = ExperimentSpec {
            tuners: Selector::Subset(vec!["random-search".into(), "greedy-ils".into()]),
            benchmarks: Selector::Subset(vec!["nbody".into(), "gemm".into()]),
            repetitions: 10,
            budget: 5,
            ..spec()
        };
        assert!(spec.compile().unwrap().len() > CHECKPOINT_TRIALS);
        let out = temp_out("checkpointed.json");
        let batched =
            run_spec_to_file_cached(&spec, Some(&out), false, false, &Endpoint::InProcess, None)
                .unwrap();
        let single = run_campaign(&spec).unwrap();
        assert!(batched.complete);
        assert_eq!(batched.executed, single.result.trials.len());
        assert_eq!(batched.result.to_json(), single.result.to_json());
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn partial_artifact_resumes_to_the_full_result() {
        let spec = ExperimentSpec {
            repetitions: 6,
            ..spec()
        };
        // Simulate an interrupted checkpoint: only 2 of 6 trials done.
        let full = run_campaign(&spec).unwrap();
        let mut partial = full.result.clone();
        partial.trials.truncate(2);
        assert!(partial.trials.len() < spec.compile().unwrap().len());
        assert_eq!(partial.trials.len(), 2);
        let out = temp_out("partial.json");
        std::fs::write(&out, partial.to_json()).unwrap();
        let resumed =
            run_spec_to_file_cached(&spec, Some(&out), true, false, &Endpoint::InProcess, None)
                .unwrap();
        assert!(resumed.complete);
        assert_eq!(resumed.reused, 2);
        assert_eq!(resumed.executed, 4);
        assert_eq!(resumed.result.to_json(), full.result.to_json());
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn serial_cached_run_to_file_matches_the_parallel_bytes() {
        // A two-rep cold run seeds the cache, so the four-rep runs below
        // start from a partial cache prior: half the trials replay, half
        // execute — serially in one run, in parallel in the other.
        let seed_spec = ExperimentSpec {
            repetitions: 2,
            ..spec()
        };
        let spec = ExperimentSpec {
            repetitions: 4,
            ..spec()
        };
        let (cache_a, cache_b) = (temp_out("prior-a.cache"), temp_out("prior-b.cache"));
        let seed_out = temp_out("prior-seed.json");
        let ep = &Endpoint::InProcess;
        run_spec_to_file_cached(
            &seed_spec,
            Some(&seed_out),
            false,
            false,
            ep,
            Some(&cache_a),
        )
        .unwrap();
        std::fs::copy(&cache_a, &cache_b).unwrap();

        let (serial_out, parallel_out) =
            (temp_out("prior-serial.json"), temp_out("prior-par.json"));
        let serial =
            run_spec_to_file_cached(&spec, Some(&serial_out), false, true, ep, Some(&cache_a))
                .unwrap();
        let parallel =
            run_spec_to_file_cached(&spec, Some(&parallel_out), false, false, ep, Some(&cache_b))
                .unwrap();
        assert_eq!((serial.reused, serial.executed), (2, 2));
        assert_eq!((parallel.reused, parallel.executed), (2, 2));
        let serial_bytes = std::fs::read(&serial_out).unwrap();
        assert_eq!(serial_bytes, std::fs::read(&parallel_out).unwrap());
        assert_eq!(
            serial_bytes,
            run_campaign(&spec).unwrap().result.to_json().into_bytes()
        );
        assert_eq!(
            std::fs::read(metadata_path(&serial_out)).unwrap(),
            std::fs::read(metadata_path(&parallel_out)).unwrap()
        );
        assert_eq!(
            std::fs::read(&cache_a).unwrap(),
            std::fs::read(&cache_b).unwrap()
        );
        for p in [&seed_out, &serial_out, &parallel_out] {
            std::fs::remove_file(p).unwrap();
            std::fs::remove_file(metadata_path(p)).unwrap();
        }
        std::fs::remove_file(&cache_a).unwrap();
        std::fs::remove_file(&cache_b).unwrap();
    }

    #[test]
    fn flag_combinations_are_validated() {
        assert!(run_spec_to_file_cached(
            &spec(),
            Some("x"),
            true,
            true,
            &Endpoint::InProcess,
            None
        )
        .is_err());
        assert!(
            run_spec_to_file_cached(&spec(), None, true, false, &Endpoint::InProcess, None)
                .is_err()
        );
    }

    #[test]
    fn metadata_document_is_emitted_and_deterministic() {
        let out = temp_out("with-meta.json");
        run_spec_to_file_cached(
            &spec(),
            Some(&out),
            false,
            false,
            &Endpoint::InProcess,
            None,
        )
        .unwrap();
        let meta1 = std::fs::read_to_string(metadata_path(&out)).unwrap();
        run_spec_to_file_cached(
            &spec(),
            Some(&out),
            false,
            false,
            &Endpoint::InProcess,
            None,
        )
        .unwrap();
        let meta2 = std::fs::read_to_string(metadata_path(&out)).unwrap();
        assert_eq!(meta1, meta2, "metadata must be byte-deterministic");
        let md = bat_core::t4::T4Metadata::from_json(&meta1).unwrap();
        assert_eq!(md.hardware, "RTX 3060");
        assert_eq!(md.environment["campaign"], "files-unit");
        assert!(md.environment["objective"].contains("time"));
        assert_eq!(md.environment["spec_schema"], crate::spec::SPEC_SCHEMA);
        std::fs::remove_file(&out).unwrap();
        std::fs::remove_file(metadata_path(&out)).unwrap();
    }

    #[test]
    fn merge_files_round_trips_shard_artifacts() {
        use crate::spec::ShardSpec;
        let base = ExperimentSpec {
            repetitions: 4,
            ..spec()
        };
        let full = run_campaign(&base).unwrap();
        let mut inputs = Vec::new();
        for index in 0..2 {
            let shard_spec = ExperimentSpec {
                shard: Some(ShardSpec { index, count: 2 }),
                ..base.clone()
            };
            let out = temp_out(&format!("shard-{index}.json"));
            run_spec_to_file_cached(
                &shard_spec,
                Some(&out),
                false,
                false,
                &Endpoint::InProcess,
                None,
            )
            .unwrap();
            inputs.push(out);
        }
        let merged_out = temp_out("merged.json");
        let run = merge_files(&base, &inputs, &merged_out).unwrap();
        assert_eq!(run.executed, 0);
        assert_eq!(run.reused, 4);
        assert_eq!(
            std::fs::read_to_string(&merged_out).unwrap(),
            full.result.to_json()
        );
        for p in inputs.iter().chain([&merged_out]) {
            std::fs::remove_file(p).unwrap();
            let _ = std::fs::remove_file(metadata_path(p));
        }
    }
}
