//! # bat-harness
//!
//! The suite's declarative experiment-orchestration engine: tuning
//! campaigns are *data*, not code.
//!
//! A campaign is an [`ExperimentSpec`] — tuners × benchmarks ×
//! architectures × budget × repetitions, with `"all"`/subset selectors —
//! that compiles into a flat list of independent trials. Trials execute in
//! parallel over the compat-rayon pool; each one derives its RNG seed
//! purely from `(campaign seed, tuner, benchmark, architecture, rep)`, so
//! the resulting [`CampaignResult`] is **bit-identical** regardless of
//! thread count or completion order, and CI can regression-check a whole
//! campaign with a byte diff. Artifacts embed the producing spec, support
//! resume-from-partial-results, and feed the [`summary`] reducers (final
//! best, convergence AUC, Friedman-style rank matrix) without any
//! re-execution.
//!
//! Eight entry points run campaigns and tunings, each a thin
//! configuration of one private engine (one trial loop, one trial
//! recorder); every failure is a [`bat_core::Error`]:
//!
//! * [`run_campaign`], [`run_campaign_at`] (explicit [`Endpoint`]) and
//!   [`run_campaign_serial`] (the single-threaded determinism oracle);
//! * [`resume_campaign`] (reuse a prior artifact's trials) and
//!   [`merge_campaigns`] (recombine shard artifacts);
//! * [`run_spec_to_file_cached`] and [`merge_files`], the file-level
//!   flow with checkpointed artifacts, metadata and the `--cache` store;
//! * [`run_tuning`], one tuner on one problem outside any campaign.
//!
//! The `run` command line of both binaries (`bat-harness run`,
//! `bat campaign`) is parsed once, by [`run_command`]; its strict flag
//! walk, [`Flags`], parses `bat serve` too.
//!
//! ```
//! use bat_harness::{run_campaign, ExperimentSpec, Selector};
//!
//! let spec = ExperimentSpec {
//!     tuners: Selector::Subset(vec!["random-search".into()]),
//!     benchmarks: Selector::Subset(vec!["nbody".into()]),
//!     architectures: Selector::Subset(vec!["RTX 3090".into()]),
//!     budget: 20,
//!     repetitions: 2,
//!     ..ExperimentSpec::new("doc")
//! };
//! let run = run_campaign(&spec).unwrap();
//! assert_eq!(run.result.trials.len(), 2);
//! let replay = run_campaign(&spec).unwrap();
//! assert_eq!(run.result.to_json(), replay.result.to_json());
//! ```

#![warn(missing_docs)]

mod cache_integration;
mod campaign;
mod cli;
mod files;
mod result;
mod spec;
pub mod summary;

pub use cache_integration::{cache_prior, fold_run_into_cache, scenario_of, trial_fingerprint};
pub use campaign::{
    merge_campaigns, resume_campaign, run_campaign, run_campaign_at, run_campaign_serial,
    run_tuning, tuner_by_name, CampaignRun, Endpoint, EvalStats,
};
pub use cli::{run_command, set_threads, Flags};
pub use files::{
    campaign_metadata, load_result_file, load_spec_file, merge_files, metadata_path, report_run,
    run_spec_to_file_cached,
};
pub use result::{CampaignResult, CurvePoint, TrialRecord, RESULT_SCHEMA};
pub use spec::{
    known_architectures, known_benchmarks, known_moo_tuners, known_tuners, CompiledTrial,
    ExperimentSpec, FaultSpec, ObjectiveMode, ObjectiveSpec, ProtocolSpec, RecordLevel, SeedPolicy,
    Selector, ShardSpec, SpecError, TrialKey, SPEC_SCHEMA,
};
pub use summary::{convergence_auc, render_table, CampaignSummary, CellSummary};
