//! Committed artifact digests: the byte-determinism contract anchored to
//! fixed values instead of "diff against the previous binary".
//!
//! Every digest is FNV-64 over the exact bytes the file-level campaign
//! flow (`run_spec_to_file_cached`) writes: the result artifact, its
//! `.meta.json` metadata document and, for the cached leg, the
//! `bat/cache/v1` store. A refactor of the campaign engine, the trial
//! recorder or the file flow must leave every value in [`DIGESTS`]
//! untouched; a change that legitimately moves an artifact has to update
//! this table and say why.
//!
//! The `gp-bo-ei` legs pin the one surrogate tuner whose model code is
//! most often optimized: any change to the GP's floating-point operation
//! order shows up here as a moved digest.

use std::path::PathBuf;

use bat::harness::{load_spec_file, run_spec_to_file_cached, Endpoint, ExperimentSpec};

/// `(leg, file, FNV-64 digest)`. Legs are the committed smoke specs,
/// ci-smoke at `protocol.batch = 8`, and the inline [`GP_BO_EI_SPEC`] at
/// batch 1 and 4; files are the artifact and its metadata document.
const DIGESTS: [(&str, &str, u64); 14] = [
    ("ci-smoke", "artifact", 0xeab7_40c1_ce15_98a9),
    ("ci-smoke", "meta", 0xae1a_95de_25c1_0875),
    ("ci-smoke-batch-8", "artifact", 0x4427_2340_d36f_6531),
    ("ci-smoke-batch-8", "meta", 0xae1a_95de_25c1_0875),
    ("pareto-smoke", "artifact", 0x85c8_6c5b_329c_c204),
    ("pareto-smoke", "meta", 0xb1e1_f211_a09e_1dd0),
    ("chaos-smoke", "artifact", 0x9502_8aef_5a55_ab4a),
    ("chaos-smoke", "meta", 0x87ca_2cb7_9bca_bf91),
    ("cache-transfer", "artifact", 0x79e0_fc2f_2241_bc12),
    ("cache-transfer", "meta", 0xb6cb_cd99_6eec_a24f),
    ("gp-bo-ei", "artifact", 0x47f0_e07c_c219_e49d),
    ("gp-bo-ei", "meta", 0x1fad_2379_273b_0846),
    ("gp-bo-ei-batch-4", "artifact", 0x8948_489d_aab9_b79b),
    ("gp-bo-ei-batch-4", "meta", 0x1fad_2379_273b_0846),
];

/// Gaussian-process Bayesian optimization alone, sized so both batch
/// legs together stay within a few seconds in a debug build.
const GP_BO_EI_SPEC: &str = r#"{
  "schema": "bat/campaign-spec/v1",
  "name": "gp-bo-ei-digest",
  "seed": 17,
  "tuners": ["gp-bo-ei"],
  "benchmarks": ["pnpoly", "nbody", "gemm"],
  "architectures": ["RTX 3090"],
  "budget": 60,
  "repetitions": 1,
  "seed_policy": "derived",
  "record": "full"
}"#;

/// The ci-smoke `--cache` store after one cold run from an empty cache.
const CI_SMOKE_COLD_CACHE: u64 = 0x4466_c3db_1d97_fc66;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn committed(leg: &str, file: &str) -> u64 {
    DIGESTS
        .iter()
        .find(|(l, f, _)| *l == leg && *f == file)
        .map(|&(_, _, d)| d)
        .unwrap_or_else(|| panic!("no committed digest for {leg}/{file}"))
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("bat-artifact-digests-{}", std::process::id()))
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(name: &str) -> ExperimentSpec {
    load_spec_file(&format!("specs/{name}.json")).unwrap()
}

fn digest_of(path: &str) -> u64 {
    fnv64(&std::fs::read(path).unwrap_or_else(|e| panic!("reading {path}: {e}")))
}

/// Run `spec` through the file flow into `dir/<leg>.json` and return the
/// digests of the artifact and its metadata document.
fn run_leg(
    dir: &std::path::Path,
    leg: &str,
    spec: &ExperimentSpec,
    endpoint: &Endpoint,
    cache: Option<&str>,
) -> (u64, u64) {
    let out = dir.join(format!("{leg}.json"));
    let out = out.to_str().unwrap();
    let run = run_spec_to_file_cached(spec, Some(out), false, false, endpoint, cache).unwrap();
    assert!(run.complete, "{leg}");
    (digest_of(out), digest_of(&format!("{out}.meta.json")))
}

fn assert_leg(leg: &str, got: (u64, u64)) {
    let (artifact, meta) = got;
    eprintln!("{leg}: artifact {artifact:#018x} meta {meta:#018x}");
    assert_eq!(
        (artifact, meta),
        (committed(leg, "artifact"), committed(leg, "meta")),
        "{leg}: artifact/meta digests moved"
    );
}

#[test]
fn smoke_spec_artifacts_match_committed_digests() {
    let dir = scratch("specs");
    for name in ["ci-smoke", "pareto-smoke", "chaos-smoke", "cache-transfer"] {
        let got = run_leg(&dir, name, &spec(name), &Endpoint::InProcess, None);
        assert_leg(name, got);
    }
    let mut batched = spec("ci-smoke");
    batched.protocol.set_batch(8);
    let got = run_leg(
        &dir,
        "ci-smoke-batch-8",
        &batched,
        &Endpoint::InProcess,
        None,
    );
    assert_leg("ci-smoke-batch-8", got);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gp_bo_ei_artifacts_match_committed_digests() {
    let dir = scratch("gp-bo-ei");
    let mut spec = ExperimentSpec::from_json(GP_BO_EI_SPEC).unwrap();
    for (leg, batch) in [("gp-bo-ei", 1), ("gp-bo-ei-batch-4", 4)] {
        spec.protocol.set_batch(batch);
        let got = run_leg(&dir, leg, &spec, &Endpoint::InProcess, None);
        assert_leg(leg, got);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cached_cold_and_warm_runs_match_committed_digests() {
    let dir = scratch("cache");
    let cache = dir.join("cache.json");
    let cache = cache.to_str().unwrap();
    let spec = spec("ci-smoke");

    let cold = run_leg(&dir, "cold", &spec, &Endpoint::InProcess, Some(cache));
    assert_leg("ci-smoke", cold);
    let cache_digest = digest_of(cache);
    eprintln!("ci-smoke cold cache {cache_digest:#018x}");
    assert_eq!(cache_digest, CI_SMOKE_COLD_CACHE, "cold cache digest moved");

    let warm = run_leg(&dir, "warm", &spec, &Endpoint::InProcess, Some(cache));
    assert_eq!(warm, cold, "the warm artifact must equal the cold one");
    assert_eq!(
        digest_of(cache),
        cache_digest,
        "a warm run rewrote the cache"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loopback_artifact_matches_the_in_process_digest() {
    let dir = scratch("loopback");
    let got = run_leg(
        &dir,
        "loopback",
        &spec("ci-smoke"),
        &Endpoint::Loopback,
        None,
    );
    assert_leg("ci-smoke", got);
    std::fs::remove_dir_all(&dir).unwrap();
}
