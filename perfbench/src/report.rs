//! Turning measurements into named metrics, and the result line.

use std::fmt::Write as _;

use crate::layers::WireCounts;
use crate::stats::pick_percentile;
use crate::trace::{self_times, Kind};
use crate::workloads::Traced;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Largest share of `wall × threads` the traced layers may leave
/// unaccounted for.
pub const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// The surrogate tuners whose `ask` time is broken out per tuner.
pub const SURROGATES: [&str; 4] = ["gp-bo-ei", "gbdt-surrogate", "smac-forest", "tpe"];

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Sums over the spans of one kind.
#[derive(Default, Clone, Copy)]
struct Tally {
    n: u64,
    dur_ns: u64,
    self_ns: u64,
}

const NS: f64 = 1e9;

/// Per-layer metrics of a traced run, plus notes on how the percentile
/// and accounting figures were taken. `untraced_wall_s` is the same
/// region's untraced wall time, for the tracing overhead.
pub fn layer_metrics(
    t: &Traced,
    untraced_wall_s: f64,
    threads: usize,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let spans = &t.tree.spans;
    let self_ns = self_times(spans);
    let mut tally = [Tally::default(); Kind::ALL.len()];
    let mut trial_ms = Vec::new();
    let mut batch_us = Vec::new();
    let mut rpc_us: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut ask_ns = vec![0u64; t.tuners.len()];
    // Session lifetime per trial: first `open` start to last `close` end.
    let mut session_ns = 0u64;
    let mut open_start: Vec<u64> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let k = &mut tally[s.kind as usize];
        k.n += 1;
        k.dur_ns += s.dur_ns();
        k.self_ns += self_ns[i];
        match s.kind {
            Kind::Trial => trial_ms.push(s.dur_ns() as f64 / 1e6),
            Kind::EvaluateBatch => batch_us.push(s.dur_ns() as f64 / 1e3),
            Kind::Rpc => rpc_us[usize::from(s.leg.min(1))].push(s.dur_ns() as f64 / 1e3),
            Kind::Ask => ask_ns[s.tag as usize] += s.dur_ns(),
            Kind::Open => open_start.push(s.start_ns),
            Kind::Close => session_ns += s.end_ns - open_start.pop().unwrap_or(s.end_ns),
            _ => {}
        }
    }
    let secs = |k: Kind| tally[k as usize].dur_ns as f64 / NS;
    let count = |k: Kind| tally[k as usize].n as f64;
    let mut out = Vec::new();
    let mut pct = |name: &str, samples: &[f64], wanted: f64, unit: &'static str| {
        let value = match pick_percentile(samples, wanted) {
            Some(p) => {
                notes.push(format!(
                    "{name}: p{} of {} samples",
                    p.percentile, p.samples
                ));
                p.value
            }
            None => {
                notes.push(format!(
                    "{name}: {} samples, too few for any percentile",
                    samples.len()
                ));
                0.0
            }
        };
        out.push(metric(name, value, unit));
    };

    // harness
    let trial_s: f64 = trial_ms.iter().sum::<f64>() / 1e3;
    let fanout_s = secs(Kind::Fanout);
    let tail_s = fanout_s - trial_s / threads as f64;
    pct("harness.trial_p50_ms", &trial_ms, 50.0, "ms");
    pct("harness.trial_p99_ms", &trial_ms, 99.0, "ms");
    pct("core.batch_p50_us", &batch_us, 50.0, "us");
    pct("core.batch_p99_us", &batch_us, 99.0, "us");
    pct("server.rpc_p50_us.b1", &rpc_us[0], 50.0, "us");
    pct("server.rpc_p99_us.b1", &rpc_us[0], 99.0, "us");
    pct("server.rpc_p50_us.b64", &rpc_us[1], 50.0, "us");
    pct("server.rpc_p99_us.b64", &rpc_us[1], 99.0, "us");
    out.push(metric("harness.trials", count(Kind::Trial), "count"));
    out.push(metric("harness.tail_s", tail_s, "s"));
    out.push(metric("harness.checkpoint_s", secs(Kind::Checkpoint), "s"));
    out.push(metric(
        "harness.artifact_bytes",
        t.artifact_bytes as f64,
        "bytes",
    ));

    // tuners
    out.push(metric("tuners.steps", count(Kind::Ask), "count"));
    out.push(metric("tuners.ask_s", secs(Kind::Ask), "s"));
    out.push(metric("tuners.tell_s", secs(Kind::Tell), "s"));
    for name in SURROGATES {
        let ns = t
            .tuners
            .iter()
            .position(|n| n == name)
            .map_or(0, |i| ask_ns[i]);
        out.push(metric(format!("tuners.ask_s.{name}"), ns as f64 / NS, "s"));
    }
    out.push(metric(
        "tuners.driver_s",
        tally[Kind::Trial as usize].self_ns as f64 / NS,
        "s",
    ));

    // core
    out.push(metric(
        "core.evaluate_batch_s",
        secs(Kind::EvaluateBatch),
        "s",
    ));
    out.push(metric(
        "core.evaluate_batch_calls",
        count(Kind::EvaluateBatch),
        "count",
    ));
    out.push(metric("core.evals", t.evals as f64, "count"));
    out.push(metric(
        "core.distinct_ratio",
        t.distinct as f64 / t.evals.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "core.memo_hits",
        t.counters.memo_hits as f64,
        "count",
    ));
    out.push(metric("core.measured", t.counters.measured as f64, "count"));
    out.push(metric(
        "core.problem_build_s",
        secs(Kind::ProblemBuild),
        "s",
    ));

    // rayon
    let busy_s = t.counters.pool_busy_us as f64 / 1e6;
    out.push(metric("rayon.busy_s", busy_s, "s"));
    out.push(metric(
        "rayon.utilization",
        busy_s / (t.wall_s * threads as f64),
        "ratio",
    ));

    // server
    let requests = count(Kind::Rpc) + count(Kind::Open) + count(Kind::Close);
    let bytes = WireCounts::get(&t.wire.bytes_written) + WireCounts::get(&t.wire.bytes_read);
    out.push(metric(
        "server.rpc_s",
        secs(Kind::Rpc) + secs(Kind::Open) + secs(Kind::Close),
        "s",
    ));
    out.push(metric("server.rpc_calls", requests, "count"));
    out.push(metric(
        "server.bytes_per_eval",
        if bytes > 0 {
            bytes as f64 / t.evals.max(1) as f64
        } else {
            0.0
        },
        "bytes",
    ));
    out.push(metric(
        "server.writes_per_request",
        if requests > 0.0 {
            WireCounts::get(&t.wire.writes) as f64 / requests
        } else {
            0.0
        },
        "count",
    ));
    out.push(metric(
        "server.session_ms",
        if count(Kind::Close) > 0.0 {
            session_ns as f64 / 1e6 / count(Kind::Close)
        } else {
            0.0
        },
        "ms",
    ));
    out.push(metric(
        "server.requests",
        t.counters.requests as f64,
        "count",
    ));

    // cache
    let load_s = secs(Kind::CacheLoad);
    out.push(metric("cache.load_s", load_s, "s"));
    out.push(metric(
        "cache.file_bytes",
        t.cache_file_bytes as f64,
        "bytes",
    ));
    out.push(metric(
        "cache.load_mb_per_s",
        if load_s > 0.0 {
            t.cache_file_bytes as f64 / 1e6 / load_s
        } else {
            0.0
        },
        "MB/s",
    ));
    out.push(metric("cache.prior_s", secs(Kind::CachePrior), "s"));
    out.push(metric("cache.hits", t.cache_hits as f64, "count"));
    out.push(metric("cache.misses", t.cache_misses as f64, "count"));
    out.push(metric("cache.fold_s", secs(Kind::CacheFold), "s"));
    out.push(metric("cache.save_s", secs(Kind::CacheSave), "s"));

    // trace
    out.push(metric(
        "trace.overhead_ratio",
        t.wall_s / untraced_wall_s,
        "ratio",
    ));
    let accounted = accounted_ratio(&tally, tail_s, threads, t.wall_s);
    notes.push(format!(
        "accounting: layer self times + idle pool time = {:.4} of wall × {threads} threads \
         (tolerance ±{ACCOUNTING_TOLERANCE}); pool busy {:.3} s vs summed trial time {:.3} s",
        accounted, busy_s, trial_s
    ));
    out.push(metric("trace.accounted_ratio", accounted, "ratio"));
    out
}

/// Share of `wall × threads` the layers account for: every span's self
/// time below the root (fan-out spans excluded — their self time is pool
/// idle, counted in the tail), plus the pool's idle time — the parallel
/// tail of each fan-out and the other threads' wait while the main thread
/// runs a serial phase (checkpoint, cache load/prior/fold/save). What is
/// left is time on the main thread inside no span at all.
fn accounted_ratio(
    tally: &[Tally; Kind::ALL.len()],
    tail_s: f64,
    threads: usize,
    wall_s: f64,
) -> f64 {
    let serial = [
        Kind::Checkpoint,
        Kind::CacheLoad,
        Kind::CachePrior,
        Kind::CacheFold,
        Kind::CacheSave,
    ];
    let layers_ns: u64 = Kind::ALL
        .iter()
        .filter(|k| !matches!(k, Kind::Workload | Kind::Fanout))
        .map(|&k| tally[k as usize].self_ns)
        .sum();
    let serial_s: f64 = serial
        .iter()
        .map(|&k| tally[k as usize].dur_ns as f64 / NS)
        .sum();
    let t = threads as f64;
    let accounted_s = layers_ns as f64 / NS + t * tail_s + (t - 1.0) * serial_s;
    accounted_s / (wall_s * t)
}
