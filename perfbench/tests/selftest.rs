//! Self-tests of the benchmark's own machinery: the timing wrappers are
//! transparent, self time is computed correctly on nested spans, and the
//! percentile picker follows its rule.

use std::sync::Arc;

use bat_core::{EvalBackend, Evaluator, Protocol, TuningProblem, TuningRun};
use bat_gpusim::GpuArch;
use bat_harness::tuner_by_name;
use bat_perfbench::layers::{CountingStream, TracedBackend, TracedStep, WireCounts};
use bat_perfbench::report::result_line;
use bat_perfbench::stats::{fastest, fnv64, median, pick_percentile, quartiles};
use bat_perfbench::trace::{self_times, Kind, Span, TrialLog, NO_PARENT};
use bat_server::wire::OpenSession;
use bat_server::{Daemon, RemoteBackend, ServerConfig};
use bat_tuners::try_drive;

const BUDGET: u64 = 40;

fn problem() -> bat_kernels::GpuBenchmark {
    let arch = GpuArch::by_name("RTX 3090").expect("known GPU");
    bat_kernels::benchmark("gemm", arch).expect("known benchmark")
}

/// The run and the spans of `tuner` driven through both wrappers.
fn wrapped(
    backend: &dyn EvalBackend,
    tuner: &str,
    seed: u64,
    kind: Kind,
) -> (TuningRun, Vec<Span>) {
    let tuner = tuner_by_name(tuner).expect("known tuner");
    let log = TrialLog::open(0, 0);
    let traced = TracedBackend::new(backend, &log, kind);
    let mut session = TracedStep::new(tuner.start(traced.space(), seed), &log);
    let run = try_drive(tuner.name(), &mut session, &traced, seed).expect("drive");
    drop(session);
    (run, log.close())
}

fn count(spans: &[Span], kind: Kind) -> usize {
    spans.iter().filter(|s| s.kind == kind).count()
}

#[test]
fn wrappers_leave_in_process_runs_unchanged() {
    let p = problem();
    for tuner in ["random-search", "genetic-algorithm", "tpe"] {
        for batch in [1, 8] {
            let protocol = Protocol::default().with_batch(batch);
            let plain = Evaluator::with_protocol(&p, protocol).with_budget(BUDGET);
            let want = tuner_by_name(tuner).expect("known tuner").tune(&plain, 7);

            let eval = Evaluator::with_protocol(&p, protocol).with_budget(BUDGET);
            let (got, spans) = wrapped(&eval, tuner, 7, Kind::EvaluateBatch);
            assert_eq!(got, want, "{tuner} at batch {batch}");
            assert_eq!(EvalBackend::stats(&eval), EvalBackend::stats(&plain));

            let asks = count(&spans, Kind::Ask);
            assert!(asks > 0);
            assert_eq!(count(&spans, Kind::Tell), asks);
            assert_eq!(count(&spans, Kind::EvaluateBatch), asks);
            assert!(spans[1..].iter().all(|s| s.parent == 0));
        }
    }
}

#[test]
fn wrappers_leave_loopback_runs_unchanged() {
    let p = problem();
    let daemon = Daemon::new(ServerConfig::default());
    let protocol = Protocol::default().with_batch(4);
    let open = || {
        let mut o = OpenSession::new(p.name(), p.platform(), protocol);
        o.budget = Some(BUDGET);
        o
    };
    let plain = RemoteBackend::open(daemon.connect_loopback(), open()).expect("open");
    let want = tuner_by_name("particle-swarm")
        .expect("known tuner")
        .try_tune(&plain, 3)
        .expect("tune");

    let counts = Arc::new(WireCounts::default());
    let conn = CountingStream::new(daemon.connect_loopback(), Arc::clone(&counts));
    let remote = RemoteBackend::open(conn, open()).expect("open");
    let (got, spans) = wrapped(&remote, "particle-swarm", 3, Kind::Rpc);
    assert_eq!(got, want);
    assert_eq!(EvalBackend::stats(&remote), EvalBackend::stats(&plain));

    // Every frame is a length prefix and a payload, then one flush.
    let requests = 1 + count(&spans, Kind::Rpc) as u64;
    assert_eq!(WireCounts::get(&counts.writes), 2 * requests);
    assert_eq!(WireCounts::get(&counts.flushes), requests);
    assert!(WireCounts::get(&counts.bytes_read) > 0);
}

fn span(kind: Kind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
    Span {
        kind,
        tag: 0,
        leg: 0,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_child_intervals() {
    let spans = [
        span(Kind::Workload, NO_PARENT, 0, 100),
        // Two overlapping children: [10, 60] covered once.
        span(Kind::Trial, 0, 10, 40),
        span(Kind::Trial, 0, 30, 60),
        // A grandchild nested in the first trial.
        span(Kind::Ask, 1, 15, 20),
        // A child running past its parent's end counts only inside it.
        span(Kind::Checkpoint, 0, 90, 120),
        // A child starting before its parent counts only inside it.
        span(Kind::Tell, 2, 25, 35),
    ];
    assert_eq!(self_times(&spans), vec![40, 25, 25, 5, 30, 10]);
}

#[test]
fn self_time_of_a_leaf_is_its_duration() {
    let spans = [
        span(Kind::Workload, NO_PARENT, 5, 9),
        span(Kind::Fanout, NO_PARENT, 0, 3),
    ];
    assert_eq!(self_times(&spans), vec![4, 3]);
}

#[test]
fn percentile_picker_needs_ten_samples_beyond() {
    let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();

    // 1000 samples: p99 is rank 990 with exactly 10 beyond it.
    let p = pick_percentile(&ramp(1000), 99.0).expect("enough samples");
    assert_eq!((p.percentile, p.value, p.samples), (99.0, 990.0, 1000));
    // 999 samples leave only 9 beyond p99, so p95 is reported instead.
    let p = pick_percentile(&ramp(999), 99.0).expect("enough samples");
    assert_eq!((p.percentile, p.value, p.samples), (95.0, 950.0, 999));
    // 20 samples: only the median has 10 beyond it.
    let p = pick_percentile(&ramp(20), 99.0).expect("enough samples");
    assert_eq!((p.percentile, p.value, p.samples), (50.0, 10.0, 20));
    // 19 samples: nothing qualifies.
    assert_eq!(pick_percentile(&ramp(19), 99.0), None);
    assert_eq!(pick_percentile(&[], 50.0), None);
    // Never above the percentile asked for, even with samples to spare.
    let p = pick_percentile(&ramp(100_000), 99.0).expect("enough samples");
    assert_eq!(p.percentile, 99.0);
    // Input order does not matter.
    let mut shuffled = ramp(1000);
    shuffled.reverse();
    assert_eq!(
        pick_percentile(&shuffled, 50.0).expect("enough").value,
        500.0
    );
}

#[test]
fn digest_and_median_helpers() {
    assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 4.5));
    assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.5, 3.5));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    assert_eq!(fastest(&[0.5, 0.25, 0.75]), 0.25);
}

#[test]
fn result_line_has_the_contract_keys() {
    let m = bat_perfbench::report::metric("wall_s", 1.25, "s");
    assert_eq!(
        result_line(true, 10, 0, &[m]),
        r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
    );
}
