//! Batch telemetry under fault injection. The metrics registry is
//! process-global, so this file holds a single test: nothing else in its
//! process evaluates, and the counter deltas are exact.

#![cfg(not(feature = "no-obs"))]

use bat_core::{Evaluator, FaultModel, Protocol, RetryPolicy, SyntheticProblem};
use bat_obs::metrics::counter_value;
use bat_space::{ConfigSpace, Param};

#[test]
fn faulty_batches_count_memo_and_dedup_hits() {
    let space = ConfigSpace::builder()
        .param(Param::int_range("x", 0, 4095))
        .build()
        .unwrap();
    let p = SyntheticProblem::new("wide", "sim", space, |c| Ok(1.0 + c[0] as f64));
    let model = FaultModel {
        outlier_rate: 0.3,
        seed: 2,
        ..FaultModel::disabled()
    };
    let e = Evaluator::with_protocol(&p, Protocol::default())
        .with_faults(model, RetryPolicy::default());
    // Warm the memo (and register the counters) with one clean outcome.
    assert!(e.evaluate_index(3).unwrap().is_ok());
    let count = |name| counter_value(name).expect("counter registered");
    let (dedup, memo, measured) = (
        count("bat_eval_dedup_hits_total"),
        count("bat_eval_memo_hits_total"),
        count("bat_eval_measured_total"),
    );
    // 7 and 9 recur three and two times (three duplicate occurrences); 3
    // is a memo hit; 7, 9 and 11 are measured once each.
    let got = e.evaluate_batch(&[7, 9, 7, 11, 9, 7, 3]);
    assert_eq!(got.len(), 7);
    assert_eq!(got[0], got[2]);
    assert_eq!(got[0], got[5]);
    assert_eq!(got[1], got[4]);
    assert!(got.iter().all(|r| r.is_ok()), "{got:?}");
    assert_eq!(count("bat_eval_dedup_hits_total") - dedup, 3);
    assert_eq!(count("bat_eval_memo_hits_total") - memo, 1);
    assert_eq!(count("bat_eval_measured_total") - measured, 3);
    assert_eq!(e.distinct_evals(), 4);
}
