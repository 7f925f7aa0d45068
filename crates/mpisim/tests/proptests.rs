//! Property-based tests for the MPI substrate's tree reduction.

use mpisim::{Executor, FaultPlan, ReduceTask, ResilienceOptions, ThreadEngine, Topology};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tree reduction computes the in-order fold for any world size and
    /// payloads, with an associative, non-commutative merge
    /// (concatenation) — so tree shape does not leak into the result.
    #[test]
    fn reduce_task_is_in_order_fold(
        values in prop::collection::vec("[a-z]{0,4}", 1..12),
    ) {
        let expect = values.concat();
        let shared = std::sync::Arc::new(values);
        let input = std::sync::Arc::clone(&shared);
        let results = ThreadEngine.run_tasks(shared.len(), FaultPlan::new(), move |rank, size| {
            let local = input[rank].clone();
            ReduceTask::new(
                rank,
                size,
                Topology::Flat,
                move || local,
                |a, b| a + &b,
                ResilienceOptions::default(),
            )
        });
        let (merged, coverage) = results[0].clone().flatten().expect("root result");
        prop_assert_eq!(merged, expect);
        prop_assert!(coverage.is_complete());
        prop_assert!(results[1..].iter().all(|r| matches!(r, Some(None))));
    }
}
