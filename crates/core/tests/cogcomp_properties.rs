//! Property-based end-to-end verification of COGCOMP: for arbitrary
//! model shapes, overlap patterns and seeds, aggregation must complete
//! within the Theorem 10 budget and deliver every node's value to the
//! source exactly once.

use crn_core::aggregate::{Collect, Sum};
use crn_core::bounds;
use crn_core::cogcomp::{run_aggregation, run_aggregation_cfg, CogCompConfig, Coordination};
use crn_sim::assignment::OverlapPattern;
use crn_sim::channel_model::StaticChannels;
use crn_sim::rng::SimRng;
use proptest::prelude::*;

fn pattern_strategy() -> impl Strategy<Value = OverlapPattern> {
    proptest::sample::select(OverlapPattern::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn cogcomp_is_exact_for_arbitrary_shapes(
        n in 2usize..28,
        c in 2usize..9,
        k_off in 0usize..9,
        pattern in pattern_strategy(),
        seed in 0u64..10_000,
    ) {
        let k = 1 + k_off % c;
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5A5A);
        let assignment = pattern.generate(n, c, k, &mut rng).expect("valid shape");
        let model = StaticChannels::local(assignment, seed);
        let values: Vec<Collect> = (0..n as u64).map(Collect::of).collect();
        let run = run_aggregation(model, values, seed, bounds::DEFAULT_ALPHA).expect("construct");
        prop_assert!(
            run.is_complete(),
            "timed out: n={n} c={c} k={k} pattern={} seed={seed}",
            pattern.name()
        );
        let expect: Vec<u64> = (0..n as u64).collect();
        prop_assert_eq!(
            run.result.as_ref().expect("complete").values(),
            expect.as_slice(),
            "lost/duplicated values: n={}, c={}, k={}, pattern={}, seed={}",
            n, c, k, pattern.name(), seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn uncoordinated_ablation_is_also_exact(
        n in 2usize..20,
        c in 2usize..7,
        k_off in 0usize..7,
        seed in 0u64..10_000,
    ) {
        let k = 1 + k_off % c;
        let assignment = crn_sim::assignment::shared_core(n, c, k).expect("valid");
        let model = StaticChannels::local(assignment, seed);
        let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA)
            .with_coordination(Coordination::Uncoordinated);
        let budget = cfg.phase4_start() + 3 * (n as u64 * n as u64 + 128);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        let run = run_aggregation_cfg(model, values, seed, cfg, budget).expect("construct");
        prop_assert!(run.is_complete(), "n={n} c={c} k={k} seed={seed}");
        prop_assert_eq!(run.result, Some(Sum((0..n as u64).sum())));
    }
}
