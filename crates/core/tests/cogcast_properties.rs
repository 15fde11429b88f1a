//! Property-based end-to-end verification of COGCAST: for arbitrary
//! model shapes, patterns, label models and seeds, broadcast completes
//! within the Theorem 4 budget and the informed-by pointers always
//! form a valid distribution tree.

use crn_core::bounds;
use crn_core::cogcast::{run_broadcast, CogCast};
use crn_core::tree::DistributionTree;
use crn_sim::assignment::OverlapPattern;
use crn_sim::channel_model::StaticChannels;
use crn_sim::rng::SimRng;
use crn_sim::{Network, OracleSingleHop};
use proptest::prelude::*;

fn pattern_strategy() -> impl Strategy<Value = OverlapPattern> {
    proptest::sample::select(OverlapPattern::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn cogcast_completes_within_budget(
        n in 1usize..40,
        c in 1usize..10,
        k_off in 0usize..10,
        pattern in pattern_strategy(),
        global_labels: bool,
        seed in 0u64..10_000,
    ) {
        let k = 1 + k_off % c;
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC0C0);
        let assignment = pattern.generate(n, c, k, &mut rng).expect("valid shape");
        let model = if global_labels {
            StaticChannels::global(assignment)
        } else {
            StaticChannels::local(assignment, seed)
        };
        // "With high probability" is w.h.p. *in n*: at tiny n the
        // guarantee is only constant-probability per alpha factor, so
        // the property uses 4x the Theorem 4 budget to push the tail
        // below proptest's resolution (e.g. n=2, c=k=3 misses the 1x
        // budget with probability (2/3)^15 ≈ 0.2%).
        let budget = 4 * bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
        let run = run_broadcast(model, seed, budget).expect("construct");
        prop_assert!(
            run.completed(),
            "missed budget {budget}: n={n} c={c} k={k} pattern={} global={global_labels} seed={seed}",
            pattern.name()
        );
        // The epidemic curve is monotone and ends at n.
        for w in run.informed_per_slot.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert_eq!(*run.informed_per_slot.last().expect("non-empty"), n);
    }
}

/// Pinned replay of the checked-in proptest regression
/// (`cogcast_properties.proptest-regressions`): `n = 2, c = 3,
/// k_off = 2, pattern = FullOverlap, global_labels = false,
/// seed = 7537`.
///
/// The failure it recorded was a deterministic never-meet: with two
/// fully-overlapping nodes on 3 channels, correlated per-node RNG
/// streams kept source and listener permanently on distinct channels,
/// so the run missed even the 4x Theorem 4 budget (a correct engine
/// misses it with probability (2/3)^60 ≈ 3e-11). Node streams are now
/// derived through independent SplitMix64-mixed streams
/// (`crn_sim::rng::derive_rng`), and this exact configuration must
/// complete. It is pinned as a plain unit test because the offline
/// proptest runner does not replay `proptest-regressions` files — see
/// `vendor/proptest/src/lib.rs`.
#[test]
fn regression_full_overlap_local_labels_n2_c3_seed7537() {
    let (n, c, k_off, seed) = (2usize, 3usize, 2usize, 7537u64);
    let k = 1 + k_off % c;
    let mut rng = SimRng::seed_from_u64(seed ^ 0xC0C0);
    let assignment = OverlapPattern::FullOverlap
        .generate(n, c, k, &mut rng)
        .expect("valid shape");
    let model = StaticChannels::local(assignment, seed);
    let budget = 4 * bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
    let run = run_broadcast(model, seed, budget).expect("construct");
    assert!(run.completed(), "regression case missed budget {budget}");
    for w in run.informed_per_slot.windows(2) {
        assert!(w[0] <= w[1], "epidemic curve must be monotone");
    }
    assert_eq!(*run.informed_per_slot.last().expect("non-empty"), n);
}

/// The same regression shape swept across many seeds: the per-slot
/// meet probability for two fully-overlapping nodes on c = 3 channels
/// is 1/3, so any stream-correlation defect that recreates a
/// never-meet pair shows up as a budget miss here long before it
/// reappears in the sampled property above.
#[test]
fn regression_shape_completes_across_seed_sweep() {
    let (n, c, k) = (2usize, 3usize, 3usize);
    let budget = 4 * bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
    for seed in 0..500u64 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC0C0);
        let assignment = OverlapPattern::FullOverlap
            .generate(n, c, k, &mut rng)
            .expect("valid shape");
        let model = StaticChannels::local(assignment, seed);
        let run = run_broadcast(model, seed, budget).expect("construct");
        assert!(run.completed(), "seed {seed} missed budget {budget}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn informed_pointers_always_form_a_tree(
        n in 2usize..32,
        c in 2usize..8,
        k_off in 0usize..8,
        seed in 0u64..10_000,
    ) {
        let k = 1 + k_off % c;
        let assignment = crn_sim::assignment::shared_core(n, c, k).expect("valid");
        let model = StaticChannels::local(assignment, seed);
        let mut protos = vec![CogCast::source(0u8)];
        protos.extend((1..n).map(|_| CogCast::node()));
        let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new()).expect("construct");
        let outcome = net.run(10_000_000, |net| net.all_done());
        prop_assert!(outcome.is_done());
        let protos = net.into_protocols();
        let tree = DistributionTree::from_cogcast(&protos).expect("valid tree");
        prop_assert_eq!(tree.subtree_size(tree.root()), n);
        prop_assert_eq!(
            (0..n).map(|i| tree.children(crn_sim::NodeId(i as u32)).len()).sum::<usize>(),
            n - 1
        );
    }
}
