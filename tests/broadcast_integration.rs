//! Cross-crate integration: COGCAST end to end, against every overlap
//! pattern, both label models, the theorem budgets, and the baselines.

use crn::core::bounds;
use crn::core::cogcast::{run_broadcast, CogCast};
use crn::core::tree::DistributionTree;
use crn::rendezvous::broadcast::run_baseline_broadcast;
use crn::sim::assignment::{shared_core, OverlapPattern};
use crn::sim::channel_model::StaticChannels;
use crn::sim::SimRng;
use crn::sim::{Network, OracleSingleHop};

#[test]
fn cogcast_completes_within_theorem4_budget_across_patterns() {
    let (n, c, k) = (48usize, 8usize, 2usize);
    let budget = bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
    for pattern in OverlapPattern::ALL {
        for seed in 0..5 {
            let mut rng = SimRng::seed_from_u64(seed * 31);
            let a = pattern.generate(n, c, k, &mut rng).unwrap();
            let model = StaticChannels::local(a, seed);
            let run = run_broadcast(model, seed, budget).unwrap();
            assert!(
                run.completed(),
                "pattern {} seed {seed} missed the Theorem 4 budget {budget}",
                pattern.name()
            );
        }
    }
}

#[test]
fn cogcast_works_with_global_labels_too() {
    // The global-label model is a special case of the local one; the
    // protocol must behave identically well.
    let (n, c, k) = (32usize, 6usize, 2usize);
    let budget = bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
    for seed in 0..5 {
        let model = StaticChannels::global(shared_core(n, c, k).unwrap());
        let run = run_broadcast(model, seed, budget).unwrap();
        assert!(run.completed(), "seed {seed}");
    }
}

#[test]
fn distribution_tree_is_valid_spanning_tree() {
    let (n, c, k) = (64usize, 8usize, 3usize);
    for seed in 0..5 {
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        let mut protos = vec![CogCast::source(1u8)];
        protos.extend((1..n).map(|_| CogCast::node()));
        let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new()).unwrap();
        assert!(net.run(1_000_000, |net| net.all_done()).is_done());
        let protos = net.into_protocols();
        let tree = DistributionTree::from_cogcast(&protos).unwrap();
        assert_eq!(tree.len(), n);
        assert_eq!(tree.subtree_size(tree.root()), n, "spanning");
        // Every edge respects time: children informed strictly after
        // parents (checked internally by the constructor) and depth is
        // bounded by the number of informing slots.
        assert!(tree.height() as usize <= n);
    }
}

#[test]
fn epidemic_curve_shows_two_stages() {
    // Stage 1 doubles fast; the tail (last c/2 nodes) is slower per
    // node. Verify the curve reaches c/2 in well under half the total
    // time.
    let (n, c, k) = (128usize, 16usize, 4usize);
    let model = StaticChannels::local(shared_core(n, c, k).unwrap(), 3);
    let run = run_broadcast(model, 3, 10_000_000).unwrap();
    let total = run.slots.unwrap() as usize;
    let half_informed_at = run
        .informed_per_slot
        .iter()
        .position(|&i| i >= n / 2)
        .unwrap()
        + 1;
    assert!(
        half_informed_at * 2 < total + 2,
        "half the nodes at slot {half_informed_at} of {total}: no epidemic speedup visible"
    );
}

#[test]
fn cogcast_scales_inversely_with_k() {
    let (n, c) = (48usize, 16usize);
    let mean = |k: usize| -> f64 {
        let trials = 10;
        let mut total = 0;
        for seed in 0..trials {
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
            total += run_broadcast(model, seed, 10_000_000)
                .unwrap()
                .slots
                .unwrap();
        }
        total as f64 / trials as f64
    };
    let t1 = mean(1);
    let t4 = mean(4);
    let t16 = mean(16);
    assert!(t1 > t4 && t4 > t16, "t1={t1}, t4={t4}, t16={t16}");
    // Roughly multiplicative: 16x the overlap should buy >= 4x.
    assert!(t1 / t16 > 4.0, "t1={t1}, t16={t16}");
}

#[test]
fn baseline_loses_by_roughly_factor_c() {
    let (n, k) = (64usize, 2usize);
    let ratio = |c: usize| -> f64 {
        let trials = 6;
        let (mut ours, mut base) = (0u64, 0u64);
        for seed in 0..trials {
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
            ours += run_broadcast(model, seed, 10_000_000)
                .unwrap()
                .slots
                .unwrap();
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed + 50);
            base += run_baseline_broadcast(model, seed + 50, 10_000_000)
                .unwrap()
                .slots
                .unwrap();
        }
        base as f64 / ours as f64
    };
    let r8 = ratio(8);
    let r16 = ratio(16);
    // The separation must grow with c (it is Θ(c) in theory).
    assert!(
        r16 > r8,
        "speedup should grow with c: r8={r8:.1}, r16={r16:.1}"
    );
    assert!(r8 > 2.0, "at c=8 the baseline should already lose: {r8:.1}");
}

#[test]
fn seeds_reproduce_exact_runs() {
    let (n, c, k) = (32usize, 8usize, 2usize);
    let run = |seed: u64| {
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        run_broadcast(model, seed, 100_000).unwrap()
    };
    let a = run(12345);
    let b = run(12345);
    assert_eq!(a.slots, b.slots);
    assert_eq!(a.informed_per_slot, b.informed_per_slot);
    let c_run = run(54321);
    assert_ne!(
        a.informed_per_slot, c_run.informed_per_slot,
        "different seeds should explore different executions"
    );
}
