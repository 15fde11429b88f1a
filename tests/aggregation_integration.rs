//! Cross-crate integration: COGCOMP end to end — exactness, budgets,
//! phase structure, and the baseline comparison.

use crn::core::aggregate::{Collect, Count, Max, MeanAcc, Min, Sum};
use crn::core::bounds;
use crn::core::cogcomp::{run_aggregation, run_aggregation_default, CogComp, CogCompConfig};
use crn::rendezvous::aggregate::run_baseline_aggregation;
use crn::sim::assignment::{full_overlap, shared_core, OverlapPattern};
use crn::sim::channel_model::StaticChannels;
use crn::sim::SimRng;
use crn::sim::{Network, OracleSingleHop};

#[test]
fn exact_collection_across_patterns_and_seeds() {
    let (n, c, k) = (40usize, 8usize, 2usize);
    let expect: Vec<u64> = (0..n as u64).collect();
    for pattern in OverlapPattern::ALL {
        for seed in 0..4 {
            let mut rng = SimRng::seed_from_u64(seed * 17 + 3);
            let a = pattern.generate(n, c, k, &mut rng).unwrap();
            let model = StaticChannels::local(a, seed);
            let values: Vec<Collect> = (0..n as u64).map(Collect::of).collect();
            let run = run_aggregation_default(model, values, seed).unwrap();
            assert!(
                run.is_complete(),
                "pattern {} seed {seed} incomplete",
                pattern.name()
            );
            assert_eq!(
                run.result.unwrap().values(),
                expect.as_slice(),
                "pattern {} seed {seed} lost or duplicated values",
                pattern.name()
            );
        }
    }
}

#[test]
fn all_aggregate_types_agree_with_ground_truth() {
    let n = 30usize;
    let values: Vec<u64> = (0..n as u64).map(|i| (i * 37 + 11) % 100).collect();
    let model = || StaticChannels::local(shared_core(n, 6, 2).unwrap(), 8);

    let run =
        run_aggregation_default(model(), values.iter().map(|&v| Sum(v)).collect(), 1).unwrap();
    assert_eq!(run.result, Some(Sum(values.iter().sum())));

    let run =
        run_aggregation_default(model(), values.iter().map(|&v| Min(v)).collect(), 2).unwrap();
    assert_eq!(run.result, Some(Min(*values.iter().min().unwrap())));

    let run =
        run_aggregation_default(model(), values.iter().map(|&v| Max(v)).collect(), 3).unwrap();
    assert_eq!(run.result, Some(Max(*values.iter().max().unwrap())));

    let run =
        run_aggregation_default(model(), values.iter().map(|_| Count(1)).collect(), 4).unwrap();
    assert_eq!(run.result, Some(Count(n as u64)));

    let run = run_aggregation_default(model(), values.iter().map(|&v| MeanAcc::of(v)).collect(), 5)
        .unwrap();
    let mean = run.result.unwrap().mean();
    let truth = values.iter().sum::<u64>() as f64 / n as f64;
    assert!((mean - truth).abs() < 1e-9);
}

#[test]
fn completes_within_recommended_budget_and_phase4_is_linear() {
    let (c, k) = (8usize, 2usize);
    for n in [16usize, 64, 160] {
        let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA);
        for seed in 0..3 {
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
            let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
            let run = run_aggregation_default(model, values, seed).unwrap();
            assert!(run.is_complete(), "n={n} seed={seed}");
            let slots = run.slots.unwrap();
            assert!(
                slots <= cfg.recommended_budget(),
                "n={n}: {slots} > {}",
                cfg.recommended_budget()
            );
            // Theorem 10: phase 4 is O(n) steps; our headroom factor is 4.
            assert!(
                run.phase4_steps.unwrap() <= 4 * n as u64 + 32,
                "n={n}: phase 4 used {} steps",
                run.phase4_steps.unwrap()
            );
        }
    }
}

#[test]
fn mediator_and_cluster_invariants_hold() {
    let (n, c, k) = (50usize, 6usize, 2usize);
    let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA);
    let model = StaticChannels::local(shared_core(n, c, k).unwrap(), 4);
    let mut protos = vec![CogComp::source(cfg, Count(1))];
    protos.extend((1..n).map(|_| CogComp::node(cfg, Count(1))));
    let mut net = Network::with_medium(model, protos, 4, OracleSingleHop::new()).unwrap();
    assert!(net.run_to_completion(cfg.recommended_budget()).is_done());
    let protos = net.into_protocols();

    // The source aggregated exactly n contributions.
    assert_eq!(protos[0].result(), Some(&Count(n as u64)));
    // Nobody failed, everyone terminated.
    assert!(protos.iter().all(|p| !p.is_failed()));
    // Cluster sizes are consistent: summing each node's cluster size
    // reciprocally (each member reports the same size) must cover all
    // non-source nodes.
    let mut cluster_total = 0f64;
    for p in protos.iter().filter(|p| !p.is_source()) {
        assert!(p.cluster_size() >= 1);
        cluster_total += 1.0 / p.cluster_size() as f64;
    }
    // Σ over members of 1/size = number of clusters; must be an
    // integer (within float noise) and at least 1.
    assert!(
        (cluster_total - cluster_total.round()).abs() < 1e-6,
        "inconsistent cluster sizes: {cluster_total}"
    );
    assert!(cluster_total >= 1.0);
    // Mediators: at least one, at most one per global channel.
    let mediators = protos.iter().filter(|p| p.is_mediator()).count();
    assert!(mediators >= 1);
}

#[test]
fn aggregation_floor_n_over_k_respected() {
    // All nodes share exactly k channels and nothing else (c = k):
    // slots >= n/k by the information bottleneck.
    let k = 2usize;
    for n in [20usize, 60] {
        let model = StaticChannels::local(full_overlap(n, k).unwrap(), 9);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        let run = run_aggregation_default(model, values, 9).unwrap();
        assert!(run.is_complete());
        assert!(
            run.slots.unwrap() >= (n / k) as u64,
            "n={n}: {} < n/k",
            run.slots.unwrap()
        );
    }
}

#[test]
fn cogcomp_beats_baseline_when_channels_dominate() {
    // The c²/k >> n regime: COGCOMP pays (c/k)·lg n twice; the baseline
    // pays a per-sender rendezvous of c²/k.
    let (n, c, k) = (48usize, 24usize, 1usize);
    let trials = 4;
    let (mut ours, mut base) = (0u64, 0u64);
    for seed in 0..trials {
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        let run = run_aggregation(model, values, seed, 6.0).unwrap();
        assert!(run.is_complete());
        ours += run.slots.unwrap();

        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed + 40);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        let run = run_baseline_aggregation(model, values, seed + 40, 100_000_000).unwrap();
        base += run.slots.unwrap();
    }
    assert!(
        base > ours,
        "baseline ({base}) should lose to COGCOMP ({ours}) at c²/k >> n"
    );
}

#[test]
fn single_and_two_node_edge_cases() {
    let model = StaticChannels::local(full_overlap(1, 4).unwrap(), 0);
    let run = run_aggregation_default(model, vec![Sum(42)], 0).unwrap();
    assert_eq!(run.result, Some(Sum(42)));

    let model = StaticChannels::local(shared_core(2, 4, 1).unwrap(), 1);
    let run = run_aggregation_default(model, vec![Sum(1), Sum(2)], 1).unwrap();
    assert_eq!(run.result, Some(Sum(3)));
}
