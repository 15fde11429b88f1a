//! Cross-crate integration for the substrate extensions: the physical
//! stack, spectrum sensing, seed-exchange rendezvous, fault injection,
//! and global-id permutation invariance.

use crn::core::aggregate::Sum;
use crn::core::cogcast::{run_broadcast, run_broadcast_on, CogCast};
use crn::core::cogcomp::run_aggregation_default;
use crn::rendezvous::acquainted::run_acquainted;
use crn::sim::assignment::shared_core;
use crn::sim::channel_model::StaticChannels;
use crn::sim::faults::{FaultSchedule, Flaky};
use crn::sim::sensing::{sense_assignment, SpectrumConfig};
use crn::sim::SimRng;
use crn::sim::{Network, OracleSingleHop, PhysicalDecay};

#[test]
fn physical_stack_and_oracle_model_agree_on_slot_scale() {
    let (n, c, k) = (24usize, 6usize, 2usize);
    let trials = 10u64;
    let mut oracle_total = 0u64;
    let mut physical_total = 0u64;
    for seed in 0..trials {
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        oracle_total += run_broadcast(model, seed, 10_000_000)
            .unwrap()
            .slots
            .unwrap();

        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        let (run, medium) =
            run_broadcast_on(model, seed, 10_000_000, PhysicalDecay::new()).unwrap();
        assert!(run.completed());
        assert_eq!(medium.failed_episodes(), 0);
        physical_total += run.slots.unwrap();
    }
    let ratio = physical_total as f64 / oracle_total as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "stack substitution drifted: ratio {ratio}"
    );
}

#[test]
fn sensed_spectrum_supports_broadcast_and_aggregation() {
    let (n, c, k) = (20usize, 7usize, 2usize);
    for seed in 0..3 {
        let mut rng = SimRng::seed_from_u64(seed * 13);
        let (assignment, report) =
            sense_assignment(n, c, k, SpectrumConfig::tv_white_space(), &mut rng).unwrap();
        assert_eq!(report.anchors.len(), k);

        let model = StaticChannels::local(assignment.clone(), seed);
        let run = run_broadcast(model, seed, 10_000_000).unwrap();
        assert!(run.completed(), "seed {seed} broadcast");

        let model = StaticChannels::local(assignment, seed + 100);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        let agg = run_aggregation_default(model, values, seed + 100).unwrap();
        assert!(agg.is_complete(), "seed {seed} aggregation");
        assert_eq!(agg.result, Some(Sum((0..n as u64).sum())));
    }
}

#[test]
fn heterogeneous_channel_counts_work_end_to_end() {
    // The generalized model of the rendezvous literature (c_u != c_v):
    // COGCAST and COGCOMP only ever use ctx.c, so they run unchanged.
    use crn::sim::assignment::ragged_with_core;
    for seed in 0..3 {
        let mut rng = SimRng::seed_from_u64(seed * 7 + 1);
        let cs: Vec<usize> = (0..16).map(|i| 3 + (i % 4) * 2).collect();
        let a = ragged_with_core(&cs, 2, 60, &mut rng).unwrap();
        assert!(!a.is_uniform());

        let model = StaticChannels::local(a.clone(), seed);
        let run = run_broadcast(model, seed, 10_000_000).unwrap();
        assert!(run.completed(), "seed {seed} broadcast");

        let model = StaticChannels::local(a, seed + 50);
        let values: Vec<Sum> = (0..16).map(Sum).collect();
        let agg = run_aggregation_default(model, values, seed + 50).unwrap();
        assert!(agg.is_complete(), "seed {seed} aggregation");
        assert_eq!(agg.result, Some(Sum((0..16).sum())));
    }
}

#[test]
fn heterogeneous_rendezvous_scales_with_product_of_counts() {
    // Gu et al. bound rendezvous by O(max{c_u, c_v}²); for uniform
    // random hopping the meeting probability is k/(c_u·c_v), so the
    // expected time scales with c_u·c_v/k.
    use crn::rendezvous::pairwise::rendezvous_slots;
    use crn::sim::assignment::ragged_with_core;
    let mean = |c0: usize, c1: usize| -> f64 {
        let trials = 150;
        let mut total = 0u64;
        for seed in 0..trials {
            let mut rng = SimRng::seed_from_u64(seed + 900);
            let a = ragged_with_core(&[c0, c1], 1, 40 * (c0 + c1), &mut rng).unwrap();
            let model = StaticChannels::local(a, seed);
            total += rendezvous_slots(model, seed, 10_000_000)
                .unwrap()
                .expect("meets");
        }
        total as f64 / trials as f64
    };
    let small = mean(4, 4); // product 16
    let large = mean(4, 16); // product 64
    let ratio = large / small;
    assert!(
        (2.0..8.0).contains(&ratio),
        "expected ~4x from the c_u*c_v product: {small} vs {large}"
    );
}

#[test]
fn acquainted_pairs_meet_every_slot_afterwards() {
    for seed in 0..5 {
        let model = StaticChannels::global(shared_core(2, 8, 2).unwrap());
        let run = run_acquainted(model, seed, 10_000_000, 200).unwrap();
        assert!(run.acquainted_slot.is_some(), "seed {seed}");
        assert_eq!(run.followup_meetings, 200, "seed {seed}");
    }
}

#[test]
fn permuted_globals_do_not_change_cogcast_statistics() {
    // COGCAST is oblivious to global ids (it only sees local labels),
    // so permuting the id space must leave completion-time statistics
    // unchanged up to sampling noise.
    let (n, c, k) = (32usize, 8usize, 2usize);
    let trials = 20u64;
    let mean = |permute: bool| -> f64 {
        let mut total = 0u64;
        for seed in 0..trials {
            let mut rng = SimRng::seed_from_u64(seed + 500);
            let a = shared_core(n, c, k).unwrap();
            let a = if permute {
                a.permute_globals(&mut rng)
            } else {
                a
            };
            let model = StaticChannels::local(a, seed);
            total += run_broadcast(model, seed, 10_000_000)
                .unwrap()
                .slots
                .unwrap();
        }
        total as f64 / trials as f64
    };
    let plain = mean(false);
    let permuted = mean(true);
    assert!(
        (permuted / plain - 1.0).abs() < 0.5,
        "permutation should be statistically invisible: {plain} vs {permuted}"
    );
}

#[test]
fn flaky_cogcomp_aggregates_exactly_despite_listener_downtime() {
    // COGCOMP's phases assume nodes stay up (a down mediator would
    // stall phase four), but *pre-phase-one* downtime windows are
    // harmless: wrap every node in a fault window that ends before the
    // protocol's critical phases... here the window covers the first
    // few phase-one slots only.
    let (n, c, k) = (16usize, 5usize, 2usize);
    for seed in 0..3 {
        let cfg = crn::core::cogcomp::CogCompConfig::new(n, c, k, 10.0);
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        let mut protos = vec![Flaky::new(
            crn::core::cogcomp::CogComp::source(cfg, Sum(0)),
            FaultSchedule::None,
        )];
        protos.extend((1..n).map(|i| {
            Flaky::new(
                crn::core::cogcomp::CogComp::node(cfg, Sum(i as u64)),
                FaultSchedule::Window {
                    from: 0,
                    to: (i % 5) as u64,
                },
            )
        }));
        let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new()).unwrap();
        let outcome = net.run_to_completion(cfg.recommended_budget());
        assert!(outcome.is_done(), "seed {seed}");
        let protos = net.into_protocols();
        assert_eq!(
            protos[0].inner().result(),
            Some(&Sum((0..n as u64).sum())),
            "seed {seed}"
        );
    }
}

#[test]
fn flaky_broadcast_with_heavy_asymmetric_faults() {
    // Half the nodes duty-cycle 50%, the rest are healthy; broadcast
    // must still complete.
    let (n, c, k) = (20usize, 6usize, 2usize);
    for seed in 0..3 {
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        let mut protos: Vec<Flaky<CogCast<u8>>> =
            vec![Flaky::new(CogCast::source(7), FaultSchedule::None)];
        protos.extend((1..n).map(|i| {
            let schedule = if i % 2 == 0 {
                FaultSchedule::Periodic { period: 2, down: 1 }
            } else {
                FaultSchedule::None
            };
            Flaky::new(CogCast::node(), schedule)
        }));
        let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new()).unwrap();
        let outcome = net.run(1_000_000, |net| {
            net.protocols().iter().all(|f| f.inner().is_informed())
        });
        assert!(outcome.is_done(), "seed {seed}");
    }
}
