//! Cross-crate integration: the model layers — backoff realizing the
//! abstract collision slot, jamming through the engine, dynamic
//! assignments, and whole-stack determinism.

use crn::core::aggregate::Sum;
use crn::core::cogcast::run_broadcast;
use crn::core::cogcomp::run_aggregation_default;
use crn::jamming::{jammed_budget, run_jammed_broadcast, JammerStrategy};
use crn::sim::channel_model::DynamicSharedCore;
use crn::sim::medium::{recommended_rounds, resolve_contention};
use crn::sim::SimRng;

#[test]
fn backoff_realizes_the_abstract_slot_cheaply() {
    // Footnote 4: the abstract slot costs O(log² n) physical rounds.
    // With n_max = 1024, epoch_len = 11, budget 8·11² ≈ 976; the mean
    // must be far below that and the success rate essentially 1.
    let n_max = 1024usize;
    let budget = recommended_rounds(n_max);
    for m in [1usize, 3, 33, 1024] {
        let trials = 200;
        let mut total = 0u64;
        let mut fails = 0usize;
        for seed in 0..trials {
            let mut rng = SimRng::seed_from_u64(seed);
            match resolve_contention(m, n_max, budget, &mut rng).unwrap() {
                Some(r) => total += r.rounds,
                None => fails += 1,
            }
        }
        assert!(fails <= 2, "m={m}: {fails}/{trials} failures");
        let mean = total as f64 / (trials as usize - fails) as f64;
        assert!(
            mean < budget as f64 / 4.0,
            "m={m}: mean {mean} close to the budget {budget}"
        );
    }
}

#[test]
fn jamming_budget_interpolates_to_unjammed() {
    assert_eq!(
        jammed_budget(20, 8, 0, 10.0),
        crn::core::bounds::cogcast_slots(20, 8, 8, 10.0)
    );
    assert!(jammed_budget(20, 8, 3, 10.0) > jammed_budget(20, 8, 1, 10.0));
}

#[test]
fn jammed_broadcast_completes_near_effective_overlap_prediction() {
    // Theorem 18: with jam budget j, behaviour tracks overlap c − 2j.
    // Compare the jammed run against an unjammed run at k = c − 2j.
    let (n, c, j) = (20usize, 12usize, 3usize);
    let trials = 10;
    let mut jammed_total = 0u64;
    let mut proxy_total = 0u64;
    for seed in 0..trials {
        let run = run_jammed_broadcast(n, c, j, JammerStrategy::Random, seed, 60.0).unwrap();
        jammed_total += run.slots.unwrap();
        let a = crn::sim::assignment::shared_core(n, c, c - 2 * j).unwrap();
        let model = crn::sim::channel_model::StaticChannels::local(a, seed);
        proxy_total += run_broadcast(model, seed, 10_000_000)
            .unwrap()
            .slots
            .unwrap();
    }
    let ratio = jammed_total as f64 / proxy_total as f64;
    assert!(
        (0.2..5.0).contains(&ratio),
        "jammed time should track the c-2k proxy within small constants: {ratio}"
    );
}

#[test]
fn dynamic_model_supports_full_protocol_stack() {
    // COGCAST under 100% churn still completes; COGCOMP (which needs a
    // static tree) runs on the static special case of the same model.
    for seed in 0..3 {
        let model = DynamicSharedCore::new(24, 8, 2, 80, 1.0, seed).unwrap();
        let run = run_broadcast(model, seed, 10_000_000).unwrap();
        assert!(run.completed(), "dynamic COGCAST seed {seed}");

        let model = DynamicSharedCore::new(24, 8, 2, 80, 0.0, seed).unwrap();
        let values: Vec<Sum> = (0..24).map(Sum).collect();
        let run = run_aggregation_default(model, values, seed).unwrap();
        assert!(run.is_complete(), "static-dynamic COGCOMP seed {seed}");
        assert_eq!(run.result, Some(Sum((0..24).sum())));
    }
}

#[test]
fn whole_stack_is_deterministic() {
    let run_once = |seed: u64| {
        let model = DynamicSharedCore::new(16, 6, 2, 30, 0.5, seed).unwrap();
        run_broadcast(model, seed, 100_000)
            .unwrap()
            .informed_per_slot
    };
    assert_eq!(run_once(7), run_once(7));

    let jam_once = |seed: u64| {
        run_jammed_broadcast(12, 8, 2, JammerStrategy::Random, seed, 30.0)
            .unwrap()
            .informed_per_slot
    };
    assert_eq!(jam_once(9), jam_once(9));
}
