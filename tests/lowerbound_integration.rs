//! Cross-crate integration: the lower-bound machinery against the real
//! protocols — upper and lower bounds must bracket the measurements.

use crn::core::bounds::{global_label_floor, hitting_game_floor};
use crn::core::cogcast::run_broadcast;
use crn::lowerbounds::global_label::{mean_first_overlap, SourceStrategy};
use crn::lowerbounds::players::{survival_curve, FreshPlayer, UniformPlayer};
use crn::lowerbounds::reduction::run_reduction_cogcast;
use crn::sim::assignment::shared_core;
use crn::sim::channel_model::StaticChannels;
use crn::sim::SimRng;

#[test]
fn measured_cogcast_sits_between_floor_and_budget() {
    // Lemma 13 floor Ω((c/k)·max{1,c/n}) <= measured mean <= Theorem 4
    // budget, for several shapes.
    for &(n, c, k) in &[(64usize, 8usize, 2usize), (32, 16, 4), (16, 32, 8)] {
        let trials = 10;
        let mut total = 0u64;
        for seed in 0..trials {
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
            total += run_broadcast(model, seed, 10_000_000)
                .unwrap()
                .slots
                .unwrap();
        }
        let mean = total as f64 / trials as f64;
        let floor = (c as f64 / k as f64) * (c as f64 / n as f64).max(1.0);
        let budget = crn::core::bounds::cogcast_slots(n, c, k, 10.0) as f64;
        assert!(
            mean >= floor / 8.0,
            "(n={n},c={c},k={k}): mean {mean} below a constant of the floor {floor}"
        );
        assert!(
            mean <= budget,
            "(n={n},c={c},k={k}): mean {mean} above the budget {budget}"
        );
    }
}

#[test]
fn reduction_rounds_bounded_by_min_c_n_times_slots() {
    // Lemma 12's accounting, with COGCAST as the algorithm.
    for &(c, k, n) in &[(8usize, 2usize, 4usize), (16, 2, 64), (12, 3, 6)] {
        for seed in 0..5 {
            let mut rng = SimRng::seed_from_u64(seed);
            let out = run_reduction_cogcast(c, k, n, 10_000_000, &mut rng);
            assert!(out.won, "(c={c},k={k},n={n}) seed {seed}");
            assert!(
                out.game_rounds <= out.sim_slots * c.min(n) as u64,
                "accounting violated: {out:?}"
            );
        }
    }
}

#[test]
fn lemma11_floor_holds_for_reduction_player_too() {
    // The reduction player (COGCAST driving the game) must also fail
    // to win within the floor with probability 1/2 — Lemma 12 + 11.
    let (c, k, n) = (32usize, 4usize, 64usize);
    let floor = hitting_game_floor(c, k, 2.0);
    let trials = 300;
    let wins_within_floor = (0..trials)
        .filter(|&seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            let out = run_reduction_cogcast(c, k, n, 10_000_000, &mut rng);
            out.won && out.game_rounds <= floor
        })
        .count();
    let p = wins_within_floor as f64 / trials as f64;
    assert!(p < 0.5, "reduction player beat the Lemma 11 floor: {p}");
}

#[test]
fn survival_curves_eventually_win() {
    // Sanity on the other side: with 8x the floor, players do win.
    let (c, k) = (16usize, 2usize);
    let horizon = hitting_game_floor(c, k, 2.0) * 16;
    let uni = survival_curve(c, k, 200, horizon, 3, UniformPlayer::new);
    let fresh = survival_curve(c, k, 200, horizon, 4, FreshPlayer::new);
    assert!(
        *uni.last().unwrap() > 0.5,
        "uniform never wins: {:?}",
        uni.last()
    );
    assert!(
        *fresh.last().unwrap() > 0.9,
        "fresh never wins: {:?}",
        fresh.last()
    );
}

#[test]
fn theorem16_floor_under_global_labels() {
    for &(c, k) in &[(16usize, 2usize), (32, 4), (64, 8)] {
        let floor = global_label_floor(c, k);
        for strategy in [SourceStrategy::Uniform, SourceStrategy::Scan] {
            let mean = mean_first_overlap(c, k, strategy, 2000, 7, 1_000_000);
            assert!(
                mean >= floor * 0.85,
                "(c={c},k={k}) {} mean {mean} below floor {floor}",
                strategy.name()
            );
        }
    }
}

#[test]
fn hop_together_beats_cogcast_in_the_c_much_greater_n_regime() {
    // The Section 6 separation, end to end through both crates.
    let n = 5usize;
    let c = n * n;
    let k = c - 1;
    let trials = 10;
    let mut hop_total = 0u64;
    let mut cog_total = 0u64;
    for seed in 0..trials {
        let model = StaticChannels::global(shared_core(n, c, k).unwrap());
        hop_total += crn::rendezvous::hop_together::run_hop_together(model, seed, 1_000_000)
            .unwrap()
            .slots
            .unwrap();
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        cog_total += run_broadcast(model, seed, 1_000_000)
            .unwrap()
            .slots
            .unwrap();
    }
    assert!(
        hop_total < cog_total,
        "hop-together ({hop_total}) must beat COGCAST ({cog_total}) when c >> n"
    );
}
