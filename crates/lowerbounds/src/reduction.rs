//! The Lemma 12 reduction: a broadcast algorithm *is* a hitting-game
//! player.
//!
//! The reduction simulates an `n`-node network in which the `n − 1`
//! uninformed nodes share one channel set `B` while the source holds a
//! set `A`, and the hidden `k`-matching of the game encodes which
//! channels of `A` and `B` are physically identical. Until the source
//! lands on a matched channel together with some other node, the
//! message cannot move — so every simulated slot yields at most
//! `min{c, n}` *new* edge proposals `(a_r, b_r^u)`, and a fast broadcast
//! algorithm would win the hitting game fast. Combined with Lemma 11
//! this transfers the game bound to local broadcast (Theorem 15).

use crate::game::{Edge, HittingGame};
use crn_sim::rng::SimRng;
use std::collections::HashSet;

/// The result of driving a broadcast algorithm through the reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionOutcome {
    /// Hitting-game rounds consumed (edge proposals made).
    pub game_rounds: u64,
    /// Simulated broadcast slots executed.
    pub sim_slots: u64,
    /// Whether the game was won (the source met another node).
    pub won: bool,
}

/// Simulates `max_slots` slots of a broadcast algorithm through the
/// Lemma 12 reduction against a fresh `(c,k)` hitting game.
///
/// `choose(slot, node, rng)` must return the local channel (`0..c`)
/// that `node` selects in `slot`; node `0` is the source (choosing from
/// `A`), nodes `1..n` are the receivers (choosing from `B`). For
/// COGCAST every choice is uniform — see [`run_reduction_cogcast`].
///
/// # Panics
///
/// Panics if `choose` returns a channel `>= c`.
///
/// # Examples
///
/// ```
/// use crn_lowerbounds::reduction::run_reduction_cogcast;
/// use crn_sim::rng::SimRng;
/// let mut rng = SimRng::seed_from_u64(2);
/// let out = run_reduction_cogcast(8, 2, 16, 100_000, &mut rng);
/// assert!(out.won);
/// ```
pub fn run_reduction(
    c: usize,
    k: usize,
    n: usize,
    mut choose: impl FnMut(u64, usize, &mut SimRng) -> u32,
    max_slots: u64,
    rng: &mut SimRng,
) -> ReductionOutcome {
    let mut game = HittingGame::new(c, k, rng);
    let mut proposed: HashSet<Edge> = HashSet::new();
    let mut slots = 0;
    for slot in 0..max_slots {
        slots = slot + 1;
        let a_r = choose(slot, 0, rng);
        assert!((a_r as usize) < c, "source chose channel {a_r} >= c = {c}");
        for node in 1..n {
            let b_r = choose(slot, node, rng);
            assert!(
                (b_r as usize) < c,
                "node {node} chose channel {b_r} >= c = {c}"
            );
            let e = Edge::new(a_r, b_r);
            if proposed.insert(e) && game.propose(e) {
                return ReductionOutcome {
                    game_rounds: game.rounds(),
                    sim_slots: slots,
                    won: true,
                };
            }
        }
    }
    ReductionOutcome {
        game_rounds: game.rounds(),
        sim_slots: slots,
        won: false,
    }
}

/// [`run_reduction`] with COGCAST's channel rule: every node picks
/// uniformly at random each slot.
pub fn run_reduction_cogcast(
    c: usize,
    k: usize,
    n: usize,
    max_slots: u64,
    rng: &mut SimRng,
) -> ReductionOutcome {
    run_reduction(
        c,
        k,
        n,
        |_slot, _node, rng| rng.gen_range(0..c as u32),
        max_slots,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cogcast_reduction_wins() {
        for seed in 0..10 {
            let mut rng = SimRng::seed_from_u64(seed);
            let out = run_reduction_cogcast(6, 2, 8, 1_000_000, &mut rng);
            assert!(out.won, "seed {seed}");
            assert!(out.game_rounds >= 1);
            assert!(out.sim_slots >= 1);
        }
    }

    #[test]
    fn proposals_per_slot_bounded_by_min_c_n() {
        // The reduction's key accounting: at most min{c, n} *unique*
        // proposals per simulated slot.
        let (c, k, n) = (4usize, 1usize, 20usize);
        let mut rng = SimRng::seed_from_u64(3);
        let out = run_reduction_cogcast(c, k, n, 50, &mut rng);
        let bound = out.sim_slots * c.min(n) as u64;
        assert!(
            out.game_rounds <= bound,
            "rounds {} exceed min(c,n)·slots {bound}",
            out.game_rounds
        );
    }

    #[test]
    fn deterministic_stuck_algorithm_never_wins_offmatch() {
        // An algorithm where everyone sits on channel 0 proposes only
        // the single edge (0, 0); it wins iff (0,0) is in the matching,
        // i.e. with probability k/c² per Lemma 11's referee — measure
        // that it usually loses.
        let (c, k, n) = (8usize, 1usize, 4usize);
        let mut wins = 0;
        for seed in 0..300 {
            let mut rng = SimRng::seed_from_u64(seed);
            let out = run_reduction(c, k, n, |_, _, _| 0, 1_000, &mut rng);
            wins += out.won as usize;
            assert!(out.game_rounds <= 1, "only one unique proposal exists");
        }
        // Expected win rate 1/64 ≈ 4.7 of 300.
        assert!(wins < 30, "constant algorithm won {wins}/300 times");
    }

    #[test]
    fn sim_slots_track_game_rounds_for_cogcast() {
        // Median game rounds for COGCAST through the reduction should
        // be on the order of c²/k (the Lemma 11 floor is c²/(8k)).
        let (c, k, n) = (16usize, 2usize, 64usize);
        let trials = 60;
        let mut rounds: Vec<u64> = (0..trials)
            .map(|seed| {
                let mut rng = SimRng::seed_from_u64(seed);
                let out = run_reduction_cogcast(c, k, n, 1_000_000, &mut rng);
                assert!(out.won);
                out.game_rounds
            })
            .collect();
        rounds.sort_unstable();
        let median = rounds[trials as usize / 2];
        let floor = (c * c) as u64 / (8 * k as u64);
        assert!(
            median >= floor / 4,
            "median {median} implausibly below the Lemma 11 regime ({floor})"
        );
    }

    #[test]
    #[should_panic(expected = ">= c")]
    fn out_of_range_choice_panics() {
        let mut rng = SimRng::seed_from_u64(0);
        run_reduction(2, 1, 2, |_, _, _| 9, 10, &mut rng);
    }
}
