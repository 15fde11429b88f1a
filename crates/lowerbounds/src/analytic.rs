//! Closed-form win probabilities for the hitting games, used to
//! validate the simulated games against exact analysis.
//!
//! Against the Lemma 11 referee (a uniformly random `k`-matching), a
//! single uniformly random edge proposal hits the matching with
//! probability exactly `k/c²` (each of the `k` matched edges is at any
//! fixed position with probability `1/c²` by symmetry, and the events
//! are disjoint). Hence:
//!
//! - the **uniform player** (fresh independent edge per round) wins
//!   within `l` rounds with probability `1 − (1 − k/c²)^l`;
//! - the **fresh player** (no repeats) wins within `l ≤ c²` rounds
//!   with probability `1 − Π_{j=0}^{l−1} (1 − k/(c² − j))` — the
//!   expected fraction of matched edges among the first `l` of a
//!   uniformly shuffled edge order.

/// Per-proposal hit probability `k/c²` for a uniformly random edge.
///
/// # Examples
///
/// ```
/// use crn_lowerbounds::analytic::single_hit_probability;
/// assert!((single_hit_probability(4, 2) - 0.125).abs() < 1e-12);
/// ```
pub fn single_hit_probability(c: usize, k: usize) -> f64 {
    k as f64 / (c * c) as f64
}

/// Exact win-within-`l` probability for the uniform (memoryless)
/// player.
///
/// # Examples
///
/// ```
/// use crn_lowerbounds::analytic::uniform_win_by;
/// let p1 = uniform_win_by(4, 2, 1);
/// assert!((p1 - 0.125).abs() < 1e-12);
/// assert!(uniform_win_by(4, 2, 100) > 0.99);
/// ```
pub fn uniform_win_by(c: usize, k: usize, l: u64) -> f64 {
    let p = single_hit_probability(c, k);
    1.0 - (1.0 - p).powf(l as f64)
}

/// Exact win-within-`l` probability for the fresh (never-repeat)
/// player, `l ≤ c²`.
///
/// By symmetry the player's shuffled edge order is uniform, so the
/// probability that none of the first `l` edges is matched equals the
/// probability that a uniform `l`-subset of the `c²` edges avoids the
/// `k` matched ones — but the matched edges are *themselves* a random
/// matching; conditioned on the player's order, each matched edge is
/// uniform over positions. The avoidance probability telescopes as
/// `Π_{j=0}^{k−1} (c² − l − j)/(c² − j)`.
///
/// # Examples
///
/// ```
/// use crn_lowerbounds::analytic::fresh_win_by;
/// // Exhausting all edges always wins.
/// assert!((fresh_win_by(3, 2, 9) - 1.0).abs() < 1e-12);
/// // One proposal: same as uniform.
/// assert!((fresh_win_by(3, 2, 1) - 2.0 / 9.0).abs() < 1e-12);
/// ```
pub fn fresh_win_by(c: usize, k: usize, l: u64) -> f64 {
    let m = (c * c) as f64;
    let l = (l as f64).min(m);
    let mut avoid = 1.0;
    for j in 0..k {
        avoid *= (m - l - j as f64) / (m - j as f64);
        if avoid <= 0.0 {
            return 1.0;
        }
    }
    1.0 - avoid
}

/// Expected winning round of the fresh player on the `c`-complete game
/// (`k = c`), ≈ `c·ln 2` for the median and `(c² + 1)/(c + 1)` for the
/// mean (the mean of the minimum of `c` uniform positions among `c²`).
pub fn fresh_complete_mean_round(c: usize) -> f64 {
    let m = (c * c) as f64;
    (m + 1.0) / (c as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{Edge, HittingGame, Matching};
    use crate::players::{play, survival_curve, FreshPlayer, UniformPlayer};
    use crn_sim::rng::SimRng;

    #[test]
    fn single_hit_probability_matches_simulation() {
        let (c, k) = (6usize, 2usize);
        let trials = 40_000;
        let mut rng = SimRng::seed_from_u64(5);
        let hits = (0..trials)
            .filter(|_| Matching::sample(c, k, &mut rng).contains(Edge::new(0, 0)))
            .count();
        let emp = hits as f64 / trials as f64;
        let exact = single_hit_probability(c, k);
        assert!(
            (emp - exact).abs() < 0.15 * exact + 0.002,
            "empirical {emp} vs exact {exact}"
        );
    }

    #[test]
    fn uniform_curve_matches_closed_form() {
        let (c, k, trials) = (8usize, 2usize, 4000usize);
        let horizon = 64;
        let curve = survival_curve(c, k, trials, horizon, 9, UniformPlayer::new);
        for &l in &[4u64, 16, 64] {
            let emp = curve[l as usize - 1];
            let exact = uniform_win_by(c, k, l);
            assert!(
                (emp - exact).abs() < 0.04,
                "l={l}: empirical {emp} vs exact {exact}"
            );
        }
    }

    #[test]
    fn fresh_curve_matches_closed_form() {
        let (c, k, trials) = (8usize, 2usize, 4000usize);
        let horizon = 64;
        let curve = survival_curve(c, k, trials, horizon, 10, FreshPlayer::new);
        for &l in &[4u64, 16, 64] {
            let emp = curve[l as usize - 1];
            let exact = fresh_win_by(c, k, l);
            assert!(
                (emp - exact).abs() < 0.04,
                "l={l}: empirical {emp} vs exact {exact}"
            );
        }
    }

    #[test]
    fn fresh_beats_uniform_everywhere() {
        let (c, k) = (10usize, 3usize);
        for l in [5u64, 20, 50, 100] {
            assert!(
                fresh_win_by(c, k, l) >= uniform_win_by(c, k, l) - 1e-12,
                "no-repeat must dominate at l={l}"
            );
        }
    }

    #[test]
    fn complete_game_mean_round_matches_simulation() {
        let c = 16usize;
        let trials = 800u64;
        let mut total = 0u64;
        for seed in 0..trials {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut game = HittingGame::complete(c, &mut rng);
            let mut player = FreshPlayer::new(c);
            total += play(&mut game, &mut player, (c * c) as u64, &mut rng)
                .expect("fresh always wins within c²");
        }
        let emp = total as f64 / trials as f64;
        let exact = fresh_complete_mean_round(c);
        assert!(
            (emp - exact).abs() < 0.15 * exact,
            "empirical {emp} vs exact {exact}"
        );
    }

    #[test]
    fn closed_forms_are_probabilities() {
        for c in [2usize, 5, 12] {
            for k in 1..=c {
                for l in [0u64, 1, 7, 1000] {
                    for p in [uniform_win_by(c, k, l), fresh_win_by(c, k, l)] {
                        assert!((0.0..=1.0 + 1e-12).contains(&p), "c={c},k={k},l={l}: {p}");
                    }
                }
            }
        }
    }
}
