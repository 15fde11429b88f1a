//! Players for the bipartite hitting games.
//!
//! Lemma 11 allows the player to be *any* probabilistic automaton; we
//! implement the two natural extremes — a memoryless uniform guesser
//! and a never-repeat guesser — plus (in [`crate::reduction`]) the
//! player that Lemma 12 constructs out of a broadcast algorithm.

use crate::game::{Edge, HittingGame};
use crn_sim::rng::SimRng;

/// A hitting-game player: a (possibly randomized) proposal stream.
pub trait Player {
    /// Produces the next proposal.
    fn next_proposal(&mut self, rng: &mut SimRng) -> Edge;
}

/// Proposes a uniformly random edge every round (with repetition).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformPlayer {
    c: u32,
}

impl UniformPlayer {
    /// A player for side size `c`.
    pub fn new(c: usize) -> Self {
        UniformPlayer { c: c as u32 }
    }
}

impl Player for UniformPlayer {
    fn next_proposal(&mut self, rng: &mut SimRng) -> Edge {
        Edge::new(rng.gen_range(0..self.c), rng.gen_range(0..self.c))
    }
}

/// Proposes the `c²` edges in a uniformly random order without
/// repetition — the strongest memory-using strategy against a uniform
/// referee (every untried edge is equally likely to be in the
/// matching).
#[derive(Debug, Clone)]
pub struct FreshPlayer {
    queue: Vec<Edge>,
    at: usize,
    shuffled: bool,
}

impl FreshPlayer {
    /// A player for side size `c`.
    pub fn new(c: usize) -> Self {
        let mut queue = Vec::with_capacity(c * c);
        for a in 0..c as u32 {
            for b in 0..c as u32 {
                queue.push(Edge::new(a, b));
            }
        }
        FreshPlayer {
            queue,
            at: 0,
            shuffled: false,
        }
    }
}

impl Player for FreshPlayer {
    fn next_proposal(&mut self, rng: &mut SimRng) -> Edge {
        if !self.shuffled {
            rng.shuffle(&mut self.queue);
            self.shuffled = true;
        }
        let e = self.queue[self.at % self.queue.len()];
        self.at += 1;
        e
    }
}

/// Plays `player` against `game` until it wins or `max_rounds` pass;
/// returns the winning round (1-based) or `None`.
///
/// # Examples
///
/// ```
/// use crn_lowerbounds::game::HittingGame;
/// use crn_lowerbounds::players::{play, FreshPlayer};
/// use crn_sim::rng::SimRng;
///
/// let mut rng = SimRng::seed_from_u64(7);
/// let mut game = HittingGame::new(4, 2, &mut rng);
/// let mut player = FreshPlayer::new(4);
/// let won_at = play(&mut game, &mut player, 1_000, &mut rng);
/// assert!(won_at.is_some());
/// ```
pub fn play(
    game: &mut HittingGame,
    player: &mut impl Player,
    max_rounds: u64,
    rng: &mut SimRng,
) -> Option<u64> {
    (1..=max_rounds).find(|_| game.propose(player.next_proposal(rng)))
}

/// Empirical win-by-round curve: for each round `1..=max_rounds`, the
/// fraction of `trials` games won within that many rounds.
///
/// `make_player` builds a fresh player per trial; games use seeds
/// `seed, seed+1, …` so curves are reproducible.
pub fn survival_curve<P: Player>(
    c: usize,
    k: usize,
    trials: usize,
    max_rounds: u64,
    seed: u64,
    mut make_player: impl FnMut(usize) -> P,
) -> Vec<f64> {
    let mut wins_at = vec![0usize; max_rounds as usize + 1];
    for t in 0..trials {
        let mut rng = SimRng::seed_from_u64(seed.wrapping_add(t as u64));
        let mut game = HittingGame::new(c, k, &mut rng);
        let mut player = make_player(c);
        if let Some(r) = play(&mut game, &mut player, max_rounds, &mut rng) {
            wins_at[r as usize] += 1;
        }
    }
    // Cumulative fraction.
    let mut curve = Vec::with_capacity(max_rounds as usize);
    let mut cum = 0usize;
    for wins in wins_at.iter().skip(1) {
        cum += wins;
        curve.push(cum as f64 / trials as f64);
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::bounds::hitting_game_floor;

    #[test]
    fn uniform_player_stays_in_range() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut p = UniformPlayer::new(5);
        for _ in 0..100 {
            let e = p.next_proposal(&mut rng);
            assert!(e.a < 5 && e.b < 5);
        }
    }

    #[test]
    fn fresh_player_never_repeats_within_c_squared() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut p = FreshPlayer::new(6);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..36 {
            assert!(seen.insert(p.next_proposal(&mut rng)));
        }
    }

    #[test]
    fn fresh_player_always_wins_within_c_squared() {
        for seed in 0..20 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut game = HittingGame::new(5, 2, &mut rng);
            let mut p = FreshPlayer::new(5);
            let r = play(&mut game, &mut p, 25, &mut rng);
            assert!(r.is_some(), "seed {seed}");
        }
    }

    #[test]
    fn lemma11_no_player_wins_fast() {
        // At l = c²/(8k) rounds (β = 2), win probability must be < 1/2.
        // Check both players empirically.
        let (c, k, trials) = (24usize, 3usize, 400usize);
        let floor = hitting_game_floor(c, k, 2.0); // c²/(8k) = 24
        let uni = survival_curve(c, k, trials, floor, 100, UniformPlayer::new);
        let fresh = survival_curve(c, k, trials, floor, 200, FreshPlayer::new);
        assert!(
            *uni.last().unwrap() < 0.5,
            "uniform player won too fast: {}",
            uni.last().unwrap()
        );
        assert!(
            *fresh.last().unwrap() < 0.5,
            "fresh player won too fast: {}",
            fresh.last().unwrap()
        );
    }

    #[test]
    fn lemma14_complete_game_needs_c_over_3() {
        // k = c: at c/3 rounds win probability must be < 1/2.
        let (c, trials) = (30usize, 400usize);
        let floor = (c / 3) as u64;
        let fresh = survival_curve(c, c, trials, floor, 300, FreshPlayer::new);
        assert!(
            *fresh.last().unwrap() < 0.5,
            "fresh player beat the Lemma 14 floor: {}",
            fresh.last().unwrap()
        );
    }

    #[test]
    fn fresh_player_median_near_ln2_c_on_complete_game() {
        // With a perfect matching, each fresh proposal hits w.p.
        // ≈ 1/c, so the median win round is ≈ c·ln 2 ≈ 0.69c.
        let (c, trials) = (40usize, 300usize);
        let curve = survival_curve(c, c, trials, (3 * c) as u64, 400, FreshPlayer::new);
        let median_round = curve.iter().position(|&p| p >= 0.5).unwrap() + 1;
        let expect = 0.69 * c as f64;
        assert!(
            (median_round as f64) > expect * 0.6 && (median_round as f64) < expect * 1.6,
            "median {median_round} vs expected ~{expect}"
        );
    }

    #[test]
    fn survival_curve_is_monotone() {
        let curve = survival_curve(8, 2, 100, 64, 7, UniformPlayer::new);
        for w in curve.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
