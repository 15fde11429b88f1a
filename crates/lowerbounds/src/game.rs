//! The bipartite hitting games of Section 6.
//!
//! In the `(c,k)`-bipartite hitting game a referee privately samples a
//! matching of size `k` in the complete bipartite graph on `A ∪ B`
//! (`|A| = |B| = c`); the player proposes one edge per round and wins on
//! the first proposal inside the matching. Lemma 11 shows any player
//! needs `≥ c²/(αk)` rounds to win with probability ½ (for `k ≤ c/β`,
//! `α = 2(β/(β−1))²`); the `c`-complete variant (`k = c`, a perfect
//! matching) needs `≥ c/3` rounds (Lemma 14).

use crn_sim::rng::SimRng;

/// An edge `(a_i, b_j)` of the complete bipartite graph, as a pair of
/// side indices in `0..c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Index into the `A` side.
    pub a: u32,
    /// Index into the `B` side.
    pub b: u32,
}

impl Edge {
    /// Convenience constructor.
    pub fn new(a: u32, b: u32) -> Self {
        Edge { a, b }
    }
}

/// A matching in the complete bipartite graph: a set of edges sharing no
/// endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    edges: Vec<Edge>,
}

impl Matching {
    /// Samples a matching the way the Lemma 11 referee does: pick each
    /// of the `k` edges uniformly at random among edges whose endpoints
    /// are still free, then remove its endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `k > c`.
    pub fn sample(c: usize, k: usize, rng: &mut SimRng) -> Self {
        assert!(k <= c, "matching size k = {k} exceeds side size c = {c}");
        let mut free_a: Vec<u32> = (0..c as u32).collect();
        let mut free_b: Vec<u32> = (0..c as u32).collect();
        let mut edges = Vec::with_capacity(k);
        for _ in 0..k {
            let ia = rng.gen_range(0..free_a.len());
            let ib = rng.gen_range(0..free_b.len());
            edges.push(Edge::new(free_a.swap_remove(ia), free_b.swap_remove(ib)));
        }
        Matching { edges }
    }

    /// The matching's edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for the empty matching.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, e: Edge) -> bool {
        self.edges.contains(&e)
    }

    /// Validates the matching property (no shared endpoints) and range.
    pub fn is_valid(&self, c: usize) -> bool {
        let mut seen_a = vec![false; c];
        let mut seen_b = vec![false; c];
        for e in &self.edges {
            let (a, b) = (e.a as usize, e.b as usize);
            if a >= c || b >= c || seen_a[a] || seen_b[b] {
                return false;
            }
            seen_a[a] = true;
            seen_b[b] = true;
        }
        true
    }
}

/// One instance of the hitting game: a hidden matching plus a round
/// counter.
///
/// # Examples
///
/// ```
/// use crn_lowerbounds::game::{Edge, HittingGame};
/// use crn_sim::rng::SimRng;
/// let mut rng = SimRng::seed_from_u64(1);
/// let mut game = HittingGame::new(4, 2, &mut rng);
/// let won = game.propose(Edge::new(0, 0));
/// assert_eq!(game.rounds(), 1);
/// let _ = won;
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HittingGame {
    c: usize,
    matching: Matching,
    rounds: u64,
    won: bool,
}

impl HittingGame {
    /// Starts a `(c,k)`-bipartite hitting game against the uniform
    /// referee.
    ///
    /// # Panics
    ///
    /// Panics if `k > c` or `c == 0`.
    pub fn new(c: usize, k: usize, rng: &mut SimRng) -> Self {
        assert!(c >= 1, "c must be at least 1");
        HittingGame {
            c,
            matching: Matching::sample(c, k, rng),
            rounds: 0,
            won: false,
        }
    }

    /// Starts the `c`-complete bipartite hitting game (`k = c`; the
    /// hidden matching is a uniform perfect matching).
    pub fn complete(c: usize, rng: &mut SimRng) -> Self {
        Self::new(c, c, rng)
    }

    /// Side size `c`.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Proposes an edge; returns true exactly when it is in the hidden
    /// matching. Proposals after a win are counted but always lose the
    /// round (the game is over).
    ///
    /// # Panics
    ///
    /// Panics if the edge is out of range.
    pub fn propose(&mut self, e: Edge) -> bool {
        assert!(
            (e.a as usize) < self.c && (e.b as usize) < self.c,
            "edge {e:?} out of range for c = {}",
            self.c
        );
        self.rounds += 1;
        if !self.won && self.matching.contains(e) {
            self.won = true;
            return true;
        }
        false
    }

    /// Rounds played so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// True once a proposal has hit the matching.
    pub fn is_won(&self) -> bool {
        self.won
    }

    /// Exposes the hidden matching — for tests and post-hoc analysis
    /// only; a player consulting this is cheating by definition.
    pub fn reveal(&self) -> &Matching {
        &self.matching
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sampled_matching_is_valid() {
        let mut rng = SimRng::seed_from_u64(0);
        for c in [1usize, 2, 5, 16] {
            for k in 1..=c {
                let m = Matching::sample(c, k, &mut rng);
                assert_eq!(m.len(), k);
                assert!(m.is_valid(c), "c={c}, k={k}: {m:?}");
            }
        }
    }

    #[test]
    fn complete_game_is_perfect_matching() {
        let mut rng = SimRng::seed_from_u64(3);
        let g = HittingGame::complete(8, &mut rng);
        assert_eq!(g.reveal().len(), 8);
        assert!(g.reveal().is_valid(8));
    }

    #[test]
    fn winning_proposal_detected() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut g = HittingGame::new(4, 2, &mut rng);
        let e = g.reveal().edges()[0];
        assert!(g.propose(e));
        assert!(g.is_won());
        assert_eq!(g.rounds(), 1);
    }

    #[test]
    fn losing_proposals_counted() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut g = HittingGame::new(4, 1, &mut rng);
        let hidden = g.reveal().edges()[0];
        let mut misses = 0;
        for a in 0..4u32 {
            for b in 0..4u32 {
                let e = Edge::new(a, b);
                if e != hidden {
                    assert!(!g.propose(e));
                    misses += 1;
                }
            }
        }
        assert_eq!(g.rounds(), misses);
        assert!(!g.is_won());
    }

    #[test]
    fn proposals_after_win_do_not_rewin() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut g = HittingGame::new(3, 3, &mut rng);
        let e = g.reveal().edges()[0];
        assert!(g.propose(e));
        assert!(!g.propose(e), "game already over");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut g = HittingGame::new(2, 1, &mut rng);
        g.propose(Edge::new(5, 0));
    }

    #[test]
    fn matching_distribution_is_roughly_uniform_over_endpoints() {
        // Each a-vertex should appear in the k-matching with probability
        // k/c; check frequencies over many samples.
        let (c, k, trials) = (6usize, 2usize, 6000usize);
        let mut rng = SimRng::seed_from_u64(42);
        let mut counts = vec![0usize; c];
        for _ in 0..trials {
            for e in Matching::sample(c, k, &mut rng).edges() {
                counts[e.a as usize] += 1;
            }
        }
        let expect = trials * k / c;
        for (a, &cnt) in counts.iter().enumerate() {
            assert!(
                (cnt as f64) > expect as f64 * 0.8 && (cnt as f64) < expect as f64 * 1.2,
                "vertex {a} count {cnt} vs expected {expect}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_matchings_valid(c in 1usize..24, k_off in 0usize..24, seed in 0u64..500) {
            let k = 1 + k_off % c;
            let mut rng = SimRng::seed_from_u64(seed);
            let m = Matching::sample(c, k, &mut rng);
            prop_assert!(m.is_valid(c));
            prop_assert_eq!(m.len(), k);
        }
    }
}
