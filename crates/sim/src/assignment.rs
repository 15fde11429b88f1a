//! Static channel assignments and their generators.
//!
//! A [`ChannelAssignment`] fixes, for each of the `n` nodes, the set of
//! `c` global channels it may use, subject to the model invariant that
//! every pair of nodes overlaps on at least `k` channels. The generators
//! here produce the overlap *patterns* the paper reasons about:
//!
//! - [`full_overlap`] — everyone shares the same `c` channels (`k = c`),
//!   the "highly congested" end of the spectrum from the Section 4
//!   analysis.
//! - [`shared_core`] — exactly `k` common channels plus per-node disjoint
//!   private blocks; this is the `C = k + n(c-k)` setup used by the
//!   Theorem 16 lower bound and the `Ω(n/k)` aggregation floor.
//! - [`random_with_core`] — `k` common channels plus random private
//!   channels drawn from a pool; tuning the pool size moves between
//!   "widely distributed" (huge pool: pairwise overlap ≈ exactly `k`)
//!   and "congested" (small pool: lots of incidental overlap).
//! - [`clustered`] — groups of nodes share extra group channels on top of
//!   the global core, producing heterogeneous overlap.

use crate::error::SimError;
use crate::ids::GlobalChannel;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A static assignment of channel sets to nodes.
///
/// Invariants (checked by [`ChannelAssignment::validate`]):
/// - every node has exactly `c` distinct channels, all `< C`;
/// - every pair of nodes overlaps on at least `k` channels.
///
/// Per-node channel lists are kept sorted in global order; the engine
/// applies a per-node label permutation on top when simulating the
/// local-label model.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::shared_core;
/// let a = shared_core(4, 6, 2).unwrap();
/// assert_eq!(a.n(), 4);
/// assert_eq!(a.c(), 6);
/// assert!(a.min_pairwise_overlap() >= 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelAssignment {
    /// Per-node sorted channel sets.
    sets: Vec<Vec<GlobalChannel>>,
    /// Total number of global channels `C`.
    total: usize,
    /// The overlap guarantee this assignment was built for.
    k: usize,
}

impl ChannelAssignment {
    /// Builds an assignment from raw per-node channel sets.
    ///
    /// Sorts and deduplicates each set, then validates the model
    /// invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParams`] if sets are empty, of unequal
    /// size, or reference channels `>= total`; and
    /// [`SimError::OverlapViolation`] if some pair overlaps on fewer than
    /// `k` channels.
    pub fn from_sets(
        mut sets: Vec<Vec<GlobalChannel>>,
        total: usize,
        k: usize,
    ) -> Result<Self, SimError> {
        if sets.is_empty() {
            return Err(SimError::InvalidParams {
                reason: "assignment needs at least one node".into(),
            });
        }
        for s in &mut sets {
            s.sort_unstable();
            s.dedup();
        }
        let c = sets[0].len();
        if c == 0 {
            return Err(SimError::InvalidParams {
                reason: "each node needs at least one channel".into(),
            });
        }
        if sets.iter().any(|s| s.len() != c) {
            return Err(SimError::InvalidParams {
                reason: "all nodes must have the same number of channels c \
                         (use from_ragged_sets for heterogeneous counts)"
                    .into(),
            });
        }
        if sets.iter().any(|s| s.iter().any(|g| g.index() >= total)) {
            return Err(SimError::InvalidParams {
                reason: format!("channel id out of range (C = {total})"),
            });
        }
        if k == 0 || k > c {
            return Err(SimError::InvalidParams {
                reason: format!("k must satisfy 1 <= k <= c (k = {k}, c = {c})"),
            });
        }
        let a = ChannelAssignment { sets, total, k };
        a.validate()?;
        Ok(a)
    }

    /// Builds an assignment in the *generalized* model where nodes may
    /// hold different channel counts (`c_u ≠ c_v`, as in the rendezvous
    /// literature the paper discusses, e.g. Gu et al.'s
    /// `O(max{c_u, c_v}²)` bound). Sets are sorted and deduplicated;
    /// the pairwise-overlap `≥ k` invariant still applies to every
    /// pair.
    ///
    /// # Errors
    ///
    /// Same as [`ChannelAssignment::from_sets`], minus the uniform-size
    /// requirement (`k` must satisfy `k <= min_u c_u`).
    pub fn from_ragged_sets(
        mut sets: Vec<Vec<GlobalChannel>>,
        total: usize,
        k: usize,
    ) -> Result<Self, SimError> {
        if sets.is_empty() {
            return Err(SimError::InvalidParams {
                reason: "assignment needs at least one node".into(),
            });
        }
        for s in &mut sets {
            s.sort_unstable();
            s.dedup();
        }
        let min_c = sets.iter().map(Vec::len).min().expect("non-empty");
        if min_c == 0 {
            return Err(SimError::InvalidParams {
                reason: "each node needs at least one channel".into(),
            });
        }
        if sets.iter().any(|s| s.iter().any(|g| g.index() >= total)) {
            return Err(SimError::InvalidParams {
                reason: format!("channel id out of range (C = {total})"),
            });
        }
        if k == 0 || k > min_c {
            return Err(SimError::InvalidParams {
                reason: format!("k must satisfy 1 <= k <= min c_u (k = {k}, min = {min_c})"),
            });
        }
        let a = ChannelAssignment { sets, total, k };
        a.validate()?;
        Ok(a)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.sets.len()
    }

    /// Channels per node; for heterogeneous (ragged) assignments the
    /// maximum over nodes (see [`ChannelAssignment::c_of`]).
    pub fn c(&self) -> usize {
        self.sets.iter().map(Vec::len).max().expect("non-empty")
    }

    /// Channels available to `node` specifically.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n`.
    pub fn c_of(&self, node: usize) -> usize {
        self.sets[node].len()
    }

    /// True if every node holds the same number of channels (the
    /// paper's base model).
    pub fn is_uniform(&self) -> bool {
        self.sets.iter().all(|s| s.len() == self.sets[0].len())
    }

    /// The pairwise-overlap guarantee `k` this assignment satisfies.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of global channels `C`.
    pub fn total_channels(&self) -> usize {
        self.total
    }

    /// The sorted channel set of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n`.
    pub fn channels_of(&self, node: usize) -> &[GlobalChannel] {
        &self.sets[node]
    }

    /// Computes the overlap (number of shared channels) of a node pair.
    ///
    /// Linear merge over the two sorted sets.
    pub fn overlap(&self, a: usize, b: usize) -> usize {
        let (xs, ys) = (&self.sets[a], &self.sets[b]);
        let (mut i, mut j, mut cnt) = (0, 0, 0);
        while i < xs.len() && j < ys.len() {
            match xs[i].cmp(&ys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    cnt += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        cnt
    }

    /// The smallest pairwise overlap over all node pairs (or `c` when
    /// `n == 1`).
    pub fn min_pairwise_overlap(&self) -> usize {
        let n = self.n();
        if n == 1 {
            return self.c();
        }
        let mut min = usize::MAX;
        for a in 0..n {
            for b in (a + 1)..n {
                min = min.min(self.overlap(a, b));
            }
        }
        min
    }

    /// Applies a uniformly random permutation to the *global* channel
    /// id space.
    ///
    /// The generators in this module place structured channels (e.g.
    /// the shared core) at low ids for readability; algorithms that
    /// scan ids in order would exploit that artifact. Permuting the
    /// global ids removes it while preserving every overlap property.
    ///
    /// # Examples
    ///
    /// ```
    /// use crn_sim::assignment::shared_core;
    /// use rand::SeedableRng;
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    /// let a = shared_core(4, 6, 2)?.permute_globals(&mut rng);
    /// assert!(a.min_pairwise_overlap() >= 2);
    /// # Ok::<(), crn_sim::SimError>(())
    /// ```
    #[must_use]
    pub fn permute_globals(mut self, rng: &mut impl Rng) -> Self {
        let mut perm: Vec<u32> = (0..self.total as u32).collect();
        perm.shuffle(rng);
        for set in &mut self.sets {
            for g in set.iter_mut() {
                *g = GlobalChannel(perm[g.index()]);
            }
            set.sort_unstable();
        }
        self
    }

    /// Checks the model invariants against this assignment's `k`.
    ///
    /// Costs `O(n·c)` whenever at least `k` channels are common to every
    /// node — then every pair overlaps on at least those `k`, which
    /// covers every generator's shared core. Otherwise it falls back to
    /// the `O(n²·c)` pairwise scan, which names the offending pair.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OverlapViolation`] naming the first offending
    /// pair.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.common_channels() >= self.k {
            return Ok(());
        }
        self.validate_pairwise()
    }

    /// How many channels every node holds, by a running merge
    /// intersection of the sorted sets (stops early once fewer than `k`
    /// remain).
    fn common_channels(&self) -> usize {
        let mut common = self.sets[0].clone();
        for set in &self.sets[1..] {
            if common.len() < self.k {
                break;
            }
            let mut j = 0;
            common.retain(|ch| {
                while j < set.len() && set[j] < *ch {
                    j += 1;
                }
                j < set.len() && set[j] == *ch
            });
        }
        common.len()
    }

    /// The pairwise scan: the first pair, in `(a, b)` order, that
    /// overlaps on fewer than `k` channels.
    fn validate_pairwise(&self) -> Result<(), SimError> {
        let n = self.n();
        for a in 0..n {
            for b in (a + 1)..n {
                let o = self.overlap(a, b);
                if o < self.k {
                    return Err(SimError::OverlapViolation {
                        a: a as u32,
                        b: b as u32,
                        observed: o,
                        required: self.k,
                    });
                }
            }
        }
        Ok(())
    }
}

fn check_basic(n: usize, c: usize, k: usize) -> Result<(), SimError> {
    if n == 0 {
        return Err(SimError::InvalidParams {
            reason: "n must be at least 1".into(),
        });
    }
    if c == 0 {
        return Err(SimError::InvalidParams {
            reason: "c must be at least 1".into(),
        });
    }
    if k == 0 || k > c {
        return Err(SimError::InvalidParams {
            reason: format!("k must satisfy 1 <= k <= c (k = {k}, c = {c})"),
        });
    }
    Ok(())
}

/// All nodes share the identical channel set `0..c` (so `k = c`).
///
/// This is the maximally *congested* overlap pattern: few channels to
/// search, but heavy contention per channel.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `n == 0` or `c == 0`.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::full_overlap;
/// let a = full_overlap(8, 4).unwrap();
/// assert_eq!(a.min_pairwise_overlap(), 4);
/// assert_eq!(a.total_channels(), 4);
/// ```
pub fn full_overlap(n: usize, c: usize) -> Result<ChannelAssignment, SimError> {
    check_basic(n, c, c.max(1))?;
    let base: Vec<GlobalChannel> = (0..c as u32).map(GlobalChannel).collect();
    ChannelAssignment::from_sets(vec![base; n], c, c)
}

/// The Theorem 16 setup: `k` channels shared by everyone plus `c - k`
/// *disjoint* private channels per node, for `C = k + n(c-k)` total.
///
/// Pairwise overlap is exactly `k`, and the only usable meeting points
/// are the `k` core channels — the maximally *dispersed* pattern.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] for inconsistent `(n, c, k)`.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::shared_core;
/// let a = shared_core(3, 5, 2).unwrap();
/// assert_eq!(a.total_channels(), 2 + 3 * 3);
/// assert_eq!(a.overlap(0, 1), 2);
/// ```
pub fn shared_core(n: usize, c: usize, k: usize) -> Result<ChannelAssignment, SimError> {
    check_basic(n, c, k)?;
    let private = c - k;
    let total = k + n * private;
    let sets = (0..n)
        .map(|i| {
            let mut s: Vec<GlobalChannel> = (0..k as u32).map(GlobalChannel).collect();
            let base = k + i * private;
            s.extend((0..private).map(|j| GlobalChannel((base + j) as u32)));
            s
        })
        .collect();
    ChannelAssignment::from_sets(sets, total, k)
}

/// `k` shared core channels plus `c - k` private channels drawn uniformly
/// (without replacement, per node) from a pool of `pool` non-core
/// channels, for `C = k + pool` total.
///
/// With `pool >> n·(c-k)` private sets rarely collide and pairwise
/// overlap ≈ exactly `k`; with `pool` close to `c - k` the pattern
/// approaches [`full_overlap`]. This is the default workload for the
/// broadcast/aggregation experiments.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `pool < c - k` or the basic
/// parameter constraints fail.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::random_with_core;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let a = random_with_core(10, 8, 3, 100, &mut rng).unwrap();
/// assert!(a.min_pairwise_overlap() >= 3);
/// assert_eq!(a.total_channels(), 103);
/// ```
pub fn random_with_core(
    n: usize,
    c: usize,
    k: usize,
    pool: usize,
    rng: &mut impl Rng,
) -> Result<ChannelAssignment, SimError> {
    check_basic(n, c, k)?;
    let private = c - k;
    if pool < private {
        return Err(SimError::InvalidParams {
            reason: format!("pool ({pool}) must be at least c - k ({private})"),
        });
    }
    let total = k + pool;
    let pool_ids: Vec<u32> = (k as u32..total as u32).collect();
    let sets = (0..n)
        .map(|_| {
            let mut s: Vec<GlobalChannel> = (0..k as u32).map(GlobalChannel).collect();
            let picks = pool_ids.choose_multiple(rng, private);
            s.extend(picks.map(|&g| GlobalChannel(g)));
            s
        })
        .collect();
    ChannelAssignment::from_sets(sets, total, k)
}

/// The generalized (ragged) model: node `i` holds `cs[i]` channels —
/// `k` shared core channels plus `cs[i] − k` private channels drawn
/// from a pool of `pool` non-core channels (`C = k + pool`).
///
/// This is the heterogeneous setting of the rendezvous literature the
/// paper discusses (`c_u ≠ c_v`); the paper's own bounds apply with
/// `c = max_u c_u`.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if any `cs[i] < k`, `cs` is
/// empty, or `pool < max(cs) − k`.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::ragged_with_core;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let a = ragged_with_core(&[3, 6, 9], 2, 40, &mut rng)?;
/// assert_eq!(a.c_of(0), 3);
/// assert_eq!(a.c_of(2), 9);
/// assert_eq!(a.c(), 9);
/// assert!(!a.is_uniform());
/// assert!(a.min_pairwise_overlap() >= 2);
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn ragged_with_core(
    cs: &[usize],
    k: usize,
    pool: usize,
    rng: &mut impl Rng,
) -> Result<ChannelAssignment, SimError> {
    if cs.is_empty() {
        return Err(SimError::InvalidParams {
            reason: "need at least one node".into(),
        });
    }
    let max_c = *cs.iter().max().expect("non-empty");
    if k == 0 || cs.iter().any(|&c| c < k) {
        return Err(SimError::InvalidParams {
            reason: format!("k must satisfy 1 <= k <= every c_u (k = {k}, cs = {cs:?})"),
        });
    }
    if pool < max_c - k {
        return Err(SimError::InvalidParams {
            reason: format!("pool ({pool}) must be at least max(cs) - k ({})", max_c - k),
        });
    }
    let total = k + pool;
    let pool_ids: Vec<u32> = (k as u32..total as u32).collect();
    let sets = cs
        .iter()
        .map(|&c| {
            let mut s: Vec<GlobalChannel> = (0..k as u32).map(GlobalChannel).collect();
            s.extend(
                pool_ids
                    .choose_multiple(rng, c - k)
                    .map(|&g| GlobalChannel(g)),
            );
            s
        })
        .collect();
    ChannelAssignment::from_ragged_sets(sets, total, k)
}

/// Heterogeneous overlap: a global core of `k` channels, plus per-group
/// pools from which group members draw their private channels.
///
/// Nodes within a group tend to overlap on far more than `k` channels,
/// while cross-group pairs overlap on roughly the `k` core only. Group
/// `i` of `groups` contains the nodes `{j : j % groups == i}`.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `groups == 0`,
/// `group_pool < c - k`, or the basic constraints fail.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::clustered;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let a = clustered(12, 6, 2, 3, 8, &mut rng).unwrap();
/// assert!(a.min_pairwise_overlap() >= 2);
/// ```
pub fn clustered(
    n: usize,
    c: usize,
    k: usize,
    groups: usize,
    group_pool: usize,
    rng: &mut impl Rng,
) -> Result<ChannelAssignment, SimError> {
    check_basic(n, c, k)?;
    if groups == 0 {
        return Err(SimError::InvalidParams {
            reason: "groups must be at least 1".into(),
        });
    }
    let private = c - k;
    if group_pool < private {
        return Err(SimError::InvalidParams {
            reason: format!("group_pool ({group_pool}) must be at least c - k ({private})"),
        });
    }
    let total = k + groups * group_pool;
    let sets = (0..n)
        .map(|i| {
            let g = i % groups;
            let base = (k + g * group_pool) as u32;
            let pool_ids: Vec<u32> = (base..base + group_pool as u32).collect();
            let mut s: Vec<GlobalChannel> = (0..k as u32).map(GlobalChannel).collect();
            s.extend(
                pool_ids
                    .choose_multiple(rng, private)
                    .map(|&x| GlobalChannel(x)),
            );
            s
        })
        .collect();
    ChannelAssignment::from_sets(sets, total, k)
}

/// Identifies the named overlap patterns swept by experiment F7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OverlapPattern {
    /// [`full_overlap`] (requires `k == c`; other patterns ignore that).
    FullOverlap,
    /// [`shared_core`].
    SharedCore,
    /// [`random_with_core`] with a large pool (dispersed).
    RandomDispersed,
    /// [`random_with_core`] with a small pool (congested).
    RandomCongested,
    /// [`clustered`] with 4 groups.
    Clustered,
}

impl OverlapPattern {
    /// All patterns, in sweep order.
    pub const ALL: [OverlapPattern; 5] = [
        OverlapPattern::FullOverlap,
        OverlapPattern::SharedCore,
        OverlapPattern::RandomDispersed,
        OverlapPattern::RandomCongested,
        OverlapPattern::Clustered,
    ];

    /// Human-readable name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            OverlapPattern::FullOverlap => "full-overlap",
            OverlapPattern::SharedCore => "shared-core",
            OverlapPattern::RandomDispersed => "random-dispersed",
            OverlapPattern::RandomCongested => "random-congested",
            OverlapPattern::Clustered => "clustered",
        }
    }

    /// Instantiates the pattern for `(n, c, k)`.
    ///
    /// For [`OverlapPattern::FullOverlap`] the generated assignment has
    /// overlap `c` (the strongest pattern consistent with any `k`).
    ///
    /// # Errors
    ///
    /// Propagates generator errors for inconsistent parameters.
    pub fn generate(
        self,
        n: usize,
        c: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> Result<ChannelAssignment, SimError> {
        match self {
            OverlapPattern::FullOverlap => full_overlap(n, c),
            OverlapPattern::SharedCore => shared_core(n, c, k),
            OverlapPattern::RandomDispersed => {
                random_with_core(n, c, k, (c - k).max(1) * n.max(4) * 4, rng)
            }
            OverlapPattern::RandomCongested => random_with_core(n, c, k, ((c - k) * 2).max(1), rng),
            OverlapPattern::Clustered => clustered(n, c, k, 4, ((c - k) * 3).max(1), rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_overlap_basics() {
        let a = full_overlap(5, 3).unwrap();
        assert_eq!(a.n(), 5);
        assert_eq!(a.c(), 3);
        assert_eq!(a.k(), 3);
        assert_eq!(a.total_channels(), 3);
        assert_eq!(a.min_pairwise_overlap(), 3);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn shared_core_exact_overlap() {
        let a = shared_core(4, 6, 2).unwrap();
        assert_eq!(a.total_channels(), 2 + 4 * 4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(a.overlap(i, j), 2, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn shared_core_k_equals_c_is_full_overlap() {
        let a = shared_core(3, 4, 4).unwrap();
        assert_eq!(a.total_channels(), 4);
        assert_eq!(a.min_pairwise_overlap(), 4);
    }

    #[test]
    fn shared_core_single_node() {
        let a = shared_core(1, 4, 2).unwrap();
        assert_eq!(a.min_pairwise_overlap(), 4);
    }

    #[test]
    fn random_with_core_respects_overlap() {
        let mut rng = StdRng::seed_from_u64(7);
        for pool in [4usize, 10, 100] {
            let a = random_with_core(8, 6, 3, pool.max(3), &mut rng).unwrap();
            assert!(a.min_pairwise_overlap() >= 3, "pool {pool}");
            assert!(a.validate().is_ok());
        }
    }

    #[test]
    fn random_with_core_pool_too_small() {
        let mut rng = StdRng::seed_from_u64(7);
        let err = random_with_core(3, 6, 2, 3, &mut rng).unwrap_err();
        assert!(matches!(err, SimError::InvalidParams { .. }));
    }

    #[test]
    fn clustered_within_group_overlap_exceeds_core() {
        let mut rng = StdRng::seed_from_u64(3);
        // 2 groups, small group pool: group-mates share many channels.
        let a = clustered(8, 8, 2, 2, 7, &mut rng).unwrap();
        assert!(a.validate().is_ok());
        // nodes 0 and 2 are in the same group (i % 2).
        assert!(a.overlap(0, 2) > 2);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(full_overlap(0, 3).is_err());
        assert!(full_overlap(3, 0).is_err());
        assert!(shared_core(3, 4, 0).is_err());
        assert!(shared_core(3, 4, 5).is_err());
    }

    #[test]
    fn from_sets_detects_overlap_violation() {
        let sets = vec![
            vec![GlobalChannel(0), GlobalChannel(1)],
            vec![GlobalChannel(2), GlobalChannel(3)],
        ];
        let err = ChannelAssignment::from_sets(sets, 4, 1).unwrap_err();
        assert!(matches!(
            err,
            SimError::OverlapViolation {
                observed: 0,
                required: 1,
                ..
            }
        ));
    }

    #[test]
    fn from_sets_detects_out_of_range() {
        let sets = vec![vec![GlobalChannel(0), GlobalChannel(9)]; 2];
        let err = ChannelAssignment::from_sets(sets, 4, 1).unwrap_err();
        assert!(matches!(err, SimError::InvalidParams { .. }));
    }

    #[test]
    fn from_sets_detects_ragged_sets() {
        let sets = vec![
            vec![GlobalChannel(0), GlobalChannel(1)],
            vec![GlobalChannel(0)],
        ];
        assert!(ChannelAssignment::from_sets(sets, 2, 1).is_err());
    }

    #[test]
    fn ragged_assignments_expose_per_node_counts() {
        let mut rng = StdRng::seed_from_u64(15);
        let a = ragged_with_core(&[2, 4, 8], 2, 30, &mut rng).unwrap();
        assert_eq!(a.n(), 3);
        assert_eq!(a.c(), 8);
        assert_eq!(a.c_of(0), 2);
        assert_eq!(a.c_of(1), 4);
        assert!(!a.is_uniform());
        assert!(a.min_pairwise_overlap() >= 2);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn uniform_assignments_report_uniform() {
        let a = shared_core(4, 5, 2).unwrap();
        assert!(a.is_uniform());
        assert_eq!(a.c_of(3), 5);
    }

    #[test]
    fn ragged_rejects_bad_params() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(ragged_with_core(&[], 1, 5, &mut rng).is_err());
        assert!(
            ragged_with_core(&[3, 1], 2, 5, &mut rng).is_err(),
            "c_u < k"
        );
        assert!(
            ragged_with_core(&[3, 9], 2, 3, &mut rng).is_err(),
            "pool too small"
        );
        assert!(ragged_with_core(&[3, 4], 0, 5, &mut rng).is_err());
    }

    #[test]
    fn from_ragged_sets_validates_overlap() {
        let sets = vec![
            vec![GlobalChannel(0)],
            vec![GlobalChannel(1), GlobalChannel(2)],
        ];
        let err = ChannelAssignment::from_ragged_sets(sets, 3, 1).unwrap_err();
        assert!(matches!(err, SimError::OverlapViolation { .. }));
        let sets = vec![
            vec![GlobalChannel(0)],
            vec![GlobalChannel(0), GlobalChannel(2)],
        ];
        assert!(ChannelAssignment::from_ragged_sets(sets, 3, 1).is_ok());
    }

    #[test]
    fn permute_globals_preserves_overlaps() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = shared_core(5, 6, 2).unwrap();
        let overlaps: Vec<usize> = (0..5)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .map(|(i, j)| a.overlap(i, j))
            .collect();
        let b = a.clone().permute_globals(&mut rng);
        let permuted: Vec<usize> = (0..5)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .map(|(i, j)| b.overlap(i, j))
            .collect();
        assert_eq!(overlaps, permuted);
        assert!(b.validate().is_ok());
        assert_eq!(b.total_channels(), a.total_channels());
        // The permutation essentially always moves the core off 0..k.
        assert_ne!(a, b);
    }

    #[test]
    fn overlap_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_with_core(6, 5, 2, 20, &mut rng).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(a.overlap(i, j), a.overlap(j, i));
            }
        }
    }

    #[test]
    fn all_patterns_generate_valid_assignments() {
        let mut rng = StdRng::seed_from_u64(5);
        for p in OverlapPattern::ALL {
            let a = p.generate(10, 6, 3, &mut rng).unwrap();
            assert!(
                a.min_pairwise_overlap() >= 3,
                "pattern {} violated overlap",
                p.name()
            );
        }
    }

    #[test]
    fn pattern_names_unique() {
        let names: std::collections::HashSet<_> =
            OverlapPattern::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), OverlapPattern::ALL.len());
    }

    proptest! {
        #[test]
        fn prop_shared_core_valid(n in 1usize..20, c in 1usize..12, k_off in 0usize..12) {
            let k = 1 + k_off % c;
            let a = shared_core(n, c, k).unwrap();
            prop_assert!(a.validate().is_ok());
            prop_assert_eq!(a.n(), n);
            prop_assert_eq!(a.c(), c);
            prop_assert!(a.min_pairwise_overlap() >= k);
        }

        #[test]
        fn prop_random_with_core_valid(
            n in 1usize..16,
            c in 1usize..10,
            k_off in 0usize..10,
            pool_extra in 0usize..30,
            seed in 0u64..1000,
        ) {
            let k = 1 + k_off % c;
            let pool = (c - k) + pool_extra;
            if pool == 0 { return Ok(()); }
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_with_core(n, c, k, pool, &mut rng).unwrap();
            prop_assert!(a.validate().is_ok());
            // each set is sorted and deduplicated
            for i in 0..n {
                let s = a.channels_of(i);
                for w in s.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }

        /// The `O(n·c)` common-core check must agree with the pairwise
        /// scan on every input: the same `Ok`, or the same first
        /// offending pair and counts.
        #[test]
        fn prop_validate_matches_pairwise_scan(
            n in 1usize..12,
            extra in 1usize..16,
            core in 0usize..4,
            k_off in 0usize..6,
            ragged in 0usize..2,
            break_core in 0usize..2,
            seed in 0u64..10_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let total = core + extra;
            let fixed = rng.gen_range(1..=extra);
            let mut sets: Vec<Vec<GlobalChannel>> = (0..n)
                .map(|_| {
                    let size = if ragged == 1 { rng.gen_range(1..=extra) } else { fixed };
                    let mut private: Vec<u32> = (core as u32..total as u32).collect();
                    private.shuffle(&mut rng);
                    (0..core as u32)
                        .chain(private.into_iter().take(size))
                        .map(GlobalChannel)
                        .collect()
                })
                .collect();
            if break_core == 1 && core > 0 {
                // Knock one core channel out of one node, so the common
                // core shrinks and violations become likely.
                let node = rng.gen_range(0..n);
                let drop = GlobalChannel(rng.gen_range(0..core as u32));
                sets[node].retain(|&ch| ch != drop);
            }
            for set in &mut sets {
                set.sort_unstable();
            }
            let min_c = sets.iter().map(Vec::len).min().unwrap();
            let a = ChannelAssignment { sets, total, k: 1 + k_off % min_c };
            prop_assert_eq!(a.validate(), a.validate_pairwise());
        }

        #[test]
        fn prop_overlap_never_exceeds_c(n in 2usize..10, c in 1usize..8, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_with_core(n, c, 1, c * 3, &mut rng).unwrap();
            for i in 0..n {
                for j in (i+1)..n {
                    prop_assert!(a.overlap(i, j) <= c);
                }
            }
        }
    }
}
