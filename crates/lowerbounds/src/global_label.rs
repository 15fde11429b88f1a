//! The Theorem 16 experiment: the `Ω(c/k)` expectation floor under
//! global channel labels.
//!
//! Theorem 16's setup randomizes the *network*: `C = k + n(c−k)`
//! channels, a uniformly random set of `k` of them shared by everybody,
//! and the rest partitioned into disjoint private blocks. From the
//! source's perspective, the `k` overlap channels occupy a uniformly
//! random `k`-subset of its own `c` channels — so *whatever* channel
//! sequence an algorithm uses, the expected number of slots before the
//! source first touches an overlap channel is `(c+1)/(k+1)`.
//!
//! This module samples that first-overlap time for several source
//! strategies, letting the harness exhibit the floor empirically.

use crn_sim::rng::SimRng;

/// The channel-selection strategies the experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceStrategy {
    /// A fresh uniform pick every slot (COGCAST's rule).
    Uniform,
    /// A deterministic scan `0, 1, 2, …, c−1, 0, …`.
    Scan,
    /// Park forever on channel 0 (wins in slot 1 with probability
    /// `k/c`, otherwise never — the pathological extreme).
    Stay,
}

impl SourceStrategy {
    /// All strategies, in sweep order.
    pub const ALL: [SourceStrategy; 3] = [
        SourceStrategy::Uniform,
        SourceStrategy::Scan,
        SourceStrategy::Stay,
    ];

    /// Human-readable name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            SourceStrategy::Uniform => "uniform",
            SourceStrategy::Scan => "scan",
            SourceStrategy::Stay => "stay",
        }
    }

    fn pick(self, slot: u64, c: usize, rng: &mut SimRng) -> usize {
        match self {
            SourceStrategy::Uniform => rng.gen_range(0..c),
            SourceStrategy::Scan => (slot % c as u64) as usize,
            SourceStrategy::Stay => 0,
        }
    }
}

/// Samples, for `trials` random Theorem 16 setups, the slot (1-based)
/// in which the source first lands on an overlap channel; `None` when
/// `budget` slots pass first.
///
/// # Panics
///
/// Panics if `k > c` or `c == 0`.
///
/// # Examples
///
/// ```
/// use crn_lowerbounds::global_label::{first_overlap_slots, SourceStrategy};
/// let samples = first_overlap_slots(8, 2, SourceStrategy::Uniform, 100, 7, 10_000);
/// assert_eq!(samples.len(), 100);
/// assert!(samples.iter().all(|s| s.is_some()));
/// ```
pub fn first_overlap_slots(
    c: usize,
    k: usize,
    strategy: SourceStrategy,
    trials: usize,
    seed: u64,
    budget: u64,
) -> Vec<Option<u64>> {
    assert!(c >= 1 && k >= 1 && k <= c, "need 1 <= k <= c");
    (0..trials)
        .map(|t| {
            let mut rng = SimRng::seed_from_u64(seed.wrapping_add(t as u64));
            // The k overlap channels sit at a uniform k-subset of the
            // source's c channel positions.
            let mut core = vec![false; c];
            for i in rng.sample_indices(c, k) {
                core[i] = true;
            }
            (0..budget)
                .map(|slot| (slot, strategy.pick(slot, c, &mut rng)))
                .find(|&(_, pick)| core[pick])
                .map(|(slot, _)| slot + 1)
        })
        .collect()
}

/// Mean first-overlap slot, counting timeouts as `budget` (a lower
/// bound on the truth).
pub fn mean_first_overlap(
    c: usize,
    k: usize,
    strategy: SourceStrategy,
    trials: usize,
    seed: u64,
    budget: u64,
) -> f64 {
    let samples = first_overlap_slots(c, k, strategy, trials, seed, budget);
    let total: u64 = samples.iter().map(|s| s.unwrap_or(budget)).sum();
    total as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::bounds::global_label_floor;

    #[test]
    fn uniform_matches_the_floor() {
        // E[first overlap] should be close to (c+1)/(k+1) for the
        // uniform strategy... in fact uniform picks give a geometric
        // with mean c/k, slightly above the floor.
        let (c, k) = (12usize, 3usize);
        let mean = mean_first_overlap(c, k, SourceStrategy::Uniform, 4000, 1, 100_000);
        let floor = global_label_floor(c, k);
        assert!(mean >= floor * 0.9, "mean {mean} below floor {floor}");
        assert!(mean <= (c as f64 / k as f64) * 1.3, "mean {mean} too large");
    }

    #[test]
    fn scan_matches_the_floor() {
        // The deterministic scan against a random k-subset achieves
        // exactly the (c+1)/(k+1) expectation of Theorem 16.
        let (c, k) = (12usize, 3usize);
        let mean = mean_first_overlap(c, k, SourceStrategy::Scan, 4000, 2, 100_000);
        let floor = global_label_floor(c, k);
        assert!(
            (mean - floor).abs() / floor < 0.15,
            "scan mean {mean} should be ~{floor}"
        );
    }

    #[test]
    fn stay_usually_times_out() {
        let (c, k) = (10usize, 1usize);
        let samples = first_overlap_slots(c, k, SourceStrategy::Stay, 500, 3, 100);
        let timeouts = samples.iter().filter(|s| s.is_none()).count();
        // P(channel 0 is core) = k/c = 0.1, so ~90% of trials never hit.
        assert!(timeouts > 350, "only {timeouts}/500 timed out");
    }

    #[test]
    fn all_strategies_hit_immediately_when_k_equals_c() {
        for strategy in SourceStrategy::ALL {
            let samples = first_overlap_slots(5, 5, strategy, 50, 4, 10);
            assert!(samples.iter().all(|&s| s == Some(1)), "{}", strategy.name());
        }
    }

    #[test]
    fn floor_scales_with_c_over_k() {
        let m_small = mean_first_overlap(8, 4, SourceStrategy::Scan, 2000, 5, 1000);
        let m_large = mean_first_overlap(32, 4, SourceStrategy::Scan, 2000, 6, 1000);
        assert!(
            m_large > m_small * 2.0,
            "4x c should raise the floor clearly: {m_small} vs {m_large}"
        );
    }
}
