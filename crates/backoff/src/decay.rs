//! The exponential-decay backoff protocol (footnote 4 of the paper).
//!
//! `m ≤ n_max` stations contend on a collision-as-silence channel. Time
//! is grouped into *epochs* of `⌈log₂ n_max⌉ + 1` rounds; in round `j`
//! of an epoch (0-based) every still-active station transmits with
//! probability `2^{-j}`. When the transmission probability passes near
//! `1/m`, exactly one station transmits with constant probability, so
//! each epoch succeeds with constant probability and `O(log n)` epochs —
//! `O(log² n)` rounds — suffice with high probability.
//!
//! On the first success all other stations *receive* the message and
//! abort; the transmitter is the only station that never heard anything,
//! which is how it learns it won. This exactly realizes the paper's
//! abstract collision model: one winner (uniform by symmetry), success
//! feedback for the winner, and the winning message delivered to
//! everyone else.
//!
//! The episode itself ([`crn_sim::medium::decay_episode`]) and its
//! epoch/budget arithmetic ([`epoch_len`], [`recommended_rounds`]) are
//! canonical in [`crn_sim::medium`] — the in-engine
//! [`crn_sim::medium::PhysicalDecay`] medium runs the same loop — and
//! this module adds the standalone, argument-checked entry point and
//! the F10 cost series.

use crn_sim::medium::decay_episode;
pub use crn_sim::medium::{epoch_len, recommended_rounds};
use crn_sim::{SimError, SimRng};

/// The result of resolving one contention episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionResult {
    /// The station whose message got through.
    pub winner: usize,
    /// Physical rounds consumed before the success.
    pub rounds: u64,
}

/// Runs decay backoff among `m` contenders until one succeeds, or
/// `max_rounds` pass.
///
/// Returns `Ok(None)` only if the round budget is exhausted (for sane
/// budgets like `8·epoch_len(n_max)²` this is vanishingly rare).
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `m == 0` or `m > n_max`.
///
/// # Examples
///
/// ```
/// use crn_backoff::decay::resolve_contention;
/// use crn_sim::SimRng;
/// use rand::SeedableRng;
/// let mut rng = SimRng::seed_from_u64(1);
/// let r = resolve_contention(5, 16, 10_000, &mut rng)?.unwrap();
/// assert!(r.winner < 5);
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn resolve_contention(
    m: usize,
    n_max: usize,
    max_rounds: u64,
    rng: &mut SimRng,
) -> Result<Option<ContentionResult>, SimError> {
    if m == 0 {
        return Err(SimError::InvalidParams {
            reason: "need at least one contender".into(),
        });
    }
    if m > n_max {
        return Err(SimError::InvalidParams {
            reason: format!("m = {m} exceeds the population bound n_max = {n_max}"),
        });
    }
    Ok(match decay_episode(m, epoch_len(n_max), max_rounds, rng) {
        (Some(winner), rounds) => Some(ContentionResult { winner, rounds }),
        (None, _) => None,
    })
}

/// Mean physical rounds per abstract slot for `m` contenders, over
/// `trials` seeded episodes of [`recommended_rounds`]`(n_max)` rounds
/// at most — the series behind experiment F10.
///
/// Returns `NaN` when no episode completes (including `m == 0`).
///
/// # Examples
///
/// ```
/// use crn_backoff::decay::mean_rounds_per_slot;
/// assert_eq!(mean_rounds_per_slot(1, 8, 10, 0), 1.0);
/// assert!(mean_rounds_per_slot(0, 8, 10, 0).is_nan());
/// ```
pub fn mean_rounds_per_slot(m: usize, n_max: usize, trials: usize, seed: u64) -> f64 {
    use rand::SeedableRng;
    let mut total = 0u64;
    let mut done = 0usize;
    for t in 0..trials {
        let mut rng = SimRng::seed_from_u64(seed.wrapping_add(t as u64));
        if let Ok(Some(r)) = resolve_contention(m, n_max, recommended_rounds(n_max), &mut rng) {
            total += r.rounds;
            done += 1;
        }
    }
    if done == 0 {
        f64::NAN
    } else {
        total as f64 / done as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn single_contender_wins_first_round() {
        let mut rng = SimRng::seed_from_u64(0);
        let r = resolve_contention(1, 1, 10, &mut rng).unwrap().unwrap();
        assert_eq!(r.winner, 0);
        assert_eq!(r.rounds, 1, "p = 1 in round 0 of every epoch");
    }

    #[test]
    fn always_resolves_within_recommended_budget() {
        for n_max in [2usize, 8, 32, 128] {
            for m in [1usize, 2, n_max / 2 + 1, n_max] {
                let mut failures = 0;
                for seed in 0..200 {
                    let mut rng = SimRng::seed_from_u64(seed);
                    if resolve_contention(m, n_max, recommended_rounds(n_max), &mut rng)
                        .unwrap()
                        .is_none()
                    {
                        failures += 1;
                    }
                }
                assert!(
                    failures <= 2,
                    "m={m}, n_max={n_max}: {failures}/200 budget misses"
                );
            }
        }
    }

    #[test]
    fn winner_distribution_is_roughly_uniform() {
        // By symmetry every contender should win ~equally often — this
        // is what justifies the abstract model's uniform winner pick.
        let m = 4;
        let trials = 4000;
        let mut wins = vec![0usize; m];
        for seed in 0..trials {
            let mut rng = SimRng::seed_from_u64(seed as u64);
            let r = resolve_contention(m, 16, 10_000, &mut rng)
                .unwrap()
                .unwrap();
            wins[r.winner] += 1;
        }
        let expect = trials / m;
        for (i, &w) in wins.iter().enumerate() {
            assert!(
                (w as f64) > expect as f64 * 0.85 && (w as f64) < expect as f64 * 1.15,
                "station {i} won {w} times, expected ~{expect}"
            );
        }
    }

    #[test]
    fn rounds_grow_slowly_with_population() {
        // Mean resolution rounds should scale like log², i.e. far
        // slower than linearly.
        let mean = |m: usize, n_max: usize| -> f64 {
            let trials = 300;
            let mut total = 0u64;
            for seed in 0..trials {
                let mut rng = SimRng::seed_from_u64(seed);
                total += resolve_contention(m, n_max, 1_000_000, &mut rng)
                    .unwrap()
                    .unwrap()
                    .rounds;
            }
            total as f64 / trials as f64
        };
        let t_small = mean(4, 4);
        let t_big = mean(256, 256);
        // 64x the contenders should cost far less than 64x the rounds.
        assert!(
            t_big < t_small * 16.0,
            "decay not polylogarithmic? {t_small} -> {t_big}"
        );
    }

    #[test]
    fn zero_contenders_rejected() {
        let mut rng = SimRng::seed_from_u64(0);
        let err = resolve_contention(0, 4, 10, &mut rng).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidParams { reason } if reason.contains("at least one contender")),
            "{err:?}"
        );
    }

    #[test]
    fn over_population_rejected() {
        let mut rng = SimRng::seed_from_u64(0);
        let err = resolve_contention(9, 4, 10, &mut rng).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidParams { reason } if reason.contains("exceeds the population bound")),
            "{err:?}"
        );
    }

    #[test]
    fn mean_rounds_stay_polylog() {
        let small = mean_rounds_per_slot(2, 256, 200, 1);
        let large = mean_rounds_per_slot(200, 256, 200, 2);
        assert!(small.is_finite() && large.is_finite());
        // 100x contenders, same n_max: both bounded by the same
        // O(log² n_max) budget, and the ratio should be small.
        assert!(large < small * 12.0, "small={small}, large={large}");
        assert!(large < 200.0, "rounds per slot implausibly high: {large}");
    }

    #[test]
    fn epoch_len_is_log2_plus_one() {
        assert_eq!(epoch_len(0), 1);
        assert_eq!(epoch_len(2), 2);
        assert_eq!(epoch_len(1024), 11);
    }
}
