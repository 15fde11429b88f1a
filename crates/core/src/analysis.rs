//! The Section 4 analysis, executable: per-slot inform-probability
//! floors from Claims 1–3 and their empirical measurement.
//!
//! The proof of Theorem 4 rests on two stage-wise claims (for
//! `c ≤ n`):
//!
//! - **stage one** (≤ `c/2` informed): each informed node
//!   *independently informs* some uninformed node — same channel,
//!   no other informed node there — with probability `Ω(k/c)`
//!   (Claims 1–2);
//! - **stage two** (≥ `c/2` informed): each uninformed node becomes
//!   informed with probability `Ω(k/c)` (Claim 3).
//!
//! [`stage_floor`] gives those floors with the explicit constants the
//! proofs yield; [`measure_stage_one`] and [`measure_stage_two`]
//! estimate the corresponding empirical rates from engine traces, and
//! the tests check measurement ≥ floor. This pins the *analysis* (not
//! just the end-to-end theorem) to the implementation.

use crate::cogcast::CogCast;
use crn_sim::{ChannelModel, Network, SimError};
use serde::{Deserialize, Serialize};

/// The explicit stage floor `k/(4e·c)` for the `c ≤ n` case.
///
/// Derivation (Claims 1–2): the independent-inform probability is at
/// least `(1/c)·e^{-1}·Σ_i (1 − (1−1/c)^{min(z_i,c)})`, and the
/// channel-distribution argument lower-bounds the sum term by
/// `min{kc/4, (k/2+1)c}·(1−e^{-1})/c² ≥ k/(4c)·(1−e^{-1})`; folding
/// the constants conservatively gives `k/(4e·c)`.
///
/// # Examples
///
/// ```
/// use crn_core::analysis::stage_floor;
/// let f = stage_floor(16, 4);
/// assert!(f > 0.0 && f < 1.0);
/// assert!(stage_floor(16, 8) > f, "floor grows with k");
/// ```
pub fn stage_floor(c: usize, k: usize) -> f64 {
    k as f64 / (4.0 * std::f64::consts::E * c as f64)
}

/// An empirical stage-rate measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageRate {
    /// Number of (node, slot) opportunities observed.
    pub opportunities: u64,
    /// Number of successes among them.
    pub successes: u64,
}

impl StageRate {
    /// The empirical per-opportunity success rate.
    pub fn rate(&self) -> f64 {
        if self.opportunities == 0 {
            0.0
        } else {
            self.successes as f64 / self.opportunities as f64
        }
    }
}

/// Measures the stage-one *independent inform* rate: over all slots in
/// which at most `c/2` nodes are informed, the fraction of
/// (informed node, slot) pairs in which that node was the **only**
/// broadcaster on its channel and at least one uninformed node was
/// listening there.
///
/// Aggregates over `trials` seeded runs built by `make_model`.
///
/// # Errors
///
/// Propagates [`SimError`] from network construction.
pub fn measure_stage_one<CM: ChannelModel>(
    mut make_model: impl FnMut(u64) -> CM,
    trials: u64,
    budget: u64,
) -> Result<StageRate, SimError> {
    let mut opportunities = 0;
    let mut successes = 0;
    for seed in 0..trials {
        let model = make_model(seed);
        let n = model.n();
        let c = model.c();
        let mut protos = vec![CogCast::source(())];
        protos.extend((1..n).map(|_| CogCast::node()));
        let mut net = Network::new(model, protos, seed)?;
        for _ in 0..budget {
            let informed = net.protocols().iter().filter(|p| p.is_informed()).count();
            if informed * 2 > c || informed == n {
                break;
            }
            let activity = net.step().clone();
            opportunities += informed as u64;
            // Independent informs: channels with exactly one
            // broadcaster (all broadcasters are informed in COGCAST)
            // and at least one listener (all listeners are uninformed).
            successes += activity
                .channels
                .iter()
                .filter(|ch| ch.broadcasters.len() == 1 && !ch.listeners.is_empty())
                .count() as u64;
        }
    }
    Ok(StageRate {
        opportunities,
        successes,
    })
}

/// Measures the stage-two inform rate: over all slots in which at
/// least `c/2` nodes are informed (and not all), the fraction of
/// (uninformed node, slot) pairs in which the node became informed.
///
/// # Errors
///
/// Propagates [`SimError`] from network construction.
pub fn measure_stage_two<CM: ChannelModel>(
    mut make_model: impl FnMut(u64) -> CM,
    trials: u64,
    budget: u64,
) -> Result<StageRate, SimError> {
    let mut opportunities = 0;
    let mut successes = 0;
    for seed in 0..trials {
        let model = make_model(seed);
        let n = model.n();
        let c = model.c();
        let mut protos = vec![CogCast::source(())];
        protos.extend((1..n).map(|_| CogCast::node()));
        let mut net = Network::new(model, protos, seed)?;
        for _ in 0..budget {
            let informed = net.protocols().iter().filter(|p| p.is_informed()).count();
            if informed == n {
                break;
            }
            let in_stage_two = informed * 2 >= c;
            net.step_unrecorded();
            let now = net.protocols().iter().filter(|p| p.is_informed()).count();
            if in_stage_two {
                opportunities += (n - informed) as u64;
                successes += (now - informed) as u64;
            }
        }
    }
    Ok(StageRate {
        opportunities,
        successes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::assignment::shared_core;
    use crn_sim::channel_model::StaticChannels;

    #[test]
    fn floor_scales_with_k_over_c() {
        assert!((stage_floor(16, 4) / stage_floor(32, 4) - 2.0).abs() < 1e-9);
        assert!((stage_floor(16, 8) / stage_floor(16, 4) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stage_one_rate_meets_the_claim_floor() {
        // c <= n as the claims require.
        let (n, c, k) = (64usize, 16usize, 4usize);
        let rate = measure_stage_one(
            |seed| StaticChannels::local(shared_core(n, c, k).unwrap(), seed),
            60,
            10_000,
        )
        .unwrap();
        assert!(rate.opportunities > 100, "not enough stage-one data");
        assert!(
            rate.rate() >= stage_floor(c, k),
            "stage one: measured {} < floor {}",
            rate.rate(),
            stage_floor(c, k)
        );
    }

    #[test]
    fn stage_two_rate_meets_the_claim_floor() {
        let (n, c, k) = (64usize, 16usize, 4usize);
        let rate = measure_stage_two(
            |seed| StaticChannels::local(shared_core(n, c, k).unwrap(), seed),
            40,
            10_000,
        )
        .unwrap();
        assert!(rate.opportunities > 100, "not enough stage-two data");
        assert!(
            rate.rate() >= stage_floor(c, k),
            "stage two: measured {} < floor {}",
            rate.rate(),
            stage_floor(c, k)
        );
    }

    #[test]
    fn rates_improve_with_k() {
        let (n, c) = (48usize, 12usize);
        let rate_at = |k: usize| {
            measure_stage_one(
                |seed| StaticChannels::local(shared_core(n, c, k).unwrap(), seed),
                40,
                10_000,
            )
            .unwrap()
            .rate()
        };
        let r1 = rate_at(1);
        let r6 = rate_at(6);
        assert!(
            r6 > r1,
            "more overlap must mean faster informs: {r1} vs {r6}"
        );
    }

    #[test]
    fn empty_measurement_rate_is_zero() {
        let r = StageRate {
            opportunities: 0,
            successes: 0,
        };
        assert_eq!(r.rate(), 0.0);
    }
}
