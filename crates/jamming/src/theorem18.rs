//! The Theorem 18 reduction in action: COGCAST under jamming.
//!
//! Theorem 18 maps a multi-channel network `N'` with an n-uniform
//! jammer disabling at most `k < c/2` channels per node per slot onto a
//! *dynamic* cognitive radio network `N` with per-slot pairwise overlap
//! at least `c − 2k`: a node's usable channel set in a slot is its
//! unjammed set (≥ `c − k` channels), and two nodes' usable sets
//! intersect in at least `c − 2k` channels. Since COGCAST solves
//! broadcast in dynamic networks without modification, it solves
//! broadcast in `N'` too — at the cost of the reduced effective
//! overlap, plus a constant factor `c/(c−k)` for slots wasted on
//! jammed picks.
//!
//! [`run_jammed_broadcast`] measures this: COGCAST (unchanged, uniform
//! hopping over all `c` channels) running in a fully-shared `c`-channel
//! network under each [`JammerStrategy`].

use crate::jammer::{JammerStrategy, UniformJammer};
use crn_core::bounds;
use crn_core::cogcast::CogCast;
use crn_sim::assignment::full_overlap;
use crn_sim::channel_model::StaticChannels;
use crn_sim::{Jammed, Network, OracleSingleHop, SimError};

/// Statistics of one jammed broadcast run.
#[derive(Debug, Clone, PartialEq)]
pub struct JammedRun {
    /// Slots until everyone was informed, or `None` on timeout.
    pub slots: Option<u64>,
    /// The slot budget allowed.
    pub budget: u64,
    /// Informed count after each slot.
    pub informed_per_slot: Vec<usize>,
}

impl JammedRun {
    /// True if broadcast completed within the budget.
    pub fn completed(&self) -> bool {
        self.slots.is_some()
    }
}

/// The slot budget the reduction predicts: the Theorem 4 budget at
/// effective overlap `c − 2k`, inflated by the `c/(c−k)` jammed-pick
/// factor (and never less than the unjammed budget).
///
/// # Panics
///
/// Panics unless `k < c/2` (the Theorem 18 regime).
pub fn jammed_budget(n: usize, c: usize, k: usize, alpha: f64) -> u64 {
    assert!(2 * k < c, "Theorem 18 needs k < c/2 (k = {k}, c = {c})");
    let effective = c - 2 * k;
    let base = bounds::cogcast_slots(n, c, effective.max(1), alpha);
    let waste = c as f64 / (c - k) as f64;
    (base as f64 * waste).ceil() as u64
}

/// Runs COGCAST (node 0 the source) in an `n`-node, `c`-channel
/// fully-shared network against an n-uniform jammer of budget `k`.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] unless `k < c/2` (the Theorem 18
/// regime), and propagates [`SimError`] from model or network
/// construction.
///
/// # Examples
///
/// ```
/// use crn_jamming::{run_jammed_broadcast, JammerStrategy};
/// let run = run_jammed_broadcast(10, 8, 2, JammerStrategy::Random, 5, 10.0)?;
/// assert!(run.completed());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_jammed_broadcast(
    n: usize,
    c: usize,
    k: usize,
    strategy: JammerStrategy,
    seed: u64,
    alpha: f64,
) -> Result<JammedRun, SimError> {
    if 2 * k >= c {
        return Err(SimError::InvalidParams {
            reason: format!("Theorem 18 needs k < c/2 (k = {k}, c = {c})"),
        });
    }
    let budget = jammed_budget(n, c, k, alpha);
    let model = StaticChannels::local(full_overlap(n, c)?, seed);
    let mut protos = Vec::with_capacity(n);
    protos.push(CogCast::source(()));
    protos.extend((1..n).map(|_| CogCast::node()));
    let jammer = UniformJammer::new(n, c, k, strategy);
    let mut net = Network::with_medium(
        model,
        protos,
        seed,
        Jammed::new(OracleSingleHop::new(), Box::new(jammer)),
    )?;

    let mut informed_per_slot = Vec::new();
    let mut slots = None;
    for s in 0..budget {
        net.step_unrecorded();
        // `CogCast::is_done` is `is_informed`.
        let informed = net.done_count();
        informed_per_slot.push(informed);
        if informed == n {
            slots = Some(s + 1);
            break;
        }
    }
    Ok(JammedRun {
        slots,
        budget,
        informed_per_slot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_under_every_strategy() {
        for strategy in JammerStrategy::ALL {
            for seed in 0..3 {
                let run = run_jammed_broadcast(12, 9, 3, strategy, seed, 12.0).unwrap();
                assert!(
                    run.completed(),
                    "{} seed {seed} missed budget {}",
                    strategy.name(),
                    run.budget
                );
            }
        }
    }

    #[test]
    fn unjammed_special_case_matches_plain_cogcast_budget() {
        // k = 0 means no interference at all.
        let run = run_jammed_broadcast(10, 6, 0, JammerStrategy::Random, 1, 10.0).unwrap();
        assert!(run.completed());
        assert_eq!(run.budget, bounds::cogcast_slots(10, 6, 6, 10.0));
    }

    #[test]
    fn heavier_jamming_slows_broadcast() {
        let mean = |k: usize| -> f64 {
            let trials = 12;
            let mut total = 0u64;
            for seed in 0..trials {
                let run =
                    run_jammed_broadcast(16, 12, k, JammerStrategy::Random, seed, 40.0).unwrap();
                total += run.slots.expect("must complete within the padded budget");
            }
            total as f64 / trials as f64
        };
        let light = mean(1);
        let heavy = mean(5);
        assert!(
            heavy > light,
            "k=5 ({heavy}) should be slower than k=1 ({light})"
        );
    }

    #[test]
    #[should_panic(expected = "k < c/2")]
    fn out_of_regime_rejected() {
        jammed_budget(4, 6, 3, 10.0);
    }

    #[test]
    fn out_of_regime_run_is_an_error() {
        let err = run_jammed_broadcast(4, 6, 3, JammerStrategy::Random, 1, 10.0).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidParams { reason } if reason.contains("k < c/2")),
            "{err:?}"
        );
    }

    #[test]
    fn informed_curve_monotone_under_jamming() {
        let run = run_jammed_broadcast(14, 8, 3, JammerStrategy::Sweep, 7, 20.0).unwrap();
        for w in run.informed_per_slot.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
