//! The pairwise randomized-rendezvous primitive.
//!
//! Two nodes each hop to a uniformly random channel among their `c`
//! channels every slot; they *meet* in the first slot both land on a
//! shared channel. With an overlap of `k` channels the per-slot meeting
//! probability is at least `k/c²`, so the expected meeting time is
//! `O(c²/k)` — the baseline figure the paper's introduction quotes for
//! rendezvous-based protocols.

use crn_sim::rng::SimRng;
use crn_sim::{
    Action, ChannelModel, Event, LocalChannel, Network, NodeCtx, OracleSingleHop, Protocol,
    SimError,
};

/// A node running uniform random channel hopping. Node 0 beacons; node 1
/// listens; the pair has met once node 1 receives the beacon.
#[derive(Debug, Clone)]
pub struct RandomHop {
    beaconer: bool,
    met: bool,
}

impl RandomHop {
    /// The transmitting side of the pair.
    pub fn beaconer() -> Self {
        RandomHop {
            beaconer: true,
            met: false,
        }
    }

    /// The listening side of the pair.
    pub fn listener() -> Self {
        RandomHop {
            beaconer: false,
            met: false,
        }
    }

    /// True once the pair has met (observable on the listener).
    pub fn has_met(&self) -> bool {
        self.met
    }
}

impl Protocol<u8> for RandomHop {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<u8> {
        let ch = LocalChannel(rng.gen_range(0..ctx.c as u32));
        if self.beaconer {
            Action::Broadcast(ch, 1)
        } else {
            Action::Listen(ch)
        }
    }

    fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u8>) {
        if matches!(event, Event::Received { .. }) {
            self.met = true;
        }
    }

    fn is_done(&self) -> bool {
        self.beaconer || self.met
    }
}

/// Runs randomized rendezvous between the two nodes of `model` and
/// returns the number of slots until they meet (or `None` if the budget
/// runs out).
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if the model does not have
/// exactly two nodes.
///
/// # Examples
///
/// ```
/// use crn_rendezvous::pairwise::rendezvous_slots;
/// use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
///
/// let model = StaticChannels::local(shared_core(2, 4, 2)?, 3);
/// let slots = rendezvous_slots(model, 3, 10_000)?;
/// assert!(slots.is_some());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn rendezvous_slots<CM: ChannelModel>(
    model: CM,
    seed: u64,
    budget: u64,
) -> Result<Option<u64>, SimError> {
    if model.n() != 2 {
        return Err(SimError::InvalidParams {
            reason: format!(
                "pairwise rendezvous needs exactly 2 nodes, got {}",
                model.n()
            ),
        });
    }
    let protos = vec![RandomHop::beaconer(), RandomHop::listener()];
    let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new())?;
    Ok(net.run(budget, |n| n.all_done()).slots())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::assignment::{full_overlap, shared_core};
    use crn_sim::channel_model::StaticChannels;

    #[test]
    fn meets_immediately_on_single_channel() {
        let model = StaticChannels::local(full_overlap(2, 1).unwrap(), 0);
        assert_eq!(rendezvous_slots(model, 0, 10).unwrap(), Some(1));
    }

    #[test]
    fn meets_within_budget_with_partial_overlap() {
        for seed in 0..10 {
            let model = StaticChannels::local(shared_core(2, 6, 2).unwrap(), seed);
            let slots = rendezvous_slots(model, seed, 100_000).unwrap();
            assert!(slots.is_some(), "seed {seed}");
        }
    }

    #[test]
    fn mean_meeting_time_scales_like_c_squared_over_k() {
        // E[T] ≈ c²/k for the shared-core pattern (overlap exactly k).
        let mean = |c: usize, k: usize| -> f64 {
            let trials = 300;
            let mut total = 0u64;
            for seed in 0..trials {
                let model = StaticChannels::local(shared_core(2, c, k).unwrap(), seed);
                total += rendezvous_slots(model, seed, 1_000_000)
                    .unwrap()
                    .expect("must meet");
            }
            total as f64 / trials as f64
        };
        let t_8_2 = mean(8, 2); // c²/k = 32
        let t_4_2 = mean(4, 2); // c²/k = 8
        let ratio = t_8_2 / t_4_2;
        assert!(
            (2.0..8.0).contains(&ratio),
            "expected ~4x scaling, got {ratio} ({t_8_2} vs {t_4_2})"
        );
    }

    #[test]
    fn rejects_non_pair_models() {
        let model = StaticChannels::local(shared_core(3, 4, 2).unwrap(), 0);
        assert!(rendezvous_slots(model, 0, 10).is_err());
    }

    #[test]
    fn times_out_gracefully() {
        let model = StaticChannels::local(shared_core(2, 16, 1).unwrap(), 1);
        // With expected meeting time 256, one slot essentially never
        // suffices.
        let r = rendezvous_slots(model, 1, 1).unwrap();
        assert!(r.is_none() || r == Some(1));
    }
}
