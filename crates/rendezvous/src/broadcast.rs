//! The rendezvous-based local-broadcast baseline.
//!
//! The "straightforward solution" from the paper's introduction: every
//! node runs randomized rendezvous with the source — the source
//! transmits its message on a uniformly random channel every slot, and
//! each uninformed node listens on a uniformly random channel until it
//! hears the message. Informed non-source nodes go quiet: unlike
//! COGCAST there is **no epidemic relay**, which is exactly why this
//! baseline needs `O((c²/k)·lg n)` slots instead of COGCAST's
//! `O((c/k)·max{1, c/n}·lg n)`.

use crn_sim::rng::SimRng;
use crn_sim::{Action, ChannelModel, Event, LocalChannel, Network, NodeCtx, Protocol, SimError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A node of the rendezvous-broadcast baseline.
#[derive(Debug, Clone)]
pub struct RendezvousBroadcast<M> {
    message: Option<M>,
    is_source: bool,
}

impl<M: Clone> RendezvousBroadcast<M> {
    /// The source, which transmits `message` every slot.
    pub fn source(message: M) -> Self {
        RendezvousBroadcast {
            message: Some(message),
            is_source: true,
        }
    }

    /// An initially-uninformed receiver.
    pub fn node() -> Self {
        RendezvousBroadcast {
            message: None,
            is_source: false,
        }
    }

    /// True once this node knows the message.
    pub fn is_informed(&self) -> bool {
        self.message.is_some()
    }

    /// The message, if known.
    pub fn message(&self) -> Option<&M> {
        self.message.as_ref()
    }
}

impl<M: Clone + std::fmt::Debug> Protocol<M> for RendezvousBroadcast<M> {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<M> {
        let ch = LocalChannel(rng.gen_range(0..ctx.c as u32));
        if self.is_source {
            Action::Broadcast(ch, self.message.clone().expect("source always informed"))
        } else if self.message.is_none() {
            Action::Listen(ch)
        } else {
            // Informed, but this baseline never relays.
            Action::Sleep
        }
    }

    fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<M>) {
        if let Event::Received { msg, .. } = event {
            if self.message.is_none() {
                self.message = Some(msg);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.is_informed()
    }
}

/// Statistics of one baseline-broadcast run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineBroadcastRun {
    /// Slots until everyone was informed, or `None` on timeout.
    pub slots: Option<u64>,
    /// The slot budget allowed.
    pub budget: u64,
    /// Informed count after each slot.
    pub informed_per_slot: Vec<usize>,
}

impl BaselineBroadcastRun {
    /// True if broadcast completed within the budget.
    pub fn completed(&self) -> bool {
        self.slots.is_some()
    }
}

/// Runs the rendezvous-broadcast baseline (node 0 is the source).
///
/// # Errors
///
/// Propagates [`SimError`] from network construction.
///
/// # Examples
///
/// ```
/// use crn_rendezvous::broadcast::run_baseline_broadcast;
/// use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
///
/// let model = StaticChannels::local(shared_core(8, 3, 2)?, 2);
/// let run = run_baseline_broadcast(model, 2, 100_000)?;
/// assert!(run.completed());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_baseline_broadcast<CM: ChannelModel>(
    model: CM,
    seed: u64,
    budget: u64,
) -> Result<BaselineBroadcastRun, SimError> {
    let n = model.n();
    let mut protos = Vec::with_capacity(n);
    protos.push(RendezvousBroadcast::source(()));
    protos.extend((1..n).map(|_| RendezvousBroadcast::node()));
    let mut net = Network::new(model, protos, seed)?;

    let mut informed_per_slot = Vec::new();
    let mut slots = None;
    for s in 0..budget {
        net.step_unrecorded();
        let informed = net.protocols().iter().filter(|p| p.is_informed()).count();
        informed_per_slot.push(informed);
        if informed == n {
            slots = Some(s + 1);
            break;
        }
    }
    Ok(BaselineBroadcastRun {
        slots,
        budget,
        informed_per_slot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::cogcast::run_broadcast;
    use crn_sim::assignment::{full_overlap, shared_core};
    use crn_sim::channel_model::StaticChannels;

    #[test]
    fn completes_on_single_channel() {
        let model = StaticChannels::local(full_overlap(6, 1).unwrap(), 0);
        let run = run_baseline_broadcast(model, 0, 100).unwrap();
        assert_eq!(run.slots, Some(1), "one channel informs everyone at once");
    }

    #[test]
    fn completes_with_partial_overlap() {
        for seed in 0..5 {
            let model = StaticChannels::local(shared_core(10, 4, 2).unwrap(), seed);
            let run = run_baseline_broadcast(model, seed, 100_000).unwrap();
            assert!(run.completed(), "seed {seed}");
        }
    }

    #[test]
    fn informed_curve_is_monotone() {
        let model = StaticChannels::local(shared_core(12, 4, 2).unwrap(), 3);
        let run = run_baseline_broadcast(model, 3, 100_000).unwrap();
        for w in run.informed_per_slot.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn cogcast_beats_baseline_for_large_c() {
        // The paper's headline: epidemic spread wins by roughly a factor
        // of c once n is large enough. Compare mean completion times.
        let (n, c, k) = (48, 12, 2);
        let trials = 8;
        let mut base_total = 0u64;
        let mut cog_total = 0u64;
        for seed in 0..trials {
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
            let base = run_baseline_broadcast(model, seed, 5_000_000).unwrap();
            base_total += base.slots.expect("baseline must finish");
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed + 1000);
            let cog = run_broadcast(model, seed + 1000, 5_000_000).unwrap();
            cog_total += cog.slots.expect("cogcast must finish");
        }
        assert!(
            base_total > cog_total * 2,
            "baseline {base_total} should lose clearly to COGCAST {cog_total}"
        );
    }
}
