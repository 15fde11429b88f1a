//! The "hop together" global-label algorithm from the paper's Section 6
//! discussion.
//!
//! With *global* channel labels, all nodes can scan the `C` channels in
//! the same predefined order (`g = slot mod C`): whenever the scan hits
//! a channel that everyone shares, the whole network meets there at
//! once. In the discussion's setup (`C = k + n(c−k)` shared-core,
//! `c = n²`, `k = c − 1`) this completes local broadcast in `O(C/k)` =
//! `O(1)` expected slots, while COGCAST needs `Θ((c²/(nk))·lg n)` —
//! proving the global-label lower bound of `Ω(c/k)` cannot be raised to
//! match COGCAST when `c ≫ n`. This algorithm is *impossible* under
//! local labels, which is the gap between Theorems 15 and 16.

use crn_sim::rng::SimRng;
use crn_sim::{Action, ChannelModel, Event, GlobalChannel, Network, NodeCtx, Protocol, SimError};

/// A node of the hop-together broadcast. Requires the global-label
/// model ([`crn_sim::StaticChannels::global`]); panics otherwise.
#[derive(Debug, Clone)]
pub struct HopTogether<M> {
    message: Option<M>,
    is_source: bool,
    total_channels: usize,
}

impl<M: Clone> HopTogether<M> {
    /// The source for a network of `total_channels` global channels.
    pub fn source(message: M, total_channels: usize) -> Self {
        HopTogether {
            message: Some(message),
            is_source: true,
            total_channels,
        }
    }

    /// An uninformed receiver for a network of `total_channels` global
    /// channels.
    pub fn node(total_channels: usize) -> Self {
        HopTogether {
            message: None,
            is_source: false,
            total_channels,
        }
    }

    /// True once this node knows the message.
    pub fn is_informed(&self) -> bool {
        self.message.is_some()
    }
}

impl<M: Clone + std::fmt::Debug> Protocol<M> for HopTogether<M> {
    fn decide(&mut self, ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<M> {
        let channels = ctx
            .channels
            .expect("HopTogether requires the global-label model");
        let scan = GlobalChannel((ctx.slot % self.total_channels as u64) as u32);
        let Some(local) = ctx.local_label_of(scan) else {
            // The scan is on a channel this node lacks; skip the slot.
            return Action::Sleep;
        };
        debug_assert!(channels.contains(&scan));
        if self.is_source {
            Action::Broadcast(local, self.message.clone().expect("source is informed"))
        } else if self.message.is_none() {
            Action::Listen(local)
        } else {
            // Informed nodes relay, epidemic-style, to finish faster.
            Action::Broadcast(local, self.message.clone().expect("checked above"))
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

/// Statistics of one hop-together run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopTogetherRun {
    /// Slots until everyone was informed, or `None` on timeout.
    pub slots: Option<u64>,
    /// The slot budget allowed.
    pub budget: u64,
}

/// Runs hop-together broadcast (node 0 the source) on a **global-label**
/// model.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if the model has local labels,
/// and propagates construction errors.
///
/// # Examples
///
/// ```
/// use crn_rendezvous::hop_together::run_hop_together;
/// use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
///
/// let model = StaticChannels::global(shared_core(4, 3, 2)?);
/// let run = run_hop_together(model, 1, 1_000)?;
/// assert!(run.slots.is_some());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_hop_together<CM: ChannelModel>(
    model: CM,
    seed: u64,
    budget: u64,
) -> Result<HopTogetherRun, SimError> {
    run_hop_together_on(model, seed, budget, crn_sim::OracleSingleHop::new()).map(|(run, _)| run)
}

/// Runs hop-together broadcast over an arbitrary [`crn_sim::Medium`] —
/// the collision oracle or the decay-backoff physical layer — and
/// returns the medium alongside the run so medium-side metadata (e.g.
/// [`crn_sim::PhysicalDecay::physical_rounds`]) can be read back.
///
/// The scan schedule is deterministic, so the only difference between
/// media is *which* concurrent broadcaster gets through — the algorithm
/// is unchanged.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if the model has local labels,
/// and propagates construction errors.
pub fn run_hop_together_on<CM, Med>(
    model: CM,
    seed: u64,
    budget: u64,
    medium: Med,
) -> Result<(HopTogetherRun, Med), SimError>
where
    CM: ChannelModel,
    Med: crn_sim::Medium<()>,
{
    if !model.labels_are_global() {
        return Err(SimError::InvalidParams {
            reason: "hop-together requires the global-label model".into(),
        });
    }
    let n = model.n();
    let total = model.total_channels();
    let mut protos = Vec::with_capacity(n);
    protos.push(HopTogether::source((), total));
    protos.extend((1..n).map(|_| HopTogether::node(total)));
    let mut net = Network::with_medium(model, protos, seed, medium)?;
    let slots = net.run(budget, |net| net.all_done()).slots();
    Ok((HopTogetherRun { slots, budget }, net.into_medium()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::assignment::{full_overlap, shared_core};
    use crn_sim::channel_model::StaticChannels;

    #[test]
    fn completes_in_at_most_c_over_k_scans() {
        // Shared-core: the first k scan positions are the core, so
        // broadcast completes within the first k slots of the scan —
        // in fact in slot 1, because channel 0 is shared.
        let model = StaticChannels::global(shared_core(6, 4, 2).unwrap());
        let run = run_hop_together(model, 0, 100).unwrap();
        assert_eq!(run.slots, Some(1));
    }

    #[test]
    fn completes_on_full_overlap() {
        let model = StaticChannels::global(full_overlap(5, 3).unwrap());
        let run = run_hop_together(model, 0, 10).unwrap();
        assert_eq!(run.slots, Some(1));
    }

    #[test]
    fn rejects_local_label_model() {
        let model = StaticChannels::local(shared_core(4, 3, 2).unwrap(), 1);
        assert!(run_hop_together(model, 1, 10).is_err());
    }

    #[test]
    fn discussion_example_is_constant_time() {
        // The Section 6 example: c = n², k = c − 1 (here scaled down:
        // n = 4, c = 16, k = 15). C = k + n(c−k) = 15 + 4 = 19;
        // expected completion O(C/k) = O(1) slots.
        let (n, c) = (4usize, 16usize);
        let k = c - 1;
        let model = StaticChannels::global(shared_core(n, c, k).unwrap());
        let run = run_hop_together(model, 3, 100).unwrap();
        assert!(run.slots.unwrap() <= 4, "got {:?}", run.slots);
    }
}
