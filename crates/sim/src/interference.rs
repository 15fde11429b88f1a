//! External interference (jamming) as a medium layer.
//!
//! The base model has no adversary; Theorem 18 of the paper relates
//! broadcast in cognitive radio networks to broadcast against an
//! *n-uniform jamming adversary* in a multi-channel network. The
//! adversary is one more thing that decides a slot's outcome, so it
//! lives in the medium layer: [`Jammed`] wraps any [`Medium`] and asks
//! the [`Interference`] model, per tuned `(node, channel)`, whether the
//! channel is jammed *for that node*. A jammed broadcaster's
//! transmission is destroyed and a jammed listener hears only noise
//! (both observe [`crate::Event::Jammed`]); everyone else is resolved
//! by the inner medium as if the jammed nodes had slept.

use crate::ids::{GlobalChannel, NodeId};
use crate::medium::{Medium, MediumProfile, SlotInputs};
use crate::proto::Event;
use crate::rng::{derive_rng, streams, SimRng};
use crate::trace::SlotActivity;

/// A node's committed tuning for the current slot, as visible to an
/// *adaptive* adversary just before resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Intent {
    /// The tuned node.
    pub node: NodeId,
    /// The physical channel it tuned to.
    pub channel: GlobalChannel,
    /// True if it is transmitting (false: listening).
    pub broadcast: bool,
}

/// A per-slot, per-node interference decision.
///
/// Implementations live in the `crn-jamming` crate; the simulator only
/// defines the interface and the [`Jammed`] medium that applies it.
///
/// The default adversary is *oblivious*: it sees only the slot number.
/// Overriding [`Interference::observe_intents`] yields an *adaptive*
/// adversary that sees every node's committed channel choice before
/// deciding what to jam — the strongest model, used to exhibit the
/// Theorem 17 impossibility intuition (an adaptive channel adversary
/// can starve communication indefinitely).
pub trait Interference {
    /// Advances the adversary to `slot` (e.g. drawing this slot's jam
    /// sets). Called once per slot before any `is_jammed` query.
    fn advance(&mut self, slot: u64, rng: &mut SimRng);

    /// Adaptive hook: called after every node has committed its action
    /// for `slot` (and after [`Interference::advance`]), before any
    /// `is_jammed` query. Default: ignore (oblivious adversary).
    fn observe_intents(&mut self, slot: u64, intents: &[Intent]) {
        let _ = (slot, intents);
    }

    /// Whether `channel` is jammed for `node` in the current slot.
    fn is_jammed(&self, node: NodeId, channel: GlobalChannel) -> bool;

    /// The adversary's declared per-node, per-slot jam budget, if it
    /// commits to one: at most this many of each node's channels are
    /// jammed in any slot (Theorem 18's `k`). `None` (the default)
    /// means unbudgeted — the conformance validator then skips the
    /// budget and effective-overlap clauses for this adversary.
    fn jam_budget(&self) -> Option<usize> {
        None
    }
}

/// A medium subject to an [`Interference`] model.
///
/// Each slot it advances the adversary on the dedicated `JAMMER` RNG
/// stream, shows it every tuned node's committed intent (ascending
/// node order), marks the jammed nodes [`Event::Jammed`] and counts
/// them in [`SlotActivity::jammed`], and hands the unjammed remainder
/// to the inner medium. The jammer never touches the inner medium's
/// stream, so wrapping a medium leaves its draws unchanged.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::full_overlap;
/// use crn_sim::channel_model::StaticChannels;
/// use crn_sim::interference::{Interference, Jammed};
/// use crn_sim::rng::SimRng;
/// use crn_sim::{Action, Event, GlobalChannel, LocalChannel, Network, NodeCtx, NodeId};
/// use crn_sim::{OracleSingleHop, Protocol};
///
/// /// Jams every channel for node 1.
/// struct JamNodeOne;
/// impl Interference for JamNodeOne {
///     fn advance(&mut self, _slot: u64, _rng: &mut SimRng) {}
///     fn is_jammed(&self, node: NodeId, _channel: GlobalChannel) -> bool {
///         node == NodeId(1)
///     }
/// }
///
/// struct Listen(Vec<Event<u8>>);
/// impl Protocol<u8> for Listen {
///     fn decide(&mut self, _: &NodeCtx<'_>, _: &mut SimRng) -> Action<u8> {
///         Action::Listen(LocalChannel(0))
///     }
///     fn observe(&mut self, _: &NodeCtx<'_>, event: Event<u8>) {
///         self.0.push(event);
///     }
/// }
///
/// let model = StaticChannels::global(full_overlap(2, 1)?);
/// let medium = Jammed::new(OracleSingleHop::new(), Box::new(JamNodeOne));
/// let protos = vec![Listen(vec![]), Listen(vec![])];
/// let mut net = Network::with_medium(model, protos, 3, medium)?;
/// assert_eq!(net.step().jammed, 1);
/// assert_eq!(net.protocols()[0].0, vec![Event::Silence]);
/// assert_eq!(net.protocols()[1].0, vec![Event::Jammed]);
/// # Ok::<(), crn_sim::SimError>(())
/// ```
#[allow(missing_debug_implementations)] // the interference model is a user type
pub struct Jammed<Med> {
    inner: Med,
    interference: Box<dyn Interference>,
    rng: SimRng,
    /// The slot's committed tunings, shown to the adversary.
    intents: Vec<Intent>,
    /// The unjammed remainder of the slot's tunings.
    tuned: Vec<(GlobalChannel, usize, bool)>,
}

impl<Med> Jammed<Med> {
    /// Subjects `inner` to `interference` (the `JAMMER` stream is
    /// re-derived when the network seeds the medium).
    pub fn new(inner: Med, interference: Box<dyn Interference>) -> Self {
        Jammed {
            inner,
            interference,
            rng: derive_rng(0, streams::JAMMER),
            intents: Vec::new(),
            tuned: Vec::new(),
        }
    }

    /// The wrapped medium (e.g. to read [`crate::PhysicalDecay`]'s
    /// round counters).
    pub fn inner(&self) -> &Med {
        &self.inner
    }

    /// Consumes the wrapper and returns the wrapped medium.
    pub fn into_inner(self) -> Med {
        self.inner
    }
}

impl<M: Clone, Med: Medium<M>> Medium<M> for Jammed<Med> {
    fn reseed(&mut self, master: u64) {
        self.inner.reseed(master);
        self.rng = derive_rng(master, streams::JAMMER);
    }

    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    ) {
        self.interference.advance(inputs.slot, &mut self.rng);
        self.intents.clear();
        self.intents.extend(
            inputs
                .tuned
                .iter()
                .map(|&(channel, node, broadcast)| Intent {
                    node: NodeId(node as u32),
                    channel,
                    broadcast,
                }),
        );
        self.interference
            .observe_intents(inputs.slot, &self.intents);
        self.tuned.clear();
        for &(channel, node, broadcast) in inputs.tuned {
            if self.interference.is_jammed(NodeId(node as u32), channel) {
                events[node] = Some(Event::Jammed);
                activity.jammed += 1;
            } else {
                self.tuned.push((channel, node, broadcast));
            }
        }
        self.inner.resolve(
            &SlotInputs {
                slot: inputs.slot,
                n: inputs.n,
                total_channels: inputs.total_channels,
                actions: inputs.actions,
                tuned: &self.tuned,
                records: inputs.records,
            },
            events,
            activity,
        );
    }

    fn profile(&self) -> MediumProfile {
        self.inner.profile()
    }

    fn node_count(&self) -> Option<usize> {
        self.inner.node_count()
    }

    fn interference(&self) -> Option<&dyn Interference> {
        Some(self.interference.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::full_overlap;
    use crate::channel_model::StaticChannels;
    use crate::ids::LocalChannel;
    use crate::medium::OracleSingleHop;
    use crate::proto::{Action, NodeCtx, Protocol};
    use crate::Network;

    /// Test protocol: one fixed action every slot; records all events.
    struct Fixed {
        action: Action<u32>,
        events: Vec<Event<u32>>,
    }

    impl Protocol<u32> for Fixed {
        fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u32> {
            self.action.clone()
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u32>) {
            self.events.push(event);
        }
    }

    fn fixed(action: Action<u32>) -> Fixed {
        Fixed {
            action,
            events: Vec::new(),
        }
    }

    #[test]
    fn jammed_participants_observe_jammed_and_leave_the_slot() {
        /// Jams global channel 0 for node 1 only.
        struct JamOneForOne;
        impl Interference for JamOneForOne {
            fn advance(&mut self, _slot: u64, _rng: &mut SimRng) {}
            fn is_jammed(&self, node: NodeId, channel: GlobalChannel) -> bool {
                node == NodeId(1) && channel == GlobalChannel(0)
            }
        }

        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 7)),
            fixed(Action::Listen(LocalChannel(0))),
            fixed(Action::Listen(LocalChannel(0))),
        ];
        let medium = Jammed::new(OracleSingleHop::new(), Box::new(JamOneForOne));
        let mut net = Network::with_medium(model, protos, 1, medium).unwrap();
        let activity = net.step().clone();
        assert_eq!(activity.jammed, 1);
        let p = net.into_protocols();
        assert_eq!(p[0].events, vec![Event::Delivered]);
        assert_eq!(
            p[1].events,
            vec![Event::Jammed],
            "jammed listener hears noise"
        );
        assert_eq!(
            p[2].events,
            vec![Event::Received {
                from: NodeId(0),
                msg: 7
            }],
            "unjammed listener still receives"
        );
        // The jammed node is excluded from the channel's listener list.
        let ch = activity.on_channel(GlobalChannel(0)).unwrap();
        assert_eq!(ch.listeners, vec![NodeId(2)]);

        // Adaptive hook sanity: intents carry the committed tunings.
        struct CaptureIntents(std::sync::Arc<std::sync::Mutex<Vec<Intent>>>);
        impl Interference for CaptureIntents {
            fn advance(&mut self, _slot: u64, _rng: &mut SimRng) {}
            fn observe_intents(&mut self, _slot: u64, intents: &[Intent]) {
                self.0.lock().unwrap().extend_from_slice(intents);
            }
            fn is_jammed(&self, _node: NodeId, _channel: GlobalChannel) -> bool {
                false
            }
        }
        let captured = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let model = StaticChannels::global(full_overlap(2, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 1)),
            fixed(Action::Listen(LocalChannel(0))),
        ];
        let medium = Jammed::new(
            OracleSingleHop::new(),
            Box::new(CaptureIntents(captured.clone())),
        );
        let mut net = Network::with_medium(model, protos, 2, medium).unwrap();
        net.step();
        let intents = captured.lock().unwrap().clone();
        assert_eq!(intents.len(), 2);
        assert!(intents[0].broadcast && !intents[1].broadcast);
        assert_eq!(intents[0].channel, GlobalChannel(0));
    }
}
