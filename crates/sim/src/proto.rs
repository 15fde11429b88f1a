//! The protocol abstraction: what a node may do in a slot, and what it
//! observes afterwards.
//!
//! A protocol is a per-node state machine. In each synchronous slot the
//! engine asks it for an [`Action`] (broadcast, listen, or sleep — always
//! in terms of *local* channel labels), resolves contention according to
//! the paper's collision model, and reports the resulting [`Event`] back.

use crate::ids::{GlobalChannel, LocalChannel, NodeId};
use crate::rng::SimRng;

/// What a node chooses to do in one slot.
///
/// Channels are addressed by [`LocalChannel`] labels in `0..c`; protocols
/// in the local-label model never learn the global identity of a channel.
///
/// # Examples
///
/// ```
/// use crn_sim::{Action, LocalChannel};
/// let a: Action<&'static str> = Action::Broadcast(LocalChannel(2), "hello");
/// assert!(matches!(a, Action::Broadcast(ch, _) if ch == LocalChannel(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Transmit `M` on the given local channel.
    Broadcast(LocalChannel, M),
    /// Tune to the given local channel and listen.
    Listen(LocalChannel),
    /// Do nothing this slot (radio off).
    Sleep,
}

impl<M> Action<M> {
    /// Returns the local channel this action tunes to, if any.
    ///
    /// ```
    /// use crn_sim::{Action, LocalChannel};
    /// let a: Action<u8> = Action::Listen(LocalChannel(1));
    /// assert_eq!(a.channel(), Some(LocalChannel(1)));
    /// let s: Action<u8> = Action::Sleep;
    /// assert_eq!(s.channel(), None);
    /// ```
    pub fn channel(&self) -> Option<LocalChannel> {
        match self {
            Action::Broadcast(ch, _) | Action::Listen(ch) => Some(*ch),
            Action::Sleep => None,
        }
    }

    /// True if this action transmits.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Action::Broadcast(..))
    }
}

/// What a node observes at the end of a slot.
///
/// This encodes the paper's collision model exactly (Section 2): when
/// several nodes transmit on one channel, a uniformly random one of them
/// succeeds; every listener on the channel receives the winning message;
/// each broadcaster learns whether it succeeded, and the losers *also*
/// receive the winning message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// The node listened and received the winning message on its channel.
    Received {
        /// The node whose transmission succeeded.
        from: NodeId,
        /// The message that was delivered.
        msg: M,
    },
    /// The node listened and nobody (successfully) transmitted on its
    /// channel.
    Silence,
    /// The node transmitted and won the channel: its message was the one
    /// received by all listeners.
    Delivered,
    /// The node transmitted but lost the contention; per the model it
    /// overhears the winning message.
    Lost {
        /// The node whose transmission succeeded instead.
        winner: NodeId,
        /// The message that won the channel.
        msg: M,
    },
    /// The node's channel was jammed for it this slot (only produced when
    /// an interference model is installed; see the `crn-jamming` crate).
    /// A jammed broadcaster's transmission is destroyed; a jammed listener
    /// hears only noise.
    Jammed,
}

impl<M> Event<M> {
    /// True if the event carries a message payload.
    pub fn has_message(&self) -> bool {
        matches!(self, Event::Received { .. } | Event::Lost { .. })
    }
}

/// Read-only facts the engine exposes to a protocol each slot.
///
/// `channels` is `Some` only in the global-label model (the special case
/// where all nodes agree on channel names); local-label protocols must not
/// rely on it, and the engine omits it when labels are local.
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx<'a> {
    /// This node's identity.
    pub id: NodeId,
    /// The current slot, starting at 0.
    pub slot: u64,
    /// Total number of nodes in the network.
    pub n: usize,
    /// Number of channels available to this node.
    pub c: usize,
    /// The pairwise-overlap guarantee `k`.
    pub k: usize,
    /// In the global-label model: this node's channels, indexed by local
    /// label (i.e. `channels[l]` is the global identity of local label
    /// `l`). `None` in the local-label model.
    pub channels: Option<&'a [GlobalChannel]>,
}

impl<'a> NodeCtx<'a> {
    /// In the global-label model, returns the local label of global
    /// channel `g` if this node has it.
    ///
    /// Returns `None` when labels are local or the node lacks the channel.
    pub fn local_label_of(&self, g: GlobalChannel) -> Option<LocalChannel> {
        self.channels?
            .iter()
            .position(|&x| x == g)
            .map(|i| LocalChannel(i as u32))
    }
}

/// A per-node protocol state machine.
///
/// The engine drives each node by calling [`Protocol::decide`] at the
/// start of every slot and [`Protocol::observe`] at the end of it (except
/// for sleeping nodes, which observe nothing). The `rng` handed in is the
/// node's private, deterministic random stream.
///
/// # Examples
///
/// A protocol that always listens on channel 0:
///
/// ```
/// use crn_sim::{Action, Event, LocalChannel, NodeCtx, Protocol};
/// use crn_sim::rng::SimRng;
///
/// struct AlwaysListen;
/// impl Protocol<u8> for AlwaysListen {
///     fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u8> {
///         Action::Listen(LocalChannel(0))
///     }
///     fn observe(&mut self, _ctx: &NodeCtx<'_>, _event: Event<u8>) {}
/// }
/// ```
pub trait Protocol<M> {
    /// Chooses this node's action for the current slot.
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<M>;

    /// Reports the outcome of the slot to the node.
    fn observe(&mut self, ctx: &NodeCtx<'_>, event: Event<M>);

    /// True once this node has locally terminated. The engine keeps
    /// calling `decide` regardless (a terminated node should return
    /// [`Action::Sleep`]); this is a convenience for run-loop predicates.
    fn is_done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_channel_accessor() {
        let b: Action<u8> = Action::Broadcast(LocalChannel(3), 9);
        assert_eq!(b.channel(), Some(LocalChannel(3)));
        assert!(b.is_broadcast());
        let l: Action<u8> = Action::Listen(LocalChannel(1));
        assert!(!l.is_broadcast());
        assert_eq!(l.channel(), Some(LocalChannel(1)));
        assert_eq!(Action::<u8>::Sleep.channel(), None);
    }

    #[test]
    fn event_has_message() {
        assert!(Event::Received {
            from: NodeId(0),
            msg: 1u8
        }
        .has_message());
        assert!(Event::Lost {
            winner: NodeId(0),
            msg: 1u8
        }
        .has_message());
        assert!(!Event::<u8>::Silence.has_message());
        assert!(!Event::<u8>::Delivered.has_message());
        assert!(!Event::<u8>::Jammed.has_message());
    }

    #[test]
    fn ctx_local_label_of() {
        let chans = [GlobalChannel(10), GlobalChannel(4), GlobalChannel(7)];
        let ctx = NodeCtx {
            id: NodeId(0),
            slot: 0,
            n: 1,
            c: 3,
            k: 1,
            channels: Some(&chans),
        };
        assert_eq!(ctx.local_label_of(GlobalChannel(4)), Some(LocalChannel(1)));
        assert_eq!(ctx.local_label_of(GlobalChannel(99)), None);

        let local_ctx = NodeCtx {
            channels: None,
            ..ctx
        };
        assert_eq!(local_ctx.local_label_of(GlobalChannel(4)), None);
    }
}
