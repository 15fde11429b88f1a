//! The multi-hop slot engine.
//!
//! Since the medium refactor this is a thin wrapper over the unified
//! [`crn_sim::Network`] driving the [`OracleMultihop`] medium: a
//! transmission on channel `q` reaches only *neighbors* tuned to `q`,
//! and collision resolution is receiver-centric — for each listener,
//! one of its transmitting neighbors on the channel (uniformly random,
//! independent per listener) gets through, the natural multi-hop
//! reading of the paper's backoff abstraction. Transmitter-side
//! feedback does not survive the generalization (a node cannot know
//! which of its neighbors heard it), so transmitters always observe
//! [`Event::Delivered`]; COGCAST never uses the feedback, so it runs
//! unmodified.
//!
//! [`Event::Delivered`]: crn_sim::Event::Delivered
//!
//! Protocols, actions, events and channel models are shared with
//! [`crn_sim`] — any single-hop protocol written against
//! [`crn_sim::Protocol`] runs here as-is, and on a complete topology
//! the medium delegates to the single-hop oracle, reproducing its
//! traces exactly.

use crate::topology::Topology;
use crn_sim::medium::OracleMultihop;
use crn_sim::{ChannelModel, Network, Protocol, SimError};

/// A simulated multi-hop cognitive radio network.
///
/// # Examples
///
/// ```
/// use crn_core::cogcast::CogCast;
/// use crn_multihop::{MultihopNetwork, Topology};
/// use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
///
/// let n = 6;
/// let topo = Topology::line(n);
/// let model = StaticChannels::local(shared_core(n, 4, 2)?, 3);
/// let mut protos = vec![CogCast::source(())];
/// protos.extend((1..n).map(|_| CogCast::node()));
/// let mut net = MultihopNetwork::new(topo, model, protos, 3)?;
/// let done = net.run(100_000, |net| net.protocols().iter().all(|p| p.is_informed()));
/// assert!(done.is_some());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
#[allow(missing_debug_implementations)] // protocols are user types
pub struct MultihopNetwork<M, P, CM> {
    inner: Network<M, P, CM, OracleMultihop>,
}

impl<M, P, CM> MultihopNetwork<M, P, CM>
where
    M: Clone,
    P: Protocol<M>,
    CM: ChannelModel,
{
    /// Creates the network.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProtocolCountMismatch`] if the topology,
    /// channel model and protocol count disagree on `n`.
    pub fn new(
        topology: Topology,
        model: CM,
        protocols: Vec<P>,
        seed: u64,
    ) -> Result<Self, SimError> {
        if topology.len() != model.n() {
            return Err(SimError::ProtocolCountMismatch {
                nodes: model.n(),
                protocols: protocols.len(),
            });
        }
        let inner = Network::with_medium(model, protocols, seed, OracleMultihop::new(topology))?;
        Ok(MultihopNetwork { inner })
    }

    /// The connectivity topology.
    pub fn topology(&self) -> &Topology {
        self.inner.medium().topology()
    }

    /// The channel model.
    pub fn model(&self) -> &CM {
        self.inner.model()
    }

    /// The protocol instances, indexed by node.
    pub fn protocols(&self) -> &[P] {
        self.inner.protocols()
    }

    /// Slots executed so far.
    pub fn slot(&self) -> u64 {
        self.inner.slot()
    }

    /// The underlying unified engine.
    pub fn network(&self) -> &Network<M, P, CM, OracleMultihop> {
        &self.inner
    }

    /// Executes one slot.
    ///
    /// # Panics
    ///
    /// Panics if a protocol selects a local channel `>= c`.
    pub fn step(&mut self) {
        self.inner.step();
    }

    /// Runs until `done` holds; returns the completing slot count, or
    /// `None` when the budget is exhausted. Steps with
    /// [`Network::step_unrecorded`], so the slots build no channel
    /// records.
    pub fn run(&mut self, budget: u64, mut done: impl FnMut(&Self) -> bool) -> Option<u64> {
        for _ in 0..budget {
            self.inner.step_unrecorded();
            if done(self) {
                return Some(self.inner.slot());
            }
        }
        None
    }

    /// Consumes the network and returns its protocols.
    pub fn into_protocols(self) -> Vec<P> {
        self.inner.into_protocols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::assignment::full_overlap;
    use crn_sim::channel_model::StaticChannels;
    use crn_sim::rng::SimRng;
    use crn_sim::{Action, Event, LocalChannel, NodeCtx, NodeId};

    struct Fixed {
        action: Action<u8>,
        heard: Vec<Event<u8>>,
    }

    impl Protocol<u8> for Fixed {
        fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u8> {
            self.action.clone()
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u8>) {
            self.heard.push(event);
        }
    }

    fn fixed(action: Action<u8>) -> Fixed {
        Fixed {
            action,
            heard: Vec::new(),
        }
    }

    #[test]
    fn delivery_respects_the_topology() {
        // Line 0-1-2: node 0 broadcasts; node 1 hears, node 2 does not.
        let topo = Topology::line(3);
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 9)),
            fixed(Action::Listen(LocalChannel(0))),
            fixed(Action::Listen(LocalChannel(0))),
        ];
        let mut net = MultihopNetwork::new(topo, model, protos, 1).unwrap();
        net.step();
        let p = net.into_protocols();
        assert_eq!(
            p[1].heard,
            vec![Event::Received {
                from: NodeId(0),
                msg: 9
            }]
        );
        assert_eq!(p[2].heard, vec![Event::Silence]);
    }

    #[test]
    fn per_receiver_winners_are_independent() {
        // Star-ish: 1 and 2 both broadcast; 0 neighbors both; over many
        // slots node 0 hears each roughly half the time.
        let topo = Topology::from_edges(3, &[(0, 1), (0, 2)]);
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            fixed(Action::Listen(LocalChannel(0))),
            fixed(Action::Broadcast(LocalChannel(0), 1)),
            fixed(Action::Broadcast(LocalChannel(0), 2)),
        ];
        let mut net = MultihopNetwork::new(topo, model, protos, 5).unwrap();
        for _ in 0..2000 {
            net.step();
        }
        let p = net.into_protocols();
        let from1 = p[0]
            .heard
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Received {
                        from: NodeId(1),
                        ..
                    }
                )
            })
            .count();
        assert!(
            (700..=1300).contains(&from1),
            "receiver-side winner skewed: {from1}/2000"
        );
    }

    #[test]
    fn different_channels_do_not_mix() {
        let topo = Topology::complete(2);
        let model = StaticChannels::global(full_overlap(2, 2).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 3)),
            fixed(Action::Listen(LocalChannel(1))),
        ];
        let mut net = MultihopNetwork::new(topo, model, protos, 2).unwrap();
        net.step();
        assert_eq!(net.into_protocols()[1].heard, vec![Event::Silence]);
    }

    #[test]
    fn count_mismatch_rejected() {
        let topo = Topology::line(3);
        let model = StaticChannels::global(full_overlap(2, 1).unwrap());
        let protos = vec![fixed(Action::Sleep), fixed(Action::Sleep)];
        assert!(MultihopNetwork::new(topo, model, protos, 0).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| -> Vec<Event<u8>> {
            let topo = Topology::from_edges(3, &[(0, 1), (0, 2)]);
            let model = StaticChannels::global(full_overlap(3, 1).unwrap());
            let protos = vec![
                fixed(Action::Listen(LocalChannel(0))),
                fixed(Action::Broadcast(LocalChannel(0), 1)),
                fixed(Action::Broadcast(LocalChannel(0), 2)),
            ];
            let mut net = MultihopNetwork::new(topo, model, protos, seed).unwrap();
            for _ in 0..32 {
                net.step();
            }
            net.into_protocols().remove(0).heard
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn conformance_holds_on_incomplete_topology() {
        // The unified engine's conformance hook applies the multihop
        // profile: winner-less contended channels are legal here.
        let topo = Topology::line(3);
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 9)),
            fixed(Action::Listen(LocalChannel(0))),
            fixed(Action::Listen(LocalChannel(0))),
        ];
        let mut net = MultihopNetwork::new(topo, model, protos, 1).unwrap();
        net.step();
        assert_eq!(net.network().check_conformance(), vec![]);
    }
}
