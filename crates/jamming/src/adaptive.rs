//! Adaptive jamming and the Theorem 17 impossibility intuition.
//!
//! Theorem 17 states that under the *dynamic* model with `k < c`, no
//! algorithm can **guarantee** local broadcast in finite time: channel
//! availability can conspire against communication forever. The
//! adversarial mirror image in the jamming world makes that intuition
//! executable: an adversary that sees each node's committed channel
//! choice before resolution ([`crn_sim::Interference::observe_intents`])
//! can, with a budget of just **one** channel per node per slot, jam
//! every transmitter's channel at every listener — so no message is
//! ever delivered and broadcast stalls *indefinitely* ([`SilencerJammer`]).
//!
//! Contrast with Theorem 18's regime (oblivious jamming, `k < c/2`),
//! where unmodified COGCAST completes: see [`crate::theorem18`]. The
//! pair of results brackets exactly how much adversarial power the
//! model can absorb.

use crn_sim::rng::SimRng;
use crn_sim::{GlobalChannel, Intent, Interference, NodeId};
use std::collections::HashSet;

/// An adaptive adversary that silences all communication: for every
/// listener, it jams every channel that any node is transmitting on
/// this slot (subject to its per-node budget).
///
/// With budget ≥ the number of *distinct transmission channels* in a
/// slot it blocks all deliveries; in the worst case for the adversary
/// that is `min(n, c)` channels, but against COGCAST's early phase
/// (one informed transmitter) a budget of **1** already suffices to
/// stall the epidemic forever.
#[derive(Debug, Clone)]
pub struct SilencerJammer {
    /// Per-node, per-slot jam budget.
    budget: usize,
    /// The transmission channels observed this slot (jam targets),
    /// capped at `budget`.
    targets: Vec<GlobalChannel>,
    /// Nodes currently transmitting (they are left unjammed so their
    /// wasted transmissions keep burning slots).
    transmitters: HashSet<NodeId>,
}

impl SilencerJammer {
    /// Creates the adversary with the given per-node budget.
    pub fn new(budget: usize) -> Self {
        SilencerJammer {
            budget,
            targets: Vec::new(),
            transmitters: HashSet::new(),
        }
    }

    /// The configured per-node budget.
    pub fn budget(&self) -> usize {
        self.budget
    }
}

impl Interference for SilencerJammer {
    fn advance(&mut self, _slot: u64, _rng: &mut SimRng) {
        self.targets.clear();
        self.transmitters.clear();
    }

    fn observe_intents(&mut self, _slot: u64, intents: &[Intent]) {
        for intent in intents {
            if intent.broadcast {
                self.transmitters.insert(intent.node);
                if !self.targets.contains(&intent.channel) && self.targets.len() < self.budget {
                    self.targets.push(intent.channel);
                }
            }
        }
    }

    fn is_jammed(&self, node: NodeId, channel: GlobalChannel) -> bool {
        // Jam the transmission channels for every *listener*; leave the
        // transmitters themselves alone (their sends die for lack of
        // unjammed listeners anyway — and leaving them unjammed keeps
        // their feedback plausible).
        !self.transmitters.contains(&node) && self.targets.contains(&channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::cogcast::CogCast;
    use crn_sim::assignment::full_overlap;
    use crn_sim::channel_model::StaticChannels;
    use crn_sim::{Jammed, Network, OracleSingleHop};

    fn informed_after(slots: u64, budget: usize, n: usize, c: usize, seed: u64) -> usize {
        let model = StaticChannels::local(full_overlap(n, c).unwrap(), seed);
        let mut protos = vec![CogCast::source(())];
        protos.extend((1..n).map(|_| CogCast::node()));
        let mut net = Network::with_medium(
            model,
            protos,
            seed,
            Jammed::new(
                OracleSingleHop::new(),
                Box::new(SilencerJammer::new(budget)),
            ),
        )
        .unwrap();
        net.run_slots(slots);
        net.protocols().iter().filter(|p| p.is_informed()).count()
    }

    #[test]
    fn budget_one_stalls_the_epidemic_forever() {
        // Only the source transmits while nobody else is informed, so
        // one jammed channel per node per slot silences the network —
        // the Theorem 17 "conspiring availability" in jamming form.
        for seed in 0..3 {
            assert_eq!(informed_after(20_000, 1, 12, 8, seed), 1, "seed {seed}");
        }
    }

    #[test]
    fn zero_budget_is_harmless() {
        let informed = informed_after(10_000, 0, 12, 8, 1);
        assert_eq!(informed, 12, "no budget, no jamming");
    }

    #[test]
    fn oblivious_jammer_with_same_budget_cannot_stall() {
        // The contrast that makes Theorem 18 meaningful: an oblivious
        // random jammer with the same tiny budget barely slows COGCAST.
        use crate::{run_jammed_broadcast, JammerStrategy};
        let run = run_jammed_broadcast(12, 8, 1, JammerStrategy::Random, 1, 20.0).unwrap();
        assert!(run.completed(), "oblivious k=1 must not stall broadcast");
    }

    #[test]
    fn jams_only_listeners_on_target_channels() {
        let mut j = SilencerJammer::new(2);
        let mut rng = SimRng::seed_from_u64(0);
        j.advance(0, &mut rng);
        j.observe_intents(
            0,
            &[
                Intent {
                    node: NodeId(0),
                    channel: GlobalChannel(3),
                    broadcast: true,
                },
                Intent {
                    node: NodeId(1),
                    channel: GlobalChannel(3),
                    broadcast: false,
                },
            ],
        );
        assert!(j.is_jammed(NodeId(1), GlobalChannel(3)), "listener jammed");
        assert!(
            !j.is_jammed(NodeId(0), GlobalChannel(3)),
            "transmitter spared"
        );
        assert!(
            !j.is_jammed(NodeId(1), GlobalChannel(4)),
            "other channels clean"
        );
    }

    #[test]
    fn budget_caps_targets() {
        let mut j = SilencerJammer::new(1);
        let mut rng = SimRng::seed_from_u64(0);
        j.advance(0, &mut rng);
        j.observe_intents(
            0,
            &[
                Intent {
                    node: NodeId(0),
                    channel: GlobalChannel(1),
                    broadcast: true,
                },
                Intent {
                    node: NodeId(2),
                    channel: GlobalChannel(5),
                    broadcast: true,
                },
            ],
        );
        let jammed = [1u32, 5]
            .iter()
            .filter(|&&ch| j.is_jammed(NodeId(9), GlobalChannel(ch)))
            .count();
        assert_eq!(jammed, 1, "budget 1 jams exactly one channel");
    }
}
