//! Seed exchange: rendezvous once, then meet every slot.
//!
//! The paper's footnote 1 notes that the classic argument for
//! deterministic rendezvous — "once a pair of nodes swap information,
//! they can calculate each other's schedule going forward" — works for
//! randomized algorithms too: *nodes can swap the seed for a
//! pseudorandom number generator*. This module implements that
//! protocol for a pair of nodes under global labels:
//!
//! 1. **Acquaintance** (2-slot steps): the initiator hops uniformly,
//!    broadcasting its channel set and seed; the responder hops
//!    uniformly, listening. When they meet, the responder answers on
//!    the same channel with its own set and seed.
//! 2. **Acquainted**: both sides now know both channel sets — hence
//!    the intersection — and share `seed_a ^ seed_b`; from then on
//!    both draw the same pseudorandom sequence over the shared
//!    channels and meet in **every** slot.

use crn_sim::rng::derive_rng;
use crn_sim::rng::SimRng;
use crn_sim::{
    Action, ChannelModel, Event, GlobalChannel, LocalChannel, Network, NodeCtx, OracleSingleHop,
    Protocol, SimError,
};

/// Messages of the acquaintance handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcqMsg {
    /// Initiator → responder: "here is my channel set and PRG seed".
    Hello {
        /// The initiator's PRG seed.
        seed: u64,
        /// The initiator's channels (global ids).
        channels: Vec<u32>,
    },
    /// Responder → initiator, on the meeting channel.
    HelloAck {
        /// The responder's PRG seed.
        seed: u64,
        /// The responder's channels (global ids).
        channels: Vec<u32>,
    },
    /// Post-acquaintance beacon on the shared schedule.
    Beacon,
}

/// Shared post-acquaintance state.
#[derive(Debug, Clone)]
struct SharedSchedule {
    intersection: Vec<GlobalChannel>,
    rng: SimRng,
    /// The channel drawn for the current slot (drawn once per slot).
    drawn_for: Option<(u64, GlobalChannel)>,
}

impl SharedSchedule {
    fn new(mine: &[u32], theirs: &[u32], seed: u64) -> Self {
        let mut intersection: Vec<GlobalChannel> = mine
            .iter()
            .filter(|c| theirs.contains(c))
            .map(|&c| GlobalChannel(c))
            .collect();
        intersection.sort_unstable();
        SharedSchedule {
            intersection,
            rng: derive_rng(seed, 0x5EED),
            drawn_for: None,
        }
    }

    fn channel_for(&mut self, slot: u64) -> GlobalChannel {
        if let Some((s, ch)) = self.drawn_for {
            if s == slot {
                return ch;
            }
        }
        let ch = self.intersection[self.rng.gen_range(0..self.intersection.len())];
        self.drawn_for = Some((slot, ch));
        ch
    }
}

/// A node of the seed-exchange rendezvous pair. Requires the
/// global-label model and exactly two nodes (an initiator and a
/// responder).
#[derive(Debug, Clone)]
pub struct Acquainted {
    initiator: bool,
    my_seed: u64,
    /// Channel used in the current slot (for the responder's ack).
    pending: LocalChannel,
    shared: Option<SharedSchedule>,
    /// Set when the responder must ack in the next (odd) slot.
    ack_due: Option<(LocalChannel, u64, Vec<u32>)>,
    meetings_after_acquaintance: u64,
    acquainted_at: Option<u64>,
}

impl Acquainted {
    /// The initiating side (transmits `Hello`).
    pub fn initiator(my_seed: u64) -> Self {
        Acquainted {
            initiator: true,
            my_seed,
            pending: LocalChannel(0),
            shared: None,
            ack_due: None,
            meetings_after_acquaintance: 0,
            acquainted_at: None,
        }
    }

    /// The responding side (listens, then acks).
    pub fn responder(my_seed: u64) -> Self {
        Acquainted {
            initiator: false,
            ..Acquainted::initiator(my_seed)
        }
    }

    /// True once the handshake completed on this side.
    pub fn is_acquainted(&self) -> bool {
        self.shared.is_some()
    }

    /// The slot in which this side completed the handshake.
    pub fn acquainted_at(&self) -> Option<u64> {
        self.acquainted_at
    }

    /// Post-acquaintance meetings observed (responder counts received
    /// beacons; initiator counts delivered ones).
    pub fn meetings_after_acquaintance(&self) -> u64 {
        self.meetings_after_acquaintance
    }

    fn my_channels(ctx: &NodeCtx<'_>) -> Vec<u32> {
        ctx.channels
            .expect("Acquainted requires the global-label model")
            .iter()
            .map(|g| g.0)
            .collect()
    }
}

impl Protocol<AcqMsg> for Acquainted {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<AcqMsg> {
        // Acquainted regime: both sides draw the same shared channel.
        if let Some(shared) = self.shared.as_mut() {
            let g = shared.channel_for(ctx.slot);
            let local = ctx
                .local_label_of(g)
                .expect("intersection channels are in both sets");
            return if self.initiator {
                Action::Broadcast(local, AcqMsg::Beacon)
            } else {
                Action::Listen(local)
            };
        }
        // Handshake regime: 2-slot steps.
        let meeting_slot = ctx.slot.is_multiple_of(2);
        if meeting_slot {
            self.pending = LocalChannel(rng.gen_range(0..ctx.c as u32));
            if self.initiator {
                Action::Broadcast(
                    self.pending,
                    AcqMsg::Hello {
                        seed: self.my_seed,
                        channels: Self::my_channels(ctx),
                    },
                )
            } else {
                Action::Listen(self.pending)
            }
        } else if self.initiator {
            // Wait for the ack on the channel just used.
            Action::Listen(self.pending)
        } else if let Some((ch, _seed, _channels)) = self.ack_due.clone() {
            Action::Broadcast(
                ch,
                AcqMsg::HelloAck {
                    seed: self.my_seed,
                    channels: Self::my_channels(ctx),
                },
            )
        } else {
            Action::Sleep
        }
    }

    fn observe(&mut self, ctx: &NodeCtx<'_>, event: Event<AcqMsg>) {
        if self.shared.is_some() {
            match event {
                Event::Received {
                    msg: AcqMsg::Beacon,
                    ..
                }
                | Event::Delivered => {
                    self.meetings_after_acquaintance += 1;
                }
                _ => {}
            }
            return;
        }
        match event {
            Event::Received {
                msg: AcqMsg::Hello { seed, channels },
                ..
            } if !self.initiator => {
                // Met the initiator: schedule the ack for the next
                // slot; the switch to the shared schedule happens once
                // the ack is out (its delivery is guaranteed — the
                // responder is the only odd-slot transmitter there).
                self.ack_due = Some((self.pending, seed, channels));
            }
            Event::Received {
                msg: AcqMsg::HelloAck { seed, channels },
                ..
            } if self.initiator => {
                self.shared = Some(SharedSchedule::new(
                    &Self::my_channels(ctx),
                    &channels,
                    self.my_seed ^ seed,
                ));
                self.acquainted_at = Some(ctx.slot);
            }
            Event::Delivered if !self.initiator && self.ack_due.is_some() => {
                let (_, seed, channels) = self.ack_due.take().expect("checked");
                self.shared = Some(SharedSchedule::new(
                    &Self::my_channels(ctx),
                    &channels,
                    seed ^ self.my_seed,
                ));
                self.acquainted_at = Some(ctx.slot);
            }
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        self.is_acquainted()
    }
}

/// The outcome of a seed-exchange run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcquaintedRun {
    /// Slot at which both sides were acquainted, or `None` on timeout.
    pub acquainted_slot: Option<u64>,
    /// Post-acquaintance slots observed.
    pub followup_slots: u64,
    /// Meetings during the follow-up window (should equal
    /// `followup_slots`: the pair meets every slot).
    pub followup_meetings: u64,
}

/// Runs the seed-exchange protocol on a two-node **global-label**
/// model; after acquaintance, runs `followup_slots` more slots and
/// counts meetings.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] unless the model has exactly
/// two nodes and global labels.
///
/// # Examples
///
/// ```
/// use crn_rendezvous::acquainted::run_acquainted;
/// use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
///
/// let model = StaticChannels::global(shared_core(2, 5, 2)?);
/// let run = run_acquainted(model, 3, 100_000, 50)?;
/// assert!(run.acquainted_slot.is_some());
/// assert_eq!(run.followup_meetings, 50, "acquainted nodes meet every slot");
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_acquainted<CM: ChannelModel>(
    model: CM,
    seed: u64,
    budget: u64,
    followup_slots: u64,
) -> Result<AcquaintedRun, SimError> {
    if model.n() != 2 {
        return Err(SimError::InvalidParams {
            reason: format!("seed exchange needs exactly 2 nodes, got {}", model.n()),
        });
    }
    if !model.labels_are_global() {
        return Err(SimError::InvalidParams {
            reason: "seed exchange requires the global-label model".into(),
        });
    }
    let protos = vec![
        Acquainted::initiator(seed.wrapping_mul(3) ^ 0xA),
        Acquainted::responder(seed.wrapping_mul(7) ^ 0xB),
    ];
    let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new())?;
    let outcome = net.run(budget, |n| n.all_done());
    let acquainted_slot = outcome.slots();
    let mut followup_meetings = 0;
    if acquainted_slot.is_some() {
        let before: u64 = net
            .protocols()
            .iter()
            .map(|p| p.meetings_after_acquaintance())
            .max()
            .unwrap_or(0);
        net.run_slots(followup_slots);
        let after: u64 = net
            .protocols()
            .iter()
            .map(|p| p.meetings_after_acquaintance())
            .max()
            .unwrap_or(0);
        followup_meetings = after - before;
    }
    Ok(AcquaintedRun {
        acquainted_slot,
        followup_slots,
        followup_meetings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::assignment::{full_overlap, shared_core};
    use crn_sim::channel_model::StaticChannels;

    #[test]
    fn handshake_completes_and_then_meets_every_slot() {
        for seed in 0..10 {
            let model = StaticChannels::global(shared_core(2, 6, 2).unwrap());
            let run = run_acquainted(model, seed, 1_000_000, 100).unwrap();
            assert!(run.acquainted_slot.is_some(), "seed {seed}");
            assert_eq!(
                run.followup_meetings, 100,
                "seed {seed}: acquainted pair must meet every slot"
            );
        }
    }

    #[test]
    fn works_with_full_overlap() {
        let model = StaticChannels::global(full_overlap(2, 4).unwrap());
        let run = run_acquainted(model, 1, 10_000, 25).unwrap();
        assert!(run.acquainted_slot.is_some());
        assert_eq!(run.followup_meetings, 25);
    }

    #[test]
    fn acquaintance_cost_tracks_rendezvous_cost() {
        // The handshake is ~2 rendezvous: its mean cost should scale
        // with c²/k like the plain randomized primitive.
        let mean = |c: usize, k: usize| -> f64 {
            let trials = 60;
            let mut total = 0u64;
            for seed in 0..trials {
                let model = StaticChannels::global(shared_core(2, c, k).unwrap());
                let run = run_acquainted(model, seed, 10_000_000, 0).unwrap();
                total += run.acquainted_slot.unwrap();
            }
            total as f64 / trials as f64
        };
        let small = mean(4, 2);
        let large = mean(8, 2);
        assert!(
            large > small * 1.8,
            "4x the c²/k should clearly cost more: {small} vs {large}"
        );
    }

    #[test]
    fn rejects_local_labels_and_wrong_n() {
        let model = StaticChannels::local(shared_core(2, 4, 2).unwrap(), 0);
        assert!(run_acquainted(model, 0, 10, 0).is_err());
        let model = StaticChannels::global(shared_core(3, 4, 2).unwrap());
        assert!(run_acquainted(model, 0, 10, 0).is_err());
    }
}
