//! Per-slot activity records for analysis and debugging.
//!
//! The engine fills one [`SlotActivity`] per slot (reusing buffers); the
//! experiment harness and the tests use it to observe physical-layer
//! facts — which transmissions collided, who won, who was listening —
//! that protocols themselves (by design) cannot see.

use crate::ids::{GlobalChannel, NodeId};

/// What happened on a single global channel during one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelActivity {
    /// The physical channel.
    pub channel: GlobalChannel,
    /// Nodes that attempted a (non-jammed) transmission on the channel.
    pub broadcasters: Vec<NodeId>,
    /// The broadcaster whose message was delivered, if any transmitted.
    pub winner: Option<NodeId>,
    /// Nodes that were (non-jammed) listening on the channel.
    pub listeners: Vec<NodeId>,
}

impl ChannelActivity {
    /// True if at least two nodes contended on this channel.
    pub fn had_collision(&self) -> bool {
        self.broadcasters.len() >= 2
    }
}

/// Everything that happened in one slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotActivity {
    /// The slot number this record describes.
    pub slot: u64,
    /// Activity per channel that had at least one participant; channels
    /// with no tuned node are omitted.
    pub channels: Vec<ChannelActivity>,
    /// Number of nodes that slept this slot.
    pub sleepers: usize,
    /// Number of `(node, channel)` pairs suppressed by interference.
    pub jammed: usize,
}

impl SlotActivity {
    /// Total successful deliveries this slot (channels with a winner and
    /// at least one listener).
    pub fn deliveries(&self) -> usize {
        self.channels
            .iter()
            .filter(|c| c.winner.is_some() && !c.listeners.is_empty())
            .count()
    }

    /// Total transmissions attempted this slot.
    pub fn transmissions(&self) -> usize {
        self.channels.iter().map(|c| c.broadcasters.len()).sum()
    }

    /// Finds the activity record for `channel`, if it saw any traffic.
    pub fn on_channel(&self, channel: GlobalChannel) -> Option<&ChannelActivity> {
        self.channels.iter().find(|c| c.channel == channel)
    }
}

/// A streaming FNV-1a digest over full [`SlotActivity`] records.
///
/// Folds every field of every slot — channel ids, broadcaster sets,
/// winners, listener sets, sleeper and jam counts — into one `u64`, so a
/// single constant in a test pins the engine's complete observable
/// behavior for a fixed configuration. The golden-trace test in
/// `crn-core` uses this to turn any engine or RNG change into a
/// deliberate, reviewed digest update instead of silent drift.
///
/// # Examples
///
/// ```
/// use crn_sim::trace::{SlotActivity, TraceDigest};
/// let mut a = TraceDigest::new();
/// let mut b = TraceDigest::new();
/// a.record(&SlotActivity::default());
/// b.record(&SlotActivity::default());
/// assert_eq!(a.finish(), b.finish());
/// assert_ne!(a.finish(), TraceDigest::new().finish());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDigest {
    hash: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest::new()
    }
}

impl TraceDigest {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// An empty digest (FNV-1a offset basis).
    pub fn new() -> Self {
        TraceDigest {
            hash: Self::FNV_OFFSET,
        }
    }

    #[inline]
    fn mix(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.hash ^= byte as u64;
            self.hash = self.hash.wrapping_mul(Self::FNV_PRIME);
        }
    }

    /// Folds one slot's complete activity record into the digest.
    pub fn record(&mut self, activity: &SlotActivity) {
        self.mix(activity.slot);
        self.mix(activity.sleepers as u64);
        self.mix(activity.jammed as u64);
        self.mix(activity.channels.len() as u64);
        for ch in &activity.channels {
            self.mix(ch.channel.index() as u64);
            self.mix(ch.broadcasters.len() as u64);
            for b in &ch.broadcasters {
                self.mix(b.index() as u64);
            }
            // Distinguish "no winner" from "winner 0".
            self.mix(ch.winner.map_or(u64::MAX, |w| w.index() as u64));
            self.mix(ch.listeners.len() as u64);
            for l in &ch.listeners {
                self.mix(l.index() as u64);
            }
        }
    }

    /// The digest over everything recorded so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// An accumulating log of per-slot activity with physical-layer
/// statistics — the observability layer experiments use to explain
/// *why* a protocol was fast or slow.
///
/// # Examples
///
/// ```
/// use crn_sim::trace::{ChannelActivity, SlotActivity, TraceLog};
/// use crn_sim::{GlobalChannel, NodeId};
/// let mut log = TraceLog::new();
/// log.record(&SlotActivity {
///     slot: 0,
///     channels: vec![ChannelActivity {
///         channel: GlobalChannel(0),
///         broadcasters: vec![NodeId(0), NodeId(1)],
///         winner: Some(NodeId(0)),
///         listeners: vec![NodeId(2)],
///     }],
///     sleepers: 0,
///     jammed: 0,
/// });
/// assert_eq!(log.slots(), 1);
/// assert_eq!(log.total_transmissions(), 2);
/// assert_eq!(log.total_collisions(), 1);
/// assert_eq!(log.total_deliveries(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    slots: u64,
    transmissions: u64,
    collisions: u64,
    deliveries: u64,
    wasted_wins: u64,
    jammed: u64,
    busy_channel_slots: u64,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Folds one slot's activity into the log.
    pub fn record(&mut self, activity: &SlotActivity) {
        self.slots += 1;
        self.jammed += activity.jammed as u64;
        for ch in &activity.channels {
            if !ch.broadcasters.is_empty() || !ch.listeners.is_empty() {
                self.busy_channel_slots += 1;
            }
            self.transmissions += ch.broadcasters.len() as u64;
            if ch.had_collision() {
                self.collisions += 1;
            }
            if ch.winner.is_some() {
                if ch.listeners.is_empty() {
                    self.wasted_wins += 1;
                } else {
                    self.deliveries += 1;
                }
            }
        }
    }

    /// Number of slots recorded.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Total transmissions attempted.
    pub fn total_transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Channel-slots on which two or more transmissions contended.
    pub fn total_collisions(&self) -> u64 {
        self.collisions
    }

    /// Channel-slots on which a winning message reached ≥ 1 listener.
    pub fn total_deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Channel-slots on which a transmission won but nobody listened.
    pub fn total_wasted_wins(&self) -> u64 {
        self.wasted_wins
    }

    /// `(node, channel)` pairs suppressed by interference.
    pub fn total_jammed(&self) -> u64 {
        self.jammed
    }

    /// Fraction of busy channel-slots that had a contention collision.
    pub fn collision_rate(&self) -> f64 {
        if self.busy_channel_slots == 0 {
            0.0
        } else {
            self.collisions as f64 / self.busy_channel_slots as f64
        }
    }

    /// Fraction of transmissions whose message reached a listener.
    pub fn delivery_efficiency(&self) -> f64 {
        if self.transmissions == 0 {
            0.0
        } else {
            self.deliveries as f64 / self.transmissions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SlotActivity {
        SlotActivity {
            slot: 3,
            channels: vec![
                ChannelActivity {
                    channel: GlobalChannel(0),
                    broadcasters: vec![NodeId(1), NodeId(2)],
                    winner: Some(NodeId(2)),
                    listeners: vec![NodeId(3)],
                },
                ChannelActivity {
                    channel: GlobalChannel(5),
                    broadcasters: vec![NodeId(4)],
                    winner: Some(NodeId(4)),
                    listeners: vec![],
                },
                ChannelActivity {
                    channel: GlobalChannel(7),
                    broadcasters: vec![],
                    winner: None,
                    listeners: vec![NodeId(0)],
                },
            ],
            sleepers: 1,
            jammed: 0,
        }
    }

    #[test]
    fn deliveries_require_listener_and_winner() {
        assert_eq!(sample().deliveries(), 1);
    }

    #[test]
    fn transmissions_counts_all_broadcasters() {
        assert_eq!(sample().transmissions(), 3);
    }

    #[test]
    fn on_channel_lookup() {
        let s = sample();
        assert!(s.on_channel(GlobalChannel(5)).is_some());
        assert!(s.on_channel(GlobalChannel(6)).is_none());
        assert!(s.on_channel(GlobalChannel(0)).unwrap().had_collision());
        assert!(!s.on_channel(GlobalChannel(5)).unwrap().had_collision());
    }

    #[test]
    fn default_is_empty() {
        let s = SlotActivity::default();
        assert_eq!(s.deliveries(), 0);
        assert_eq!(s.transmissions(), 0);
        assert_eq!(s.channels.len(), 0);
    }

    #[test]
    fn trace_log_accumulates_sample() {
        let mut log = TraceLog::new();
        log.record(&sample());
        log.record(&sample());
        assert_eq!(log.slots(), 2);
        assert_eq!(log.total_transmissions(), 6);
        assert_eq!(log.total_collisions(), 2);
        assert_eq!(log.total_deliveries(), 2);
        // g5's lone win had no listeners.
        assert_eq!(log.total_wasted_wins(), 2);
        assert_eq!(log.total_jammed(), 0);
    }

    #[test]
    fn trace_log_rates() {
        let mut log = TraceLog::new();
        log.record(&sample());
        // 3 busy channels, 1 collision.
        assert!((log.collision_rate() - 1.0 / 3.0).abs() < 1e-12);
        // 3 transmissions, 1 delivered to a listener.
        assert!((log.delivery_efficiency() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = TraceDigest::new();
        a.record(&sample());
        let mut b = TraceDigest::new();
        b.record(&sample());
        assert_eq!(a.finish(), b.finish());
        // A different winner must change the digest.
        let mut changed = sample();
        changed.channels[0].winner = Some(NodeId(1));
        let mut c = TraceDigest::new();
        c.record(&changed);
        assert_ne!(a.finish(), c.finish());
        // "No winner" differs from "winner 0".
        let mut none_winner = sample();
        none_winner.channels[0].winner = None;
        let mut zero_winner = sample();
        zero_winner.channels[0].winner = Some(NodeId(0));
        let (mut dn, mut dz) = (TraceDigest::new(), TraceDigest::new());
        dn.record(&none_winner);
        dz.record(&zero_winner);
        assert_ne!(dn.finish(), dz.finish());
    }

    #[test]
    fn empty_trace_log_rates_are_zero() {
        let log = TraceLog::new();
        assert_eq!(log.collision_rate(), 0.0);
        assert_eq!(log.delivery_efficiency(), 0.0);
        assert_eq!(log.slots(), 0);
    }
}
