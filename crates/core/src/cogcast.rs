//! COGCAST — the epidemic local-broadcast protocol (Section 4).
//!
//! The algorithm is exactly the paper's: in every slot, every node picks
//! a channel uniformly at random from its `c` available channels; nodes
//! that already know the message broadcast it, everyone else listens.
//! After `Θ((c/k)·max{1, c/n}·lg n)` slots all nodes are informed with
//! high probability (Theorem 4).
//!
//! Because every informed node does the same thing in every slot, the
//! protocol has no phases to desynchronize: it tolerates dynamic channel
//! assignments and arbitrary start states out of the box (Section 7),
//! and the run-time budget is its *only* dependence on `n` and `k`.

use crate::bounds;
use crn_sim::rng::SimRng;
use crn_sim::{Action, Event, LocalChannel, NodeCtx, NodeId, Protocol};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a node was first informed: by whom, in which slot, and on which
/// of its local channels. This triple identifies the node's position in
/// the implicit distribution tree that COGCAST builds (Section 5,
/// Lemma 5): `from` is the node's parent and `(slot, channel)` names its
/// cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Informed {
    /// The node whose transmission informed this node (its tree parent).
    pub from: NodeId,
    /// The slot in which this node was first informed.
    pub slot: u64,
    /// This node's local label for the channel it was informed on.
    pub channel: LocalChannel,
}

/// What a COGCAST node did in one slot — recorded so COGCOMP's phase
/// three can "rewind" phase one (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotRecord {
    /// Broadcast on the channel; `delivered` is the success feedback.
    Broadcast {
        /// Local channel used.
        channel: LocalChannel,
        /// Whether this node's transmission was the one received.
        delivered: bool,
    },
    /// Listened on the channel; `informed` is true if this was the slot
    /// in which the node was first informed.
    Listen {
        /// Local channel used.
        channel: LocalChannel,
        /// Whether this node was first informed in this slot.
        informed: bool,
    },
    /// The node's radio was off this slot (e.g. a fault window under
    /// [`crn_sim::faults::Flaky`]). Records stay slot-aligned so the
    /// phase-three rewind still works after transient outages.
    Idle,
}

impl SlotRecord {
    /// The local channel this record used, if the radio was on.
    pub fn channel(self) -> Option<LocalChannel> {
        match self {
            SlotRecord::Broadcast { channel, .. } | SlotRecord::Listen { channel, .. } => {
                Some(channel)
            }
            SlotRecord::Idle => None,
        }
    }
}

/// The COGCAST protocol state machine for one node.
///
/// Construct the source with [`CogCast::source`] and everyone else with
/// [`CogCast::node`]; hand the instances to a
/// [`crn_sim::Network`] and run it for
/// [`bounds::cogcast_slots`] slots.
///
/// # Examples
///
/// ```
/// use crn_core::cogcast::CogCast;
/// use crn_core::bounds;
/// use crn_sim::assignment::shared_core;
/// use crn_sim::channel_model::StaticChannels;
/// use crn_sim::Network;
///
/// let (n, c, k) = (8, 4, 2);
/// let model = StaticChannels::local(shared_core(n, c, k)?, 11);
/// let mut protos = vec![CogCast::source("config-v2")];
/// protos.extend((1..n).map(|_| CogCast::node()));
/// let mut net = Network::new(model, protos, 11)?;
/// let budget = bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
/// let outcome = net.run(budget, |net| net.all_done());
/// assert!(outcome.is_done());
/// assert!(net.protocols().iter().all(|p| p.message() == Some(&"config-v2")));
/// # Ok::<(), crn_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CogCast<M> {
    /// The message, once known.
    message: Option<M>,
    /// True for the designated source.
    is_source: bool,
    /// How this node was informed (`None` for the source or while
    /// uninformed).
    informed: Option<Informed>,
    /// Whether to keep per-slot records (needed by COGCOMP's rewind).
    recording: bool,
    /// Per-slot action records (empty unless `recording`).
    records: Vec<SlotRecord>,
    /// The channel chosen in the current slot (between decide/observe).
    pending_channel: LocalChannel,
}

impl<M: Clone> CogCast<M> {
    /// Creates the designated source, which knows `message` from slot 0.
    pub fn source(message: M) -> Self {
        CogCast {
            message: Some(message),
            is_source: true,
            informed: None,
            recording: false,
            records: Vec::new(),
            pending_channel: LocalChannel(0),
        }
    }

    /// Creates an initially-uninformed node.
    pub fn node() -> Self {
        CogCast {
            message: None,
            is_source: false,
            informed: None,
            recording: false,
            records: Vec::new(),
            pending_channel: LocalChannel(0),
        }
    }

    /// Enables per-slot action recording (used by COGCOMP's phase 3).
    pub fn with_recording(mut self) -> Self {
        self.recording = true;
        self
    }

    /// True once this node knows the message.
    pub fn is_informed(&self) -> bool {
        self.message.is_some()
    }

    /// True if this node is the designated source.
    pub fn is_source(&self) -> bool {
        self.is_source
    }

    /// The message, if known.
    pub fn message(&self) -> Option<&M> {
        self.message.as_ref()
    }

    /// How this node was first informed (`None` for the source and for
    /// still-uninformed nodes).
    pub fn informed(&self) -> Option<Informed> {
        self.informed
    }

    /// The recorded per-slot actions (empty unless recording was
    /// enabled).
    pub fn records(&self) -> &[SlotRecord] {
        &self.records
    }
}

impl<M: Clone + std::fmt::Debug> Protocol<M> for CogCast<M> {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<M> {
        if self.recording {
            // Keep records aligned to absolute slots even if earlier
            // slots were missed (fault windows suppress decide).
            while (self.records.len() as u64) < ctx.slot {
                self.records.push(SlotRecord::Idle);
            }
        }
        let ch = LocalChannel(rng.gen_range(0..ctx.c as u32));
        self.pending_channel = ch;
        match &self.message {
            Some(m) => Action::Broadcast(ch, m.clone()),
            None => Action::Listen(ch),
        }
    }

    fn observe(&mut self, ctx: &NodeCtx<'_>, event: Event<M>) {
        let ch = self.pending_channel;
        let record = match event {
            Event::Received { from, msg } => {
                let first_time = self.message.is_none();
                if first_time {
                    self.message = Some(msg);
                    self.informed = Some(Informed {
                        from,
                        slot: ctx.slot,
                        channel: ch,
                    });
                }
                SlotRecord::Listen {
                    channel: ch,
                    informed: first_time,
                }
            }
            Event::Silence | Event::Jammed if self.message.is_none() => SlotRecord::Listen {
                channel: ch,
                informed: false,
            },
            Event::Delivered => SlotRecord::Broadcast {
                channel: ch,
                delivered: true,
            },
            Event::Lost { .. } | Event::Silence | Event::Jammed => SlotRecord::Broadcast {
                channel: ch,
                delivered: false,
            },
        };
        if self.recording {
            self.records.push(record);
        }
    }

    fn is_done(&self) -> bool {
        self.is_informed()
    }
}

/// Per-run statistics of a COGCAST execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BroadcastRun {
    /// Slots until every node was informed, or `None` if the budget ran
    /// out first.
    pub slots: Option<u64>,
    /// The slot budget that was allowed.
    pub budget: u64,
    /// Number of informed nodes after each slot (index 0 = after slot 0),
    /// the epidemic curve of experiment F4.
    pub informed_per_slot: Vec<usize>,
}

impl BroadcastRun {
    /// True if broadcast completed within the budget.
    pub fn completed(&self) -> bool {
        self.slots.is_some()
    }

    /// The first slot (1-based) by which at least `fraction` of the
    /// nodes were informed, or `None` if the run never got there.
    ///
    /// The epidemic curve is the inverse of the per-node latency
    /// distribution, so `latency_quantile(0.5)` is the median node's
    /// inform latency and `latency_quantile(1.0)` the straggler's.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < fraction <= 1.0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use crn_core::cogcast::BroadcastRun;
    /// let run = BroadcastRun {
    ///     slots: Some(4),
    ///     budget: 10,
    ///     informed_per_slot: vec![2, 5, 9, 10],
    /// };
    /// assert_eq!(run.latency_quantile(0.5, 10), Some(2));
    /// assert_eq!(run.latency_quantile(1.0, 10), Some(4));
    /// ```
    pub fn latency_quantile(&self, fraction: f64, n: usize) -> Option<u64> {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1], got {fraction}"
        );
        let target = (fraction * n as f64).ceil() as usize;
        self.informed_per_slot
            .iter()
            .position(|&count| count >= target)
            .map(|i| i as u64 + 1)
    }
}

/// Runs COGCAST over the given channel model until all nodes are
/// informed or `budget` slots elapse, returning the epidemic curve.
///
/// Node 0 is the source. The message is a unit token; use the protocol
/// directly if you need payloads.
///
/// # Errors
///
/// Propagates [`crn_sim::SimError`] from network construction.
///
/// # Examples
///
/// ```
/// use crn_core::cogcast::run_broadcast;
/// use crn_core::bounds;
/// use crn_sim::assignment::shared_core;
/// use crn_sim::channel_model::StaticChannels;
///
/// let model = StaticChannels::local(shared_core(16, 4, 2)?, 3);
/// let budget = bounds::cogcast_slots(16, 4, 2, bounds::DEFAULT_ALPHA);
/// let run = run_broadcast(model, 3, budget)?;
/// assert!(run.completed());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_broadcast<CM: crn_sim::ChannelModel + Sync>(
    model: CM,
    seed: u64,
    budget: u64,
) -> Result<BroadcastRun, crn_sim::SimError> {
    run_broadcast_on(model, seed, budget, crn_sim::OracleSingleHop::new()).map(|(run, _)| run)
}

/// Runs COGCAST over an arbitrary [`crn_sim::Medium`] — the abstract
/// collision oracle, a multi-hop topology, or the decay-backoff
/// physical layer — and returns the medium alongside the run so
/// medium-side metadata (e.g. [`crn_sim::PhysicalDecay::physical_rounds`])
/// can be read back.
///
/// With [`crn_sim::OracleSingleHop`] this is trace-identical to
/// [`run_broadcast`].
///
/// # Errors
///
/// Propagates [`crn_sim::SimError`] from network construction.
///
/// # Examples
///
/// ```
/// use crn_core::cogcast::run_broadcast_on;
/// use crn_sim::assignment::shared_core;
/// use crn_sim::channel_model::StaticChannels;
/// use crn_sim::PhysicalDecay;
///
/// let model = StaticChannels::local(shared_core(8, 4, 2)?, 3);
/// let (run, medium) = run_broadcast_on(model, 3, 10_000, PhysicalDecay::new())?;
/// assert!(run.completed());
/// assert!(medium.physical_rounds() > 0);
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_broadcast_on<CM, Med>(
    model: CM,
    seed: u64,
    budget: u64,
    medium: Med,
) -> Result<(BroadcastRun, Med), crn_sim::SimError>
where
    CM: crn_sim::ChannelModel + Sync,
    Med: crn_sim::Medium<()>,
{
    let n = model.n();
    let mut protos = Vec::with_capacity(n);
    protos.push(CogCast::source(()));
    protos.extend((1..n).map(|_| CogCast::node()));
    let mut net = crn_sim::Network::with_medium(model, protos, seed, medium)?;
    // Large networks fan decide/observe across the shared pool;
    // digest-identical at any worker count, so always safe to enable.
    net.set_parallelism(crn_sim::ParConfig::auto());

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
    let run = BroadcastRun {
        slots,
        budget,
        informed_per_slot,
    };
    Ok((run, net.into_medium()))
}

/// Convenience: runs COGCAST with the Theorem 4 budget sized by
/// `alpha`, on the given model.
///
/// # Errors
///
/// Propagates [`crn_sim::SimError`] from network construction.
pub fn run_broadcast_default<CM: crn_sim::ChannelModel + Sync>(
    model: CM,
    seed: u64,
    alpha: f64,
) -> Result<BroadcastRun, crn_sim::SimError> {
    let budget = bounds::cogcast_slots(model.n(), model.c(), model.k(), alpha);
    run_broadcast(model, seed, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::assignment::{full_overlap, shared_core};
    use crn_sim::channel_model::{DynamicSharedCore, StaticChannels};
    use crn_sim::Network;

    fn complete_on(
        model: impl crn_sim::ChannelModel + Sync,
        seed: u64,
        budget: u64,
    ) -> BroadcastRun {
        run_broadcast(model, seed, budget).unwrap()
    }

    #[test]
    fn informs_everyone_on_single_shared_channel() {
        let model = StaticChannels::local(full_overlap(8, 1).unwrap(), 1);
        let run = complete_on(model, 1, 100);
        assert!(run.completed());
        // One channel, everyone meets immediately: first slot informs
        // at least one new node.
        assert!(run.informed_per_slot[0] >= 2);
    }

    #[test]
    fn informs_everyone_with_shared_core() {
        for seed in 0..5 {
            let model = StaticChannels::local(shared_core(20, 6, 2).unwrap(), seed);
            let budget = bounds::cogcast_slots(20, 6, 2, bounds::DEFAULT_ALPHA);
            let run = complete_on(model, seed, budget);
            assert!(run.completed(), "seed {seed} missed budget {budget}");
        }
    }

    #[test]
    fn informed_counts_monotone() {
        let model = StaticChannels::local(shared_core(30, 8, 3).unwrap(), 7);
        let run = complete_on(model, 7, 10_000);
        for w in run.informed_per_slot.windows(2) {
            assert!(w[0] <= w[1], "epidemic curve must be monotone");
        }
        assert_eq!(*run.informed_per_slot.last().unwrap(), 30);
    }

    #[test]
    fn source_counts_as_informed_from_start() {
        let model = StaticChannels::local(shared_core(4, 4, 1).unwrap(), 2);
        let run = complete_on(model, 2, 1);
        assert!(run.informed_per_slot[0] >= 1);
    }

    #[test]
    fn single_node_network_completes_instantly() {
        let model = StaticChannels::local(full_overlap(1, 3).unwrap(), 0);
        let run = complete_on(model, 0, 5);
        assert_eq!(run.slots, Some(1));
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        // k=1, c=8: a tight budget of 1 slot will essentially never
        // inform 50 nodes.
        let model = StaticChannels::local(shared_core(50, 8, 1).unwrap(), 3);
        let run = complete_on(model, 3, 1);
        assert!(!run.completed());
        assert_eq!(run.informed_per_slot.len(), 1);
    }

    #[test]
    fn parents_form_a_tree_rooted_at_source() {
        let n = 25;
        let model = StaticChannels::local(shared_core(n, 5, 2).unwrap(), 9);
        let mut protos = vec![CogCast::source(0u8)];
        protos.extend((1..n).map(|_| CogCast::node()));
        let mut net = Network::new(model, protos, 9).unwrap();
        let outcome = net.run(100_000, |net| net.all_done());
        assert!(outcome.is_done());
        let protos = net.into_protocols();

        assert!(protos[0].informed().is_none(), "source has no parent");
        for (i, p) in protos.iter().enumerate().skip(1) {
            let info = p
                .informed()
                .unwrap_or_else(|| panic!("node {i} uninformed"));
            // Parent must have been informed strictly before this node.
            let parent = &protos[info.from.index()];
            let parent_time = if parent.is_source() {
                0
            } else {
                parent.informed().unwrap().slot + 1
            };
            assert!(
                parent_time <= info.slot,
                "node {i} informed at {} by parent informed at {parent_time}",
                info.slot
            );
        }
    }

    #[test]
    fn recording_captures_every_slot() {
        let n = 10;
        let model = StaticChannels::local(shared_core(n, 4, 2).unwrap(), 5);
        let mut protos = vec![CogCast::source(0u8).with_recording()];
        protos.extend((1..n).map(|_| CogCast::node().with_recording()));
        let mut net = Network::new(model, protos, 5).unwrap();
        net.run_slots(50);
        for p in net.protocols() {
            assert_eq!(p.records().len(), 50);
        }
    }

    #[test]
    fn records_mark_informed_slot() {
        let n = 12;
        let model = StaticChannels::local(shared_core(n, 4, 2).unwrap(), 8);
        let mut protos = vec![CogCast::source(0u8).with_recording()];
        protos.extend((1..n).map(|_| CogCast::node().with_recording()));
        let mut net = Network::new(model, protos, 8).unwrap();
        net.run(100_000, |net| net.all_done());
        for p in net.protocols().iter().skip(1) {
            let info = p.informed().unwrap();
            match p.records()[info.slot as usize] {
                SlotRecord::Listen { channel, informed } => {
                    assert!(informed);
                    assert_eq!(channel, info.channel);
                }
                other => panic!("expected an informing Listen record, got {other:?}"),
            }
            // Exactly one informing record.
            let informings = p
                .records()
                .iter()
                .filter(|r| matches!(r, SlotRecord::Listen { informed: true, .. }))
                .count();
            assert_eq!(informings, 1);
        }
    }

    #[test]
    fn no_recording_by_default() {
        let model = StaticChannels::local(shared_core(4, 3, 1).unwrap(), 5);
        let mut protos = vec![CogCast::source(0u8)];
        protos.extend((1..4).map(|_| CogCast::node()));
        let mut net = Network::new(model, protos, 5).unwrap();
        net.run_slots(10);
        assert!(net.protocols().iter().all(|p| p.records().is_empty()));
    }

    #[test]
    fn works_under_dynamic_channel_assignment() {
        // Section 7: COGCAST provides the same guarantee when the
        // non-core channels churn every slot.
        let (n, c, k) = (16, 6, 2);
        for seed in 0..3 {
            let model = DynamicSharedCore::new(n, c, k, 60, 1.0, seed).unwrap();
            let budget = bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
            let run = complete_on(model, seed, budget);
            assert!(run.completed(), "dynamic run failed for seed {seed}");
        }
    }

    #[test]
    fn latency_quantiles_are_monotone_and_bracket_completion() {
        let n = 40;
        let model = StaticChannels::local(shared_core(n, 6, 2).unwrap(), 4);
        let run = complete_on(model, 4, 1_000_000);
        let p50 = run.latency_quantile(0.5, n).unwrap();
        let p90 = run.latency_quantile(0.9, n).unwrap();
        let p100 = run.latency_quantile(1.0, n).unwrap();
        assert!(p50 <= p90 && p90 <= p100);
        assert_eq!(Some(p100), run.slots, "full quantile = completion slot");
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1]")]
    fn latency_quantile_rejects_zero() {
        let run = BroadcastRun {
            slots: Some(1),
            budget: 1,
            informed_per_slot: vec![1],
        };
        run.latency_quantile(0.0, 1);
    }

    #[test]
    fn multiple_sources_speed_up_the_epidemic() {
        // The protocol has no single-source assumption: any set of
        // initially-informed nodes works, and more seeds finish faster.
        let (n, c, k) = (64usize, 8usize, 2usize);
        let mean = |sources: usize| -> f64 {
            let trials = 12;
            let mut total = 0u64;
            for seed in 0..trials {
                let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
                let protos: Vec<CogCast<u8>> = (0..n)
                    .map(|i| {
                        if i < sources {
                            CogCast::source(1)
                        } else {
                            CogCast::node()
                        }
                    })
                    .collect();
                let mut net = Network::new(model, protos, seed).unwrap();
                let outcome = net.run(10_000_000, |net| net.all_done());
                total += outcome.slots().expect("completes");
            }
            total as f64 / trials as f64
        };
        let one = mean(1);
        let eight = mean(8);
        assert!(
            eight < one,
            "8 sources ({eight}) should beat 1 source ({one})"
        );
    }

    #[test]
    fn faster_with_larger_overlap() {
        // Average completion over seeds should decrease markedly from
        // k=1 to k=c (same c).
        let avg = |k: usize| -> f64 {
            let mut total = 0u64;
            let trials = 20;
            for seed in 0..trials {
                let model = StaticChannels::local(shared_core(24, 8, k).unwrap(), seed);
                let run = complete_on(model, seed, 1_000_000);
                total += run.slots.unwrap();
            }
            total as f64 / trials as f64
        };
        let slow = avg(1);
        let fast = avg(8);
        assert!(
            slow > fast * 2.0,
            "k=1 ({slow}) should be much slower than k=8 ({fast})"
        );
    }
}
