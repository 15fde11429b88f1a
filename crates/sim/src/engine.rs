//! The synchronous slot engine.
//!
//! [`Network`] drives `n` protocol state machines against a
//! [`ChannelModel`] over a pluggable [`Medium`], implementing the
//! paper's Section 2 model exactly:
//!
//! 1. at the start of each slot every node picks an action (broadcast /
//!    listen / sleep) on one of its `c` channels, addressed by local
//!    label;
//! 2. the engine translates local labels to global channels;
//! 3. the medium resolves contention — under the default
//!    [`OracleSingleHop`], on each channel with at least one
//!    transmission one transmission (chosen uniformly at random)
//!    succeeds: all listeners on the channel receive it, the winner
//!    learns it succeeded, and the losing broadcasters both learn they
//!    failed *and* receive the winning message; a jamming adversary is
//!    a medium wrapper ([`crate::interference::Jammed`]) that removes
//!    the jammed nodes before the inner medium resolves the rest;
//! 4. every non-sleeping node observes the outcome.
//!
//! Everything around step 3 — protocol driving, label translation,
//! fault wrappers, tracing, conformance checking — is medium-agnostic
//! and written once here; swapping the medium (multi-hop topology,
//! physical decay backoff, jamming) swaps only the resolution rule.
//!
//! The engine is fully deterministic given its seed: per-node protocol
//! RNGs and the medium's RNGs (resolution, and the jammer's under
//! [`crate::interference::Jammed`]) are all derived from the master
//! seed on independent streams, and winner
//! draws advance the medium's stream in ascending channel order, so
//! they are reproducible.

use crate::channel_model::ChannelModel;
use crate::error::SimError;
use crate::ids::NodeId;
use crate::medium::{Medium, OracleSingleHop, SlotInputs};
use crate::pool::WorkerPool;
use crate::proto::{Action, Event, NodeCtx, Protocol};
use crate::rng::{derive_rng, streams, SimRng};
use crate::trace::SlotActivity;
use std::sync::Arc;

/// Kept only so the frozen `perfbench/` package compiles; the engine ignores it.
#[doc(hidden)]
pub const DEFAULT_PAR_THRESHOLD: usize = 256;

/// Kept only so the frozen `perfbench/` package compiles; the engine ignores it.
#[doc(hidden)]
#[derive(Clone, Debug)]
pub struct ParConfig(());

impl ParConfig {
    /// Kept only so the frozen `perfbench/` package compiles.
    #[doc(hidden)]
    pub fn new(_pool: Arc<WorkerPool>) -> Self {
        ParConfig(())
    }

    /// Kept only so the frozen `perfbench/` package compiles; always `None`.
    #[doc(hidden)]
    pub fn auto() -> Option<Self> {
        None
    }
}

/// The result of [`Network::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The predicate became true after the given number of slots had
    /// executed (i.e. `slots` is the completion time in slots).
    Done {
        /// Slots executed when the predicate first held.
        slots: u64,
    },
    /// The slot budget was exhausted before the predicate held.
    Timeout {
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl RunOutcome {
    /// The completion time, or `None` on timeout.
    ///
    /// ```
    /// use crn_sim::RunOutcome;
    /// assert_eq!(RunOutcome::Done { slots: 10 }.slots(), Some(10));
    /// assert_eq!(RunOutcome::Timeout { budget: 5 }.slots(), None);
    /// ```
    pub fn slots(self) -> Option<u64> {
        match self {
            RunOutcome::Done { slots } => Some(slots),
            RunOutcome::Timeout { .. } => None,
        }
    }

    /// True if the run completed within budget.
    pub fn is_done(self) -> bool {
        matches!(self, RunOutcome::Done { .. })
    }
}

/// A simulated cognitive radio network.
///
/// Generic over the message type `M`, the per-node protocol `P`, the
/// channel model `CM`, and the slot-resolution [`Medium`] `Med`
/// (default: the paper's single-hop collision oracle).
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::full_overlap;
/// use crn_sim::channel_model::StaticChannels;
/// use crn_sim::{Action, Event, LocalChannel, Network, NodeCtx, OracleSingleHop, Protocol};
/// use crn_sim::rng::SimRng;
///
/// /// Node 0 shouts; everyone else listens on the only channel.
/// struct Shout(bool);
/// impl Protocol<u32> for Shout {
///     fn decide(&mut self, ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u32> {
///         if ctx.id.index() == 0 {
///             Action::Broadcast(LocalChannel(0), 42)
///         } else {
///             Action::Listen(LocalChannel(0))
///         }
///     }
///     fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u32>) {
///         if matches!(event, Event::Received { msg: 42, .. }) {
///             self.0 = true;
///         }
///     }
///     fn is_done(&self) -> bool { self.0 }
/// }
///
/// let model = StaticChannels::global(full_overlap(3, 1)?);
/// let protos = vec![Shout(false), Shout(false), Shout(false)];
/// let mut net = Network::with_medium(model, protos, 7, OracleSingleHop::new())?;
/// net.step();
/// assert!(net.protocols()[1].is_done());
/// assert!(net.protocols()[2].is_done());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
#[allow(missing_debug_implementations)] // protocols are user types
pub struct Network<M, P, CM, Med = OracleSingleHop> {
    model: CM,
    protocols: Vec<P>,
    node_rngs: Vec<SimRng>,
    medium: Med,
    slot: u64,
    activity: SlotActivity,
    /// Whether `activity.channels` holds the records of the last
    /// executed slot: true after [`Network::step`], false before the
    /// first slot and after [`Network::step_unrecorded`].
    recorded: bool,
    scratch: Scratch<M>,
    /// Number of protocols reporting done as of the last executed
    /// slot; `None` when stale (before the first step, or after
    /// `protocols_mut` handed out mutable state). Makes `all_done`
    /// O(1) in run loops instead of an O(n) rescan per slot.
    done_cache: Option<usize>,
    _marker: std::marker::PhantomData<M>,
}

/// Reusable per-slot buffers owned by [`Network`].
///
/// Every vector [`Network::step`] needs is cleared and refilled in
/// place, so after the first few slots the engine itself performs no
/// heap allocation in steady state (see `tests/alloc.rs`); the default
/// [`OracleSingleHop`] medium upholds the same guarantee for the
/// resolution path.
struct Scratch<M> {
    /// Phase A: each tuned node's chosen action this slot. Sized once
    /// per node count; a sleeper's entry is not written, so it may
    /// hold an earlier slot's action (see [`SlotInputs::actions`]).
    actions: Vec<Action<M>>,
    /// Phase B: `(channel, node, is_broadcast)` in ascending node order
    /// — the medium's [`SlotInputs::tuned`].
    tuned: Vec<(crate::ids::GlobalChannel, usize, bool)>,
    /// Phase C/D: per node, the event to observe. Sized once per node
    /// count and all `None` between slots: the medium fills the tuned
    /// nodes' entries and Phase D takes them back.
    events: Vec<Option<Event<M>>>,
}

impl<M> Default for Scratch<M> {
    fn default() -> Self {
        Scratch {
            actions: Vec::new(),
            tuned: Vec::new(),
            events: Vec::new(),
        }
    }
}

impl<M, P, CM, Med> Network<M, P, CM, Med>
where
    M: Clone,
    P: Protocol<M>,
    CM: ChannelModel,
    Med: Medium<M>,
{
    /// Creates a network over `medium`: [`OracleSingleHop`] for the
    /// paper's collision oracle, or any other [`Medium`] — wrapped in
    /// [`crate::interference::Jammed`] for a jamming adversary.
    ///
    /// The medium's RNG streams are re-derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProtocolCountMismatch`] if `protocols.len()`
    /// differs from the model's node count, and
    /// [`SimError::InvalidParams`] if the medium is built for another
    /// node count (see [`Medium::node_count`]).
    pub fn with_medium(
        model: CM,
        protocols: Vec<P>,
        seed: u64,
        mut medium: Med,
    ) -> Result<Self, SimError> {
        if protocols.len() != model.n() {
            return Err(SimError::ProtocolCountMismatch {
                nodes: model.n(),
                protocols: protocols.len(),
            });
        }
        if let Some(nodes) = medium.node_count().filter(|&nodes| nodes != model.n()) {
            return Err(SimError::InvalidParams {
                reason: format!(
                    "the medium spans {nodes} nodes but the channel model has {}",
                    model.n()
                ),
            });
        }
        let node_rngs = (0..model.n())
            .map(|i| derive_rng(seed, streams::NODE_BASE + i as u64))
            .collect();
        medium.reseed(seed);
        Ok(Network {
            model,
            protocols,
            node_rngs,
            medium,
            slot: 0,
            activity: SlotActivity::default(),
            recorded: false,
            scratch: Scratch::default(),
            done_cache: None,
            _marker: std::marker::PhantomData,
        })
    }

    /// The current slot (number of slots executed so far).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The channel model.
    pub fn model(&self) -> &CM {
        &self.model
    }

    /// The slot-resolution medium.
    pub fn medium(&self) -> &Med {
        &self.medium
    }

    /// Checks the most recently executed slot against the Section 2
    /// model contract (see [`crate::conformance`]), applying only the
    /// clauses the medium's [`crate::medium::MediumProfile`] claims;
    /// returns every violation found. Valid right after a
    /// [`Network::step`] — the model still holds that slot's channel
    /// sets until the next step advances it.
    ///
    /// A slot without channel records — none executed yet, or the last
    /// one ran through [`Network::step_unrecorded`] — cannot be
    /// checked, and reports exactly one
    /// [`crate::conformance::Rule::Unrecorded`] violation rather than
    /// passing as an empty, conformant slot.
    pub fn check_conformance(&self) -> Vec<crate::conformance::Violation> {
        if !self.recorded {
            return vec![crate::conformance::Violation {
                slot: self.activity.slot,
                rule: crate::conformance::Rule::Unrecorded,
                detail: "no channel records: no slot ran yet, or it ran through \
                         step_unrecorded"
                    .into(),
            }];
        }
        crate::conformance::check_slot_for(
            &self.model,
            self.medium.interference(),
            &self.activity,
            self.medium.profile(),
        )
    }

    /// The protocol instances, indexed by node.
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// Mutable access to the protocol instances (e.g. to inject values
    /// between protocol phases in tests).
    pub fn protocols_mut(&mut self) -> &mut [P] {
        // The caller may flip doneness behind the engine's back.
        self.done_cache = None;
        &mut self.protocols
    }

    /// Kept only so the frozen `perfbench/` package compiles; a no-op.
    #[doc(hidden)]
    pub fn set_parallelism(&mut self, _cfg: Option<ParConfig>) {}

    /// The activity record of the most recently executed slot, if it
    /// has one: `Some` right after [`Network::step`], `None` before the
    /// first slot and after [`Network::step_unrecorded`], whose slots
    /// build no channel records.
    pub fn last_activity(&self) -> Option<&SlotActivity> {
        self.recorded.then_some(&self.activity)
    }

    /// True once every protocol reports [`Protocol::is_done`].
    ///
    /// O(1) after a [`Network::step`]: the slot tallies doneness as it
    /// runs, so per-slot run loops don't rescan all `n`
    /// protocols. Falls back to the scan when the tally is stale
    /// (before the first step, or after [`Network::protocols_mut`]).
    pub fn all_done(&self) -> bool {
        self.done_count() == self.protocols.len()
    }

    /// How many protocols report [`Protocol::is_done`].
    ///
    /// O(1) after a [`Network::step`], read from the slot's tally like
    /// [`Network::all_done`]; a scan when the tally is stale.
    pub fn done_count(&self) -> usize {
        self.done_cache
            .unwrap_or_else(|| self.protocols.iter().filter(|p| p.is_done()).count())
    }

    /// Executes one slot and returns its activity record.
    ///
    /// # Panics
    ///
    /// Panics if a protocol selects a local channel `>= c` — that is a
    /// protocol bug, not a recoverable condition.
    pub fn step(&mut self) -> &SlotActivity {
        self.execute_slot(true);
        &self.activity
    }

    /// Executes one slot without asking the medium for channel records.
    ///
    /// Protocols observe exactly what [`Network::step`] would have shown
    /// them — the medium draws the same random numbers either way — so
    /// slot counts, events and protocol state are identical; only the
    /// physical-layer record is skipped, which is most of the oracle's
    /// resolve cost on large channel spaces. Afterwards
    /// [`Network::last_activity`] is `None` and
    /// [`Network::check_conformance`] reports the slot as unrecorded.
    /// [`Network::run`], [`Network::run_slots`] and
    /// [`Network::run_to_completion`] step this way. With the
    /// `validate` feature the records are still built and every slot is
    /// checked.
    ///
    /// # Panics
    ///
    /// As for [`Network::step`].
    pub fn step_unrecorded(&mut self) {
        self.execute_slot(false);
    }

    /// One slot; `records` says whether the caller reads its channel
    /// records.
    fn execute_slot(&mut self, records: bool) {
        // The in-step validator checks every slot, so it needs records.
        let build_records = records || cfg!(feature = "validate");
        let slot = self.slot;
        let n = self.model.n();
        let k = self.model.k();
        let global_labels = self.model.labels_are_global();

        self.model.advance(slot);

        // Phases A and B in one pass: each node decides, and a tuned
        // node's local label is translated to its global channel at
        // once, reading the node's channel slice a single time.
        let Scratch {
            actions,
            tuned,
            events,
        } = &mut self.scratch;
        if actions.len() != n {
            actions.clear();
            actions.resize_with(n, || Action::Sleep);
        }
        tuned.clear();
        // Doneness is tallied as each protocol finishes its part of the
        // slot: a sleeper after `decide`, a tuned node after `observe`,
        // so `all_done` is O(1) in run loops instead of an O(n) rescan.
        let (mut sleepers, mut done) = (0usize, 0usize);
        for (i, (protocol, rng)) in self
            .protocols
            .iter_mut()
            .zip(&mut self.node_rngs)
            .enumerate()
        {
            let c_i = self.model.c_of(i);
            let channels = self.model.channels(i);
            let ctx = NodeCtx {
                id: NodeId(i as u32),
                slot,
                n,
                c: c_i,
                k,
                channels: global_labels.then_some(channels),
            };
            let action = protocol.decide(&ctx, rng);
            match action.channel() {
                Some(local) => {
                    assert!(
                        local.index() < c_i,
                        "protocol bug: node {i} chose local channel {local} but c = {c_i}"
                    );
                    tuned.push((channels[local.index()], i, action.is_broadcast()));
                    actions[i] = action;
                }
                None => {
                    sleepers += 1;
                    done += usize::from(protocol.is_done());
                }
            }
        }

        // Phase C: the medium resolves contention, filling in every
        // tuned participant's event and this slot's channel records.
        // `events` is sized once per node count: Phase D drains every
        // event the medium sets, so it arrives here all `None`.
        self.activity.slot = slot;
        self.activity.sleepers = sleepers;
        self.activity.jammed = 0;
        if events.len() != n {
            events.clear();
            events.resize(n, None);
        }
        self.medium.resolve(
            &SlotInputs {
                slot,
                n,
                total_channels: self.model.total_channels(),
                actions,
                tuned,
                records: build_records,
            },
            events,
            &mut self.activity,
        );
        self.recorded = build_records;

        // Phase D: deliver observations to the participants only
        // (sleepers observe nothing), in ascending node order.
        for &(_, i, _) in tuned.iter() {
            let event = events[i].take();
            debug_assert!(
                event.is_some(),
                "the medium left tuned node {i} without an event"
            );
            if let Some(event) = event {
                let ctx = NodeCtx {
                    id: NodeId(i as u32),
                    slot,
                    n,
                    c: self.model.c_of(i),
                    k,
                    channels: global_labels.then(|| self.model.channels(i)),
                };
                self.protocols[i].observe(&ctx, event);
            }
            done += usize::from(self.protocols[i].is_done());
        }
        debug_assert!(
            events.iter().all(Option::is_none),
            "the medium set an event for a node that was not tuned"
        );
        self.done_cache = Some(done);

        // With the `validate` feature, every slot is checked against the
        // Section 2 contract before being published; the first violation
        // aborts the run. Compiled out by default (the checks allocate).
        #[cfg(feature = "validate")]
        {
            let violations = self.check_conformance();
            assert!(
                violations.is_empty(),
                "model-conformance violation:\n{}",
                crate::conformance::report(&violations)
            );
        }
        self.recorded = records;

        self.slot += 1;
    }

    /// Runs until `done` holds (checked after every slot) or the budget
    /// is exhausted, stepping with [`Network::step_unrecorded`].
    pub fn run(&mut self, budget: u64, mut done: impl FnMut(&Self) -> bool) -> RunOutcome {
        for _ in 0..budget {
            self.step_unrecorded();
            if done(self) {
                return RunOutcome::Done { slots: self.slot };
            }
        }
        RunOutcome::Timeout { budget }
    }

    /// Runs exactly `slots` slots with [`Network::step_unrecorded`].
    pub fn run_slots(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step_unrecorded();
        }
    }

    /// Runs until every protocol reports done, within the budget,
    /// stepping with [`Network::step_unrecorded`].
    pub fn run_to_completion(&mut self, budget: u64) -> RunOutcome {
        if self.all_done() {
            return RunOutcome::Done { slots: self.slot };
        }
        self.run(budget, |net| net.all_done())
    }

    /// Consumes the network and returns its protocol instances.
    pub fn into_protocols(self) -> Vec<P> {
        self.protocols
    }

    /// Consumes the network and returns its medium (e.g. to read
    /// accumulated [`crate::PhysicalDecay`] round counters after a run).
    pub fn into_medium(self) -> Med {
        self.medium
    }

    /// Consumes the network and returns both the protocol instances and
    /// the medium.
    pub fn into_parts(self) -> (Vec<P>, Med) {
        (self.protocols, self.medium)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{full_overlap, shared_core};
    use crate::channel_model::StaticChannels;
    use crate::ids::{GlobalChannel, LocalChannel};

    /// Test protocol: a fixed script of actions; records all events.
    struct Scripted {
        script: Vec<Action<u32>>,
        events: Vec<Event<u32>>,
        at: usize,
    }

    impl Scripted {
        fn new(script: Vec<Action<u32>>) -> Self {
            Scripted {
                script,
                events: Vec::new(),
                at: 0,
            }
        }
    }

    impl Protocol<u32> for Scripted {
        fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u32> {
            let a = self.script[self.at % self.script.len()].clone();
            self.at += 1;
            a
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u32>) {
            self.events.push(event);
        }
    }

    fn one_channel_net(protos: Vec<Scripted>) -> Network<u32, Scripted, StaticChannels> {
        let model = StaticChannels::global(full_overlap(protos.len(), 1).unwrap());
        Network::with_medium(model, protos, 1, OracleSingleHop::new()).unwrap()
    }

    #[test]
    fn lone_broadcaster_succeeds_and_is_heard() {
        let mut net = one_channel_net(vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 5)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ]);
        net.step();
        let p = net.protocols();
        assert_eq!(p[0].events, vec![Event::Delivered]);
        assert_eq!(
            p[1].events,
            vec![Event::Received {
                from: NodeId(0),
                msg: 5
            }]
        );
    }

    #[test]
    fn collision_has_one_winner_and_losers_overhear() {
        let mut net = one_channel_net(vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 10)]),
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 20)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ]);
        net.step();
        let p = net.protocols();
        let delivered: Vec<usize> = (0..2)
            .filter(|&i| p[i].events == vec![Event::Delivered])
            .collect();
        assert_eq!(delivered.len(), 1, "exactly one winner");
        let w = delivered[0];
        let l = 1 - w;
        let expected_msg = if w == 0 { 10 } else { 20 };
        assert_eq!(
            p[l].events,
            vec![Event::Lost {
                winner: NodeId(w as u32),
                msg: expected_msg
            }]
        );
        assert_eq!(
            p[2].events,
            vec![Event::Received {
                from: NodeId(w as u32),
                msg: expected_msg
            }]
        );
    }

    #[test]
    fn listener_on_quiet_channel_hears_silence() {
        let mut net = one_channel_net(vec![Scripted::new(vec![Action::Listen(LocalChannel(0))])]);
        net.step();
        assert_eq!(net.protocols()[0].events, vec![Event::Silence]);
    }

    #[test]
    fn sleeper_observes_nothing() {
        let mut net = one_channel_net(vec![Scripted::new(vec![Action::Sleep])]);
        net.step();
        assert!(net.protocols()[0].events.is_empty());
        assert_eq!(net.last_activity().map(|a| a.sleepers), Some(1));
    }

    #[test]
    fn a_sleeper_is_not_heard_again() {
        // Node 0 broadcasts in slot 0 and sleeps in slot 1; the engine
        // keeps its slot-0 action in the actions scratch, which no
        // medium may read once node 0 is no longer tuned.
        fn check<Med: Medium<u32>>(medium: Med) {
            let model = StaticChannels::global(full_overlap(2, 1).unwrap());
            let protos = vec![
                Scripted::new(vec![Action::Broadcast(LocalChannel(0), 5), Action::Sleep]),
                Scripted::new(vec![Action::Listen(LocalChannel(0))]),
            ];
            let mut net = Network::with_medium(model, protos, 1, medium).unwrap();
            net.step();
            net.step();
            let p = net.protocols();
            assert_eq!(p[0].events, vec![Event::Delivered]);
            assert_eq!(
                p[1].events,
                vec![
                    Event::Received {
                        from: NodeId(0),
                        msg: 5
                    },
                    Event::Silence
                ]
            );
        }
        check(OracleSingleHop::new());
        check(crate::medium::PhysicalDecay::new());
        check(crate::medium::OracleMultihop::new(
            crate::topology::Topology::complete(2),
        ));
    }

    #[test]
    fn winner_choice_is_roughly_uniform() {
        // Two persistent broadcasters on one channel: over many slots
        // each should win about half the time.
        let mut net = one_channel_net(vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 1)]),
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 2)]),
        ]);
        net.run_slots(2000);
        let wins0 = net.protocols()[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Delivered))
            .count();
        assert!(
            (700..=1300).contains(&wins0),
            "winner selection badly skewed: {wins0}/2000"
        );
    }

    #[test]
    fn separate_channels_do_not_interfere() {
        // shared_core(2, 2, 1): core channel g0 + one private channel each.
        let a = shared_core(2, 2, 1).unwrap();
        let model = StaticChannels::global(a);
        // Node 0 broadcasts on its private channel (local label 1);
        // node 1 listens on its own private channel (also local label 1,
        // but a *different* global channel).
        let protos = vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(1), 9)]),
            Scripted::new(vec![Action::Listen(LocalChannel(1))]),
        ];
        let mut net = Network::with_medium(model, protos, 3, OracleSingleHop::new()).unwrap();
        net.step();
        let p = net.protocols();
        assert_eq!(p[0].events, vec![Event::Delivered]);
        assert_eq!(p[1].events, vec![Event::Silence]);
    }

    #[test]
    fn shared_core_channel_connects_nodes() {
        let a = shared_core(2, 2, 1).unwrap();
        let model = StaticChannels::global(a);
        let protos = vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 9)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ];
        let mut net = Network::with_medium(model, protos, 3, OracleSingleHop::new()).unwrap();
        net.step();
        assert_eq!(
            net.protocols()[1].events,
            vec![Event::Received {
                from: NodeId(0),
                msg: 9
            }]
        );
    }

    #[test]
    fn protocol_count_mismatch_rejected() {
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![Scripted::new(vec![Action::Sleep])];
        assert!(matches!(
            Network::with_medium(model, protos, 0, OracleSingleHop::new()).err(),
            Some(SimError::ProtocolCountMismatch {
                nodes: 3,
                protocols: 1
            })
        ));
    }

    #[test]
    #[should_panic(expected = "protocol bug")]
    fn out_of_range_local_channel_panics() {
        let mut net = one_channel_net(vec![Scripted::new(vec![Action::Listen(LocalChannel(5))])]);
        net.step();
    }

    #[test]
    fn runs_are_deterministic_for_same_seed() {
        let run = |seed: u64| -> Vec<Vec<Event<u32>>> {
            let model = StaticChannels::global(full_overlap(3, 1).unwrap());
            let protos = vec![
                Scripted::new(vec![Action::Broadcast(LocalChannel(0), 1)]),
                Scripted::new(vec![Action::Broadcast(LocalChannel(0), 2)]),
                Scripted::new(vec![Action::Listen(LocalChannel(0))]),
            ];
            let mut net =
                Network::with_medium(model, protos, seed, OracleSingleHop::new()).unwrap();
            net.run_slots(50);
            net.into_protocols().into_iter().map(|p| p.events).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn activity_record_matches_events() {
        let mut net = one_channel_net(vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 10)]),
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 20)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ]);
        let act = net.step().clone();
        assert_eq!(act.transmissions(), 2);
        assert_eq!(act.deliveries(), 1);
        let ch = act.on_channel(GlobalChannel(0)).unwrap();
        assert!(ch.had_collision());
        assert_eq!(ch.listeners, vec![NodeId(2)]);
        assert!(ch.winner.is_some());
    }

    #[test]
    fn run_returns_done_with_slot_count() {
        let mut net = one_channel_net(vec![
            Scripted::new(vec![Action::Broadcast(LocalChannel(0), 5)]),
            Scripted::new(vec![Action::Listen(LocalChannel(0))]),
        ]);
        let outcome = net.run(10, |n| !n.protocols()[1].events.is_empty());
        assert_eq!(outcome, RunOutcome::Done { slots: 1 });
    }

    #[test]
    fn run_times_out() {
        let mut net = one_channel_net(vec![Scripted::new(vec![Action::Sleep])]);
        let outcome = net.run(5, |_| false);
        assert_eq!(outcome, RunOutcome::Timeout { budget: 5 });
        assert_eq!(outcome.slots(), None);
        assert!(!outcome.is_done());
    }

    /// Done once `decide` has been called `target` times.
    struct DoneAfter {
        target: u32,
        decides: u32,
    }

    impl Protocol<u32> for DoneAfter {
        fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u32> {
            self.decides += 1;
            Action::Sleep
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, _event: Event<u32>) {}
        fn is_done(&self) -> bool {
            self.decides >= self.target
        }
    }

    #[test]
    fn all_done_cache_matches_scan_and_invalidates_on_protocols_mut() {
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = (0..3)
            .map(|_| DoneAfter {
                target: 5,
                decides: 0,
            })
            .collect();
        let mut net = Network::with_medium(model, protos, 0, OracleSingleHop::new()).unwrap();
        assert!(!net.all_done(), "fallback scan before any step");
        let outcome = net.run_to_completion(100);
        assert_eq!(
            outcome,
            RunOutcome::Done { slots: 5 },
            "cached count drives run loops"
        );
        // Mutating protocol state behind the engine's back must
        // invalidate the cache: if the stale count survived, the next
        // all_done would still claim done.
        for p in net.protocols_mut() {
            p.decides = 0;
        }
        assert!(
            !net.all_done(),
            "protocols_mut must invalidate the done cache"
        );
    }

    /// Broadcasts or listens on channel 0 every slot; a listener is
    /// done once it has received a message.
    struct DoneOnReceive {
        broadcast: bool,
        heard: bool,
    }

    impl Protocol<u32> for DoneOnReceive {
        fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u32> {
            if self.broadcast {
                Action::Broadcast(LocalChannel(0), 7)
            } else {
                Action::Listen(LocalChannel(0))
            }
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u32>) {
            self.heard |= matches!(event, Event::Received { .. });
        }
        fn is_done(&self) -> bool {
            self.heard
        }
    }

    #[test]
    fn doneness_flipped_in_observe_is_tallied() {
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = [true, false, false]
            .map(|broadcast| DoneOnReceive {
                broadcast,
                heard: false,
            })
            .into();
        let mut net = Network::with_medium(model, protos, 0, OracleSingleHop::new()).unwrap();
        assert_eq!(net.done_count(), 0);
        net.step_unrecorded();
        // Both listeners turned done in this slot's observe phase.
        assert_eq!(net.done_count(), 2);
        assert!(!net.all_done());
        net.protocols_mut()[0].heard = true;
        assert!(net.all_done(), "the rescan sees the mutated state");
    }
}
