//! The medium layer: pluggable slot-resolution substrates.
//!
//! The paper defines one synchronous slot model (Section 2) that this
//! repo realizes three ways: the abstract collision oracle, its
//! multi-hop generalization, and the footnote-4 decay-backoff stack.
//! A [`Medium`] is the part of the engine that differs between them —
//! given every node's committed tuning and action for the slot, it
//! decides who hears what and records the physical-layer activity. The
//! engine ([`crate::Network`]) keeps everything that is substrate
//! independent: protocol driving, local→global label translation,
//! fault wrappers, tracing, and the `validate` conformance hook.
//! Jamming is a medium layer: [`crate::interference::Jammed`] wraps
//! any medium and hands it the unjammed remainder of the slot.
//!
//! Three implementations ship here. The two single-hop media share one
//! skeleton — one pass gives every participant its provisional event,
//! the contended channels' winners are drawn, only channels with two or
//! more participants are walked again to rewrite events, and channel
//! records are built only for callers that read them — and differ only
//! in the winner rule:
//!
//! - [`OracleSingleHop`] — the paper's Section 2 oracle: one uniformly
//!   random winner per contended channel, success feedback, losers
//!   overhear the winner. Its winner draws consume the `ENGINE` RNG
//!   stream in ascending channel order, so golden traces are
//!   byte-identical to the pre-medium engine.
//! - [`OracleMultihop`] — receiver-centric resolution over a
//!   [`Topology`]: each listener independently hears one uniformly
//!   random transmitting *neighbor* on its channel. On a complete
//!   topology it delegates to [`OracleSingleHop`] outright, making
//!   "multi-hop on a complete graph" literally the single-hop engine.
//! - [`PhysicalDecay`] — no oracle anywhere: every abstract slot
//!   expands into one fixed-length exponential-decay backoff episode
//!   per channel (footnote 4, [`decay_episode`]), on the dedicated
//!   `PHYSICAL` RNG stream. Physical-round counts and failed episodes
//!   are exposed as medium metadata.
//!
//! The same episode also runs on its own, outside any network:
//! [`resolve_contention`] resolves `m ≤ n_max` stations in
//! `O(log² n_max)` rounds w.h.p. with a uniform winner by symmetry,
//! and [`mean_rounds_per_slot`] averages its cost (experiment F10).

use crate::error::SimError;
use crate::ids::{GlobalChannel, NodeId};
use crate::interference::Interference;
use crate::proto::{Action, Event};
use crate::rng::{derive_rng, streams, SimRng};
use crate::topology::Topology;
use crate::trace::{ChannelActivity, SlotActivity};

/// Static facts about a medium that the conformance layer needs in
/// order to know which Section 2 clauses apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediumProfile {
    /// Every channel with at least one broadcaster records a winner.
    /// True for the oracle; false for media where an episode can fail
    /// ([`PhysicalDecay`]) or where winners are per-receiver
    /// ([`OracleMultihop`] on an incomplete topology).
    pub guaranteed_winner: bool,
    /// Recorded winners are reproducible by replaying the `ENGINE`
    /// stream — one uniform draw per channel with at least one
    /// broadcaster, ascending channel order (see
    /// [`crate::conformance::replay_winners`]).
    pub engine_stream_winners: bool,
}

impl MediumProfile {
    /// The profile of the Section 2 collision oracle.
    pub fn oracle() -> Self {
        MediumProfile {
            guaranteed_winner: true,
            engine_stream_winners: true,
        }
    }
}

/// Everything the engine hands a medium for one slot.
///
/// `tuned` lists each non-sleeping node exactly once as
/// `(global_channel, node, is_broadcast)`, in ascending node order,
/// local labels already translated. A wrapping medium such as
/// [`crate::interference::Jammed`] hands its inner medium a filtered
/// copy (the unjammed remainder).
#[derive(Debug)]
pub struct SlotInputs<'a, M> {
    /// The slot being resolved.
    pub slot: u64,
    /// Total node count.
    pub n: usize,
    /// Size of the global channel space.
    pub total_channels: usize,
    /// Each node's committed action, indexed by node. Only the entries
    /// of nodes in `tuned` are this slot's: a node absent from `tuned`
    /// may hold an earlier slot's action, which must be ignored.
    pub actions: &'a [Action<M>],
    /// The participating `(channel, node, is_broadcast)` triples, in
    /// ascending node order.
    pub tuned: &'a [(GlobalChannel, usize, bool)],
    /// Whether the caller reads this slot's [`ChannelActivity`]
    /// records. When `false` the medium may skip building them and
    /// leave `activity.channels` as it found it; the engine then never
    /// exposes them (see [`Medium`]).
    pub records: bool,
}

/// A slot-resolution substrate.
///
/// Given the committed per-node tunings, a medium fills in one
/// [`Event`] per participating node and, when asked, the slot's
/// [`ChannelActivity`] records, drawing any randomness from its own
/// dedicated RNG stream.
///
/// Contract:
///
/// - From the engine, `events` arrives all `None`: the engine sizes it
///   once and its observe phase takes back every event the medium
///   set, visiting only the nodes in `inputs.tuned`. The medium must
///   therefore set `events[i]` for exactly the nodes in
///   `inputs.tuned` — an event left anywhere else would leak into a
///   later slot. A wrapper that filters `tuned` sets the events of the
///   nodes it removes itself.
/// - `activity` arrives with `slot` and `sleepers` set, `jammed` at 0
///   (a jamming wrapper counts its jammed nodes there), and
///   `channels` still holding the records of the last slot
///   that built them (for buffer recycling). When
///   [`SlotInputs::records`] is `true` the medium replaces them with
///   this slot's records, sorted ascending by channel. When it is
///   `false` — [`crate::Network::step_unrecorded`] and the run loops
///   built on it — the medium may skip the records: the events alone
///   drive the protocols, and the engine marks the slot unrecorded.
///   All three media here skip them; a medium that always builds them
///   stays correct.
/// - Records and events never change the random draws: a medium draws
///   the same numbers, in the same order, whether or not it builds
///   records.
/// - All randomness comes from the medium's own stream, reseeded via
///   [`Medium::reseed`] when the network is built — never from the
///   per-node streams, and never from another layer's stream (a
///   jamming wrapper draws only from `JAMMER`).
pub trait Medium<M: Clone> {
    /// Re-derives the medium's RNG stream(s) from the master seed.
    fn reseed(&mut self, master: u64);

    /// Resolves one slot.
    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    );

    /// Which contract clauses this medium satisfies.
    fn profile(&self) -> MediumProfile;

    /// The node count this medium is built for, or `None` (the
    /// default) if it resolves a network of any size. The engine
    /// rejects a channel model of any other size at construction. A
    /// medium that wraps another forwards this to the inner one.
    fn node_count(&self) -> Option<usize> {
        None
    }

    /// The interference model this medium applies, if any (the
    /// conformance validator checks its jam clauses against it).
    /// `None` by default; [`crate::interference::Jammed`] returns its
    /// adversary.
    fn interference(&self) -> Option<&dyn Interference> {
        None
    }
}

fn empty_channel_record() -> ChannelActivity {
    ChannelActivity {
        channel: GlobalChannel(0),
        broadcasters: Vec::new(),
        winner: None,
        listeners: Vec::new(),
    }
}

/// Sentinel for "no winner" in a participant's winner state, and for
/// "no earlier participant" in its chain link.
const NONE: u32 = u32::MAX;

/// A channel's winner state while two or more broadcasters share it
/// and its draw is still to come.
const CONTENDED: u32 = u32::MAX - 1;

/// One participant's link in its channel's chain.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The channel's previous participant, or [`NONE`] for the first.
    prev: u32,
    /// The channel's winner state as of this participant; the latest
    /// participant's is the channel's. [`NONE`] while only listeners
    /// are on the channel, then the lone broadcaster, then
    /// [`CONTENDED`]; after the draws the winner, or [`NONE`] when
    /// nobody got through.
    winner: u32,
}

/// Fills `group` with the `tuned` indices of one channel's
/// participants in ascending node order, walking its chain from `last`.
fn collect_group(links: &[Link], last: u32, group: &mut Vec<u32>) {
    group.clear();
    let mut at = last;
    while at != NONE {
        group.push(at);
        at = links[at as usize].prev;
    }
    group.reverse();
}

/// The single-hop skeleton both single-hop media share: one pass over
/// the participants gives each its provisional event, a winner rule
/// picks each contended channel's winner, and only channels with two
/// or more participants are walked again to rewrite events.
/// [`ChannelActivity`] records are built only when asked.
///
/// Most participants are alone on their channel, and for them the
/// provisional event — [`Event::Delivered`] for a broadcaster,
/// [`Event::Silence`] for a listener — is final. The per-channel state
/// lives in an epoch-stamped table over the model's channel space (so
/// it is never scanned or cleared) and on the channel's latest
/// participant, whose link chains back through the others. Winner draws
/// keep their ascending channel order in the medium's stream with no
/// sort unless a channel is contended (see [`SingleHop::resolve`]).
/// Both paths — with and without records — are allocation-free in
/// steady state (see `crn-sim/tests/alloc.rs`).
#[derive(Debug, Default)]
struct SingleHop {
    /// The current epoch; bumped every slot, so a stale stamp in
    /// `channels` means "inactive this slot".
    epoch: u32,
    /// Per global channel: `(epoch stamp, latest participant)`. The
    /// participant, an index into `tuned` and the head of the channel's
    /// chain through `links`, is valid only when the stamp is current.
    channels: Vec<(u32, u32)>,
    /// Per participant, in `tuned` order.
    links: Vec<Link>,
    /// The channels with at least one broadcaster, in discovery order.
    broadcasting: Vec<GlobalChannel>,
    /// The channels with two or more broadcasters; sorted before the
    /// draws.
    contended: Vec<GlobalChannel>,
    /// The channels with two or more participants.
    shared: Vec<GlobalChannel>,
    /// `lone_runs[j]`: the lone-broadcaster channels between
    /// `contended[j - 1]` and `contended[j]`; the last entry counts
    /// those above every contended channel.
    lone_runs: Vec<u32>,
    /// One channel's participants (see [`collect_group`]).
    group: Vec<u32>,
    /// One contended channel's broadcasters, for the winner rule.
    broadcasters: Vec<NodeId>,
    /// Used only when [`SlotInputs::records`] asks for records.
    records: RecordBuilder,
}

impl SingleHop {
    /// Resolves one slot: `winner` picks each contended channel's
    /// winner from its broadcasters (ascending node order) using `rng`,
    /// and returns the winning broadcaster or `None` when nobody got
    /// through. `rng` advances as if `winner` ran once per channel with
    /// at least one broadcaster, in ascending channel order.
    ///
    /// A winner is delivered to every other node on its channel, and
    /// the winner itself observes [`Event::Delivered`]. On a channel
    /// without a winner, listeners observe [`Event::Silence`] and
    /// broadcasters [`Event::Delivered`]: hearing nothing is all a
    /// broadcaster learns, and on a collision-as-silence radio that is
    /// exactly what winning feels like.
    ///
    /// Under both winner rules a lone broadcaster wins with exactly one
    /// `next_u64`: `gen_range(0..1)` draws once (its rejection
    /// threshold is 0), and so does `decay_episode(1, ..)` (round 0 has
    /// p = 1). So only contended channels need their place in the
    /// stream: they are sorted (usually 0–2 of them), the lone draws
    /// before, between and after them are counted from `broadcasting`,
    /// and those draws are skipped in bulk.
    fn resolve<M: Clone>(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
        rng: &mut SimRng,
        mut winner: impl FnMut(&mut SimRng, &[NodeId]) -> Option<NodeId>,
    ) {
        let tuned = inputs.tuned;
        self.link(inputs.total_channels, tuned, events);

        let contended = &mut self.contended;
        contended.sort_unstable();
        self.lone_runs.clear();
        self.lone_runs.resize(contended.len() + 1, 0);
        for &ch in &self.broadcasting {
            self.lone_runs[contended.partition_point(|&c| c < ch)] += 1;
        }
        for (j, &run) in self.lone_runs.iter().enumerate() {
            // A contended channel sits in `broadcasting` too, at the
            // head of its own run.
            let lone = run - u32::from(j < contended.len());
            for _ in 0..lone {
                rng.next_u64();
            }
            if let Some(&ch) = contended.get(j) {
                let last = self.channels[ch.index()].1;
                collect_group(&self.links, last, &mut self.group);
                self.broadcasters.clear();
                self.broadcasters
                    .extend(self.group.iter().filter_map(|&at| {
                        let (_, node, is_broadcast) = tuned[at as usize];
                        is_broadcast.then_some(NodeId(node as u32))
                    }));
                self.links[last as usize].winner =
                    winner(rng, &self.broadcasters).map_or(NONE, |w| w.0);
            }
        }

        // Rewrite the events of every shared channel with a winner, in
        // ascending node order; everyone else keeps the provisional one.
        for &ch in &self.shared {
            let last = self.channels[ch.index()].1;
            let winner = self.links[last as usize].winner;
            if winner == NONE {
                continue;
            }
            let Action::Broadcast(_, msg) = &inputs.actions[winner as usize] else {
                unreachable!("winner must have broadcast")
            };
            let from = NodeId(winner);
            collect_group(&self.links, last, &mut self.group);
            for &at in &self.group {
                let (_, node, is_broadcast) = tuned[at as usize];
                if node != from.index() {
                    let msg = msg.clone();
                    events[node] = Some(if is_broadcast {
                        Event::Lost { winner: from, msg }
                    } else {
                        Event::Received { from, msg }
                    });
                }
            }
        }

        if inputs.records {
            self.fill_records(tuned, true, &mut activity.channels);
        }
    }

    /// The one pass over `tuned`: gives each participant its
    /// provisional event, stamps and chains it on its channel, and lists
    /// the broadcasting, contended and shared channels. Costs `O(T)` for
    /// `T` participants: the channel table is sized once, then touched
    /// once per participant.
    fn link<M>(
        &mut self,
        total_channels: usize,
        tuned: &[(GlobalChannel, usize, bool)],
        events: &mut [Option<Event<M>>],
    ) {
        if self.channels.len() < total_channels {
            self.channels.resize(total_channels, (0, 0));
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(epoch) => epoch,
            None => {
                // After 2^32 - 1 slots, forget every stamp once.
                self.channels.fill((0, 0));
                1
            }
        };
        let epoch = self.epoch;
        // The participant-sized lists are reserved whole, not grown by
        // doubling: in every new network that growth fragmented the heap
        // (peak RSS +190 KB over 12,000 COGCAST trials at n = 1024).
        self.links.clear();
        self.links.reserve(tuned.len());
        self.broadcasting.clear();
        self.broadcasting.reserve(tuned.len());
        self.contended.clear();
        self.shared.clear();
        self.shared.reserve(tuned.len());
        for (at, &(ch, node, is_broadcast)) in tuned.iter().enumerate() {
            events[node] = Some(if is_broadcast {
                Event::Delivered
            } else {
                Event::Silence
            });
            let (stamp, last) = &mut self.channels[ch.index()];
            let mut link = Link {
                prev: NONE,
                winner: NONE,
            };
            if *stamp == epoch {
                let latest = self.links[*last as usize];
                if latest.prev == NONE {
                    self.shared.push(ch);
                }
                link = Link {
                    prev: *last,
                    winner: latest.winner,
                };
            }
            (*stamp, *last) = (epoch, at as u32);
            if is_broadcast && link.winner != CONTENDED {
                if link.winner == NONE {
                    link.winner = node as u32;
                    self.broadcasting.push(ch);
                } else {
                    link.winner = CONTENDED;
                    self.contended.push(ch);
                }
            }
            self.links.push(link);
        }
    }

    /// Rebuilds `channels` as this slot's records after
    /// [`SingleHop::link`], one per active channel in ascending channel
    /// order, each listing its participants in ascending node order.
    /// With `winners`, each record carries the winner the draws left on
    /// its channel's latest participant; without, none.
    ///
    /// Records are reused in place when their capacity fits the group
    /// and is at most 4× too large; otherwise they are swapped with a
    /// spare record of the right capacity class. Large records (busy
    /// shared channels) therefore stay available to large groups
    /// instead of drifting to one-node groups, and recycling stops
    /// allocating once every class holds enough records.
    fn fill_records(
        &mut self,
        tuned: &[(GlobalChannel, usize, bool)],
        winners: bool,
        channels: &mut Vec<ChannelActivity>,
    ) {
        let builder = &mut self.records;
        // A channel's first participant is the one with no chain link.
        builder.order.clear();
        let firsts = tuned.iter().zip(&self.links);
        let firsts = firsts.filter(|(_, link)| link.prev == NONE);
        builder.order.extend(firsts.map(|(&(ch, _, _), _)| ch));
        builder.order.sort_unstable();
        while channels.len() > builder.order.len() {
            let record = channels.pop().expect("longer than order");
            builder.retire_record(record);
        }
        for i in 0..builder.order.len() {
            let ch = builder.order[i];
            let last = self.channels[ch.index()].1;
            collect_group(&self.links, last, &mut self.group);
            let broadcasters = self.group.iter().filter(|&&at| tuned[at as usize].2);
            let broadcasters = broadcasters.count();
            let size = broadcasters
                .max(self.group.len() - broadcasters)
                .next_power_of_two();
            let want = size.trailing_zeros() as usize + 1;
            if i == channels.len() {
                let record = builder.take_record(want);
                channels.push(record);
            } else {
                let have = record_class(&channels[i]);
                if have < want || have > want + 2 {
                    let record = builder.take_record(want);
                    let old = std::mem::replace(&mut channels[i], record);
                    builder.retire_record(old);
                }
            }
            let record = &mut channels[i];
            record.channel = ch;
            let winner = self.links[last as usize].winner;
            record.winner = (winners && winner != NONE).then_some(NodeId(winner));
            record.broadcasters.clear();
            record.broadcasters.reserve_exact(size);
            record.listeners.clear();
            record.listeners.reserve_exact(size);
            for &at in &self.group {
                let (_, node, is_broadcast) = tuned[at as usize];
                let side = if is_broadcast {
                    &mut record.broadcasters
                } else {
                    &mut record.listeners
                };
                side.push(NodeId(node as u32));
            }
        }
    }
}

/// The spare-record class of `record`: the bit length of its smaller
/// vector capacity, so class `j + 1` holds any group of up to `2^j`
/// nodes a side.
fn record_class(record: &ChannelActivity) -> usize {
    let capacity = record
        .broadcasters
        .capacity()
        .min(record.listeners.capacity());
    (usize::BITS - capacity.leading_zeros()) as usize
}

/// The state [`SingleHop::fill_records`] keeps between slots, for the
/// media whose callers read records: the active-channel list and the
/// earlier records it recycles.
#[derive(Debug, Default)]
struct RecordBuilder {
    /// The slot's active channels, sorted.
    order: Vec<GlobalChannel>,
    /// Channel records not in use this slot, kept for their vectors'
    /// capacity; indexed by [`record_class`] of the smaller capacity.
    spare_records: Vec<Vec<ChannelActivity>>,
    /// Records created so far (in use plus spare).
    records_made: usize,
}

impl RecordBuilder {
    /// A spare record of at least class `want`, else the largest one
    /// below it, else a new one.
    fn take_record(&mut self, want: usize) -> ChannelActivity {
        let classes = self.spare_records.len();
        let found = (want..classes)
            .chain((0..want.min(classes)).rev())
            .find(|&class| !self.spare_records[class].is_empty());
        if let Some(class) = found {
            return self.spare_records[class].pop().expect("non-empty class");
        }
        // More channels than records: double the stock, as a Vec grows,
        // so a new high-water mark of active channels rarely allocates.
        let more = self.records_made.max(1);
        self.records_made += more;
        self.spare_class(1)
            .extend((1..more).map(|_| ChannelActivity {
                broadcasters: Vec::with_capacity(1),
                listeners: Vec::with_capacity(1),
                ..empty_channel_record()
            }));
        empty_channel_record()
    }

    fn spare_class(&mut self, class: usize) -> &mut Vec<ChannelActivity> {
        if self.spare_records.len() <= class {
            self.spare_records.resize_with(class + 1, Vec::new);
        }
        &mut self.spare_records[class]
    }

    fn retire_record(&mut self, record: ChannelActivity) {
        self.spare_class(record_class(&record)).push(record);
    }
}

/// The paper's Section 2 collision oracle — the default medium.
///
/// One uniformly random broadcaster per contended channel wins; all
/// listeners on the channel receive its message; the winner gets
/// success feedback and the losers overhear the winning message.
///
/// This is the single-hop skeleton plus one uniform draw per channel
/// with broadcasters, from the `ENGINE` stream in ascending channel
/// order; a lone broadcaster keeps its provisional success, and its
/// draw is skipped as the one raw draw it would consume.
/// [`ChannelActivity`] records are built only when
/// [`SlotInputs::records`] asks for them.
#[derive(Debug)]
pub struct OracleSingleHop {
    engine_rng: SimRng,
    skeleton: SingleHop,
}

impl Default for OracleSingleHop {
    fn default() -> Self {
        OracleSingleHop {
            engine_rng: derive_rng(0, streams::ENGINE),
            skeleton: SingleHop::default(),
        }
    }
}

impl OracleSingleHop {
    /// A fresh oracle (the RNG is re-derived when the network seeds it).
    pub fn new() -> Self {
        OracleSingleHop::default()
    }
}

impl<M: Clone> Medium<M> for OracleSingleHop {
    fn reseed(&mut self, master: u64) {
        self.engine_rng = derive_rng(master, streams::ENGINE);
    }

    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    ) {
        self.skeleton.resolve(
            inputs,
            events,
            activity,
            &mut self.engine_rng,
            |rng, broadcasters| Some(broadcasters[rng.gen_range(0..broadcasters.len())]),
        );
    }

    fn profile(&self) -> MediumProfile {
        MediumProfile::oracle()
    }
}

/// Receiver-centric resolution over a connectivity [`Topology`].
///
/// A transmission on channel `q` reaches only *neighbors* tuned to
/// `q`. For each listener, one of its transmitting neighbors on the
/// channel — uniformly random, independent per listener — gets
/// through, which is the natural multi-hop reading of the paper's
/// backoff abstraction. Transmitter-side feedback does not survive the
/// generalization (a node cannot know which of its neighbors heard
/// it), so transmitters always observe [`Event::Delivered`].
///
/// On a **complete** topology the medium delegates wholesale to
/// [`OracleSingleHop`]: the single-hop oracle *is* the complete-graph
/// special case, so traces (and golden digests) match the single-hop
/// engine exactly.
#[derive(Debug)]
pub struct OracleMultihop {
    topology: Topology,
    is_complete: bool,
    inner: OracleSingleHop,
    rng: SimRng,
    /// Per node: `(channel, is_broadcast)` if tuned this slot. Between
    /// slots every entry is `None`: a slot resets only the entries it
    /// set.
    node_tuned: Vec<Option<(GlobalChannel, bool)>>,
    /// Scratch: a listener's transmitting neighbors on its channel.
    senders: Vec<usize>,
}

impl OracleMultihop {
    /// A multi-hop oracle over `topology` (the RNG is re-derived when
    /// the network seeds it). The network it serves must have exactly
    /// `topology.len()` nodes; construction rejects any other size.
    pub fn new(topology: Topology) -> Self {
        let is_complete = topology.is_complete();
        OracleMultihop {
            topology,
            is_complete,
            inner: OracleSingleHop::new(),
            rng: derive_rng(0, streams::ENGINE),
            node_tuned: Vec::new(),
            senders: Vec::new(),
        }
    }

    /// The connectivity topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl<M: Clone> Medium<M> for OracleMultihop {
    fn reseed(&mut self, master: u64) {
        Medium::<M>::reseed(&mut self.inner, master);
        self.rng = derive_rng(master, streams::ENGINE);
    }

    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    ) {
        if self.is_complete {
            // The single-hop oracle is the complete-graph special case.
            return self.inner.resolve(inputs, events, activity);
        }

        if inputs.records {
            // Chains the participants by channel for the records; the
            // loop below overwrites the provisional events this writes.
            let skeleton = &mut self.inner.skeleton;
            skeleton.link(inputs.total_channels, inputs.tuned, events);
        }
        if self.node_tuned.len() != inputs.n {
            self.node_tuned.clear();
            self.node_tuned.resize(inputs.n, None);
        }
        for &(ch, node, is_broadcast) in inputs.tuned {
            self.node_tuned[node] = Some((ch, is_broadcast));
        }

        // Per-receiver winner draws, ascending node order (the draw
        // order the standalone multi-hop engine always used).
        for &(my_channel, i, is_broadcast) in inputs.tuned {
            events[i] = Some(if is_broadcast {
                Event::Delivered
            } else {
                self.senders.clear();
                self.senders.extend(
                    self.topology
                        .neighbors(i)
                        .iter()
                        .copied()
                        .filter(|&j| self.node_tuned[j] == Some((my_channel, true))),
                );
                if self.senders.is_empty() {
                    Event::Silence
                } else {
                    let w = self.senders[self.rng.gen_range(0..self.senders.len())];
                    let Action::Broadcast(_, msg) = &inputs.actions[w] else {
                        unreachable!("sender filter guarantees a broadcast")
                    };
                    Event::Received {
                        from: NodeId(w as u32),
                        msg: msg.clone(),
                    }
                }
            });
        }

        for &(_, node, _) in inputs.tuned {
            self.node_tuned[node] = None;
        }

        // Physical-layer record: who was tuned where, from the
        // single-hop skeleton's record builder. Winners are per-receiver
        // in this medium, so channel records carry none
        // (`guaranteed_winner: false`).
        if inputs.records {
            let skeleton = &mut self.inner.skeleton;
            skeleton.fill_records(inputs.tuned, false, &mut activity.channels);
        }
    }

    fn profile(&self) -> MediumProfile {
        if self.is_complete {
            MediumProfile::oracle()
        } else {
            MediumProfile {
                guaranteed_winner: false,
                engine_stream_winners: false,
            }
        }
    }

    fn node_count(&self) -> Option<usize> {
        Some(self.topology.len())
    }
}

/// Number of rounds per decay epoch for a population bound `n_max`
/// (footnote 4): `⌈log₂ n_max⌉ + 1`.
///
/// # Examples
///
/// ```
/// use crn_sim::medium::epoch_len;
/// assert_eq!(epoch_len(1), 1);
/// assert_eq!(epoch_len(8), 4);
/// assert_eq!(epoch_len(9), 5);
/// ```
pub fn epoch_len(n_max: usize) -> u32 {
    (n_max.max(1) as f64).log2().ceil() as u32 + 1
}

/// A recommended round budget that succeeds w.h.p.: `8·epoch_len² + 8`
/// (constant-probability success per epoch × `O(log n)` epochs for
/// high probability).
pub fn recommended_rounds(n_max: usize) -> u64 {
    let e = epoch_len(n_max) as u64;
    8 * e * e + 8
}

/// Runs one exponential-decay backoff episode among `m` contenders on
/// a collision-as-silence channel (footnote 4) — the one episode loop
/// every decay-backoff path in the workspace runs.
///
/// In round `j` of each `epoch`-round epoch (0-based), every contender
/// transmits with probability `2^{-j}`, one `gen_bool` draw per
/// contender per round. The first round with exactly one transmitter
/// ends the episode: everyone else received that message and aborts.
/// Returns that contender's index and the rounds used, or `None` and
/// `max_rounds` if no round had a lone transmitter.
///
/// # Examples
///
/// ```
/// use crn_sim::medium::{decay_episode, epoch_len, recommended_rounds};
/// use crn_sim::SimRng;
///
/// let mut rng = SimRng::seed_from_u64(5);
/// // A lone contender transmits with probability 1 in round 0.
/// assert_eq!(decay_episode(1, epoch_len(8), recommended_rounds(8), &mut rng), (Some(0), 1));
/// let (winner, rounds) = decay_episode(6, epoch_len(8), recommended_rounds(8), &mut rng);
/// assert!(winner.is_some_and(|w| w < 6) && rounds <= recommended_rounds(8));
/// ```
pub fn decay_episode(
    m: usize,
    epoch: u32,
    max_rounds: u64,
    rng: &mut SimRng,
) -> (Option<usize>, u64) {
    for round in 0..max_rounds {
        let p = 0.5f64.powi((round % u64::from(epoch.max(1))) as i32);
        let (mut transmitters, mut last) = (0usize, 0usize);
        for i in 0..m {
            if rng.gen_bool(p) {
                transmitters += 1;
                last = i;
            }
        }
        if transmitters == 1 {
            return (Some(last), round + 1);
        }
    }
    (None, max_rounds)
}

/// The result of resolving one contention episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionResult {
    /// The station whose message got through.
    pub winner: usize,
    /// Physical rounds consumed before the success.
    pub rounds: u64,
}

/// Runs decay backoff among `m` contenders until one succeeds, or
/// `max_rounds` pass: [`decay_episode`] behind argument checks, on a
/// population bound `n_max` — the standalone contention resolution
/// that `crn backoff` and experiment F10 measure.
///
/// Returns `Ok(None)` only if the round budget is exhausted (for sane
/// budgets like `8·epoch_len(n_max)²` this is vanishingly rare).
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `m == 0` or `m > n_max`.
///
/// # Examples
///
/// ```
/// use crn_sim::medium::resolve_contention;
/// use crn_sim::SimRng;
/// let mut rng = SimRng::seed_from_u64(1);
/// let r = resolve_contention(5, 16, 10_000, &mut rng)?.unwrap();
/// assert!(r.winner < 5);
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn resolve_contention(
    m: usize,
    n_max: usize,
    max_rounds: u64,
    rng: &mut SimRng,
) -> Result<Option<ContentionResult>, SimError> {
    if m == 0 {
        return Err(SimError::InvalidParams {
            reason: "need at least one contender".into(),
        });
    }
    if m > n_max {
        return Err(SimError::InvalidParams {
            reason: format!("m = {m} exceeds the population bound n_max = {n_max}"),
        });
    }
    Ok(match decay_episode(m, epoch_len(n_max), max_rounds, rng) {
        (Some(winner), rounds) => Some(ContentionResult { winner, rounds }),
        (None, _) => None,
    })
}

/// Mean physical rounds per abstract slot for `m` contenders, over
/// `trials` seeded episodes of [`recommended_rounds`]`(n_max)` rounds
/// at most — the series behind experiment F10.
///
/// Returns `NaN` when no episode completes (including `m == 0`).
///
/// # Examples
///
/// ```
/// use crn_sim::medium::mean_rounds_per_slot;
/// assert_eq!(mean_rounds_per_slot(1, 8, 10, 0), 1.0);
/// assert!(mean_rounds_per_slot(0, 8, 10, 0).is_nan());
/// ```
pub fn mean_rounds_per_slot(m: usize, n_max: usize, trials: usize, seed: u64) -> f64 {
    let mut total = 0u64;
    let mut done = 0usize;
    for t in 0..trials {
        let mut rng = SimRng::seed_from_u64(seed.wrapping_add(t as u64));
        if let Ok(Some(r)) = resolve_contention(m, n_max, recommended_rounds(n_max), &mut rng) {
            total += r.rounds;
            done += 1;
        }
    }
    if done == 0 {
        f64::NAN
    } else {
        total as f64 / done as f64
    }
}

/// The footnote-4 physical realization: no collision oracle anywhere.
///
/// Every abstract slot expands into one fixed-length exponential-decay
/// backoff episode per channel, all channels in parallel: in round `j`
/// of an epoch every still-active broadcaster transmits with
/// probability `2^{-j}`; the first *lone* transmission wins — its
/// message is received by every listener and every losing broadcaster
/// on the channel (who abort), and the winner, having heard nothing,
/// knows it succeeded. The episode length is fixed at
/// [`recommended_rounds`]`(n)` rounds so channels stay synchronized (a
/// node cannot observe when *other* channels finish).
///
/// An episode can **fail** — no lone transmission within the budget —
/// which is the abstract model's "with high probability" caveat made
/// concrete: nobody on the channel hears anything, so listeners
/// observe [`Event::Silence`] and every broadcaster observes
/// [`Event::Delivered`] (a false positive — hearing nothing is exactly
/// what winning feels like on this radio). The channel records no
/// winner and [`PhysicalDecay::failed_episodes`] increments.
///
/// Resolution is the single-hop skeleton [`OracleSingleHop`] uses, with
/// one [`decay_episode`] per channel with broadcasters (ascending
/// channel order, broadcasters in ascending node order) in place of the
/// oracle's uniform draw. A lone broadcaster's episode is one
/// `gen_bool(1.0)` it always wins, so the skeleton skips it as one raw
/// draw; a failed episode leaves its channel's provisional events
/// (broadcasters delivered, listeners silent) as they are. Channel
/// records are built only when [`SlotInputs::records`] asks for them.
///
/// All randomness comes from the dedicated `PHYSICAL` stream
/// (docs/RNG_STREAMS.md), never from the oracle's `ENGINE` stream.
#[derive(Debug)]
pub struct PhysicalDecay {
    rng: SimRng,
    physical_rounds: u64,
    failed_episodes: u64,
    rounds_per_slot: u64,
    skeleton: SingleHop,
}

impl Default for PhysicalDecay {
    fn default() -> Self {
        PhysicalDecay {
            rng: derive_rng(0, streams::PHYSICAL),
            physical_rounds: 0,
            failed_episodes: 0,
            rounds_per_slot: 0,
            skeleton: SingleHop::default(),
        }
    }
}

impl PhysicalDecay {
    /// A fresh physical medium (the RNG is re-derived when the network
    /// seeds it).
    pub fn new() -> Self {
        PhysicalDecay::default()
    }

    /// Physical rounds consumed so far (`slots × rounds_per_slot`).
    pub fn physical_rounds(&self) -> u64 {
        self.physical_rounds
    }

    /// Channel-episodes that ended without a lone transmission.
    pub fn failed_episodes(&self) -> u64 {
        self.failed_episodes
    }

    /// Rounds in one abstract slot (the fixed episode length `R`),
    /// as of the most recent slot; 0 before the first slot.
    pub fn rounds_per_slot(&self) -> u64 {
        self.rounds_per_slot
    }
}

impl<M: Clone> Medium<M> for PhysicalDecay {
    fn reseed(&mut self, master: u64) {
        self.rng = derive_rng(master, streams::PHYSICAL);
        self.physical_rounds = 0;
        self.failed_episodes = 0;
    }

    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    ) {
        // Fixed-length episodes keep the channels synchronized: every
        // abstract slot costs R physical rounds no matter how early
        // any one channel's episode succeeds.
        let rounds = recommended_rounds(inputs.n);
        self.rounds_per_slot = rounds;
        self.physical_rounds += rounds;
        let epoch = epoch_len(inputs.n);
        let failed = &mut self.failed_episodes;
        self.skeleton.resolve(
            inputs,
            events,
            activity,
            &mut self.rng,
            |rng, broadcasters| {
                let (won, _) = decay_episode(broadcasters.len(), epoch, rounds, rng);
                if won.is_none() {
                    *failed += 1;
                }
                won.map(|i| broadcasters[i])
            },
        );
    }

    fn profile(&self) -> MediumProfile {
        MediumProfile {
            guaranteed_winner: false,
            engine_stream_winners: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{full_overlap, shared_core};
    use crate::channel_model::StaticChannels;
    use crate::ids::LocalChannel;
    use crate::proto::{NodeCtx, Protocol};
    use crate::{Network, OracleSingleHop};
    use proptest::prelude::*;

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
    fn lone_broadcaster_draws_are_one_next_u64() {
        // `SingleHop::resolve` skips each lone broadcaster's draw as
        // exactly one `next_u64`. That holds only while `SimRng`
        // samples `gen_range(0..1)` and `gen_bool(1.0)` with one raw
        // draw each; an edit to `crate::rng` could otherwise shift every
        // ENGINE and PHYSICAL stream unnoticed.
        for seed in 0..32 {
            let fresh = derive_rng(seed, streams::ENGINE);
            let mut once = fresh.clone();
            once.next_u64();
            let mut rng = fresh.clone();
            assert_eq!(rng.gen_range(0..1usize), 0);
            assert_eq!(rng, once, "gen_range(0..1), seed {seed}");
            let mut rng = fresh.clone();
            assert!(rng.gen_bool(1.0));
            assert_eq!(rng, once, "gen_bool(1.0), seed {seed}");
            for n in [1, 2, 48, 1024, 1 << 20] {
                let mut rng = fresh.clone();
                let episode = decay_episode(1, epoch_len(n), recommended_rounds(n), &mut rng);
                assert_eq!(episode, (Some(0), 1));
                assert_eq!(rng, once, "decay_episode(1, ..), n {n}, seed {seed}");
            }
        }
    }

    #[test]
    fn oracle_epoch_wraparound_forgets_stale_stamps() {
        for records in [true, false] {
            epoch_wraparound_forgets_stale_stamps(records);
        }
    }

    fn epoch_wraparound_forgets_stale_stamps(records: bool) {
        // Two listeners, one broadcaster, alternating channels: a stale
        // stamp surviving the wrap would merge the two slots' groups.
        let actions = vec![
            Action::Broadcast(LocalChannel(0), 5u8),
            Action::Listen(LocalChannel(0)),
            Action::Listen(LocalChannel(0)),
        ];
        let resolve_four = |oracle: &mut OracleSingleHop| {
            let mut out = Vec::new();
            for slot in 0..4u64 {
                let ch = GlobalChannel((slot % 2) as u32);
                let tuned = [(ch, 0, true), (ch, 1, false), (GlobalChannel(1), 2, false)];
                let mut events = vec![None; 3];
                let mut activity = SlotActivity::default();
                let inputs = SlotInputs {
                    slot,
                    n: 3,
                    total_channels: 2,
                    actions: &actions,
                    tuned: &tuned,
                    records,
                };
                Medium::resolve(oracle, &inputs, &mut events, &mut activity);
                out.push((events, activity));
            }
            out
        };
        let mut wrapping = OracleSingleHop::new();
        wrapping.skeleton.epoch = u32::MAX - 1;
        assert_eq!(
            resolve_four(&mut wrapping),
            resolve_four(&mut OracleSingleHop::new())
        );
        assert_eq!(
            wrapping.skeleton.epoch, 3,
            "the epoch restarted after the wrap"
        );
    }

    /// One random slot on channels `0..channels`: each channel is
    /// empty, listener-only, a lone broadcaster with 0–3 listeners, or
    /// contended by 2–4 broadcasters with 0–2 listeners. With
    /// `sleepers` sleepers, shuffled over the node ids and capped at 64
    /// nodes. Node `i` broadcasts message `i`.
    fn random_slot(rng: &mut SimRng, channels: u32, sleepers: usize) -> Vec<Action<u8>> {
        let mut roles = vec![None; sleepers];
        for ch in 0..channels {
            let (broadcasters, listeners) = match rng.gen_range(0..4) {
                0 => (0, 0),
                1 => (0, rng.gen_range(1..=3)),
                2 => (1, rng.gen_range(0..=3)),
                _ => (rng.gen_range(2..=4), rng.gen_range(0..=2)),
            };
            roles.extend((0..broadcasters).map(|_| Some((ch, true))));
            roles.extend((0..listeners).map(|_| Some((ch, false))));
        }
        rng.shuffle(&mut roles);
        roles.truncate(64);
        let action = |(i, role)| match role {
            None => Action::Sleep,
            Some((ch, true)) => Action::Broadcast(LocalChannel(ch), i as u8),
            Some((ch, false)) => Action::Listen(LocalChannel(ch)),
        };
        roles.into_iter().enumerate().map(action).collect()
    }

    /// Section 2 resolution written the plain way: a map from channel to
    /// its broadcasters and listeners, and one `winner` call per channel
    /// with a broadcaster, in ascending channel order.
    fn reference_resolve(
        actions: &[Action<u8>],
        rng: &mut SimRng,
        mut winner: impl FnMut(&mut SimRng, &[NodeId]) -> Option<NodeId>,
    ) -> (Vec<Option<Event<u8>>>, Vec<ChannelActivity>) {
        let mut by_channel = std::collections::BTreeMap::new();
        for (i, action) in actions.iter().enumerate() {
            if let Some(local) = action.channel() {
                let (broadcasters, listeners): &mut (Vec<_>, Vec<_>) =
                    by_channel.entry(GlobalChannel(local.0)).or_default();
                let side = if action.is_broadcast() {
                    broadcasters
                } else {
                    listeners
                };
                side.push(NodeId(i as u32));
            }
        }
        let mut events = vec![None; actions.len()];
        let mut records = Vec::new();
        for (channel, (broadcasters, listeners)) in by_channel {
            let won = if broadcasters.is_empty() {
                None
            } else {
                winner(rng, &broadcasters)
            };
            let msg = |w: NodeId| match &actions[w.index()] {
                Action::Broadcast(_, msg) => *msg,
                _ => unreachable!("winner must have broadcast"),
            };
            for &b in &broadcasters {
                events[b.index()] = Some(match won {
                    Some(w) if w != b => Event::Lost {
                        winner: w,
                        msg: msg(w),
                    },
                    _ => Event::Delivered,
                });
            }
            for &l in &listeners {
                events[l.index()] = Some(match won {
                    Some(w) => Event::Received {
                        from: w,
                        msg: msg(w),
                    },
                    None => Event::Silence,
                });
            }
            records.push(ChannelActivity {
                channel,
                broadcasters,
                winner: won,
                listeners,
            });
        }
        (events, records)
    }

    /// Resolves three random slots on one medium that builds records and
    /// one that does not, and checks both against
    /// [`reference_resolve`]: every event, every record, and the RNG.
    fn check_against_reference<Med: Medium<u8>>(
        (channels, sleepers, seed): (u32, usize, u64),
        new: fn() -> Med,
        rng_of: fn(&Med) -> &SimRng,
        stream: u64,
        rule: fn(usize, &mut SimRng, &[NodeId]) -> Option<NodeId>,
    ) -> Result<(), TestCaseError> {
        let mut slots = SimRng::seed_from_u64(seed);
        let (mut recorded, mut lean) = (new(), new());
        recorded.reseed(seed);
        lean.reseed(seed);
        let mut reference_rng = derive_rng(seed, stream);
        let mut activity = SlotActivity::default();
        for slot in 0..3 {
            let actions = random_slot(&mut slots, channels, sleepers);
            let n = actions.len();
            let tuned: Vec<_> = (actions.iter().enumerate())
                .filter_map(|(i, a)| Some((GlobalChannel(a.channel()?.0), i, a.is_broadcast())))
                .collect();
            let (want_events, want_records) =
                reference_resolve(&actions, &mut reference_rng, |rng, b| rule(n, rng, b));
            for (medium, records) in [(&mut recorded, true), (&mut lean, false)] {
                let inputs = SlotInputs {
                    slot,
                    n,
                    total_channels: 16,
                    actions: &actions,
                    tuned: &tuned,
                    records,
                };
                let mut events = vec![None; n];
                medium.resolve(&inputs, &mut events, &mut activity);
                prop_assert_eq!(&events, &want_events, "slot {}, records {}", slot, records);
                if records {
                    prop_assert_eq!(&activity.channels, &want_records, "slot {}", slot);
                }
                prop_assert_eq!(rng_of(medium), &reference_rng, "slot {}", slot);
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn single_hop_media_match_a_reference_resolver(
            channels in 1u32..=16,
            sleepers in 0usize..8,
            seed: u64,
        ) {
            let case = (channels, sleepers, seed);
            check_against_reference(
                case,
                OracleSingleHop::new,
                |oracle| &oracle.engine_rng,
                streams::ENGINE,
                |_, rng, broadcasters| Some(broadcasters[rng.gen_range(0..broadcasters.len())]),
            )?;
            check_against_reference(
                case,
                PhysicalDecay::new,
                |physical| &physical.rng,
                streams::PHYSICAL,
                |n, rng, broadcasters| {
                    let episode = decay_episode(broadcasters.len(), epoch_len(n), recommended_rounds(n), rng);
                    episode.0.map(|i| broadcasters[i])
                },
            )?;
        }
    }

    #[test]
    fn epoch_len_is_log2_plus_one() {
        assert_eq!(epoch_len(0), 1);
        assert_eq!(epoch_len(2), 2);
        assert_eq!(epoch_len(1024), 11);
    }

    #[test]
    fn physical_decay_delivers_lone_broadcast() {
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 9)),
            fixed(Action::Listen(LocalChannel(0))),
            fixed(Action::Listen(LocalChannel(0))),
        ];
        let mut net = Network::with_medium(model, protos, 5, PhysicalDecay::new()).unwrap();
        net.step();
        assert_eq!(
            net.medium().physical_rounds(),
            net.medium().rounds_per_slot()
        );
        let p = net.into_protocols();
        assert_eq!(p[0].heard, vec![Event::Delivered]);
        assert_eq!(
            p[1].heard,
            vec![Event::Received {
                from: NodeId(0),
                msg: 9
            }]
        );
    }

    #[test]
    fn physical_decay_charges_fixed_rounds_per_slot() {
        let model = StaticChannels::global(full_overlap(4, 2).unwrap());
        let protos = (0..4)
            .map(|_| fixed(Action::Broadcast(LocalChannel(0), 1)))
            .collect();
        let mut net = Network::with_medium(model, protos, 9, PhysicalDecay::new()).unwrap();
        for _ in 0..10 {
            net.step();
        }
        let med = net.medium();
        assert_eq!(med.physical_rounds(), 10 * med.rounds_per_slot());
        assert_eq!(med.rounds_per_slot(), recommended_rounds(4));
    }

    #[test]
    fn physical_decay_winner_is_roughly_uniform() {
        // Two persistent contenders: decay symmetry should give each
        // about half the wins — the property that justifies the
        // oracle's uniform pick.
        let model = StaticChannels::global(full_overlap(2, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 1)),
            fixed(Action::Broadcast(LocalChannel(0), 2)),
        ];
        let mut net = Network::with_medium(model, protos, 31, PhysicalDecay::new()).unwrap();
        for _ in 0..2000 {
            net.step();
        }
        let p = net.into_protocols();
        let wins0 = p[0]
            .heard
            .iter()
            .filter(|e| matches!(e, Event::Delivered))
            .count();
        assert!(
            (700..=1300).contains(&wins0),
            "physical winner badly skewed: {wins0}/2000"
        );
    }

    /// COGCAST in miniature: informed nodes broadcast on a uniformly
    /// random local channel, the rest listen on one, and a listener
    /// that receives anything becomes informed.
    struct Hopper {
        informed: bool,
    }

    impl Protocol<u8> for Hopper {
        fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<u8> {
            let ch = LocalChannel(rng.gen_range(0..ctx.c as u32));
            if self.informed {
                Action::Broadcast(ch, 1)
            } else {
                Action::Listen(ch)
            }
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u8>) {
            self.informed |= matches!(event, Event::Received { .. });
        }
    }

    /// Runs hoppers on `shared_core(n, c, k)` (local labels, node 0
    /// informed) until everyone is informed, returning the informed
    /// count after each slot and the medium.
    fn hop_to_everyone<Med: Medium<u8>>(
        (n, c, k): (usize, usize, usize),
        seed: u64,
        medium: Med,
    ) -> (Vec<usize>, Med) {
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        let protos = (0..n).map(|i| Hopper { informed: i == 0 }).collect();
        let mut net = Network::with_medium(model, protos, seed, medium).unwrap();
        let mut informed_per_slot = Vec::new();
        while informed_per_slot.last() != Some(&n) {
            assert!(
                informed_per_slot.len() < 100_000,
                "seed {seed} never finished"
            );
            net.step_unrecorded();
            informed_per_slot.push(net.protocols().iter().filter(|p| p.informed).count());
        }
        (informed_per_slot, net.into_medium())
    }

    #[test]
    fn physical_decay_episodes_do_not_fail_at_small_n() {
        for seed in 0..5 {
            let (_, medium) = hop_to_everyone((16, 6, 2), seed, PhysicalDecay::new());
            assert_eq!(
                medium.failed_episodes(),
                0,
                "episodes should not fail at n=16 (seed {seed})"
            );
        }
    }

    #[test]
    fn physical_decay_informed_counts_are_monotone() {
        let (informed, _) = hop_to_everyone((20, 5, 2), 7, PhysicalDecay::new());
        for w in informed.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*informed.last().unwrap(), 20);
    }

    #[test]
    fn physical_decay_slot_counts_match_the_oracle_in_distribution() {
        // The substitution-preservation check: mean completion in
        // abstract slots over decay backoff should be close to the
        // collision oracle's for the same hopping protocol.
        let (mut physical_total, mut oracle_total) = (0, 0);
        for seed in 0..30 {
            physical_total += hop_to_everyone((20, 6, 2), seed, PhysicalDecay::new())
                .0
                .len();
            oracle_total += hop_to_everyone((20, 6, 2), seed, OracleSingleHop::new())
                .0
                .len();
        }
        let ratio = physical_total as f64 / oracle_total as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "physical medium diverges from the oracle model: ratio {ratio}"
        );
    }

    #[test]
    fn multihop_complete_matches_single_hop_trace() {
        use crate::trace::TraceDigest;
        let run = |multihop: bool| -> u64 {
            let model = StaticChannels::global(full_overlap(4, 2).unwrap());
            let protos = vec![
                fixed(Action::Broadcast(LocalChannel(0), 1)),
                fixed(Action::Broadcast(LocalChannel(0), 2)),
                fixed(Action::Listen(LocalChannel(0))),
                fixed(Action::Listen(LocalChannel(1))),
            ];
            let mut digest = TraceDigest::new();
            if multihop {
                let med = OracleMultihop::new(Topology::complete(4));
                let mut net = Network::with_medium(model, protos, 7, med).unwrap();
                for _ in 0..64 {
                    digest.record(net.step());
                }
            } else {
                let mut net =
                    Network::with_medium(model, protos, 7, OracleSingleHop::new()).unwrap();
                for _ in 0..64 {
                    digest.record(net.step());
                }
            }
            digest.finish()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn multihop_respects_line_topology() {
        let model = StaticChannels::global(full_overlap(3, 1).unwrap());
        let protos = vec![
            fixed(Action::Broadcast(LocalChannel(0), 9)),
            fixed(Action::Listen(LocalChannel(0))),
            fixed(Action::Listen(LocalChannel(0))),
        ];
        let med = OracleMultihop::new(Topology::line(3));
        let mut net = Network::with_medium(model, protos, 1, med).unwrap();
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

    /// A network of [`Fixed`] nodes over `topology`, every node on all
    /// `c` channels with global labels.
    fn fixed_multihop(
        topology: Topology,
        c: usize,
        actions: Vec<Action<u8>>,
        seed: u64,
    ) -> Network<u8, Fixed, StaticChannels, OracleMultihop> {
        let model = StaticChannels::global(full_overlap(actions.len(), c).unwrap());
        let protos = actions.into_iter().map(fixed).collect();
        Network::with_medium(model, protos, seed, OracleMultihop::new(topology)).unwrap()
    }

    #[test]
    fn multihop_forgets_the_last_slots_tuning() {
        // A broadcaster that goes to sleep is not heard in the next
        // slot: each slot resets the tunings it recorded.
        let actions = vec![
            Action::Broadcast(LocalChannel(0), 9),
            Action::Listen(LocalChannel(0)),
            Action::Listen(LocalChannel(0)),
        ];
        let mut net = fixed_multihop(Topology::line(3), 1, actions, 2);
        net.step();
        net.protocols_mut()[0].action = Action::Sleep;
        net.step();
        let p = net.into_protocols();
        assert_eq!(
            p[1].heard,
            vec![
                Event::Received {
                    from: NodeId(0),
                    msg: 9
                },
                Event::Silence
            ]
        );
    }

    #[test]
    fn multihop_per_receiver_winners_are_independent() {
        // 1 and 2 both broadcast and only 0 neighbors both: over many
        // slots node 0 hears each roughly half the time.
        let topo = Topology::from_edges(3, &[(0, 1), (0, 2)]);
        let actions = vec![
            Action::Listen(LocalChannel(0)),
            Action::Broadcast(LocalChannel(0), 1),
            Action::Broadcast(LocalChannel(0), 2),
        ];
        let mut net = fixed_multihop(topo, 1, actions, 5);
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
    fn multihop_channels_do_not_mix() {
        let actions = vec![
            Action::Broadcast(LocalChannel(0), 3),
            Action::Listen(LocalChannel(1)),
        ];
        let mut net = fixed_multihop(Topology::complete(2), 2, actions, 2);
        net.step();
        assert_eq!(net.into_protocols()[1].heard, vec![Event::Silence]);
    }

    #[test]
    fn multihop_is_deterministic_given_seed() {
        let run = |seed: u64| -> Vec<Event<u8>> {
            let topo = Topology::from_edges(3, &[(0, 1), (0, 2)]);
            let actions = vec![
                Action::Listen(LocalChannel(0)),
                Action::Broadcast(LocalChannel(0), 1),
                Action::Broadcast(LocalChannel(0), 2),
            ];
            let mut net = fixed_multihop(topo, 1, actions, seed);
            for _ in 0..32 {
                net.step();
            }
            net.into_protocols().remove(0).heard
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn multihop_conformance_holds_on_incomplete_topology() {
        // The engine's conformance hook applies the multihop profile:
        // winner-less contended channels are legal here.
        let actions = vec![
            Action::Broadcast(LocalChannel(0), 9),
            Action::Listen(LocalChannel(0)),
            Action::Listen(LocalChannel(0)),
        ];
        let mut net = fixed_multihop(Topology::line(3), 1, actions, 1);
        net.step();
        assert_eq!(net.check_conformance(), vec![]);
    }

    #[test]
    fn multihop_topology_must_match_the_model_size() {
        // Smaller incomplete, smaller complete (which would otherwise
        // delegate to the single-hop oracle unnoticed) and larger.
        for (topo, n) in [
            (Topology::line(4), 8),
            (Topology::complete(3), 8),
            (Topology::line(3), 2),
        ] {
            let model = StaticChannels::global(full_overlap(n, 1).unwrap());
            let protos = (0..n).map(|_| fixed(Action::Sleep)).collect::<Vec<_>>();
            let nodes = topo.len();
            let err = Network::with_medium(model, protos, 0, OracleMultihop::new(topo))
                .err()
                .expect("size mismatch accepted");
            let msg = err.to_string();
            assert!(matches!(err, SimError::InvalidParams { .. }), "{msg}");
            assert!(
                msg.contains(&format!("{nodes} nodes")) && msg.contains(&format!("has {n}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn profiles_reflect_guarantees() {
        let oracle = OracleSingleHop::new();
        assert!(Medium::<u8>::profile(&oracle).guaranteed_winner);
        let complete = OracleMultihop::new(Topology::complete(4));
        assert!(Medium::<u8>::profile(&complete).engine_stream_winners);
        let line = OracleMultihop::new(Topology::line(4));
        assert!(!Medium::<u8>::profile(&line).guaranteed_winner);
        let phys = PhysicalDecay::new();
        assert!(!Medium::<u8>::profile(&phys).guaranteed_winner);
    }

    #[test]
    fn single_contender_wins_first_round() {
        let mut rng = SimRng::seed_from_u64(0);
        let r = resolve_contention(1, 1, 10, &mut rng).unwrap().unwrap();
        assert_eq!(r.winner, 0);
        assert_eq!(r.rounds, 1, "p = 1 in round 0 of every epoch");
    }

    #[test]
    fn always_resolves_within_recommended_budget() {
        for n_max in [2usize, 8, 32, 128] {
            for m in [1usize, 2, n_max / 2 + 1, n_max] {
                let mut failures = 0;
                for seed in 0..200 {
                    let mut rng = SimRng::seed_from_u64(seed);
                    if resolve_contention(m, n_max, recommended_rounds(n_max), &mut rng)
                        .unwrap()
                        .is_none()
                    {
                        failures += 1;
                    }
                }
                assert!(
                    failures <= 2,
                    "m={m}, n_max={n_max}: {failures}/200 budget misses"
                );
            }
        }
    }

    #[test]
    fn winner_distribution_is_roughly_uniform() {
        // By symmetry every contender should win ~equally often — this
        // is what justifies the abstract model's uniform winner pick.
        let m = 4;
        let trials = 4000;
        let mut wins = vec![0usize; m];
        for seed in 0..trials {
            let mut rng = SimRng::seed_from_u64(seed as u64);
            let r = resolve_contention(m, 16, 10_000, &mut rng)
                .unwrap()
                .unwrap();
            wins[r.winner] += 1;
        }
        let expect = trials / m;
        for (i, &w) in wins.iter().enumerate() {
            assert!(
                (w as f64) > expect as f64 * 0.85 && (w as f64) < expect as f64 * 1.15,
                "station {i} won {w} times, expected ~{expect}"
            );
        }
    }

    #[test]
    fn rounds_grow_slowly_with_population() {
        // Mean resolution rounds should scale like log², i.e. far
        // slower than linearly.
        let mean = |m: usize, n_max: usize| -> f64 {
            let trials = 300;
            let mut total = 0u64;
            for seed in 0..trials {
                let mut rng = SimRng::seed_from_u64(seed);
                total += resolve_contention(m, n_max, 1_000_000, &mut rng)
                    .unwrap()
                    .unwrap()
                    .rounds;
            }
            total as f64 / trials as f64
        };
        let t_small = mean(4, 4);
        let t_big = mean(256, 256);
        // 64x the contenders should cost far less than 64x the rounds.
        assert!(
            t_big < t_small * 16.0,
            "decay not polylogarithmic? {t_small} -> {t_big}"
        );
    }

    #[test]
    fn zero_contenders_rejected() {
        let mut rng = SimRng::seed_from_u64(0);
        let err = resolve_contention(0, 4, 10, &mut rng).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidParams { reason } if reason.contains("at least one contender")),
            "{err:?}"
        );
    }

    #[test]
    fn over_population_rejected() {
        let mut rng = SimRng::seed_from_u64(0);
        let err = resolve_contention(9, 4, 10, &mut rng).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidParams { reason } if reason.contains("exceeds the population bound")),
            "{err:?}"
        );
    }

    #[test]
    fn mean_rounds_stay_polylog() {
        let small = mean_rounds_per_slot(2, 256, 200, 1);
        let large = mean_rounds_per_slot(200, 256, 200, 2);
        assert!(small.is_finite() && large.is_finite());
        // 100x contenders, same n_max: both bounded by the same
        // O(log² n_max) budget, and the ratio should be small.
        assert!(large < small * 12.0, "small={small}, large={large}");
        assert!(large < 200.0, "rounds per slot implausibly high: {large}");
    }
}
