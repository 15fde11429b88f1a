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
//! interference/jamming, fault wrappers, tracing, and the `validate`
//! conformance hook.
//!
//! Three implementations ship here:
//!
//! - [`OracleSingleHop`] — the paper's Section 2 oracle: one uniformly
//!   random winner per contended channel, success feedback, losers
//!   overhear the winner. It resolves into compact per-node outcomes
//!   and builds channel records only for callers that read them; its
//!   winner draws consume the `ENGINE` RNG stream in ascending channel
//!   order, so golden traces are byte-identical to the pre-medium
//!   engine.
//! - [`OracleMultihop`] — receiver-centric resolution over a
//!   [`Topology`]: each listener independently hears one uniformly
//!   random transmitting *neighbor* on its channel. On a complete
//!   topology it delegates to [`OracleSingleHop`] outright, making
//!   "multi-hop on a complete graph" literally the single-hop engine.
//! - [`PhysicalDecay`] — no oracle anywhere: every abstract slot
//!   expands into one fixed-length exponential-decay backoff episode
//!   per channel (footnote 4), on the dedicated `PHYSICAL` RNG stream.
//!   Physical-round counts and failed episodes are exposed as medium
//!   metadata.

use crate::ids::{GlobalChannel, NodeId};
use crate::proto::{Action, Event};
use crate::rng::{derive_rng, streams, SimRng};
use crate::topology::Topology;
use crate::trace::{ChannelActivity, SlotActivity};
use rand::Rng;

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
    /// stream — one uniform draw per contended channel, ascending
    /// channel order (see [`crate::conformance::replay_winners`]).
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
/// `tuned` lists each non-sleeping, non-jammed node exactly once as
/// `(global_channel, node, is_broadcast)`, in ascending node order —
/// local labels already translated, interference already applied.
#[derive(Debug)]
pub struct SlotInputs<'a, M> {
    /// The slot being resolved.
    pub slot: u64,
    /// Total node count.
    pub n: usize,
    /// Size of the global channel space.
    pub total_channels: usize,
    /// Each node's committed action (indexed by node; jammed nodes'
    /// actions are present but must be ignored — they are not tuned).
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
/// - `events` arrives with `None` for every sleeper and participant
///   and `Some(Event::Jammed)` for jammed nodes; the medium must set
///   `events[i]` for exactly the nodes in `inputs.tuned`.
/// - `activity` arrives with `slot`, `sleepers` and `jammed` already
///   set and `channels` still holding the records of the last slot
///   that built them (for buffer recycling). When
///   [`SlotInputs::records`] is `true` the medium replaces them with
///   this slot's records, sorted ascending by channel. When it is
///   `false` — [`crate::Network::step_unrecorded`] and the run loops
///   built on it — the medium may skip the records: the events alone
///   drive the protocols, and the engine marks the slot unrecorded.
///   [`OracleSingleHop`] and [`OracleMultihop`] skip them; a medium
///   that always builds them, such as [`PhysicalDecay`], stays
///   correct.
/// - Records and events never change the random draws: a medium draws
///   the same numbers, in the same order, whether or not it builds
///   records.
/// - All randomness comes from the medium's own stream, reseeded via
///   [`Medium::reseed`] when the network is built — never from the
///   per-node or jammer streams.
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
}

fn empty_channel_record() -> ChannelActivity {
    ChannelActivity {
        channel: GlobalChannel(0),
        broadcasters: Vec::new(),
        winner: None,
        listeners: Vec::new(),
    }
}

/// Sentinel for "no winner" in the oracle's per-channel winner field.
const NO_WINNER: u32 = u32::MAX;

/// One channel with at least one participant this slot, as the oracle
/// resolves it.
#[derive(Debug, Clone, Copy)]
struct ActiveChannel {
    broadcasters: u32,
    listeners: u32,
    /// Where the channel's group starts in [`OracleSingleHop::grouped`]:
    /// its broadcasters, then its listeners, each in ascending node
    /// order.
    start: u32,
    /// Placement cursors into the group while it is being filled.
    next_broadcaster: u32,
    next_listener: u32,
    /// The winning node, or [`NO_WINNER`].
    winner: u32,
}

/// Sorts `items` ascending by `key` — every key below `bound` — with a
/// stable least-significant-digit radix sort.
///
/// The digit width adapts to the input: `p` passes of `⌈bits/p⌉`-bit
/// digits (at most 11 bits, so the histogram stays in L1) cost about
/// `p · (len + 2^digit)`, and the cheapest `p` is taken, so a few items
/// over a large key space use several narrow passes and many items a
/// few wide ones. `scratch` and `counts` are reusable buffers; `counts`
/// is sized by `bound` alone, so for a fixed `bound` only a longer
/// input than ever before allocates.
fn radix_sort_by_key<T: Copy>(
    items: &mut Vec<T>,
    scratch: &mut Vec<T>,
    counts: &mut Vec<u32>,
    bound: usize,
    key: impl Fn(&T) -> u32,
) {
    const MAX_DIGIT: u32 = 11;
    let len = items.len();
    let bits = usize::BITS - bound.saturating_sub(1).leading_zeros();
    if len < 2 || bits == 0 {
        return;
    }
    let (passes, digit) = (bits.div_ceil(MAX_DIGIT)..=bits)
        .map(|p| (p, bits.div_ceil(p)))
        .min_by_key(|&(p, d)| p as usize * (len + (1usize << d)))
        .expect("bits >= 1");
    counts.resize(1 << bits.min(MAX_DIGIT), 0);
    let mask = (1u32 << digit) - 1;
    for pass in 0..passes {
        let shift = pass * digit;
        if shift >= bits {
            break;
        }
        let counts = &mut counts[..1 << digit];
        counts.fill(0);
        for item in items.iter() {
            counts[((key(item) >> shift) & mask) as usize] += 1;
        }
        let mut offset = 0;
        for count in counts.iter_mut() {
            let c = *count;
            *count = offset;
            offset += c;
        }
        scratch.clear();
        scratch.resize(len, items[0]);
        for item in items.iter() {
            let bucket = &mut counts[((key(item) >> shift) & mask) as usize];
            scratch[*bucket as usize] = *item;
            *bucket += 1;
        }
        std::mem::swap(items, scratch);
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

/// The paper's Section 2 collision oracle — the default medium.
///
/// One uniformly random broadcaster per contended channel wins; all
/// listeners on the channel receive its message; the winner gets
/// success feedback and the losers overhear the winning message.
///
/// Resolution works on compact arrays: one entry per *active* channel
/// (found through an epoch-stamped index, so the model's full channel
/// space is never scanned or cleared), the participants grouped by
/// channel, and a radix sort of the active channel ids for the winner
/// draws. [`ChannelActivity`] records are built from those arrays only
/// when [`SlotInputs::records`] asks for them. Both paths are
/// allocation-free in steady state (see `crn-sim/tests/alloc.rs`).
#[derive(Debug)]
pub struct OracleSingleHop {
    engine_rng: SimRng,
    /// The current epoch; bumped every slot, so a stale stamp in
    /// `chan_index` means "inactive this slot" and the channel space is
    /// never cleared between slots.
    epoch: u32,
    /// Per global channel: `(epoch stamp, index into active)`; the
    /// index is valid only when the stamp is current.
    chan_index: Vec<(u32, u32)>,
    /// Per participant (in `tuned` order), its channel's index into
    /// `active`.
    tuned_active: Vec<u32>,
    /// The distinct channels touched this slot, in discovery order.
    active: Vec<ActiveChannel>,
    /// `(channel, index into active)`, ascending by channel.
    order: Vec<(GlobalChannel, u32)>,
    /// Radix-sort buffers for `order`.
    order_scratch: Vec<(GlobalChannel, u32)>,
    radix_counts: Vec<u32>,
    /// The participants grouped by channel (see [`ActiveChannel::start`]).
    grouped: Vec<NodeId>,
    /// Channel records not in use this slot, kept for their vectors'
    /// capacity; indexed by [`record_class`] of the smaller capacity.
    spare_records: Vec<Vec<ChannelActivity>>,
    /// Records created so far (in use plus spare).
    records_made: usize,
}

impl Default for OracleSingleHop {
    fn default() -> Self {
        OracleSingleHop {
            engine_rng: derive_rng(0, streams::ENGINE),
            epoch: 0,
            chan_index: Vec::new(),
            tuned_active: Vec::new(),
            active: Vec::new(),
            order: Vec::new(),
            order_scratch: Vec::new(),
            radix_counts: Vec::new(),
            grouped: Vec::new(),
            spare_records: Vec::new(),
            records_made: 0,
        }
    }
}

impl OracleSingleHop {
    /// A fresh oracle (the RNG is re-derived when the network seeds it).
    pub fn new() -> Self {
        OracleSingleHop::default()
    }

    /// Groups `tuned` by channel: fills `active`, `tuned_active`,
    /// `grouped`, and `order` (ascending by channel).
    ///
    /// Costs `O(T + A)` for `T` participants on `A` active channels,
    /// plus a radix sort of the `A` channel ids — never proportional to
    /// the model's full channel space `C`, which only the first pass
    /// touches (once per participant). Placement walks `tuned` in
    /// ascending node order, so each group's broadcasters and listeners
    /// stay in node order.
    fn group_by_channel(&mut self, total_channels: usize, tuned: &[(GlobalChannel, usize, bool)]) {
        // Sized to the channel space once (amortized; see tests/alloc.rs),
        // then only the active entries are ever touched again.
        if self.chan_index.len() < total_channels {
            self.chan_index.resize(total_channels, (0, 0));
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(epoch) => epoch,
            None => {
                // After 2^32 - 1 slots, forget every stamp once.
                self.chan_index.fill((0, 0));
                1
            }
        };
        let epoch = self.epoch;
        self.active.clear();
        self.order.clear();
        self.tuned_active.clear();
        for &(ch, _, is_broadcast) in tuned {
            let entry = &mut self.chan_index[ch.index()];
            if entry.0 != epoch {
                *entry = (epoch, self.active.len() as u32);
                self.order.push((ch, entry.1));
                self.active.push(ActiveChannel {
                    broadcasters: 0,
                    listeners: 0,
                    start: 0,
                    next_broadcaster: 0,
                    next_listener: 0,
                    winner: NO_WINNER,
                });
            }
            self.tuned_active.push(entry.1);
            let a = &mut self.active[entry.1 as usize];
            if is_broadcast {
                a.broadcasters += 1;
            } else {
                a.listeners += 1;
            }
        }
        // Winner draws consume the engine stream in ascending channel
        // order, so the active set must be resolved sorted.
        radix_sort_by_key(
            &mut self.order,
            &mut self.order_scratch,
            &mut self.radix_counts,
            total_channels,
            |&(ch, _)| ch.0,
        );
        let mut offset = 0u32;
        for &(_, at) in &self.order {
            let a = &mut self.active[at as usize];
            a.start = offset;
            a.next_broadcaster = offset;
            a.next_listener = offset + a.broadcasters;
            offset += a.broadcasters + a.listeners;
        }
        self.grouped.clear();
        self.grouped.resize(tuned.len(), NodeId(0));
        for (&(_, node, is_broadcast), &at) in tuned.iter().zip(&self.tuned_active) {
            let a = &mut self.active[at as usize];
            let next = if is_broadcast {
                &mut a.next_broadcaster
            } else {
                &mut a.next_listener
            };
            self.grouped[*next as usize] = NodeId(node as u32);
            *next += 1;
        }
    }

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

    /// Rebuilds `channels` as this slot's records, one per active
    /// channel in ascending channel order.
    ///
    /// Records are reused in place when their capacity fits the group
    /// and is at most 4× too large; otherwise they are swapped with a
    /// spare record of the right capacity class. Large records (busy
    /// shared channels) therefore stay available to large groups
    /// instead of drifting to one-node groups, and recycling stops
    /// allocating once every class holds enough records.
    fn fill_records(&mut self, channels: &mut Vec<ChannelActivity>) {
        while channels.len() > self.order.len() {
            let record = channels.pop().expect("longer than order");
            self.retire_record(record);
        }
        for i in 0..self.order.len() {
            let (channel, at) = self.order[i];
            let a = self.active[at as usize];
            let size = (a.broadcasters.max(a.listeners) as usize).next_power_of_two();
            let want = size.trailing_zeros() as usize + 1;
            if i == channels.len() {
                let record = self.take_record(want);
                channels.push(record);
            } else {
                let have = record_class(&channels[i]);
                if have < want || have > want + 2 {
                    let record = self.take_record(want);
                    let old = std::mem::replace(&mut channels[i], record);
                    self.retire_record(old);
                }
            }
            let start = a.start as usize;
            let mid = start + a.broadcasters as usize;
            let end = mid + a.listeners as usize;
            let record = &mut channels[i];
            record.channel = channel;
            record.winner = (a.winner != NO_WINNER).then_some(NodeId(a.winner));
            // Most groups hold one or two nodes: a push loop beats a
            // memcpy call there.
            for (side, nodes) in [
                (&mut record.broadcasters, &self.grouped[start..mid]),
                (&mut record.listeners, &self.grouped[mid..end]),
            ] {
                side.clear();
                side.reserve_exact(size);
                for &node in nodes {
                    side.push(node);
                }
            }
        }
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
        self.group_by_channel(inputs.total_channels, inputs.tuned);

        // Resolve contention channel by channel, consuming the ENGINE
        // stream in ascending channel order.
        for &(_, at) in &self.order {
            let a = &mut self.active[at as usize];
            if a.broadcasters > 0 {
                let pick = self.engine_rng.gen_range(0..a.broadcasters as usize);
                a.winner = self.grouped[a.start as usize + pick].0;
            }
        }

        // Translate winners into per-node events (ascending node order,
        // so message clones happen in the same order as the pre-medium
        // engine's Phase D).
        for (&(_, i, is_broadcast), &at) in inputs.tuned.iter().zip(&self.tuned_active) {
            let w = self.active[at as usize].winner;
            events[i] = Some(if w == NO_WINNER {
                debug_assert!(!is_broadcast, "a broadcaster's channel always has a winner");
                Event::Silence
            } else if is_broadcast && w as usize == i {
                Event::Delivered
            } else {
                let Action::Broadcast(_, msg) = &inputs.actions[w as usize] else {
                    unreachable!("winner must have broadcast")
                };
                let (from, msg) = (NodeId(w), msg.clone());
                if is_broadcast {
                    Event::Lost { winner: from, msg }
                } else {
                    Event::Received { from, msg }
                }
            });
        }

        if inputs.records {
            self.fill_records(&mut activity.channels);
        }
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
    /// Per node: `(channel, is_broadcast)` if tuned this slot.
    node_tuned: Vec<Option<(GlobalChannel, bool)>>,
    /// Scratch: a listener's transmitting neighbors on its channel.
    senders: Vec<usize>,
}

impl OracleMultihop {
    /// A multi-hop oracle over `topology` (the RNG is re-derived when
    /// the network seeds it).
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

        self.node_tuned.clear();
        self.node_tuned.resize(inputs.n, None);
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

        // Physical-layer record: who was tuned where, grouped as the
        // single-hop oracle groups it. Winners are per-receiver in this
        // medium, so channel records carry none (`guaranteed_winner:
        // false`).
        if inputs.records {
            self.inner
                .group_by_channel(inputs.total_channels, inputs.tuned);
            self.inner.fill_records(&mut activity.channels);
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
}

/// Number of rounds per decay epoch for a population bound `n_max`
/// (footnote 4): `⌈log₂ n_max⌉ + 1`.
///
/// The canonical home of the decay-backoff arithmetic;
/// `crn_backoff::decay` re-exports it.
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
/// All randomness comes from the dedicated `PHYSICAL` stream
/// (docs/RNG_STREAMS.md), never from the oracle's `ENGINE` stream.
#[derive(Debug)]
pub struct PhysicalDecay {
    rng: SimRng,
    physical_rounds: u64,
    failed_episodes: u64,
    rounds_per_slot: u64,
    /// Scratch: `tuned` re-sorted by `(channel, node)`.
    by_channel: Vec<(GlobalChannel, usize, bool)>,
    /// Scratch: per-broadcaster transmit flags within an episode.
    tx: Vec<bool>,
    /// Scratch: per node, the winning node on its channel (if any).
    winners: Vec<Option<usize>>,
    /// Scratch: per node, whether its channel's episode failed.
    failed: Vec<bool>,
}

impl Default for PhysicalDecay {
    fn default() -> Self {
        PhysicalDecay {
            rng: derive_rng(0, streams::PHYSICAL),
            physical_rounds: 0,
            failed_episodes: 0,
            rounds_per_slot: 0,
            by_channel: Vec::new(),
            tx: Vec::new(),
            winners: Vec::new(),
            failed: Vec::new(),
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
        self.rounds_per_slot = recommended_rounds(inputs.n);
        self.physical_rounds += self.rounds_per_slot;
        let epoch = epoch_len(inputs.n) as u64;

        self.by_channel.clear();
        self.by_channel.extend_from_slice(inputs.tuned);
        self.by_channel
            .sort_unstable_by_key(|&(ch, node, _)| (ch, node));
        self.winners.clear();
        self.winners.resize(inputs.n, None);
        self.failed.clear();
        self.failed.resize(inputs.n, false);

        activity.channels.clear();
        let mut start = 0;
        while start < self.by_channel.len() {
            let channel = self.by_channel[start].0;
            let mut end = start;
            while end < self.by_channel.len() && self.by_channel[end].0 == channel {
                end += 1;
            }
            let group = &self.by_channel[start..end];
            let mut act = empty_channel_record();
            act.channel = channel;
            for &(_, node, is_broadcast) in group {
                if is_broadcast {
                    act.broadcasters.push(NodeId(node as u32));
                } else {
                    act.listeners.push(NodeId(node as u32));
                }
            }
            // One decay episode among this channel's broadcasters.
            let winner = if act.broadcasters.is_empty() {
                None
            } else {
                let m = act.broadcasters.len();
                self.tx.clear();
                self.tx.resize(m, false);
                let mut won = None;
                for round in 0..self.rounds_per_slot {
                    let j = (round % epoch) as i32;
                    let p = 0.5f64.powi(j).min(1.0);
                    for t in self.tx.iter_mut() {
                        *t = self.rng.gen_bool(p);
                    }
                    // A lone transmission ends the episode: everyone
                    // else received it and aborts.
                    let mut lone = None;
                    let mut count = 0;
                    for (i, &t) in self.tx.iter().enumerate() {
                        if t {
                            count += 1;
                            lone = Some(i);
                        }
                    }
                    if count == 1 {
                        won = lone;
                        break;
                    }
                }
                if won.is_none() {
                    self.failed_episodes += 1;
                    for &(_, node, _) in group {
                        self.failed[node] = true;
                    }
                }
                won.map(|i| act.broadcasters[i].index())
            };
            act.winner = winner.map(|i| NodeId(i as u32));
            for &(_, node, _) in group {
                self.winners[node] = winner;
            }
            activity.channels.push(act);
            start = end;
        }

        // Events, ascending node order.
        for &(_, i, is_broadcast) in inputs.tuned {
            events[i] = Some(if is_broadcast {
                match self.winners[i] {
                    Some(w) if w == i => Event::Delivered,
                    Some(w) => {
                        let Action::Broadcast(_, msg) = &inputs.actions[w] else {
                            unreachable!("winner must have broadcast")
                        };
                        Event::Lost {
                            winner: NodeId(w as u32),
                            msg: msg.clone(),
                        }
                    }
                    // Failed episode: this broadcaster heard nothing
                    // all episode, which is indistinguishable from
                    // winning on this radio.
                    None => Event::Delivered,
                }
            } else {
                match self.winners[i] {
                    Some(w) => {
                        let Action::Broadcast(_, msg) = &inputs.actions[w] else {
                            unreachable!("winner must have broadcast")
                        };
                        Event::Received {
                            from: NodeId(w as u32),
                            msg: msg.clone(),
                        }
                    }
                    None => Event::Silence,
                }
            });
        }
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
    use crate::assignment::full_overlap;
    use crate::channel_model::StaticChannels;
    use crate::ids::LocalChannel;
    use crate::proto::{NodeCtx, Protocol};
    use crate::Network;

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
    fn radix_sort_is_a_stable_sort_by_key() {
        let mut rng = derive_rng(7, 0);
        let (mut scratch, mut counts) = (Vec::new(), Vec::new());
        for bound in [1usize, 2, 3, 255, 256, 257, 2049, 24_578, 1 << 20, 1 << 31] {
            for len in [0usize, 1, 2, 7, 100, 3000] {
                let mut items: Vec<(u32, usize)> = (0..len)
                    .map(|i| (rng.gen_range(0..bound) as u32, i))
                    .collect();
                let mut expected = items.clone();
                expected.sort_by_key(|&(key, _)| key);
                radix_sort_by_key(&mut items, &mut scratch, &mut counts, bound, |&(key, _)| {
                    key
                });
                assert_eq!(items, expected, "bound {bound}, len {len}");
            }
        }
    }

    #[test]
    fn oracle_epoch_wraparound_forgets_stale_stamps() {
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
                    records: true,
                };
                Medium::resolve(oracle, &inputs, &mut events, &mut activity);
                out.push((events, activity));
            }
            out
        };
        let mut wrapping = OracleSingleHop::new();
        wrapping.epoch = u32::MAX - 1;
        assert_eq!(
            resolve_four(&mut wrapping),
            resolve_four(&mut OracleSingleHop::new())
        );
        assert_eq!(wrapping.epoch, 3, "the epoch restarted after the wrap");
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
                let mut net = Network::new(model, protos, 7).unwrap();
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
}
