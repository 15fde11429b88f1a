//! The COGCOMP per-node state machine (Section 5 of the paper).
//!
//! The four phases run on the globally-known schedule of
//! [`CogCompConfig`]:
//!
//! 1. **Phase one** — COGCAST floods `Init`, with every delivered
//!    broadcast logged for the rewind. Each node's first reception
//!    fixes its parent and its `(r, c)`-cluster (slot and channel of
//!    first reception).
//! 2. **Phase two** (`n` slots) — every informed node beacons
//!    `⟨id, r⟩` on its informing channel until its beacon wins the
//!    channel, then keeps listening. Afterwards every node knows its
//!    cluster's size, and the smallest-id node of the *latest* cluster
//!    on each channel knows it is that channel's mediator (Lemma 7).
//! 3. **Phase three** (`l` slots) — phase one replayed backwards: in the
//!    rewind of slot `r`, the nodes first informed at `r` broadcast their
//!    cluster size while their informer listens; silence tells a
//!    would-be informer that its success informed nobody (Lemma 9).
//! 4. **Phase four** — 3-slot steps (mediator announce → cluster value →
//!    receiver ack) until all values have climbed the tree (Theorem 10).

use super::config::{CogCompConfig, PhaseAt};
use super::msg::CogCompMsg;
use crate::aggregate::Aggregate;
use crate::cogcast::Informed;
use crn_sim::rng::SimRng;
use crn_sim::{Action, Event, LocalChannel, NodeCtx, NodeId, Protocol};
use std::collections::{BTreeMap, BTreeSet};

/// Phase-one log entries reserved up front: the whole phase for any
/// realistic schedule, but never an allocation a huge `alpha` could
/// make fail before the run starts (longer phases grow on demand).
fn p1_capacity(phase1_slots: u64) -> usize {
    usize::try_from(phase1_slots).map_or(0, |l| l.min(1 << 16))
}

/// What phase three needs of phase one: per phase-one slot, the local
/// channel of this node's delivered broadcast, if it made one. (The
/// one informing slot is [`CogComp::informed`].)
///
/// An entry is 0 for "no delivered broadcast" (a listen, a lost
/// broadcast, or a slot the node was down), else the channel + 1, in
/// `bit_length(c)` bits: 16 entries to a `u64` at c = 8, none split
/// across two words.
#[derive(Debug, Clone)]
struct Deliveries {
    words: Vec<u64>,
    width: u32,
    per_word: u64,
    len: u64,
}

impl Deliveries {
    /// An empty log for nodes with at most `c` channels, with room
    /// reserved for `slots` entries (capped by [`p1_capacity`]).
    fn new(c: usize, slots: u64) -> Self {
        let width = (usize::BITS - c.leading_zeros()).max(1);
        let per_word = 64 / width;
        Deliveries {
            words: Vec::with_capacity(p1_capacity(slots).div_ceil(per_word as usize)),
            width,
            per_word: u64::from(per_word),
            len: 0,
        }
    }

    fn mask(&self) -> u64 {
        u64::MAX >> (64 - self.width)
    }

    /// Appends the next slot's entry.
    fn push(&mut self, delivered: Option<LocalChannel>) {
        let entry = delivered.map_or(0, |ch| u64::from(ch.0) + 1);
        // An oversized entry would corrupt its neighbours.
        assert!(
            entry <= self.mask(),
            "channel {delivered:?} exceeds the log width"
        );
        let shift = (self.len % self.per_word) as u32 * self.width;
        match self.words.last_mut() {
            Some(word) if shift > 0 => *word |= entry << shift,
            _ => self.words.push(entry),
        }
        self.len += 1;
    }

    /// Logs "no delivered broadcast" for every slot before `slot` not
    /// yet logged (the slots a fault window suppressed).
    fn pad_to(&mut self, slot: u64) {
        while self.len < slot {
            self.push(None);
        }
    }

    /// The channel of slot `j`'s delivered broadcast; `None` if there
    /// was none or `j` is past the end of the log.
    fn get(&self, j: u64) -> Option<LocalChannel> {
        if j >= self.len {
            return None;
        }
        let word = self.words[(j / self.per_word) as usize];
        let entry = (word >> ((j % self.per_word) as u32 * self.width)) & self.mask();
        entry.checked_sub(1).map(|ch| LocalChannel(ch as u32))
    }
}

/// The role a node holds for the duration of one phase-four step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepRole {
    /// Collecting values from the current cluster it informed.
    Receiver,
    /// Waiting to pass its folded value to its parent.
    Sender,
    /// Channel mediator (active once its own collection is finished);
    /// also sends its own value when its cluster is announced.
    Mediator,
    /// Terminated (or never informed).
    Idle,
}

/// A cluster this node informed, discovered during phase three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClusterRef {
    /// The phase-one slot the cluster was informed in.
    r: u64,
    /// This node's local label for the cluster's channel.
    channel: LocalChannel,
    /// Number of nodes in the cluster.
    size: u32,
}

/// What phase two heard of one cluster: its size so far and its
/// smallest member id.
#[derive(Debug, Clone, Copy)]
struct Census {
    count: u32,
    min_id: NodeId,
}

impl Census {
    /// Adds one heard beacon (`id`) to the cluster's census.
    fn add(census: &mut BTreeMap<u64, Census>, r: u64, id: NodeId) {
        census
            .entry(r)
            .and_modify(|c| {
                c.count += 1;
                c.min_id = c.min_id.min(id);
            })
            .or_insert(Census {
                count: 1,
                min_id: id,
            });
    }
}

/// Mediator bookkeeping for one channel.
#[derive(Debug, Clone)]
struct MediatorState {
    /// The mediator's local label for its channel.
    channel: LocalChannel,
    /// `(r, size)` of every cluster informed on the channel, in
    /// descending `r` (the processing order).
    clusters: Vec<(u64, u32)>,
    /// Index of the cluster currently being aggregated.
    idx: usize,
    /// Senders of the current cluster already acknowledged.
    acked: BTreeSet<NodeId>,
}

/// The COGCOMP protocol instance for one node.
///
/// Construct the source with [`CogComp::source`] and all other nodes
/// with [`CogComp::node`], hand the instances to a
/// [`crn_sim::Network`] carrying
/// [`CogCompMsg<V>`] messages, and run until
/// [`Protocol::is_done`] holds everywhere (see
/// [`super::run_aggregation`] for a one-call driver).
#[derive(Debug, Clone)]
pub struct CogComp<V> {
    cfg: CogCompConfig,
    is_source: bool,
    /// Per-round own values (length `cfg.rounds`).
    values: Vec<V>,
    /// Own value merged with every descendant value collected so far
    /// (current round).
    acc: V,
    /// The phase-four round currently executing.
    round: u64,
    /// True once the current round's duties are finished.
    round_done: bool,
    /// Source only: per finalized round, the aggregate (or `None` if
    /// the round missed its window).
    results: Vec<Option<V>>,
    // --- phase one ---
    informed: Option<Informed>,
    p1_log: Deliveries,
    pending_channel: LocalChannel,
    // --- phase two ---
    phase2_ready: bool,
    census_sent: bool,
    /// The censuses heard on this node's informing channel (its own
    /// included), per informed slot `r`: how many, and the smallest id.
    /// Counting needs no dedup: a node beacons until it observes
    /// `Delivered`, and every shipped medium tells a heard winner
    /// `Delivered`, so each beacon is heard at most once.
    channel_census: BTreeMap<u64, Census>,
    // --- phase three ---
    phase3_ready: bool,
    cluster_size: u32,
    mediator: Option<MediatorState>,
    rewind_slot: Option<u64>,
    informer_clusters: Vec<ClusterRef>,
    // --- phase four ---
    phase4_ready: bool,
    /// The first phase-four step of the next round, or `u64::MAX` once
    /// the last round has begun, so a slot tests one comparison rather
    /// than dividing by [`CogCompConfig::round_steps`].
    next_round_step: u64,
    step_role: StepRole,
    collect_idx: usize,
    collected: BTreeSet<NodeId>,
    pending_ack: Option<NodeId>,
    delivered_mine: bool,
    heard_announce: Option<u64>,
    done: bool,
    failed: bool,
}

impl<V: Aggregate> CogComp<V> {
    fn new(cfg: CogCompConfig, values: Vec<V>, is_source: bool) -> Self {
        assert_eq!(
            values.len(),
            cfg.rounds as usize,
            "need one value per round ({} values for {} rounds)",
            values.len(),
            cfg.rounds
        );
        let acc = values[0].clone();
        CogComp {
            cfg,
            is_source,
            values,
            round: 0,
            round_done: false,
            results: Vec::new(),
            acc,
            informed: None,
            p1_log: Deliveries::new(cfg.c, cfg.phase1_slots),
            pending_channel: LocalChannel(0),
            phase2_ready: false,
            census_sent: false,
            channel_census: BTreeMap::new(),
            phase3_ready: false,
            cluster_size: 1,
            mediator: None,
            rewind_slot: None,
            informer_clusters: Vec::new(),
            phase4_ready: false,
            next_round_step: Self::round_start(&cfg, 1),
            step_role: StepRole::Idle,
            collect_idx: 0,
            collected: BTreeSet::new(),
            pending_ack: None,
            delivered_mine: false,
            heard_announce: None,
            done: false,
            failed: false,
        }
    }

    /// Creates the designated source (tree root) holding `value` (the
    /// same value in every round when `cfg.rounds > 1`).
    pub fn source(cfg: CogCompConfig, value: V) -> Self {
        Self::new(cfg, vec![value; cfg.rounds as usize], true)
    }

    /// Creates a non-source node holding `value` (repeated per round).
    pub fn node(cfg: CogCompConfig, value: V) -> Self {
        Self::new(cfg, vec![value; cfg.rounds as usize], false)
    }

    /// Creates the source with one value per round.
    ///
    /// # Panics
    ///
    /// Panics unless `values.len() == cfg.rounds`.
    pub fn source_with_values(cfg: CogCompConfig, values: Vec<V>) -> Self {
        Self::new(cfg, values, true)
    }

    /// Creates a non-source node with one value per round.
    ///
    /// # Panics
    ///
    /// Panics unless `values.len() == cfg.rounds`.
    pub fn node_with_values(cfg: CogCompConfig, values: Vec<V>) -> Self {
        Self::new(cfg, values, false)
    }

    /// The configuration this node runs under.
    pub fn config(&self) -> &CogCompConfig {
        &self.cfg
    }

    /// True for the designated source.
    pub fn is_source(&self) -> bool {
        self.is_source
    }

    /// True once the node knows the `Init` message (always true for the
    /// source).
    pub fn knows_init(&self) -> bool {
        self.is_source || self.informed.is_some()
    }

    /// How this node was first informed (its tree position), if it was.
    pub fn informed(&self) -> Option<Informed> {
        self.informed
    }

    /// The aggregated value: own value merged with every collected
    /// descendant. On the source after termination this is the network
    /// aggregate; [`CogComp::result`] gates on that.
    pub fn aggregate(&self) -> &V {
        &self.acc
    }

    /// The final aggregate — `Some` only on the source after it has
    /// terminated (for multi-round configs: the last round's result).
    pub fn result(&self) -> Option<&V> {
        (self.is_source && self.done && !self.failed).then_some(&self.acc)
    }

    /// Source only: one entry per finalized round — the round's
    /// aggregate, or `None` if the round missed its step window.
    pub fn round_results(&self) -> &[Option<V>] {
        &self.results
    }

    /// The phase-four round currently executing (0-based).
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// The size of this node's cluster as counted in phase two
    /// (including itself; 1 until phase two runs).
    pub fn cluster_size(&self) -> u32 {
        self.cluster_size
    }

    /// True if this node was elected mediator of its channel.
    pub fn is_mediator(&self) -> bool {
        self.mediator.is_some()
    }

    /// Number of (non-empty) clusters this node informed.
    pub fn informer_cluster_count(&self) -> usize {
        self.informer_clusters.len()
    }

    /// True if the node reached phase four without ever hearing `Init`
    /// (a low-probability COGCAST failure; the node then abstains).
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    // ------------------------------------------------------------------
    // Phase one: COGCAST, logging delivered broadcasts.
    // ------------------------------------------------------------------

    #[inline]
    fn decide_phase1(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<CogCompMsg<V>> {
        // Keep the log slot-aligned across missed slots (fault windows
        // suppress decide; the rewind indexes by absolute phase-one
        // slot).
        self.p1_log.pad_to(ctx.slot);
        let ch = LocalChannel(rng.gen_range(0..ctx.c as u32));
        self.pending_channel = ch;
        if self.knows_init() {
            Action::Broadcast(ch, CogCompMsg::Init)
        } else {
            Action::Listen(ch)
        }
    }

    #[inline]
    fn observe_phase1(&mut self, ctx: &NodeCtx<'_>, event: Event<CogCompMsg<V>>) {
        let ch = self.pending_channel;
        let delivered = match event {
            Event::Received { from, .. } => {
                if !self.knows_init() {
                    self.informed = Some(Informed {
                        from,
                        slot: ctx.slot,
                        channel: ch,
                    });
                }
                None
            }
            Event::Delivered => Some(ch),
            Event::Lost { .. } | Event::Silence | Event::Jammed => None,
        };
        self.p1_log.push(delivered);
    }

    // ------------------------------------------------------------------
    // Phase two: cluster census and mediator election.
    // ------------------------------------------------------------------

    #[inline]
    fn decide_phase2(&mut self, ctx: &NodeCtx<'_>) -> Action<CogCompMsg<V>> {
        if !self.phase2_ready {
            self.phase2_ready = true;
            if let Some(info) = self.informed {
                // Count ourselves (the paper's "counter initially set to
                // one").
                Census::add(&mut self.channel_census, info.slot, ctx.id);
            }
        }
        let Some(info) = self.informed else {
            // The source (and any failed node) sits phase two out.
            return Action::Sleep;
        };
        if self.census_sent {
            Action::Listen(info.channel)
        } else {
            Action::Broadcast(
                info.channel,
                CogCompMsg::Census {
                    id: ctx.id,
                    r: info.slot,
                },
            )
        }
    }

    #[inline]
    fn observe_phase2(&mut self, event: Event<CogCompMsg<V>>) {
        match event {
            Event::Delivered => self.census_sent = true,
            Event::Lost {
                msg: CogCompMsg::Census { id, r },
                ..
            }
            | Event::Received {
                msg: CogCompMsg::Census { id, r },
                ..
            } => {
                Census::add(&mut self.channel_census, r, id);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Phase three: the rewind.
    // ------------------------------------------------------------------

    fn prepare_phase3(&mut self, ctx: &NodeCtx<'_>) {
        self.phase3_ready = true;
        let Some(info) = self.informed else {
            return;
        };
        self.cluster_size = self
            .channel_census
            .get(&info.slot)
            .map_or(1, |census| census.count);
        if self.cfg.coordination == super::Coordination::Uncoordinated {
            // Ablation: no mediators are elected; phase four runs with
            // free contention among ready senders.
            return;
        }
        // Mediator: smallest id in the latest cluster on the channel.
        if let Some((_, latest)) = self.channel_census.iter().next_back() {
            if latest.min_id == ctx.id {
                let clusters = self
                    .channel_census
                    .iter()
                    .rev()
                    .map(|(&r, census)| (r, census.count))
                    .collect();
                self.mediator = Some(MediatorState {
                    channel: info.channel,
                    clusters,
                    idx: 0,
                    acked: BTreeSet::new(),
                });
            }
        }
    }

    #[inline]
    fn decide_phase3(&mut self, ctx: &NodeCtx<'_>, offset: u64) -> Action<CogCompMsg<V>> {
        if !self.phase3_ready {
            self.prepare_phase3(ctx);
        }
        let l = self.cfg.phase1_slots;
        let j = l - 1 - offset; // the phase-one slot being rewound
        self.rewind_slot = Some(j);
        match self.informed {
            Some(info) if info.slot == j => Action::Broadcast(
                info.channel,
                CogCompMsg::ClusterSize {
                    r: j,
                    size: self.cluster_size,
                },
            ),
            // A slot past the log's end (the node was down when phase
            // one ended) made no delivered broadcast either.
            _ => match self.p1_log.get(j) {
                Some(channel) => Action::Listen(channel),
                None => Action::Sleep,
            },
        }
    }

    #[inline]
    fn observe_phase3(&mut self, event: Event<CogCompMsg<V>>) {
        if let Event::Received {
            msg: CogCompMsg::ClusterSize { r, size },
            ..
        } = event
        {
            let j = self
                .rewind_slot
                .expect("observe without a preceding decide");
            debug_assert_eq!(r, j, "cluster-size echo must match the rewind slot");
            let channel = self
                .p1_log
                .get(j)
                .expect("a ClusterSize reception implies a delivered broadcast at j");
            self.informer_clusters.push(ClusterRef {
                r: j,
                channel,
                size,
            });
        }
        // Silence on a rewound success = the cluster is empty: nothing
        // to record. Delivered/Lost are the cluster members' own
        // broadcasts and carry no new information.
    }

    // ------------------------------------------------------------------
    // Phase four: mediated aggregation in 3-slot steps.
    // ------------------------------------------------------------------

    /// Finalizes the current round's result on the source (at most
    /// once per round).
    fn finalize_round(&mut self) {
        if self.is_source && (self.results.len() as u64) == self.round {
            let result = self.round_done.then(|| self.acc.clone());
            self.results.push(result);
        }
    }

    /// Marks the current round finished; on the last round this
    /// terminates the node.
    fn mark_round_done(&mut self) {
        self.round_done = true;
        if self.round + 1 >= u64::from(self.cfg.rounds) {
            self.done = true;
            self.finalize_round();
        }
    }

    /// Resets phase-four state for round `to`, loading that round's
    /// own value. The tree structure (informer clusters, mediator
    /// cluster lists) is reused — that is the amortization.
    fn advance_round(&mut self, to: u64) {
        self.finalize_round();
        self.round = to;
        let idx = (to as usize).min(self.values.len() - 1);
        self.acc = self.values[idx].clone();
        self.collect_idx = 0;
        self.collected.clear();
        self.pending_ack = None;
        self.delivered_mine = false;
        self.heard_announce = None;
        self.round_done = false;
        if let Some(med) = &mut self.mediator {
            med.idx = 0;
            med.acked.clear();
        }
    }

    /// The first phase-four step of round `round`, or `u64::MAX` past
    /// the last round.
    fn round_start(cfg: &CogCompConfig, round: u64) -> u64 {
        if round < u64::from(cfg.rounds) {
            round * cfg.round_steps()
        } else {
            u64::MAX
        }
    }

    fn compute_role(&mut self) -> StepRole {
        if self.done || self.round_done {
            return StepRole::Idle;
        }
        if self.collect_idx < self.informer_clusters.len() {
            return StepRole::Receiver;
        }
        if self.is_source {
            self.mark_round_done();
            return StepRole::Idle;
        }
        if let Some(med) = &self.mediator {
            if med.idx < med.clusters.len() {
                return StepRole::Mediator;
            }
        }
        if !self.delivered_mine {
            return StepRole::Sender;
        }
        self.mark_round_done();
        StepRole::Idle
    }

    #[inline]
    fn decide_phase4(&mut self, ctx: &NodeCtx<'_>, step: u64, sub: u8) -> Action<CogCompMsg<V>> {
        if !self.phase4_ready {
            self.phase4_ready = true;
            // Collect clusters in descending informed-slot order
            // (children of later slots aggregate first).
            self.informer_clusters
                .sort_by_key(|cl| std::cmp::Reverse(cl.r));
            if !self.knows_init() {
                self.failed = true;
                self.done = true;
            }
        }
        // Round boundaries are derived from the globally known step
        // count, so all nodes switch rounds in the same slot. A node
        // that missed slots may skip rounds, so the target is derived
        // from `step` rather than incremented.
        if step >= self.next_round_step {
            let target_round = (step / self.cfg.round_steps()).min(u64::from(self.cfg.rounds) - 1);
            if !self.done {
                self.advance_round(target_round);
            }
            self.next_round_step = Self::round_start(&self.cfg, target_round + 1);
        }
        if sub == 0 {
            self.heard_announce = None;
            self.pending_ack = None;
            self.step_role = self.compute_role();
        }
        match self.step_role {
            StepRole::Idle => Action::Sleep,
            StepRole::Receiver => {
                let cl = self.informer_clusters[self.collect_idx];
                match sub {
                    0 | 1 => Action::Listen(cl.channel),
                    _ => match self.pending_ack {
                        Some(id) => Action::Broadcast(cl.channel, CogCompMsg::Ack { id }),
                        None => Action::Listen(cl.channel),
                    },
                }
            }
            StepRole::Sender => {
                let info = self.informed.expect("a sender was informed");
                let may_send = match self.cfg.coordination {
                    super::Coordination::Mediated => self.heard_announce == Some(info.slot),
                    super::Coordination::Uncoordinated => true,
                };
                match sub {
                    1 if may_send && !self.delivered_mine => Action::Broadcast(
                        info.channel,
                        CogCompMsg::Value {
                            id: ctx.id,
                            r: info.slot,
                            agg: self.acc.clone(),
                        },
                    ),
                    _ => Action::Listen(info.channel),
                }
            }
            StepRole::Mediator => {
                let med = self.mediator.as_ref().expect("mediator role without state");
                let channel = med.channel;
                let current_r = med.clusters[med.idx].0;
                match sub {
                    0 => Action::Broadcast(channel, CogCompMsg::Announce { r: current_r }),
                    1 => {
                        let info = self.informed.expect("a mediator was informed");
                        if current_r == info.slot && !self.delivered_mine {
                            Action::Broadcast(
                                channel,
                                CogCompMsg::Value {
                                    id: ctx.id,
                                    r: info.slot,
                                    agg: self.acc.clone(),
                                },
                            )
                        } else {
                            Action::Listen(channel)
                        }
                    }
                    _ => Action::Listen(channel),
                }
            }
        }
    }

    #[inline]
    fn observe_phase4(&mut self, ctx: &NodeCtx<'_>, sub: u8, event: Event<CogCompMsg<V>>) {
        match (self.step_role, sub) {
            (StepRole::Sender, 0) => {
                if let Event::Received {
                    msg: CogCompMsg::Announce { r },
                    ..
                } = event
                {
                    self.heard_announce = Some(r);
                }
            }
            (StepRole::Receiver, 1) => {
                if let Event::Received {
                    msg: CogCompMsg::Value { id, r, agg },
                    ..
                } = event
                {
                    let cl = self.informer_clusters[self.collect_idx];
                    if r == cl.r {
                        if self.collected.insert(id) {
                            self.acc.merge(&agg);
                        }
                        self.pending_ack = Some(id);
                    }
                }
            }
            (StepRole::Receiver, 2) => {
                // Our ack (if any) has gone out; check cluster completion.
                let cl = self.informer_clusters[self.collect_idx];
                if self.collected.len() as u32 >= cl.size {
                    self.collect_idx += 1;
                    self.collected.clear();
                }
            }
            (StepRole::Sender, 2) => {
                if let Event::Received {
                    msg: CogCompMsg::Ack { id },
                    ..
                } = event
                {
                    if id == ctx.id {
                        self.delivered_mine = true;
                    }
                }
            }
            (StepRole::Mediator, 2) => {
                if let Event::Received {
                    msg: CogCompMsg::Ack { id },
                    ..
                } = event
                {
                    if id == ctx.id {
                        self.delivered_mine = true;
                    }
                    let med = self.mediator.as_mut().expect("mediator role without state");
                    med.acked.insert(id);
                    if med.acked.len() as u32 >= med.clusters[med.idx].1 {
                        med.idx += 1;
                        med.acked.clear();
                    }
                }
            }
            _ => {}
        }
    }
}

// `decide`, `observe` and the per-phase functions behind them are
// `#[inline]`: inlined into the engine's slot loop, an action or event
// is built where the engine reads it. Returned through memory instead,
// each was stored field by field and reloaded 16 bytes at a time, and
// the failed store-to-load forwarding cost about a fifth of a COGCOMP
// slot at n = 1024.
impl<V: Aggregate> Protocol<CogCompMsg<V>> for CogComp<V> {
    #[inline]
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<CogCompMsg<V>> {
        match self.cfg.phase_at(ctx.slot) {
            PhaseAt::One(_) => self.decide_phase1(ctx, rng),
            PhaseAt::Two(_) => self.decide_phase2(ctx),
            PhaseAt::Three(offset) => self.decide_phase3(ctx, offset),
            PhaseAt::Four { step, sub } => self.decide_phase4(ctx, step, sub),
        }
    }

    #[inline]
    fn observe(&mut self, ctx: &NodeCtx<'_>, event: Event<CogCompMsg<V>>) {
        match self.cfg.phase_at(ctx.slot) {
            PhaseAt::One(_) => self.observe_phase1(ctx, event),
            PhaseAt::Two(_) => self.observe_phase2(event),
            PhaseAt::Three(_) => self.observe_phase3(event),
            PhaseAt::Four { sub, .. } => self.observe_phase4(ctx, sub, event),
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every channel for small `c`, and the extreme ones past 2²⁰
    /// (every label of a `u32::MAX`-channel node would be 2³² entries).
    fn channels(c: usize) -> Vec<u32> {
        if c <= 1 << 20 {
            (0..c as u32).collect()
        } else {
            let top = (c - 1) as u32;
            vec![0, 1, top / 2, top - 1, top]
        }
    }

    #[test]
    fn deliveries_round_trip_every_channel_across_words() {
        for c in [1, 2, 3, 8, 255, 256, 1 << 20, u32::MAX as usize] {
            let mut log = Deliveries::new(c, 0);
            // Interleave "none" after every third channel so labels land
            // at every offset within a word, and repeat the pass so the
            // log spans several words even where c is small.
            let chs = channels(c);
            let mut expected = Vec::new();
            for pass in 0..3.max(200 / chs.len()) {
                for (i, &ch) in chs.iter().enumerate() {
                    expected.push(Some(LocalChannel(ch)));
                    if (i + pass) % 3 == 0 {
                        expected.push(None);
                    }
                }
            }
            for &entry in &expected {
                log.push(entry);
            }
            assert!(log.words.len() > 1, "c = {c}: the log must span words");
            for (j, &entry) in expected.iter().enumerate() {
                assert_eq!(log.get(j as u64), entry, "c = {c}, slot {j}");
            }
            assert_eq!(log.len, expected.len() as u64, "c = {c}");
            assert_eq!(log.get(log.len), None, "c = {c}");
        }
    }

    #[test]
    fn deliveries_pad_as_none_and_end_at_their_length() {
        let mut log = Deliveries::new(8, 0);
        log.push(Some(LocalChannel(3)));
        log.pad_to(40);
        log.push(Some(LocalChannel(7)));
        assert_eq!(log.get(0), Some(LocalChannel(3)));
        for j in 1..40 {
            assert_eq!(log.get(j), None, "padded slot {j}");
        }
        assert_eq!(log.get(40), Some(LocalChannel(7)));
        assert_eq!(log.len, 41);
        assert_eq!(log.get(41), None);
        assert_eq!(log.get(u64::MAX), None);
        // Padding to a slot already logged adds nothing.
        log.pad_to(10);
        assert_eq!(log.len, 41);
    }

    #[test]
    fn deliveries_pack_sixteen_entries_a_word_at_c_8() {
        for l in [0u64, 1, 15, 16, 17, 400] {
            let mut log = Deliveries::new(8, l);
            assert!(log.words.capacity() >= l.div_ceil(16) as usize);
            for j in 0..l {
                log.push(Some(LocalChannel((j % 8) as u32)));
            }
            assert_eq!(log.words.len() as u64, l.div_ceil(16), "l = {l}");
        }
        // A huge phase one reserves no more than the cap up front.
        let log = Deliveries::new(8, u64::MAX);
        assert!(log.words.capacity() <= p1_capacity(u64::MAX).div_ceil(16));
    }
}
