//! Slot-level model-conformance validation (the Section 2 contract).
//!
//! Every number the experiment harness records rests on the engine
//! faithfully implementing the paper's Section 2 model. This module
//! re-checks that contract *from the outside*, against the public
//! [`SlotActivity`] record and the [`ChannelModel`] / [`Interference`]
//! state, with none of the engine's internal shortcuts:
//!
//! - **Winner legitimacy** (footnote 4): a channel has a winner iff it
//!   has a broadcaster, and the winner is one of that channel's
//!   (non-jammed) broadcasters.
//! - **Single tuning** (§2): a node participates on at most one channel
//!   per slot, and every node is accounted for exactly once —
//!   participant, sleeper, or jammed.
//! - **Channel membership** (§2): a node only ever appears on a channel
//!   that its current assignment actually contains (this covers the
//!   local-label → global-channel translation, including dynamic
//!   reassignment).
//! - **Jammed exclusion** (Theorem 18): no participant's `(node,
//!   channel)` pair is jammed — jammed pairs never send or receive.
//! - **Pairwise overlap** (§2): every pair of nodes shares at least `k`
//!   channels in every slot, churned assignments included.
//! - **Jam budget / effective overlap** (Theorem 18): an adversary that
//!   declares a per-node budget `b` jams at most `b` channels inside
//!   each node's set, leaving every pair at least `overlap − 2b`
//!   unjammed shared channels (`c − 2k` in the paper's fully-shared
//!   setting).
//! - **RNG stream discipline** (docs/RNG_STREAMS.md): the recorded
//!   winners are exactly what an independent replay of the `ENGINE`
//!   stream produces — one uniform draw per channel with at least one
//!   broadcaster, in ascending channel order ([`replay_winners`]).
//!
//! The checks are pure: they never consume an RNG stream and never
//! mutate the network, so running them cannot perturb a golden trace.
//! [`check_slot`] is always available (tests and the `conformance`
//! differential suite call it explicitly); compiling `crn-sim` with the
//! `validate` feature additionally makes [`crate::Network::step`] run
//! it after every slot and panic on the first violation. The feature is
//! off by default, so the release hot path stays allocation-free and
//! benchmark-neutral.

use crate::channel_model::ChannelModel;
use crate::ids::NodeId;
use crate::interference::Interference;
use crate::medium::MediumProfile;
use crate::rng::{derive_rng, streams};
use crate::trace::SlotActivity;
use std::fmt;

/// Which contract clause a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Channel records must be strictly ascending by global channel id
    /// (the order in which winner draws consume the `ENGINE` stream).
    ChannelOrder,
    /// A winner exists iff broadcasters exist, and is one of them.
    WinnerLegitimacy,
    /// A node appears on at most one channel, in at most one role.
    SingleTuning,
    /// Participants + sleepers + jammed must account for all `n` nodes.
    NodeAccounting,
    /// A participant's channel must be in its current channel set.
    ChannelMembership,
    /// No recorded participant may be jammed on its channel.
    JammedExclusion,
    /// Every node pair must share at least `k` channels this slot.
    PairwiseOverlap,
    /// A budgeted jammer may jam at most its budget per node, and must
    /// leave each pair `overlap − 2·budget` unjammed shared channels.
    JamBudget,
    /// Recorded winners must match an independent `ENGINE`-stream
    /// replay (see [`replay_winners`]).
    RngStreamDiscipline,
    /// The slot has no channel records to check: it ran through
    /// [`crate::Network::step_unrecorded`], or no slot ran yet.
    Unrecorded,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::ChannelOrder => "channel-order",
            Rule::WinnerLegitimacy => "winner-legitimacy",
            Rule::SingleTuning => "single-tuning",
            Rule::NodeAccounting => "node-accounting",
            Rule::ChannelMembership => "channel-membership",
            Rule::JammedExclusion => "jammed-exclusion",
            Rule::PairwiseOverlap => "pairwise-overlap",
            Rule::JamBudget => "jam-budget",
            Rule::RngStreamDiscipline => "rng-stream-discipline",
            Rule::Unrecorded => "unrecorded",
        };
        f.write_str(s)
    }
}

/// One detected breach of the Section 2 contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The slot the violating record describes.
    pub slot: u64,
    /// The contract clause that was broken.
    pub rule: Rule,
    /// Human-readable specifics (node, channel, counts).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}: [{}] {}", self.slot, self.rule, self.detail)
    }
}

/// Checks one slot's [`SlotActivity`] record against the model
/// contract; returns every violation found (empty means conformant).
///
/// Call it right after [`crate::Network::step`], while the model still
/// holds that slot's channel sets (the engine advances the model at the
/// *start* of the next step, so `net.check_conformance()` after a step
/// always sees matching state). `interference` should be the network's
/// interference model, if any.
///
/// The check is read-only and RNG-free.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::shared_core;
/// use crn_sim::channel_model::StaticChannels;
/// use crn_sim::conformance::check_slot;
/// use crn_sim::{GlobalChannel, NodeId, SlotActivity, ChannelActivity};
///
/// let model = StaticChannels::global(shared_core(2, 2, 1)?);
/// let ok = SlotActivity {
///     slot: 0,
///     channels: vec![ChannelActivity {
///         channel: GlobalChannel(0),
///         broadcasters: vec![NodeId(0)],
///         winner: Some(NodeId(0)),
///         listeners: vec![NodeId(1)],
///     }],
///     sleepers: 0,
///     jammed: 0,
/// };
/// assert!(check_slot(&model, None, &ok).is_empty());
///
/// let mut bad = ok.clone();
/// bad.channels[0].winner = Some(NodeId(1)); // a listener "won"
/// assert!(!check_slot(&model, None, &bad).is_empty());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn check_slot<CM: ChannelModel + ?Sized>(
    model: &CM,
    interference: Option<&dyn Interference>,
    activity: &SlotActivity,
) -> Vec<Violation> {
    check_slot_for(model, interference, activity, MediumProfile::oracle())
}

/// [`check_slot`] parameterized by the medium's [`MediumProfile`].
///
/// Most clauses are substrate-independent; the ones that are not are
/// gated on the profile:
///
/// - the "broadcasters but no winner" half of winner legitimacy applies
///   only when `profile.guaranteed_winner` holds (a [`PhysicalDecay`]
///   episode can fail, and [`OracleMultihop`] winners are per-receiver);
/// - [`replay_winners`] (a whole-run check, not part of this function)
///   is meaningful only when `profile.engine_stream_winners` holds.
///
/// [`PhysicalDecay`]: crate::medium::PhysicalDecay
/// [`OracleMultihop`]: crate::medium::OracleMultihop
pub fn check_slot_for<CM: ChannelModel + ?Sized>(
    model: &CM,
    interference: Option<&dyn Interference>,
    activity: &SlotActivity,
    profile: MediumProfile,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let slot = activity.slot;
    let n = model.n();
    let mut violate = |rule: Rule, detail: String| {
        out.push(Violation { slot, rule, detail });
    };

    // Channel records strictly ascending (winner-draw order).
    for w in activity.channels.windows(2) {
        if w[0].channel >= w[1].channel {
            violate(
                Rule::ChannelOrder,
                format!(
                    "channel records out of order: {} then {}",
                    w[0].channel, w[1].channel
                ),
            );
        }
    }

    // Per-channel checks + per-node role accounting.
    let mut seen = vec![false; n];
    let mut participants = 0usize;
    for ch in &activity.channels {
        match ch.winner {
            Some(w) if !ch.broadcasters.contains(&w) => violate(
                Rule::WinnerLegitimacy,
                format!("{}: winner {w} is not among its broadcasters", ch.channel),
            ),
            Some(_) => {}
            None if profile.guaranteed_winner && !ch.broadcasters.is_empty() => violate(
                Rule::WinnerLegitimacy,
                format!(
                    "{}: {} broadcasters but no winner",
                    ch.channel,
                    ch.broadcasters.len()
                ),
            ),
            None => {}
        }
        for (role, nodes) in [
            ("broadcaster", &ch.broadcasters),
            ("listener", &ch.listeners),
        ] {
            for &node in nodes {
                let i = node.index();
                if i >= n {
                    violate(
                        Rule::SingleTuning,
                        format!("{}: unknown node {node} as {role}", ch.channel),
                    );
                    continue;
                }
                if std::mem::replace(&mut seen[i], true) {
                    violate(
                        Rule::SingleTuning,
                        format!(
                            "{node} appears more than once (as {role} on {})",
                            ch.channel
                        ),
                    );
                }
                participants += 1;
                if !model.channels(i).contains(&ch.channel) {
                    violate(
                        Rule::ChannelMembership,
                        format!("{node} recorded on {} outside its channel set", ch.channel),
                    );
                }
                if let Some(intf) = interference {
                    if intf.is_jammed(node, ch.channel) {
                        violate(
                            Rule::JammedExclusion,
                            format!("{node} recorded as {role} on jammed {}", ch.channel),
                        );
                    }
                }
            }
        }
    }

    if participants + activity.sleepers + activity.jammed != n {
        violate(
            Rule::NodeAccounting,
            format!(
                "{participants} participants + {} sleepers + {} jammed != n = {n}",
                activity.sleepers, activity.jammed
            ),
        );
    }

    check_overlap(model, interference, slot, &mut out);
    out
}

/// The pairwise-overlap and jam-budget clauses, factored out so the
/// quadratic scan reads on its own.
fn check_overlap<CM: ChannelModel + ?Sized>(
    model: &CM,
    interference: Option<&dyn Interference>,
    slot: u64,
    out: &mut Vec<Violation>,
) {
    let n = model.n();
    let k = model.k();
    let budget = interference.and_then(|i| i.jam_budget());

    // Per-node jam budget first: it is what makes the effective-overlap
    // clause meaningful.
    if let (Some(b), Some(intf)) = (budget, interference) {
        for u in 0..n {
            let jammed_in_set = model
                .channels(u)
                .iter()
                .filter(|&&q| intf.is_jammed(NodeId(u as u32), q))
                .count();
            if jammed_in_set > b {
                out.push(Violation {
                    slot,
                    rule: Rule::JamBudget,
                    detail: format!(
                        "node {u}: {jammed_in_set} of its channels jammed, budget is {b}"
                    ),
                });
            }
        }
    }

    // Membership masks over the global channel space make each pair's
    // intersection a linear scan of one node's set.
    let total = model.total_channels();
    let mut mask = vec![false; total];
    for u in 0..n {
        for &q in model.channels(u) {
            mask[q.index()] = true;
        }
        for v in (u + 1)..n {
            let mut overlap = 0usize;
            let mut unjammed = 0usize;
            for &q in model.channels(v) {
                if !mask[q.index()] {
                    continue;
                }
                overlap += 1;
                if let Some(intf) = interference {
                    if !intf.is_jammed(NodeId(u as u32), q) && !intf.is_jammed(NodeId(v as u32), q)
                    {
                        unjammed += 1;
                    }
                }
            }
            if overlap < k {
                out.push(Violation {
                    slot,
                    rule: Rule::PairwiseOverlap,
                    detail: format!("pair ({u},{v}) overlaps on {overlap} < k = {k} channels"),
                });
            }
            if let Some(b) = budget {
                // Theorem 18: each side loses at most `b` channels, so
                // the unjammed intersection keeps `overlap − 2b`.
                let floor = overlap.saturating_sub(2 * b);
                if unjammed < floor {
                    out.push(Violation {
                        slot,
                        rule: Rule::JamBudget,
                        detail: format!(
                            "pair ({u},{v}): {unjammed} unjammed shared channels < overlap - 2*budget = {floor}"
                        ),
                    });
                }
            }
        }
        for &q in model.channels(u) {
            mask[q.index()] = false;
        }
    }
}

/// Verifies RNG stream discipline: replays the `ENGINE` stream for
/// `master_seed` against a complete run's slot records and checks that
/// every recorded winner is exactly the replay's uniform draw.
///
/// The engine contract (docs/RNG_STREAMS.md) is one
/// `gen_range(0..broadcasters)` per channel with at least one
/// broadcaster, ascending channel order within each slot, consuming
/// nothing else from the stream. `activities` must cover *every* slot
/// from slot 0 of a network seeded with `master_seed` — a gap
/// desynchronizes the replay.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::full_overlap;
/// use crn_sim::channel_model::StaticChannels;
/// use crn_sim::conformance::replay_winners;
/// use crn_sim::rng::SimRng;
/// use crn_sim::{Action, Event, LocalChannel, Network, NodeCtx, OracleSingleHop, Protocol};
///
/// struct Shout;
/// impl Protocol<u8> for Shout {
///     fn decide(&mut self, _: &NodeCtx<'_>, _: &mut SimRng) -> Action<u8> {
///         Action::Broadcast(LocalChannel(0), 1)
///     }
///     fn observe(&mut self, _: &NodeCtx<'_>, _: Event<u8>) {}
/// }
///
/// let model = StaticChannels::global(full_overlap(3, 1)?);
/// let protos = vec![Shout, Shout, Shout];
/// let mut net = Network::with_medium(model, protos, 7, OracleSingleHop::new())?;
/// let trace: Vec<_> = (0..20).map(|_| net.step().clone()).collect();
/// assert!(replay_winners(7, &trace).is_empty());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn replay_winners(master_seed: u64, activities: &[SlotActivity]) -> Vec<Violation> {
    let mut engine = derive_rng(master_seed, streams::ENGINE);
    let mut out = Vec::new();
    for activity in activities {
        for ch in &activity.channels {
            if ch.broadcasters.is_empty() {
                continue;
            }
            let pick = engine.gen_range(0..ch.broadcasters.len());
            let expected = ch.broadcasters[pick];
            if ch.winner != Some(expected) {
                out.push(Violation {
                    slot: activity.slot,
                    rule: Rule::RngStreamDiscipline,
                    detail: format!(
                        "{}: recorded winner {:?}, ENGINE-stream replay draws {expected}",
                        ch.channel, ch.winner
                    ),
                });
            }
        }
    }
    out
}

/// Renders violations as one panic-ready report line per violation.
pub fn report(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(Violation::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{full_overlap, shared_core};
    use crate::channel_model::StaticChannels;
    use crate::ids::GlobalChannel;
    use crate::trace::ChannelActivity;

    fn model() -> StaticChannels {
        StaticChannels::global(shared_core(4, 3, 2).expect("valid"))
    }

    fn clean_activity() -> SlotActivity {
        // shared_core(4, 3, 2): channels {0, 1} shared, one private each.
        SlotActivity {
            slot: 5,
            channels: vec![
                ChannelActivity {
                    channel: GlobalChannel(0),
                    broadcasters: vec![NodeId(0), NodeId(1)],
                    winner: Some(NodeId(1)),
                    listeners: vec![NodeId(2)],
                },
                ChannelActivity {
                    channel: GlobalChannel(1),
                    broadcasters: vec![],
                    winner: None,
                    listeners: vec![NodeId(3)],
                },
            ],
            sleepers: 0,
            jammed: 0,
        }
    }

    #[test]
    fn clean_record_has_no_violations() {
        assert_eq!(check_slot(&model(), None, &clean_activity()), vec![]);
    }

    #[test]
    fn corrupted_winner_is_caught() {
        let mut a = clean_activity();
        a.channels[0].winner = Some(NodeId(2)); // the listener
        let v = check_slot(&model(), None, &a);
        assert!(v.iter().any(|v| v.rule == Rule::WinnerLegitimacy), "{v:?}");
    }

    #[test]
    fn missing_winner_is_caught() {
        let mut a = clean_activity();
        a.channels[0].winner = None;
        let v = check_slot(&model(), None, &a);
        assert!(v.iter().any(|v| v.rule == Rule::WinnerLegitimacy), "{v:?}");
    }

    #[test]
    fn double_tuning_is_caught() {
        let mut a = clean_activity();
        a.channels[1].listeners = vec![NodeId(2)]; // already on channel 0
        let v = check_slot(&model(), None, &a);
        assert!(v.iter().any(|v| v.rule == Rule::SingleTuning), "{v:?}");
    }

    #[test]
    fn accounting_mismatch_is_caught() {
        let mut a = clean_activity();
        a.sleepers = 3;
        let v = check_slot(&model(), None, &a);
        assert!(v.iter().any(|v| v.rule == Rule::NodeAccounting), "{v:?}");
    }

    #[test]
    fn channel_outside_set_is_caught() {
        let mut a = clean_activity();
        // Channel 3 is node 1's private channel; node 3 does not hold it.
        a.channels[1].channel = GlobalChannel(3);
        let v = check_slot(&model(), None, &a);
        assert!(v.iter().any(|v| v.rule == Rule::ChannelMembership), "{v:?}");
    }

    #[test]
    fn out_of_order_channels_are_caught() {
        let mut a = clean_activity();
        a.channels.swap(0, 1);
        let v = check_slot(&model(), None, &a);
        assert!(v.iter().any(|v| v.rule == Rule::ChannelOrder), "{v:?}");
    }

    #[test]
    fn jammed_participant_is_caught() {
        struct JamAll;
        impl Interference for JamAll {
            fn advance(&mut self, _: u64, _: &mut crate::rng::SimRng) {}
            fn is_jammed(&self, _: NodeId, _: GlobalChannel) -> bool {
                true
            }
        }
        let v = check_slot(&model(), Some(&JamAll), &clean_activity());
        assert!(v.iter().any(|v| v.rule == Rule::JammedExclusion), "{v:?}");
    }

    #[test]
    fn overlap_violation_is_caught() {
        // Disjoint sets dressed up with a claimed k = 1: the model lies,
        // the validator notices.
        use crate::assignment::ChannelAssignment;
        let a = ChannelAssignment::from_sets(
            vec![
                vec![GlobalChannel(0)],
                vec![GlobalChannel(0)],
                vec![GlobalChannel(1)],
            ],
            2,
            1,
        );
        // from_sets validates, so build the disjoint case via a model
        // whose k is claimed after the fact: full_overlap then a custom
        // wrapper is overkill — instead check the clause through a
        // passing and a failing shape.
        assert!(a.is_err(), "from_sets itself must reject k violations");

        struct DisjointModel;
        impl ChannelModel for DisjointModel {
            fn n(&self) -> usize {
                2
            }
            fn c(&self) -> usize {
                1
            }
            fn k(&self) -> usize {
                1
            }
            fn total_channels(&self) -> usize {
                2
            }
            fn labels_are_global(&self) -> bool {
                true
            }
            fn advance(&mut self, _: u64) {}
            fn channels(&self, node: usize) -> &[GlobalChannel] {
                const SETS: [[GlobalChannel; 1]; 2] = [[GlobalChannel(0)], [GlobalChannel(1)]];
                &SETS[node]
            }
        }
        let empty = SlotActivity {
            slot: 0,
            channels: vec![],
            sleepers: 2,
            jammed: 0,
        };
        let v = check_slot(&DisjointModel, None, &empty);
        assert!(v.iter().any(|v| v.rule == Rule::PairwiseOverlap), "{v:?}");
    }

    #[test]
    fn jam_budget_breach_is_caught() {
        // Claims a budget of 1 but jams both shared channels of node 0.
        struct LyingJammer;
        impl Interference for LyingJammer {
            fn advance(&mut self, _: u64, _: &mut crate::rng::SimRng) {}
            fn is_jammed(&self, node: NodeId, channel: GlobalChannel) -> bool {
                node == NodeId(0) && channel.index() < 2
            }
            fn jam_budget(&self) -> Option<usize> {
                Some(1)
            }
        }
        let empty = SlotActivity {
            slot: 0,
            channels: vec![],
            sleepers: 4,
            jammed: 0,
        };
        let v = check_slot(&model(), Some(&LyingJammer), &empty);
        assert!(v.iter().any(|v| v.rule == Rule::JamBudget), "{v:?}");
    }

    #[test]
    fn replay_flags_a_corrupted_winner() {
        use crate::proto::{Action, Event, NodeCtx, Protocol};
        struct Shout;
        impl Protocol<u8> for Shout {
            fn decide(&mut self, _: &NodeCtx<'_>, _: &mut crate::rng::SimRng) -> Action<u8> {
                Action::Broadcast(crate::ids::LocalChannel(0), 1)
            }
            fn observe(&mut self, _: &NodeCtx<'_>, _: Event<u8>) {}
        }
        let m = StaticChannels::global(full_overlap(3, 1).expect("valid"));
        let mut net = crate::Network::with_medium(
            m,
            vec![Shout, Shout, Shout],
            11,
            crate::OracleSingleHop::new(),
        )
        .expect("construct");
        let mut trace: Vec<SlotActivity> = (0..50).map(|_| net.step().clone()).collect();
        assert_eq!(replay_winners(11, &trace), vec![]);
        // Flip one winner to a different legitimate broadcaster: the
        // slot-level check passes but the stream replay must not.
        let w = trace[20].channels[0].winner.expect("contended");
        let other = trace[20].channels[0]
            .broadcasters
            .iter()
            .copied()
            .find(|&b| b != w)
            .expect("two broadcasters");
        trace[20].channels[0].winner = Some(other);
        let v = replay_winners(11, &trace);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::RngStreamDiscipline);
        assert_eq!(v[0].slot, 20);
    }

    #[test]
    fn report_formats_one_line_per_violation() {
        let mut a = clean_activity();
        a.channels[0].winner = Some(NodeId(2));
        a.sleepers = 9;
        let v = check_slot(&model(), None, &a);
        let r = report(&v);
        assert_eq!(r.lines().count(), v.len());
        assert!(r.contains("winner-legitimacy"), "{r}");
    }
}
