//! Property-based verification of the engine against the paper's slot
//! semantics (Section 2), using randomly scripted node behaviour and
//! an independent reference check.
//!
//! For arbitrary scripts we assert, slot by slot:
//! - the activity record reproduces the scripted tunings exactly;
//! - every contended channel has exactly one winner, drawn from its
//!   broadcasters;
//! - every listener on a channel with a winner receives the winner's
//!   message; listeners on quiet channels hear silence;
//! - the winner observes `Delivered`; every other broadcaster observes
//!   `Lost` with the winner's message;
//! - sleepers observe nothing.

use crn_sim::assignment::full_overlap;
use crn_sim::channel_model::StaticChannels;
use crn_sim::rng::SimRng;
use crn_sim::{
    Action, Event, Jammed, LocalChannel, Network, NodeCtx, NodeId, OracleSingleHop, Protocol,
    SlotActivity,
};
use proptest::prelude::*;

/// A scripted action: what one node does in one slot.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Broadcast(u32),
    Listen(u32),
    Sleep,
}

#[derive(Debug)]
struct Scripted {
    id: u32,
    script: Vec<Step>,
    events: Vec<Option<Event<u32>>>,
}

impl Protocol<u32> for Scripted {
    fn decide(&mut self, ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u32> {
        self.events.push(None);
        match self.script[ctx.slot as usize] {
            // Message payload encodes (node, slot) so deliveries can be
            // attributed exactly.
            Step::Broadcast(ch) => {
                Action::Broadcast(LocalChannel(ch), self.id * 10_000 + ctx.slot as u32)
            }
            Step::Listen(ch) => Action::Listen(LocalChannel(ch)),
            Step::Sleep => Action::Sleep,
        }
    }

    fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u32>) {
        *self.events.last_mut().expect("decide ran first") = Some(event);
    }
}

fn step_strategy(c: u32) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..c).prop_map(Step::Broadcast),
        (0..c).prop_map(Step::Listen),
        Just(Step::Sleep),
    ]
}

fn scripts_strategy() -> impl Strategy<Value = (usize, u32, Vec<Vec<Step>>)> {
    (2usize..7, 1u32..5, 1usize..12).prop_flat_map(|(n, c, slots)| {
        (
            Just(n),
            Just(c),
            proptest::collection::vec(proptest::collection::vec(step_strategy(c), slots), n),
        )
    })
}

/// Theorem 18's exclusion at the slot level: a broadcaster whose
/// `(node, channel)` pair is jammed is removed from the slot entirely —
/// its message is never delivered to anyone, it never wins contention,
/// and it observes `Jammed` rather than a contention outcome.
#[test]
fn jammed_broadcaster_never_delivers_and_never_wins() {
    use crn_sim::interference::Interference;
    use crn_sim::GlobalChannel;

    /// Permanently jams node 0 on global channel 0.
    struct JamSource;
    impl Interference for JamSource {
        fn advance(&mut self, _slot: u64, _rng: &mut SimRng) {}
        fn is_jammed(&self, node: NodeId, channel: GlobalChannel) -> bool {
            node == NodeId(0) && channel == GlobalChannel(0)
        }
    }

    let slots = 200usize;
    let script = |step: Step| vec![step; slots];
    let protos = vec![
        Scripted {
            id: 0,
            script: script(Step::Broadcast(0)),
            events: Vec::new(),
        },
        Scripted {
            id: 1,
            script: script(Step::Broadcast(0)),
            events: Vec::new(),
        },
        Scripted {
            id: 2,
            script: script(Step::Listen(0)),
            events: Vec::new(),
        },
    ];
    let model = StaticChannels::global(full_overlap(3, 1).unwrap());
    let mut net = Network::with_medium(
        model,
        protos,
        5,
        Jammed::new(OracleSingleHop::new(), Box::new(JamSource)),
    )
    .unwrap();
    for _ in 0..slots {
        let activity = net.step();
        assert_eq!(activity.jammed, 1);
        let ch = activity.on_channel(GlobalChannel(0)).expect("busy channel");
        assert!(
            !ch.broadcasters.contains(&NodeId(0)),
            "jammed broadcaster must not contend"
        );
        assert_ne!(
            ch.winner,
            Some(NodeId(0)),
            "jammed broadcaster must not win"
        );
    }
    let protos = net.into_protocols();
    for ev in protos[0].events.iter() {
        assert_eq!(
            ev.clone().expect("broadcaster observes"),
            Event::Jammed,
            "jammed broadcaster observes only jamming"
        );
    }
    for (slot, ev) in protos[2].events.iter().enumerate() {
        // Node 1 is the only live broadcaster, so the listener receives
        // its message every slot — never node 0's.
        assert_eq!(
            ev.clone().expect("listener observes"),
            Event::Received {
                from: NodeId(1),
                msg: 10_000 + slot as u32
            }
        );
    }
}

/// With local labels (`labels_are_global() == false`), protocols must
/// not be able to see the global channel ids behind their labels:
/// `NodeCtx.channels` is `None` in both `decide` and `observe`. With
/// global labels it is `Some` — the same assignment, observed through
/// both models.
#[test]
fn local_labels_never_expose_global_channel_ids() {
    use crn_sim::channel_model::ChannelModel;

    /// Records whether `ctx.channels` was populated, every call.
    struct CtxSpy {
        saw_channels: Vec<bool>,
    }
    impl Protocol<u8> for CtxSpy {
        fn decide(&mut self, ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u8> {
            self.saw_channels.push(ctx.channels.is_some());
            Action::Broadcast(LocalChannel(0), 1)
        }
        fn observe(&mut self, ctx: &NodeCtx<'_>, _event: Event<u8>) {
            self.saw_channels.push(ctx.channels.is_some());
        }
    }

    for global in [false, true] {
        let assignment = full_overlap(4, 3).unwrap();
        let model = if global {
            StaticChannels::global(assignment)
        } else {
            StaticChannels::local(assignment, 17)
        };
        assert_eq!(model.labels_are_global(), global);
        let protos = (0..4)
            .map(|_| CtxSpy {
                saw_channels: Vec::new(),
            })
            .collect();
        let mut net = Network::with_medium(model, protos, 17, OracleSingleHop::new()).unwrap();
        for _ in 0..50 {
            net.step();
        }
        for (i, spy) in net.into_protocols().into_iter().enumerate() {
            assert!(!spy.saw_channels.is_empty());
            for saw in spy.saw_channels {
                assert_eq!(
                    saw, global,
                    "node {i}: ctx.channels must be Some iff labels are global (global={global})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn engine_matches_reference_semantics((n, c, scripts) in scripts_strategy()) {
        let slots = scripts[0].len();
        let model = StaticChannels::global(full_overlap(n, c as usize).unwrap());
        let protos: Vec<Scripted> = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| Scripted { id: i as u32, script: s.clone(), events: Vec::new() })
            .collect();
        let mut net = Network::with_medium(model, protos, 99, OracleSingleHop::new()).unwrap();
        let mut activities: Vec<SlotActivity> = Vec::new();
        for _ in 0..slots {
            activities.push(net.step().clone());
        }
        let protos = net.into_protocols();

        for (slot, activity) in activities.iter().enumerate() {
            // Reference: group scripted tunings per channel.
            let mut per_channel: std::collections::BTreeMap<u32, (Vec<u32>, Vec<u32>)> =
                std::collections::BTreeMap::new();
            let mut sleepers = 0;
            for (i, script) in scripts.iter().enumerate() {
                match script[slot] {
                    Step::Broadcast(ch) => per_channel.entry(ch).or_default().0.push(i as u32),
                    Step::Listen(ch) => per_channel.entry(ch).or_default().1.push(i as u32),
                    Step::Sleep => sleepers += 1,
                }
            }
            prop_assert_eq!(activity.sleepers, sleepers);
            prop_assert_eq!(activity.channels.len(), per_channel.len());

            for ch_act in &activity.channels {
                let (bs, ls) = per_channel
                    .get(&(ch_act.channel.0))
                    .expect("engine reported an untuned channel");
                let got_bs: Vec<u32> = ch_act.broadcasters.iter().map(|x| x.0).collect();
                let got_ls: Vec<u32> = ch_act.listeners.iter().map(|x| x.0).collect();
                prop_assert_eq!(&got_bs, bs);
                prop_assert_eq!(&got_ls, ls);
                // Winner drawn from the broadcasters, iff any exist.
                match ch_act.winner {
                    Some(w) => prop_assert!(bs.contains(&w.0)),
                    None => prop_assert!(bs.is_empty()),
                }
                let expected_msg =
                    ch_act.winner.map(|w| w.0 * 10_000 + slot as u32);

                // Event checks per participant.
                for &b in bs {
                    let ev = protos[b as usize].events[slot].clone().expect("broadcaster observes");
                    if Some(NodeId(b)) == ch_act.winner {
                        prop_assert_eq!(ev, Event::Delivered);
                    } else {
                        prop_assert_eq!(
                            ev,
                            Event::Lost {
                                winner: ch_act.winner.unwrap(),
                                msg: expected_msg.unwrap()
                            }
                        );
                    }
                }
                for &l in ls {
                    let ev = protos[l as usize].events[slot].clone().expect("listener observes");
                    match ch_act.winner {
                        Some(w) => prop_assert_eq!(
                            ev,
                            Event::Received { from: w, msg: expected_msg.unwrap() }
                        ),
                        None => prop_assert_eq!(ev, Event::Silence),
                    }
                }
            }

            // Sleepers observed nothing.
            for (i, script) in scripts.iter().enumerate() {
                if script[slot] == Step::Sleep {
                    prop_assert!(protos[i].events[slot].is_none());
                }
            }
        }
    }
}
