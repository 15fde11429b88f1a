//! Integration tests for the Section 2 conformance validator against
//! real engine runs: clean runs across channel models, fault schedules
//! and jamming must produce zero violations, and deliberately
//! corrupted records must be caught — a checker that cannot fail
//! checks nothing.

use crn_sim::assignment::{full_overlap, shared_core};
use crn_sim::channel_model::{DynamicSharedCore, StaticChannels};
use crn_sim::conformance::{check_slot, replay_winners, Rule};
use crn_sim::interference::Interference;
use crn_sim::rng::SimRng;
use crn_sim::{
    Action, ChannelModel, Event, FaultSchedule, Flaky, GlobalChannel, LocalChannel, Network,
    NodeCtx, NodeId, Protocol, SlotActivity,
};
use proptest::prelude::*;
use rand::Rng;

/// A COGCAST-shaped hopper: informed nodes broadcast on a uniform
/// local channel, the rest hop and listen.
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
        if matches!(event, Event::Received { .. }) {
            self.informed = true;
        }
    }
}

fn hoppers(n: usize) -> Vec<Hopper> {
    (0..n).map(|i| Hopper { informed: i == 0 }).collect()
}

fn assert_clean_run<CM: crn_sim::ChannelModel>(
    net: &mut Network<u8, impl Protocol<u8>, CM>,
    seed: u64,
    slots: u64,
    label: &str,
) {
    let mut trace: Vec<SlotActivity> = Vec::new();
    for s in 0..slots {
        trace.push(net.step().clone());
        let violations = net.check_conformance();
        assert!(violations.is_empty(), "{label}, slot {s}: {violations:?}");
    }
    assert_eq!(
        replay_winners(seed, &trace),
        vec![],
        "{label}: winners must match the ENGINE-stream replay"
    );
}

#[test]
fn clean_runs_are_conformant_across_models() {
    // Static local labels.
    let model = StaticChannels::local(shared_core(12, 5, 2).unwrap(), 7);
    let mut net = Network::new(model, hoppers(12), 7).unwrap();
    assert_clean_run(&mut net, 7, 300, "static local");

    // Static global labels.
    let model = StaticChannels::global(full_overlap(8, 4).unwrap());
    let mut net = Network::new(model, hoppers(8), 8).unwrap();
    assert_clean_run(&mut net, 8, 300, "static global");

    // Churned assignment: sets change under the protocol's feet.
    let model = DynamicSharedCore::new(10, 5, 2, 25, 0.6, 9).unwrap();
    let mut net = Network::new(model, hoppers(10), 9).unwrap();
    assert_clean_run(&mut net, 9, 300, "dynamic churned");
}

#[test]
fn faulty_runs_are_conformant() {
    for schedule in [
        FaultSchedule::Random { p: 0.3 },
        FaultSchedule::Window { from: 10, to: 60 },
        FaultSchedule::Periodic { period: 7, down: 3 },
    ] {
        let model = StaticChannels::local(shared_core(10, 5, 2).unwrap(), 3);
        let protos: Vec<Flaky<Hopper>> = hoppers(10)
            .into_iter()
            .map(|p| Flaky::new(p, schedule.clone()))
            .collect();
        let mut net = Network::new(model, protos, 3).unwrap();
        assert_clean_run(&mut net, 3, 200, "faulty");
    }
}

/// An inline n-uniform jammer (crn-sim cannot depend on crn-jamming):
/// jams a per-node rotating window of `budget` channels and declares
/// the budget, so the Theorem 18 clauses are exercised.
struct WindowJammer {
    c: usize,
    budget: usize,
    slot: u64,
}

impl Interference for WindowJammer {
    fn advance(&mut self, slot: u64, _rng: &mut SimRng) {
        self.slot = slot;
    }
    fn is_jammed(&self, node: NodeId, channel: GlobalChannel) -> bool {
        let start = (self.slot as usize + node.index()) % self.c;
        (0..self.budget).any(|off| (start + off) % self.c == channel.index())
    }
    fn jam_budget(&self) -> Option<usize> {
        Some(self.budget)
    }
}

#[test]
fn jammed_runs_are_conformant_including_budget_clauses() {
    // full_overlap(10, 8) with budget 2: effective overlap 8 - 4 = 4.
    let model = StaticChannels::local(full_overlap(10, 8).unwrap(), 5);
    let jammer = WindowJammer {
        c: 8,
        budget: 2,
        slot: 0,
    };
    let mut net = Network::with_interference(model, hoppers(10), 5, Box::new(jammer)).unwrap();
    assert_clean_run(&mut net, 5, 300, "jammed");
}

#[test]
fn validator_catches_a_corrupted_winner_from_a_real_run() {
    let model = StaticChannels::global(full_overlap(6, 2).unwrap());
    let mut net = Network::new(model.clone(), hoppers(6), 13).unwrap();
    // Find a slot with a contended channel that also has a listener.
    let corrupted = loop {
        let act = net.step().clone();
        if let Some(ch) = act
            .channels
            .iter()
            .find(|ch| !ch.broadcasters.is_empty() && !ch.listeners.is_empty())
        {
            let listener = ch.listeners[0];
            let channel = ch.channel;
            let mut bad = act;
            for c in &mut bad.channels {
                if c.channel == channel {
                    c.winner = Some(listener);
                }
            }
            break bad;
        }
    };
    let violations = check_slot(&model, None, &corrupted);
    assert!(
        violations.iter().any(|v| v.rule == Rule::WinnerLegitimacy),
        "a listener posing as winner must be flagged: {violations:?}"
    );
}

#[test]
fn validator_catches_an_out_of_set_participant_from_a_real_run() {
    let model = StaticChannels::global(shared_core(6, 3, 1).unwrap());
    let mut net = Network::new(model.clone(), hoppers(6), 17).unwrap();
    let mut act = net.step().clone();
    while act.channels.is_empty() {
        act = net.step().clone();
    }
    // Teleport the record to a channel outside everyone's sets.
    let far = GlobalChannel(model.total_channels() as u32 + 5);
    act.channels.last_mut().unwrap().channel = far;
    let violations = check_slot(&model, None, &act);
    assert!(
        violations.iter().any(|v| v.rule == Rule::ChannelMembership),
        "{violations:?}"
    );
}

/// Scripted protocol with payloads encoding (node, slot) so the event
/// contract can be checked with exact message attribution.
#[derive(Debug, Clone)]
enum Step {
    Broadcast(u32),
    Listen(u32),
    Sleep,
}

struct Scripted {
    id: u32,
    script: Vec<Step>,
    events: Vec<Option<Event<u32>>>,
}

impl Protocol<u32> for Scripted {
    fn decide(&mut self, ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u32> {
        self.events.push(None);
        match self.script[ctx.slot as usize % self.script.len()] {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary scripted workloads on arbitrary full-overlap shapes:
    /// every slot conformant, the whole run replayable, and every
    /// delivered message exactly the winner's (footnote 4 end to end).
    #[test]
    fn random_workloads_are_conformant_and_replayable(
        (n, c, scripts) in (2usize..8, 1u32..5, 1usize..14).prop_flat_map(|(n, c, slots)| {
            (
                Just(n),
                Just(c),
                proptest::collection::vec(
                    proptest::collection::vec(step_strategy(c), slots),
                    n,
                ),
            )
        }),
        seed in 0u64..1000,
    ) {
        let slots = scripts[0].len();
        let model = StaticChannels::global(full_overlap(n, c as usize).unwrap());
        let protos: Vec<Scripted> = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| Scripted { id: i as u32, script: s.clone(), events: Vec::new() })
            .collect();
        let mut net = Network::new(model, protos, seed).unwrap();
        let mut trace = Vec::new();
        for _ in 0..slots {
            trace.push(net.step().clone());
            let violations = net.check_conformance();
            prop_assert!(violations.is_empty(), "{violations:?}");
        }
        prop_assert_eq!(replay_winners(seed, &trace), vec![]);

        // Event contract: every listener on a winning channel received
        // exactly the winner's message.
        let protos = net.into_protocols();
        for (slot, act) in trace.iter().enumerate() {
            for ch in &act.channels {
                let expected = ch.winner.map(|w| w.0 * 10_000 + slot as u32);
                for &l in &ch.listeners {
                    let ev = protos[l.index()].events[slot].clone().expect("listener observes");
                    match (ch.winner, ev) {
                        (Some(w), Event::Received { from, msg }) => {
                            prop_assert_eq!(from, w);
                            prop_assert_eq!(msg, expected.unwrap());
                        }
                        (None, Event::Silence) => {}
                        (winner, other) => {
                            return Err(TestCaseError::fail(format!(
                                "slot {slot}, {l}: winner {winner:?} but observed {other:?}"
                            )));
                        }
                    }
                }
            }
        }
    }
}

/// A record-free slot has no record to check, so it must never pass as
/// a checked, empty slot: `last_activity` is `None` and
/// `check_conformance` reports exactly one `Unrecorded` violation for
/// it — before the first slot too — while `step()` slots keep their
/// records and their checks.
#[test]
fn record_free_slots_are_reported_unrecorded() {
    let model = StaticChannels::local(shared_core(8, 4, 2).expect("valid shape"), 3);
    let mut net = Network::new(model, hoppers(8), 3).expect("construct");
    let unrecorded = |net: &Network<u8, Hopper, StaticChannels>, slot: u64| {
        assert!(net.last_activity().is_none(), "slot {slot} has no record");
        let violations = net.check_conformance();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, Rule::Unrecorded);
        assert_eq!(violations[0].slot, slot);
    };
    unrecorded(&net, 0);

    let recorded = net.step().clone();
    assert_eq!(net.last_activity(), Some(&recorded));
    assert_eq!(net.check_conformance(), vec![]);

    net.step_unrecorded();
    unrecorded(&net, 1);

    let recorded = net.step().clone();
    assert_eq!(recorded.slot, 2);
    assert!(
        recorded.transmissions() > 0,
        "the source broadcasts every slot"
    );
    assert_eq!(net.last_activity(), Some(&recorded));
    assert_eq!(net.check_conformance(), vec![]);

    net.run_slots(3);
    unrecorded(&net, 5);
}

/// With the in-step validator compiled in, record-free stepping still
/// asks the medium for records and checks them: a medium that writes a
/// bogus record whenever records are requested aborts the slot.
#[cfg(feature = "validate")]
#[test]
#[should_panic(expected = "model-conformance violation")]
fn validate_checks_record_free_slots_too() {
    use crn_sim::{ChannelActivity, Medium, MediumProfile, SlotInputs};

    struct WinnerFromNowhere;

    impl Medium<u8> for WinnerFromNowhere {
        fn reseed(&mut self, _master: u64) {}

        fn resolve(
            &mut self,
            inputs: &SlotInputs<'_, u8>,
            events: &mut [Option<Event<u8>>],
            activity: &mut SlotActivity,
        ) {
            for &(_, node, _) in inputs.tuned {
                events[node] = Some(Event::Silence);
            }
            if inputs.records {
                activity.channels = vec![ChannelActivity {
                    channel: GlobalChannel(0),
                    broadcasters: Vec::new(),
                    winner: Some(NodeId(0)),
                    listeners: Vec::new(),
                }];
            }
        }

        fn profile(&self) -> MediumProfile {
            MediumProfile::oracle()
        }
    }

    let model = StaticChannels::global(full_overlap(2, 1).expect("valid shape"));
    let mut net = Network::with_medium(model, hoppers(2), 0, WinnerFromNowhere).expect("construct");
    net.step_unrecorded();
}
