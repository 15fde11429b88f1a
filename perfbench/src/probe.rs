//! Detects a build with crn-sim's `validate` feature, whose per-slot
//! checks allocate and would shift every timing.

use crn_sim::assignment::full_overlap;
use crn_sim::channel_model::StaticChannels;
use crn_sim::rng::SimRng;
use crn_sim::{
    Action, ChannelActivity, Event, GlobalChannel, LocalChannel, Medium, MediumProfile, Network,
    NodeCtx, NodeId, Protocol, SlotActivity, SlotInputs,
};

struct Listen;

impl Protocol<u8> for Listen {
    fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u8> {
        Action::Listen(LocalChannel(0))
    }

    fn observe(&mut self, _ctx: &NodeCtx<'_>, _event: Event<u8>) {}
}

/// A medium that breaks the Section 2 contract on purpose: it names a
/// winner on a channel nobody broadcast on.
struct Lying;

impl Medium<u8> for Lying {
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
        activity.channels.clear();
        activity.channels.push(ChannelActivity {
            channel: GlobalChannel(0),
            broadcasters: Vec::new(),
            winner: Some(NodeId(0)),
            listeners: Vec::new(),
        });
    }

    fn profile(&self) -> MediumProfile {
        MediumProfile::oracle()
    }
}

/// True when `Network::step` checks each slot against the model, i.e.
/// crn-sim was built with `validate`: the lying medium then aborts the
/// step. Call before any other thread starts, since it swaps the
/// process-wide panic hook for the duration of the probe.
pub fn validate_compiled_in() -> bool {
    let model = StaticChannels::global(full_overlap(2, 1).expect("valid shape"));
    let mut net = Network::with_medium(model, vec![Listen, Listen], 0, Lying)
        .expect("two protocols for two nodes");
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        net.step();
    }));
    std::panic::set_hook(hook);
    caught.is_err()
}
