//! Property-based verification of the [`OracleMultihop`] medium
//! against its receiver-centric reference semantics, with randomly
//! scripted behaviour over random topologies.

use crn_sim::assignment::full_overlap;
use crn_sim::channel_model::StaticChannels;
use crn_sim::rng::SimRng;
use crn_sim::{Action, Event, LocalChannel, Network, NodeCtx, OracleMultihop, Protocol, Topology};
use proptest::prelude::*;

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
            Step::Broadcast(ch) => {
                Action::Broadcast(LocalChannel(ch), self.id * 1000 + ctx.slot as u32)
            }
            Step::Listen(ch) => Action::Listen(LocalChannel(ch)),
            Step::Sleep => Action::Sleep,
        }
    }
    fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u32>) {
        *self.events.last_mut().expect("decide first") = Some(event);
    }
}

fn step_strategy(c: u32) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..c).prop_map(Step::Broadcast),
        (0..c).prop_map(Step::Listen),
        Just(Step::Sleep),
    ]
}

/// One generated test instance: `(n, c, per-node scripts, edge list)`.
type Instance = (usize, u32, Vec<Vec<Step>>, Vec<(usize, usize)>);

fn instance() -> impl Strategy<Value = Instance> {
    (3usize..8, 1u32..4, 1usize..10).prop_flat_map(|(n, c, slots)| {
        let scripts =
            proptest::collection::vec(proptest::collection::vec(step_strategy(c), slots), n);
        let edges = proptest::collection::vec((0..n, 0..n), 0..=n * 2);
        (Just(n), Just(c), scripts, edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn multihop_engine_matches_reference((n, c, scripts, edges) in instance()) {
        let slots = scripts[0].len();
        let topo = Topology::from_edges(n, &edges);
        // On a complete topology the medium intentionally delegates to
        // the single-hop oracle (losers overhear the winner instead of
        // the receiver-centric rule below); that path is covered by the
        // trace-equality tests in crn_sim::medium and the media
        // differential suite.
        if topo.is_complete() {
            return Ok(());
        }
        let model = StaticChannels::global(full_overlap(n, c as usize).unwrap());
        let protos: Vec<Scripted> = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| Scripted { id: i as u32, script: s.clone(), events: Vec::new() })
            .collect();
        let medium = OracleMultihop::new(topo.clone());
        let mut net = Network::with_medium(model, protos, 7, medium).unwrap();
        for _ in 0..slots {
            net.step();
        }
        let protos = net.into_protocols();

        // Indexing (not iterating) because `slot` addresses the same
        // position in every node's script and event log at once.
        #[allow(clippy::needless_range_loop)]
        for slot in 0..slots {
            for i in 0..n {
                let ev = &protos[i].events[slot];
                match scripts[i][slot] {
                    Step::Sleep => prop_assert!(ev.is_none()),
                    Step::Broadcast(_) => prop_assert_eq!(ev.clone(), Some(Event::Delivered)),
                    Step::Listen(my_ch) => {
                        // Reference: transmitting neighbors on my channel.
                        let senders: Vec<usize> = topo
                            .neighbors(i)
                            .iter()
                            .copied()
                            .filter(|&j| scripts[j][slot] == Step::Broadcast(my_ch))
                            .collect();
                        match ev.clone().expect("listener observes") {
                            Event::Silence => prop_assert!(
                                senders.is_empty(),
                                "node {i} slot {slot}: heard silence despite senders {senders:?}"
                            ),
                            Event::Received { from, msg } => {
                                prop_assert!(senders.contains(&from.index()));
                                prop_assert_eq!(msg, from.0 * 1000 + slot as u32);
                            }
                            other => prop_assert!(false, "unexpected event {other:?}"),
                        }
                    }
                }
            }
        }
    }
}
