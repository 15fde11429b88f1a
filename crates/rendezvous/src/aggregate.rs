//! The rendezvous-based data-aggregation baseline.
//!
//! The introduction's "straightforward solution": each non-source node
//! repeatedly tries to rendezvous with the source and hand over its
//! value; the source listens and acknowledges one sender at a time.
//! With fair contention this costs `O(c²·n/k)` slots — COGCOMP's
//! advantage (experiment T2/F6) is that it pays the rendezvous price
//! once to build a tree, then pipelines the `n` hand-offs.
//!
//! Concretely the baseline runs in 2-slot steps:
//!
//! 1. every undelivered sender broadcasts `⟨id, value⟩` on a uniformly
//!    random channel while the source listens on a uniformly random
//!    channel;
//! 2. if the source heard a value, it acknowledges the sender's id on
//!    the same channel; senders listen where they transmitted, and a
//!    sender that hears its own id stops.

use crate::msg::BaselineMsg;
use crn_core::aggregate::Aggregate;
use crn_sim::rng::SimRng;
use crn_sim::{
    Action, ChannelModel, Event, LocalChannel, Network, NodeCtx, NodeId, OracleSingleHop, Protocol,
    SimError,
};
use std::collections::BTreeSet;

/// A node of the rendezvous-aggregation baseline.
#[derive(Debug, Clone)]
pub struct RendezvousAggregation<V> {
    value: V,
    is_source: bool,
    expected: usize,
    collected: BTreeSet<NodeId>,
    delivered: bool,
    current_channel: LocalChannel,
    pending_ack: Option<NodeId>,
}

impl<V: Aggregate> RendezvousAggregation<V> {
    /// The source, expecting values from `n − 1` senders.
    pub fn source(value: V, n: usize) -> Self {
        RendezvousAggregation {
            value,
            is_source: true,
            expected: n.saturating_sub(1),
            collected: BTreeSet::new(),
            delivered: true,
            current_channel: LocalChannel(0),
            pending_ack: None,
        }
    }

    /// A sender holding `value`.
    pub fn node(value: V) -> Self {
        RendezvousAggregation {
            value,
            is_source: false,
            expected: 0,
            collected: BTreeSet::new(),
            delivered: false,
            current_channel: LocalChannel(0),
            pending_ack: None,
        }
    }

    /// The aggregate accumulated so far (the final result on the source
    /// once done).
    pub fn aggregate(&self) -> &V {
        &self.value
    }

    /// Number of distinct senders the source has collected.
    pub fn collected(&self) -> usize {
        self.collected.len()
    }
}

impl<V: Aggregate> Protocol<BaselineMsg<V>> for RendezvousAggregation<V> {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<BaselineMsg<V>> {
        let meeting_slot = ctx.slot.is_multiple_of(2);
        if meeting_slot {
            if self.delivered && !self.is_source {
                // Nothing reads a delivered sender's stream again, so
                // it sleeps without drawing a channel.
                return Action::Sleep;
            }
            self.current_channel = LocalChannel(rng.gen_range(0..ctx.c as u32));
            if self.is_source {
                if self.collected.len() >= self.expected {
                    return Action::Sleep;
                }
                Action::Listen(self.current_channel)
            } else {
                Action::Broadcast(
                    self.current_channel,
                    BaselineMsg::Value {
                        id: ctx.id,
                        v: self.value.clone(),
                    },
                )
            }
        } else {
            // Acknowledgement slot, on the meeting channel.
            if self.is_source {
                match self.pending_ack.take() {
                    Some(id) => Action::Broadcast(self.current_channel, BaselineMsg::Ack { id }),
                    None => Action::Sleep,
                }
            } else if self.delivered {
                Action::Sleep
            } else {
                Action::Listen(self.current_channel)
            }
        }
    }

    fn observe(&mut self, ctx: &NodeCtx<'_>, event: Event<BaselineMsg<V>>) {
        let meeting_slot = ctx.slot.is_multiple_of(2);
        if meeting_slot {
            if self.is_source {
                if let Event::Received {
                    msg: BaselineMsg::Value { id, v },
                    ..
                } = event
                {
                    if self.collected.insert(id) {
                        self.value.merge(&v);
                    }
                    self.pending_ack = Some(id);
                }
            }
        } else if !self.is_source {
            if let Event::Received {
                msg: BaselineMsg::Ack { id },
                ..
            } = event
            {
                if id == ctx.id {
                    self.delivered = true;
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        if self.is_source {
            self.collected.len() >= self.expected
        } else {
            self.delivered
        }
    }
}

/// Statistics of one baseline-aggregation run.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineAggregationRun<V> {
    /// The aggregate at the source, if the run completed.
    pub result: Option<V>,
    /// Slots until the source collected everything, or `None` on
    /// timeout.
    pub slots: Option<u64>,
    /// The slot budget allowed.
    pub budget: u64,
}

impl<V> BaselineAggregationRun<V> {
    /// True if the run completed within budget.
    pub fn completed(&self) -> bool {
        self.slots.is_some()
    }
}

/// Runs the rendezvous-aggregation baseline (node 0 is the source).
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `values.len()` differs from
/// the model's node count, and propagates construction errors.
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::Sum;
/// use crn_rendezvous::aggregate::run_baseline_aggregation;
/// use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
///
/// let model = StaticChannels::local(shared_core(6, 3, 2)?, 4);
/// let values: Vec<Sum> = (0..6).map(Sum).collect();
/// let run = run_baseline_aggregation(model, values, 4, 1_000_000)?;
/// assert_eq!(run.result, Some(Sum(15)));
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_baseline_aggregation<CM: ChannelModel, V: Aggregate>(
    model: CM,
    values: Vec<V>,
    seed: u64,
    budget: u64,
) -> Result<BaselineAggregationRun<V>, SimError> {
    let n = model.n();
    if values.len() != n {
        return Err(SimError::InvalidParams {
            reason: format!("{} values supplied for {n} nodes", values.len()),
        });
    }
    let mut values = values.into_iter();
    let source_value = values.next().expect("n >= 1");
    let mut protos = Vec::with_capacity(n);
    protos.push(RendezvousAggregation::source(source_value, n));
    protos.extend(values.map(RendezvousAggregation::node));
    let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new())?;
    let outcome = net.run_to_completion(budget);
    let slots = outcome.slots();
    let protos = net.into_protocols();
    let result = slots.map(|_| protos[0].aggregate().clone());
    Ok(BaselineAggregationRun {
        result,
        slots,
        budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::aggregate::{Collect, Sum};
    use crn_sim::assignment::{full_overlap, shared_core};
    use crn_sim::channel_model::StaticChannels;

    #[test]
    fn aggregates_correctly_single_channel() {
        let n = 8;
        let model = StaticChannels::local(full_overlap(n, 1).unwrap(), 0);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        let run = run_baseline_aggregation(model, values, 0, 100_000).unwrap();
        assert!(run.completed());
        assert_eq!(run.result, Some(Sum(28)));
    }

    #[test]
    fn aggregates_correctly_partial_overlap() {
        for seed in 0..5 {
            let n = 10;
            let model = StaticChannels::local(shared_core(n, 4, 2).unwrap(), seed);
            let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
            let run = run_baseline_aggregation(model, values, seed, 1_000_000).unwrap();
            assert!(run.completed(), "seed {seed}");
            assert_eq!(run.result, Some(Sum(45)), "seed {seed}");
        }
    }

    #[test]
    fn every_value_counted_exactly_once() {
        let n = 9;
        let model = StaticChannels::local(shared_core(n, 3, 1).unwrap(), 7);
        let values: Vec<Collect> = (0..n as u64).map(Collect::of).collect();
        let run = run_baseline_aggregation(model, values, 7, 1_000_000).unwrap();
        let expect: Vec<u64> = (0..n as u64).collect();
        assert_eq!(run.result.unwrap().values(), expect.as_slice());
    }

    #[test]
    fn single_node_is_instant() {
        let model = StaticChannels::local(full_overlap(1, 2).unwrap(), 0);
        let run = run_baseline_aggregation(model, vec![Sum(9)], 0, 10).unwrap();
        assert_eq!(run.result, Some(Sum(9)));
        assert_eq!(run.slots, Some(0), "source with nothing to collect");
    }

    #[test]
    fn value_count_mismatch_rejected() {
        let model = StaticChannels::local(full_overlap(3, 2).unwrap(), 0);
        assert!(run_baseline_aggregation(model, vec![Sum(1)], 0, 10).is_err());
    }

    #[test]
    fn cost_grows_linearly_in_n() {
        // O(c²·n/k): doubling n should roughly double the time.
        let mean = |n: usize| -> f64 {
            let trials = 6;
            let mut total = 0u64;
            for seed in 0..trials {
                let model = StaticChannels::local(shared_core(n, 4, 2).unwrap(), seed);
                let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
                let run = run_baseline_aggregation(model, values, seed, 10_000_000).unwrap();
                total += run.slots.unwrap();
            }
            total as f64 / trials as f64
        };
        let t20 = mean(20);
        let t80 = mean(80);
        let ratio = t80 / t20;
        assert!(
            (2.0..10.0).contains(&ratio),
            "expected ~4x for 4x nodes, got {ratio} ({t20} vs {t80})"
        );
    }
}
