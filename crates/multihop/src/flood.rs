//! COGCAST as a multi-hop flooding primitive.
//!
//! The epidemic structure that makes COGCAST fast in one hop makes it a
//! *flood* across hops: informed nodes keep transmitting, so the
//! message crosses one hop per `O((c/k)·lg n)`-ish epoch and the total
//! time scales with the topology's diameter — the behaviour the
//! multi-hop broadcast literature engineers explicitly, recovered here
//! with zero protocol changes.

use crate::engine::MultihopNetwork;
use crate::topology::Topology;
use crn_core::cogcast::CogCast;
use crn_sim::{ChannelModel, SimError};
use serde::{Deserialize, Serialize};

/// Statistics of one multi-hop flood.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FloodRun {
    /// Slots until every node was informed, or `None` on timeout.
    pub slots: Option<u64>,
    /// The slot budget allowed.
    pub budget: u64,
    /// Informed count after each slot.
    pub informed_per_slot: Vec<usize>,
    /// The topology's diameter (`None` if disconnected).
    pub diameter: Option<usize>,
}

impl FloodRun {
    /// True if the flood completed within the budget.
    pub fn completed(&self) -> bool {
        self.slots.is_some()
    }
}

/// A flood slot budget scaling Theorem 4's single-hop budget by the
/// topology's diameter (each hop is one single-hop broadcast epoch,
/// and hops pipeline, so this is conservative).
///
/// # Panics
///
/// Panics if the topology is disconnected (no finite flood budget
/// exists) or the `(n, c, k)` parameters are invalid.
///
/// # Examples
///
/// ```
/// use crn_multihop::{flood_budget, Topology};
/// let b = flood_budget(&Topology::line(8), 4, 2, 10.0);
/// assert!(b >= 7);
/// ```
pub fn flood_budget(topology: &Topology, c: usize, k: usize, alpha: f64) -> u64 {
    let n = topology.len();
    let diameter = topology
        .diameter()
        .expect("flood budget requires a connected topology") as u64;
    (diameter + 1) * crn_core::bounds::cogcast_slots(n, c, k, alpha)
}

/// Floods from node 0 over `topology` with COGCAST.
///
/// # Errors
///
/// Propagates [`SimError`] from network construction (including
/// topology/model size mismatches).
///
/// # Examples
///
/// ```
/// use crn_multihop::{run_flood, Topology};
/// use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
///
/// let n = 9;
/// let topo = Topology::grid(3, 3);
/// let model = StaticChannels::local(shared_core(n, 4, 2)?, 5);
/// let run = run_flood(topo, model, 5, 100_000)?;
/// assert!(run.completed());
/// assert_eq!(run.diameter, Some(4));
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_flood<CM: ChannelModel>(
    topology: Topology,
    model: CM,
    seed: u64,
    budget: u64,
) -> Result<FloodRun, SimError> {
    let n = model.n();
    let diameter = topology.diameter();
    let mut protos = Vec::with_capacity(n);
    protos.push(CogCast::source(()));
    protos.extend((1..n).map(|_| CogCast::node()));
    let mut net = MultihopNetwork::new(topology, model, protos, seed)?;
    let mut informed_per_slot = Vec::new();
    let slots = net.run(budget, |net| {
        let informed = net.protocols().iter().filter(|p| p.is_informed()).count();
        informed_per_slot.push(informed);
        informed == n
    });
    Ok(FloodRun {
        slots,
        budget,
        informed_per_slot,
        diameter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::assignment::shared_core;
    use crn_sim::channel_model::StaticChannels;

    fn flood(topo: Topology, c: usize, k: usize, seed: u64, budget: u64) -> FloodRun {
        let n = topo.len();
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        run_flood(topo, model, seed, budget).unwrap()
    }

    #[test]
    fn completes_on_line_ring_grid_complete() {
        for topo in [
            Topology::line(12),
            Topology::ring(12),
            Topology::grid(4, 3),
            Topology::complete(12),
        ] {
            for seed in 0..3 {
                let run = flood(topo.clone(), 4, 2, seed, 1_000_000);
                assert!(run.completed(), "{topo:?} seed {seed}");
            }
        }
    }

    #[test]
    fn disconnected_topology_times_out() {
        let topo = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        let run = flood(topo, 3, 1, 1, 5_000);
        assert!(!run.completed());
        assert_eq!(run.diameter, None);
        // The source's component still gets informed.
        assert_eq!(*run.informed_per_slot.last().unwrap(), 2);
    }

    #[test]
    fn completion_grows_with_diameter() {
        // Same n, same channels: the line (diameter n-1) must be slower
        // than the complete graph (diameter 1).
        let mean = |topo: &Topology| -> f64 {
            let trials = 10;
            let mut total = 0;
            for seed in 0..trials {
                let run = flood(topo.clone(), 4, 2, seed, 10_000_000);
                total += run.slots.unwrap();
            }
            total as f64 / trials as f64
        };
        let line = mean(&Topology::line(16));
        let complete = mean(&Topology::complete(16));
        assert!(
            line > complete * 3.0,
            "diameter must dominate: line {line} vs complete {complete}"
        );
    }

    #[test]
    fn informed_curve_monotone_and_spans_hops() {
        let run = flood(Topology::line(10), 4, 2, 3, 1_000_000);
        for w in run.informed_per_slot.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // A line flood cannot finish faster than one slot per hop.
        assert!(run.slots.unwrap() >= 9);
    }

    #[test]
    fn single_node_flood_is_instant() {
        let run = flood(Topology::complete(1), 3, 1, 0, 10);
        assert_eq!(run.slots, Some(1));
    }

    #[test]
    fn flood_budget_suffices_across_topologies() {
        for topo in [
            Topology::line(10),
            Topology::ring(10),
            Topology::grid(5, 2),
            Topology::complete(10),
        ] {
            let budget = flood_budget(&topo, 4, 2, 10.0);
            for seed in 0..3 {
                let run = flood(topo.clone(), 4, 2, seed, budget);
                assert!(run.completed(), "{topo:?} seed {seed}: budget {budget}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn flood_budget_panics_on_disconnected() {
        let topo = Topology::from_edges(4, &[(0, 1)]);
        flood_budget(&topo, 4, 2, 10.0);
    }

    #[test]
    fn erdos_renyi_floods_when_connected() {
        use crn_sim::rng::SimRng;
        use rand::SeedableRng;
        let mut rng = SimRng::seed_from_u64(5);
        // p well above the ln(n)/n connectivity threshold.
        let topo = Topology::erdos_renyi(24, 0.4, &mut rng);
        if topo.is_connected() {
            let run = flood(topo, 4, 2, 2, 1_000_000);
            assert!(run.completed());
        }
    }

    #[test]
    fn unit_disk_floods_when_connected() {
        use crn_sim::rng::SimRng;
        use rand::SeedableRng;
        let mut rng = SimRng::seed_from_u64(11);
        // Dense disk: almost surely connected.
        let topo = Topology::unit_disk(20, 0.6, &mut rng);
        if topo.is_connected() {
            let run = flood(topo, 4, 2, 2, 1_000_000);
            assert!(run.completed());
        }
    }
}
