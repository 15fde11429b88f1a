//! COGCAST as a multi-hop flood: `run_broadcast_on` over the
//! `OracleMultihop` medium. Informed nodes keep transmitting, so the
//! message crosses one hop per single-hop epoch and completion tracks
//! the topology's diameter, with no protocol change.

use crn_core::cogcast::{run_broadcast_on, BroadcastRun};
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_sim::rng::SimRng;
use crn_sim::{OracleMultihop, Topology};

fn flood(topo: Topology, c: usize, k: usize, seed: u64, budget: u64) -> BroadcastRun {
    let n = topo.len();
    let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
    run_broadcast_on(model, seed, budget, OracleMultihop::new(topo))
        .unwrap()
        .0
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
fn erdos_renyi_floods_when_connected() {
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
    let mut rng = SimRng::seed_from_u64(11);
    // Dense disk: almost surely connected.
    let topo = Topology::unit_disk(20, 0.6, &mut rng);
    if topo.is_connected() {
        let run = flood(topo, 4, 2, 2, 1_000_000);
        assert!(run.completed());
    }
}
