//! Large-scale stress tests. Ignored by default (minutes in debug
//! builds); run explicitly with:
//!
//! ```text
//! cargo test --release --test stress -- --ignored
//! ```

use crn::core::aggregate::{Collect, Sum};
use crn::core::bounds;
use crn::core::cogcast::{run_broadcast, run_broadcast_on};
use crn::core::cogcomp::run_aggregation_default;
use crn::sim::assignment::shared_core;
use crn::sim::channel_model::StaticChannels;
use crn::sim::{OracleMultihop, Topology};

#[test]
#[ignore = "large-scale; run with --ignored in release"]
fn broadcast_at_two_thousand_nodes() {
    let (n, c, k) = (2048usize, 16usize, 4usize);
    let budget = bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
    for seed in 0..3 {
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        let run = run_broadcast(model, seed, budget).unwrap();
        assert!(run.completed(), "seed {seed} missed budget {budget}");
    }
}

#[test]
#[ignore = "large-scale; run with --ignored in release"]
fn aggregation_at_five_hundred_nodes_is_exact() {
    let (n, c, k) = (512usize, 8usize, 2usize);
    let model = StaticChannels::local(shared_core(n, c, k).unwrap(), 1);
    let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
    let run = run_aggregation_default(model, values, 1).unwrap();
    assert!(run.is_complete());
    assert_eq!(run.result, Some(Sum((0..n as u64).sum())));
}

#[test]
#[ignore = "large-scale; run with --ignored in release"]
fn exact_collection_at_scale() {
    let n = 256usize;
    let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), 3);
    let values: Vec<Collect> = (0..n as u64).map(Collect::of).collect();
    let run = run_aggregation_default(model, values, 3).unwrap();
    assert!(run.is_complete());
    let expect: Vec<u64> = (0..n as u64).collect();
    assert_eq!(run.result.unwrap().values(), expect.as_slice());
}

#[test]
#[ignore = "large-scale; run with --ignored in release"]
fn flood_across_a_twenty_by_twenty_grid() {
    let topo = Topology::grid(20, 20);
    let n = topo.len();
    let model = StaticChannels::local(shared_core(n, 4, 2).unwrap(), 2);
    let (run, _) = run_broadcast_on(model, 2, 100_000_000, OracleMultihop::new(topo)).unwrap();
    assert!(run.completed());
    // Diameter 38: completion is at least one slot per hop.
    assert!(run.slots.unwrap() >= 38);
}
