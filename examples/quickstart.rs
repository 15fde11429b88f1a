//! Quickstart: flood a configuration message through a cognitive radio
//! network with COGCAST and inspect the distribution tree it builds.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use crn::core::bounds;
use crn::core::cogcast::CogCast;
use crn::core::tree::DistributionTree;
use crn::sim::assignment::shared_core;
use crn::sim::channel_model::StaticChannels;
use crn::sim::{Network, OracleSingleHop};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A network of 40 nodes; each holds 8 channels out of a crowded
    // band, and any two nodes share at least 2 channels. Labels are
    // local: no two nodes need to agree on channel names.
    let (n, c, k) = (40usize, 8usize, 2usize);
    let seed = 2015;
    let assignment = shared_core(n, c, k)?;
    println!(
        "network: n = {n}, c = {c}, k = {k}, C = {} global channels",
        assignment.total_channels()
    );

    let model = StaticChannels::local(assignment, seed);
    let mut protocols = vec![CogCast::source("channel-map-v2")];
    protocols.extend((1..n).map(|_| CogCast::node()));
    let mut net = Network::with_medium(model, protocols, seed, OracleSingleHop::new())?;

    // Theorem 4 sizes the budget: O((c/k)·max{1, c/n}·lg n) slots.
    let budget = bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
    println!("running COGCAST with a {budget}-slot budget...");

    let mut completed_at = None;
    for slot in 0..budget {
        net.step();
        let informed = net.protocols().iter().filter(|p| p.is_informed()).count();
        if slot < 10 || informed == n {
            println!("  slot {:>4}: {informed:>3}/{n} informed", slot + 1);
        }
        if informed == n {
            completed_at = Some(slot + 1);
            break;
        }
    }
    let slots = completed_at.expect("COGCAST completes w.h.p. within the budget");
    println!("broadcast complete in {slots} slots (budget {budget})");

    // Every node now knows the message, and the "who informed whom"
    // pointers form a spanning tree rooted at the source (Lemma 5).
    let protocols = net.into_protocols();
    assert!(protocols
        .iter()
        .all(|p| p.message() == Some(&"channel-map-v2")));
    let tree = DistributionTree::from_cogcast(&protocols)?;
    println!(
        "distribution tree: height {}, {} leaves, root degree {}",
        tree.height(),
        tree.leaves(),
        tree.children(tree.root()).len()
    );
    Ok(())
}
