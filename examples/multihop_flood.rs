//! Multi-hop flooding: the same COGCAST, a bigger world.
//!
//! The paper's protocols are single-hop, but its epidemic structure is
//! exactly a flood: informed nodes never stop transmitting, so the
//! message crosses hop after hop. This example floods a firmware
//! notice across a 6×4 sensor grid and a random unit-disk deployment,
//! and shows completion tracking the network diameter.
//!
//! ```text
//! cargo run --example multihop_flood
//! ```

use crn::core::cogcast::run_broadcast_on;
use crn::sim::assignment::shared_core;
use crn::sim::channel_model::StaticChannels;
use crn::sim::SimRng;
use crn::sim::{OracleMultihop, Topology};
use crn::stats::Summary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (c, k) = (4usize, 2usize);
    let trials = 10u64;

    println!("multi-hop COGCAST flood (c = {c}, k = {k}, {trials} trials per topology):");
    println!(
        "{:>16} {:>4} {:>9} {:>12} {:>16}",
        "topology", "n", "diameter", "mean slots", "slots per hop"
    );
    let mut disk_rng = SimRng::seed_from_u64(77);
    let mut topologies: Vec<(String, Topology)> = vec![
        ("complete".into(), Topology::complete(24)),
        ("grid 6x4".into(), Topology::grid(6, 4)),
        ("ring".into(), Topology::ring(24)),
        ("line".into(), Topology::line(24)),
    ];
    // A random deployment: retry until connected.
    loop {
        let t = Topology::unit_disk(24, 0.35, &mut disk_rng);
        if t.is_connected() {
            topologies.push(("unit-disk r=0.35".into(), t));
            break;
        }
    }

    for (name, topo) in topologies {
        let n = topo.len();
        let diameter = topo.diameter().expect("connected");
        let mut slots = Vec::new();
        for seed in 0..trials {
            let model = StaticChannels::local(shared_core(n, c, k)?, seed);
            let medium = OracleMultihop::new(topo.clone());
            let (run, _) = run_broadcast_on(model, seed, 10_000_000, medium)?;
            slots.push(run.slots.expect("flood completes"));
        }
        let s = Summary::of_u64(&slots).unwrap();
        println!(
            "{name:>16} {n:>4} {diameter:>9} {:>12.1} {:>16.1}",
            s.mean,
            s.mean / diameter as f64
        );
    }
    println!();
    println!("slots-per-hop stays roughly flat: the flood moves at diameter speed.");
    Ok(())
}
