//! TV white space, end to end: sense the spectrum, broadcast the
//! coordinator's channel map, aggregate interference reports.
//!
//! The paper's motivating scenario is secondary users scavenging
//! leftover spectrum in licensed bands. This example builds the whole
//! pipeline on the library:
//!
//! 1. a synthetic spectrum with primary users and noisy per-node
//!    sensing produces each node's channel set (with `k` database
//!    anchors realizing the overlap guarantee);
//! 2. COGCAST floods the coordinator's configuration message;
//! 3. COGCOMP aggregates, per node, the worst (max) interference
//!    reading and the set of bands anyone observed busy.
//!
//! ```text
//! cargo run --example white_space
//! ```

use crn::core::aggregate::{BitSet, Max};
use crn::core::bounds;
use crn::core::cogcast::run_broadcast;
use crn::core::cogcomp::run_aggregation_default;
use crn::sim::channel_model::StaticChannels;
use crn::sim::sensing::{sense_assignment, SpectrumConfig};
use crn::sim::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, c, k) = (24usize, 8usize, 2usize);
    let cfg = SpectrumConfig::tv_white_space();
    let mut rng = SimRng::seed_from_u64(2015);

    // Step 1: sensing.
    let (assignment, report) = sense_assignment(n, c, k, cfg, &mut rng)?;
    let free_bands = report.occupied.iter().filter(|&&b| !b).count();
    println!(
        "spectrum: {} bands, {} free; anchors (database channels): {:?}",
        cfg.bands,
        free_bands,
        report.anchors.iter().map(|g| g.0).collect::<Vec<_>>()
    );
    println!(
        "sensing: {} total flipped readings, {} interfering picks across the fleet",
        report.sensing_errors.iter().sum::<usize>(),
        report.interfering_picks.iter().sum::<usize>()
    );
    println!(
        "assignment: n = {n}, c = {c}, min pairwise overlap = {}",
        assignment.min_pairwise_overlap()
    );
    println!();

    // Step 2: the coordinator floods its configuration with COGCAST.
    let model = StaticChannels::local(assignment.clone(), 42);
    let budget = bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
    let run = run_broadcast(model, 42, budget)?;
    println!(
        "COGCAST: channel map distributed in {} slots (budget {budget})",
        run.slots.expect("completes w.h.p.")
    );

    // Step 3a: aggregate the worst interference reading (max picks).
    let model = StaticChannels::local(assignment.clone(), 43);
    let readings: Vec<Max> = report
        .interfering_picks
        .iter()
        .map(|&i| Max(i as u64))
        .collect();
    let agg = run_aggregation_default(model, readings, 43)?;
    println!(
        "COGCOMP: worst interfering-pick count = {} (in {} slots)",
        agg.result.as_ref().map(|m| m.0).expect("complete"),
        agg.slots.unwrap()
    );
    assert_eq!(
        agg.result.map(|m| m.0),
        report.interfering_picks.iter().map(|&i| i as u64).max()
    );

    // Step 3b: union of busy bands anyone selected (first 128 bands).
    let model = StaticChannels::local(assignment.clone(), 44);
    let sets: Vec<BitSet> = (0..n)
        .map(|node| {
            let mut s = BitSet::default();
            for g in assignment.channels_of(node) {
                if report.occupied[g.index()] && g.0 < 128 {
                    let mut one = BitSet::of(g.0);
                    crn::core::aggregate::Aggregate::merge(&mut one, &s);
                    s = one;
                }
            }
            s
        })
        .collect();
    let agg = run_aggregation_default(model, sets, 44)?;
    let busy = agg.result.expect("complete");
    println!(
        "COGCOMP: {} distinct occupied bands in active use fleet-wide",
        busy.len()
    );
    println!();
    println!("the coordinator now knows exactly which picks to reassign.");
    Ok(())
}
