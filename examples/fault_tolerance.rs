//! Robustness: COGCAST keeps its promise while nodes blink in and out.
//!
//! The paper's Section 1 argues the protocol's uniform structure makes
//! it robust to "temporary faults". Here every node — including the
//! source — is wrapped in a fault injector and loses 30% of its slots
//! at random, plus one node that duty-cycles 50/50 and one that sleeps
//! through a long contiguous window. Broadcast still completes; it just
//! pays roughly the lost airtime.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```

use crn::core::cogcast::CogCast;
use crn::sim::assignment::shared_core;
use crn::sim::channel_model::StaticChannels;
use crn::sim::faults::{FaultSchedule, Flaky};
use crn::sim::{Network, OracleSingleHop};
use crn::stats::Summary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, c, k) = (30usize, 8usize, 2usize);
    let trials = 15u64;

    let run_with = |label: &str, schedule_for: &dyn Fn(usize) -> FaultSchedule| {
        let mut slots = Vec::new();
        let mut downtime = Vec::new();
        for seed in 0..trials {
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
            let mut protos: Vec<Flaky<CogCast<&str>>> = Vec::with_capacity(n);
            protos.push(Flaky::new(CogCast::source("fw-update"), schedule_for(0)));
            protos.extend((1..n).map(|i| Flaky::new(CogCast::node(), schedule_for(i))));
            let mut net =
                Network::with_medium(model, protos, seed, OracleSingleHop::new()).unwrap();
            let mut done = None;
            for s in 0..1_000_000u64 {
                net.step();
                if net.protocols().iter().all(|f| f.inner().is_informed()) {
                    done = Some(s + 1);
                    break;
                }
            }
            slots.push(done.expect("broadcast completes despite faults"));
            downtime.push(net.protocols().iter().map(|f| f.downtime()).sum::<u64>());
        }
        let s = Summary::of_u64(&slots).unwrap();
        let d = Summary::of_u64(&downtime).unwrap();
        println!(
            "  {label:<28} mean {:>7.1} slots (p90 {:>5.0}), total downtime {:>6.0} node-slots",
            s.mean, s.p90, d.mean
        );
    };

    println!("COGCAST with fault injection (n = {n}, c = {c}, k = {k}, {trials} trials):");
    run_with("healthy", &|_| FaultSchedule::None);
    run_with("30% random downtime (all)", &|_| FaultSchedule::Random {
        p: 0.3,
    });
    run_with("mixed: duty-cycle + outage", &|i| match i {
        0 => FaultSchedule::None, // keep the source honest... it fails below too
        1 => FaultSchedule::Periodic { period: 2, down: 1 },
        2 => FaultSchedule::Window { from: 0, to: 40 },
        _ => FaultSchedule::Random { p: 0.1 },
    });
    run_with("flaky source (p = 0.5)", &|i| {
        if i == 0 {
            FaultSchedule::Random { p: 0.5 }
        } else {
            FaultSchedule::None
        }
    });
    println!();
    println!("every configuration completed — the epidemic needs no repair protocol.");
    Ok(())
}
