//! Sensor fusion: a base station aggregates readings from a fleet of
//! sensors with COGCOMP — the "analyzing network condition snapshots"
//! use case from the paper's introduction.
//!
//! Computes min, max, and exact mean temperature over 60 sensors in a
//! single COGCOMP run each, and cross-checks against the ground truth.
//!
//! ```text
//! cargo run --example sensor_fusion
//! ```

use crn::core::aggregate::{Max, MeanAcc, Min};
use crn::core::cogcomp::run_aggregation_default;
use crn::sim::assignment::random_with_core;
use crn::sim::channel_model::StaticChannels;
use crn::sim::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, c, k) = (60usize, 10usize, 3usize);
    let seed = 7;

    // Synthetic readings: tenths of a degree around 21.5 C.
    let mut rng = SimRng::seed_from_u64(99);
    let readings: Vec<u64> = (0..n).map(|_| 180 + rng.gen_range(0u64..80)).collect();
    let truth_min = *readings.iter().min().unwrap();
    let truth_max = *readings.iter().max().unwrap();
    let truth_mean = readings.iter().sum::<u64>() as f64 / n as f64;

    // Each sensor found its own c usable channels; pairwise overlap is
    // at least k but otherwise the sets are random.
    let make_model = |stream: u64| -> Result<_, crn::sim::SimError> {
        let mut arng = SimRng::seed_from_u64(stream);
        let a = random_with_core(n, c, k, 64, &mut arng)?;
        Ok(StaticChannels::local(a, seed))
    };

    println!("fleet of {n} sensors, c = {c} channels each, overlap >= {k}");
    println!("ground truth: min {truth_min}, max {truth_max}, mean {truth_mean:.2} (deci-deg)");
    println!();

    // Node 0 is the base station; COGCOMP aggregates to it. Associative
    // functions keep every message O(polylog n) (Section 5 discussion).
    let run = run_aggregation_default(
        make_model(1)?,
        readings.iter().map(|&r| Min(r)).collect(),
        seed,
    )?;
    println!(
        "COGCOMP min : {:?} in {} slots (phase-4 steps: {})",
        run.result.as_ref().map(|m| m.0),
        run.slots.unwrap(),
        run.phase4_steps.unwrap()
    );
    assert_eq!(run.result, Some(Min(truth_min)));

    let run = run_aggregation_default(
        make_model(2)?,
        readings.iter().map(|&r| Max(r)).collect(),
        seed + 1,
    )?;
    println!(
        "COGCOMP max : {:?} in {} slots",
        run.result.as_ref().map(|m| m.0),
        run.slots.unwrap()
    );
    assert_eq!(run.result, Some(Max(truth_max)));

    let run = run_aggregation_default(
        make_model(3)?,
        readings.iter().map(|&r| MeanAcc::of(r)).collect(),
        seed + 2,
    )?;
    let mean = run.result.as_ref().map(|m| m.mean()).unwrap();
    println!("COGCOMP mean: {mean:.2} in {} slots", run.slots.unwrap());
    assert!((mean - truth_mean).abs() < 1e-9);

    println!();
    println!("all aggregates match the ground truth exactly.");
    Ok(())
}
