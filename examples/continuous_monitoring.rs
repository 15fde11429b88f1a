//! Continuous monitoring: build the aggregation tree once, reuse it
//! every epoch.
//!
//! COGCOMP's expensive parts — the COGCAST tree build and its rewind —
//! are paid once; each monitoring epoch afterwards is a single `O(n)`
//! phase-four pass with fresh sensor values. A base station tracks the
//! fleet-wide max temperature over ten epochs while values drift.
//!
//! ```text
//! cargo run --example continuous_monitoring
//! ```

use crn::core::aggregate::Max;
use crn::core::cogcomp::run_repeated_aggregation;
use crn::sim::assignment::shared_core;
use crn::sim::channel_model::StaticChannels;
use crn::sim::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, c, k) = (30usize, 8usize, 2usize);
    let epochs = 10usize;
    let mut rng = SimRng::seed_from_u64(99);

    // Synthetic drifting readings: a slow warm-up plus noise.
    let rounds: Vec<Vec<Max>> = (0..epochs)
        .map(|e| {
            (0..n)
                .map(|_| Max(200 + 3 * e as u64 + rng.gen_range(0u64..25)))
                .collect()
        })
        .collect();
    let truth: Vec<u64> = rounds
        .iter()
        .map(|r| r.iter().map(|m| m.0).max().unwrap())
        .collect();

    let model = StaticChannels::local(shared_core(n, c, k)?, 7);
    let run = run_repeated_aggregation(model, rounds, 7, 10.0)?;
    assert!(run.is_complete(), "monitoring rounds missed their windows");

    println!(
        "continuous monitoring: n = {n}, c = {c}, k = {k}; tree built once, {} epochs",
        epochs
    );
    println!(
        "total {} slots; tree build + setup {} slots; {} slots per epoch window",
        run.slots.unwrap(),
        run.cfg.phase4_start(),
        3 * run.cfg.round_steps()
    );
    println!();
    println!(
        "{:>6} {:>12} {:>12}",
        "epoch", "measured max", "ground truth"
    );
    for (e, result) in run.results.iter().enumerate() {
        let measured = result.as_ref().expect("complete").0;
        println!("{e:>6} {measured:>12} {:>12}", truth[e]);
        assert_eq!(measured, truth[e]);
    }
    println!();
    println!("every epoch matched ground truth, at O(n) slots per epoch after the first.");
    Ok(())
}
