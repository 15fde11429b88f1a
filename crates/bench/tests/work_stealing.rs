//! Stress test for the work-stealing trial scheduler under a
//! pathologically skewed per-trial cost distribution.
//!
//! The workload is sleep-based rather than compute-based so the test is
//! meaningful even on a single-core CI box: sleeping threads overlap
//! regardless of core count, while static chunking would serialize the
//! expensive seeds on whichever worker owns their chunk.

use crn_bench::effort::{par_trials_with_worker_loads, par_trials_with_workers};
use std::time::{Duration, Instant};

const TRIALS: usize = 16;
const WORKERS: usize = 4;

/// Seeds 0..4 are expensive (one full static chunk), the rest cheap —
/// the adversarial case for static chunking, where worker 0's chunk is
/// the entire critical path.
fn skewed_trial(seed: u64) -> u64 {
    let cost = if seed < 4 {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(1)
    };
    std::thread::sleep(cost);
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[test]
fn skewed_results_deterministic_and_all_workers_used() {
    let reference: Vec<u64> = (0..TRIALS as u64).map(skewed_trial).collect();
    for workers in [2, 3, WORKERS] {
        let (results, loads) = par_trials_with_worker_loads(TRIALS, workers, skewed_trial);
        assert_eq!(
            results, reference,
            "results changed with {workers} workers: trials must be keyed by seed"
        );
        assert_eq!(loads.iter().sum::<usize>(), TRIALS);
        assert!(
            loads.iter().all(|&l| l >= 1),
            "scheduler left a worker idle on a skewed workload: loads {loads:?}"
        );
    }
}

#[test]
fn work_stealing_beats_static_chunking_on_skewed_costs() {
    // Static chunking splits the 16 seeds into 4 contiguous chunks of 4,
    // so all four 40 ms seeds land in worker 0's chunk: its critical
    // path is at least 4 × 40 ms = 160 ms, whatever the other workers do.
    // Work stealing hands one expensive seed to each worker: ~40 ms plus
    // a few cheap trials. Require under 100 ms — at least 1.6x below
    // static chunking's floor — and retry a couple of times so a slow
    // thread spawn on a loaded CI machine cannot flake the test.
    const STATIC_CRITICAL_PATH: Duration = Duration::from_millis(4 * 40);
    const BOUND: Duration = Duration::from_millis(100);
    let mut best = Duration::MAX;
    for _attempt in 0..3 {
        let start = Instant::now();
        par_trials_with_workers(TRIALS, WORKERS, skewed_trial);
        best = best.min(start.elapsed());
        if best < BOUND {
            break;
        }
    }
    assert!(
        best < BOUND,
        "work stealing took {best:?} on skewed costs; static chunking's \
         critical path is {STATIC_CRITICAL_PATH:?}"
    );
}
