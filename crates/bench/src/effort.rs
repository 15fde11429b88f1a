//! Effort levels and the parallel trial runner.

use crn_sim::pool::{self, RunMode, WorkerPool};
use std::cell::UnsafeCell;

/// How much work an experiment invocation spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced trials/grids: seconds per experiment. Used by the
    /// Criterion benches and `experiments --quick`.
    Quick,
    /// The full grids reported in EXPERIMENTS.md.
    Full,
}

impl Effort {
    /// Scales a full-effort trial count down for quick runs.
    ///
    /// ```
    /// use crn_bench::Effort;
    /// assert_eq!(Effort::Full.trials(30), 30);
    /// assert_eq!(Effort::Quick.trials(30), 6);
    /// assert_eq!(Effort::Quick.trials(3), 2);
    /// ```
    pub fn trials(self, full: usize) -> usize {
        match self {
            Effort::Full => full,
            Effort::Quick => (full / 5).max(2),
        }
    }

    /// Caps a sweep list for quick runs.
    ///
    /// Quick mode keeps a *spread* of the grid — first, middle and last
    /// entries — not a prefix: grids are ordered small-to-large, and the
    /// largest point is exactly where engine regressions hide, so a
    /// quick run must still exercise it.
    ///
    /// ```
    /// use crn_bench::Effort;
    /// let grid = [16, 32, 64, 128, 256];
    /// assert_eq!(Effort::Quick.sweep(&grid), vec![16, 64, 256]);
    /// assert_eq!(Effort::Full.sweep(&grid), grid.to_vec());
    /// ```
    pub fn sweep<T: Clone>(self, full: &[T]) -> Vec<T> {
        match self {
            Effort::Full => full.to_vec(),
            Effort::Quick => {
                if full.len() <= 3 {
                    full.to_vec()
                } else {
                    vec![
                        full[0].clone(),
                        full[full.len() / 2].clone(),
                        full[full.len() - 1].clone(),
                    ]
                }
            }
        }
    }
}

/// Runs `f(seed)` for seeds `0..trials` on the process-wide persistent
/// worker pool ([`crn_sim::pool::global`]) and returns the results in
/// seed order.
///
/// The pool defaults to one worker per core and is governed by the
/// `CRN_THREADS` env override / `--threads` flag. Each trial steps on
/// the worker that claimed it; a trial body that submits its own pool
/// job from inside a worker runs it inline instead of oversubscribing.
///
/// # Panics
///
/// Propagates panics from `f`.
///
/// # Examples
///
/// ```
/// use crn_bench::effort::par_trials;
/// let xs = par_trials(8, |seed| seed * 2);
/// assert_eq!(xs, vec![0, 2, 4, 6, 8, 10, 12, 14]);
/// ```
pub fn par_trials<T: Send>(trials: usize, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    run_trials_on(&pool::global(), trials, &f).0
}

/// One result slot, written by exactly one worker.
///
/// Safety: the index of each slot is claimed from an atomic counter by
/// exactly one worker, which performs the only write; reads happen only
/// after the pool's end-of-job barrier. The `Sync` bound is therefore
/// sound for any `T: Send`.
struct TrialSlot<T>(UnsafeCell<Option<T>>);

unsafe impl<T: Send> Sync for TrialSlot<T> {}

/// [`par_trials`] with an explicit worker count.
///
/// The scheduler is work-stealing: workers claim the next unstarted seed
/// from a shared atomic counter, so a mix of cheap `Done` trials and
/// expensive `Timeout` trials never leaves cores idle the way static
/// chunking does. Every trial is keyed by its seed, not by which worker
/// ran it, so the returned vector is identical for any `workers >= 1` —
/// the `results_independent_of_worker_count` test pins this down.
pub fn par_trials_with_workers<T: Send>(
    trials: usize,
    workers: usize,
    f: impl Fn(u64) -> T + Sync,
) -> Vec<T> {
    par_trials_with_worker_loads(trials, workers, f).0
}

/// [`par_trials_with_workers`], also returning how many trials each
/// worker executed (`loads[w]` = trials claimed by worker `w`).
///
/// The loads depend on scheduling and are *not* deterministic — only the
/// results are. They exist so stress tests can assert that the
/// work-stealing scheduler actually spreads a skewed workload across all
/// workers.
pub fn par_trials_with_worker_loads<T: Send>(
    trials: usize,
    workers: usize,
    f: impl Fn(u64) -> T + Sync,
) -> (Vec<T>, Vec<usize>) {
    let workers = workers.max(1).min(trials.max(1));
    if workers <= 1 {
        return ((0..trials as u64).map(f).collect(), vec![trials]);
    }
    // Reuse the shared persistent pool when it matches the requested
    // width (the common case — everything then draws from one core
    // budget); spawn a dedicated pool only for explicit non-default
    // widths, e.g. the worker-count sweeps in stress tests.
    let global = pool::global();
    let dedicated;
    let pool: &WorkerPool = if global.workers() == workers {
        &global
    } else {
        dedicated = WorkerPool::new(workers);
        &dedicated
    };
    let (results, mode) = run_trials_on(pool, trials, &f);
    let loads = match mode {
        RunMode::Parallel => pool.last_loads(),
        RunMode::Inline => {
            // The submitting thread ran every trial itself (nested
            // call, or a job already in flight on the shared pool).
            let mut loads = vec![0usize; workers];
            loads[0] = trials;
            loads
        }
    };
    (results, loads)
}

/// The shared scheduling core: fans seeds `0..trials` across `pool`
/// at chunk size 1 (trial-granular work stealing — workers claim the
/// next unstarted seed from one atomic counter), writing each result
/// into its seed-keyed slot.
fn run_trials_on<T: Send>(
    pool: &WorkerPool,
    trials: usize,
    f: &(impl Fn(u64) -> T + Sync),
) -> (Vec<T>, RunMode) {
    let slots: Vec<TrialSlot<T>> = (0..trials)
        .map(|_| TrialSlot(UnsafeCell::new(None)))
        .collect();
    let mode = pool.run(trials, 1, &|start, end| {
        for (offset, slot) in slots[start..end].iter().enumerate() {
            let result = f((start + offset) as u64);
            // Safety: the pool hands each index to exactly one worker,
            // which performs the only write; reads happen after the
            // pool's end-of-job barrier.
            unsafe { *slot.0.get() = Some(result) };
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| slot.0.into_inner().expect("every seed was claimed"))
        .collect();
    (results, mode)
}

/// Mean of `f(seed)` over `trials` seeds, where `f` yields a slot count.
pub fn mean_slots(trials: usize, f: impl Fn(u64) -> u64 + Sync) -> f64 {
    let xs = par_trials(trials, f);
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_trials_preserves_order() {
        let xs = par_trials(100, |s| s);
        assert_eq!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn par_trials_zero_is_empty() {
        let xs: Vec<u64> = par_trials(0, |s| s);
        assert!(xs.is_empty());
    }

    #[test]
    fn mean_slots_averages() {
        assert_eq!(mean_slots(4, |s| s + 1), 2.5);
    }

    #[test]
    fn results_independent_of_worker_count() {
        // The same trial function, fanned out over 1..=9 workers
        // (including counts that do not divide the trial count), must
        // produce byte-identical results in seed order: trials are
        // keyed by seed, never by scheduling.
        let f = |seed: u64| {
            use crn_sim::rng::SimRng;
            let mut rng = SimRng::seed_from_u64(seed);
            (seed, rng.next_u64())
        };
        let reference = par_trials_with_workers(23, 1, f);
        for workers in 2..=9 {
            assert_eq!(
                par_trials_with_workers(23, workers, f),
                reference,
                "results changed with {workers} workers"
            );
        }
        assert_eq!(par_trials(23, f), reference, "default worker count differs");
    }

    #[test]
    fn worker_loads_cover_all_trials() {
        let (xs, loads) = par_trials_with_worker_loads(40, 4, |s| s);
        assert_eq!(xs, (0..40).collect::<Vec<_>>());
        assert_eq!(loads.len(), 4);
        assert_eq!(loads.iter().sum::<usize>(), 40);
    }

    #[test]
    fn worker_loads_single_worker() {
        let (xs, loads) = par_trials_with_worker_loads(5, 1, |s| s);
        assert_eq!(xs, vec![0, 1, 2, 3, 4]);
        assert_eq!(loads, vec![5]);
    }

    #[test]
    #[should_panic(expected = "trial 3 exploded")]
    fn worker_panics_propagate() {
        par_trials_with_workers(8, 4, |s| {
            if s == 3 {
                panic!("trial 3 exploded");
            }
            s
        });
    }

    #[test]
    fn quick_effort_shrinks() {
        assert!(Effort::Quick.trials(100) < 100);
        assert!(Effort::Quick.trials(100) >= 2);
        assert_eq!(Effort::Quick.sweep(&[1, 2, 3, 4, 5]).len(), 3);
        assert_eq!(Effort::Full.sweep(&[1, 2, 3, 4, 5]).len(), 5);
    }

    #[test]
    fn quick_sweep_keeps_first_middle_last() {
        // The quick sweep must include the grid's extremes (especially
        // the largest point, where engine regressions hide), not just a
        // prefix.
        assert_eq!(Effort::Quick.sweep(&[16, 32, 64, 128, 256]), [16, 64, 256]);
        assert_eq!(Effort::Quick.sweep(&[1, 2, 3, 4]), [1, 3, 4]);
        assert_eq!(Effort::Quick.sweep(&[1, 2, 3]), [1, 2, 3]);
        assert_eq!(Effort::Quick.sweep(&[1, 2]), [1, 2]);
        assert_eq!(Effort::Quick.sweep::<u32>(&[]), Vec::<u32>::new());
    }
}
