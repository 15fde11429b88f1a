//! A persistent scoped worker pool for running independent trials in
//! parallel.
//!
//! [`WorkerPool`] owns a fixed set of parked OS threads (spawned once,
//! reused across every job — no per-job spawns) and exposes one
//! operation: [`WorkerPool::run`], which fans an index-range job
//! `f(start, end)` across the pool via atomic chunk claiming and
//! blocks until every worker has quiesced (barrier handoff). The
//! caller participates as one worker, so a pool of `w` workers spawns
//! only `w - 1` threads and `w == 1` spawns none and runs jobs inline
//! with zero synchronization.
//!
//! Design constraints (see DESIGN.md "Threading model"):
//!
//! - **Determinism is the caller's job, not the pool's.** The pool
//!   guarantees only that every index in `0..total` is processed
//!   exactly once, by exactly one worker. `par_trials` in `crn-bench`
//!   keys each result by its trial seed, so results are identical at
//!   any worker count; each trial steps its [`crate::Network`] on one
//!   thread.
//! - **No per-job boxing.** Submitting a job publishes a raw fat
//!   pointer under a mutex and bumps an epoch; nothing is boxed or
//!   queued.
//! - **Nesting never oversubscribes.** A `run` issued from inside a
//!   pool worker or while another job is in flight executes inline on
//!   the calling thread, so the process shares one core budget.
//!
//! The process-wide pool ([`global`]) is sized by the strictly
//! validated `CRN_THREADS` environment variable (or `--threads` via
//! [`init_global`]), defaulting to
//! [`std::thread::available_parallelism`].

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The environment variable that overrides the global pool width.
pub const THREADS_ENV: &str = "CRN_THREADS";

/// Upper bound accepted by [`parse_threads`] — far above any real
/// machine, low enough to catch obvious typos (`--threads 40960`).
pub const MAX_THREADS: usize = 1024;

thread_local! {
    /// True on threads owned by any [`WorkerPool`]; used to run nested
    /// submissions inline instead of deadlocking or oversubscribing.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// How a [`WorkerPool::run`] call was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The job was fanned across the pool's workers.
    Parallel,
    /// The job ran inline on the calling thread (single-worker pool,
    /// empty job, nested submission, or another job already in
    /// flight).
    Inline,
}

/// A lifetime-erased job descriptor published to the workers.
///
/// The fat pointer is only dereferenced between the epoch bump that
/// publishes it and the barrier that ends the same epoch, during which
/// the submitting `run` frame (and therefore the referent) is alive.
#[derive(Clone, Copy)]
struct ErasedJob {
    f: *const (dyn Fn(usize, usize) + Sync),
    total: usize,
    chunk: usize,
}

// SAFETY: the pointer is only sent to pool threads while the `run`
// call that created it is blocked waiting for them (see `ErasedJob`).
unsafe impl Send for ErasedJob {}

struct JobState {
    /// Bumped once per published job; workers process each epoch
    /// exactly once, in lockstep (the submitter waits for all of them
    /// before the next bump).
    epoch: u64,
    shutdown: bool,
    job: Option<ErasedJob>,
}

struct Shared {
    state: Mutex<JobState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitter parks here waiting for the barrier.
    done_cv: Condvar,
    /// Next unclaimed index of the current job.
    next: AtomicUsize,
    /// Spawned workers that have finished their claim loop this epoch.
    finished: AtomicUsize,
    /// Items claimed per worker in the latest job (`[0]` = submitter).
    loads: Vec<AtomicUsize>,
    /// First panic payload caught from any chunk, rethrown by `run`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Shared {
    /// Claims and executes chunks until the job is exhausted; returns
    /// the number of items this thread processed. Panics are caught
    /// per-chunk, recorded once, and the loop keeps draining so every
    /// index is still processed exactly once.
    fn claim(&self, job: ErasedJob) -> usize {
        // SAFETY: `run` keeps the referent alive until the barrier.
        let f = unsafe { &*job.f };
        let mut claimed = 0;
        loop {
            // Relaxed: this counter only partitions indices; the data
            // the chunks touch is synchronized by the barrier mutex.
            let start = self.next.fetch_add(job.chunk, Ordering::Relaxed);
            if start >= job.total {
                return claimed;
            }
            let end = (start + job.chunk).min(job.total);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(start, end))) {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            claimed += end - start;
        }
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize, spawned: usize) {
    IN_POOL_WORKER.with(|w| w.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    break state.job;
                }
                state = shared.work_cv.wait(state).unwrap();
            }
        };
        let claimed = job.map_or(0, |job| shared.claim(job));
        shared.loads[me].store(claimed, Ordering::Relaxed);
        // Check in under the state mutex so the submitter's
        // check-then-wait on `done_cv` cannot miss the last wakeup.
        let state = shared.state.lock().unwrap();
        if shared.finished.fetch_add(1, Ordering::Relaxed) + 1 == spawned {
            shared.done_cv.notify_all();
        }
        drop(state);
    }
}

/// A fixed-width pool of parked OS threads; see the module docs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    /// Serializes jobs: one in flight at a time; contenders run inline.
    submit: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool of `workers` total workers (the submitting thread
    /// counts as one, so this spawns `workers - 1` threads; `0` is
    /// treated as `1`).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState {
                epoch: 0,
                shutdown: false,
                job: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            loads: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            panic: Mutex::new(None),
        });
        let spawned = workers - 1;
        let handles = (1..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("crn-pool-{me}"))
                    .spawn(move || worker_loop(shared, me, spawned))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
            submit: Mutex::new(()),
        }
    }

    /// Total worker count, including the submitting thread.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Partitions `0..total` into chunks of (at most) `chunk` indices
    /// and executes `f(start, end)` on each, fanned across the pool;
    /// returns once every index has been processed and every worker
    /// has quiesced.
    ///
    /// Falls back to a plain inline `f(0, total)` (returning
    /// [`RunMode::Inline`]) when the pool has one worker, `total` is
    /// zero, the calling thread is itself a pool worker, or another
    /// job is already in flight — so nested submissions share one core
    /// budget instead of oversubscribing or deadlocking.
    ///
    /// # Panics
    ///
    /// If any chunk panics the job still drains fully, and the first
    /// panic payload is rethrown on the calling thread.
    pub fn run(&self, total: usize, chunk: usize, f: &(dyn Fn(usize, usize) + Sync)) -> RunMode {
        if total == 0 {
            return RunMode::Inline;
        }
        if self.workers == 1 || IN_POOL_WORKER.with(|w| w.get()) {
            f(0, total);
            return RunMode::Inline;
        }
        let Ok(_submit) = self.submit.try_lock() else {
            f(0, total);
            return RunMode::Inline;
        };
        // SAFETY (lifetime erasure): the pointer outlives its use —
        // this frame does not return until every worker has checked
        // in for this epoch, and workers only read the job pointer
        // during the epoch that published it.
        let f: *const (dyn Fn(usize, usize) + Sync) =
            unsafe { std::mem::transmute(f as *const (dyn Fn(usize, usize) + Sync + '_)) };
        let job = ErasedJob {
            f,
            total,
            chunk: chunk.max(1),
        };
        let spawned = self.workers - 1;
        self.shared.next.store(0, Ordering::Relaxed);
        self.shared.finished.store(0, Ordering::Relaxed);
        {
            let mut state = self.shared.state.lock().unwrap();
            state.epoch += 1;
            state.job = Some(job);
            self.shared.work_cv.notify_all();
        }
        // Participate as worker 0.
        let claimed = self.shared.claim(job);
        self.shared.loads[0].store(claimed, Ordering::Relaxed);
        // Barrier: wait for every spawned worker to finish its claim
        // loop, so no laggard can touch `next` (or the erased pointer)
        // after we return.
        {
            let mut state = self.shared.state.lock().unwrap();
            while self.shared.finished.load(Ordering::Relaxed) < spawned {
                state = self.shared.done_cv.wait(state).unwrap();
            }
            // Drop the erased pointer so nothing dangling is retained.
            state.job = None;
        }
        if let Some(payload) = self.shared.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        RunMode::Parallel
    }

    /// Items processed per worker in the most recent [`RunMode::Parallel`]
    /// job (index 0 is the submitting thread). Allocates; intended for
    /// tests and load-balance diagnostics, not the hot path.
    pub fn last_loads(&self) -> Vec<usize> {
        self.shared
            .loads
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Strictly parses a thread count: an integer in `1..=`[`MAX_THREADS`].
///
/// Rejects `0`, non-numeric input, and absurd widths — mirroring the
/// CLI's strict flag validation, a bad value is an error, never a
/// silent default.
///
/// # Errors
///
/// Returns a human-readable message naming the offending value.
pub fn parse_threads(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(v) if (1..=MAX_THREADS).contains(&v) => Ok(v),
        Ok(v) => Err(format!(
            "thread count must be between 1 and {MAX_THREADS}, got {v}"
        )),
        Err(_) => Err(format!(
            "invalid thread count {s:?} (expected an integer between 1 and {MAX_THREADS})"
        )),
    }
}

/// Reads and validates the [`THREADS_ENV`] override.
///
/// `Ok(None)` means the variable is unset (use the default).
///
/// # Errors
///
/// Returns an error if the variable is set to anything that fails
/// [`parse_threads`] (including non-UTF-8).
pub fn threads_from_env() -> Result<Option<usize>, String> {
    match std::env::var(THREADS_ENV) {
        Ok(v) => parse_threads(&v)
            .map(Some)
            .map_err(|e| format!("invalid {THREADS_ENV}: {e}")),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(format!("invalid {THREADS_ENV}: not valid UTF-8"))
        }
    }
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The worker count the global pool will use: the [`THREADS_ENV`]
/// override if set, else [`default_workers`].
///
/// # Errors
///
/// Returns an error if the environment override is set but invalid —
/// binaries should call this early and report the message instead of
/// panicking inside [`global`].
pub fn configured_workers() -> Result<usize, String> {
    Ok(threads_from_env()?.unwrap_or_else(default_workers))
}

static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();

/// Initializes the process-wide pool with an explicit width (the
/// `--threads` CLI flag). Idempotent for the same width.
///
/// # Errors
///
/// Returns an error if the global pool was already initialized (or
/// first used) with a different width — the pool is process-wide state
/// and cannot be resized.
pub fn init_global(workers: usize) -> Result<(), String> {
    let workers = workers.max(1);
    let pool = GLOBAL.get_or_init(|| Arc::new(WorkerPool::new(workers)));
    if pool.workers() != workers {
        return Err(format!(
            "global worker pool already initialized with {} workers; cannot reinitialize with {workers}",
            pool.workers()
        ));
    }
    Ok(())
}

/// Bootstraps the global pool from a `--threads` flag value (which
/// wins) or, absent one, the [`THREADS_ENV`] override. With neither,
/// does nothing: the pool sizes itself lazily from the machine's
/// available parallelism on first use.
///
/// Binaries call this once at startup so a bad width is a graceful
/// error instead of a panic inside [`global`].
///
/// # Errors
///
/// Returns an error for a value failing [`parse_threads`] or a width
/// conflicting with an already-initialized pool.
pub fn init_from_flag(flag: Option<&str>) -> Result<(), String> {
    let workers = match flag {
        Some(v) => parse_threads(v).map_err(|e| format!("--threads: {e}"))?,
        None => match threads_from_env()? {
            Some(w) => w,
            None => return Ok(()),
        },
    };
    init_global(workers)
}

/// The process-wide shared pool, created on first use and sized by
/// [`configured_workers`]. `par_trials` runs its trials on it.
///
/// # Panics
///
/// Panics if [`THREADS_ENV`] is set to an invalid value; binaries
/// should validate via [`configured_workers`] (or [`init_global`])
/// first to fail gracefully.
pub fn global() -> Arc<WorkerPool> {
    Arc::clone(GLOBAL.get_or_init(|| {
        let workers = configured_workers().unwrap_or_else(|e| panic!("{e}"));
        Arc::new(WorkerPool::new(workers))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn sum_indices(pool: &WorkerPool, total: usize, chunk: usize) -> (u64, RunMode) {
        let sum = AtomicU64::new(0);
        let mode = pool.run(total, chunk, &|start, end| {
            let mut local = 0u64;
            for i in start..end {
                local += i as u64;
            }
            sum.fetch_add(local, Ordering::Relaxed);
        });
        (sum.load(Ordering::Relaxed), mode)
    }

    fn expected_sum(total: usize) -> u64 {
        (0..total as u64).sum()
    }

    #[test]
    fn every_index_processed_exactly_once() {
        let pool = WorkerPool::new(4);
        for &total in &[1usize, 7, 64, 1000] {
            for &chunk in &[1usize, 3, 16, 2000] {
                let counts: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
                pool.run(total, chunk, &|start, end| {
                    for count in &counts[start..end] {
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "total={total} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn pool_threads_are_reused_across_jobs() {
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            let (sum, _) = sum_indices(&pool, 100, 4);
            assert_eq!(sum, expected_sum(100));
        }
        // Still only the originally spawned threads.
        assert_eq!(pool.handles.len(), 2);
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let (sum, mode) = sum_indices(&pool, 100, 8);
        assert_eq!(sum, expected_sum(100));
        assert_eq!(mode, RunMode::Inline);
        assert!(pool.handles.is_empty(), "workers == 1 must spawn nothing");
    }

    #[test]
    fn empty_job_is_a_no_op() {
        let pool = WorkerPool::new(4);
        let (sum, mode) = sum_indices(&pool, 0, 8);
        assert_eq!(sum, 0);
        assert_eq!(mode, RunMode::Inline);
    }

    #[test]
    fn nested_submission_runs_inline_without_deadlock() {
        let pool = Arc::new(WorkerPool::new(3));
        let inner_modes = Mutex::new(Vec::new());
        let p2 = Arc::clone(&pool);
        pool.run(8, 1, &|start, end| {
            for _ in start..end {
                let (sum, mode) = sum_indices(&p2, 10, 2);
                assert_eq!(sum, expected_sum(10));
                inner_modes.lock().unwrap().push(mode);
            }
        });
        // Every nested call must have run inline: either issued from a
        // pool worker thread, or from the submitter while its own job
        // held the submit lock.
        let modes = inner_modes.lock().unwrap();
        assert_eq!(modes.len(), 8);
        assert!(modes.iter().all(|&m| m == RunMode::Inline));
    }

    #[test]
    fn loads_cover_all_items() {
        let pool = WorkerPool::new(4);
        let (sum, mode) = sum_indices(&pool, 1000, 1);
        assert_eq!(sum, expected_sum(1000));
        if mode == RunMode::Parallel {
            let loads = pool.last_loads();
            assert_eq!(loads.len(), 4);
            assert_eq!(loads.iter().sum::<usize>(), 1000);
        }
    }

    #[test]
    fn chunk_panic_propagates_to_submitter() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, 1, &|start, _end| {
                if start == 7 {
                    panic!("chunk 7 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk 7 exploded");
        // The pool survives the panic and accepts further jobs.
        let (sum, _) = sum_indices(&pool, 50, 4);
        assert_eq!(sum, expected_sum(50));
    }

    #[test]
    fn concurrent_submitters_both_complete() {
        let pool = Arc::new(WorkerPool::new(4));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..25 {
                        let (sum, _) = sum_indices(&pool, 200, 4);
                        assert_eq!(sum, expected_sum(200));
                    }
                });
            }
        });
    }

    #[test]
    fn parse_threads_accepts_sane_values() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("8"), Ok(8));
        assert_eq!(parse_threads("1024"), Ok(1024));
    }

    #[test]
    fn parse_threads_rejects_bad_values() {
        for bad in [
            "0",
            "-1",
            "1.5",
            "four",
            "",
            " 3",
            "3 ",
            "1025",
            "99999999999999999999",
        ] {
            assert!(parse_threads(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn default_workers_is_at_least_one() {
        assert!(default_workers() >= 1);
    }
}
