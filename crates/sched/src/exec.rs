//! Two-level work-sharing executor for Monte-Carlo campaigns.
//!
//! The campaign runner used to maintain two rigid pools: scenario-level
//! workers (one point per worker) and, inside each point, a per-point
//! Monte-Carlo fan-out. A single huge point (`--samples 1000`) then ran on
//! one point-level worker while every other core idled. This module
//! replaces both with one shared [`Pool`] whose unit of work is a *(job,
//! unit-range)* chunk: a job is one point's batch of seeded simulation
//! units, owners enqueue seed-range chunks, and idle workers steal chunks
//! across jobs (and therefore across campaign points).
//!
//! Determinism contract: a unit's seed is `base_seed.wrapping_add(index)`
//! (wrapping by definition, so seeds near `u64::MAX` walk around zero
//! instead of panicking), each unit is a pure function of `(context,
//! seed)`, and [`Pool::join`] returns results sorted by unit index. Chunk
//! boundaries and which thread ran which chunk affect scheduling only —
//! the returned vector is bit-identical at any worker count.
//!
//! Telemetry attribution follows the job, not the thread: [`Pool::submit`]
//! captures the caller's [`coopckpt_obs`] scope and every chunk executes
//! under it, so a stolen chunk still bills its samples to the point that
//! submitted it.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How many chunks each worker's fair share of a job is split into.
/// More chunks = better load balance against stragglers; fewer = less
/// queue traffic. Four per worker keeps the tail short without measurable
/// overhead at the ~millisecond-per-unit granularity of a simulation.
const CHUNKS_PER_WORKER: usize = 4;

/// Count of threads currently executing a chunk, process-wide, and the
/// high-water mark since the last [`reset_unit_worker_peak`]. The peak is
/// the observable end of the `--threads` contract: a run asked to use one
/// thread must never have two chunks in flight.
static LIVE_UNIT_WORKERS: AtomicUsize = AtomicUsize::new(0);
static PEAK_UNIT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Resets the high-water mark of concurrent unit workers (test hook).
pub fn reset_unit_worker_peak() {
    PEAK_UNIT_WORKERS.store(0, Ordering::SeqCst);
}

/// Highest number of simultaneously executing unit workers observed since
/// the last [`reset_unit_worker_peak`], across every pool in the process.
pub fn unit_worker_peak() -> usize {
    PEAK_UNIT_WORKERS.load(Ordering::SeqCst)
}

/// One point's batch of units: the shared context, the seed origin, and
/// the landing zone for results.
struct JobInner<C, U> {
    ctx: Arc<C>,
    base_seed: u64,
    /// Units not yet fully executed; 0 = job complete (all results in).
    remaining: AtomicUsize,
    /// `(unit index, result)` in completion order; sorted at join.
    results: Mutex<Vec<(usize, U)>>,
    /// The first panic a unit raised; the job's remaining chunks are
    /// then skipped, and [`Pool::join`] re-raises it on the owner.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Telemetry scope of the submitter, entered around every chunk.
    scope: Option<coopckpt_obs::Scope>,
}

/// A contiguous slice of one job's units, the queue's unit of theft.
struct Chunk<C, U> {
    job: Arc<JobInner<C, U>>,
    range: Range<usize>,
}

/// Handle to a submitted job; redeem with [`Pool::join`].
pub struct Job<C, U> {
    inner: Arc<JobInner<C, U>>,
}

impl<C, U> Job<C, U> {
    /// True once every unit's result has landed.
    pub fn is_done(&self) -> bool {
        self.inner.remaining.load(Ordering::SeqCst) == 0
    }
}

/// Runs one unit of work from the job context and the unit's seed.
pub type UnitFn<C, U> = dyn Fn(&C, u64) -> U + Send + Sync;

/// The shared work-sharing executor. `C` is the per-job context (shared
/// read-only by every unit), `U` the per-unit result.
///
/// The pool itself owns no threads — it is a queue plus the unit-runner
/// function. Threads donate themselves by calling [`Pool::join`] (which
/// executes chunks until its own job completes, stealing other jobs'
/// chunks while waiting) or [`Pool::help_until`] (which executes chunks
/// until an external condition holds). That inversion is what lets the
/// campaign's point-level workers double as sample-level workers without
/// a second pool: `--threads n` means *n threads total*, wherever the
/// work happens to be.
pub struct Pool<C, U> {
    run: Box<UnitFn<C, U>>,
    queue: Mutex<VecDeque<Chunk<C, U>>>,
    /// Signals both "queue non-empty" and "a job completed"; waiters
    /// re-check their own condition under the queue lock.
    cv: Condvar,
    workers: usize,
}

impl<C: Send + Sync, U: Send> Pool<C, U> {
    /// A pool sized for `workers` threads (affects chunk granularity
    /// only — the pool spawns nothing). `run` executes one unit from the
    /// job context and its seed.
    pub fn new(workers: usize, run: impl Fn(&C, u64) -> U + Send + Sync + 'static) -> Pool<C, U> {
        Pool {
            run: Box::new(run),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            workers: workers.max(1),
        }
    }

    /// The worker count this pool's chunk granularity is sized for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues `units` units with seeds `base_seed.wrapping_add(0..units)`
    /// as seed-range chunks and returns the job handle. The caller's
    /// telemetry scope (if any) is captured and re-entered around every
    /// chunk, wherever it runs. Submission never blocks on execution.
    pub fn submit(&self, ctx: Arc<C>, base_seed: u64, units: usize) -> Job<C, U> {
        assert!(units > 0, "a job needs at least one unit");
        let job = Arc::new(JobInner {
            ctx,
            base_seed,
            remaining: AtomicUsize::new(units),
            results: Mutex::new(Vec::with_capacity(units)),
            panic: Mutex::new(None),
            scope: coopckpt_obs::current_scope(),
        });
        let chunk_size = units.div_ceil(self.workers * CHUNKS_PER_WORKER).max(1);
        {
            let mut queue = self.queue.lock().unwrap();
            let mut start = 0;
            while start < units {
                let end = (start + chunk_size).min(units);
                queue.push_back(Chunk {
                    job: Arc::clone(&job),
                    range: start..end,
                });
                start = end;
            }
        }
        self.cv.notify_all();
        Job { inner: job }
    }

    /// Runs one chunk to completion and deposits its results. On the last
    /// chunk of a job, wakes every waiter (joiners of that job and helpers
    /// whose condition may now hold). A panicking unit does not unwind
    /// past here: its payload is parked on the job, the chunk still
    /// counts as done, and the job's later chunks are skipped, so nobody
    /// waits for results that will never come.
    fn exec_chunk(&self, chunk: Chunk<C, U>) {
        let live = LIVE_UNIT_WORKERS.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK_UNIT_WORKERS.fetch_max(live, Ordering::SeqCst);
        let job = &chunk.job;
        let done = chunk.range.len();
        if job.panic.lock().unwrap().is_none() {
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                let _guard = job.scope.as_ref().map(coopckpt_obs::enter);
                let mut local = Vec::with_capacity(done);
                for i in chunk.range.clone() {
                    let seed = job.base_seed.wrapping_add(i as u64);
                    local.push((i, (self.run)(&job.ctx, seed)));
                }
                local
            }));
            match run {
                Ok(local) => job.results.lock().unwrap().extend(local),
                Err(payload) => {
                    job.panic.lock().unwrap().get_or_insert(payload);
                }
            }
        }
        LIVE_UNIT_WORKERS.fetch_sub(1, Ordering::SeqCst);
        // Results land before the count drops, so `remaining == 0`
        // implies every result is visible to whoever observes it.
        if job.remaining.fetch_sub(done, Ordering::SeqCst) == done {
            // Lock-then-notify: a joiner checks `remaining` under the
            // queue lock before waiting, so taking the lock here makes
            // that check and this notification mutually ordered — the
            // wakeup cannot fall between its check and its wait.
            drop(self.queue.lock().unwrap());
            self.cv.notify_all();
        }
    }

    /// Blocks until `job` completes, executing queued chunks (of *any*
    /// job) the whole time, and returns the job's results sorted by unit
    /// index. Because the owner drains the queue itself, every job is
    /// completable by its submitter alone — no worker count, cache fill,
    /// or helper scheduling can deadlock a join. Joining the same job
    /// twice yields an empty second result (the first join drains it).
    /// If a unit of the job panicked, wherever it ran, the join re-raises
    /// that panic once every chunk has been accounted for.
    pub fn join(&self, job: &Job<C, U>) -> Vec<U> {
        loop {
            if job.is_done() {
                break;
            }
            let mut queue = self.queue.lock().unwrap();
            match queue.pop_front() {
                Some(chunk) => {
                    drop(queue);
                    self.exec_chunk(chunk);
                }
                None => {
                    // Re-check under the lock (see exec_chunk) — the last
                    // chunk may have completed since the unlocked check.
                    if job.is_done() {
                        break;
                    }
                    drop(self.cv.wait(queue).unwrap());
                }
            }
        }
        if let Some(payload) = job.inner.panic.lock().unwrap().take() {
            panic::resume_unwind(payload);
        }
        let mut collected = std::mem::take(&mut *job.inner.results.lock().unwrap());
        collected.sort_unstable_by_key(|(i, _)| *i);
        collected.into_iter().map(|(_, v)| v).collect()
    }

    /// Executes queued chunks until `done()` holds, then returns. `done`
    /// is re-checked under the queue lock before every wait; any event
    /// that can turn it true must be followed by [`Pool::notify`] (job
    /// completions notify internally).
    pub fn help_until(&self, done: impl Fn() -> bool) {
        loop {
            if done() {
                return;
            }
            let mut queue = self.queue.lock().unwrap();
            match queue.pop_front() {
                Some(chunk) => {
                    drop(queue);
                    self.exec_chunk(chunk);
                }
                None => {
                    if done() {
                        return;
                    }
                    drop(self.cv.wait(queue).unwrap());
                }
            }
        }
    }

    /// Wakes every waiting thread so it re-checks its condition. Call
    /// after externally changing any state a [`Pool::help_until`]
    /// condition reads.
    pub fn notify(&self) {
        // Lock-then-notify, same reasoning as in exec_chunk.
        drop(self.queue.lock().unwrap());
        self.cv.notify_all();
    }
}

/// One-shot convenience for callers without an ambient pool: runs `units`
/// units of `ctx` across `threads` threads (the calling thread plus
/// `threads - 1` transient helpers) and returns the results sorted by
/// unit index. With `threads == 1` no thread is spawned at all.
pub fn run_standalone<C, U>(
    threads: usize,
    ctx: Arc<C>,
    base_seed: u64,
    units: usize,
    run: impl Fn(&C, u64) -> U + Send + Sync + 'static,
) -> Vec<U>
where
    C: Send + Sync,
    U: Send,
{
    let threads = threads.clamp(1, units.max(1));
    let pool = Pool::new(threads, run);
    let job = pool.submit(ctx, base_seed, units);
    std::thread::scope(|scope| {
        for _ in 1..threads {
            let (pool, job) = (&pool, &job);
            scope.spawn(move || pool.help_until(|| job.is_done()));
        }
        pool.join(&job)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests in this module: the worker-count gauge is
    /// process-global, so a gauge assertion must not overlap any other
    /// test's chunk execution.
    static GATE: Mutex<()> = Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn square_pool(workers: usize) -> Pool<u64, u64> {
        Pool::new(workers, |offset: &u64, seed: u64| {
            seed.wrapping_mul(*offset)
        })
    }

    #[test]
    fn join_returns_results_in_unit_order() {
        let _gate = gate();
        for workers in [1, 4] {
            let pool = square_pool(workers);
            let job = pool.submit(Arc::new(3), 10, 9);
            let got = pool.join(&job);
            let want: Vec<u64> = (10..19).map(|s| s * 3).collect();
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    #[test]
    fn seeds_wrap_around_u64_max() {
        let _gate = gate();
        let pool = square_pool(1);
        let job = pool.submit(Arc::new(1), u64::MAX - 1, 4);
        assert_eq!(pool.join(&job), vec![u64::MAX - 1, u64::MAX, 0, 1]);
    }

    #[test]
    fn jobs_interleave_and_join_independently() {
        let _gate = gate();
        let pool = Arc::new(square_pool(2));
        let a = pool.submit(Arc::new(2), 0, 100);
        let b = pool.submit(Arc::new(5), 0, 50);
        // Join in the opposite order of submission; joining `b` first
        // drains `a`'s chunks too (cross-job stealing).
        assert_eq!(pool.join(&b), (0..50u64).map(|s| s * 5).collect::<Vec<_>>());
        assert_eq!(
            pool.join(&a),
            (0..100u64).map(|s| s * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_standalone_matches_serial_at_any_thread_count() {
        let _gate = gate();
        let serial = run_standalone(1, Arc::new(7u64), 5, 33, |o, s| s.wrapping_mul(*o));
        for threads in [2, 8] {
            let parallel =
                run_standalone(threads, Arc::new(7u64), 5, 33, |o, s| s.wrapping_mul(*o));
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn helpers_drain_the_queue_under_contention() {
        let _gate = gate();
        // Many tiny jobs joined from many threads; every join must see
        // exactly its own job's results despite arbitrary stealing.
        let pool = Arc::new(square_pool(4));
        std::thread::scope(|scope| {
            for k in 1..=8u64 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let job = pool.submit(Arc::new(k), 1, 20);
                    let got = pool.join(&job);
                    let want: Vec<u64> = (1..21).map(|s| s * k).collect();
                    assert_eq!(got, want);
                });
            }
        });
    }

    #[test]
    fn worker_peak_is_one_when_single_threaded() {
        let _gate = gate();
        reset_unit_worker_peak();
        let got = run_standalone(1, Arc::new(1u64), 0, 64, |o, s| s.wrapping_mul(*o));
        assert_eq!(got.len(), 64);
        assert_eq!(unit_worker_peak(), 1);
    }

    #[test]
    fn a_panicking_unit_reaches_the_owner_instead_of_hanging() {
        let _gate = gate();
        // On its own thread, so a hang fails by the deadline below instead
        // of stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = panic::catch_unwind(|| {
                run_standalone(2, Arc::new(()), 0, 16, |_: &(), seed| {
                    if seed == 5 {
                        panic!("unit 5 fails");
                    }
                    seed
                })
            });
            tx.send(outcome.map_err(|p| p.downcast_ref::<&str>().map(|s| s.to_string())))
                .ok();
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the pool still runs after 10 s");
        assert_eq!(outcome, Err(Some("unit 5 fails".to_string())));
        // Every worker left its chunk: the live gauge is back to zero.
        assert_eq!(LIVE_UNIT_WORKERS.load(Ordering::SeqCst), 0);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_jobs_are_rejected() {
        square_pool(1).submit(Arc::new(1), 0, 0);
    }
}
