//! Intra-worker work-stealing thread pool for the MTTKRP kernels.
//!
//! The distributed driver models one rank per OS thread, so on a
//! many-core box running few workers most cores idle through the compute
//! phases.  [`ThreadPool`] closes that gap: a small pool of persistent
//! threads that execute *chunked* kernel jobs ([`ThreadPool::run`])
//! submitted by its owning thread.  Design constraints, in order:
//!
//! 1. **Bitwise determinism** — the pool never changes *what* is
//!    computed, only *who* computes it.  Jobs are an indexed set of
//!    chunks; callers guarantee chunks touch disjoint output (the layout
//!    kernels chunk by run ranges, which are row-disjoint by
//!    construction), so any interleaving of chunk execution produces
//!    bit-identical output.  Chunk *claiming* is a single shared atomic
//!    cursor — work-stealing without any per-thread deques to rebalance.
//! 2. **Clock hygiene (L5)** — idle workers park on a `Condvar`; there is
//!    no `thread::sleep` polling and no clock read anywhere in the pool.
//! 3. **Observability** — when the submitting thread is collecting
//!    metrics, each worker installs a child registry for the duration of
//!    the job and the caller [`absorb`](dismastd_obs::absorb)s the child
//!    snapshots before `run` returns, so `pool/chunks` counters (and any
//!    spans recorded inside chunks) reconcile with the caller's snapshot
//!    instead of being silently dropped.
//!
//! Pool size comes from [`ThreadPolicy`]: an explicit `Fixed(n)`, or
//! `Auto` (the default), which honours the `DISMASTD_THREADS` environment
//! variable and falls back to `std::thread::available_parallelism`.
//! Threading is confined to this module by the xtask determinism lint
//! (`thread::spawn` elsewhere in the deterministic crates is a build-gate
//! failure).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// How many threads an intra-worker pool should use.
///
/// `Auto` resolves the `DISMASTD_THREADS` environment variable (a
/// positive integer) and falls back to the machine's available
/// parallelism; `Fixed(n)` pins the count and *ignores* the environment,
/// so explicit configuration (and tests pinning determinism across
/// counts) cannot be overridden from outside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadPolicy {
    /// `DISMASTD_THREADS` if set, else `available_parallelism`.
    #[default]
    Auto,
    /// Exactly this many threads (clamped to at least 1).
    Fixed(usize),
}

impl ThreadPolicy {
    /// Resolves the policy to a concrete thread count (>= 1).  `Auto`
    /// reads the environment on every call, so tests that vary
    /// `DISMASTD_THREADS` see the change immediately.
    pub fn resolve(self) -> usize {
        match self {
            ThreadPolicy::Fixed(n) => n.max(1),
            ThreadPolicy::Auto => env_threads().unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            }),
        }
    }

    /// Resolves the policy for one of `world` co-resident workers: the
    /// machine budget is split evenly so `world` ranks on one box do not
    /// oversubscribe it (`>= 1` per rank).
    pub fn resolve_for_world(self, world: usize) -> usize {
        (self.resolve() / world.max(1)).max(1)
    }
}

fn env_threads() -> Option<usize> {
    std::env::var("DISMASTD_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

/// One submitted job: a chunk task plus the chunk count and whether the
/// submitting thread was collecting metrics.
///
/// The task reference is lifetime-erased to `'static`; this is sound
/// because [`ThreadPool::run`] does not return until every engaged worker
/// has disengaged and the job slot is cleared, so no worker can observe
/// the reference after the borrow it was transmuted from ends.
#[derive(Clone, Copy)]
struct JobHandle {
    task: &'static (dyn Fn(usize) + Sync),
    n_chunks: usize,
    collect: bool,
}

struct PoolState {
    job: Option<JobHandle>,
    /// Bumped per submitted job so sleeping workers can tell a new job
    /// from a spurious wakeup.
    epoch: u64,
    /// Workers currently inside a job (claimed it under the lock).
    engaged: usize,
    /// Child snapshots handed back by workers at job end.
    snapshots: Vec<dismastd_obs::MetricsSnapshot>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a job (or shutdown).
    work: Condvar,
    /// The submitter parks here waiting for engaged workers to drain.
    done: Condvar,
    /// Next unclaimed chunk of the current job.
    cursor: AtomicUsize,
}

fn lock(shared: &Shared) -> MutexGuard<'_, PoolState> {
    // A panic inside a chunk task poisons the lock; the state itself is
    // plain data and stays consistent, so recover and continue.
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small work-stealing pool; see the module docs.
///
/// `ThreadPool::new(1)` spawns no threads at all — every job runs inline
/// on the submitting thread through the identical chunk loop, so a
/// single-threaded pool is exactly the serial execution.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool of `threads` total execution lanes: the submitting
    /// thread plus `threads - 1` spawned workers.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                engaged: 0,
                snapshots: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// Total execution lanes, including the submitting thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `task(c)` for every chunk `c in 0..n_chunks`, blocking
    /// until all chunks have completed.  The submitting thread
    /// participates, so the pool is never idle-while-waiting.
    ///
    /// Chunks must write disjoint output (callers chunk by row-disjoint
    /// run ranges); under that contract the result is bitwise identical
    /// for every thread count, including 1.
    pub fn run(&self, n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_chunks == 0 {
            return;
        }
        if self.workers.is_empty() || n_chunks == 1 {
            // Serial fast path: same loop, no synchronisation.
            for c in 0..n_chunks {
                task(c);
                dismastd_obs::counter_add("pool/chunks", 1);
            }
            return;
        }
        let collect = dismastd_obs::installed();
        // Lifetime erasure — sound per the `JobHandle` contract: this
        // function blocks below until `engaged == 0` and then clears the
        // job slot, so no worker holds the reference once `run` returns.
        let task: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        {
            let mut st = lock(&self.shared);
            st.job = Some(JobHandle {
                task,
                n_chunks,
                collect,
            });
            st.epoch += 1;
            self.shared.cursor.store(0, Ordering::SeqCst);
            self.shared.work.notify_all();
        }
        // The submitter steals chunks like any worker.
        loop {
            let c = self.shared.cursor.fetch_add(1, Ordering::SeqCst);
            if c >= n_chunks {
                break;
            }
            task(c);
            dismastd_obs::counter_add("pool/chunks", 1);
        }
        // Wait out engaged workers, retire the job, collect child
        // snapshots into this thread's registry.
        let snapshots = {
            let mut st = lock(&self.shared);
            while st.engaged > 0 {
                st = self
                    .shared
                    .done
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
            std::mem::take(&mut st.snapshots)
        };
        for snap in &snapshots {
            dismastd_obs::absorb(snap);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            // A worker that panicked (chunk task bug) already tore down;
            // surfacing the panic here would abort the unwind that is
            // likely already in progress on the submitter.
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_epoch = 0u64;
    loop {
        // Park until a job this worker has not seen (or shutdown).
        let job = {
            let mut st = lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    if let Some(job) = st.job {
                        st.engaged += 1;
                        break job;
                    }
                    // Woke after the submitter retired the job: nothing
                    // to do for this epoch.
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Child registry so recordings on this thread are not dropped;
        // the submitter absorbs the snapshot before `run` returns.
        let collector = job.collect.then(dismastd_obs::begin);
        loop {
            let c = shared.cursor.fetch_add(1, Ordering::SeqCst);
            if c >= job.n_chunks {
                break;
            }
            (job.task)(c);
            dismastd_obs::counter_add("pool/chunks", 1);
        }
        let snap = collector.map(dismastd_obs::Collector::finish);
        let mut st = lock(shared);
        if let Some(snap) = snap {
            if !snap.is_empty() {
                st.snapshots.push(snap);
            }
        }
        st.engaged -= 1;
        if st.engaged == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn policy_resolves_fixed_and_clamps_zero() {
        assert_eq!(ThreadPolicy::Fixed(3).resolve(), 3);
        assert_eq!(ThreadPolicy::Fixed(0).resolve(), 1);
        assert!(ThreadPolicy::Auto.resolve() >= 1);
        assert_eq!(ThreadPolicy::default(), ThreadPolicy::Auto);
    }

    #[test]
    fn policy_splits_the_budget_across_a_world() {
        assert_eq!(ThreadPolicy::Fixed(8).resolve_for_world(4), 2);
        assert_eq!(ThreadPolicy::Fixed(8).resolve_for_world(3), 2);
        assert_eq!(ThreadPolicy::Fixed(2).resolve_for_world(4), 1);
        assert_eq!(ThreadPolicy::Fixed(8).resolve_for_world(0), 8);
    }

    #[test]
    fn policy_serde_round_trips() {
        for p in [ThreadPolicy::Auto, ThreadPolicy::Fixed(4)] {
            let json = serde_json::to_string(&p).expect("serialize");
            let back: ThreadPolicy = serde_json::from_str(&json).expect("parse");
            assert_eq!(back, p);
        }
    }

    fn run_sum(pool: &ThreadPool, n_chunks: usize) -> u64 {
        let total = AtomicU64::new(0);
        pool.run(n_chunks, &|c| {
            total.fetch_add(c as u64 + 1, Ordering::Relaxed);
        });
        total.load(Ordering::Relaxed)
    }

    #[test]
    fn every_chunk_runs_exactly_once_for_every_pool_size() {
        let expected = |n: usize| (n * (n + 1) / 2) as u64;
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.threads(), threads);
            for n_chunks in [0, 1, 2, 7, 64] {
                assert_eq!(
                    run_sum(&pool, n_chunks),
                    expected(n_chunks),
                    "threads={threads} n_chunks={n_chunks}"
                );
            }
        }
    }

    #[test]
    fn a_pool_is_reusable_across_many_jobs() {
        let pool = ThreadPool::new(4);
        for _ in 0..50 {
            assert_eq!(run_sum(&pool, 16), 136);
        }
    }

    #[test]
    fn disjoint_chunk_writes_land_like_serial() {
        let pool = ThreadPool::new(4);
        let n = 1000usize;
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.run(n, &|c| {
            slots[c].store(c as u64 * 3 + 1, Ordering::Relaxed);
        });
        for (c, s) in slots.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), c as u64 * 3 + 1);
        }
    }

    #[test]
    fn pooled_chunk_counters_reconcile_with_the_caller_snapshot() {
        let pool = ThreadPool::new(4);
        let collector = dismastd_obs::begin();
        run_sum(&pool, 32);
        let snap = collector.finish();
        assert_eq!(
            snap.counter_value("pool/chunks"),
            32,
            "every chunk must be accounted, wherever it ran"
        );
    }

    #[test]
    fn uncollected_jobs_record_nothing() {
        let pool = ThreadPool::new(3);
        run_sum(&pool, 8);
        let snap = dismastd_obs::begin().finish();
        assert!(snap.is_empty());
    }
}
