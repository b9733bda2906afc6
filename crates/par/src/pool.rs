//! A long-lived work-stealing worker pool.
//!
//! [`parallel_map`](crate::parallel_map) originally spawned OS threads
//! on every call; fine for table harnesses that fan out once, wasteful
//! for a server that fans out per request. [`WorkerPool`] keeps the
//! threads alive: construct it once, then hand it work two ways —
//!
//! * [`spawn`](WorkerPool::spawn) — fire-and-forget `'static` jobs (a
//!   server submitting request handlers);
//! * [`scope`](WorkerPool::scope) — borrowed jobs that are guaranteed to
//!   finish before the call returns (the engine under `parallel_map`,
//!   which borrows the item slice and the mapping closure from the
//!   caller's stack).
//!
//! ## Dispatch: per-worker deques, stealing, and an injector
//!
//! The pool used to feed every worker from one `Mutex<mpsc::Receiver>`;
//! under load the lock serialised job *fetch* across all workers, which
//! is exactly the dispatch ceiling the serving benchmarks hit. Now each
//! worker owns a Chase–Lev deque ([`crate::deque`]): it pushes and pops
//! its own work LIFO at the bottom, and when it runs dry it steals FIFO
//! from the top of a randomly chosen victim. Jobs submitted from
//! outside the pool land in a shared *injector* queue; a dry worker
//! grabs a batch from the injector into its own deque so subsequent
//! fetches (its own and thieves') are lock-free. No worker ever holds a
//! lock while fetching from another worker's queue, so one slow job can
//! never stall anyone else's fetch path.
//!
//! Idle workers park on a `Condvar` (not a spin loop: the daemon is
//! mostly idle between bursts and spinning would burn the very cores
//! the evaluation workload wants). Every submission notifies the
//! parking lot; the notify takes the parking mutex, which closes the
//! lost-wakeup race with a worker that is mid-way into parking.
//!
//! Worker threads run with the nested-parallelism flag set, so any
//! `parallel_map` reached from inside a job degrades to serial exactly
//! as it would have on a per-call worker thread. Panicking jobs are
//! caught on the worker — a panic can neither kill a pool thread nor
//! leak a fault context into the next job.
//!
//! The process-wide pool behind `parallel_map` is [`global_pool`], sized
//! once from the machine's available parallelism. Per-call thread
//! budgets (`BSCHED_THREADS`, explicit `_with` arguments) are enforced
//! by how many drain jobs a fan-out submits, not by resizing the pool.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use crate::deque::{Deque, Steal};
use crate::sync::{thread, AtomicBool, AtomicU64, Condvar, Mutex, Ordering};
use crate::{in_parallel_worker, IN_PARALLEL};

/// A queued unit of work: boxed so one thin pointer moves through the
/// deques and injector.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// How many injector jobs a dry worker moves into its own deque in one
/// grab (the first is run immediately). Batching amortises the injector
/// lock and gives thieves something to steal.
const INJECTOR_BATCH: usize = 16;

thread_local! {
    /// `(pool id, worker index)` of the pool worker running on this
    /// thread, if any — lets `submit` push to its own deque and tests
    /// observe which worker ran an item.
    static WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// Monotone pool ids so the thread-local worker registration can never
/// be confused across pools.
fn next_pool_id() -> u64 {
    // Deliberately `std`: a process-wide id counter is bookkeeping, not
    // part of the pool's concurrency protocol, and a model run must not
    // interleave on it.
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// A point-in-time snapshot of the pool's dispatch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Jobs a worker took from another worker's deque.
    pub steals: u64,
    /// Times a worker went to sleep on the parking `Condvar`.
    pub parks: u64,
    /// Jobs currently queued (injector + all deques), excluding jobs
    /// already executing.
    pub queued: usize,
}

/// The `Condvar` parking lot idle workers sleep in.
struct Parking {
    lock: Mutex<()>,
    available: Condvar,
}

struct Shared {
    id: u64,
    deques: Box<[Deque]>,
    /// External submissions and deque overflow. Locked only around
    /// push/batch-pop — never across job execution or a steal.
    injector: Mutex<VecDeque<Job>>,
    parking: Parking,
    shutdown: AtomicBool,
    steals: AtomicU64,
    parks: AtomicU64,
}

impl Shared {
    /// Whether any queue in the pool plausibly holds work. Races are
    /// fine everywhere this is called *outside* the parking lock; under
    /// the parking lock it is exact enough to prevent lost wakeups (see
    /// `worker_loop`).
    fn has_work(&self) -> bool {
        !self.injector.lock().unwrap().is_empty() || self.deques.iter().any(|d| !d.is_empty())
    }

    fn queued(&self) -> usize {
        self.injector.lock().unwrap().len() + self.deques.iter().map(Deque::len).sum::<usize>()
    }

    /// Wakes one parked worker. Always takes the parking mutex: a
    /// worker parks only while holding it, so the notify is ordered
    /// either before the worker's final work re-check (which will see
    /// the just-pushed job) or after it began waiting (so it hears the
    /// notify). Cheap when uncontended — and submissions vastly
    /// outnumber parks under load.
    fn notify_one(&self) {
        let _guard = self.parking.lock.lock().unwrap();
        self.parking.available.notify_one();
    }

    fn notify_all(&self) {
        let _guard = self.parking.lock.lock().unwrap();
        self.parking.available.notify_all();
    }

    /// Runs every job still sitting in the injector inline on the
    /// calling thread. Only meaningful once `shutdown` is set: jobs
    /// stranded by a submit racing the shutdown must still run —
    /// `scope` hangs on its latch forever otherwise. The lock is never
    /// held across a job, so a stranded job that itself submits cannot
    /// deadlock.
    #[cfg_attr(bsched_model_mutant, allow(dead_code))]
    fn run_stranded_inline(&self) {
        loop {
            let job = self.injector.lock().unwrap().pop_front();
            match job {
                Some(job) => {
                    let _ = catch_unwind(AssertUnwindSafe(job));
                }
                None => return,
            }
        }
    }
}

/// A fixed-size set of long-lived worker threads with per-worker
/// work-stealing deques and a shared injector for external submissions.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    size: usize,
}

impl WorkerPool {
    /// Starts `size` worker threads (clamped to at least 1).
    #[must_use]
    pub fn new(size: usize) -> WorkerPool {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            id: next_pool_id(),
            deques: (0..size).map(|_| Deque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            parking: Parking {
                lock: Mutex::new(()),
                available: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        });
        let handles = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("bsched-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
            size,
        }
    }

    /// The number of worker threads.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Steal/park counters and current queue depth, for `/stats`.
    #[must_use]
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            steals: self.shared.steals.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            queued: self.shared.queued(),
        }
    }

    /// The index of the pool worker running the calling thread, if the
    /// calling thread belongs to *this* pool. Tests use this to assert
    /// work distribution; it is `None` on every other thread.
    #[must_use]
    pub fn current_worker_index(&self) -> Option<usize> {
        WORKER.with(Cell::get).and_then(|(pool, index)| {
            if pool == self.shared.id {
                Some(index)
            } else {
                None
            }
        })
    }

    /// Submits a fire-and-forget job. A panic inside `job` is caught on
    /// the worker and discarded — jobs that care report their own
    /// outcome (through a channel, a mutex, a response socket).
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.submit(Box::new(job));
    }

    /// Runs every borrowed `job` to completion, plus `caller` on the
    /// current thread, before returning.
    ///
    /// Jobs may borrow from the caller's stack: the call does not return
    /// — even by unwinding out of `caller` — until every job has
    /// finished, so no borrow can dangle. The `caller` closure runs
    /// concurrently with the jobs and is how a fan-out's submitting
    /// thread participates in the work instead of idling (pass `|| {}`
    /// to just wait). Job panics are caught and discarded, exactly as in
    /// [`spawn`](WorkerPool::spawn); a `caller` panic propagates after
    /// the jobs drain.
    ///
    /// Called from inside a pool worker, everything runs inline on the
    /// current thread instead — queueing behind the very job that is
    /// waiting would deadlock a single-worker pool.
    pub fn scope<'a>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'a>>, caller: impl FnOnce()) {
        if in_parallel_worker() {
            for job in jobs {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            caller();
            return;
        }
        let latch = Arc::new(Latch::new(jobs.len()));
        for job in jobs {
            // SAFETY: the borrowed job is retyped as `'static` only so
            // it can cross the queue; `WaitForJobs` below blocks — on
            // return *and* on unwind — until the latch records that
            // every job ran (the `CountDown` guard fires even if a job
            // panics, and `submit` falls back to running rejected jobs
            // inline). No job, and therefore no `'a` borrow, survives
            // this call frame.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Box<dyn FnOnce() + Send>>(job)
            };
            let count_down = CountDown(Arc::clone(&latch));
            self.submit(Box::new(move || {
                let _count_down = count_down;
                let _ = catch_unwind(AssertUnwindSafe(job));
            }));
        }
        let _wait = WaitForJobs(&latch);
        caller();
    }

    /// Stops accepting work, lets queued jobs finish, and joins every
    /// worker. Idempotent; [`spawn`](WorkerPool::spawn) after shutdown
    /// runs the job inline on the caller.
    ///
    /// Called from one of the pool's own jobs (the last reference to the
    /// pool dropped there), it joins every *other* worker and detaches
    /// the calling one, which cannot join itself; that thread exits on
    /// its own once the job returns and the pool is dry.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        let own = self.current_worker_index();
        for (index, h) in handles.into_iter().enumerate() {
            if Some(index) != own {
                let _ = h.join();
            }
        }
        // A submit racing this shutdown can read `shutdown == false`,
        // get preempted, and enqueue after the workers drained and
        // exited. Sweep the injector now that the join is done;
        // `submit`'s own post-enqueue re-check covers a push that lands
        // after this sweep. (`bsched_model_mutant` reverts this fix so
        // the model suite can prove the checker catches the PR-6 race.)
        #[cfg(not(bsched_model_mutant))]
        self.shared.run_stranded_inline();
    }

    fn submit(&self, job: Job) {
        // Shut-down pool: run inline rather than silently dropping —
        // `scope` relies on every job running.
        if self.shared.shutdown.load(Ordering::SeqCst) {
            let _ = catch_unwind(AssertUnwindSafe(job));
            return;
        }
        // A worker spawning from inside a job keeps the work local
        // (LIFO, cache-warm, lock-free); everyone else goes through the
        // injector. A full deque overflows into the injector too.
        let job = match self.current_worker_index() {
            Some(index) => self.shared.deques[index].push(job).err(),
            None => Some(job),
        };
        if let Some(job) = job {
            self.shared.injector.lock().unwrap().push_back(job);
        }
        self.shared.notify_one();
        // Close the race with `shutdown()`: if the flag flipped between
        // the check above and the enqueue, the workers (and shutdown's
        // own injector sweep) may already be gone, leaving the job
        // stranded — and a `scope` latch waiting on it forever. SeqCst
        // orders this load against the store in `shutdown`, so either
        // we see the flag here and drain, or our push is visible to
        // shutdown's sweep. Deque pushes (the worker fast path) are
        // safe without this: the pushing worker is still alive inside a
        // job, and drains its own deque before exiting.
        #[cfg(not(bsched_model_mutant))]
        if self.shared.shutdown.load(Ordering::SeqCst) {
            self.shared.run_stranded_inline();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: fetch → run → repeat, parking when the whole pool is
/// dry, exiting when shut down *and* dry.
fn worker_loop(shared: &Arc<Shared>, index: usize) {
    IN_PARALLEL.with(|flag| flag.set(true));
    WORKER.with(|w| w.set(Some((shared.id, index))));
    // Randomised victim order, seeded per worker (splitmix64): thieves
    // starting at different victims spread contention.
    let mut rng = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1);
    loop {
        if let Some(job) = find_work(shared, index, &mut rng) {
            let _ = catch_unwind(AssertUnwindSafe(job));
            // A job that set a fault context or cancel token and then
            // panicked must not leak it into the next job on this
            // worker.
            bsched_faults::set_context(None);
            bsched_faults::set_cancel_token(None);
            continue;
        }
        // Nothing anywhere: park. The final re-check happens under the
        // parking mutex, which every submission also takes to notify —
        // so either we see the job here, or the submitter's notify
        // comes after we started waiting.
        let guard = shared.parking.lock.lock().unwrap();
        if shared.has_work() {
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.parks.fetch_add(1, Ordering::Relaxed);
        drop(shared.parking.available.wait(guard));
    }
}

/// The fetch path: own deque (LIFO), then an injector batch, then
/// stealing from randomised victims. Lock-free except the brief
/// injector pop.
fn find_work(shared: &Shared, index: usize, rng: &mut u64) -> Option<Job> {
    if let Some(job) = shared.deques[index].pop() {
        return Some(job);
    }
    // Dry: refill from the injector, keeping the first job to run now
    // and parking the rest in our own deque where fetches are
    // lock-free and thieves can reach them.
    {
        let mut injector = shared.injector.lock().unwrap();
        if let Some(first) = injector.pop_front() {
            let mut moved = 0;
            while moved < INJECTOR_BATCH - 1 {
                let Some(job) = injector.pop_front() else {
                    break;
                };
                if let Err(job) = shared.deques[index].push(job) {
                    injector.push_front(job);
                    break;
                }
                moved += 1;
            }
            drop(injector);
            if moved > 0 {
                // Let sleepers know there is suddenly stealable work.
                shared.notify_one();
            }
            return Some(first);
        }
    }
    // Steal, visiting every other worker once in a rotated order; a
    // `Retry` (lost race) means work exists, so sweep again a few
    // times before giving up and letting the caller park.
    let n = shared.deques.len();
    if n <= 1 {
        return None;
    }
    for _sweep in 0..4 {
        let mut contended = false;
        // splitmix64 step for the rotation.
        *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        #[allow(clippy::cast_possible_truncation)]
        let start = (z ^ (z >> 31)) as usize % n;
        for off in 0..n {
            let victim = (start + off) % n;
            if victim == index {
                continue;
            }
            match shared.deques[victim].steal() {
                Steal::Taken(job) => {
                    shared.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(job);
                }
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
        }
        if !contended {
            return None;
        }
        std::hint::spin_loop();
    }
    None
}

/// The pool behind [`parallel_map`](crate::parallel_map), created on
/// first use and sized to the machine (never resized — per-call budgets
/// throttle by submitting fewer jobs).
pub fn global_pool() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        WorkerPool::new(std::thread::available_parallelism().map_or(1, usize::from))
    })
}

/// Counts completed jobs down to zero; waiters block until it gets
/// there.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = self.done.wait(remaining).unwrap();
        }
    }
}

/// Counts the latch down when dropped — so a panicking job still counts.
struct CountDown(Arc<Latch>);

impl Drop for CountDown {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

/// Blocks on the latch when dropped — so `scope` cannot unwind past its
/// borrowed jobs.
struct WaitForJobs<'a>(&'a Latch);

impl Drop for WaitForJobs<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn spawn_runs_jobs_on_worker_threads() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..32usize {
            let tx = tx.clone();
            pool.spawn(move || {
                assert!(in_parallel_worker(), "pool workers carry the flag");
                tx.send(i).unwrap();
            });
        }
        let mut got: Vec<usize> = (0..32).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn scope_joins_borrowed_jobs_before_returning() {
        let pool = WorkerPool::new(3);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    std::thread::sleep(Duration::from_millis(5));
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(jobs, || {
            hits.fetch_add(100, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 108);
    }

    #[test]
    fn scope_waits_even_when_the_caller_panics() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        std::thread::sleep(Duration::from_millis(10));
                        hits.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope(jobs, || panic!("caller boom"));
        }));
        assert!(result.is_err());
        // If scope had unwound without waiting, some increments could
        // land after this read (use-after-free in the real engine).
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let pool = WorkerPool::new(1);
        pool.spawn(|| panic!("job boom"));
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || tx.send(42).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(42));
    }

    #[test]
    fn jobs_cannot_leak_fault_context_across_jobs() {
        let pool = WorkerPool::new(1);
        pool.spawn(|| {
            bsched_faults::set_context(Some(("LEAKY|cell".to_owned(), 1)));
            panic!("die before cleanup");
        });
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || tx.send(bsched_faults::current_context()).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(None));
    }

    #[test]
    fn scope_from_inside_a_worker_runs_inline() {
        let pool = Arc::new(WorkerPool::new(1));
        let inner = Arc::clone(&pool);
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || {
            // The single worker is busy with *this* job; queueing and
            // waiting would deadlock. Inline execution must not.
            let hits = AtomicUsize::new(0);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
                .map(|_| {
                    Box::new(|| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            inner.scope(jobs, || ());
            tx.send(hits.load(Ordering::SeqCst)).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(3));
    }

    #[test]
    fn shutdown_drains_and_is_idempotent() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..16usize {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        pool.shutdown();
        pool.shutdown();
        drop(tx);
        assert_eq!(rx.iter().count(), 16, "queued jobs finish before join");
        // Post-shutdown spawns degrade to inline execution, so this has
        // already run by the next line.
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.spawn(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    /// Regression: when the last reference to a pool dropped inside one
    /// of its own jobs, `shutdown` joined that worker's own thread and
    /// panicked with "Resource deadlock avoided" — the job died before
    /// finishing and the other workers were never joined.
    #[test]
    fn dropping_the_last_reference_inside_a_job_does_not_self_join() {
        let pool = Arc::new(WorkerPool::new(2));
        let job_ref = Arc::clone(&pool);
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || {
            go_rx.recv().unwrap();
            let on_worker = job_ref.current_worker_index().is_some();
            // The test has dropped its reference: this is the last one,
            // so the pool shuts down here, on its own worker.
            drop(job_ref);
            tx.send(on_worker).unwrap();
        });
        drop(pool);
        go_tx.send(()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(true));
    }

    /// Regression: a spawn racing `shutdown()` could read
    /// `shutdown == false`, lose the CPU while the workers drained and
    /// exited, then enqueue a job nobody would ever run — for `scope`,
    /// a latch that never counts down. Every submitted job must run
    /// regardless of how the two interleave.
    #[test]
    fn spawns_racing_shutdown_are_never_stranded() {
        for _ in 0..100 {
            let pool = Arc::new(WorkerPool::new(2));
            let ran = Arc::new(AtomicUsize::new(0));
            let submitter = {
                let pool = Arc::clone(&pool);
                let ran = Arc::clone(&ran);
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        let ran = Arc::clone(&ran);
                        pool.spawn(move || {
                            ran.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                })
            };
            pool.shutdown();
            submitter.join().unwrap();
            // Post-join, every job has either run on a worker, been
            // swept inline by shutdown, or run inline by the submitter
            // itself — spawn-after-shutdown and the post-enqueue
            // re-check both execute synchronously, so no waiting.
            assert_eq!(ran.load(Ordering::SeqCst), 16, "job stranded");
        }
    }

    /// Regression for the shared-receiver design this pool replaced:
    /// with one mpsc receiver behind a mutex, workers serialised on job
    /// *fetch*; one slow job could not block others from fetching, but
    /// the lock convoy showed up as latency. Here: one job sleeps, and
    /// every other worker must keep making progress meanwhile.
    #[test]
    fn one_slow_job_does_not_stall_other_workers() {
        let pool = WorkerPool::new(4);
        let (slow_tx, slow_rx) = mpsc::channel();
        pool.spawn(move || {
            std::thread::sleep(Duration::from_millis(400));
            slow_tx.send(()).unwrap();
        });
        // 64 fast jobs submitted *after* the slow one; they must all
        // finish long before the slow job does.
        let (tx, rx) = mpsc::channel();
        let started = Instant::now();
        for i in 0..64usize {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut done = 0;
        while done < 64 {
            rx.recv_timeout(Duration::from_secs(10)).expect("fast job");
            done += 1;
        }
        assert!(
            started.elapsed() < Duration::from_millis(300),
            "fast jobs waited on the slow one: {:?}",
            started.elapsed()
        );
        slow_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    }

    /// Steal-heavy skewed workload: one worker hoards a deque full of
    /// children and sleeps; the only way the children run promptly is
    /// for the other workers to steal them. Every worker must complete
    /// at least one item.
    #[test]
    fn skewed_workload_is_stolen_and_every_worker_participates() {
        const WORKERS: usize = 4;
        let pool = Arc::new(WorkerPool::new(WORKERS));
        let seen: Arc<Mutex<std::collections::HashSet<usize>>> =
            Arc::new(Mutex::new(std::collections::HashSet::new()));
        let child = |seen: &Arc<Mutex<std::collections::HashSet<usize>>>| {
            let seen = Arc::clone(seen);
            let pool = Arc::clone(&pool);
            move || {
                if let Some(w) = pool.current_worker_index() {
                    seen.lock().unwrap().insert(w);
                }
            }
        };
        // The hoarder parks 64 children in its *own* deque and then
        // sleeps: while it sleeps, those children can only run by being
        // stolen.
        let (done_tx, done_rx) = mpsc::channel();
        let hoarder_pool = Arc::clone(&pool);
        let hoarder_seen = Arc::clone(&seen);
        let hoarder_child = child(&seen);
        pool.spawn(move || {
            for _ in 0..64 {
                let job = hoarder_child.clone();
                hoarder_pool.spawn(job);
            }
            // Sleep until the thieves have visibly run some children.
            for _ in 0..200 {
                std::thread::sleep(Duration::from_millis(5));
                if !hoarder_seen.lock().unwrap().is_empty() {
                    break;
                }
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("hoarder finished");
        // Keep feeding small waves through the injector until every
        // worker (now including the freed hoarder) has run at least one
        // item.
        let deadline = Instant::now() + Duration::from_secs(30);
        while seen.lock().unwrap().len() < WORKERS {
            assert!(Instant::now() < deadline, "a worker never ran an item");
            for _ in 0..8 {
                pool.spawn(child(&seen));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let metrics = pool.metrics();
        assert!(
            metrics.steals > 0,
            "children in a sleeping worker's deque can only run via steals"
        );
    }

    #[test]
    fn metrics_report_parks_and_empty_queues() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        // Give workers a moment to go back to sleep.
        std::thread::sleep(Duration::from_millis(50));
        let metrics = pool.metrics();
        assert_eq!(metrics.queued, 0);
        assert!(metrics.parks > 0, "idle workers park instead of spinning");
    }

    #[test]
    fn worker_index_is_none_outside_the_pool() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.current_worker_index(), None);
        let other = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        let probe = Arc::new(pool);
        let probe_inner = Arc::clone(&probe);
        other.spawn(move || {
            // A worker of a *different* pool is not a worker of this
            // one.
            tx.send(probe_inner.current_worker_index()).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(None));
    }
}
