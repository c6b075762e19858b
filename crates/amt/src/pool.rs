//! Work-stealing thread pool with per-worker busy-time accounting.
//!
//! This is the threading subsystem of the AMT runtime (Fig. 3 of the paper):
//! task submission onto a sharded injector, one locked deque per worker
//! with rotating-victim batch stealing, and nanosecond busy-time
//! counters that back the `busy_time` performance counter used by the load
//! balancer (§7).
//!
//! A steal moves up to `STEAL_BATCH` tasks. Steal / failed-scan / park
//! counts are exported per worker for observability.

use crate::future::{channel, Future};
use crate::task::{Spawn, Task};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use crossbeam::utils::CachePadded;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-worker steal telemetry (one cache line per worker).
#[derive(Default)]
struct StealStats {
    /// Successful steals (injector batches + peer-deque batches).
    steals: AtomicU64,
    /// Full find_task scans that found nothing anywhere.
    failed_scans: AtomicU64,
    /// Times the worker gave up and parked on the sleep condvar.
    parks: AtomicU64,
}

struct PoolInner {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    shutdown: AtomicBool,
    /// Workers that have entered their loop.
    started: AtomicUsize,
    /// Tasks submitted but not yet finished.
    pending: AtomicUsize,
    busy_ns: Vec<CachePadded<AtomicU64>>,
    steal_stats: Vec<CachePadded<StealStats>>,
    executed: AtomicU64,
    panics: AtomicU64,
    first_panic: Mutex<Option<String>>,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    /// Workers currently parked (or about to park) on `sleep_cv` — lets
    /// the spawn path skip the lock + notify entirely while every worker
    /// is busy, which is the common case under load.
    sleepers: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

/// A fixed-size work-stealing pool. Dropping the pool drains queued tasks and
/// joins the workers.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

/// Cheap, cloneable submission handle (implements [`Spawn`]).
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<PoolInner>,
}

impl PoolInner {
    /// The shared state of an `n_workers` pool and each worker's own
    /// deque, indexed by worker.
    fn new(n_workers: usize) -> (Self, Vec<Worker<Task>>) {
        let locals: Vec<Worker<Task>> = (0..n_workers).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        let inner = PoolInner {
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            started: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            busy_ns: (0..n_workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            steal_stats: (0..n_workers).map(|_| CachePadded::default()).collect(),
            executed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            first_panic: Mutex::new(None),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
        };
        (inner, locals)
    }
}

impl ThreadPool {
    /// Spin up `n_workers` worker threads named `<name>-w<i>`.
    pub fn new(n_workers: usize, name: &str) -> Self {
        assert!(n_workers > 0, "a pool needs at least one worker");
        let (inner, locals) = PoolInner::new(n_workers);
        let inner = Arc::new(inner);
        let workers = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-w{i}"))
                    .spawn(move || worker_loop(inner, local, i))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { inner, workers }
    }

    /// Submission handle for this pool.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            inner: self.inner.clone(),
        }
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.inner.busy_ns.len()
    }

    /// Block until every worker thread is running. Threads start
    /// asynchronously, so a caller about to fan work out (or to time it)
    /// waits here rather than race the pool's own start-up.
    pub fn wait_started(&self) {
        while self.inner.started.load(Ordering::Acquire) < self.n_workers() {
            std::thread::yield_now();
        }
    }

    /// Submit a task.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.handle().spawn(f);
    }

    /// Block the calling thread (which must not be a pool worker) until every
    /// submitted task has finished.
    ///
    /// # Panics
    /// Re-raises the first panic observed in any task.
    pub fn wait_idle(&self) {
        let inner = &self.inner;
        let mut guard = inner.idle_lock.lock();
        while inner.pending.load(Ordering::Acquire) != 0 {
            inner.idle_cv.wait_for(&mut guard, Duration::from_millis(1));
        }
        drop(guard);
        if inner.panics.load(Ordering::Acquire) != 0 {
            let msg = inner
                .first_panic
                .lock()
                .clone()
                .unwrap_or_else(|| "<unknown>".into());
            panic!("pool task panicked: {msg}");
        }
    }

    /// Total busy time (sum over workers) in nanoseconds since construction.
    pub fn busy_ns_total(&self) -> u64 {
        self.inner
            .busy_ns
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Busy time of a single worker in nanoseconds.
    pub fn busy_ns(&self, worker: usize) -> u64 {
        self.inner.busy_ns[worker].load(Ordering::Relaxed)
    }

    /// Number of completed tasks.
    pub fn tasks_executed(&self) -> u64 {
        self.inner.executed.load(Ordering::Relaxed)
    }

    /// Successful steals (injector + peer-deque batches) of one worker.
    pub fn steals(&self, worker: usize) -> u64 {
        self.inner.steal_stats[worker]
            .steals
            .load(Ordering::Relaxed)
    }

    /// Failed full scans (injector and every peer empty) of one worker.
    pub fn steal_fails(&self, worker: usize) -> u64 {
        self.inner.steal_stats[worker]
            .failed_scans
            .load(Ordering::Relaxed)
    }

    /// Times one worker parked on the sleep condvar.
    pub fn parks(&self, worker: usize) -> u64 {
        self.inner.steal_stats[worker].parks.load(Ordering::Relaxed)
    }

    /// Successful steals summed over all workers.
    pub fn steals_total(&self) -> u64 {
        (0..self.n_workers()).map(|w| self.steals(w)).sum()
    }

    /// Failed full scans summed over all workers.
    pub fn steal_fails_total(&self) -> u64 {
        (0..self.n_workers()).map(|w| self.steal_fails(w)).sum()
    }

    /// Parks summed over all workers.
    pub fn parks_total(&self) -> u64 {
        (0..self.n_workers()).map(|w| self.parks(w)).sum()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Wake every sleeper so they observe the flag.
        let _g = self.inner.sleep_lock.lock();
        self.inner.sleep_cv.notify_all();
        drop(_g);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Spawn for PoolHandle {
    fn spawn_boxed(&self, task: Task) {
        self.inner.pending.fetch_add(1, Ordering::AcqRel);
        self.inner.injector.push(task);
        // Dekker-style handoff with the park path: the fence orders the
        // push before the sleeper check, pairing with the fence between a
        // worker's sleeper registration and its emptiness re-check, so
        // at least one side sees the other. A stale read here only delays
        // a wake by the 200us park timeout; skipping the lock + futex
        // wake while every worker is busy is the common fast path.
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.inner.sleepers.load(Ordering::Relaxed) > 0 {
            let _g = self.inner.sleep_lock.lock();
            self.inner.sleep_cv.notify_one();
        }
    }
}

impl PoolHandle {
    /// `hpx::async` analogue: run `f` on the pool, returning a future for the
    /// result.
    pub fn async_call<T, F>(&self, f: F) -> Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (p, fut) = channel();
        self.spawn_boxed(Box::new(move || p.set(f())));
        fut
    }
}

/// Free-function form of [`PoolHandle::async_call`] usable with any spawner.
pub fn async_call<T, F, S>(spawner: &S, f: F) -> Future<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
    S: Spawn + ?Sized,
{
    let (p, fut) = channel();
    spawner.spawn_boxed(Box::new(move || p.set(f())));
    fut
}

/// Most tasks one steal moves. The doubling/halving bound of Fernandes et
/// al. (arXiv 2401.04494) that stood here bought nothing measurable on
/// this runtime's short, homogeneous queues; they report its gain under
/// real heterogeneity.
const STEAL_BATCH: usize = 4;

/// Local pop, else a batch from the injector, else a batch from a peer's
/// deque (victims scanned in rotating order from `me + 1`, so thieves
/// spread instead of all mobbing worker 0). Batch transfers land the
/// extra tasks in `local`, where the next `local.pop()` — or a peer's
/// steal — picks them up.
fn find_task(inner: &PoolInner, local: &Worker<Task>, me: usize) -> Option<Task> {
    if let Some(t) = local.pop() {
        return Some(t);
    }
    let stats = &inner.steal_stats[me];
    let on_success = |t: Task| {
        stats.steals.fetch_add(1, Ordering::Relaxed);
        Some(t)
    };
    loop {
        match inner
            .injector
            .steal_batch_with_limit_and_pop(local, STEAL_BATCH)
        {
            Steal::Success(t) => return on_success(t),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    let n = inner.stealers.len();
    for k in 1..n {
        let victim = (me + k) % n;
        loop {
            match inner.stealers[victim].steal_batch_with_limit_and_pop(local, STEAL_BATCH) {
                Steal::Success(t) => return on_success(t),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    stats.failed_scans.fetch_add(1, Ordering::Relaxed);
    None
}

fn worker_loop(inner: Arc<PoolInner>, local: Worker<Task>, me: usize) {
    inner.started.fetch_add(1, Ordering::Release);
    loop {
        match find_task(&inner, &local, me) {
            Some(task) => {
                let t0 = Instant::now();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                let dt = t0.elapsed().as_nanos() as u64;
                inner.busy_ns[me].fetch_add(dt, Ordering::Relaxed);
                inner.executed.fetch_add(1, Ordering::Relaxed);
                if let Err(payload) = result {
                    inner.panics.fetch_add(1, Ordering::AcqRel);
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic payload>".into());
                    let mut slot = inner.first_panic.lock();
                    slot.get_or_insert(msg);
                }
                if inner.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _g = inner.idle_lock.lock();
                    inner.idle_cv.notify_all();
                }
            }
            None => {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let mut g = inner.sleep_lock.lock();
                inner.sleepers.fetch_add(1, Ordering::Relaxed);
                std::sync::atomic::fence(Ordering::SeqCst);
                // Re-check under the lock so a spawn cannot slip between the
                // failed steal and the wait (bounded staleness: short timeout).
                if inner.injector.is_empty() {
                    inner.steal_stats[me].parks.fetch_add(1, Ordering::Relaxed);
                    inner.sleep_cv.wait_for(&mut g, Duration::from_micros(200));
                }
                inner.sleepers.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::when_all;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn wait_started_sees_every_worker() {
        let pool = ThreadPool::new(3, "t");
        pool.wait_started();
        assert_eq!(pool.inner.started.load(Ordering::Acquire), 3);
    }

    #[test]
    fn executes_all_tasks() {
        let pool = ThreadPool::new(3, "t");
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..100 {
            let c = counter.clone();
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.tasks_executed(), 100);
    }

    #[test]
    fn async_call_returns_value() {
        let pool = ThreadPool::new(2, "t");
        let f = pool.handle().async_call(|| 6 * 7);
        assert_eq!(f.get(), 42);
    }

    #[test]
    fn futures_compose_across_pool() {
        let pool = ThreadPool::new(2, "t");
        let h = pool.handle();
        let futs: Vec<_> = (0..16u64).map(|i| h.async_call(move || i * i)).collect();
        let sum: u64 = when_all(futs).get().into_iter().sum();
        assert_eq!(sum, (0..16u64).map(|i| i * i).sum());
    }

    #[test]
    fn busy_time_accumulates() {
        let pool = ThreadPool::new(1, "t");
        pool.spawn(|| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(5) {
                std::hint::spin_loop();
            }
        });
        pool.wait_idle();
        assert!(pool.busy_ns_total() >= 4_000_000);
    }

    #[test]
    fn wait_idle_with_no_tasks_returns() {
        let pool = ThreadPool::new(1, "t");
        pool.wait_idle();
    }

    #[test]
    #[should_panic(expected = "pool task panicked")]
    fn task_panic_is_reported() {
        let pool = ThreadPool::new(1, "t");
        pool.spawn(|| panic!("boom"));
        pool.wait_idle();
    }

    #[test]
    fn steal_counters_observe_activity() {
        let pool = ThreadPool::new(4, "t");
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..512 {
            let c = counter.clone();
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 512);
        // Every task enters through the injector, so the workers must have
        // recorded injector-batch steals.
        assert!(pool.steals_total() >= 1);
        // Failure/park telemetry is wired (idle workers may or may not have
        // whiffed yet — just exercise the getters).
        let _ = pool.steal_fails_total();
        let _ = pool.parks_total();
    }

    /// A task that appends `id` to `log` when it runs.
    fn tagged(log: &Arc<Mutex<Vec<u32>>>, id: u32) -> Task {
        let log = log.clone();
        Box::new(move || log.lock().push(id))
    }

    /// How many tasks `w` holds: steal each from the front, push it back
    /// at the back, so the deque ends as it began.
    fn depth(w: &Worker<Task>) -> usize {
        let mut held = Vec::new();
        while let Steal::Success(t) = w.stealer().steal() {
            held.push(t);
        }
        let n = held.len();
        held.into_iter().for_each(|t| w.push(t));
        n
    }

    #[test]
    fn find_task_pops_local_then_one_injector_batch_then_peers_from_me_plus_one() {
        // Three workers so that the victim scan from `me + 1` (2, then 0)
        // differs from a scan from worker 0.
        let (inner, locals) = PoolInner::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        let depths_ok = || locals.iter().all(|w| depth(w) < STEAL_BATCH);
        // Workers 0 and 2 each take one batch from a spawn burst, the way
        // a busy pool leaves them: one task run, the rest in their deques.
        for id in 0..8 {
            inner.injector.push(tagged(&log, id));
        }
        for me in [0, 2] {
            find_task(&inner, &locals[me], me).expect("a queued task")();
        }
        assert_eq!(*log.lock(), [0, 4]);
        assert_eq!((depth(&locals[0]), depth(&locals[2])), (3, 3));
        log.lock().clear();

        // Worker 1: two tasks of its own, six more in the injector.
        locals[1].push(tagged(&log, 200));
        locals[1].push(tagged(&log, 201));
        for id in 100..106 {
            inner.injector.push(tagged(&log, id));
        }
        while let Some(task) = find_task(&inner, &locals[1], 1) {
            task();
            assert!(depths_ok(), "a deque holds {STEAL_BATCH} or more tasks");
            if log.lock().last() == Some(&102) {
                assert_eq!(
                    depth(&locals[1]),
                    STEAL_BATCH - 1,
                    "one batch, the first run"
                );
            }
        }
        assert_eq!(
            *log.lock(),
            [
                201, 200, // own deque, newest first
                102, 105, 104, 103, // one injector batch of STEAL_BATCH
                100, 101, // the injector's remainder
                5, 7, 6, // peer 2 = me + 1, oldest first, batch drained LIFO
                1, 3, 2, // then peer 0
            ]
        );
        assert_eq!(inner.steal_stats[1].steals.load(Ordering::Relaxed), 4);
        assert_eq!(inner.steal_stats[1].failed_scans.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_spawn_from_task() {
        let pool = ThreadPool::new(2, "t");
        let h = pool.handle();
        let counter = Arc::new(AtomicU32::new(0));
        let c = counter.clone();
        let h2 = h.clone();
        h.spawn(move || {
            for _ in 0..10 {
                let c = c.clone();
                h2.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }
}
