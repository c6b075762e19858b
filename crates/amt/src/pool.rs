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

use crate::future::Future;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use crossbeam::utils::CachePadded;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
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

/// Cheap, cloneable submission handle.
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
    pub(crate) fn n_workers(&self) -> usize {
        self.inner.busy_ns.len()
    }

    /// Block until every worker thread is running. Threads start
    /// asynchronously, so a caller about to fan work out (or to time it)
    /// waits here rather than race the pool's own start-up.
    pub(crate) fn wait_started(&self) {
        while self.inner.started.load(Ordering::Acquire) < self.n_workers() {
            std::thread::yield_now();
        }
    }

    /// Submit a task.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.handle().spawn_boxed(Box::new(f));
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

    /// Number of completed tasks.
    pub fn tasks_executed(&self) -> u64 {
        self.inner.executed.load(Ordering::Relaxed)
    }

    /// `stat` summed over all workers.
    fn stat_total(&self, stat: fn(&StealStats) -> &AtomicU64) -> u64 {
        let stats = self.inner.steal_stats.iter();
        stats.map(|s| stat(s).load(Ordering::Relaxed)).sum()
    }

    /// Successful steals (injector + peer-deque batches), all workers.
    pub(crate) fn steals_total(&self) -> u64 {
        self.stat_total(|s| &s.steals)
    }

    /// Failed full scans (injector and every peer empty), all workers.
    pub(crate) fn steal_fails_total(&self) -> u64 {
        self.stat_total(|s| &s.failed_scans)
    }

    /// Times a worker parked on the sleep condvar, all workers.
    pub(crate) fn parks_total(&self) -> u64 {
        self.stat_total(|s| &s.parks)
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

/// A unit of work scheduled onto a worker pool.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

impl PoolHandle {
    /// Queue `task` on the pool.
    pub(crate) fn spawn_boxed(&self, task: Task) {
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

    /// Run `body` with a [`Scope`] whose jobs may borrow what outlives
    /// this call, in the shape of [`std::thread::scope`] (HPX's
    /// `define_task_block`); returns once every job spawned into it, by
    /// `body` or by jobs, has run or been dropped. Not for a job of this
    /// pool to call: it blocks its worker.
    ///
    /// # Panics
    /// Once every job has finished: with `body`'s panic, else the first
    /// job panic's own payload — or if a job was dropped unrun (a
    /// [`Scope::spawn_on`] whose promise was dropped unfulfilled).
    pub fn scope<'env, F, R>(&self, body: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            pool: self.clone(),
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
                owner: std::thread::current(),
            }),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(&scope)));
        // Acquire, paired with each job's Release count-down
        while scope.state.pending.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        if let Some(payload) = scope.state.panic.lock().take().filter(|_| result.is_ok()) {
            resume_unwind(payload);
        }
        result.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

/// The jobs of one [`PoolHandle::scope`] call, which may borrow for
/// `'scope` (invariant, as in [`std::thread::Scope`]).
pub struct Scope<'scope, 'env: 'scope> {
    pool: PoolHandle,
    state: Arc<ScopeState>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

struct ScopeState {
    /// Jobs neither run nor dropped yet.
    pending: AtomicUsize,
    /// The first job's panic, or the panic a job dropped unrun stands for.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The thread waiting in `scope`.
    owner: Thread,
}

/// A job of a scope, counted down when dropped: after it ran, or unrun.
///
/// The pool holds a job as a `'static` box although it may borrow for
/// `'scope`: [`Scope::spawn`] and [`Scope::spawn_on`] each erase that
/// lifetime, the pool's only `unsafe` code. That is sound because the
/// job's borrows end before its count goes down (`run` consumes it first;
/// an unrun job's `Drop` drops it first), and `scope`, which holds every
/// `'scope` borrow, does not return while a count is pending — not on a
/// panicking body, and not when the pool or a broken promise drops a job
/// unrun, which still counts down. So no job outlives what it borrows;
/// `pool::tests` pin each of these exits.
struct ScopedJob<F> {
    job: Option<F>,
    state: Arc<ScopeState>,
}

impl<F> ScopedJob<F> {
    fn run<A>(mut self, arg: A)
    where
        F: FnOnce(A),
    {
        let job = self.job.take().expect("a job runs once");
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| job(arg))) {
            self.state.panic.lock().get_or_insert(payload);
        }
    }
}

impl<F> Drop for ScopedJob<F> {
    fn drop(&mut self) {
        let state = &self.state;
        if let Some(job) = self.job.take() {
            // unrun: its borrows end before the count goes down
            drop(job);
            let unrun =
                "a scoped job was dropped unrun: a spawn_on promise was dropped unfulfilled";
            state.panic.lock().get_or_insert(Box::new(unrun));
        }
        if state.pending.fetch_sub(1, Ordering::Release) == 1 {
            state.owner.unpark();
        }
    }
}

impl<'scope> Scope<'scope, '_> {
    /// Run `job` on the pool; it may spawn more jobs into this scope.
    pub fn spawn<F: FnOnce() + Send + 'scope>(&'scope self, job: F) {
        let job = self.counted(move |()| job());
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || job.run(()));
        // SAFETY: a `ScopedJob`'s lifetime erasure (see there)
        let task = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        self.pool.spawn_boxed(task);
    }

    /// Run `job` on the pool with `future`'s value once it is ready.
    pub fn spawn_on<T, F>(&'scope self, future: Future<T>, job: F)
    where
        T: Send + 'static,
        F: FnOnce(T) + Send + 'scope,
    {
        type Continuation<'a, T> = Box<dyn FnOnce(T) + Send + 'a>;
        let job = self.counted(job);
        let job: Continuation<'scope, T> = Box::new(move |v| job.run(v));
        // SAFETY: a `ScopedJob`'s lifetime erasure (see there)
        let job = unsafe {
            std::mem::transmute::<Continuation<'scope, T>, Continuation<'static, T>>(job)
        };
        let pool = self.pool.clone();
        future.on_ready(move |v| pool.spawn_boxed(Box::new(move || job(v))));
    }

    /// `job`, counted into the scope.
    fn counted<A, F: FnOnce(A)>(&self, job: F) -> ScopedJob<F> {
        // Relaxed: it precedes, in this thread, the push that hands the job
        // out and the count-down of the job spawning it
        self.state.pending.fetch_add(1, Ordering::Relaxed);
        ScopedJob {
            job: Some(job),
            state: self.state.clone(),
        }
    }
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
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;

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

    /// The message of a panic payload.
    fn message(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    /// Sends on its channel when dropped — in a panicking job, as it
    /// unwinds.
    struct SignalOnDrop(mpsc::Sender<()>);

    impl Drop for SignalOnDrop {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    #[test]
    fn scoped_jobs_borrow_the_stack_and_finish_before_the_scope_returns() {
        let pool = ThreadPool::new(2, "t");
        let mut cells = vec![0u64; 64];
        let total = AtomicU64::new(0);
        let (body_done, wait) = mpsc::channel();
        pool.handle().scope(|s| {
            let mut wait = Some(wait);
            for (i, cell) in cells.iter_mut().enumerate() {
                let (total, wait) = (&total, wait.take());
                s.spawn(move || {
                    // the first job finishes only after the body has
                    if let Some(wait) = wait {
                        wait.recv().unwrap();
                    }
                    *cell = i as u64 * 3;
                    total.fetch_add(i as u64, Ordering::Relaxed);
                });
            }
            body_done.send(()).unwrap();
        });
        assert_eq!(cells, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(total.into_inner(), (0..64).sum());
    }

    #[test]
    fn jobs_spawned_by_jobs_and_continuations_are_waited_for() {
        let pool = ThreadPool::new(2, "t");
        let (promise, future) = crate::future::channel::<u64>();
        let hits = AtomicU64::new(0);
        let hits = &hits;
        let (body_done, wait) = mpsc::channel();
        let (body_done_too, wait_too) = mpsc::channel::<()>();
        pool.handle().scope(|s| {
            s.spawn(move || {
                s.spawn(move || {
                    wait.recv().unwrap();
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
            s.spawn_on(future, move |v| {
                s.spawn(move || {
                    hits.fetch_add(v, Ordering::Relaxed);
                });
            });
            // the parcel arrives from outside the pool after the body ends
            std::thread::spawn(move || {
                wait_too.recv().unwrap();
                promise.set(10);
            });
            body_done.send(()).unwrap();
            body_done_too.send(()).unwrap();
        });
        assert_eq!(hits.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn a_job_panic_is_re_raised_with_its_payload_after_its_siblings() {
        let pool = ThreadPool::new(2, "t");
        let sibling_done = AtomicBool::new(false);
        let (unwinding, wait) = mpsc::channel();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.handle().scope(|s| {
                s.spawn(move || {
                    let _signal = SignalOnDrop(unwinding);
                    panic!("record mismatch in job 7");
                });
                let sibling_done = &sibling_done;
                s.spawn(move || {
                    // finishes only after its sibling has panicked
                    wait.recv().unwrap();
                    sibling_done.store(true, Ordering::Relaxed);
                });
            })
        }));
        assert_eq!(message(caught.unwrap_err()), "record mismatch in job 7");
        assert!(sibling_done.load(Ordering::Relaxed));
        // the scope caught it: the pool has no panic of its own to report
        pool.wait_idle();
    }

    #[test]
    #[should_panic(expected = "a scoped job was dropped unrun")]
    fn a_dropped_promise_under_spawn_on_panics_instead_of_hanging() {
        let pool = ThreadPool::new(1, "t");
        let (promise, future) = crate::future::channel::<u64>();
        let (body_done, wait) = mpsc::channel();
        pool.handle().scope(|s| {
            s.spawn_on(future, |_| unreachable!("the promise never delivers"));
            std::thread::spawn(move || {
                wait.recv().unwrap();
                drop(promise);
            });
            body_done.send(()).unwrap();
        });
    }

    #[test]
    fn a_panicking_body_still_waits_for_its_jobs() {
        let pool = ThreadPool::new(1, "t");
        let done = AtomicBool::new(false);
        let (body_panics, wait) = mpsc::channel();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.handle().scope(|s| {
                let done = &done;
                s.spawn(move || {
                    wait.recv().unwrap();
                    done.store(true, Ordering::Relaxed);
                });
                body_panics.send(()).unwrap();
                panic!("the body fails");
            })
        }));
        assert_eq!(message(caught.unwrap_err()), "the body fails");
        assert!(done.load(Ordering::Relaxed));
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
        h.spawn_boxed(Box::new(move || {
            for _ in 0..10 {
                let c = c.clone();
                h2.spawn_boxed(Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }));
            }
        }));
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }
}
