//! Future/promise local control objects (LCOs).
//!
//! These mirror the `hpx::future` / `hpx::promise` pair the paper's solver is
//! built on: single-producer, single-consumer futures with a blocking
//! [`Future::get`], dataflow continuations ([`Future::then`]) and
//! conjunction ([`when_all`]).

use crate::pool::PoolHandle;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

type Callback<T> = Box<dyn FnOnce(T) + Send + 'static>;

enum State<T> {
    /// Value not produced yet; at most one registered continuation.
    Pending(Option<Callback<T>>),
    /// Value produced, waiting for the consumer.
    Ready(T),
    /// Value handed to the consumer (or to a continuation).
    Consumed,
    /// The promise was dropped without fulfilling — waiting would deadlock.
    Broken,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

/// The write end of a future, fulfilled once by [`Promise::set`]. Dropped
/// unfulfilled, it marks the future *broken*: `get` panics, not deadlocks.
pub(crate) struct Promise<T> {
    shared: Arc<Shared<T>>,
    fulfilled: bool,
}

/// The read end: consume with [`Future::get`] (blocking) or attach a
/// continuation with [`Future::then`].
pub struct Future<T> {
    shared: Arc<Shared<T>>,
}

/// Create a connected promise/future pair.
pub(crate) fn channel<T>() -> (Promise<T>, Future<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::Pending(None)),
        cv: Condvar::new(),
    });
    (
        Promise {
            shared: shared.clone(),
            fulfilled: false,
        },
        Future { shared },
    )
}

/// A future that is already fulfilled with `value`.
pub fn ready<T>(value: T) -> Future<T> {
    let (p, f) = channel();
    p.set(value);
    f
}

impl<T> Promise<T> {
    /// Fulfil the promise. Runs the registered continuation (if any) on the
    /// calling thread, otherwise stores the value and wakes blocked getters.
    pub(crate) fn set(mut self, value: T) {
        self.fulfilled = true;
        let mut guard = self.shared.state.lock();
        match std::mem::replace(&mut *guard, State::Consumed) {
            State::Pending(Some(cb)) => {
                drop(guard);
                cb(value);
            }
            State::Pending(None) => {
                *guard = State::Ready(value);
                drop(guard);
                self.shared.cv.notify_all();
            }
            State::Ready(_) | State::Consumed | State::Broken => {
                unreachable!("promise fulfilled twice")
            }
        }
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        if self.fulfilled {
            return;
        }
        let mut guard = self.shared.state.lock();
        if matches!(*guard, State::Pending(_)) {
            *guard = State::Broken;
            drop(guard);
            self.shared.cv.notify_all();
        }
    }
}

impl<T> Future<T> {
    /// Block until the value is available and take it.
    ///
    /// # Panics
    /// Panics if the promise was dropped unfulfilled.
    pub fn get(self) -> T {
        let mut guard = self.shared.state.lock();
        loop {
            match &*guard {
                State::Ready(_) => match std::mem::replace(&mut *guard, State::Consumed) {
                    State::Ready(v) => return v,
                    _ => unreachable!(),
                },
                State::Pending(_) => self.shared.cv.wait(&mut guard),
                State::Broken => panic!("future broken: promise dropped without a value"),
                State::Consumed => unreachable!("future consumed twice"),
            }
        }
    }

    /// Attach a continuation that runs exactly once with the value — on this
    /// thread if the value is already available, otherwise on the thread that
    /// fulfils the promise.
    pub(crate) fn on_ready<F: FnOnce(T) + Send + 'static>(self, f: F)
    where
        T: Send + 'static,
    {
        let mut guard = self.shared.state.lock();
        match std::mem::replace(&mut *guard, State::Consumed) {
            State::Ready(v) => {
                drop(guard);
                f(v);
            }
            State::Pending(None) => {
                *guard = State::Pending(Some(Box::new(f)));
            }
            State::Pending(Some(_)) => unreachable!("continuation attached twice"),
            State::Broken => panic!("future broken: promise dropped without a value"),
            State::Consumed => unreachable!("future consumed twice"),
        }
    }

    /// Dataflow continuation executed as a task on `pool` once the value
    /// arrives (the `future.then(hpx::launch::async, ...)` shape).
    pub fn then<U, F>(self, pool: &PoolHandle, f: F) -> Future<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: FnOnce(T) -> U + Send + 'static,
    {
        let (p, fut) = channel();
        let pool = pool.clone();
        self.on_ready(move |v| pool.spawn_boxed(Box::new(move || p.set(f(v)))));
        fut
    }
}

/// Combine a set of futures into one producing all values in input order.
///
/// The result becomes ready when the last input does; an empty input yields
/// an immediately-ready empty vector.
pub fn when_all<T: Send + 'static>(futures: Vec<Future<T>>) -> Future<Vec<T>> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let n = futures.len();
    let (p, fut) = channel();
    if n == 0 {
        p.set(Vec::new());
        return fut;
    }
    struct Gather<T> {
        slots: Mutex<Vec<Option<T>>>,
        remaining: AtomicUsize,
        promise: Mutex<Option<Promise<Vec<T>>>>,
    }
    let gather = Arc::new(Gather {
        slots: Mutex::new((0..n).map(|_| None).collect()),
        remaining: AtomicUsize::new(n),
        promise: Mutex::new(Some(p)),
    });
    for (i, f) in futures.into_iter().enumerate() {
        let g = gather.clone();
        f.on_ready(move |v| {
            g.slots.lock()[i] = Some(v);
            if g.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let values: Vec<T> = g
                    .slots
                    .lock()
                    .iter_mut()
                    .map(|s| s.take().expect("when_all slot unfilled"))
                    .collect();
                let p = g.promise.lock().take().expect("when_all promise taken");
                p.set(values);
            }
        });
    }
    fut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use std::thread;
    use std::time::Duration;

    impl<T> Future<T> {
        /// True once a value is waiting (does not consume it).
        pub(crate) fn is_ready(&self) -> bool {
            matches!(*self.shared.state.lock(), State::Ready(_))
        }

        /// True if the promise was dropped without fulfilling.
        fn is_broken(&self) -> bool {
            matches!(*self.shared.state.lock(), State::Broken)
        }
    }

    #[test]
    fn set_then_get() {
        let (p, f) = channel();
        p.set(7u32);
        assert!(f.is_ready());
        assert_eq!(f.get(), 7);
    }

    #[test]
    fn get_blocks_until_set() {
        let (p, f) = channel();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            p.set(42i64);
        });
        assert_eq!(f.get(), 42);
        t.join().unwrap();
    }

    #[test]
    fn continuation_runs_on_set() {
        let (p, f) = channel::<u32>();
        let (p2, f2) = channel::<u32>();
        f.on_ready(move |v| p2.set(v * 2));
        p.set(21);
        assert_eq!(f2.get(), 42);
    }

    #[test]
    fn continuation_runs_immediately_if_ready() {
        let f = ready(5u32);
        let (p2, f2) = channel::<u32>();
        f.on_ready(move |v| p2.set(v + 1));
        assert_eq!(f2.get(), 6);
    }

    #[test]
    fn then_runs_on_the_pool() {
        let pool = ThreadPool::new(1, "t");
        let f = ready(2u32).then(&pool.handle(), |v| v * 3);
        assert_eq!(f.get(), 6);
    }

    #[test]
    fn when_all_collects_in_order() {
        let (p1, f1) = channel::<u32>();
        let (p2, f2) = channel::<u32>();
        let (p3, f3) = channel::<u32>();
        let all = when_all(vec![f1, f2, f3]);
        p2.set(2);
        assert!(!all.is_ready());
        p3.set(3);
        p1.set(1);
        assert_eq!(all.get(), vec![1, 2, 3]);
    }

    #[test]
    fn when_all_empty_is_ready() {
        let all: Future<Vec<u8>> = when_all(vec![]);
        assert!(all.is_ready());
        assert!(all.get().is_empty());
    }

    #[test]
    fn broken_promise_detected() {
        let (p, f) = channel::<u32>();
        drop(p);
        assert!(f.is_broken());
    }

    #[test]
    #[should_panic(expected = "future broken")]
    fn get_on_broken_panics() {
        let (p, f) = channel::<u32>();
        drop(p);
        f.get();
    }
}
