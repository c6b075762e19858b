//! Minimal std-backed stand-in for the `crossbeam` crate.
//!
//! Provides the subset this workspace uses: `channel` (MPMC unbounded
//! channels with timeouts), `deque` (a locked per-worker deque plus a
//! sharded injector) and `utils::CachePadded`. Semantics
//! (blocking, disconnection, LIFO worker pop vs FIFO steal, batch
//! transfer into the destination worker) match the real crate for the
//! paths exercised here.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        cv: Condvar,
    }

    struct State<T> {
        buf: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                buf: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cv: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if q.receivers == 0 {
                return Err(SendError(value));
            }
            q.buf.push_back(value);
            drop(q);
            self.shared.cv.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            q.senders -= 1;
            let last = q.senders == 0;
            drop(q);
            if last {
                self.shared.cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = q.buf.pop_front() {
                    return Ok(v);
                }
                if q.senders == 0 {
                    return Err(RecvError);
                }
                q = self
                    .shared
                    .cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match q.buf.pop_front() {
                Some(v) => Ok(v),
                None if q.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = q.buf.pop_front() {
                    return Ok(v);
                }
                if q.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .cv
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        }

        /// Blocking iterator that ends when the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers += 1;
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers -= 1;
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

pub mod deque {
    //! Work-stealing deques with crossbeam's ends: a worker's owner pushes
    //! and pops at the back (LIFO), thieves take from the front (oldest
    //! first); plus a sharded MPMC injector.
    //!
    //! Each worker's deque is one `Mutex<VecDeque>`. The pool refills a
    //! deque only once it is empty and a batch adds at most
    //! `STEAL_BATCH − 1` tasks, each task runs for tens of microseconds,
    //! and every spawn already takes an injector lock, so a lock per deque
    //! operation is not what a task's cost is made of.

    use std::collections::VecDeque;
    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    /// Outcome of a steal attempt.
    pub enum Steal<T> {
        Success(T),
        Empty,
        /// Part of crossbeam's API; this shim never returns it.
        Retry,
    }

    /// Default batch bound for `steal_batch_and_pop`: small enough that
    /// one thief cannot drain a straggler's whole queue in one visit.
    const MAX_BATCH: usize = 32;

    /// Poison is ignored: a section under this lock only calls `VecDeque`
    /// methods, each of which leaves the queue valid.
    fn lock<T>(queue: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
        queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The owner end of a worker's deque: LIFO `push`/`pop`. `Send` but
    /// not `Sync`, as crossbeam's: one thread owns it at a time.
    ///
    /// ```compile_fail
    /// fn shared<T: Sync>() {}
    /// shared::<crossbeam::deque::Worker<u8>>();
    /// ```
    pub struct Worker<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
        _not_sync: PhantomData<std::cell::Cell<()>>,
    }

    impl<T> Worker<T> {
        pub fn new_lifo() -> Self {
            Worker {
                queue: Arc::default(),
                _not_sync: PhantomData,
            }
        }

        pub fn push(&self, value: T) {
            lock(&self.queue).push_back(value);
        }

        pub fn pop(&self) -> Option<T> {
            lock(&self.queue).pop_back()
        }

        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: self.queue.clone(),
            }
        }
    }

    /// Steals from the front (FIFO) end of another worker's deque.
    pub struct Stealer<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                queue: self.queue.clone(),
            }
        }
    }

    impl<T> Stealer<T> {
        /// Take the oldest element.
        pub fn steal(&self) -> Steal<T> {
            match lock(&self.queue).pop_front() {
                Some(v) => Steal::Success(v),
                None => Steal::Empty,
            }
        }

        /// Take up to `limit` of the oldest elements: the first is
        /// returned, the rest go, in order, to the back of `dest`.
        pub fn steal_batch_with_limit_and_pop(&self, dest: &Worker<T>, limit: usize) -> Steal<T> {
            let (first, rest): (T, Vec<T>) = {
                let mut q = lock(&self.queue);
                let Some(first) = q.pop_front() else {
                    return Steal::Empty;
                };
                let n = q.len().min(limit.max(1) - 1);
                (first, q.drain(..n).collect())
            };
            // Released first: two workers robbing each other would
            // otherwise take the same two locks in opposite orders.
            lock(&dest.queue).extend(rest);
            Steal::Success(first)
        }
    }

    /// How many independently locked FIFO shards back an [`Injector`]:
    /// spawners round-robin across them, so concurrent pushes (and
    /// concurrent worker drains) mostly touch different locks.
    const INJECTOR_SHARDS: usize = 8;

    /// Global MPMC injection queue, sharded to keep spawn and drain
    /// traffic from serializing on one lock. FIFO within a shard;
    /// round-robin push keeps global ordering approximately FIFO.
    pub struct Injector<T> {
        shards: Box<[super::utils::CachePadded<Mutex<VecDeque<T>>>]>,
        push_idx: AtomicUsize,
        steal_idx: AtomicUsize,
        len: AtomicUsize,
    }

    impl<T> Injector<T> {
        pub fn new() -> Self {
            Injector {
                shards: (0..INJECTOR_SHARDS)
                    .map(|_| super::utils::CachePadded::new(Mutex::new(VecDeque::new())))
                    .collect(),
                push_idx: AtomicUsize::new(0),
                steal_idx: AtomicUsize::new(0),
                len: AtomicUsize::new(0),
            }
        }

        pub fn push(&self, value: T) {
            let i = self.push_idx.fetch_add(1, Ordering::Relaxed) % INJECTOR_SHARDS;
            self.shards[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(value);
            self.len.fetch_add(1, Ordering::Release);
        }

        /// Approximate emptiness — exact once the queue is quiescent,
        /// which is all the pool's sleep check needs.
        pub fn is_empty(&self) -> bool {
            self.len.load(Ordering::Acquire) == 0
        }

        /// Pop one task for the calling worker.
        pub fn steal(&self) -> Steal<T> {
            if self.is_empty() {
                return Steal::Empty;
            }
            let start = self.steal_idx.fetch_add(1, Ordering::Relaxed);
            for k in 0..INJECTOR_SHARDS {
                let shard = &self.shards[(start + k) % INJECTOR_SHARDS];
                let mut q = shard.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(v) = q.pop_front() {
                    self.len.fetch_sub(1, Ordering::Release);
                    return Steal::Success(v);
                }
            }
            Steal::Empty
        }

        /// Move up to `limit` tasks out of the shards: the first is
        /// returned, the rest land in `dest`'s deque (where deque peers
        /// can re-steal them).
        pub fn steal_batch_with_limit_and_pop(&self, dest: &Worker<T>, limit: usize) -> Steal<T> {
            let mut first = None;
            let taken = self.take(limit.max(1), dest, &mut first);
            match (taken, first) {
                (0, _) => Steal::Empty,
                (_, Some(v)) => Steal::Success(v),
                (_, None) => unreachable!("the first taken task is always captured"),
            }
        }

        /// [`Self::steal_batch_with_limit_and_pop`] at the default bound.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            self.steal_batch_with_limit_and_pop(dest, MAX_BATCH)
        }

        /// Drain up to `limit` tasks scanning shards from a rotating
        /// start (pushes round-robin, so a batch usually spans shards —
        /// one lock acquisition per shard visited). Returns the number
        /// taken; routes the first into `first`, the rest into `dest`'s
        /// deque.
        fn take(&self, limit: usize, dest: &Worker<T>, first: &mut Option<T>) -> usize {
            if self.is_empty() {
                return 0;
            }
            let start = self.steal_idx.fetch_add(1, Ordering::Relaxed);
            let mut taken = 0;
            for k in 0..INJECTOR_SHARDS {
                if taken >= limit {
                    break;
                }
                let shard = &self.shards[(start + k) % INJECTOR_SHARDS];
                let mut q = shard.lock().unwrap_or_else(PoisonError::into_inner);
                let n = (limit - taken).min(q.len());
                if n == 0 {
                    continue;
                }
                self.len.fetch_sub(n, Ordering::Release);
                for _ in 0..n {
                    let v = q.pop_front().expect("len-checked");
                    if taken == 0 {
                        *first = Some(v);
                    } else {
                        dest.push(v);
                    }
                    taken += 1;
                }
            }
            taken
        }
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector::new()
        }
    }
}

pub mod utils {
    use std::ops::{Deref, DerefMut};

    /// Aligns the wrapped value to a cache line to avoid false sharing.
    #[derive(Debug, Default)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        pub fn new(value: T) -> Self {
            CachePadded { value }
        }

        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError, TryRecvError};
    use super::deque::{Injector, Steal, Worker};
    use std::time::Duration;

    #[test]
    fn channel_roundtrip_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = unbounded::<u8>();
        let r = rx.recv_timeout(Duration::from_millis(5));
        assert_eq!(r, Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn channel_crosses_threads() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        t.join().unwrap();
    }

    #[test]
    fn worker_is_lifo_stealer_is_fifo() {
        let w = Worker::new_lifo();
        w.push(1);
        w.push(2);
        let s = w.stealer();
        assert!(matches!(s.steal(), Steal::Success(1)));
        assert_eq!(w.pop(), Some(2));
    }

    #[test]
    fn injector_hands_out_tasks() {
        let inj = Injector::new();
        let w = Worker::new_lifo();
        inj.push(7);
        assert!(matches!(inj.steal_batch_and_pop(&w), Steal::Success(7)));
        assert!(matches!(inj.steal_batch_and_pop(&w), Steal::Empty));
    }

    #[test]
    fn stealer_batch_transfers_into_dest() {
        let src = Worker::new_lifo();
        for i in 0..10 {
            src.push(i);
        }
        let dest = Worker::new_lifo();
        // limit 4: first element returned, three moved into dest
        let got = src.stealer().steal_batch_with_limit_and_pop(&dest, 4);
        assert!(matches!(got, Steal::Success(0)));
        assert_eq!(dest.pop(), Some(3), "dest drains LIFO");
        assert_eq!(dest.pop(), Some(2));
        assert_eq!(dest.pop(), Some(1));
        assert_eq!(dest.pop(), None);
        // the source kept the rest
        assert_eq!(src.pop(), Some(9));
    }

    #[test]
    fn injector_batch_transfers_into_dest() {
        let inj = Injector::new();
        for i in 0..6 {
            inj.push(i);
        }
        let dest = Worker::new_lifo();
        let got = inj.steal_batch_with_limit_and_pop(&dest, 4);
        let Steal::Success(first) = got else {
            panic!("expected a task");
        };
        let mut moved = Vec::new();
        while let Some(v) = dest.pop() {
            moved.push(v);
        }
        assert_eq!(moved.len(), 3, "batch of 4: one popped, three moved");
        assert!(!inj.is_empty(), "two tasks stay queued");
        let mut rest = Vec::new();
        loop {
            match inj.steal() {
                Steal::Success(v) => rest.push(v),
                Steal::Empty => break,
                Steal::Retry => {}
            }
        }
        let mut all: Vec<i32> = moved;
        all.push(first);
        all.extend(rest);
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn single_stealer_sees_fifo_order_across_reallocations() {
        // No owner pops: a lone stealer must observe exact push order,
        // across many reallocations of the queue.
        let w = Worker::new_lifo();
        for i in 0..1000 {
            w.push(i);
        }
        let s = w.stealer();
        for want in 0..1000 {
            loop {
                match s.steal() {
                    Steal::Success(v) => {
                        assert_eq!(v, want);
                        break;
                    }
                    Steal::Retry => {}
                    Steal::Empty => panic!("lost task {want}"),
                }
            }
        }
        assert!(matches!(s.steal(), Steal::Empty));
    }

    #[test]
    fn deque_stress_no_lost_or_duplicated_tasks() {
        // Concurrent owner (push + interleaved LIFO pops) vs 4 stealers
        // hammering single-element steals: every task must be received
        // exactly once, across reallocations and last-element races.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        const ITEMS: usize = 20_000;
        const STEALERS: usize = 4;
        let w = Worker::new_lifo();
        let done = Arc::new(AtomicBool::new(false));
        let mut thieves = Vec::new();
        for _ in 0..STEALERS {
            let s = w.stealer();
            let done = done.clone();
            thieves.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while !done.load(Ordering::Acquire) {
                    match s.steal() {
                        Steal::Success(v) => got.push(v),
                        Steal::Empty => std::thread::yield_now(),
                        Steal::Retry => {}
                    }
                }
                got
            }));
        }
        let mut all = Vec::new();
        for i in 0..ITEMS {
            w.push(i);
            if i % 3 == 0 {
                if let Some(v) = w.pop() {
                    all.push(v);
                }
            }
        }
        while let Some(v) = w.pop() {
            all.push(v);
        }
        // The deque is empty; anything not popped here is already owned
        // by exactly one stealer.
        done.store(true, Ordering::Release);
        for t in thieves {
            all.extend(t.join().unwrap());
        }
        assert_eq!(all.len(), ITEMS, "lost or duplicated tasks");
        all.sort_unstable();
        for (want, got) in all.iter().enumerate() {
            assert_eq!(want, *got, "task multiset corrupted");
        }
    }

    #[test]
    fn batch_steal_stress_no_lost_or_duplicated_tasks() {
        // Same exactly-once contract under batch transfer: thieves pull
        // batches into their own deque and drain it locally — the path
        // the pool's find_task runs.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        const ITEMS: usize = 20_000;
        const STEALERS: usize = 3;
        let w = Worker::new_lifo();
        let done = Arc::new(AtomicBool::new(false));
        let mut thieves = Vec::new();
        for _ in 0..STEALERS {
            let s = w.stealer();
            let done = done.clone();
            thieves.push(std::thread::spawn(move || {
                let local = Worker::new_lifo();
                let mut got = Vec::new();
                while !done.load(Ordering::Acquire) {
                    match s.steal_batch_with_limit_and_pop(&local, 8) {
                        Steal::Success(v) => {
                            got.push(v);
                            while let Some(v) = local.pop() {
                                got.push(v);
                            }
                        }
                        Steal::Empty => std::thread::yield_now(),
                        Steal::Retry => {}
                    }
                }
                got
            }));
        }
        let mut all = Vec::new();
        for i in 0..ITEMS {
            w.push(i);
            if i % 5 == 0 {
                if let Some(v) = w.pop() {
                    all.push(v);
                }
            }
        }
        while let Some(v) = w.pop() {
            all.push(v);
        }
        done.store(true, Ordering::Release);
        for t in thieves {
            all.extend(t.join().unwrap());
        }
        assert_eq!(all.len(), ITEMS, "lost or duplicated tasks");
        all.sort_unstable();
        for (want, got) in all.iter().enumerate() {
            assert_eq!(want, *got, "task multiset corrupted");
        }
    }

    #[test]
    fn injector_stress_concurrent_producers_and_consumers() {
        // The sharded injector is the pool's spawn path: 2 producers vs
        // 3 consumers draining through batch transfer, exactly once.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        const PER_PRODUCER: usize = 5_000;
        const PRODUCERS: usize = 2;
        let inj = Arc::new(Injector::new());
        let mut producers = Vec::new();
        for pid in 0..PRODUCERS {
            let inj = inj.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    inj.push(pid * PER_PRODUCER + i);
                }
            }));
        }
        let received = Arc::new(AtomicUsize::new(0));
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let inj = inj.clone();
            let received = received.clone();
            consumers.push(std::thread::spawn(move || {
                let local = Worker::new_lifo();
                let mut got = Vec::new();
                while received.load(Ordering::Acquire) < PRODUCERS * PER_PRODUCER {
                    match inj.steal_batch_and_pop(&local) {
                        Steal::Success(v) => {
                            let mut n = 1;
                            got.push(v);
                            while let Some(v) = local.pop() {
                                got.push(v);
                                n += 1;
                            }
                            received.fetch_add(n, Ordering::AcqRel);
                        }
                        Steal::Empty => std::thread::yield_now(),
                        Steal::Retry => {}
                    }
                }
                got
            }));
        }
        for t in producers {
            t.join().unwrap();
        }
        let mut all = Vec::new();
        for t in consumers {
            all.extend(t.join().unwrap());
        }
        assert_eq!(all.len(), PRODUCERS * PER_PRODUCER);
        all.sort_unstable();
        for (want, got) in all.iter().enumerate() {
            assert_eq!(want, *got);
        }
    }
}
