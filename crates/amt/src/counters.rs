//! Performance-counter registry.
//!
//! HPX exposes globally named performance counters registered in AGAS and
//! polled at run time; the load balancer of the paper reads
//! `hpx::performance_counters::busy_time` (§7).
//!
//! [`CounterRegistry`] reproduces that registry: counters are addressed by
//! string names (we keep HPX's `/threads{locality#N/total}/time/busy`
//! convention) and are backed either by a raw atomic or by a *gauge*
//! closure reading live runtime state.
//!
//! Counters are **monotone**: nothing resets them, so a read is the total
//! since the counter was registered and a window is the difference of two
//! reads. The paper's balancer resets `busy_time` at the end of every
//! iteration (Algorithm 1, line 35) so the next epoch measures a fresh
//! interval; the real runtime's LB epoch instead keeps the reading it takes
//! at that point and subtracts it from the next one — the same quantity,
//! and the whole run's total stays readable for the report.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

enum Source {
    /// A plain atomic owned by the counter.
    Raw(AtomicU64),
    /// A closure sampling some live value (e.g. a pool's busy nanoseconds).
    Gauge(Box<dyn Fn() -> u64 + Send + Sync>),
}

/// A named, monotone counter. Cloning shares the underlying state.
#[derive(Clone)]
pub struct Counter(Arc<Source>);

impl Counter {
    /// A counter backed by its own atomic, starting at zero.
    pub fn raw() -> Self {
        Counter(Arc::new(Source::Raw(AtomicU64::new(0))))
    }

    /// A counter sampling `f` on every read.
    pub(crate) fn gauge(f: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        Counter(Arc::new(Source::Gauge(Box::new(f))))
    }

    /// Current value: the total since the counter was created.
    pub fn read(&self) -> u64 {
        match &*self.0 {
            Source::Raw(a) => a.load(Ordering::Relaxed),
            Source::Gauge(f) => f(),
        }
    }

    /// Add to a raw counter.
    ///
    /// # Panics
    /// Panics when called on a gauge counter.
    pub fn add(&self, delta: u64) {
        match &*self.0 {
            Source::Raw(a) => {
                a.fetch_add(delta, Ordering::Relaxed);
            }
            Source::Gauge(_) => panic!("cannot add to a gauge counter"),
        }
    }
}

/// String-addressed counter registry shared across a cluster.
#[derive(Default)]
pub struct CounterRegistry {
    counters: RwLock<HashMap<String, Counter>>,
}

impl CounterRegistry {
    /// Register (or replace) a counter under `name` and return it.
    pub fn register(&self, name: impl Into<String>, counter: Counter) -> Counter {
        let name = name.into();
        self.counters.write().insert(name, counter.clone());
        counter
    }

    /// Snapshot of `(name, value)` pairs, sorted by name, for counters whose
    /// name starts with `prefix` (empty prefix = all).
    pub fn snapshot(&self, prefix: &str) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .read()
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(n, c)| (n.clone(), c.read()))
            .collect();
        out.sort();
        out
    }
}

/// Registry name of counter `name` of locality `locality`'s worker pool, in
/// HPX's `/threads{locality#N/total}/…` family: `time/busy` (the paper's
/// `busy_time`, ns), `count/steals` (successful injector and peer-deque
/// batches), `count/steal-fails` (full scans that found nothing) and
/// `count/parks` (waits on the sleep condvar).
pub fn threads_counter_name(locality: u32, name: &str) -> String {
    format!("/threads{{locality#{locality}/total}}/{name}")
}

/// Parcels the cluster's fabric carried.
pub const NETWORK_MESSAGES: &str = "/network/total/msg-count";
/// Bytes the fabric carried, parcel headers included.
pub(crate) const NETWORK_BYTES: &str = "/network/total/byte-count";
/// The share of `NETWORK_BYTES` that crossed localities.
pub const NETWORK_CROSS_BYTES: &str = "/network/total/cross-byte-count";

#[cfg(test)]
mod tests {
    use super::*;

    impl CounterRegistry {
        /// Read a counter by name; `None` if unregistered.
        pub(crate) fn read(&self, name: &str) -> Option<u64> {
            self.counters.read().get(name).map(Counter::read)
        }
    }

    #[test]
    fn raw_counter_add_and_read() {
        let c = Counter::raw();
        c.add(5);
        c.add(7);
        assert_eq!(c.read(), 12);
    }

    #[test]
    fn gauge_reads_live_value() {
        let v = Arc::new(AtomicU64::new(10));
        let v2 = v.clone();
        let c = Counter::gauge(move || v2.load(Ordering::Relaxed));
        assert_eq!(c.read(), 10);
        v.store(25, Ordering::Relaxed);
        assert_eq!(c.read(), 25);
    }

    #[test]
    #[should_panic(expected = "gauge")]
    fn add_to_gauge_panics() {
        let c = Counter::gauge(|| 0);
        c.add(1);
    }

    #[test]
    fn registry_register_read_snapshot() {
        let reg = CounterRegistry::default();
        let a = reg.register(threads_counter_name(0, "time/busy"), Counter::raw());
        let b = reg.register(threads_counter_name(1, "time/busy"), Counter::raw());
        reg.register(NETWORK_MESSAGES, Counter::raw());
        a.add(10);
        b.add(20);
        assert_eq!(reg.read("/threads{locality#0/total}/time/busy"), Some(10));
        assert_eq!(reg.read("/nowhere"), None);
        // a counter only grows: a window is the difference of two reads
        let mark = a.read();
        a.add(3);
        assert_eq!(reg.read("/threads{locality#0/total}/time/busy"), Some(13));
        assert_eq!(a.read() - mark, 3);
        let threads = reg.snapshot("/threads");
        assert_eq!(threads.len(), 2);
        assert_eq!(threads[1], (threads_counter_name(1, "time/busy"), 20));
        assert_eq!(reg.snapshot("").len(), 3);
    }

    #[test]
    fn busy_time_name_matches_hpx_convention() {
        assert_eq!(
            threads_counter_name(3, "time/busy"),
            "/threads{locality#3/total}/time/busy"
        );
    }
}
