//! Localities: simulated distributed compute nodes.
//!
//! A [`Locality`] bundles what one node of the paper's cluster has: a worker
//! pool for asynchronous tasks, a speed factor (for reproducing heterogeneous
//! compute capacity, §7), a parcel inbox feeding a rendezvous table for
//! point-to-point message matching, and its busy-time performance counter.

pub use crate::parcel::LocalityId;

use crate::counters::{threads_counter_name, Counter, CounterRegistry};
use crate::future::Future;
use crate::network::FabricHandle;
use crate::parcel::{Parcel, Tag};
use crate::pool::ThreadPool;
use crate::rendezvous::Rendezvous;
use bytes::Bytes;
use crossbeam::channel::Receiver;
use std::sync::Arc;

/// One simulated compute node.
pub struct Locality {
    id: LocalityId,
    pool: Arc<ThreadPool>,
    speed: f64,
    rendezvous: Arc<Rendezvous>,
    fabric: FabricHandle,
    registry: Arc<CounterRegistry>,
}

impl Locality {
    /// Assembled by [`crate::cluster::ClusterBuilder`].
    pub(crate) fn new(
        id: LocalityId,
        workers: usize,
        speed: f64,
        fabric: FabricHandle,
        registry: Arc<CounterRegistry>,
    ) -> Arc<Self> {
        assert!(speed > 0.0, "locality speed must be positive");
        let pool = Arc::new(ThreadPool::new(workers, &format!("loc{id}")));
        for (name, read) in [
            (
                "time/busy",
                ThreadPool::busy_ns_total as fn(&ThreadPool) -> u64,
            ),
            ("count/steals", ThreadPool::steals_total),
            ("count/steal-fails", ThreadPool::steal_fails_total),
            ("count/parks", ThreadPool::parks_total),
        ] {
            let p = pool.clone();
            registry.register(
                threads_counter_name(id, name),
                Counter::gauge(move || read(&p)),
            );
        }
        Arc::new(Locality {
            id,
            pool,
            speed,
            rendezvous: Arc::new(Rendezvous::new()),
            fabric,
            registry,
        })
    }

    /// This locality's id.
    pub fn id(&self) -> LocalityId {
        self.id
    }

    /// Worker threads in this locality's pool.
    pub fn n_workers(&self) -> usize {
        self.pool.n_workers()
    }

    /// Relative compute speed (1.0 = nominal). The solver emulates a slow
    /// node by repeating its kernel work, so its busy time genuinely
    /// grows, which is what the load balancer observes.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// The locality's worker pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Block until all tasks submitted to this locality finished.
    pub fn wait_idle(&self) {
        self.pool.wait_idle();
    }

    /// Send a tagged payload to `dst` (may be `self.id()`).
    pub fn send(&self, dst: LocalityId, tag: Tag, payload: Bytes) {
        let src = self.id;
        self.fabric.send(Parcel {
            src,
            dst,
            tag,
            payload,
        });
    }

    /// Future for the payload that will arrive under `tag`.
    pub fn expect(&self, tag: Tag) -> Future<Bytes> {
        self.rendezvous.expect(tag)
    }

    /// Busy time accumulated by this locality's workers (ns) — the paper's
    /// `busy_time` performance counter.
    pub fn busy_time_ns(&self) -> u64 {
        self.pool.busy_ns_total()
    }

    /// Cluster-wide counter registry.
    pub fn registry(&self) -> &Arc<CounterRegistry> {
        &self.registry
    }

    /// The rendezvous table the inbox pump delivers into.
    pub fn rendezvous(&self) -> &Arc<Rendezvous> {
        &self.rendezvous
    }

    /// Inbox pump: deliver parcels to the rendezvous table until the fabric
    /// closes. Run on a dedicated thread by the cluster.
    pub(crate) fn pump(rx: Receiver<Parcel>, rendezvous: Arc<Rendezvous>) {
        while let Ok(parcel) = rx.recv() {
            rendezvous.deliver(parcel.tag, parcel.payload);
        }
    }
}
