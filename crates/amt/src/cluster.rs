//! Cluster assembly: localities + fabric + counter registry.
//!
//! [`ClusterBuilder`] wires up `n` localities (each with its own worker pool,
//! inbox pump and speed factor) over a shared `network::Fabric`, and
//! [`Cluster::run`] executes a distributed program: one driver closure per
//! locality on its own thread, exactly like an SPMD `main` per node.

use crate::counters::{
    Counter, CounterRegistry, NETWORK_BYTES, NETWORK_CROSS_BYTES, NETWORK_MESSAGES,
};
use crate::locality::Locality;
use crate::network::{Fabric, NetStats};
use nlheat_netmodel::NetSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Builder for a simulated cluster.
#[derive(Default)]
pub struct ClusterBuilder {
    /// Per locality its worker threads and relative compute speed (1.0 =
    /// nominal, 0.5 = half speed).
    nodes: Vec<(usize, f64)>,
    net: NetSpec,
}

impl ClusterBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one locality with `workers` threads and relative `speed`.
    pub fn node(mut self, workers: usize, speed: f64) -> Self {
        self.nodes.push((workers, speed));
        self
    }

    /// Set the network model (default: instant delivery). The same
    /// [`NetSpec`] drives the simulator, so real and simulated runs of one
    /// configuration see identical communication cost models.
    pub fn net(mut self, spec: NetSpec) -> Self {
        self.net = spec;
        self
    }

    /// Assemble the cluster and start inbox pumps.
    ///
    /// # Panics
    /// Panics if no nodes were configured.
    pub fn build(self) -> Cluster {
        assert!(!self.nodes.is_empty(), "cluster needs at least one node");
        let n = self.nodes.len();
        let registry = Arc::new(CounterRegistry::default());
        let (fabric, receivers) = Fabric::new(n, self.net);
        let net = self.net;
        // Networking counters (the paper lists these as future work, §9),
        // polled through the same registry as the busy-time counters.
        for (name, read) in [
            (NETWORK_MESSAGES, NetStats::messages as fn(&NetStats) -> u64),
            (NETWORK_BYTES, NetStats::bytes),
            (NETWORK_CROSS_BYTES, NetStats::cross_bytes),
        ] {
            let h = fabric.handle();
            registry.register(name, Counter::gauge(move || read(h.stats())));
        }
        let mut localities = Vec::with_capacity(n);
        let mut pumps = Vec::with_capacity(n);
        let pumps_started = Arc::new(AtomicUsize::new(0));
        for (i, (&(workers, speed), rx)) in self.nodes.iter().zip(receivers).enumerate() {
            let loc = Locality::new(i as u32, workers, speed, fabric.handle(), registry.clone());
            let rendezvous = loc.rendezvous().clone();
            let started = pumps_started.clone();
            pumps.push(
                std::thread::Builder::new()
                    .name(format!("loc{i}-pump"))
                    .spawn(move || {
                        started.fetch_add(1, Ordering::Release);
                        Locality::pump(rx, rendezvous)
                    })
                    .expect("failed to spawn inbox pump"),
            );
            localities.push(loc);
        }
        Cluster {
            localities,
            fabric,
            pumps,
            pumps_started,
            registry,
            net,
        }
    }
}

/// A running simulated cluster.
pub struct Cluster {
    localities: Vec<Arc<Locality>>,
    fabric: Fabric,
    pumps: Vec<JoinHandle<()>>,
    /// Pump threads that have entered their loop.
    pumps_started: Arc<AtomicUsize>,
    registry: Arc<CounterRegistry>,
    net: NetSpec,
}

impl Cluster {
    /// Number of localities.
    pub fn len(&self) -> usize {
        self.localities.len()
    }

    /// True for a cluster of zero localities (never constructed via the
    /// builder, which rejects it).
    pub fn is_empty(&self) -> bool {
        self.localities.is_empty()
    }

    /// Locality `i`.
    pub fn locality(&self, i: usize) -> &Arc<Locality> {
        &self.localities[i]
    }

    /// All localities.
    pub fn localities(&self) -> &[Arc<Locality>] {
        &self.localities
    }

    /// Cluster-wide counter registry.
    pub fn registry(&self) -> &Arc<CounterRegistry> {
        &self.registry
    }

    /// Network traffic statistics.
    pub fn net_stats(&self) -> &NetStats {
        self.fabric.stats()
    }

    /// The network model this cluster's fabric was built with.
    pub fn net_spec(&self) -> &NetSpec {
        &self.net
    }

    /// Run a distributed program: `f` executes once per locality on its own
    /// driver thread (SPMD style); returns per-locality results in id order.
    ///
    /// The drivers start only once every worker and pump thread of the
    /// cluster is up. `build` returns while those threads are still
    /// starting, and a driver that races the tail of that start-up runs
    /// its first step against a half-started pool and — because the
    /// allocator hands its per-thread arenas out in the order threads
    /// start — puts its tiles and bundles on a different arena from one
    /// cluster to the next, while the arenas earlier drivers grew stay
    /// resident: a process that runs clusters back to back then peaks at
    /// a different size every time.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Arc<Locality>) -> R + Send + Sync,
    {
        for loc in &self.localities {
            loc.pool().wait_started();
        }
        while self.pumps_started.load(Ordering::Acquire) < self.pumps.len() {
            std::thread::yield_now();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .localities
                .iter()
                .map(|loc| {
                    let loc = loc.clone();
                    let f = &f;
                    scope.spawn(move || f(loc))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("locality driver panicked"))
                .collect()
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.fabric.shutdown();
        for p in self.pumps.drain(..) {
            let _ = p.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ClusterBuilder {
        /// Append `n` identical localities.
        pub(crate) fn uniform(mut self, n: usize, workers: usize) -> Self {
            for _ in 0..n {
                self.nodes.push((workers, 1.0));
            }
            self
        }
    }
    use crate::counters::threads_counter_name;
    use crate::parcel::tag;
    use bytes::Bytes;

    #[test]
    fn build_and_teardown() {
        let cluster = ClusterBuilder::new().uniform(3, 1).build();
        assert_eq!(cluster.len(), 3);
        drop(cluster);
    }

    #[test]
    fn parcel_roundtrip_between_localities() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let t = tag(1, 0, 0, 0);
        let fut = cluster.locality(1).expect(t);
        cluster.locality(0).send(1, t, Bytes::from_static(b"ghost"));
        assert_eq!(fut.get().as_ref(), b"ghost");
    }

    #[test]
    fn run_executes_on_every_locality() {
        let cluster = ClusterBuilder::new().uniform(4, 1).build();
        let ids = cluster.run(|loc| loc.id());
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn drivers_start_after_every_cluster_thread() {
        // (the pools' side of the gate: `pool::tests::wait_started_sees_every_worker`)
        let cluster = ClusterBuilder::new().uniform(3, 1).build();
        let pumps_up = cluster.run(|_| cluster.pumps_started.load(Ordering::Acquire));
        assert_eq!(pumps_up, vec![3; 3]);
    }

    #[test]
    fn spmd_neighbor_exchange() {
        // Every locality sends its id to the next one (mod n) and waits for
        // the one from the previous; checks the full fabric + pump path under
        // concurrent drivers.
        let n = 4u32;
        let cluster = ClusterBuilder::new().uniform(n as usize, 1).build();
        let received = cluster.run(|loc| {
            let me = loc.id();
            let from = (me + n - 1) % n;
            let to = (me + 1) % n;
            let fut = loc.expect(tag(2, 0, from as u64, 0));
            loc.send(to, tag(2, 0, me as u64, 0), Bytes::from(vec![me as u8]));
            fut.get()[0] as u32
        });
        assert_eq!(received, vec![3, 0, 1, 2]);
    }

    #[test]
    fn busy_time_counters_registered() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let name = threads_counter_name(0, "time/busy");
        assert_eq!(cluster.registry().read(&name), Some(0));
        // Run some work and observe the counter move.
        cluster.locality(0).pool().spawn(|| {
            let t0 = std::time::Instant::now();
            while t0.elapsed() < std::time::Duration::from_millis(3) {
                std::hint::spin_loop();
            }
        });
        cluster.locality(0).wait_idle();
        assert!(cluster.registry().read(&name).unwrap() > 0);
    }

    #[test]
    fn network_counters_registered_and_monotone() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let read = |name| cluster.registry().read(name).expect("registered");
        assert_eq!(read(NETWORK_MESSAGES), 0);
        cluster
            .locality(0)
            .send(1, tag(5, 0, 0, 0), Bytes::from_static(&[0; 10]));
        assert_eq!(read(NETWORK_MESSAGES), 1);
        assert_eq!(read(NETWORK_BYTES), 34);
        assert_eq!(read(NETWORK_CROSS_BYTES), 34);
        cluster.locality(0).send(0, tag(5, 0, 0, 1), Bytes::new());
        assert_eq!(read(NETWORK_MESSAGES), 2);
        assert_eq!(
            read(NETWORK_CROSS_BYTES),
            34,
            "self-send is not cross traffic"
        );
    }
}
