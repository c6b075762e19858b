//! In-memory network fabric driven by the shared [`Net`] model.
//!
//! Every inter-locality parcel flows through a `Fabric`. The delivery
//! schedule comes from the `nlheat-netmodel` crate — the arrival function
//! the discrete-event simulator calls — so communication behaviour agrees
//! between the real runtime and the simulator by construction. With an
//! instant [`NetSpec`] parcels are forwarded synchronously; any other rung
//! routes parcels through a delivery thread that releases each one at the
//! arrival time the model computed. Model time is f64 seconds anchored at
//! fabric creation; the [`nlheat_netmodel::time`] adapter is the single
//! seam converting to wall-clock `Instant`s.
//!
//! Locks on the send path: the NIC slots the rung queues in, one mutex per
//! rank and direction — none for `Constant`, the sender's egress slot for
//! `Shared`/`Topology`, the sender's egress then the receiver's ingress
//! slot for `Duplex` (an egress lock is never awaited while an ingress
//! lock is held) — and then `delay_tx`, which every delayed send takes.

use crate::parcel::{LocalityId, Parcel};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use nlheat_netmodel::{time as nettime, Msg, Net, NetSpec};
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Aggregate traffic statistics (message and byte totals plus a
/// source×destination byte matrix).
pub struct NetStats {
    n: usize,
    msgs: AtomicU64,
    bytes: AtomicU64,
    /// Row-major `src × dst` byte matrix. Pure statistics (they publish
    /// no other data), so writers and readers use relaxed operations and
    /// the send path of every locality stays free of shared locks.
    pair_bytes: Vec<AtomicU64>,
}

impl NetStats {
    fn new(n: usize) -> Self {
        NetStats {
            n,
            msgs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            pair_bytes: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, src: LocalityId, dst: LocalityId, bytes: usize) {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.pair_bytes[src as usize * self.n + dst as usize]
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.msgs.load(Ordering::Relaxed)
    }

    /// Total bytes sent (wire size including headers).
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Bytes sent from `src` to `dst`.
    pub fn pair_bytes(&self, src: LocalityId, dst: LocalityId) -> u64 {
        self.pair_bytes[src as usize * self.n + dst as usize].load(Ordering::Relaxed)
    }

    /// Bytes crossing locality boundaries (excludes self-sends).
    pub fn cross_bytes(&self) -> u64 {
        self.pair_bytes
            .iter()
            .enumerate()
            .filter(|(i, _)| i / self.n != i % self.n)
            .map(|(_, b)| b.load(Ordering::Relaxed))
            .sum()
    }
}

struct FabricInner {
    links: RwLock<Vec<Option<Sender<Parcel>>>>,
    /// Built without slots of its own: the fabric holds each rank's egress
    /// and ingress free-time behind its own mutex.
    net: Net,
    egress_free: Vec<Mutex<f64>>,
    ingress_free: Vec<Mutex<f64>>,
    /// Model-time origin: model second 0.0 == this instant.
    epoch: Instant,
    stats: NetStats,
    delay_tx: Mutex<Option<Sender<(Instant, Parcel)>>>,
}

impl FabricInner {
    fn forward(&self, parcel: Parcel) {
        let links = self.links.read();
        if let Some(Some(tx)) = links.get(parcel.dst as usize) {
            // A receiver that already shut down just drops the parcel.
            let _ = tx.send(parcel);
        }
    }
}

/// The cluster-wide transport. Owns the (optional) delivery thread.
pub(crate) struct Fabric {
    inner: Arc<FabricInner>,
    delay_thread: Option<JoinHandle<()>>,
}

/// Cheap per-locality sending handle.
#[derive(Clone)]
pub(crate) struct FabricHandle {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// Create a fabric for `n` localities over the network model described
    /// by `spec`; returns the fabric and one inbox receiver per locality.
    pub(crate) fn new(n: usize, spec: NetSpec) -> (Self, Vec<Receiver<Parcel>>) {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(Some(tx));
            receivers.push(rx);
        }
        // Validates the spec: a degenerate one fails here, at cluster
        // construction, not later on a driver thread mid-send.
        let net = spec.build(0);
        let nic_slots = || (0..n).map(|_| Mutex::new(0.0)).collect();
        let inner = Arc::new(FabricInner {
            links: RwLock::new(senders),
            net,
            egress_free: nic_slots(),
            ingress_free: nic_slots(),
            epoch: Instant::now(),
            stats: NetStats::new(n),
            delay_tx: Mutex::new(None),
        });
        let delay_thread = if inner.net.is_instant() {
            None
        } else {
            let (tx, rx) = unbounded();
            *inner.delay_tx.lock() = Some(tx);
            let inner2 = inner.clone();
            Some(
                std::thread::Builder::new()
                    .name("amt-net-delay".into())
                    .spawn(move || delay_loop(inner2, rx))
                    .expect("failed to spawn network delay thread"),
            )
        };
        (
            Fabric {
                inner,
                delay_thread,
            },
            receivers,
        )
    }

    /// Sending handle to share with localities.
    pub(crate) fn handle(&self) -> FabricHandle {
        FabricHandle {
            inner: self.inner.clone(),
        }
    }

    /// Traffic statistics.
    pub(crate) fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// Tear down: close all links (inbox pumps observe disconnect) and stop
    /// the delivery thread after it drains in-flight parcels.
    pub(crate) fn shutdown(&mut self) {
        self.inner.delay_tx.lock().take();
        if let Some(t) = self.delay_thread.take() {
            let _ = t.join();
        }
        let mut links = self.inner.links.write();
        for l in links.iter_mut() {
            l.take();
        }
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl FabricHandle {
    /// Send a parcel, subject to the network model. Self-sends are legal and
    /// take the same path (so code need not special-case them).
    pub(crate) fn send(&self, parcel: Parcel) {
        self.inner
            .stats
            .record(parcel.src, parcel.dst, parcel.wire_size());
        if self.inner.net.is_instant() {
            self.inner.forward(parcel);
            return;
        }
        // One seam between wall-clock and model time: `now` in model
        // seconds since the fabric epoch, arrival mapped back to an Instant.
        let now_s = nettime::duration_to_secs(self.inner.epoch.elapsed());
        let msg = Msg {
            src: parcel.src,
            dst: parcel.dst,
            bytes: parcel.wire_size() as u64,
        };
        let arrival_s = self.inner.net.arrival_with(
            now_s,
            &msg,
            || self.inner.egress_free[msg.src as usize].lock(),
            || self.inner.ingress_free[msg.dst as usize].lock(),
        );
        if arrival_s <= now_s {
            self.inner.forward(parcel);
            return;
        }
        let deliver_at = self.inner.epoch + nettime::secs_to_duration(arrival_s);
        let guard = self.inner.delay_tx.lock();
        // A `None` here means the fabric already shut down; the parcel
        // is dropped, like a packet into a closed socket.
        if let Some(tx) = &*guard {
            let _ = tx.send((deliver_at, parcel));
        }
    }

    /// Traffic statistics.
    pub(crate) fn stats(&self) -> &NetStats {
        &self.inner.stats
    }
}

struct Delayed {
    at: Instant,
    seq: u64,
    parcel: Parcel,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

fn delay_loop(inner: Arc<FabricInner>, rx: Receiver<(Instant, Parcel)>) {
    let mut heap: BinaryHeap<Reverse<Delayed>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut disconnected = false;
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(d)| d.at <= now) {
            let Reverse(d) = heap.pop().unwrap();
            inner.forward(d.parcel);
        }
        match heap.peek() {
            None if disconnected => break,
            None => match rx.recv() {
                Ok((at, parcel)) => {
                    heap.push(Reverse(Delayed { at, seq, parcel }));
                    seq += 1;
                }
                Err(_) => disconnected = true,
            },
            Some(Reverse(next)) => {
                let wait = next.at.saturating_duration_since(Instant::now());
                if disconnected {
                    std::thread::sleep(wait);
                    continue;
                }
                match rx.recv_timeout(wait) {
                    Ok((at, parcel)) => {
                        heap.push(Reverse(Delayed { at, seq, parcel }));
                        seq += 1;
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => disconnected = true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nlheat_netmodel::TopologySpec;
    use std::time::Duration;

    #[test]
    fn instant_fabric_delivers_synchronously() {
        let (fabric, rx) = Fabric::new(2, NetSpec::Instant);
        let h = fabric.handle();
        h.send(Parcel::new(0, 1, 42, Bytes::from_static(b"x")));
        let p = rx[1].try_recv().expect("delivered synchronously");
        assert_eq!(p.tag, 42);
        assert_eq!(fabric.stats().messages(), 1);
    }

    #[test]
    fn zero_delay_constant_spec_takes_the_instant_path() {
        // `NetSpec::constant(0, inf)` is recognised as instant: no delivery
        // thread is spawned and sends forward synchronously.
        let (fabric, rx) = Fabric::new(2, NetSpec::constant(0.0, f64::INFINITY));
        assert!(fabric.delay_thread.is_none());
        fabric.handle().send(Parcel::new(0, 1, 3, Bytes::new()));
        assert!(rx[1].try_recv().is_ok());
    }

    #[test]
    fn zero_delay_shared_spec_takes_the_instant_path() {
        // The degenerate `Shared { 0, inf }` spelling always yields
        // arrival == now; it must skip the delivery-thread machinery like
        // its Instant/Constant siblings instead of paying a model lock and
        // heap traversal per parcel.
        let (fabric, rx) = Fabric::new(2, NetSpec::shared(0.0, f64::INFINITY));
        assert!(fabric.delay_thread.is_none());
        fabric.handle().send(Parcel::new(0, 1, 5, Bytes::new()));
        assert!(rx[1].try_recv().is_ok(), "delivered synchronously");
    }

    #[test]
    fn sharded_senders_do_not_contend() {
        // Two senders push a ~100 ms-wire parcel each at the same time;
        // the per-sender NIC shards must keep them independent, so both
        // arrive ~100 ms after t0 rather than serializing to ~200 ms. The
        // wire time is deliberately large so the assert's slack (60 ms)
        // dwarfs thread-spawn and timer-wakeup jitter on a loaded runner
        // while staying far below the serialized case.
        let (fabric, rx) = Fabric::new(3, NetSpec::shared(0.0, 50_000.0));
        let t0 = Instant::now();
        let h0 = fabric.handle();
        let h1 = fabric.handle();
        let s0 = std::thread::spawn(move || {
            h0.send(Parcel::new(0, 2, 0, Bytes::from_static(&[0; 4976])));
        });
        let s1 = std::thread::spawn(move || {
            h1.send(Parcel::new(1, 2, 1, Bytes::from_static(&[0; 4976])));
        });
        s0.join().unwrap();
        s1.join().unwrap();
        let a = rx[2]
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        let b = rx[2]
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        assert_ne!(a.tag, b.tag);
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(160),
            "distinct senders must not serialize: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn sharded_sender_still_serializes_its_own_parcels() {
        // Sharding must not lose per-sender NIC semantics: one sender's
        // parcels still queue behind each other, and the sharded stateful
        // path agrees with a single freestanding model instance.
        let spec = NetSpec::shared(0.0, 50_000.0);
        let (fabric, rx) = Fabric::new(2, spec);
        let t0 = Instant::now();
        let h = fabric.handle();
        h.send(Parcel::new(0, 1, 0, Bytes::from_static(&[0; 476])));
        h.send(Parcel::new(0, 1, 1, Bytes::from_static(&[0; 476])));
        let _ = rx[1]
            .recv_timeout(std::time::Duration::from_secs(2))
            .unwrap();
        let second = rx[1]
            .recv_timeout(std::time::Duration::from_secs(2))
            .unwrap();
        assert_eq!(second.tag, 1);
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(19),
            "same-sender parcels must still queue: {:?}",
            t0.elapsed()
        );
    }

    /// Two senders released together, one 5000-byte parcel (100 ms of wire
    /// at 50 kB/s) each to rank 2; returns when the two deliveries landed,
    /// measured from just before the sends.
    fn fan_in_delivery_times(spec: NetSpec) -> [Duration; 2] {
        let (fabric, rx) = Fabric::new(3, spec);
        let go = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for src in 0..2 {
                let (h, go) = (fabric.handle(), &go);
                s.spawn(move || {
                    go.wait();
                    h.send(Parcel::new(src, 2, 0, Bytes::from_static(&[0; 4976])));
                });
            }
            let t0 = Instant::now();
            go.wait();
            [(); 2].map(|()| {
                rx[2].recv_timeout(Duration::from_secs(5)).unwrap();
                t0.elapsed()
            })
        })
    }

    #[test]
    fn duplex_fan_in_queues_at_the_receiver_and_shared_does_not() {
        // Duplex: both parcels leave their own egress NIC after one wire
        // time, then drain through rank 2's ingress NIC one after the
        // other — model arrivals at 2 and 3 wire times. Deliveries are
        // never early, so the second bound is exact; the gap allows the
        // first delivery 40 ms of wake-up jitter.
        let wire = Duration::from_millis(100);
        let [first, second] = fan_in_delivery_times(NetSpec::duplex(0.0, 50_000.0));
        assert!(
            second >= 3 * wire && second - first >= wire - Duration::from_millis(40),
            "incast must serialize on the receiver's ingress NIC: {first:?}, {second:?}"
        );
        // Shared: no ingress queue, both land one wire time after the send.
        let [first, second] = fan_in_delivery_times(NetSpec::shared(0.0, 50_000.0));
        assert!(
            second < 2 * wire,
            "sender-side queues only: {first:?}, {second:?}"
        );
    }

    #[test]
    fn self_send_works() {
        let (fabric, rx) = Fabric::new(1, NetSpec::Instant);
        fabric.handle().send(Parcel::new(0, 0, 1, Bytes::new()));
        assert!(rx[0].try_recv().is_ok());
    }

    #[test]
    fn delayed_fabric_respects_latency() {
        let model = NetSpec::constant(20e-3, f64::INFINITY);
        let (fabric, rx) = Fabric::new(2, model);
        let t0 = Instant::now();
        fabric.handle().send(Parcel::new(0, 1, 7, Bytes::new()));
        assert!(rx[1].try_recv().is_err(), "must not arrive immediately");
        let p = rx[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(p.tag, 7);
        assert!(t0.elapsed() >= Duration::from_millis(19));
    }

    #[test]
    fn shared_model_serializes_senders_on_the_wire() {
        // Two 500-byte parcels at 50 kB/s: ~10 ms each, serialized on the
        // sender NIC, so the second arrives ~20 ms after the first send.
        let (fabric, rx) = Fabric::new(2, NetSpec::shared(0.0, 50_000.0));
        let t0 = Instant::now();
        let h = fabric.handle();
        h.send(Parcel::new(0, 1, 0, Bytes::from_static(&[0; 476])));
        h.send(Parcel::new(0, 1, 1, Bytes::from_static(&[0; 476])));
        let _ = rx[1].recv_timeout(Duration::from_secs(2)).unwrap();
        let second = rx[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(second.tag, 1);
        assert!(
            t0.elapsed() >= Duration::from_millis(19),
            "second parcel must queue behind the first: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn topology_model_distinguishes_rack_pairs() {
        // Racks of 2: 0→1 is intra-rack (fast), 0→2 inter-rack (slow).
        let spec = NetSpec::Topology(TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 2,
            intra_node: nlheat_netmodel::LinkSpec::new(0.0, f64::INFINITY),
            intra_rack: nlheat_netmodel::LinkSpec::new(1e-3, f64::INFINITY),
            inter_rack: nlheat_netmodel::LinkSpec::new(40e-3, f64::INFINITY),
        });
        let (fabric, rx) = Fabric::new(4, spec);
        let h = fabric.handle();
        let t0 = Instant::now();
        h.send(Parcel::new(0, 2, 9, Bytes::new()));
        h.send(Parcel::new(0, 1, 8, Bytes::new()));
        let fast = rx[1].recv_timeout(Duration::from_secs(2)).unwrap();
        let fast_at = t0.elapsed();
        let slow = rx[2].recv_timeout(Duration::from_secs(2)).unwrap();
        let slow_at = t0.elapsed();
        assert_eq!(fast.tag, 8);
        assert_eq!(slow.tag, 9);
        assert!(
            slow_at >= Duration::from_millis(39) && fast_at < slow_at,
            "inter-rack must be slower: intra {fast_at:?} vs inter {slow_at:?}"
        );
    }

    #[test]
    fn bandwidth_term_increases_delay() {
        let mut model = NetSpec::constant(1e-3, 1_000_000.0).build(2);
        let msg = |bytes| Msg {
            src: 0,
            dst: 1,
            bytes,
        };
        // 500 kB at 1 MB/s ≈ 0.5 s; a zero-byte message still pays latency.
        assert!(model.arrival(0.0, &msg(500_000)) > 0.4);
        assert!(model.arrival(0.0, &msg(0)) >= 1e-3);
    }

    #[test]
    fn stats_track_pairs_and_cross_traffic() {
        let (fabric, _rx) = Fabric::new(3, NetSpec::Instant);
        let h = fabric.handle();
        h.send(Parcel::new(0, 1, 0, Bytes::from_static(&[0; 10])));
        h.send(Parcel::new(0, 1, 1, Bytes::from_static(&[0; 10])));
        h.send(Parcel::new(2, 2, 2, Bytes::from_static(&[0; 10])));
        assert_eq!(fabric.stats().messages(), 3);
        assert_eq!(fabric.stats().pair_bytes(0, 1), 2 * 34);
        assert_eq!(fabric.stats().cross_bytes(), 2 * 34);
    }

    #[test]
    fn shutdown_drains_in_flight_parcels() {
        let model = NetSpec::constant(10e-3, f64::INFINITY);
        let (mut fabric, rx) = Fabric::new(2, model);
        fabric.handle().send(Parcel::new(0, 1, 9, Bytes::new()));
        fabric.shutdown();
        // The delay thread sleeps out remaining deliveries before exiting,
        // and shutdown joins it, so the parcel must be in the inbox now.
        assert!(rx[1].try_recv().is_ok());
    }

    #[test]
    fn ordering_preserved_per_pair_with_equal_sizes() {
        let model = NetSpec::constant(5e-3, f64::INFINITY);
        let (fabric, rx) = Fabric::new(2, model);
        let h = fabric.handle();
        for i in 0..20u64 {
            h.send(Parcel::new(0, 1, i, Bytes::new()));
        }
        let mut tags = Vec::new();
        for _ in 0..20 {
            tags.push(rx[1].recv_timeout(Duration::from_secs(2)).unwrap().tag);
        }
        assert_eq!(tags, (0..20u64).collect::<Vec<_>>());
    }
}
