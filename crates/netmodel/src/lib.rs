//! # nlheat-netmodel — one network-cost model for both execution substrates
//!
//! The paper's evaluation depends on the real AMT runtime
//! (`nlheat_amt::network::Fabric`) and the discrete-event simulator
//! (`nlheat_sim::engine`) agreeing on what communication costs, and on the
//! planner scoring a transfer with the cost the transport will charge. All
//! three read this crate:
//!
//! * [`NetSpec`] — the serializable configuration enum `Scenario`,
//!   examples and benches use to select a rung. A rung is a row of data,
//!   a **link table** × a **queue discipline**:
//!
//!   | `NetSpec` | link table | a message queues in |
//!   |---|---|---|
//!   | `Instant`, and every `{0, ∞}` spelling | free | — |
//!   | `Constant` | one link for every pair | nothing |
//!   | `Shared` | one link for every pair | its sender's egress NIC |
//!   | `Duplex` | one link for every pair | sender egress, then receiver ingress (incast) |
//!   | `Topology` | intra-node / intra-rack / inter-rack by pair | its sender's egress NIC |
//!
//! * [`CommCost`] — the link table, and the planner's stateless estimate
//!   over it ([`CommCost::seconds`]).
//! * [`Net`] — the live model [`NetSpec::build`] returns: the same link
//!   table, the discipline, and one free-time slot per NIC and direction.
//!   [`Net::arrival`] maps (submission time, [`Msg`]) to an arrival time
//!   through the crate's one arrival function; [`Net::arrival_with`] runs
//!   that function on slots the caller holds (the fabric keeps each
//!   behind its own mutex).
//!
//! All model time is **f64 seconds**; the wall-clock adapter in [`time`]
//! is the *only* place seconds meet `Duration`.

use std::ops::DerefMut;

/// Wall-clock ↔ model-time conversion. The one seam where the fabric's
/// `Instant`/`Duration` world meets the models' `f64` seconds.
pub mod time {
    use std::time::Duration;

    /// Model seconds → wall-clock `Duration`. Negative and NaN inputs
    /// clamp to zero (a model can never schedule an arrival before its
    /// send). Positive infinity is rejected: it cannot arise from a
    /// validated [`super::NetSpec`] (see `LinkSpec::validate`),
    /// and clamping it in either direction would make the real fabric
    /// silently disagree with the simulator.
    ///
    /// # Panics
    /// Panics on `+inf` input.
    pub fn secs_to_duration(seconds: f64) -> Duration {
        assert_ne!(
            seconds,
            f64::INFINITY,
            "infinite model delay reached the wall-clock seam; \
             network specs must have positive bandwidth"
        );
        if seconds.is_finite() && seconds > 0.0 {
            Duration::from_secs_f64(seconds)
        } else {
            Duration::ZERO
        }
    }

    /// Wall-clock `Duration` → model seconds.
    pub fn duration_to_secs(d: Duration) -> f64 {
        d.as_secs_f64()
    }
}

/// Pure wire (serialization) time of `bytes` at `bytes_per_sec`; infinite
/// bandwidth costs nothing (`x / ∞` is `0.0`). Called from the planner's
/// estimate ([`CommCost::seconds`]) and from the one arrival function,
/// nowhere else.
fn wire_sec(bytes: u64, bytes_per_sec: f64) -> f64 {
    bytes as f64 / bytes_per_sec
}

/// A message as the network models see it: addressing plus wire size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// Sending node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Total wire size in bytes (payload + framing).
    pub bytes: u64,
}

/// Latency/bandwidth of one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    pub latency_s: f64,
    pub bytes_per_sec: f64,
}

impl LinkSpec {
    pub fn new(latency_s: f64, bytes_per_sec: f64) -> Self {
        LinkSpec {
            latency_s,
            bytes_per_sec,
        }
    }

    /// Reject degenerate parameters (the one validation both substrates
    /// share, called from [`NetSpec::build`]): latency must be finite and
    /// non-negative, bandwidth strictly positive (`f64::INFINITY` is the
    /// explicit "no serialization term" value). Zero or negative bandwidth
    /// would make `wire_sec` infinite, which the simulator would propagate
    /// into an infinite makespan while the real fabric cannot wait
    /// forever — the divergence this crate exists to prevent.
    fn validate(&self, what: &str) {
        assert!(
            self.latency_s.is_finite() && self.latency_s >= 0.0,
            "{what}: latency must be finite and non-negative, got {}",
            self.latency_s
        );
        assert!(
            self.bytes_per_sec > 0.0,
            "{what}: bandwidth must be positive (use f64::INFINITY for \
             an un-serialized link), got {}",
            self.bytes_per_sec
        );
    }
}

/// Declarative description of a rank → node → rack hierarchy: ranks are
/// packed into nodes (`node = rank / ranks_per_node`), nodes into racks
/// (`rack = node / nodes_per_rack`), and each src→dst pair resolves to
/// one of three link classes. `ranks_per_node = 1` is the two-tier shape:
/// every rank its own node, loopback only for self-sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologySpec {
    /// Ranks (localities) per node; `node(i) = i / ranks_per_node`.
    /// Co-located ranks exchange over the `intra_node` link.
    pub ranks_per_node: usize,
    /// Nodes per rack; `rack(node) = node / nodes_per_rack`.
    pub nodes_per_rack: usize,
    /// Same node (loopback / shared memory).
    pub intra_node: LinkSpec,
    /// Different nodes, same rack.
    pub intra_rack: LinkSpec,
    /// Different racks.
    pub inter_rack: LinkSpec,
}

impl TopologySpec {
    /// A representative two-tier cluster: fast loopback, 10 GB/s in-rack,
    /// 2.5 GB/s and 4x the latency across racks.
    pub fn two_tier(nodes_per_rack: usize) -> Self {
        TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack,
            intra_node: LinkSpec::new(1e-7, 50e9),
            intra_rack: LinkSpec::new(5e-6, 10e9),
            inter_rack: LinkSpec::new(2e-5, 2.5e9),
        }
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: u32) -> usize {
        rank as usize / self.ranks_per_node
    }

    /// The rack hosting `rank`.
    pub fn rack_of(&self, rank: u32) -> usize {
        self.node_of(rank) / self.nodes_per_rack
    }

    /// The link class between `src` and `dst`.
    pub fn class(&self, src: u32, dst: u32) -> LinkClass {
        if self.node_of(src) == self.node_of(dst) {
            LinkClass::IntraNode
        } else if self.rack_of(src) == self.rack_of(dst) {
            LinkClass::IntraRack
        } else {
            LinkClass::InterRack
        }
    }

    /// The [`LinkSpec`] of the `src`→`dst` link.
    pub fn link(&self, src: u32, dst: u32) -> LinkSpec {
        match self.class(src, dst) {
            LinkClass::IntraNode => self.intra_node,
            LinkClass::IntraRack => self.intra_rack,
            LinkClass::InterRack => self.inter_rack,
        }
    }
}

/// The class of link a message traverses, ordered by distance. Uniform
/// (rack-less) models report [`LinkClass::IntraNode`] for self-sends and
/// [`LinkClass::IntraRack`] for everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkClass {
    /// Loopback on one node.
    IntraNode = 0,
    /// Different nodes on the same rack (or any uniform interconnect).
    IntraRack = 1,
    /// Across racks.
    InterRack = 2,
}

/// Number of [`LinkClass`] variants — the length of per-class byte/cost
/// accumulators such as `PlanComm::bytes_by_class`.
pub const N_LINK_CLASSES: usize = 3;

/// Estimated transfer cost of a message, derivable from any [`NetSpec`] —
/// the planner-facing face of the network layer.
///
/// Where [`Net::arrival`] answers "when does *this* message land given
/// everything already in flight" (stateful, simulation-grade), `CommCost`
/// answers "roughly how many seconds does moving `bytes` from `src` to
/// `dst` cost the system" (stateless, planning-grade). The estimate charges
/// the link latency once plus the wire time **twice** — once for the
/// sender-side serialization every model applies, once for the
/// receiver-side ingress that a migration target really pays (the tile
/// must be received and unpacked before its next task can run; the
/// [`NetSpec::Duplex`] arrival model simulates exactly this queue).
/// Contention is deliberately ignored: a rebalancing plan cannot know
/// what else will occupy the NICs when it executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCost {
    kind: CostKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum CostKind {
    /// Zero cost everywhere (the [`NetSpec::Instant`] degenerate case).
    Free,
    /// One link class for every pair (constant / shared models).
    Uniform(LinkSpec),
    /// Per-pair link classes.
    Topology(TopologySpec),
}

impl CommCost {
    /// The zero-cost model: every transfer is free. This is the planner's
    /// default — cost-aware balancing with a free network degenerates to
    /// the count-based Algorithm 1.
    pub fn free() -> Self {
        CommCost {
            kind: CostKind::Free,
        }
    }

    /// Derive the link table from a network spec. The live [`Net`] holds
    /// this same value, so planner and transport agree on what the network
    /// looks like by construction.
    pub fn from_spec(spec: &NetSpec) -> Self {
        spec.validate();
        let kind = match (*spec, spec.uniform_link()) {
            (NetSpec::Topology(topo), _) => CostKind::Topology(topo),
            (_, Some(link)) if !spec.is_instant() => CostKind::Uniform(link),
            _ => CostKind::Free,
        };
        CommCost { kind }
    }

    /// True when every transfer costs zero seconds (λ-weighted terms all
    /// vanish, so cost-aware planning is inert).
    pub fn is_free(&self) -> bool {
        matches!(self.kind, CostKind::Free)
    }

    /// The rank → node → rack hierarchy behind this estimate, when the
    /// underlying spec declares one — what hierarchical planners group
    /// by. `None` for free/uniform models (no rack structure to exploit).
    pub fn topology_spec(&self) -> Option<TopologySpec> {
        match self.kind {
            CostKind::Topology(spec) => Some(spec),
            CostKind::Free | CostKind::Uniform(_) => None,
        }
    }

    /// The link class used between `src` and `dst`.
    pub fn link_class(&self, src: u32, dst: u32) -> LinkClass {
        match &self.kind {
            CostKind::Topology(spec) => spec.class(src, dst),
            _ if src == dst => LinkClass::IntraNode,
            _ => LinkClass::IntraRack,
        }
    }

    /// The neighbour graph induced by the link classes — the graph the
    /// policy layer (diffusion, greedy stealing) exchanges load over. For
    /// each node, every *other* node ordered cheapest link class first
    /// (ties by id), so intra-rack partners rank before inter-rack ones.
    /// Uniform and free models degenerate to plain id order, which matches
    /// the count-based tie-breaks of the tree planner.
    pub fn neighbour_graph(&self, n_nodes: u32) -> Vec<Vec<u32>> {
        (0..n_nodes)
            .map(|i| {
                let mut others: Vec<u32> = (0..n_nodes).filter(|&j| j != i).collect();
                others.sort_by_key(|&j| (self.link_class(i, j), j));
                others
            })
            .collect()
    }

    /// The table lookup: the link a `src`→`dst` message crosses, `None`
    /// when every transfer is free.
    fn link(&self, src: u32, dst: u32) -> Option<LinkSpec> {
        match &self.kind {
            CostKind::Free => None,
            CostKind::Uniform(link) => Some(*link),
            CostKind::Topology(spec) => Some(spec.link(src, dst)),
        }
    }

    /// Estimated seconds to move `bytes` from `src` to `dst`: link
    /// latency plus sender-side serialization plus receiver-side ingress
    /// (see the type docs for why ingress is charged although most arrival
    /// rungs skip it).
    pub fn seconds(&self, src: u32, dst: u32, bytes: u64) -> f64 {
        self.link(src, dst).map_or(0.0, |link| {
            link.latency_s + 2.0 * wire_sec(bytes, link.bytes_per_sec)
        })
    }
}

/// Which NIC queues a message waits in — the second half of a rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Queues {
    /// Messages are independent.
    None,
    /// A node's outgoing messages occupy its link back to back.
    Egress,
    /// Egress, then the receiver's ingress NIC: a fan-in of `k` same-sized
    /// messages onto one receiver lands over `k` wire times instead of
    /// one, and a lone message already pays the wire twice — what
    /// [`CommCost::seconds`] charges.
    EgressIngress,
}

/// The live network model: maps (submission time, message) to arrival
/// time over a link table, a queue discipline and one free-time slot per
/// NIC and direction. Arrival times are only meaningful if messages are
/// submitted in a deterministic order, which the simulator (SD id order)
/// guarantees and the fabric (send order) approximates.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    links: CommCost,
    queues: Queues,
    /// When each rank's egress NIC is next free.
    tx_free: Vec<f64>,
    /// When each rank's ingress NIC is next free.
    rx_free: Vec<f64>,
}

impl Net {
    /// Arrival time (model seconds, `>= now`) of `msg` submitted at `now`.
    pub fn arrival(&mut self, now: f64, msg: &Msg) -> f64 {
        arrive(
            &self.links,
            self.queues,
            now,
            msg,
            || &mut self.tx_free[msg.src as usize],
            || &mut self.rx_free[msg.dst as usize],
        )
    }

    /// [`Net::arrival`] on slots the caller holds instead of this model's
    /// own: `egress()` yields the sender's egress slot and `ingress()` the
    /// receiver's ingress slot, each called only if the rung queues there
    /// and `egress` first, its slot still held while `ingress` runs — so a
    /// concurrent caller hands in lock acquisitions and a send locks
    /// exactly what it mutates.
    pub fn arrival_with<S: DerefMut<Target = f64>>(
        &self,
        now: f64,
        msg: &Msg,
        egress: impl FnOnce() -> S,
        ingress: impl FnOnce() -> S,
    ) -> f64 {
        arrive(&self.links, self.queues, now, msg, egress, ingress)
    }

    /// Drop all contention state; the next message at time `t` sees an
    /// idle network. Used at load-balancing barriers.
    pub fn reset(&mut self, t: f64) {
        self.tx_free.fill(t);
        self.rx_free.fill(t);
    }

    /// True when every message arrives with zero delay — lets transports
    /// skip their delivery machinery entirely.
    pub fn is_instant(&self) -> bool {
        self.links.is_free()
    }
}

/// The one arrival function:
///
/// ```text
/// Queues::None            arrival = now + (latency + wire)
/// Queues::Egress          sent = max(now, tx) + wire;  tx = sent
///                         arrival = sent + latency
/// Queues::EgressIngress   sent as above
///                         ingested = max(sent, rx) + wire;  rx = ingested
///                         arrival = ingested + latency
/// ```
///
/// and `now` itself on a free link table. The association of each sum is
/// pinned bit for bit by `tests::arrival_bits_match_the_table_recorded_at_
/// the_parent`.
fn arrive<S: DerefMut<Target = f64>>(
    links: &CommCost,
    queues: Queues,
    now: f64,
    msg: &Msg,
    egress: impl FnOnce() -> S,
    ingress: impl FnOnce() -> S,
) -> f64 {
    let Some(link) = links.link(msg.src, msg.dst) else {
        return now;
    };
    let wire = wire_sec(msg.bytes, link.bytes_per_sec);
    if queues == Queues::None {
        return now + (link.latency_s + wire);
    }
    let mut tx = egress();
    let sent = now.max(*tx) + wire;
    *tx = sent;
    if queues == Queues::Egress {
        return sent + link.latency_s;
    }
    let mut rx = ingress();
    let ingested = sent.max(*rx) + wire;
    *rx = ingested;
    ingested + link.latency_s
}

/// Rung selection shared by `Scenario`, `ClusterBuilder`, examples and
/// benches — see the crate docs for the table. Build the live model with
/// [`NetSpec::build`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum NetSpec {
    /// Zero delay.
    #[default]
    Instant,
    /// Per-message `latency + bytes/bandwidth`; messages never contend.
    Constant { latency_s: f64, bytes_per_sec: f64 },
    /// Per-sender NIC serialization: a node's outgoing messages occupy its
    /// link back to back, then latency is added.
    Shared { latency_s: f64, bytes_per_sec: f64 },
    /// Per-sender egress + per-receiver ingress serialization (incast).
    Duplex { latency_s: f64, bytes_per_sec: f64 },
    /// Per-pair link classes with per-sender NIC serialization.
    Topology(TopologySpec),
}

impl NetSpec {
    /// Representative cluster interconnect (~5 µs latency, 10 GB/s per
    /// NIC, sender-serialized) — the simulator's historical default.
    pub fn cluster() -> Self {
        NetSpec::shared(5e-6, 10e9)
    }

    /// Per-message independent latency/bandwidth model.
    pub fn constant(latency_s: f64, bytes_per_sec: f64) -> Self {
        NetSpec::Constant {
            latency_s,
            bytes_per_sec,
        }
    }

    /// Per-sender serialized latency/bandwidth model.
    pub fn shared(latency_s: f64, bytes_per_sec: f64) -> Self {
        NetSpec::Shared {
            latency_s,
            bytes_per_sec,
        }
    }

    /// Sender-egress + receiver-ingress serialized model (incast-capable).
    pub fn duplex(latency_s: f64, bytes_per_sec: f64) -> Self {
        NetSpec::Duplex {
            latency_s,
            bytes_per_sec,
        }
    }

    /// The one link of the rack-less rungs.
    fn uniform_link(&self) -> Option<LinkSpec> {
        match *self {
            NetSpec::Constant {
                latency_s,
                bytes_per_sec,
            }
            | NetSpec::Shared {
                latency_s,
                bytes_per_sec,
            }
            | NetSpec::Duplex {
                latency_s,
                bytes_per_sec,
            } => Some(LinkSpec::new(latency_s, bytes_per_sec)),
            NetSpec::Instant | NetSpec::Topology(_) => None,
        }
    }

    /// True when the spec builds a zero-delay model. The degenerate
    /// `Shared`/`Duplex { 0, inf }` spellings qualify too: with infinite
    /// bandwidth the NIC queues never back up, so serialization is
    /// indistinguishable from instant delivery — transports may skip their
    /// delivery-thread machinery for it.
    pub fn is_instant(&self) -> bool {
        match self.uniform_link() {
            Some(link) => link.latency_s == 0.0 && link.bytes_per_sec.is_infinite(),
            None => matches!(self, NetSpec::Instant),
        }
    }

    /// The planning-grade cost estimate for this spec — see [`CommCost`].
    pub fn comm_cost(&self) -> CommCost {
        CommCost::from_spec(self)
    }

    /// Reject degenerate parameters early, with one rule for everything
    /// that consumes this spec ([`NetSpec::build`] for both transports,
    /// [`CommCost::from_spec`] for the planner).
    ///
    /// # Panics
    /// Panics on non-finite or negative latency, zero/negative bandwidth
    /// (see `LinkSpec::validate`), or a [`TopologySpec`] with an empty
    /// node or rack.
    pub fn validate(&self) {
        if let NetSpec::Topology(spec) = self {
            assert!(
                spec.ranks_per_node >= 1,
                "TopologySpec.ranks_per_node must be at least 1"
            );
            assert!(
                spec.nodes_per_rack >= 1,
                "TopologySpec.nodes_per_rack must be at least 1"
            );
            spec.intra_node.validate("TopologySpec.intra_node");
            spec.intra_rack.validate("TopologySpec.intra_rack");
            spec.inter_rack.validate("TopologySpec.inter_rack");
        } else if let Some(link) = self.uniform_link() {
            link.validate("NetSpec");
        }
    }

    /// Instantiate the model for a cluster of `n_nodes`. An instant spec
    /// (any spelling) builds the free link table, so the model reports
    /// [`Net::is_instant`].
    ///
    /// # Panics
    /// Panics on degenerate parameters — see [`NetSpec::validate`].
    pub fn build(&self, n_nodes: usize) -> Net {
        let queues = match self {
            NetSpec::Instant | NetSpec::Constant { .. } => Queues::None,
            NetSpec::Shared { .. } | NetSpec::Topology(_) => Queues::Egress,
            NetSpec::Duplex { .. } => Queues::EgressIngress,
        };
        Net {
            links: self.comm_cost(),
            queues,
            tx_free: vec![0.0; n_nodes],
            rx_free: vec![0.0; n_nodes],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    impl TopologySpec {
        /// The two-tier defaults with the full rank → node → rack
        /// hierarchy: `ranks_per_node` localities share each node's
        /// loopback link.
        fn three_tier(ranks_per_node: usize, nodes_per_rack: usize) -> Self {
            TopologySpec {
                ranks_per_node,
                ..TopologySpec::two_tier(nodes_per_rack)
            }
        }
    }

    fn msg(src: u32, dst: u32, bytes: u64) -> Msg {
        Msg { src, dst, bytes }
    }

    #[test]
    fn instant_is_free() {
        let mut net = NetSpec::Instant.build(2);
        assert_eq!(net.arrival(3.5, &msg(0, 1, 1 << 30)), 3.5);
        assert!(net.is_instant());
    }

    #[test]
    fn constant_is_stateless() {
        let mut net = NetSpec::constant(0.5, 100.0).build(2);
        let a1 = net.arrival(0.0, &msg(0, 1, 100)); // 1 s wire + 0.5 s latency
        let a2 = net.arrival(0.0, &msg(0, 1, 100)); // identical: no contention
        assert!((a1 - 1.5).abs() < 1e-12);
        assert_eq!(a1, a2);
    }

    #[test]
    fn constant_with_infinite_bandwidth_is_pure_latency() {
        let mut net = NetSpec::constant(0.25, f64::INFINITY).build(2);
        assert!((net.arrival(1.0, &msg(0, 1, 1 << 40)) - 1.25).abs() < 1e-12);
    }

    // The simulator's legacy `NicState` suite, moved here with its numbers
    // unchanged when `nlheat_sim::net` (by then only re-exports) was dropped.

    #[test]
    fn wire_time_linear_in_bytes() {
        let mut net = NetSpec::cluster().build(2);
        // 10 GB at 10 GB/s = 1 s of wire time (+5 µs latency).
        let a = net.arrival(0.0, &msg(0, 1, 10_000_000_000));
        assert!((a - (1.0 + 5e-6)).abs() < 1e-9);
    }

    #[test]
    fn nic_serializes_messages() {
        let mut nic = NetSpec::shared(0.0, 100.0).build(1); // 100 B/s
        let a1 = nic.arrival(0.0, &msg(0, 1, 100)); // 1 s wire
        let a2 = nic.arrival(0.0, &msg(0, 1, 100)); // queued behind the first
        assert!((a1 - 1.0).abs() < 1e-12);
        assert!((a2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn latency_added_after_wire() {
        let mut nic = NetSpec::shared(0.5, 100.0).build(1);
        let arr = nic.arrival(1.0, &msg(0, 1, 100));
        assert!((arr - (1.0 + 1.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn nic_respects_ready_time() {
        let mut nic = NetSpec::shared(0.0, 1e9).build(1);
        let arr = nic.arrival(7.0, &msg(0, 1, 8));
        assert!(arr >= 7.0);
    }

    /// The `Shared` rung reproduces the simulator's old
    /// `sim::net::NicState::send` arrival times exactly. The expected
    /// values are hand-evaluated from the legacy arithmetic
    /// (`start = max(ready, free); done = start + bytes/bw; arrive = done + lat`).
    #[test]
    fn shared_bandwidth_matches_legacy_nicstate() {
        // Legacy test `nic_serializes_messages`: 100 B/s, zero latency.
        let mut net = NetSpec::shared(0.0, 100.0).build(2);
        let a1 = net.arrival(0.0, &msg(0, 1, 100));
        let a2 = net.arrival(0.0, &msg(0, 1, 100));
        assert!((a1 - 1.0).abs() < 1e-12);
        assert!(
            (a2 - 2.0).abs() < 1e-12,
            "second message queues behind first"
        );

        // Legacy test `latency_added_after_wire`: 0.5 s latency, 100 B/s,
        // ready at t=1: arrive = 1 + 1 + 0.5.
        let mut net = NetSpec::shared(0.5, 100.0).build(1);
        let arr = net.arrival(1.0, &msg(0, 0, 100));
        assert!((arr - 2.5).abs() < 1e-12);

        // Legacy test `nic_respects_ready_time`.
        let mut net = NetSpec::shared(0.0, 1e9).build(1);
        assert!(net.arrival(7.0, &msg(0, 0, 8)) >= 7.0);

        // Interleaved senders keep independent NICs.
        let mut net = NetSpec::shared(0.0, 100.0).build(2);
        let a = net.arrival(0.0, &msg(0, 1, 100));
        let b = net.arrival(0.0, &msg(1, 0, 100));
        assert_eq!(a, b, "distinct senders must not contend");
    }

    #[test]
    fn shared_reset_clears_contention() {
        let mut net = NetSpec::shared(0.0, 100.0).build(1);
        let _ = net.arrival(0.0, &msg(0, 0, 10_000)); // NIC busy until t=100
        net.reset(5.0);
        let a = net.arrival(5.0, &msg(0, 0, 100));
        assert!((a - 6.0).abs() < 1e-12, "reset must clear the queue: {a}");
    }

    #[test]
    fn duplex_exhibits_incast() {
        // Four senders firing one 100-byte message each at the same
        // receiver: per-sender models deliver them all after one wire
        // time, the duplex model's receiver NIC drains them one at a time.
        let wire = 1.0; // 100 B at 100 B/s
        let mut shared = NetSpec::shared(0.0, 100.0).build(5);
        let mut duplex = NetSpec::duplex(0.0, 100.0).build(5);
        let shared_last = (0..4)
            .map(|s| shared.arrival(0.0, &msg(s, 4, 100)))
            .fold(0.0f64, f64::max);
        let duplex_last = (0..4)
            .map(|s| duplex.arrival(0.0, &msg(s, 4, 100)))
            .fold(0.0f64, f64::max);
        assert!(
            (shared_last - wire).abs() < 1e-12,
            "independent egress NICs"
        );
        // 1 wire of egress (parallel) + 4 wires of serialized ingress
        assert!(
            (duplex_last - 5.0 * wire).abs() < 1e-12,
            "incast must serialize at the receiver: {duplex_last}"
        );
    }

    #[test]
    fn duplex_single_message_charges_wire_twice() {
        // Matches the CommCost planning estimate: latency + 2x wire.
        let mut net = NetSpec::duplex(0.5, 100.0).build(2);
        let arr = net.arrival(0.0, &msg(0, 1, 100));
        assert!(
            (arr - 2.5).abs() < 1e-12,
            "egress + ingress + latency: {arr}"
        );
        let cost = NetSpec::duplex(0.5, 100.0).comm_cost();
        assert!((cost.seconds(0, 1, 100) - arr).abs() < 1e-12);
    }

    #[test]
    fn duplex_dominates_shared() {
        // Same parameters, same traffic: the duplex model can only be
        // slower — the ladder instant <= constant <= shared <= duplex.
        let traffic = [
            (0.0, msg(0, 2, 5_000)),
            (0.0, msg(1, 2, 9_000)),
            (0.01, msg(0, 1, 123)),
            (0.02, msg(1, 2, 7_777)),
        ];
        let mut shared = NetSpec::shared(1e-4, 1e6).build(3);
        let mut duplex = NetSpec::duplex(1e-4, 1e6).build(3);
        for (t, m) in traffic {
            assert!(duplex.arrival(t, &m) >= shared.arrival(t, &m));
        }
    }

    #[test]
    fn duplex_reset_clears_both_queues() {
        let mut net = NetSpec::duplex(0.0, 100.0).build(2);
        let _ = net.arrival(0.0, &msg(0, 1, 10_000)); // both NICs busy
        net.reset(5.0);
        let a = net.arrival(5.0, &msg(0, 1, 100));
        assert!((a - 7.0).abs() < 1e-12, "reset must clear tx and rx: {a}");
    }

    #[test]
    fn duplex_spec_plumbs_through() {
        let spec = NetSpec::duplex(0.0, f64::INFINITY);
        assert!(spec.is_instant(), "degenerate duplex is instant");
        assert!(spec.build(4).is_instant());
        let real = NetSpec::duplex(1e-5, 1e9);
        assert!(!real.is_instant());
        let mut m = real.build(4);
        assert!(m.arrival(0.0, &msg(0, 3, 1000)) > 0.0);
    }

    #[test]
    fn topology_classes_resolve_by_rack() {
        let net = TopologySpec::two_tier(2);
        assert_eq!(net.link(0, 0), net.link(3, 3), "loopback class");
        assert_eq!(net.link(0, 1).latency_s, net.link(2, 3).latency_s);
        assert!(net.link(0, 2).latency_s > net.link(0, 1).latency_s);
        assert!(net.link(0, 2).bytes_per_sec < net.link(0, 1).bytes_per_sec);
    }

    #[test]
    fn three_tier_packs_ranks_into_nodes_and_racks() {
        // 4 ranks per node, 2 nodes per rack: ranks 0-7 fill rack 0.
        let spec = TopologySpec::three_tier(4, 2);
        assert_eq!(spec.node_of(0), 0);
        assert_eq!(spec.node_of(3), 0);
        assert_eq!(spec.node_of(4), 1);
        assert_eq!(spec.rack_of(7), 0);
        assert_eq!(spec.rack_of(8), 1);
        assert_eq!(spec.class(0, 3), LinkClass::IntraNode);
        assert_eq!(spec.class(0, 4), LinkClass::IntraRack);
        assert_eq!(spec.class(0, 8), LinkClass::InterRack);
        // two_tier is the ranks_per_node = 1 degenerate case: distinct
        // ranks are never intra-node.
        let flat = TopologySpec::two_tier(2);
        assert_eq!(flat.class(0, 0), LinkClass::IntraNode);
        assert_eq!(flat.class(0, 1), LinkClass::IntraRack);
        assert_eq!(flat.class(0, 2), LinkClass::InterRack);
        assert_eq!(TopologySpec::three_tier(1, 2), flat);
    }

    #[test]
    fn comm_cost_exposes_its_topology_spec() {
        let spec = TopologySpec::three_tier(4, 25);
        let cost = NetSpec::Topology(spec).comm_cost();
        assert_eq!(cost.topology_spec(), Some(spec));
        assert_eq!(NetSpec::cluster().comm_cost().topology_spec(), None);
        assert_eq!(NetSpec::Instant.comm_cost().topology_spec(), None);
    }

    #[test]
    #[should_panic(expected = "ranks_per_node must be at least 1")]
    fn zero_ranks_per_node_is_rejected() {
        let mut spec = TopologySpec::two_tier(2);
        spec.ranks_per_node = 0;
        NetSpec::Topology(spec).validate();
    }

    #[test]
    #[should_panic(expected = "nodes_per_rack must be at least 1")]
    fn zero_nodes_per_rack_is_rejected() {
        let _ = NetSpec::Topology(TopologySpec::two_tier(0)).build(4);
    }

    #[test]
    fn topology_with_one_class_matches_shared() {
        let uniform = TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 1,
            intra_node: LinkSpec::new(0.001, 1e6),
            intra_rack: LinkSpec::new(0.001, 1e6),
            inter_rack: LinkSpec::new(0.001, 1e6),
        };
        let mut topo = NetSpec::Topology(uniform).build(3);
        let mut shared = NetSpec::shared(0.001, 1e6).build(3);
        for (t, m) in [
            (0.0, msg(0, 1, 5_000)),
            (0.0, msg(0, 2, 9_000)),
            (0.001, msg(1, 0, 123)),
            (0.5, msg(0, 1, 77)),
        ] {
            assert_eq!(topo.arrival(t, &m), shared.arrival(t, &m));
        }
    }

    #[test]
    fn topology_serializes_on_the_sender_nic() {
        let mut net = NetSpec::Topology(TopologySpec::two_tier(2)).build(4);
        let a1 = net.arrival(0.0, &msg(0, 2, 1 << 20));
        let a2 = net.arrival(0.0, &msg(0, 3, 1 << 20));
        assert!(a2 > a1, "same sender must serialize: {a1} vs {a2}");
    }

    #[test]
    fn spec_builds_the_right_model() {
        assert!(NetSpec::Instant.build(4).is_instant());
        assert!(NetSpec::constant(0.0, f64::INFINITY).is_instant());
        assert!(!NetSpec::cluster().build(4).is_instant());
        let mut m = NetSpec::Topology(TopologySpec::two_tier(2)).build(4);
        assert!(m.arrival(0.0, &msg(0, 3, 1000)) > 0.0);
    }

    #[test]
    fn degenerate_shared_spec_is_instant() {
        // The `Shared { 0, inf }` spelling always yields arrival == now;
        // both the spec-level predicate and the built model must say so.
        let spec = NetSpec::shared(0.0, f64::INFINITY);
        assert!(spec.is_instant());
        let mut m = spec.build(4);
        assert!(m.is_instant());
        assert_eq!(m.arrival(2.5, &msg(0, 1, 1 << 30)), 2.5);
        // a shared spec with any real latency or finite bandwidth is not
        assert!(!NetSpec::shared(1e-9, f64::INFINITY).is_instant());
        assert!(!NetSpec::shared(0.0, 1e12).is_instant());
    }

    #[test]
    fn comm_cost_free_for_instant_spellings() {
        for spec in [
            NetSpec::Instant,
            NetSpec::constant(0.0, f64::INFINITY),
            NetSpec::shared(0.0, f64::INFINITY),
        ] {
            let cost = spec.comm_cost();
            assert!(cost.is_free(), "{spec:?}");
            assert_eq!(cost.seconds(0, 3, 1 << 30), 0.0);
        }
        assert!(!NetSpec::cluster().comm_cost().is_free());
    }

    #[test]
    fn comm_cost_charges_latency_plus_double_wire() {
        // 100 B/s, 0.5 s latency: 100 bytes cost 0.5 + 2 * 1.0 s — the
        // wire time is charged at both the sender (serialization) and the
        // receiver (ingress).
        let cost = NetSpec::shared(0.5, 100.0).comm_cost();
        assert!((cost.seconds(0, 1, 100) - 2.5).abs() < 1e-12);
        // infinite bandwidth leaves only the latency term
        let lat = NetSpec::constant(0.25, f64::INFINITY).comm_cost();
        assert!((lat.seconds(0, 1, 1 << 40) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn comm_cost_resolves_topology_link_classes() {
        let spec = TopologySpec::two_tier(2);
        let cost = NetSpec::Topology(spec).comm_cost();
        assert_eq!(cost.link_class(0, 0), LinkClass::IntraNode);
        assert_eq!(cost.link_class(0, 1), LinkClass::IntraRack);
        assert_eq!(cost.link_class(0, 2), LinkClass::InterRack);
        assert_eq!(cost.link_class(2, 1), LinkClass::InterRack);
        // inter-rack strictly costlier than intra-rack, which beats loopback
        let b = 1 << 20;
        assert!(cost.seconds(0, 2, b) > cost.seconds(0, 1, b));
        assert!(cost.seconds(0, 1, b) > cost.seconds(0, 0, b));
        // and the estimate agrees with the spec's own link resolution
        let link = spec.link(0, 2);
        let expect = link.latency_s + 2.0 * (b as f64 / link.bytes_per_sec);
        assert!((cost.seconds(0, 2, b) - expect).abs() < 1e-15);
    }

    #[test]
    fn neighbour_graph_ranks_cheap_links_first() {
        // 2 racks x 2 nodes: node 1's cheapest partner is its rack peer 0,
        // then the inter-rack nodes 2 and 3 in id order.
        let topo = NetSpec::Topology(TopologySpec::two_tier(2)).comm_cost();
        let graph = topo.neighbour_graph(4);
        assert_eq!(graph[1], vec![0, 2, 3]);
        assert_eq!(graph[2], vec![3, 0, 1]);
        assert_eq!(graph.len(), 4);
        // every node lists every other node exactly once
        for (i, nbs) in graph.iter().enumerate() {
            let mut sorted = nbs.clone();
            sorted.sort_unstable();
            let expect: Vec<u32> = (0..4).filter(|&j| j != i as u32).collect();
            assert_eq!(sorted, expect);
        }
        // uniform models degenerate to plain id order
        let flat = NetSpec::cluster().comm_cost().neighbour_graph(3);
        assert_eq!(flat, vec![vec![1, 2], vec![0, 2], vec![0, 1]]);
    }

    #[test]
    fn comm_cost_uniform_models_classify_by_self_send() {
        let cost = NetSpec::cluster().comm_cost();
        assert_eq!(cost.link_class(3, 3), LinkClass::IntraNode);
        assert_eq!(cost.link_class(0, 7), LinkClass::IntraRack);
        // uniform models still charge self-sends (the fabric routes them
        // through the same NIC); only Instant is free
        assert!(cost.seconds(3, 3, 1000) > 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_spec_rejected() {
        let _ = NetSpec::constant(0.1, 0.0).build(2);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn negative_bandwidth_topology_rejected() {
        let mut spec = TopologySpec::two_tier(2);
        spec.inter_rack = LinkSpec::new(1e-5, -1.0);
        let _ = NetSpec::Topology(spec).build(4);
    }

    #[test]
    #[should_panic(expected = "latency must be finite")]
    fn nan_latency_rejected() {
        let _ = NetSpec::shared(f64::NAN, 1e9).build(2);
    }

    #[test]
    #[should_panic(expected = "infinite model delay")]
    fn infinite_delay_rejected_at_the_wall_clock_seam() {
        let _ = time::secs_to_duration(f64::INFINITY);
    }

    #[test]
    fn wall_clock_adapter_round_trips() {
        for s in [0.0, 1e-9, 5e-6, 0.001, 1.5, 3600.0] {
            let d = time::secs_to_duration(s);
            let back = time::duration_to_secs(d);
            assert!(
                (back - s).abs() <= 1e-12 * s.max(1.0),
                "round-trip {s} -> {back}"
            );
        }
        assert_eq!(time::secs_to_duration(-1.0), Duration::ZERO);
        assert_eq!(time::secs_to_duration(f64::NAN), Duration::ZERO);
    }

    /// The two-rack spec of `nlheat_core::scenario::library::two_rack_net`,
    /// spelled out because this crate sits below `core`.
    fn two_rack_net() -> NetSpec {
        NetSpec::Topology(TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 2,
            intra_node: LinkSpec::new(1e-7, 5e9),
            intra_rack: LinkSpec::new(1e-4, 1e8),
            inter_rack: LinkSpec::new(4e-4, 2.5e7),
        })
    }

    /// One fixed 72-message sequence over 4 ranks: 40 seeded messages of
    /// mixed sizes (submission times not monotone, as the simulator's SD
    /// order is not), then a burst from one sender, a three-way fan-in
    /// onto rank 3, a self-send and a zero-byte message. Returns the
    /// arrival bits; the queues are reset half-way.
    fn pinned_arrival_bits(spec: NetSpec) -> Vec<u64> {
        let mut seq = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        for i in 0..40u64 {
            let now = i as f64 * 2.5e-4 + next(1000) as f64 * 1e-6;
            let src = next(4) as u32;
            let dst = ((u64::from(src) + 1 + next(3)) % 4) as u32;
            let bytes = [0, 520, 4_976, 65_536, 1_498_896][next(5) as usize] + next(97);
            seq.push((now, msg(src, dst, bytes)));
        }
        let t = 0.0125;
        seq.extend((0..12).map(|k| (t, msg(1, (k % 3 + 2) % 4, 10_000 + 777 * k as u64))));
        seq.extend((0..9).map(|k| (t + 1e-3, msg(k % 3, 3, 32_768))));
        seq.extend((0..9).map(|k| (t + 1e-3 + k as f64 * 1e-5, msg(k % 3, 3, 100 + k as u64))));
        seq.push((t + 2e-3, msg(2, 2, 123_456)));
        seq.push((t + 2e-3, msg(0, 1, 0)));
        assert_eq!(seq.len(), 72);
        let mut net = spec.build(4);
        seq.iter()
            .enumerate()
            .map(|(i, (now, m))| {
                if i == 36 {
                    net.reset(*now);
                }
                net.arrival(*now, m).to_bits()
            })
            .collect()
    }

    /// Arrival times of [`pinned_arrival_bits`] per rung, recorded at the
    /// commit before the five model structs became one `Net` (PR 23's
    /// parent). A mismatch prints the whole table; re-record only for an
    /// intended change of the arithmetic.
    #[rustfmt::skip]
    const ARRIVAL_PIN: [(&str, [u64; 72]); 5] = [
        (
            "constant",
            [
                0x3f5bd9b00a1e66f4, 0x3f4b9b1112f7d463, 0x3f56db63be6b6020, 0x3f6121d0e02cd0ee,
                0x3f917d8a44670d2a, 0x3f574f51f7c47236, 0x3f626f68ee80fc94, 0x3f63b8089a834e7f,
                0x3f922efaea417ccd, 0x3f929c9e86be4aa9, 0x3f700d613c85ed3f, 0x3f92501617ef5ff5,
                0x3f6a40b37969a35d, 0x3f6dc659c11182b5, 0x3f6f40575e0acd38, 0x3f714e2902d8a26d,
                0x3f72d90311018510, 0x3f7591a2296020a7, 0x3f7628bbb5f920bf, 0x3f94b658ed011fbb,
                0x3f765915450ba2cb, 0x3f790baf8b9e5948, 0x3f7a93ea83161f7c, 0x3f7a9699b4f2658e,
                0x3f7b02f5d3ac3a05, 0x3f7de59e7fdd5ae5, 0x3f80deb7b0dbd57f, 0x3f7caf9380fbbdfc,
                0x3f7d4c39139ceadd, 0x3f7e3dc32f143fa9, 0x3f7fe0680a2a7b54, 0x3f8115b4723800cd,
                0x3f82dc1da2a83615, 0x3f826c5d206c8712, 0x3f81dacf99dbb3c6, 0x3f857c9551e14932,
                0x3f834f986ea14865, 0x3f8433ba97960941, 0x3f83c70c996b7671, 0x3f843883ffff5434,
                0x3f8a027525460aa7, 0x3f8a06880470d2fc, 0x3f8a0a9ae39b9b52, 0x3f8a0eadc2c663a8,
                0x3f8a12c0a1f12bfd, 0x3f8a16d3811bf453, 0x3f8a1ae66046bca8, 0x3f8a1ef93f7184fe,
                0x3f8a230c1e9c4d54, 0x3f8a271efdc715a9, 0x3f8a2b31dcf1ddff, 0x3f8a2f44bc1ca654,
                0x3f8c861d90df8bc2, 0x3f8c861d90df8bc2, 0x3f8c861d90df8bc2, 0x3f8c861d90df8bc2,
                0x3f8c861d90df8bc2, 0x3f8c861d90df8bc2, 0x3f8c861d90df8bc2, 0x3f8c861d90df8bc2,
                0x3f8c861d90df8bc2, 0x3f8bdad7518b0d10, 0x3f8be016d686340d, 0x3f8be5565b815b0a,
                0x3f8bea95e07c8208, 0x3f8befd56577a905, 0x3f8bf514ea72d002, 0x3f8bfa546f6df6ff,
                0x3f8bff93f4691dfd, 0x3f8c04d3796444fa, 0x3f9036ef5562ddf1, 0x3f8de69ad42c3c9f,
            ],
        ),
        (
            "shared",
            [
                0x3f5bd9b00a1e66f3, 0x3f5bf096ab7d9cb9, 0x3f56db63be6b6021, 0x3f6121d0e02cd0ee,
                0x3f917d8a44670d2a, 0x3f574f51f7c47236, 0x3f626f68ee80fc94, 0x3f917d904e973cc8,
                0x3f922efaea417ccd, 0x3f929c9e86be4aa9, 0x3f9348969cba0a7d, 0x3fa0c435fa62dd1a,
                0x3f917dbdf0e6dd6f, 0x3fa0c4f28dd18f54, 0x3f918acffd2de89b, 0x3f714e2902d8a26e,
                0x3f72d90311018511, 0x3f9355a751682786, 0x3f7628bbb5f920bf, 0x3fa157938fbf5038,
                0x3fa1585e90da026b, 0x3fa15f026ef022be, 0x3fa165a8506ba845, 0x3f7a9699b4f2658e,
                0x3fa165bd1e2e1364, 0x3fa11af0464e98ea, 0x3fa1bbc2e440b1cc, 0x3fa1218abf363648,
                0x3f7d4c39139ceade, 0x3f7e3dc32f143fa9, 0x3fa12824e237981d, 0x3fa12eb8a5228ecb,
                0x3f82dc1da2a83614, 0x3f918c51dd6d58f3, 0x3f9199760844f2f8, 0x3f92454de7ea5f84,
                0x3f834f986ea14865, 0x3f8433ba97960941, 0x3f83c70c996b7670, 0x3f843883ffff5433,
                0x3f8a027525460aa6, 0x3f8a3af5ca470b82, 0x3f8a77894e72d4b4, 0x3f8ab82fb1c9663b,
                0x3f8afce8f44ac018, 0x3f8b45b515f6e24a, 0x3f8b929416cdccd2, 0x3f8be385f6cf7fb0,
                0x3f8c388ab5fbfae3, 0x3f8c91a254533e6c, 0x3f8ceeccd1d54a4a, 0x3f8d500a2e821e7e,
                0x3f8c861d90df8bc2, 0x3f8dfbd6a593a2e0, 0x3f8c861d90df8bc2, 0x3f8d31ea07f11024,
                0x3f8ea7a31ca52742, 0x3f8d31ea07f11024, 0x3f8dddb67f029486, 0x3f8f536f93b6aba4,
                0x3f8dddb67f029486, 0x3f8dde3cb6bf9a35, 0x3f8f53f7230c9f76, 0x3f8dde3f65f1767b,
                0x3f8ddec6f5476a4e, 0x3f8f5482b92d5db2, 0x3f8ddecc53ab22da, 0x3f8ddf553a9a04d0,
                0x3f8f55125618e657, 0x3f8ddf5d482f99a2, 0x3f9036ef5562ddf1, 0x3f8de69ad42c3c9f,
            ],
        ),
        (
            "duplex",
            [
                0x3f634c42ceb1a95a, 0x3f6357b61f61443d, 0x3f57ad70bbffcafd, 0x3f68b81d3d529bd9,
                0x3fa06b77f32bb134, 0x3f57c56e89a07d3a, 0x3f6921ca2a302a3f, 0x3fa06b7af843c903,
                0x3fa81829c2712938, 0x3fa0fb061b221a5d, 0x3fa15102261ffa47, 0x3fafc4e247b347ec,
                0x3fa15118f747ca9b, 0x3fa151d58ab67cd5, 0x3fafcb6b4dd6cd82, 0x3f715460d557e0bd,
                0x3f72dec4c6eee755, 0x3f9362b80616448f, 0x3f765d1960a42fa1, 0x3fa9045376ca8cac,
                0x3fa1592991f4b49e, 0x3fa90af754e0acff, 0x3fa16c4e31e72dcc, 0x3fa90b00ba0f2ff4,
                0x3fa16c62ffa998eb, 0x3fa1c260b826a281, 0x3fa211c8aa535034, 0x3fafd205c6be6ae0,
                0x3fafd2c762aa9a1e, 0x3fa90b04c0d9fa5d, 0x3fafd96185abfbf3, 0x3fafdff54896f2a1,
                0x3fb01af6d15821d5, 0x3fb01b574967fdeb, 0x3fb01ea0541de46c, 0x3fa267b49a26067a,
                0x3f834fade8302a96, 0x3f8433e183e90339, 0x3f83e1437c5692b3, 0x3f8438bc5f1665f2,
                0x3f8a36e2eb1c432c, 0x3f8a73766f480c5e, 0x3f8ab41cd29e9de6, 0x3f8af8d6151ff7c2,
                0x3f8b41a236cc19f5, 0x3f8b8e8137a3047c, 0x3f8bdf7317a4b75a, 0x3f8c3477d6d1328e,
                0x3f8c8d8f75287616, 0x3f8ceab9f2aa81f5, 0x3f8d4bf74f575628, 0x3f8db1478b2ef2b2,
                0x3f8df7c3c668da8a, 0x3f8ea7a31ca52742, 0x3f8f536f93b6aba4, 0x3f8fff3c0ac83006,
                0x3f90558440ecda34, 0x3f90ab6a7c759c65, 0x3f910150b7fe5e96, 0x3f915736f38720c7,
                0x3f91ad1d2f0fe2f8, 0x3f91ad604aee65d0, 0x3f91ada412995fb9, 0x3f91ade88610d0b4,
                0x3f91ae2da554b8c0, 0x3f91ae73706517de, 0x3f91aeb9e741ee0d, 0x3f91af0109eb3b4e,
                0x3f91af48d860ffa0, 0x3f91af9152a33b04, 0x3f917a9140af9d92, 0x3f8de69ad42c3c9f,
            ],
        ),
        (
            "two_rack",
            [
                0x3f70401ed4009db5, 0x3f705705755fd37a, 0x3f5e3bd5433ded4b, 0x3f71dc15c005bf07,
                0x3fb05ed5f9465274, 0x3f5c8195ecbbd584, 0x3f72af6f99c0dbd3, 0x3fb05edc03768212,
                0x3f922efaea417ccd, 0x3fb03de30f845768, 0x3fb0e9db2580173c, 0x3fa0c435fa62dd1a,
                0x3fb04b3e41da150a, 0x3fa0ee7a9c7e5067, 0x3fb06bf978517568, 0x3f717b14c93ac6fc,
                0x3f7424dad5ceff01, 0x3fb0f6ebda2e3445, 0x3f78006758ffa08b, 0x3fb4b9a2a3837d4d,
                0x3fb4cee1cfe936e5, 0x3fb4be8a94c3f1dc, 0x3fb4df7f81eb521d, 0x3f7bd20dd453ffb2,
                0x3fb4dfa91d70285b, 0x3fa246717e7276bf, 0x3fb58bb4a995652b, 0x3fa225b9a2f969b9,
                0x3f7e98f254c6abcc, 0x3f7f78b6751c8ca9, 0x3fa22c53c5facb8e, 0x3fa232e788e5c23c,
                0x3f87810b2d5aac1e, 0x3fb06d7b5890e5c0, 0x3fb07a9f83687fc5, 0x3fb091ec512185b6,
                0x3f83ed222cd09889, 0x3f8433ba97960941, 0x3f84b2fa93af74cd, 0x3f84d6766ec73305,
                0x3f8b3d07c84b5dcc, 0x3f8c1f0a5c4f613c, 0x3f8bbe548ef880db, 0x3f8d5e376dd5708b,
                0x3f8e711c77dad7fe, 0x3f8e1c9f4804509d, 0x3f8fed649ce2a450, 0x3f9098960e74b7e4,
                0x3f907473c549a0b4, 0x3f917547aab97c8f, 0x3f922f9ca5bd944c, 0x3f921196ab52a99c,
                0x3f8f26cc4796c27a, 0x3f93b7d44237072a, 0x3f8c861d90df8bc2, 0x3f90eaff11ee6a01,
                0x3f950f6d305a0fee, 0x3f8d31ea07f11024, 0x3f924298001172c5, 0x3f9667061e7d18b2,
                0x3f8dddb67f029486, 0x3f9243a46f8b7e24, 0x3f9668153d290057, 0x3f8dde3f65f1767b,
                0x3f9244b8ec9b1e55, 0x3f96692c696a7cce, 0x3f8ddecc53ab22da, 0x3f9245d577405358,
                0x3f966a4ba3418e17, 0x3f8ddf5d482f99a2, 0x3f8dbf2c797b5921, 0x3f91f730ce7efe8e,
            ],
        ),
        (
            "three_tier",
            [
                0x3f4f4fce40e295ae, 0x3f4f5043818d72ea, 0x3f547cfb02892a07, 0x3f560fe539fbdb4b,
                0x3f6194446415d0b7, 0x3f55a91c1bff09ed, 0x3f613f8fcc8c1640, 0x3f62f09e081f5080,
                0x3f661a47f62a108f, 0x3f6a8ca6af105536, 0x3f6a9a689c57ac3d, 0x3f6722860204317e,
                0x3f696dc5ba63b080, 0x3f6cf373f9a3a4c9, 0x3f6e1197ee4defda, 0x3f70df33aba2e164,
                0x3f726fb2b97cee25, 0x3f74fa47c226fa97, 0x3f759146bb858f93, 0x3f752a13653cb9a8,
                0x3f75ef301b731a76, 0x3f786deb19dbcaa0, 0x3f79fba63f747e0f, 0x3f7a32b1ed9e34a6,
                0x3f7a9eb3b15e368b, 0x3f7ad8f476aa9956, 0x3f7eb08590c581f8, 0x3f7c121a1231a733,
                0x3f7ce29e530e5b3d, 0x3f7dda05ecea53bb, 0x3f7f42f1493268d3, 0x3f80c71285072038,
                0x3f8155dde0a3f7ca, 0x3f8237926877e391, 0x3f8237d5b101522b, 0x3f83f13530673cad,
                0x3f831db47ce709cf, 0x3f83ff336553e005, 0x3f837b4a2339c0ec, 0x3f84067d8212bd93,
                0x3f899cbee807bbb6, 0x3f899d4f8d852eeb, 0x3f899adce6a68cce, 0x3f899e14125caa1e,
                0x3f899ec4011b65e5, 0x3f899c579c169f19, 0x3f899fae110e04fb, 0x3f89a07d490e0954,
                0x3f899e1725e31dd8, 0x3f89a18ce41bcc4c, 0x3f89a27b655d1937, 0x3f89a01b840c090b,
                0x3f8baa3a38a688c3, 0x3f8baa3a38a688c3, 0x3f8ba648b5f0a21e, 0x3f8babf206a4263f,
                0x3f8babf206a4263f, 0x3f8ba6a0abf02804, 0x3f8bada9d4a1c3bb, 0x3f8bada9d4a1c3bb,
                0x3f8ba6f8a1efadea, 0x3f8badab2c3ab1de, 0x3f8badc1f313ae3f, 0x3f8bb06d60cd958b,
                0x3f8bb83e54b757eb, 0x3f8bbd7c85892cc0, 0x3f8bc027eb040417, 0x3f8bc7f8e72cd66a,
                0x3f8bcd3717feab41, 0x3f8bcfe2753a72a3, 0x3f8db385e0a0856e, 0x3f8db23a7a4f5177,
            ],
        ),
    ];

    #[test]
    fn arrival_bits_match_the_table_recorded_at_the_parent() {
        let rungs = [
            ("constant", NetSpec::constant(1e-4, 1e8)),
            ("shared", NetSpec::shared(1e-4, 1e8)),
            ("duplex", NetSpec::duplex(1e-4, 1e8)),
            ("two_rack", two_rack_net()),
            (
                "three_tier",
                NetSpec::Topology(TopologySpec::three_tier(2, 2)),
            ),
        ];
        let got: Vec<(&str, Vec<u64>)> = rungs
            .iter()
            .map(|&(name, spec)| (name, pinned_arrival_bits(spec)))
            .collect();
        let same = got.len() == ARRIVAL_PIN.len()
            && got
                .iter()
                .zip(&ARRIVAL_PIN)
                .all(|((n, bits), (pn, pin))| n == pn && bits[..] == pin[..]);
        if !same {
            for (name, bits) in &got {
                println!("        (\n            {name:?},\n            [");
                for row in bits.chunks(4) {
                    let row: Vec<String> = row.iter().map(|b| format!("{b:#018x}")).collect();
                    println!("                {},", row.join(", "));
                }
                println!("            ],\n        ),");
            }
            panic!("arrival bits moved; the table above is what this build computes");
        }
    }

    #[test]
    fn contention_ordering_instant_le_constant_le_shared() {
        // One sender pushing k messages at t=0: makespan must be monotone
        // in model contention.
        let k = 8;
        let bytes = 1_000_000;
        let last = |spec: NetSpec| {
            let mut m = spec.build(2);
            (0..k)
                .map(|_| m.arrival(0.0, &msg(0, 1, bytes)))
                .fold(0.0f64, f64::max)
        };
        let t_i = last(NetSpec::Instant);
        let t_c = last(NetSpec::constant(1e-5, 1e9));
        let t_s = last(NetSpec::shared(1e-5, 1e9));
        assert!(t_i <= t_c && t_c <= t_s);
        assert!(t_s > t_c, "shared must actually queue: {t_c} vs {t_s}");
    }
}
