//! # nlheat-netmodel — one network-cost model for both execution substrates
//!
//! The paper's evaluation depends on the real AMT runtime
//! (`nlheat_amt::network::Fabric`) and the discrete-event simulator
//! (`nlheat_sim::engine`) agreeing on how communication costs behave.
//! Historically each had its own copy-pasted latency/bandwidth arithmetic
//! (the fabric's `NetModel` struct in wall-clock `Duration`s, the
//! simulator's `SimNet`/`NicState` in virtual `f64` seconds) that drifted
//! independently. This crate is the single source of truth both consume:
//!
//! * [`NetModel`] — the trait: given the submission time of a [`Msg`],
//!   return its arrival time, mutating any internal contention state
//!   (NIC free times). All model time is **f64 seconds**; the wall-clock
//!   adapter in [`time`] is the *only* place seconds meet `Duration`.
//! * [`InstantNet`] — zero delay (unit tests, pure-numerics runs).
//! * [`ConstantBandwidthNet`] — per-message `latency + size/bandwidth`,
//!   messages independent (the fabric's historical model).
//! * [`SharedBandwidthNet`] — per-sender NIC serialization: messages from
//!   one node queue behind each other on its link (the simulator's
//!   historical `NicState` semantics, reproduced exactly — see the
//!   `shared_bandwidth_matches_legacy_nicstate` test).
//! * [`DuplexBandwidthNet`] — per-sender egress **and per-receiver
//!   ingress** serialization: the fan-in of many senders onto one
//!   receiver queues at the destination NIC, so the model exhibits
//!   incast. The only model with cross-sender contention state (the
//!   receiver queue), which transports must not shard per sender.
//! * [`TopologyNet`] — per-pair link classes (intra-node / intra-rack /
//!   inter-rack) with per-sender NIC serialization, for heterogeneous
//!   clusters built by `ClusterBuilder`.
//! * [`NetSpec`] — the serializable configuration enum `Scenario`,
//!   examples and benches all use to select a model uniformly;
//!   [`NetSpec::build`] instantiates the trait object.

use std::time::Duration;

/// Wall-clock ↔ model-time conversion. The one seam where the fabric's
/// `Instant`/`Duration` world meets the models' `f64` seconds; keeping it
/// here (and tested for round-tripping) replaces the ad-hoc
/// `Duration::from_secs_f64` calls that used to be scattered across both
/// substrates.
pub mod time {
    use super::Duration;

    /// Model seconds → wall-clock `Duration`. Negative and NaN inputs
    /// clamp to zero (a model can never schedule an arrival before its
    /// send). Positive infinity is rejected: it cannot arise from a
    /// validated [`super::NetSpec`] (see [`super::LinkSpec::validate`]),
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

/// Pure wire (serialization) time of `bytes` at `bytes_per_sec`;
/// infinite bandwidth costs nothing. The single copy of the
/// bytes-to-seconds arithmetic every model shares.
fn wire_sec(bytes: u64, bytes_per_sec: f64) -> f64 {
    if bytes_per_sec.is_infinite() {
        0.0
    } else {
        bytes as f64 / bytes_per_sec
    }
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

/// A network cost model: maps (submission time, message) to arrival time.
///
/// Implementations may keep mutable contention state (per-sender NIC free
/// times); the caller owns ordering — arrival times are only meaningful if
/// messages are submitted in a deterministic order, which both the fabric
/// (send order) and the simulator (SD id order) guarantee.
pub trait NetModel: Send {
    /// Arrival time (model seconds) of `msg` submitted at `now` seconds.
    /// Must be `>= now`.
    fn arrival(&mut self, now: f64, msg: &Msg) -> f64;

    /// Drop all contention state; the next message at time `t` sees an
    /// idle network. Used at load-balancing barriers.
    fn reset(&mut self, t: f64) {
        let _ = t;
    }

    /// True when every message arrives with zero delay — lets transports
    /// skip their delivery machinery entirely.
    fn is_instant(&self) -> bool {
        false
    }
}

/// Zero latency, infinite bandwidth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstantNet;

impl NetModel for InstantNet {
    fn arrival(&mut self, now: f64, _msg: &Msg) -> f64 {
        now
    }

    fn is_instant(&self) -> bool {
        true
    }
}

/// Per-message `latency + bytes/bandwidth`; messages never contend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantBandwidthNet {
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Link bandwidth in bytes/second; `f64::INFINITY` disables the
    /// serialization term.
    pub bytes_per_sec: f64,
}

impl ConstantBandwidthNet {
    pub fn new(latency_s: f64, bytes_per_sec: f64) -> Self {
        ConstantBandwidthNet {
            latency_s,
            bytes_per_sec,
        }
    }

    /// Stateless delay for a message of `bytes` (no contention state, so
    /// callers may use this without `&mut`).
    pub fn delay_for(&self, bytes: u64) -> f64 {
        self.latency_s + wire_sec(bytes, self.bytes_per_sec)
    }
}

impl NetModel for ConstantBandwidthNet {
    fn arrival(&mut self, now: f64, msg: &Msg) -> f64 {
        now + self.delay_for(msg.bytes)
    }

    fn is_instant(&self) -> bool {
        self.latency_s == 0.0 && self.bytes_per_sec.is_infinite()
    }
}

/// Per-sender NIC serialization: a node's outgoing messages occupy its link
/// back to back, then latency is added. This is exactly the simulator's
/// historical `NicState::send` arithmetic:
///
/// ```text
/// start   = max(now, nic_free[src])
/// done    = start + bytes / bytes_per_sec
/// nic_free[src] = done
/// arrival = done + latency
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SharedBandwidthNet {
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Per-sender link bandwidth in bytes/second.
    pub bytes_per_sec: f64,
    nic_free: Vec<f64>,
}

impl SharedBandwidthNet {
    pub fn new(latency_s: f64, bytes_per_sec: f64, n_nodes: usize) -> Self {
        SharedBandwidthNet {
            latency_s,
            bytes_per_sec,
            nic_free: vec![0.0; n_nodes],
        }
    }
}

impl NetModel for SharedBandwidthNet {
    fn arrival(&mut self, now: f64, msg: &Msg) -> f64 {
        let wire = wire_sec(msg.bytes, self.bytes_per_sec);
        let nic = &mut self.nic_free[msg.src as usize];
        let start = now.max(*nic);
        let done = start + wire;
        *nic = done;
        done + self.latency_s
    }

    fn reset(&mut self, t: f64) {
        self.nic_free.fill(t);
    }
}

/// Per-sender egress **and** per-receiver ingress serialization — the
/// incast model. A message first drains through its sender's egress NIC
/// (exactly like [`SharedBandwidthNet`]), then through the receiver's
/// ingress NIC, then latency is added:
///
/// ```text
/// sent     = max(now, tx_free[src]) + bytes/bw;   tx_free[src] = sent
/// ingested = max(sent, rx_free[dst]) + bytes/bw;  rx_free[dst] = ingested
/// arrival  = ingested + latency
/// ```
///
/// A fan-in of `k` same-sized messages onto one receiver therefore lands
/// over `k` wire times instead of one — the incast effect the per-sender
/// models cannot show. Note a single uncontended message already pays the
/// wire **twice** (egress + ingress), which is exactly what the
/// planning-grade [`CommCost`] estimate has always charged.
///
/// Unlike every other stateful model, the receiver queue is
/// **cross-sender** state: two concurrent senders to one destination
/// contend. Transports that shard model state per sender must keep this
/// model on a single shard (see [`NetSpec::has_cross_sender_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DuplexBandwidthNet {
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Per-NIC bandwidth in bytes/second (each direction).
    pub bytes_per_sec: f64,
    tx_free: Vec<f64>,
    rx_free: Vec<f64>,
}

impl DuplexBandwidthNet {
    pub fn new(latency_s: f64, bytes_per_sec: f64, n_nodes: usize) -> Self {
        DuplexBandwidthNet {
            latency_s,
            bytes_per_sec,
            tx_free: vec![0.0; n_nodes],
            rx_free: vec![0.0; n_nodes],
        }
    }
}

impl NetModel for DuplexBandwidthNet {
    fn arrival(&mut self, now: f64, msg: &Msg) -> f64 {
        let wire = wire_sec(msg.bytes, self.bytes_per_sec);
        let tx = &mut self.tx_free[msg.src as usize];
        let sent = now.max(*tx) + wire;
        *tx = sent;
        let rx = &mut self.rx_free[msg.dst as usize];
        let ingested = sent.max(*rx) + wire;
        *rx = ingested;
        ingested + self.latency_s
    }

    fn reset(&mut self, t: f64) {
        self.tx_free.fill(t);
        self.rx_free.fill(t);
    }
}

/// Latency/bandwidth of one link class in a [`TopologyNet`].
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

/// Declarative description of a [`TopologyNet`]: ranks are packed into
/// nodes (`node = rank / ranks_per_node`), nodes into racks
/// (`rack = node / nodes_per_rack`), and each src→dst pair resolves to
/// one of three link classes. The historical two-tier shape is
/// `ranks_per_node = 1` (every rank is its own node, loopback only for
/// self-sends) — the default of every constructor that predates the
/// three-tier hierarchy.
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

    /// The two-tier defaults with the full rank → node → rack hierarchy:
    /// `ranks_per_node` localities share each node's loopback link.
    pub fn three_tier(ranks_per_node: usize, nodes_per_rack: usize) -> Self {
        TopologySpec {
            ranks_per_node,
            ..TopologySpec::two_tier(nodes_per_rack)
        }
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: u32) -> usize {
        rank as usize / self.ranks_per_node.max(1)
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
/// Where [`NetModel::arrival`] answers "when does *this* message land given
/// everything already in flight" (stateful, simulation-grade), `CommCost`
/// answers "roughly how many seconds does moving `bytes` from `src` to
/// `dst` cost the system" (stateless, planning-grade). The estimate charges
/// the link latency once plus the wire time **twice** — once for the
/// sender-side serialization every model applies, once for the
/// receiver-side ingress that a migration target really pays (the tile
/// must be received and unpacked before its next task can run; the
/// [`DuplexBandwidthNet`] arrival model simulates exactly this queue).
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

    /// Derive the cost estimate from a network spec (the same value that
    /// builds the live [`NetModel`], so planner and transport agree on
    /// what the network looks like by construction).
    pub fn from_spec(spec: &NetSpec) -> Self {
        spec.validate();
        let kind = match *spec {
            NetSpec::Instant => CostKind::Free,
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
            } => {
                if latency_s == 0.0 && bytes_per_sec.is_infinite() {
                    CostKind::Free
                } else {
                    CostKind::Uniform(LinkSpec::new(latency_s, bytes_per_sec))
                }
            }
            NetSpec::Topology(spec) => CostKind::Topology(spec),
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
            CostKind::Free | CostKind::Uniform(_) => {
                if src == dst {
                    LinkClass::IntraNode
                } else {
                    LinkClass::IntraRack
                }
            }
            CostKind::Topology(spec) => spec.class(src, dst),
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
                others.sort_by(|&a, &b| {
                    self.link_class(i, a)
                        .cmp(&self.link_class(i, b))
                        .then(a.cmp(&b))
                });
                others
            })
            .collect()
    }

    /// Estimated seconds to move `bytes` from `src` to `dst`: link
    /// latency plus sender-side serialization plus receiver-side ingress
    /// (see the type docs for why ingress is charged although arrival
    /// models skip it).
    pub fn seconds(&self, src: u32, dst: u32, bytes: u64) -> f64 {
        let link = match &self.kind {
            CostKind::Free => return 0.0,
            CostKind::Uniform(link) => *link,
            CostKind::Topology(spec) => spec.link(src, dst),
        };
        link.latency_s + 2.0 * wire_sec(bytes, link.bytes_per_sec)
    }
}

/// Per-pair link classes with per-sender NIC serialization. With a single
/// link class this degenerates to [`SharedBandwidthNet`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyNet {
    spec: TopologySpec,
    nic_free: Vec<f64>,
}

impl TopologyNet {
    pub fn new(spec: TopologySpec, n_nodes: usize) -> Self {
        assert!(spec.nodes_per_rack > 0, "nodes_per_rack must be positive");
        TopologyNet {
            spec,
            nic_free: vec![0.0; n_nodes],
        }
    }

    /// The link class used between `src` and `dst`.
    pub fn link(&self, src: u32, dst: u32) -> LinkSpec {
        self.spec.link(src, dst)
    }
}

impl NetModel for TopologyNet {
    fn arrival(&mut self, now: f64, msg: &Msg) -> f64 {
        let link = self.link(msg.src, msg.dst);
        let nic = &mut self.nic_free[msg.src as usize];
        let start = now.max(*nic);
        let done = start + wire_sec(msg.bytes, link.bytes_per_sec);
        *nic = done;
        done + link.latency_s
    }

    fn reset(&mut self, t: f64) {
        self.nic_free.fill(t);
    }
}

/// Model selection shared by `Scenario`, `ClusterBuilder`, examples and
/// benches. Build a live model with [`NetSpec::build`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum NetSpec {
    /// Zero delay.
    #[default]
    Instant,
    /// [`ConstantBandwidthNet`].
    Constant { latency_s: f64, bytes_per_sec: f64 },
    /// [`SharedBandwidthNet`].
    Shared { latency_s: f64, bytes_per_sec: f64 },
    /// [`DuplexBandwidthNet`] — per-sender egress + per-receiver ingress
    /// serialization (incast).
    Duplex { latency_s: f64, bytes_per_sec: f64 },
    /// [`TopologyNet`].
    Topology(TopologySpec),
}

impl NetSpec {
    /// Representative cluster interconnect (~5 µs latency, 10 GB/s per
    /// NIC, sender-serialized) — the simulator's historical default.
    pub fn cluster() -> Self {
        NetSpec::Shared {
            latency_s: 5e-6,
            bytes_per_sec: 10e9,
        }
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

    /// True when the built model keeps contention state shared across
    /// senders (the duplex receiver queue), so transports that shard
    /// per-sender model instances must fall back to one shared instance.
    /// Per-sender-only models (shared NICs, topology egress) stay safely
    /// shardable.
    pub fn has_cross_sender_state(&self) -> bool {
        matches!(self, NetSpec::Duplex { .. }) && !self.is_instant()
    }

    /// Convenience for wall-clock call sites (the fabric's historical
    /// `NetModel::new(Duration, f64)` signature).
    pub fn constant_wall(latency: Duration, bytes_per_sec: f64) -> Self {
        NetSpec::Constant {
            latency_s: time::duration_to_secs(latency),
            bytes_per_sec,
        }
    }

    /// True when the spec builds a zero-delay model. The degenerate
    /// `Shared`/`Duplex { 0, inf }` spellings qualify too: with infinite
    /// bandwidth the NIC queues never back up, so serialization is
    /// indistinguishable from instant delivery — transports may skip their
    /// delivery-thread machinery for it.
    pub fn is_instant(&self) -> bool {
        match self {
            NetSpec::Instant => true,
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
            } => *latency_s == 0.0 && bytes_per_sec.is_infinite(),
            NetSpec::Topology(_) => false,
        }
    }

    /// The planning-grade cost estimate for this spec — see [`CommCost`].
    pub fn comm_cost(&self) -> CommCost {
        CommCost::from_spec(self)
    }

    /// Reject degenerate parameters early, with one rule for every
    /// transport that consumes this spec (the simulator via [`build`],
    /// the real fabric via its unboxed fast path).
    ///
    /// # Panics
    /// Panics on non-finite or negative latency, or zero/negative
    /// bandwidth — see [`LinkSpec::validate`].
    ///
    /// [`build`]: NetSpec::build
    pub fn validate(&self) {
        match self {
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
            } => LinkSpec::new(*latency_s, *bytes_per_sec).validate("NetSpec"),
            NetSpec::Topology(spec) => {
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
            }
            NetSpec::Instant => {}
        }
    }

    /// Instantiate the model for a cluster of `n_nodes`.
    ///
    /// # Panics
    /// Panics on degenerate parameters — see [`NetSpec::validate`].
    pub fn build(&self, n_nodes: usize) -> Box<dyn NetModel> {
        self.validate();
        if self.is_instant() {
            // Covers the degenerate `Constant`/`Shared { 0, inf }`
            // spellings: build the model that reports `is_instant()` so
            // transports skip their delivery machinery.
            return Box::new(InstantNet);
        }
        match self {
            NetSpec::Instant => Box::new(InstantNet),
            NetSpec::Constant {
                latency_s,
                bytes_per_sec,
            } => Box::new(ConstantBandwidthNet::new(*latency_s, *bytes_per_sec)),
            NetSpec::Shared {
                latency_s,
                bytes_per_sec,
            } => Box::new(SharedBandwidthNet::new(*latency_s, *bytes_per_sec, n_nodes)),
            NetSpec::Duplex {
                latency_s,
                bytes_per_sec,
            } => Box::new(DuplexBandwidthNet::new(*latency_s, *bytes_per_sec, n_nodes)),
            NetSpec::Topology(spec) => Box::new(TopologyNet::new(*spec, n_nodes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: u32, dst: u32, bytes: u64) -> Msg {
        Msg { src, dst, bytes }
    }

    #[test]
    fn instant_is_free() {
        let mut net = InstantNet;
        assert_eq!(net.arrival(3.5, &msg(0, 1, 1 << 30)), 3.5);
        assert!(net.is_instant());
    }

    #[test]
    fn constant_is_stateless() {
        let mut net = ConstantBandwidthNet::new(0.5, 100.0);
        let a1 = net.arrival(0.0, &msg(0, 1, 100)); // 1 s wire + 0.5 s latency
        let a2 = net.arrival(0.0, &msg(0, 1, 100)); // identical: no contention
        assert!((a1 - 1.5).abs() < 1e-12);
        assert_eq!(a1, a2);
    }

    #[test]
    fn constant_with_infinite_bandwidth_is_pure_latency() {
        let mut net = ConstantBandwidthNet::new(0.25, f64::INFINITY);
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
        let mut nic = SharedBandwidthNet::new(0.0, 100.0, 1); // 100 B/s
        let a1 = nic.arrival(0.0, &msg(0, 1, 100)); // 1 s wire
        let a2 = nic.arrival(0.0, &msg(0, 1, 100)); // queued behind the first
        assert!((a1 - 1.0).abs() < 1e-12);
        assert!((a2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn latency_added_after_wire() {
        let mut nic = SharedBandwidthNet::new(0.5, 100.0, 1);
        let arr = nic.arrival(1.0, &msg(0, 1, 100));
        assert!((arr - (1.0 + 1.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn nic_respects_ready_time() {
        let mut nic = SharedBandwidthNet::new(0.0, 1e9, 1);
        let arr = nic.arrival(7.0, &msg(0, 1, 8));
        assert!(arr >= 7.0);
    }

    /// The acceptance-criterion test: `SharedBandwidthNet` reproduces the
    /// old `sim::net::NicState::send` arrival times exactly. The expected
    /// values are hand-evaluated from the legacy arithmetic
    /// (`start = max(ready, free); done = start + bytes/bw; arrive = done + lat`).
    #[test]
    fn shared_bandwidth_matches_legacy_nicstate() {
        // Legacy test `nic_serializes_messages`: 100 B/s, zero latency.
        let mut net = SharedBandwidthNet::new(0.0, 100.0, 2);
        let a1 = net.arrival(0.0, &msg(0, 1, 100));
        let a2 = net.arrival(0.0, &msg(0, 1, 100));
        assert!((a1 - 1.0).abs() < 1e-12);
        assert!(
            (a2 - 2.0).abs() < 1e-12,
            "second message queues behind first"
        );

        // Legacy test `latency_added_after_wire`: 0.5 s latency, 100 B/s,
        // ready at t=1: arrive = 1 + 1 + 0.5.
        let mut net = SharedBandwidthNet::new(0.5, 100.0, 1);
        let arr = net.arrival(1.0, &msg(0, 0, 100));
        assert!((arr - 2.5).abs() < 1e-12);

        // Legacy test `nic_respects_ready_time`.
        let mut net = SharedBandwidthNet::new(0.0, 1e9, 1);
        assert!(net.arrival(7.0, &msg(0, 0, 8)) >= 7.0);

        // Interleaved senders keep independent NICs.
        let mut net = SharedBandwidthNet::new(0.0, 100.0, 2);
        let a = net.arrival(0.0, &msg(0, 1, 100));
        let b = net.arrival(0.0, &msg(1, 0, 100));
        assert_eq!(a, b, "distinct senders must not contend");
    }

    #[test]
    fn shared_reset_clears_contention() {
        let mut net = SharedBandwidthNet::new(0.0, 100.0, 1);
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
        let mut shared = SharedBandwidthNet::new(0.0, 100.0, 5);
        let mut duplex = DuplexBandwidthNet::new(0.0, 100.0, 5);
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
        let mut net = DuplexBandwidthNet::new(0.5, 100.0, 2);
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
        let mut shared = SharedBandwidthNet::new(1e-4, 1e6, 3);
        let mut duplex = DuplexBandwidthNet::new(1e-4, 1e6, 3);
        for (t, m) in traffic {
            assert!(duplex.arrival(t, &m) >= shared.arrival(t, &m));
        }
    }

    #[test]
    fn duplex_reset_clears_both_queues() {
        let mut net = DuplexBandwidthNet::new(0.0, 100.0, 2);
        let _ = net.arrival(0.0, &msg(0, 1, 10_000)); // both NICs busy
        net.reset(5.0);
        let a = net.arrival(5.0, &msg(0, 1, 100));
        assert!((a - 7.0).abs() < 1e-12, "reset must clear tx and rx: {a}");
    }

    #[test]
    fn duplex_spec_plumbs_through() {
        let spec = NetSpec::duplex(0.0, f64::INFINITY);
        assert!(spec.is_instant(), "degenerate duplex is instant");
        assert!(!spec.has_cross_sender_state(), "instant has no state");
        assert!(spec.build(4).is_instant());
        let real = NetSpec::duplex(1e-5, 1e9);
        assert!(!real.is_instant());
        assert!(real.has_cross_sender_state(), "receiver queue is shared");
        assert!(!NetSpec::cluster().has_cross_sender_state());
        assert!(!NetSpec::Topology(TopologySpec::two_tier(2)).has_cross_sender_state());
        let mut m = real.build(4);
        assert!(m.arrival(0.0, &msg(0, 3, 1000)) > 0.0);
    }

    #[test]
    fn topology_classes_resolve_by_rack() {
        let net = TopologyNet::new(TopologySpec::two_tier(2), 4);
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
    fn topology_with_one_class_matches_shared() {
        let uniform = TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 1,
            intra_node: LinkSpec::new(0.001, 1e6),
            intra_rack: LinkSpec::new(0.001, 1e6),
            inter_rack: LinkSpec::new(0.001, 1e6),
        };
        let mut topo = TopologyNet::new(uniform, 3);
        let mut shared = SharedBandwidthNet::new(0.001, 1e6, 3);
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
        let mut net = TopologyNet::new(TopologySpec::two_tier(2), 4);
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
        let spec = NetSpec::constant_wall(Duration::from_micros(500), 2e6);
        match spec {
            NetSpec::Constant { latency_s, .. } => {
                assert!((latency_s - 5e-4).abs() < 1e-15)
            }
            _ => panic!("constant_wall must build a Constant spec"),
        }
    }

    #[test]
    fn contention_ordering_instant_le_constant_le_shared() {
        // One sender pushing k messages at t=0: makespan must be monotone
        // in model contention.
        let k = 8;
        let bytes = 1_000_000;
        let last = |m: &mut dyn NetModel| {
            (0..k)
                .map(|_| m.arrival(0.0, &msg(0, 1, bytes)))
                .fold(0.0f64, f64::max)
        };
        let t_i = last(&mut InstantNet);
        let t_c = last(&mut ConstantBandwidthNet::new(1e-5, 1e9));
        let t_s = last(&mut SharedBandwidthNet::new(1e-5, 1e9, 2));
        assert!(t_i <= t_c && t_c <= t_s);
        assert!(t_s > t_c, "shared must actually queue: {t_c} vs {t_s}");
    }
}
