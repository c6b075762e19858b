//! # nlheat-amt — an asynchronous many-task runtime
//!
//! This crate is the HPX substitute for the nonlocal-solver reproduction: a
//! small asynchronous many-task (AMT) runtime providing the pieces the paper
//! relies on (§5 of Gadikar, Diehl & Jha 2021):
//!
//! * **Local control objects** — [`Promise`]/[`Future`] with blocking `get`,
//!   dataflow continuations ([`Future::then`]) and [`when_all`], mirroring
//!   `hpx::future` / `hpx::async`.
//! * **A work-stealing thread pool** — [`pool::ThreadPool`] with per-worker
//!   busy-time accounting (the raw data behind the paper's
//!   `hpx::performance_counters::busy_time`).
//! * **Performance counters** — [`counters::CounterRegistry`], a registry of
//!   named, monotone counters in the AGAS-style `/threads{locality#N}/...`
//!   naming scheme.
//! * **Localities and parcels** — simulated distributed compute nodes
//!   ([`locality::Locality`]) communicating exclusively through serialized
//!   [`parcel::Parcel`]s over an in-memory [`network::Fabric`] with an
//!   optional latency/bandwidth model.
//! * **Collectives** — [`collectives::gather`] / [`collectives::broadcast`]
//!   over those parcels: the two halves of the solver's load-balancing
//!   round (counters to locality 0 → plan there → plan to everyone).
//!
//! The distributed pieces run in a single process: each locality owns its own
//! worker pool and inbox, and all inter-locality data flows through the
//! serialize → transport → rendezvous → deserialize pipeline, so the code
//! paths match a wire transport even though the wire is a channel.
//!
//! ```
//! use nlheat_amt::prelude::*;
//!
//! let pool = ThreadPool::new(2, "demo");
//! let a = async_call(&pool.handle(), || 1 + 2);
//! let b = async_call(&pool.handle(), || 4 + 5);
//! assert_eq!(a.get() + b.get(), 12);
//! ```

pub mod cluster;
pub mod codec;
pub mod collectives;
pub mod counters;
pub mod future;
pub mod locality;
pub mod network;
pub mod parcel;
pub mod pool;
pub mod rendezvous;
pub mod task;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::cluster::{Cluster, ClusterBuilder, NodeSpec};
    pub use crate::codec::{Wire, WireError};
    pub use crate::counters::{Counter, CounterRegistry};
    pub use crate::future::{channel, ready, when_all, Future, Promise};
    pub use crate::locality::{Locality, LocalityId};
    pub use crate::network::NetStats;
    pub use crate::parcel::{tag, tag_class, Parcel, Tag};
    pub use crate::pool::{async_call, PoolHandle, ThreadPool};
    pub use crate::rendezvous::Rendezvous;
    pub use crate::task::{Spawn, Task};
    pub use nlheat_netmodel::{CommCost, LinkClass, LinkSpec, Msg, NetSpec, TopologySpec};
}

pub use prelude::*;
