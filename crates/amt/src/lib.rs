//! # nlheat-amt — an asynchronous many-task runtime
//!
//! This crate is the HPX substitute for the nonlocal-solver reproduction: a
//! small asynchronous many-task (AMT) runtime providing the pieces the paper
//! relies on (§5 of Gadikar, Diehl & Jha 2021):
//!
//! * **Local control objects** — `Promise`/[`Future`] with blocking `get`,
//!   dataflow continuations ([`Future::then`]) and [`when_all`], mirroring
//!   `hpx::future` / `hpx::async`.
//! * **A work-stealing thread pool** — [`pool::ThreadPool`] with scoped
//!   jobs ([`pool::PoolHandle::scope`], the fork-join shape of HPX's
//!   `define_task_block`) and per-worker busy-time accounting (the raw
//!   data behind the paper's `hpx::performance_counters::busy_time`).
//! * **Performance counters** — [`counters::CounterRegistry`], a registry of
//!   named, monotone counters in the AGAS-style `/threads{locality#N}/...`
//!   naming scheme.
//! * **Localities and parcels** — simulated distributed compute nodes
//!   ([`locality::Locality`]) communicating exclusively through serialized
//!   `Parcel`s over an in-memory `network::Fabric` with an
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
//! let (mut a, mut b) = (0, 0);
//! pool.handle().scope(|s| {
//!     s.spawn(|| a = 1 + 2);
//!     s.spawn(|| b = 4 + 5);
//! });
//! assert_eq!(a + b, 12);
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

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::cluster::{Cluster, ClusterBuilder};
    pub use crate::codec::{Wire, WireError};
    pub use crate::counters::{Counter, CounterRegistry};
    pub use crate::future::{ready, when_all, Future};
    pub use crate::locality::{Locality, LocalityId};
    pub use crate::network::NetStats;
    pub use crate::parcel::{tag, Tag};
    pub use crate::pool::{PoolHandle, Scope, ThreadPool};
    pub use crate::rendezvous::Rendezvous;
    pub use nlheat_netmodel::{CommCost, LinkClass, LinkSpec, Msg, NetSpec, TopologySpec};
}

pub use prelude::*;
