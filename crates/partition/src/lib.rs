//! # nlheat-partition — multilevel k-way mesh/graph partitioner
//!
//! METIS substitute for the reproduction of Gadikar, Diehl & Jha 2021. The
//! paper calls `METIS_PartMeshDual` to distribute sub-domains across
//! computational nodes with minimum data exchange (§6.2); this crate
//! implements the same algorithm family from scratch:
//!
//! 1. **Coarsening** by heavy-edge matching (`coarsen`),
//! 2. **Initial partitioning** by greedy graph growing (`bisect`),
//! 3. **Uncoarsening with FM-style boundary refinement** (`bisect`,
//!    `kway`),
//! 4. **k-way partitions** via recursive bisection plus a direct k-way
//!    refinement pass ([`part_graph`]).
//!
//! [`sd_dual_graph`] builds the dual graph of the SD grid (vertices =
//! SDs, edges = shared boundaries weighted by communication volume), and
//! [`part_mesh_dual`] is the `METIS_PartMeshDual` replacement used by the
//! distributed solver. [`strip_partition`] is the naive strip partitioner
//! the ablation study compares against.
//!
//! [`SdGraph`] is the runtime-facing sibling of the dual graph: SD
//! adjacency read off the grid's halo template (corner and multi-ring
//! neighbours included) with edge weights in ghost wire bytes per
//! timestep, so the load balancer can price the *recurring* traffic of an
//! ownership — its edge cut over this graph — and not just one-off
//! migration bytes.
//!
//! Only the re-exported items below are public; the modules are the
//! crate's own.

mod baseline;
mod bisect;
mod coarsen;
mod dual;
mod graph;
mod kway;
mod metrics;
mod repart;
mod sdgraph;

pub use baseline::strip_partition;
pub use dual::{part_mesh_dual, sd_dual_graph};
pub use graph::Csr;
pub use kway::{part_graph, Partition, PartitionConfig};
pub use metrics::{balance, edge_cut};
pub use repart::repartition_capacitated;
pub use sdgraph::{patch_wire_bytes, SdGraph};
