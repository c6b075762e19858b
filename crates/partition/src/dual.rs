//! Dual graph of the SD grid and the `METIS_PartMeshDual` replacement.
//!
//! The paper partitions the *coarse* mesh of sub-domains, not the fine
//! grid (§8.3 lists the advantages: fast partitioning, small I/O, SDs
//! further distributable to threads). The dual graph has one vertex per SD
//! (weight = its DP count, i.e. its compute load) and an edge between
//! edge-adjacent SDs (weight = the shared boundary length in cells, i.e.
//! proportional to the ghost-exchange volume).

use crate::graph::Csr;
use crate::kway::{part_graph, Partition, PartitionConfig};
use nlheat_mesh::SdGrid;

/// Build the dual graph of an SD grid (4-adjacency).
pub fn sd_dual_graph(sds: &SdGrid) -> Csr {
    let n = sds.count();
    let mut edges = Vec::new();
    for id in sds.ids() {
        let (sx, sy) = sds.coords(id);
        // right and top neighbours only — each undirected edge once
        if sds.in_bounds(sx + 1, sy) {
            edges.push((id, sds.id(sx + 1, sy), sds.sd));
        }
        if sds.in_bounds(sx, sy + 1) {
            edges.push((id, sds.id(sx, sy + 1), sds.sd));
        }
    }
    let vwgt = vec![sds.cells_per_sd() as i64; n];
    Csr::from_edges(n, &edges, vwgt)
}

/// Distribute the SDs of `sds` over `k` computational nodes with minimum
/// data exchange — the `METIS_PartMeshDual` call of §6.2.
pub fn part_mesh_dual(sds: &SdGrid, k: u32, seed: u64) -> Partition {
    let dual = sd_dual_graph(sds);
    part_graph(&dual, &PartitionConfig::new(k).with_seed(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::balance;
    use crate::metrics::tests::part_components;

    #[test]
    fn dual_graph_shape() {
        let sds = SdGrid::new(5, 5, 4);
        let g = sd_dual_graph(&sds);
        assert_eq!(g.n(), 25);
        // 2*5*4 = 40 undirected edges in a 5x5 grid graph
        assert_eq!(g.n_edges(), 40);
        assert_eq!(g.vwgt[0], 16);
        g.validate().unwrap();
    }

    #[test]
    fn dual_edge_weight_is_boundary_length() {
        let sds = SdGrid::new(2, 1, 7);
        let g = sd_dual_graph(&sds);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 7)]);
    }

    #[test]
    fn paper_figure2_configuration() {
        // Fig. 2: 25 SDs over 4 nodes. Check balance and contiguity.
        let sds = SdGrid::new(5, 5, 4);
        let p = part_mesh_dual(&sds, 4, 1);
        let g = sd_dual_graph(&sds);
        assert!(
            balance(&g, &p.parts, 4) <= 1.35,
            "25 SDs over 4 nodes: 7/6.25"
        );
        for part in 0..4 {
            assert!(part_components(&g, &p.parts, part) <= 1);
        }
    }

    #[test]
    fn paper_figure13_configuration() {
        // Fig. 13: 16x16 SDs of 50x50 cells over up to 16 nodes.
        let sds = SdGrid::new(16, 16, 50);
        for k in [2u32, 4, 8, 16] {
            let p = part_mesh_dual(&sds, k, 1);
            let g = sd_dual_graph(&sds);
            let b = balance(&g, &p.parts, k);
            assert!(b <= 1.2, "k={k} balance {b}");
        }
    }

    #[test]
    fn two_nodes_split_roughly_half() {
        let sds = SdGrid::new(4, 4, 50);
        let p = part_mesh_dual(&sds, 2, 0);
        let count0 = p.parts.iter().filter(|&&x| x == 0).count();
        assert_eq!(count0, 8, "4x4 SDs over 2 nodes must split 8/8");
    }
}
