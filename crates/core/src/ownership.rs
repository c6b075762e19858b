//! The SD → computational-node ownership map.
//!
//! A sub-problem (SP, §4 of the paper) is exactly the set of SDs a node
//! owns; this module tracks that assignment and answers the geometric
//! queries the load balancer and the solvers need: per-node counts, node
//! adjacency (who exchanges ghosts with whom), frontiers, and contiguity.

use nlheat_mesh::{SdGrid, SdId};
use nlheat_partition::Partition;

/// Node id within a cluster (mirrors `nlheat_amt::LocalityId`).
pub type NodeId = u32;

/// Assignment of every SD to an owning node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ownership {
    sds: SdGrid,
    owners: Vec<NodeId>,
    n_nodes: u32,
}

impl Ownership {
    /// Wrap an explicit assignment.
    ///
    /// # Panics
    /// Panics if the vector length mismatches the SD count or any owner id
    /// is out of range.
    pub fn new(sds: SdGrid, owners: Vec<NodeId>, n_nodes: u32) -> Self {
        assert_eq!(owners.len(), sds.count(), "one owner per SD");
        assert!(n_nodes > 0);
        assert!(owners.iter().all(|&o| o < n_nodes), "owner id out of range");
        Ownership {
            sds,
            owners,
            n_nodes,
        }
    }

    /// Adopt a partitioner result (the `METIS_PartMeshDual` output).
    pub fn from_partition(sds: SdGrid, partition: &Partition) -> Self {
        Ownership::new(sds, partition.parts.clone(), partition.k)
    }

    /// The SD grid this ownership refers to.
    pub fn sds(&self) -> &SdGrid {
        &self.sds
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> u32 {
        self.n_nodes
    }

    /// Owner of `sd`.
    pub fn owner(&self, sd: SdId) -> NodeId {
        self.owners[sd as usize]
    }

    /// Reassign `sd` to `node`.
    pub fn set_owner(&mut self, sd: SdId, node: NodeId) {
        assert!(node < self.n_nodes);
        self.owners[sd as usize] = node;
    }

    /// The raw owner table.
    pub fn owners(&self) -> &[NodeId] {
        &self.owners
    }

    /// SDs owned per node — SD̄(N_i) of eq. 8.
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_nodes as usize];
        for &o in &self.owners {
            counts[o as usize] += 1;
        }
        counts
    }

    /// SDs owned by `node`, ascending.
    pub fn owned_by(&self, node: NodeId) -> Vec<SdId> {
        (0..self.owners.len() as SdId)
            .filter(|&sd| self.owners[sd as usize] == node)
            .collect()
    }

    /// Node adjacency lists: `u` and `v` are adjacent when some SD of `u`
    /// is edge-adjacent to some SD of `v` — the edges of the
    /// data-dependency tree (paper Fig. 7).
    pub fn node_adjacency(&self) -> Vec<Vec<NodeId>> {
        let mut adj = vec![std::collections::BTreeSet::new(); self.n_nodes as usize];
        for sd in self.sds.ids() {
            let o = self.owner(sd);
            for nb in self.sds.adjacent4(sd) {
                let on = self.owner(nb);
                if on != o {
                    adj[o as usize].insert(on);
                    adj[on as usize].insert(o);
                }
            }
        }
        adj.into_iter().map(|s| s.into_iter().collect()).collect()
    }

    /// SDs owned by `from` that are edge-adjacent to territory of `to` —
    /// the borrowing frontier of the load balancer.
    pub fn frontier(&self, from: NodeId, to: NodeId) -> Vec<SdId> {
        self.owned_by(from)
            .into_iter()
            .filter(|&sd| {
                self.sds
                    .adjacent4(sd)
                    .iter()
                    .any(|&nb| self.owner(nb) == to)
            })
            .collect()
    }

    /// Whether `node`'s territory is connected under 4-adjacency (empty
    /// territories count as contiguous).
    pub fn is_contiguous(&self, node: NodeId) -> bool {
        let owned = self.owned_by(node);
        if owned.is_empty() {
            return true;
        }
        let set: std::collections::HashSet<SdId> = owned.iter().copied().collect();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![owned[0]];
        seen.insert(owned[0]);
        while let Some(sd) = stack.pop() {
            for nb in self.sds.adjacent4(sd) {
                if set.contains(&nb) && seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        seen.len() == owned.len()
    }

    /// ASCII rendering of the ownership grid (row y printed top-down), the
    /// format used to report the Fig. 14 redistribution.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for sy in (0..self.sds.nsy).rev() {
            for sx in 0..self.sds.nsx {
                let o = self.owner(self.sds.id(sx, sy));
                out.push_str(&format!("{o:>3}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 5x5 SD grid split into quadrant-ish blocks of 4 nodes
    /// (the paper's Fig. 2 shape).
    fn quad_ownership() -> Ownership {
        let sds = SdGrid::new(5, 5, 4);
        let mut owners = vec![0u32; 25];
        for sy in 0..5i64 {
            for sx in 0..5i64 {
                let o = match (sx >= 3, sy >= 3) {
                    (false, false) => 0,
                    (true, false) => 1,
                    (false, true) => 2,
                    (true, true) => 3,
                };
                owners[sds.id(sx, sy) as usize] = o;
            }
        }
        Ownership::new(sds, owners, 4)
    }

    #[test]
    fn counts_per_node() {
        let own = quad_ownership();
        assert_eq!(own.counts(), vec![9, 6, 6, 4]);
        assert_eq!(own.counts().iter().sum::<usize>(), 25);
    }

    #[test]
    fn owned_by_sorted_and_disjoint() {
        let own = quad_ownership();
        let mut all: Vec<SdId> = (0..4).flat_map(|n| own.owned_by(n)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn node_adjacency_of_quadrants() {
        let own = quad_ownership();
        let adj = own.node_adjacency();
        assert_eq!(adj[0], vec![1, 2]);
        assert_eq!(adj[1], vec![0, 3]);
        assert_eq!(adj[2], vec![0, 3]);
        assert_eq!(adj[3], vec![1, 2]);
    }

    #[test]
    fn frontier_lists_border_sds() {
        let own = quad_ownership();
        // node 1's SDs adjacent to node 0: column sx=3, sy 0..3
        let f = own.frontier(1, 0);
        let sds = *own.sds();
        let expected: Vec<SdId> = (0..3).map(|sy| sds.id(3, sy)).collect();
        assert_eq!(f, expected);
    }

    #[test]
    fn contiguity_detection() {
        let mut own = quad_ownership();
        assert!((0..4).all(|n| own.is_contiguous(n)));
        // teleport a node-0 SD into node-3 territory: node 0 stays
        // contiguous only if we pick a non-articulating cell; give SD (4,4)
        // to node 0 -> disconnected.
        let far = own.sds().id(4, 4);
        own.set_owner(far, 0);
        assert!(!own.is_contiguous(0));
    }

    #[test]
    fn empty_territory_is_contiguous() {
        let sds = SdGrid::new(2, 2, 4);
        let own = Ownership::new(sds, vec![0, 0, 0, 0], 2);
        assert!(own.is_contiguous(1));
    }

    #[test]
    fn render_shape() {
        let own = quad_ownership();
        let s = own.render();
        assert_eq!(s.lines().count(), 5);
        // top row printed first: sy=4 is nodes 2,2,2,3,3
        assert_eq!(s.lines().next().unwrap().trim(), "2  2  2  3  3");
    }

    #[test]
    #[should_panic(expected = "one owner per SD")]
    fn wrong_length_rejected() {
        Ownership::new(SdGrid::new(2, 2, 4), vec![0; 3], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_owner_rejected() {
        Ownership::new(SdGrid::new(2, 2, 4), vec![0, 0, 0, 5], 2);
    }
}
