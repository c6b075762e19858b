//! The data-dependency tree and its topological ordering (Fig. 7).
//!
//! Nodes of the tree are computational nodes; an edge exists where SDs of
//! one node border SDs of the other. The tree is a BFS spanning tree rooted
//! at the node of minimum load imbalance (Algorithm 1, line 14), and the
//! processing order is its BFS preorder — each node is processed before the
//! neighbours it will borrow from ("least data-dependency first").

use crate::ownership::NodeId;

/// A spanning tree over one connected component of the node-adjacency
/// graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyTree {
    /// Root: the component's node with minimum imbalance.
    pub root: NodeId,
    /// BFS preorder starting at `root` — the topological processing order.
    pub order: Vec<NodeId>,
    /// Tree children per node (indexed by node id; nodes outside the
    /// component have empty lists).
    pub children: Vec<Vec<NodeId>>,
    /// Tree parent per node (`None` for the root and for nodes outside
    /// the component).
    pub parent: Vec<Option<NodeId>>,
}

/// Build one [`DependencyTree`] per connected component of `adjacency`.
/// Each component is rooted at its node of minimum `imbalance`
/// (ties: lowest id). Neighbours are expanded in adjacency order — the
/// uniform-weight case of [`build_forest_weighted`].
pub fn build_forest(adjacency: &[Vec<NodeId>], imbalance: &[i64]) -> Vec<DependencyTree> {
    build_forest_weighted(adjacency, imbalance, |_, _| 0.0)
}

/// [`build_forest`] with edge weights: at each BFS expansion the frontier
/// node enqueues its unassigned neighbours cheapest-link first (ties by
/// lowest id), so the topological processing order settles imbalance over
/// cheap links before expensive ones. `weight(u, v)` is the cost of the
/// `u`→`v` edge (for the cost-aware balancer: the λ-weighted estimated
/// seconds of migrating one SD — see `MoveScore::edge_weight`). A
/// constant weight reproduces `build_forest` exactly, because adjacency
/// lists are already sorted by id.
pub fn build_forest_weighted(
    adjacency: &[Vec<NodeId>],
    imbalance: &[i64],
    weight: impl Fn(NodeId, NodeId) -> f64,
) -> Vec<DependencyTree> {
    let n = adjacency.len();
    assert_eq!(imbalance.len(), n);
    let mut assigned = vec![false; n];
    let mut forest = Vec::new();
    // next unassigned node with minimum imbalance roots the next component
    while let Some(root) = (0..n)
        .filter(|&i| !assigned[i])
        .min_by_key(|&i| (imbalance[i], i))
        .map(|r| r as NodeId)
    {
        let mut order = Vec::new();
        let mut children = vec![Vec::new(); n];
        let mut parent = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        assigned[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut frontier: Vec<NodeId> = adjacency[v as usize]
                .iter()
                .copied()
                .filter(|&u| !assigned[u as usize])
                .collect();
            frontier.sort_by(|&a, &b| weight(v, a).total_cmp(&weight(v, b)).then(a.cmp(&b)));
            for u in frontier {
                assigned[u as usize] = true;
                parent[u as usize] = Some(v);
                children[v as usize].push(u);
                queue.push_back(u);
            }
        }
        forest.push(DependencyTree {
            root,
            order,
            children,
            parent,
        });
    }
    forest
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 2x2 quadrant adjacency of the paper's Figs. 6/7:
    /// 1-2, 1-4, 2-3, 3-4 (0-indexed: 0-1, 0-3, 1-2, 2-3).
    fn quad_adjacency() -> Vec<Vec<NodeId>> {
        vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]]
    }

    #[test]
    fn root_is_min_imbalance() {
        let forest = build_forest(&quad_adjacency(), &[-15, 5, 5, 5]);
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].root, 0);
    }

    #[test]
    fn order_is_bfs_preorder() {
        let forest = build_forest(&quad_adjacency(), &[-15, 5, 5, 5]);
        let t = &forest[0];
        assert_eq!(t.order[0], 0);
        assert_eq!(t.order.len(), 4);
        // BFS from 0 visits 1 and 3 before 2
        let pos = |x: NodeId| t.order.iter().position(|&v| v == x).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(3) < pos(2));
    }

    #[test]
    fn parents_consistent_with_children() {
        let forest = build_forest(&quad_adjacency(), &[0, 0, 0, 0]);
        let t = &forest[0];
        for v in 0..4u32 {
            for &c in &t.children[v as usize] {
                assert_eq!(t.parent[c as usize], Some(v));
            }
        }
        assert_eq!(t.parent[t.root as usize], None);
    }

    #[test]
    fn every_node_in_exactly_one_order() {
        let forest = build_forest(&quad_adjacency(), &[3, -1, 2, -1]);
        let mut seen = std::collections::HashSet::new();
        for t in &forest {
            for &v in &t.order {
                assert!(seen.insert(v), "node {v} appears twice");
            }
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        // two components: {0,1} and {2}
        let adj = vec![vec![1], vec![0], vec![]];
        let forest = build_forest(&adj, &[5, -5, 0]);
        assert_eq!(forest.len(), 2);
        assert_eq!(forest[0].root, 1, "min imbalance in its component");
        assert_eq!(forest[1].root, 2);
    }

    #[test]
    fn tie_breaks_by_lowest_id() {
        let forest = build_forest(&quad_adjacency(), &[7, 7, 7, 7]);
        assert_eq!(forest[0].root, 0);
    }

    #[test]
    fn weighted_expansion_prefers_cheap_links() {
        // From root 0, neighbour 3 is cheap and 1 expensive: the BFS
        // preorder must visit 3 before 1.
        let imb = [-15, 5, 5, 5];
        let forest = build_forest_weighted(&quad_adjacency(), &imb, |u, v| {
            if (u, v) == (0, 1) || (v, u) == (0, 1) {
                10.0
            } else {
                1.0
            }
        });
        let t = &forest[0];
        let pos = |x: NodeId| t.order.iter().position(|&v| v == x).unwrap();
        assert!(pos(3) < pos(1), "cheap link first: {:?}", t.order);
        assert_eq!(t.children[0], vec![3, 1]);
    }

    #[test]
    fn uniform_weight_matches_unweighted_forest() {
        for imb in [[-15i64, 5, 5, 5], [3, -1, 2, -1], [7, 7, 7, 7]] {
            let plain = build_forest(&quad_adjacency(), &imb);
            let weighted = build_forest_weighted(&quad_adjacency(), &imb, |_, _| 0.123);
            assert_eq!(plain, weighted, "constant weight must change nothing");
        }
    }

    #[test]
    fn paper_figure7_ordering_shape() {
        // Fig. 7 reports the ordering 1 -> 4 -> 3 -> 2 (1-indexed) for a
        // tree rooted at node 1. In 0-indexed terms with our BFS: root 0,
        // then its neighbours, then the rest — the root borrows first,
        // exactly the "least data-dependency first" property.
        let forest = build_forest(&quad_adjacency(), &[-10, 3, 4, 3]);
        let t = &forest[0];
        assert_eq!(t.order[0], 0);
        assert!(!t.children[t.root as usize].is_empty());
    }
}
