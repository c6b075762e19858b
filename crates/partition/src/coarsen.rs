//! Graph coarsening by heavy-edge matching.
//!
//! The first phase of the multilevel scheme: repeatedly collapse a maximal
//! matching that prefers heavy edges, so that the coarse graph preserves the
//! cut structure of the fine graph (Karypis & Kumar 1998, the METIS paper
//! the reproduction target cites as \[7\]).

use crate::graph::Csr;
use rand::seq::SliceRandom;
use rand::Rng;

/// A fine→coarse projection produced by one coarsening step.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The contracted graph.
    pub graph: Csr,
    /// For every fine vertex, its coarse vertex id.
    pub map: Vec<u32>,
}

/// Compute a heavy-edge matching. Returns `mate[v]`: the partner of `v`, or
/// `v` itself when unmatched.
pub fn heavy_edge_matching(g: &Csr, rng: &mut impl Rng) -> Vec<u32> {
    let n = g.n();
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    for &v in &order {
        if matched[v as usize] {
            continue;
        }
        let mut best: Option<(u32, i64)> = None;
        for (u, w) in g.neighbors(v) {
            if !matched[u as usize] && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        if let Some((u, _)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
            matched[v as usize] = true;
            matched[u as usize] = true;
        }
    }
    mate
}

/// Contract a matching into a coarse graph. Matched pairs merge vertex
/// weights; parallel edges merge edge weights; intra-pair edges vanish.
pub fn contract(g: &Csr, mate: &[u32]) -> CoarseLevel {
    let n = g.n();
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        let m = mate[v as usize];
        map[v as usize] = next;
        map[m as usize] = next; // m == v for unmatched vertices
        next += 1;
    }
    let nc = next as usize;
    let mut vwgt = vec![0i64; nc];
    for v in 0..n {
        vwgt[map[v] as usize] += g.vwgt[v];
    }
    // Every fine edge once (from its smaller endpoint), relabelled;
    // `Csr::from_edges` merges the parallel ones.
    let mut edge_list: Vec<(u32, u32, i64)> = Vec::new();
    for v in 0..n as u32 {
        let cv = map[v as usize];
        for (u, w) in g.neighbors(v) {
            let cu = map[u as usize];
            if u > v && cu != cv {
                edge_list.push((cv, cu, w));
            }
        }
    }
    CoarseLevel {
        graph: Csr::from_edges(nc, &edge_list, vwgt),
        map,
    }
}

/// Coarsen until at most `target_n` vertices remain or progress stalls.
/// Returns the chain of levels, finest first.
pub fn coarsen_to(g: &Csr, target_n: usize, rng: &mut impl Rng) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    loop {
        let current = levels.last().map_or(g, |level| &level.graph);
        if current.n() <= target_n {
            break;
        }
        let mate = heavy_edge_matching(current, rng);
        let level = contract(current, &mate);
        // Stall guard: matching too sparse to make progress.
        if level.graph.n() as f64 > current.n() as f64 * 0.95 {
            break;
        }
        levels.push(level);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid_graph(w: usize, h: usize) -> Csr {
        let id = |x: usize, y: usize| (y * w + x) as u32;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y), 1));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1), 1));
                }
            }
        }
        Csr::from_edges(w * h, &edges, vec![1; w * h])
    }

    #[test]
    fn matching_is_consistent() {
        let g = grid_graph(6, 6);
        let mut rng = StdRng::seed_from_u64(1);
        let mate = heavy_edge_matching(&g, &mut rng);
        for v in 0..g.n() as u32 {
            let m = mate[v as usize];
            assert_eq!(mate[m as usize], v, "mate relation must be symmetric");
        }
    }

    #[test]
    fn matching_is_maximal() {
        // No two adjacent vertices may both stay unmatched.
        let g = grid_graph(7, 5);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mate = heavy_edge_matching(&g, &mut rng);
            for v in 0..g.n() as u32 {
                if mate[v as usize] != v {
                    continue;
                }
                for (u, _) in g.neighbors(v) {
                    assert_ne!(
                        mate[u as usize], u,
                        "unmatched neighbours {v},{u} (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn matching_picks_heaviest_available_neighbor() {
        // Star: center 0 with leaves 1 (w=1) and 2 (w=100). Whenever the
        // center ends up matched, it must be matched through an edge that
        // was the heaviest available at its turn — so (0,1) may only occur
        // if 1 was visited before 0.
        let g = Csr::from_edges(3, &[(0, 1, 1), (0, 2, 100)], vec![1, 1, 1]);
        let mut saw_heavy = false;
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mate = heavy_edge_matching(&g, &mut rng);
            // symmetric + maximal sanity
            for v in 0..3u32 {
                assert_eq!(mate[mate[v as usize] as usize], v);
            }
            if mate[0] == 2 {
                saw_heavy = true;
            }
        }
        assert!(saw_heavy, "heavy edge never chosen across 32 seeds");
    }

    #[test]
    fn contract_preserves_total_vertex_weight() {
        let g = grid_graph(8, 8);
        let mut rng = StdRng::seed_from_u64(7);
        let mate = heavy_edge_matching(&g, &mut rng);
        let level = contract(&g, &mate);
        assert_eq!(level.graph.total_vwgt(), g.total_vwgt());
        level.graph.validate().unwrap();
        assert!(level.graph.n() < g.n());
        assert!(level.graph.n() >= g.n() / 2);
    }

    #[test]
    fn contract_map_is_total_and_dense() {
        let g = grid_graph(5, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let level = contract(&g, &heavy_edge_matching(&g, &mut rng));
        let nc = level.graph.n() as u32;
        for &c in &level.map {
            assert!(c < nc);
        }
        // every coarse id used
        let mut used = vec![false; nc as usize];
        for &c in &level.map {
            used[c as usize] = true;
        }
        assert!(used.iter().all(|&b| b));
    }

    #[test]
    fn coarsen_to_reaches_target() {
        let g = grid_graph(16, 16);
        let mut rng = StdRng::seed_from_u64(11);
        let levels = coarsen_to(&g, 32, &mut rng);
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().graph;
        assert!(coarsest.n() <= 64, "close to target, got {}", coarsest.n());
        assert_eq!(coarsest.total_vwgt(), g.total_vwgt());
    }

    #[test]
    fn coarsen_trivial_graph_stalls_gracefully() {
        let g = Csr::from_edges(2, &[(0, 1, 1)], vec![1, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        let levels = coarsen_to(&g, 1, &mut rng);
        assert!(levels.len() <= 1);
    }
}
