//! k-way partitioning by recursive bisection plus direct k-way refinement.

use crate::bisect::multilevel_bisection;
use crate::graph::Csr;
use crate::metrics::{edge_cut, part_weights};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Partitioner configuration.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Number of parts.
    pub(crate) k: u32,
    /// Allowed imbalance: heaviest part ≤ `imbalance · total/k`
    /// (METIS' default ballpark of 1.03–1.05).
    pub(crate) imbalance: f64,
    /// RNG seed — same seed, same partition.
    pub(crate) seed: u64,
    /// Direct k-way refinement passes after recursive bisection.
    pub(crate) refine_passes: u32,
}

impl PartitionConfig {
    /// Defaults mirroring METIS: 5% imbalance tolerance.
    pub fn new(k: u32) -> Self {
        PartitionConfig {
            k,
            imbalance: 1.05,
            seed: 0x5eed,
            refine_passes: 8,
        }
    }

    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A k-way partition of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Part id per vertex (`< k`).
    pub parts: Vec<u32>,
    /// Number of parts.
    pub k: u32,
    /// Edge-cut weight of this assignment.
    pub edgecut: i64,
}

/// Partition `g` into `cfg.k` parts (the `METIS_PartGraphKway` analogue).
pub fn part_graph(g: &Csr, cfg: &PartitionConfig) -> Partition {
    assert!(cfg.k >= 1, "k must be positive");
    let n = g.n();
    let mut parts = vec![0u32; n];
    if cfg.k == 1 || n == 0 {
        return Partition {
            parts,
            k: cfg.k,
            edgecut: 0,
        };
    }
    if cfg.k as usize >= n {
        // Degenerate: one vertex per part (some parts may stay empty).
        for (v, p) in parts.iter_mut().enumerate() {
            *p = v as u32;
        }
        let edgecut = edge_cut(g, &parts);
        return Partition {
            parts,
            k: cfg.k,
            edgecut,
        };
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ids: Vec<u32> = (0..n as u32).collect();
    rec_bisect(g, &ids, cfg.k, 0, &mut parts, &mut rng);
    refine_kway(g, &mut parts, cfg);
    let edgecut = edge_cut(g, &parts);
    Partition {
        parts,
        k: cfg.k,
        edgecut,
    }
}

fn rec_bisect(root: &Csr, ids: &[u32], k: u32, base: u32, parts: &mut [u32], rng: &mut StdRng) {
    if k == 1 {
        for &v in ids {
            parts[v as usize] = base;
        }
        return;
    }
    let (sub, map) = root.induced_subgraph(ids);
    let k0 = k / 2;
    let k1 = k - k0;
    let frac0 = k0 as f64 / k as f64;
    let two_way = multilevel_bisection(&sub, frac0, rng);
    let mut ids0 = Vec::new();
    let mut ids1 = Vec::new();
    for (local, &side) in two_way.iter().enumerate() {
        if side == 0 {
            ids0.push(map[local]);
        } else {
            ids1.push(map[local]);
        }
    }
    // Guard: a degenerate bisection (everything on one side) would recurse
    // forever; peel one vertex over.
    if ids0.is_empty() {
        ids0.push(ids1.pop().expect("nonempty input"));
    } else if ids1.is_empty() {
        ids1.push(ids0.pop().expect("nonempty input"));
    }
    rec_bisect(root, &ids0, k0, base, parts, rng);
    rec_bisect(root, &ids1, k1, base + k0, parts, rng);
}

/// Direct k-way boundary refinement: greedily move boundary vertices to the
/// adjacent part with the largest positive gain, subject to the imbalance
/// cap.
pub(crate) fn refine_kway(g: &Csr, parts: &mut [u32], cfg: &PartitionConfig) {
    let k = cfg.k;
    let n = g.n();
    if k < 2 || n == 0 {
        return;
    }
    let total = g.total_vwgt();
    let target = total as f64 / k as f64;
    let cap = (target * cfg.imbalance).ceil() as i64;
    let mut weights = part_weights(g, parts, k);
    let mut conn = vec![0i64; k as usize];
    for _pass in 0..cfg.refine_passes {
        let mut moved = false;
        for v in 0..n as u32 {
            let own = parts[v as usize];
            // connection weight to each adjacent part
            conn.iter_mut().for_each(|c| *c = 0);
            let mut is_boundary = false;
            for (u, w) in g.neighbors(v) {
                let pu = parts[u as usize];
                conn[pu as usize] += w;
                if pu != own {
                    is_boundary = true;
                }
            }
            if !is_boundary {
                continue;
            }
            let vw = g.vwgt[v as usize];
            let own_conn = conn[own as usize];
            let mut best: Option<(u32, i64)> = None;
            for p in 0..k {
                if p == own || conn[p as usize] == 0 {
                    continue;
                }
                let gain = conn[p as usize] - own_conn;
                if gain > 0
                    && weights[p as usize] + vw <= cap
                    && best.is_none_or(|(_, bg)| gain > bg)
                {
                    best = Some((p, gain));
                }
            }
            if let Some((p, _)) = best {
                weights[own as usize] -= vw;
                weights[p as usize] += vw;
                parts[v as usize] = p;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::balance;
    use crate::metrics::tests::part_components;

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
    fn k1_is_trivial() {
        let g = grid_graph(4, 4);
        let p = part_graph(&g, &PartitionConfig::new(1));
        assert!(p.parts.iter().all(|&x| x == 0));
        assert_eq!(p.edgecut, 0);
    }

    #[test]
    fn every_vertex_gets_a_valid_part() {
        let g = grid_graph(8, 8);
        for k in [2u32, 3, 4, 5, 7, 8] {
            let p = part_graph(&g, &PartitionConfig::new(k));
            assert!(p.parts.iter().all(|&x| x < k), "k={k}");
            // all parts non-empty for k << n
            for part in 0..k {
                assert!(p.parts.contains(&part), "part {part} empty for k={k}");
            }
        }
    }

    #[test]
    fn balance_within_tolerance() {
        let g = grid_graph(16, 16);
        for k in [2u32, 4, 8] {
            let cfg = PartitionConfig::new(k);
            let p = part_graph(&g, &cfg);
            let b = balance(&g, &p.parts, k);
            assert!(
                b <= cfg.imbalance + 0.15,
                "k={k}: balance {b} exceeds tolerance"
            );
        }
    }

    #[test]
    fn four_way_grid_cut_is_reasonable() {
        // A 16x16 grid split into 4 quadrants cuts 32 unit edges; allow
        // some slack over the optimum.
        let g = grid_graph(16, 16);
        let p = part_graph(&g, &PartitionConfig::new(4));
        assert!(p.edgecut <= 48, "cut {} too far from optimal 32", p.edgecut);
    }

    #[test]
    fn parts_are_mostly_contiguous_on_grids() {
        let g = grid_graph(12, 12);
        let p = part_graph(&g, &PartitionConfig::new(4));
        for part in 0..4 {
            let comps = part_components(&g, &p.parts, part);
            assert!(comps <= 2, "part {part} fragmented into {comps} components");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid_graph(10, 10);
        let a = part_graph(&g, &PartitionConfig::new(4).with_seed(7));
        let b = part_graph(&g, &PartitionConfig::new(4).with_seed(7));
        assert_eq!(a, b);
    }

    #[test]
    fn k_exceeding_n_spreads_vertices() {
        let g = grid_graph(2, 2);
        let p = part_graph(&g, &PartitionConfig::new(16));
        let mut seen = std::collections::HashSet::new();
        for &x in &p.parts {
            assert!(seen.insert(x), "parts must be distinct when k ≥ n");
        }
    }

    #[test]
    fn edgecut_matches_metric() {
        let g = grid_graph(9, 9);
        let p = part_graph(&g, &PartitionConfig::new(3));
        assert_eq!(p.edgecut, edge_cut(&g, &p.parts));
    }

    #[test]
    fn nonuniform_vertex_weights_balanced() {
        // heavy stripe on the left: partitioner must not put all heavy
        // vertices in one part
        let w = 8;
        let id = |x: usize, y: usize| (y * w + x) as u32;
        let mut edges = Vec::new();
        for y in 0..w {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y), 1));
                }
                if y + 1 < w {
                    edges.push((id(x, y), id(x, y + 1), 1));
                }
            }
        }
        let vwgt: Vec<i64> = (0..w * w).map(|v| if v % w < 2 { 10 } else { 1 }).collect();
        let g = Csr::from_edges(w * w, &edges, vwgt);
        let p = part_graph(&g, &PartitionConfig::new(2));
        let b = balance(&g, &p.parts, 2);
        assert!(b < 1.3, "weighted balance {b}");
    }
}
