//! Compressed-sparse-row graphs with vertex and edge weights.
//!
//! A [`Csr`] is built once and then only read. [`Csr::from_edges`] builds
//! the partitioner's graphs — the dual graph and every level of the
//! hashing contraction — as a counting sort over flat arrays. The SD halo
//! graph of both substrates' set-up does not go through it:
//! [`crate::SdGraph::build`] writes its rows straight from the grid's halo
//! template, already sorted and merged.

/// An undirected graph in CSR form (every edge stored in both directions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Adjacency offsets, length `n + 1`.
    pub(crate) xadj: Vec<usize>,
    /// Flattened neighbour lists.
    pub(crate) adjncy: Vec<u32>,
    /// Edge weights parallel to `adjncy`.
    pub(crate) adjwgt: Vec<i64>,
    /// Vertex weights, length `n`.
    pub vwgt: Vec<i64>,
}

impl Csr {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbours of `v` with edge weights.
    pub(crate) fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, i64)> + '_ {
        let lo = self.xadj[v as usize];
        let hi = self.xadj[v as usize + 1];
        self.adjncy[lo..hi]
            .iter()
            .copied()
            .zip(self.adjwgt[lo..hi].iter().copied())
    }

    /// Sum of all vertex weights.
    pub(crate) fn total_vwgt(&self) -> i64 {
        self.vwgt.iter().sum()
    }

    /// Build from an undirected edge list `(u, v, weight)`; duplicate edges
    /// (in either orientation) have their weights summed, self-loops are
    /// rejected. Rows come out sorted by neighbour id.
    ///
    /// A counting sort by endpoint: one pass validates and counts each
    /// vertex's entries, a prefix sum turns the counts into row offsets,
    /// a second pass scatters both orientations of every edge into its
    /// rows, and each row is then sorted and its duplicates merged in
    /// place. No per-vertex container, no hashing — `O(n + m)` plus the
    /// row sorts, in three flat arrays.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn from_edges(n: usize, edges: &[(u32, u32, i64)], vwgt: Vec<i64>) -> Self {
        assert_eq!(vwgt.len(), n);
        let mut xadj = vec![0usize; n + 1];
        for &(u, v, _) in edges {
            assert_ne!(u, v, "self-loop on vertex {u}");
            assert!((u as usize) < n && (v as usize) < n, "edge out of range");
            xadj[u as usize + 1] += 1;
            xadj[v as usize + 1] += 1;
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        let mut cursor = xadj[..n].to_vec();
        let mut adjncy = vec![0u32; 2 * edges.len()];
        let mut adjwgt = vec![0i64; 2 * edges.len()];
        for &(u, v, w) in edges {
            for (from, to) in [(u, v), (v, u)] {
                let at = &mut cursor[from as usize];
                adjncy[*at] = to;
                adjwgt[*at] = w;
                *at += 1;
            }
        }
        // Merging only shrinks a row, so the merged rows are written back
        // over the scattered ones: `out` never passes the row being read.
        let mut row: Vec<(u32, i64)> = Vec::new();
        let (mut lo, mut out) = (0, 0);
        for v in 0..n {
            let hi = xadj[v + 1];
            row.clear();
            row.extend(
                adjncy[lo..hi]
                    .iter()
                    .copied()
                    .zip(adjwgt[lo..hi].iter().copied()),
            );
            row.sort_unstable_by_key(|&(u, _)| u);
            let start = out;
            for &(u, w) in &row {
                if out > start && adjncy[out - 1] == u {
                    adjwgt[out - 1] += w;
                } else {
                    adjncy[out] = u;
                    adjwgt[out] = w;
                    out += 1;
                }
            }
            lo = hi;
            xadj[v + 1] = out;
        }
        adjncy.truncate(out);
        adjwgt.truncate(out);
        adjncy.shrink_to_fit();
        adjwgt.shrink_to_fit();
        Csr {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }

    /// The subgraph induced by `ids` (edges leaving the set are dropped).
    /// Returns the subgraph and the local→global vertex map (= `ids`).
    pub(crate) fn induced_subgraph(&self, ids: &[u32]) -> (Csr, Vec<u32>) {
        let mut global_to_local = std::collections::HashMap::with_capacity(ids.len());
        for (local, &g) in ids.iter().enumerate() {
            global_to_local.insert(g, local as u32);
        }
        let mut xadj = Vec::with_capacity(ids.len() + 1);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        let mut vwgt = Vec::with_capacity(ids.len());
        xadj.push(0);
        for &g in ids {
            for (u, w) in self.neighbors(g) {
                if let Some(&lu) = global_to_local.get(&u) {
                    adjncy.push(lu);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len());
            vwgt.push(self.vwgt[g as usize]);
        }
        (
            Csr {
                xadj,
                adjncy,
                adjwgt,
                vwgt,
            },
            ids.to_vec(),
        )
    }

    /// Consistency check: symmetric adjacency, sorted offsets, matching
    /// array lengths.
    #[cfg(test)]
    pub(crate) fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if self.xadj.len() != n + 1 {
            return Err(format!("xadj length {} != n+1", self.xadj.len()));
        }
        if self.adjncy.len() != self.adjwgt.len() {
            return Err("adjncy/adjwgt length mismatch".into());
        }
        if *self.xadj.last().unwrap() != self.adjncy.len() {
            return Err("xadj tail does not cover adjncy".into());
        }
        for v in 0..n as u32 {
            for (u, w) in self.neighbors(v) {
                if u as usize >= n {
                    return Err(format!("edge ({v},{u}) out of range"));
                }
                if u == v {
                    return Err(format!("self loop at {v}"));
                }
                let back = self.neighbors(u).find(|&(x, _)| x == v).map(|(_, bw)| bw);
                if back != Some(w) {
                    return Err(format!("asymmetric edge ({v},{u})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Csr {
        // 0 - 1 - 2
        Csr::from_edges(3, &[(0, 1, 2), (1, 2, 5)], vec![1, 1, 1])
    }

    #[test]
    fn from_edges_builds_symmetric_csr() {
        let g = path3();
        assert_eq!(g.n(), 3);
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.neighbors(1).count(), 2);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 2)]);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_edges_merge_weights() {
        let g = Csr::from_edges(2, &[(0, 1, 2), (1, 0, 3)], vec![1, 1]);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 5)]);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Csr::from_edges(2, &[(0, 0, 1)], vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn out_of_range_endpoint_rejected() {
        Csr::from_edges(2, &[(0, 2, 1)], vec![1, 1]);
    }

    /// The builder against a map-of-maps reference on seeded random
    /// multigraphs: duplicates in both orientations (some cancelling to a
    /// zero-weight edge, which stays an edge), vertices no edge touches,
    /// and the degenerate sizes.
    #[test]
    fn from_edges_matches_a_btreemap_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let reference = |n: usize, edges: &[(u32, u32, i64)], vwgt: &[i64]| {
            let mut adj: BTreeMap<u32, BTreeMap<u32, i64>> = BTreeMap::new();
            for &(u, v, w) in edges {
                *adj.entry(u).or_default().entry(v).or_default() += w;
                *adj.entry(v).or_default().entry(u).or_default() += w;
            }
            let mut g = Csr {
                xadj: vec![0],
                adjncy: Vec::new(),
                adjwgt: Vec::new(),
                vwgt: vwgt.to_vec(),
            };
            for v in 0..n as u32 {
                for (&u, &w) in adj.get(&v).into_iter().flatten() {
                    g.adjncy.push(u);
                    g.adjwgt.push(w);
                }
                g.xadj.push(g.adjncy.len());
            }
            g
        };

        for (n, edges) in [(0usize, vec![]), (1, vec![]), (7, vec![])] {
            let vwgt = vec![3i64; n];
            assert_eq!(
                Csr::from_edges(n, &edges, vwgt.clone()),
                reference(n, &edges, &vwgt)
            );
        }
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..40);
            // only the lower two thirds ever get an edge: the rest stay isolated
            let live = (2 * n / 3).max(2);
            let mut edges: Vec<(u32, u32, i64)> = Vec::new();
            for _ in 0..rng.gen_range(0..6 * n) {
                let u = rng.gen_range(0..live) as u32;
                let v = rng.gen_range(0..live) as u32;
                if u == v {
                    continue;
                }
                let w = rng.gen_range(0..9) as i64 - 4;
                edges.push((u, v, w));
                if rng.gen_range(0..3) == 0 {
                    edges.push((v, u, rng.gen_range(0..9) as i64 - 4));
                }
            }
            let vwgt: Vec<i64> = (0..n as i64).collect();
            let g = Csr::from_edges(n, &edges, vwgt.clone());
            assert_eq!(g, reference(n, &edges, &vwgt), "seed {seed}");
            g.validate().unwrap();
        }
    }

    #[test]
    fn induced_subgraph_drops_external_edges() {
        // square 0-1-2-3-0
        let g = Csr::from_edges(
            4,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
            vec![1, 2, 3, 4],
        );
        let (sub, map) = g.induced_subgraph(&[1, 2]);
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.vwgt, vec![2, 3]);
        assert_eq!(sub.n_edges(), 1);
        assert_eq!(map, vec![1, 2]);
        sub.validate().unwrap();
    }

    #[test]
    fn total_vwgt_sums() {
        let g = Csr::from_edges(3, &[(0, 1, 1)], vec![5, 7, 9]);
        assert_eq!(g.total_vwgt(), 21);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = Csr::from_edges(3, &[], vec![1, 1, 1]);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.neighbors(0).count(), 0);
        g.validate().unwrap();
    }
}
