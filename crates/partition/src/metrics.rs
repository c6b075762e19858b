//! Partition quality metrics.

use crate::graph::Csr;

/// Total weight of edges crossing part boundaries (each edge counted once).
pub fn edge_cut(g: &Csr, parts: &[u32]) -> i64 {
    let mut cut = 0;
    for v in 0..g.n() as u32 {
        for (u, w) in g.neighbors(v) {
            if u > v && parts[u as usize] != parts[v as usize] {
                cut += w;
            }
        }
    }
    cut
}

/// Load-balance factor: `max_p weight(p) · k / total` — 1.0 is perfect,
/// larger means the heaviest part is overloaded by that factor.
pub fn balance(g: &Csr, parts: &[u32], k: u32) -> f64 {
    let weights = part_weights(g, parts, k);
    let max = weights.iter().copied().max().unwrap_or(0);
    let total = g.total_vwgt();
    if total == 0 {
        return 1.0;
    }
    max as f64 * k as f64 / total as f64
}

/// Per-part vertex-weight totals.
pub(crate) fn part_weights(g: &Csr, parts: &[u32], k: u32) -> Vec<i64> {
    part_loads(&g.vwgt, parts, k)
}

/// [`part_weights`] under vertex weights held beside the graph.
pub(crate) fn part_loads(vwgt: &[i64], parts: &[u32], k: u32) -> Vec<i64> {
    let mut loads = vec![0i64; k as usize];
    for (&p, &w) in parts.iter().zip(vwgt) {
        loads[p as usize] += w;
    }
    loads
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Number of connected components of part `p` under the graph adjacency —
    /// 1 for a contiguous part.
    pub(crate) fn part_components(g: &Csr, parts: &[u32], p: u32) -> usize {
        let members: Vec<u32> = (0..g.n() as u32)
            .filter(|&v| parts[v as usize] == p)
            .collect();
        if members.is_empty() {
            return 0;
        }
        let in_part: std::collections::HashSet<u32> = members.iter().copied().collect();
        let mut seen = std::collections::HashSet::new();
        let mut components = 0;
        for &start in &members {
            if seen.contains(&start) {
                continue;
            }
            components += 1;
            let mut stack = vec![start];
            seen.insert(start);
            while let Some(v) = stack.pop() {
                for (u, _) in g.neighbors(v) {
                    if in_part.contains(&u) && seen.insert(u) {
                        stack.push(u);
                    }
                }
            }
        }
        components
    }

    fn path4() -> Csr {
        Csr::from_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 4)], vec![1, 2, 3, 4])
    }

    #[test]
    fn edge_cut_counts_cross_edges_once() {
        let g = path4();
        let parts = vec![0, 0, 1, 1];
        assert_eq!(edge_cut(&g, &parts), 3);
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 2 + 3 + 4);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn balance_perfect_and_skewed() {
        let g = path4(); // weights 1,2,3,4 total 10
        assert!((balance(&g, &[0, 0, 1, 1], 2) - 7.0 * 2.0 / 10.0).abs() < 1e-12);
        assert!((balance(&g, &[0, 1, 0, 1], 2) - 6.0 * 2.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn part_weights_sum_to_total() {
        let g = path4();
        let w = part_weights(&g, &[0, 1, 1, 2], 3);
        assert_eq!(w, vec![1, 5, 4]);
        assert_eq!(w.iter().sum::<i64>(), g.total_vwgt());
    }

    #[test]
    fn components_detect_fragmentation() {
        let g = path4();
        assert_eq!(part_components(&g, &[0, 0, 1, 0], 0), 2);
        assert_eq!(part_components(&g, &[0, 0, 1, 0], 1), 1);
        assert_eq!(part_components(&g, &[1, 1, 1, 1], 0), 0);
    }
}
