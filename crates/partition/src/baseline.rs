//! The naive partitioner used as the ablation baseline.
//!
//! The paper credits METIS partitioning with reduced data exchange (§6.2);
//! ablation A1 quantifies that against the obvious alternative: row-major
//! strips.

use nlheat_mesh::SdGrid;

/// Row-major strip partition: SD `i` (row-major) goes to part
/// `⌊i·k/count⌋`. Balanced by construction, but strips have long
/// boundaries.
pub fn strip_partition(sds: &SdGrid, k: u32) -> Vec<u32> {
    let n = sds.count();
    (0..n)
        .map(|i| ((i as u64 * k as u64) / n as u64) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::sd_dual_graph;
    use crate::metrics::balance;

    #[test]
    fn strip_parts_are_balanced() {
        let sds = SdGrid::new(8, 8, 10);
        let parts = strip_partition(&sds, 4);
        let g = sd_dual_graph(&sds);
        assert!((balance(&g, &parts, 4) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strip_parts_are_contiguous_in_row_major() {
        let sds = SdGrid::new(4, 4, 5);
        let parts = strip_partition(&sds, 2);
        assert_eq!(parts[..8], vec![0; 8][..]);
        assert_eq!(parts[8..], vec![1; 8][..]);
    }
}
