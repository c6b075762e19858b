//! The SD adjacency / halo-volume graph — the steady-state ghost-traffic
//! view of the decomposition.
//!
//! [`crate::dual::sd_dual_graph`] answers the *partitioner's* question
//! ("which SDs share a boundary, and how long is it?") with 4-adjacency and
//! boundary lengths in cells. The load balancer needs the *runtime's*
//! version of the same graph: which SDs actually exchange ghost messages
//! each timestep, and how many wire bytes each exchange carries. For a
//! nonlocal model those are not the same graph — the halo reaches corner
//! neighbours and, when ε exceeds the SD size, SDs several rings away — so
//! [`SdGraph`] reads its edges off the grid's [`HaloTemplate`], the halo
//! geometry every SD's [`nlheat_mesh::HaloPlan`] on both execution
//! substrates is instantiated from. Edge weights are the wire bytes the
//! ghost bundles carry per patch (`cells · 8 + 24` framing, summed over
//! both directions of the exchange).
//!
//! The halo is symmetric — SD `u` reads from `v` at offset `o` exactly
//! when `v` reads from `u` at `−o`, over a patch of the same area — so
//! each template slot is one undirected edge of weight
//! `2 · patch_wire_bytes(area)`, and a vertex's row is its on-grid slots
//! in template order, which is ascending neighbour id. The graph is
//! therefore written row by row into arrays of their exact size: no edge
//! list, no sort, no merge.
//!
//! The graph is a function of the grid geometry alone, so it is built once
//! per run — never per epoch — and shared behind an `Arc` by everything
//! that plans against it; a run without a balancing schedule never builds
//! it.
//!
//! The graph is stored as the same [`Csr`] the partitioner uses, so the
//! ownership edge cut — the recurring ghost bytes a given SD→node
//! assignment ships every timestep — is literally
//! [`crate::metrics::edge_cut`] over this graph, not a reimplementation.

use crate::graph::Csr;
use crate::metrics::edge_cut;
use nlheat_mesh::{HaloTemplate, SdGrid, SdId};

/// Wire bytes of one ghost patch carrying `cells` cells — the
/// 8-byte-f64 payload plus 24 bytes of framing, the planning-grade wire
/// estimate shared by the graph's edge weights and the balancer's
/// `sd_bytes` tile size. It is exactly the size of the patch's record
/// inside a ghost bundle (two header words, the run's length word, the
/// cells), so an ownership cut of this graph is the bundles' payload —
/// what both substrates count — byte for byte.
pub fn patch_wire_bytes(cells: i64) -> u64 {
    (cells * 8 + 24) as u64
}

/// Per-SD neighbour lists with halo-exchange volumes: one vertex per SD
/// (weight = its cell count), one undirected edge per pair of SDs that
/// trade ghost patches (weight = total wire bytes per timestep, both
/// directions summed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdGraph {
    csr: Csr,
}

impl SdGraph {
    /// The graph of `sds` under a ghost ring of `halo` cells — the one
    /// constructor.
    ///
    /// Each SD's row is its on-grid [`HaloTemplate`] slots, written
    /// straight into arrays allocated once at the size
    /// [`HaloTemplate::exchange_count`] gives: no halo plan per SD, no
    /// edge list, no sort. The result is, byte for byte, the [`Csr`] that
    /// [`Csr::from_edges`] makes of every SD plan's exchanges.
    pub fn build(sds: &SdGrid, halo: i64) -> Self {
        let template = HaloTemplate::new(*sds, halo);
        // both directions of a slot's exchange carry a patch of its area
        let weights: Vec<i64> = template
            .patches()
            .iter()
            .map(|p| 2 * patch_wire_bytes(p.dst_rect.area()) as i64)
            .collect();
        let edges = template.exchange_count();
        let mut xadj = Vec::with_capacity(sds.count() + 1);
        let mut adjncy = Vec::with_capacity(edges);
        let mut adjwgt = Vec::with_capacity(edges);
        xadj.push(0);
        for id in sds.ids() {
            for (slot, nb) in template.sources(id) {
                adjncy.push(nb);
                adjwgt.push(weights[slot]);
            }
            xadj.push(adjncy.len());
        }
        debug_assert_eq!(adjncy.len(), edges);
        SdGraph {
            csr: Csr {
                xadj,
                adjncy,
                adjwgt,
                vwgt: vec![sds.cells_per_sd() as i64; sds.count()],
            },
        }
    }

    /// Number of SDs (vertices).
    pub fn n_sds(&self) -> usize {
        self.csr.n()
    }

    /// The underlying CSR graph (for [`edge_cut`]-style metrics).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Ghost-exchange partners of `sd` with the wire bytes per timestep
    /// traded over each edge (both directions).
    pub fn neighbours(&self, sd: SdId) -> impl Iterator<Item = (SdId, u64)> + '_ {
        self.csr.neighbors(sd).map(|(nb, w)| (nb, w as u64))
    }

    /// Resident memory footprint of `sd` on its owner, in bytes: the tile
    /// payload (8-byte f64 per cell) plus the ghost buffers it keeps for
    /// its halo exchanges (the incident edge weights — both directions,
    /// since a rank buffers what it receives and stages what it sends).
    /// This is what a destination's `memory_bytes` capacity actually pays
    /// to host the SD, the memory object of memory-aware balancing
    /// (cf. Lifflander et al., arXiv:2404.16793).
    pub fn resident_bytes(&self, sd: SdId) -> u64 {
        let tile = (self.csr.vwgt[sd as usize] * 8) as u64;
        tile + self.csr.neighbors(sd).map(|(_, w)| w as u64).sum::<u64>()
    }

    /// [`SdGraph::resident_bytes`] for every SD, indexed by [`SdId`] —
    /// the per-SD footprint table memory-aware planners balance against.
    pub fn footprints(&self) -> Vec<u64> {
        (0..self.n_sds() as SdId)
            .map(|sd| self.resident_bytes(sd))
            .collect()
    }

    /// Ghost bytes per timestep crossing node boundaries under `owners` —
    /// the ownership edge cut, computed by the partitioner's own
    /// [`edge_cut`] so planner and partitioner agree by construction.
    pub fn cut_bytes(&self, owners: &[u32]) -> u64 {
        edge_cut(&self.csr, owners) as u64
    }

    /// [`SdGraph::cut_bytes`] restricted to cut edges whose owner pair
    /// satisfies `pred` — e.g. "crosses a rack boundary" when `pred`
    /// resolves link classes.
    pub fn cut_bytes_where(&self, owners: &[u32], mut pred: impl FnMut(u32, u32) -> bool) -> u64 {
        let mut cut = 0u64;
        for v in 0..self.csr.n() as u32 {
            for (u, w) in self.csr.neighbors(v) {
                if u > v
                    && owners[u as usize] != owners[v as usize]
                    && pred(owners[v as usize], owners[u as usize])
                {
                    cut += w as u64;
                }
            }
        }
        cut
    }

    /// Change of [`SdGraph::cut_bytes`] if `sd` were reassigned from its
    /// current owner to `to` (positive: the move adds recurring ghost
    /// traffic). Exactly `cut_bytes(after) - cut_bytes(before)`, computed
    /// from `sd`'s neighbour list alone.
    pub fn cut_delta_bytes(&self, owners: &[u32], sd: SdId, to: u32) -> i64 {
        let from = owners[sd as usize];
        if from == to {
            return 0;
        }
        let mut delta = 0i64;
        for (nb, w) in self.csr.neighbors(sd) {
            let o = owners[nb as usize];
            if o == from {
                delta += w; // was internal, becomes cut
            } else if o == to {
                delta -= w; // was cut, becomes internal
            }
            // any other owner: cut before and after
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlheat_mesh::{build_halo_plan, HaloPlan};

    #[test]
    fn edges_match_halo_reach() {
        // halo < sd: the centre SD of a 3x3 grid trades with all 8
        // surrounding SDs (corners included — unlike the 4-adjacent dual).
        let sds = SdGrid::new(3, 3, 10);
        let g = SdGraph::build(&sds, 3);
        assert_eq!(g.n_sds(), 9);
        assert_eq!(g.neighbours(sds.id(1, 1)).count(), 8);
        // multi-ring halo: reach extends two SDs away
        let sds5 = SdGrid::new(5, 5, 5);
        let wide = SdGraph::build(&sds5, 8);
        assert_eq!(wide.neighbours(sds5.id(2, 2)).count(), 24);
        wide.csr().validate().unwrap();
    }

    #[test]
    fn edge_weight_sums_both_directions() {
        // Two 7-cell SDs side by side, halo 1: each direction ships a
        // 7-cell patch, so the undirected edge carries both messages.
        let sds = SdGrid::new(2, 1, 7);
        let g = SdGraph::build(&sds, 1);
        let (nb, w) = g.neighbours(0).next().unwrap();
        assert_eq!(nb, 1);
        assert_eq!(w, 2 * patch_wire_bytes(7));
    }

    #[test]
    fn resident_bytes_sum_tile_and_ghost_buffers() {
        // Two 7x7-cell SDs side by side, halo 1: each keeps its 49-cell
        // tile plus one exchange's buffers (send + receive = the
        // undirected edge weight).
        let sds = SdGrid::new(2, 1, 7);
        let g = SdGraph::build(&sds, 1);
        let edge = 2 * patch_wire_bytes(7);
        let tile = sds.cells_per_sd() as u64 * 8;
        assert_eq!(g.resident_bytes(0), tile + edge);
        assert_eq!(g.footprints(), vec![tile + edge; 2]);
        // an interior SD of a 3x3 grid buffers all 8 exchanges
        let sds3 = SdGrid::new(3, 3, 10);
        let g3 = SdGraph::build(&sds3, 3);
        let centre = sds3.id(1, 1);
        let incident: u64 = g3.neighbours(centre).map(|(_, w)| w).sum();
        assert_eq!(g3.resident_bytes(centre), 100 * 8 + incident);
        assert!(g3.resident_bytes(centre) > g3.resident_bytes(sds3.id(0, 0)));
    }

    /// The satellite acceptance test: the SD-graph cut equals
    /// `partition::metrics::edge_cut` on the rect fixtures AND equals a
    /// brute-force count of the per-message wire bytes that actually cross
    /// owners — the quantity the simulator charges every timestep.
    #[test]
    fn cut_bytes_matches_edge_cut_and_message_count() {
        for (nsx, nsy, sd, halo) in [(4usize, 4usize, 4usize, 2i64), (5, 3, 5, 8), (6, 6, 2, 1)] {
            let sds = SdGrid::new(nsx, nsy, sd);
            let plans: Vec<HaloPlan> = sds
                .ids()
                .map(|id| build_halo_plan(&sds, halo, id))
                .collect();
            let g = SdGraph::build(&sds, halo);
            for pattern in 0..4u32 {
                let owners: Vec<u32> = sds
                    .ids()
                    .map(|id| {
                        let (sx, sy) = sds.coords(id);
                        ((sx as u32 + pattern) / 2 + (sy as u32 / 2)) % 3
                    })
                    .collect();
                // brute force: every ghost message whose endpoints differ
                let mut brute = 0u64;
                for plan in &plans {
                    for (_, src, patch) in plan.sd_patches() {
                        if owners[src as usize] != owners[plan.sd as usize] {
                            brute += patch_wire_bytes(patch.dst_rect.area());
                        }
                    }
                }
                assert_eq!(g.cut_bytes(&owners), brute, "pattern {pattern}");
                assert_eq!(
                    g.cut_bytes(&owners),
                    edge_cut(g.csr(), &owners) as u64,
                    "cut must be the partitioner's own edge_cut"
                );
                assert_eq!(
                    g.cut_bytes_where(&owners, |_, _| true),
                    g.cut_bytes(&owners)
                );
            }
        }
    }

    #[test]
    fn cut_delta_matches_recomputed_cut() {
        let sds = SdGrid::new(5, 4, 4);
        let g = SdGraph::build(&sds, 2);
        let owners: Vec<u32> = sds.ids().map(|id| id % 3).collect();
        for sd in sds.ids() {
            for to in 0..3u32 {
                let mut after = owners.clone();
                after[sd as usize] = to;
                let expect = g.cut_bytes(&after) as i64 - g.cut_bytes(&owners) as i64;
                assert_eq!(
                    g.cut_delta_bytes(&owners, sd, to),
                    expect,
                    "sd {sd} -> node {to}"
                );
            }
        }
    }

    /// The per-move path (`cut_delta_bytes` + apply, move by move) must
    /// agree exactly with the cut of the final owners, including repeated
    /// reassignments of the same SD where the last write wins.
    #[test]
    fn per_move_cut_deltas_sum_to_the_final_cut() {
        let sds = SdGrid::new(5, 4, 4);
        let g = SdGraph::build(&sds, 2);
        let owners: Vec<u32> = sds.ids().map(|id| id % 3).collect();
        let batches: Vec<Vec<(SdId, u32)>> = vec![
            vec![],
            vec![(0, 2)],
            vec![(0, 1), (1, 1), (7, 0), (13, 2)],
            // every SD reassigned — a full-replan-sized diff
            sds.ids().map(|id| (id, (id + 1) % 3)).collect(),
            // same SD moved twice: last write wins
            vec![(4, 1), (4, 2), (5, 0)],
            // no-op moves mixed in
            vec![(2, owners[2]), (9, 0)],
        ];
        for moves in &batches {
            let mut seq = owners.clone();
            let mut cut = g.cut_bytes(&seq) as i64;
            for &(sd, to) in moves {
                cut += g.cut_delta_bytes(&seq, sd, to);
                seq[sd as usize] = to;
            }
            assert_eq!(cut as u64, g.cut_bytes(&seq), "batch {moves:?}");
        }
    }

    #[test]
    fn cut_bytes_where_filters_pairs() {
        // 2x1 SDs split over 2 nodes: the whole cut is the (0,1) pair.
        let sds = SdGrid::new(2, 1, 6);
        let g = SdGraph::build(&sds, 1);
        let owners = [0u32, 1];
        assert!(g.cut_bytes(&owners) > 0);
        assert_eq!(
            g.cut_bytes_where(&owners, |a, b| a.min(b) == 0 && a.max(b) == 1),
            g.cut_bytes(&owners)
        );
        assert_eq!(g.cut_bytes_where(&owners, |_, _| false), 0);
        // single owner: nothing crosses
        assert_eq!(g.cut_bytes(&[0, 0]), 0);
    }
}
