//! Realizing a transfer: uniform ring growth along the shared frontier.
//!
//! When node `to` borrows `count` SDs from node `from`, the paper requires
//! the borrowed SDs to be taken "uniformly in all the directions" so the
//! contiguous locality produced by the mesh partitioner is preserved
//! (Fig. 6). We realize that as breadth-first ring growth: the borrower's
//! territory expands into the lender's ring by ring; within the final
//! partial ring, cells with the most contact to the borrower (and the
//! least entanglement with the lender) are preferred.

use crate::ownership::{NodeId, Ownership};
use nlheat_mesh::SdId;
use std::collections::HashSet;

/// Choose up to `count` SDs currently owned by `from` for transfer to
/// `to`, growing `to`'s territory uniformly. Returns fewer than `count`
/// ids when the lender's reachable territory is exhausted. Equivalent to
/// [`select_transfer_scored`] with a uniform zero score.
pub fn select_transfer(own: &Ownership, from: NodeId, to: NodeId, count: usize) -> Vec<SdId> {
    select_transfer_scored(own, from, to, count, |_| 0.0)
}

/// [`select_transfer`] with a per-SD migration score: `score(sd)` is the
/// estimated net gain of moving `sd` — for the balancer, the
/// [`MoveScore`](crate::balance::MoveScore) of the move, in seconds.
/// SDs with a negative score are never selected (their migration would
/// cost more than it relieves), and within a partial ring higher-scoring
/// SDs are preferred before the uniform-growth tie-breaks. A score that is
/// constant and non-negative (e.g. the zero score of [`select_transfer`])
/// reproduces the count-based selection exactly; the ghost term of an
/// active μ is what differentiates SDs within one frontier.
pub fn select_transfer_scored(
    own: &Ownership,
    from: NodeId,
    to: NodeId,
    count: usize,
    score: impl Fn(SdId) -> f64,
) -> Vec<SdId> {
    assert_ne!(from, to);
    let sds = own.sds();
    let mut selected: Vec<SdId> = Vec::with_capacity(count);
    let mut selected_set: HashSet<SdId> = HashSet::new();
    // `to`'s territory including what we have taken so far.
    let mut region: HashSet<SdId> = own.owned_by(to).into_iter().collect();
    if region.is_empty() && count > 0 {
        // The borrower owns nothing yet (can happen when more nodes than
        // SDs existed at some point): seed its territory with the lender's
        // most peripheral SD so ring growth has somewhere to start.
        let seed = own
            .owned_by(from)
            .into_iter()
            .filter(|&sd| score(sd) >= 0.0)
            .min_by_key(|&sd| {
                let lender_neighbors = sds
                    .adjacent4(sd)
                    .iter()
                    .filter(|&&nb| own.owner(nb) == from)
                    .count();
                (lender_neighbors, sd)
            });
        if let Some(sd) = seed {
            selected.push(sd);
            selected_set.insert(sd);
            region.insert(sd);
        }
    }
    while selected.len() < count {
        // the ring: `from`-owned SDs adjacent to the current region whose
        // migration is worth its communication cost
        let mut ring: Vec<SdId> = own
            .owned_by(from)
            .into_iter()
            .filter(|sd| !selected_set.contains(sd))
            .filter(|&sd| sds.adjacent4(sd).iter().any(|nb| region.contains(nb)))
            .filter(|&sd| score(sd) >= 0.0)
            .collect();
        if ring.is_empty() {
            break;
        }
        let remaining = count - selected.len();
        if ring.len() > remaining {
            // partial ring: prefer the highest migration score, then
            // maximal contact with the borrower and minimal remaining
            // contact with the lender (keeps the lender compact); ties by
            // id for determinism.
            let mut keyed: Vec<(SdId, f64, i64, i64)> = ring
                .iter()
                .map(|&sd| {
                    let nbs = sds.adjacent4(sd);
                    let contact = nbs.iter().filter(|nb| region.contains(nb)).count() as i64;
                    let lender_ties = nbs
                        .iter()
                        .filter(|&&nb| own.owner(nb) == from && !selected_set.contains(&nb))
                        .count() as i64;
                    (sd, score(sd), -contact, lender_ties)
                })
                .collect();
            keyed.sort_by(|a, b| {
                b.1.total_cmp(&a.1)
                    .then(a.2.cmp(&b.2))
                    .then(a.3.cmp(&b.3))
                    .then(a.0.cmp(&b.0))
            });
            ring = keyed.into_iter().take(remaining).map(|k| k.0).collect();
        }
        for sd in ring {
            selected.push(sd);
            selected_set.insert(sd);
            region.insert(sd);
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlheat_mesh::SdGrid;

    /// 6x6 grid: left half node 0, right half node 1.
    fn halves() -> Ownership {
        let sds = SdGrid::new(6, 6, 4);
        let mut owners = vec![0u32; 36];
        for sy in 0..6i64 {
            for sx in 3..6i64 {
                owners[sds.id(sx, sy) as usize] = 1;
            }
        }
        Ownership::new(sds, owners, 2)
    }

    #[test]
    fn takes_frontier_first() {
        let own = halves();
        let sds = *own.sds();
        // node 0 borrows a full ring (6) from node 1: must be column sx=3
        let taken = select_transfer(&own, 1, 0, 6);
        assert_eq!(taken.len(), 6);
        for sd in &taken {
            let (sx, _) = sds.coords(*sd);
            assert_eq!(sx, 3, "first ring is the boundary column");
        }
    }

    #[test]
    fn grows_ring_by_ring() {
        let own = halves();
        let sds = *own.sds();
        let taken = select_transfer(&own, 1, 0, 12);
        assert_eq!(taken.len(), 12);
        // two full columns: sx=3 and sx=4
        let mut cols: Vec<i64> = taken.iter().map(|&sd| sds.coords(sd).0).collect();
        cols.sort_unstable();
        assert_eq!(&cols[..6], &[3; 6]);
        assert_eq!(&cols[6..], &[4; 6]);
    }

    #[test]
    fn partial_ring_preserves_contiguity() {
        let own = halves();
        let taken = select_transfer(&own, 1, 0, 3);
        assert_eq!(taken.len(), 3);
        let mut working = own.clone();
        for &sd in &taken {
            working.set_owner(sd, 0);
        }
        assert!(working.is_contiguous(0), "borrower stays contiguous");
        assert!(working.is_contiguous(1), "lender stays contiguous");
    }

    #[test]
    fn caps_at_available_reachable_sds() {
        let own = halves();
        let taken = select_transfer(&own, 1, 0, 100);
        assert_eq!(taken.len(), 18, "lender only has 18 SDs");
    }

    #[test]
    fn no_adjacency_no_transfer() {
        // three columns: 0 | 2 | 1 — nodes 0 and 1 are not adjacent
        let sds = SdGrid::new(3, 1, 4);
        let own = Ownership::new(sds, vec![0, 2, 1], 3);
        assert!(select_transfer(&own, 1, 0, 1).is_empty());
    }

    #[test]
    fn selection_is_deterministic() {
        let own = halves();
        assert_eq!(
            select_transfer(&own, 1, 0, 7),
            select_transfer(&own, 1, 0, 7)
        );
    }

    #[test]
    fn scored_zero_matches_unscored() {
        let own = halves();
        for count in [1, 3, 6, 9, 18, 100] {
            assert_eq!(
                select_transfer(&own, 1, 0, count),
                select_transfer_scored(&own, 1, 0, count, |_| 0.0)
            );
        }
    }

    #[test]
    fn negative_score_blocks_selection() {
        let own = halves();
        // a transfer whose migration cost exceeds its relief moves nothing
        assert!(select_transfer_scored(&own, 1, 0, 6, |_| -1e-3).is_empty());
        // per-SD gating: only bottom-half rows are worth moving
        let sds = *own.sds();
        let taken = select_transfer_scored(&own, 1, 0, 18, |sd| {
            if sds.coords(sd).1 < 3 {
                1.0
            } else {
                -1.0
            }
        });
        assert_eq!(taken.len(), 9, "3 selectable rows x 3 lender columns");
        assert!(taken.iter().all(|&sd| sds.coords(sd).1 < 3), "{taken:?}");
    }

    #[test]
    fn higher_score_picked_first_in_partial_ring() {
        let own = halves();
        let sds = *own.sds();
        // boundary column sx=3 has six candidates; score favours high sy,
        // overriding the contact/id tie-breaks that normally spread picks
        let taken = select_transfer_scored(&own, 1, 0, 2, |sd| sds.coords(sd).1 as f64);
        assert_eq!(taken.len(), 2);
        let mut ys: Vec<i64> = taken.iter().map(|&sd| sds.coords(sd).1).collect();
        ys.sort_unstable();
        assert_eq!(ys, vec![4, 5], "top-scoring rows win: {taken:?}");
    }

    #[test]
    fn uniform_growth_spreads_over_frontier() {
        // Borrow 2 from a 6-cell frontier: the two picks must not be the
        // same corner twice — contact ranking spreads them.
        let own = halves();
        let sds = *own.sds();
        let taken = select_transfer(&own, 1, 0, 2);
        assert_eq!(taken.len(), 2);
        let ys: Vec<i64> = taken.iter().map(|&sd| sds.coords(sd).1).collect();
        assert_ne!(ys[0], ys[1]);
    }
}
