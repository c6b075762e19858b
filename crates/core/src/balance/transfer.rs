//! Realizing a transfer: uniform ring growth along the shared frontier.
//!
//! When node `to` borrows `count` SDs from node `from`, the paper requires
//! the borrowed SDs to be taken "uniformly in all the directions" so the
//! contiguous locality produced by the mesh partitioner is preserved
//! (Fig. 6). We realize that as breadth-first ring growth: the borrower's
//! territory expands into the lender's ring by ring; within the final
//! partial ring, cells with the most contact to the borrower (and the
//! least entanglement with the lender) are preferred.
//!
//! A ring is every lender SD with `score >= 0` bordering the region (the
//! borrower's territory plus what was taken). Only the first needs a pass
//! over the owner table. A full ring takes *all* of those and a partial
//! ring ends the call, so a later ring can only hold edge neighbours of
//! the SDs just taken: whatever else borders the older region is gated,
//! and `score` is a pure function, so it stays gated. `taken` flags the
//! SDs selected so far; with `owners[sd] == to` it is region membership,
//! and no set of the borrower's territory is ever built.

use crate::ownership::{NodeId, Ownership};
use nlheat_mesh::{SdGrid, SdId};

/// Choose up to `count` SDs currently owned by `from` for transfer to
/// `to`, growing `to`'s territory uniformly. Returns fewer than `count`
/// ids when the lender's reachable territory is exhausted. Equivalent to
/// [`select_transfer_scored`] with a uniform zero score.
pub fn select_transfer(own: &Ownership, from: NodeId, to: NodeId, count: usize) -> Vec<SdId> {
    select_transfer_scored(own, from, to, count, |_| 0.0)
}

/// Edge neighbours of `sd` — [`SdGrid::adjacent4`] without its `Vec`.
fn neighbours(sds: &SdGrid, sd: SdId) -> impl Iterator<Item = SdId> {
    let (w, n) = (sds.nsx as SdId, sds.count() as SdId);
    let sx = sd % w;
    [
        (sx > 0).then(|| sd - 1),
        (sx + 1 < w).then(|| sd + 1),
        (sd >= w).then(|| sd - w),
        (sd + w < n).then(|| sd + w),
    ]
    .into_iter()
    .flatten()
}

/// [`select_transfer`] with a per-SD migration score: `score(sd)` is the
/// estimated net gain of moving `sd` — for the balancer, the
/// [`MoveScore`](crate::balance::MoveScore) of the move, in seconds.
/// SDs with a negative score are never selected (their migration would
/// cost more than it relieves), and within a partial ring higher-scoring
/// SDs are preferred before the uniform-growth tie-breaks. A score that is
/// constant and non-negative (e.g. the zero score of [`select_transfer`])
/// reproduces the count-based selection exactly; the ghost term of an
/// active μ is what differentiates SDs within one frontier. `score` must
/// answer the same for an SD however often it is asked within one call.
pub fn select_transfer_scored(
    own: &Ownership,
    from: NodeId,
    to: NodeId,
    count: usize,
    score: impl Fn(SdId) -> f64,
) -> Vec<SdId> {
    assert_ne!(from, to);
    let (sds, owners) = (own.sds(), own.owners());
    // "take everything reachable" is a fair call: never allocate for more
    let count = count.min(owners.len());
    let mut selected: Vec<SdId> = Vec::with_capacity(count);
    if count == 0 {
        return selected;
    }
    let mut taken = vec![false; owners.len()];
    let lender_ties = |taken: &[bool], sd: SdId| {
        neighbours(sds, sd)
            .filter(|&nb| owners[nb as usize] == from && !taken[nb as usize])
            .count()
    };
    // the first ring, ascending: the one pass over the owner table
    let mut borrower_is_empty = true;
    let mut ring: Vec<SdId> = Vec::new();
    for (sd, &owner) in (0..).zip(owners) {
        borrower_is_empty &= owner != to;
        if owner == from
            && neighbours(sds, sd).any(|nb| owners[nb as usize] == to)
            && score(sd) >= 0.0
        {
            ring.push(sd);
        }
    }
    if borrower_is_empty {
        // The borrower owns nothing yet (can happen when more nodes than
        // SDs existed at some point): its territory starts from the
        // lender's most peripheral SD, a ring of one.
        ring.extend(
            (0..owners.len() as SdId)
                .filter(|&sd| owners[sd as usize] == from && score(sd) >= 0.0)
                .min_by_key(|&sd| (lender_ties(&taken, sd), sd)),
        );
    }
    while !ring.is_empty() {
        let remaining = count - selected.len();
        if ring.len() > remaining {
            // partial ring: prefer the highest migration score, then
            // maximal contact with the borrower and minimal remaining
            // contact with the lender (keeps the lender compact); ties by
            // id for determinism.
            let mut keyed: Vec<(SdId, f64, usize, usize)> = ring
                .iter()
                .map(|&sd| {
                    let contact = neighbours(sds, sd)
                        .filter(|&nb| owners[nb as usize] == to || taken[nb as usize])
                        .count();
                    (sd, score(sd), contact, lender_ties(&taken, sd))
                })
                .collect();
            keyed.sort_by(|a, b| {
                b.1.total_cmp(&a.1)
                    .then(b.2.cmp(&a.2))
                    .then(a.3.cmp(&b.3))
                    .then(a.0.cmp(&b.0))
            });
            ring = keyed.into_iter().take(remaining).map(|k| k.0).collect();
        }
        for &sd in &ring {
            taken[sd as usize] = true;
        }
        selected.extend_from_slice(&ring);
        if selected.len() == count {
            break;
        }
        // the next ring: what the SDs just taken expose, ascending
        ring = ring
            .iter()
            .flat_map(|&sd| neighbours(sds, sd))
            .filter(|&nb| owners[nb as usize] == from && !taken[nb as usize])
            .collect();
        ring.sort_unstable();
        ring.dedup();
        ring.retain(|&sd| score(sd) >= 0.0);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlheat_mesh::SdGrid;
    use std::collections::HashSet;

    /// The implementation this module shipped until PR 21 — a hash set of
    /// the borrower's territory per call and a scan of `owned_by(from)` per
    /// ring — kept as the oracle of [`matches_the_hash_set_oracle`]. Only
    /// `selected` lost its `with_capacity(count)`.
    fn select_transfer_hashset(
        own: &Ownership,
        from: NodeId,
        to: NodeId,
        count: usize,
        score: impl Fn(SdId) -> f64,
    ) -> Vec<SdId> {
        assert_ne!(from, to);
        let sds = own.sds();
        let mut selected: Vec<SdId> = Vec::new();
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

    #[test]
    fn a_huge_count_takes_everything_reachable() {
        // `Vec::with_capacity(count)` aborted the process on the first and
        // panicked with "capacity overflow" on the second
        let own = halves();
        for count in [1 << 40, usize::MAX] {
            assert_eq!(select_transfer(&own, 1, 0, count).len(), 18);
        }
    }

    /// 6x6 `halves()` with lender SD (3, 2) gated.
    fn gated_score(sds: SdGrid) -> impl Fn(SdId) -> f64 {
        move |sd| if sd == sds.id(3, 2) { -1.0 } else { 0.0 }
    }

    #[test]
    fn a_gated_sd_stays_gated_when_a_later_ring_reaches_it_again() {
        // (3, 2) borders the borrower from the start and is skipped by ring
        // one; (4, 2) is taken in ring three and exposes it a second time
        let own = halves();
        let sds = *own.sds();
        let taken = select_transfer_scored(&own, 1, 0, 18, gated_score(sds));
        assert_eq!(taken.len(), 17, "everything but the gated SD: {taken:?}");
        assert!(!taken.contains(&sds.id(3, 2)));
        let ring_of = |sd| taken.iter().position(|&t| t == sd).unwrap();
        assert!(ring_of(sds.id(4, 2)) > ring_of(sds.id(5, 0)), "{taken:?}");
        assert_eq!(
            taken,
            select_transfer_hashset(&own, 1, 0, 18, gated_score(sds))
        );
    }

    #[test]
    fn a_partial_ring_ends_the_call() {
        // 6 + 2: the full boundary column, then two SDs of the next one;
        // nothing is grown from the SDs the partial ring left behind
        let own = halves();
        let sds = *own.sds();
        let taken = select_transfer(&own, 1, 0, 8);
        let cols: Vec<i64> = taken.iter().map(|&sd| sds.coords(sd).0).collect();
        assert_eq!(cols, [3, 3, 3, 3, 3, 3, 4, 4], "{taken:?}");
        assert_eq!(taken, select_transfer_hashset(&own, 1, 0, 8, |_| 0.0));
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_the_hash_set_oracle() {
        let (mut seeded_starts, mut partial_rings, mut multi_ring) = (0, 0, 0);
        for case in 0..24_000u64 {
            let mut rng = case;
            let mut below = |n: u64| splitmix(&mut rng) % n;
            let (nsx, nsy) = (1 + below(9) as usize, 1 + below(9) as usize);
            let sds = SdGrid::new(nsx, nsy, 4);
            let ranks = 2 + below(4) as u32;
            let blocky = below(2) == 0;
            // blocky: every SD joins the nearest of `ranks` random sites
            let sites: Vec<(i64, i64)> = (0..ranks)
                .map(|_| (below(nsx as u64) as i64, below(nsy as u64) as i64))
                .collect();
            let mut owners: Vec<NodeId> = sds
                .ids()
                .map(|sd| {
                    let (sx, sy) = sds.coords(sd);
                    let nearest = (0..ranks)
                        .min_by_key(|&r| {
                            let (x, y) = sites[r as usize];
                            (sx - x).abs() + (sy - y).abs()
                        })
                        .unwrap();
                    if blocky {
                        nearest
                    } else {
                        below(u64::from(ranks)) as NodeId
                    }
                })
                .collect();
            let from = below(u64::from(ranks)) as NodeId;
            let to = (from + 1 + below(u64::from(ranks) - 1) as NodeId) % ranks;
            if below(4) == 0 {
                // the seed path: the borrower owns nothing
                owners
                    .iter_mut()
                    .filter(|o| **o == to)
                    .for_each(|o| *o = from);
            }
            let count = match below(14) {
                13 => usize::MAX,
                c => c as usize,
            };
            let shape = below(4);
            let scores: Vec<f64> = sds
                .ids()
                .map(|_| match shape {
                    0 => 0.0,                                  // all zero
                    1 => below(7) as f64 - 3.0,                // mixed sign
                    2 => 1.0 + below(3) as f64,                // positive, tied
                    _ => [-1.0, 0.5][(below(6) > 0) as usize], // sparse negatives
                })
                .collect();
            let own = Ownership::new(sds, owners, ranks);
            let score = |sd: SdId| scores[sd as usize];
            let expected = select_transfer_hashset(&own, from, to, count, score);
            let actual = select_transfer_scored(&own, from, to, count, score);
            assert_eq!(
                actual, expected,
                "case {case}: {nsx}x{nsy} {from}->{to} x{count}"
            );
            // what the cases covered, judged from the oracle's answer
            let borrowed = expected.len();
            seeded_starts += (borrowed > 0 && !own.owners().contains(&to)) as usize;
            let frontier = own.frontier(from, to).len();
            partial_rings += (borrowed == count && borrowed < frontier) as usize;
            multi_ring += (borrowed > frontier && frontier > 0) as usize;
        }
        assert!(seeded_starts > 1000, "seeded starts: {seeded_starts}");
        assert!(partial_rings > 1000, "partial first rings: {partial_rings}");
        assert!(multi_ring > 1000, "more than one ring: {multi_ring}");
    }
}
