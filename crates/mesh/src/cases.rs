//! Case-1 / case-2 classification of an SD's discretized points.
//!
//! Paper §6.3, Fig. 5: within one SD, the DPs whose ε-ball stays on data
//! owned by the same computational node (**case 2**) can be updated
//! immediately each timestep, while DPs that read foreign ghost data
//! (**case 1**) must wait for the neighbours' messages. Computing case 2
//! first hides the data-exchange time.
//!
//! The split here is per-side conservative: if any foreign SD contributes
//! ghost cells on a side (including its corners), the whole strip of width
//! `halo` along that side is classified case 1. Over-approximating case 1
//! is always correct — it only shrinks the overlap window, never reads
//! stale data.

use crate::halo::{HaloPlan, PatchSource};
use crate::rect::Rect;
use crate::subdomain::SdId;

/// The interior of one SD split into communication classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSplit {
    /// The foreign-independent region (computed while messages are in
    /// flight). Empty when foreign margins swallow the whole SD.
    pub case2: Rect,
    /// The first `n_case1` entries are the case-1 strips: one per side at
    /// most, held inline so a split allocates nothing.
    case1: [Rect; 4],
    n_case1: usize,
}

impl CaseSplit {
    /// Foreign-dependent strips (computed after ghosts arrive). Pairwise
    /// disjoint; together with `case2` they tile the SD interior.
    pub fn case1(&self) -> &[Rect] {
        &self.case1[..self.n_case1]
    }

    /// True when the SD has no foreign dependencies at all.
    pub fn is_all_case2(&self) -> bool {
        self.n_case1 == 0
    }
}

/// Split the interior of the SD covered by `plan` given the ownership
/// predicate `is_foreign` (true for SDs owned by a *different* locality).
///
/// `sd` is the SD side length in cells and `halo` the ghost-ring width.
pub fn split_cases(
    sd: i64,
    halo: i64,
    plan: &HaloPlan,
    mut is_foreign: impl FnMut(SdId) -> bool,
) -> CaseSplit {
    let (mut left, mut right, mut bottom, mut top) = (false, false, false, false);
    for patch in &plan.patches {
        let foreign = match patch.source {
            PatchSource::Sd(id) => is_foreign(id),
            PatchSource::Collar => false, // collar is constant zero: no comm
        };
        if !foreign {
            continue;
        }
        let d = &patch.dst_rect;
        if d.x0 < 0 {
            left = true;
        }
        if d.x1() > sd {
            right = true;
        }
        if d.y0 < 0 {
            bottom = true;
        }
        if d.y1() > sd {
            top = true;
        }
    }
    let m = halo.min(sd);
    let (ml, mr) = (if left { m } else { 0 }, if right { m } else { 0 });
    let (mb, mt) = (if bottom { m } else { 0 }, if top { m } else { 0 });

    let inner_w = sd - ml - mr;
    let inner_h = sd - mb - mt;
    let mut split = CaseSplit {
        case2: Rect::empty(),
        case1: [Rect::empty(); 4],
        n_case1: 0,
    };
    if inner_w <= 0 || inner_h <= 0 {
        // Margins swallow the SD: everything is case 1.
        split.case1[0] = Rect::new(0, 0, sd, sd);
        split.n_case1 = 1;
        return split;
    }
    split.case2 = Rect::new(ml, mb, inner_w, inner_h);
    let strips = [
        (ml, Rect::new(0, 0, ml, sd)),
        (mr, Rect::new(sd - mr, 0, mr, sd)),
        (mb, Rect::new(ml, 0, inner_w, mb)),
        (mt, Rect::new(ml, sd - mt, inner_w, mt)),
    ];
    for (margin, strip) in strips {
        if margin > 0 {
            split.case1[split.n_case1] = strip;
            split.n_case1 += 1;
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halo::build_halo_plan;
    use crate::subdomain::SdGrid;

    fn split(
        g: &SdGrid,
        halo: i64,
        sx: i64,
        sy: i64,
        owners: &dyn Fn(SdId) -> u32,
        me: u32,
    ) -> CaseSplit {
        let id = g.id(sx, sy);
        let plan = build_halo_plan(g, halo, id);
        split_cases(g.sd, halo, &plan, |n| owners(n) != me)
    }

    fn assert_tiles_interior(split: &CaseSplit, sd: i64) {
        let mut cover = std::collections::HashMap::new();
        for c in split.case2.cells() {
            *cover.entry(c).or_insert(0) += 1;
        }
        for r in split.case1() {
            for c in r.cells() {
                *cover.entry(c).or_insert(0) += 1;
            }
        }
        for y in 0..sd {
            for x in 0..sd {
                assert_eq!(
                    cover.get(&(x, y)).copied().unwrap_or(0),
                    1,
                    "cell ({x},{y}) covered wrong number of times"
                );
            }
        }
        assert_eq!(cover.len() as i64, sd * sd, "cells outside interior");
    }

    #[test]
    fn all_owned_is_all_case2() {
        let g = SdGrid::new(3, 3, 10);
        let s = split(&g, 3, 1, 1, &|_| 0, 0);
        assert!(s.is_all_case2());
        assert_eq!(s.case2, Rect::new(0, 0, 10, 10));
        assert_tiles_interior(&s, 10);
    }

    #[test]
    fn single_sd_domain_is_all_case2() {
        // Only collar neighbours: zero BC needs no communication.
        let g = SdGrid::new(1, 1, 8);
        let s = split(&g, 3, 0, 0, &|_| 1, 0);
        assert!(s.is_all_case2());
    }

    #[test]
    fn foreign_left_neighbor_creates_left_strip() {
        let g = SdGrid::new(3, 1, 10);
        // Node 0 owns column 1 (middle); column 0 foreign, column 2 owned.
        let owners = |id: SdId| if id == 0 { 1u32 } else { 0u32 };
        let s = split(&g, 3, 1, 0, &owners, 0);
        assert_eq!(s.case2, Rect::new(3, 0, 7, 10));
        assert_eq!(s.case1(), [Rect::new(0, 0, 3, 10)]);
        assert_tiles_interior(&s, 10);
    }

    #[test]
    fn diagonal_foreign_flags_both_sides() {
        let g = SdGrid::new(3, 3, 10);
        // only the bottom-left diagonal neighbour is foreign
        let diag = g.id(0, 0);
        let owners = move |id: SdId| if id == diag { 1u32 } else { 0 };
        let s = split(&g, 3, 1, 1, &owners, 0);
        // conservative: left and bottom strips both case 1
        assert_eq!(s.case2, Rect::new(3, 3, 7, 7));
        assert_eq!(s.case1().iter().map(Rect::area).sum::<i64>(), 100 - 49);
        assert_tiles_interior(&s, 10);
    }

    #[test]
    fn all_foreign_neighbors_swallow_small_sd() {
        let g = SdGrid::new(3, 3, 4);
        // halo 3 on a 4-cell SD with all neighbours foreign: margins 3+3 > 4.
        // SD 4 (center) is owned by node 0, everything else by node 1.
        let s = split(&g, 3, 1, 1, &|id| u32::from(id != 4), 0);
        assert!(s.case2.is_empty());
        assert_eq!(s.case1(), [Rect::new(0, 0, 4, 4)]);
        assert_tiles_interior(&s, 4);
    }

    #[test]
    fn opposite_foreign_sides() {
        let g = SdGrid::new(3, 1, 12);
        // both left and right columns foreign
        let owners = |id: SdId| if id == 1 { 0u32 } else { 7 };
        let s = split(&g, 4, 1, 0, &owners, 0);
        assert_eq!(s.case2, Rect::new(4, 0, 4, 12));
        assert_eq!(s.case1().len(), 2);
        assert_tiles_interior(&s, 12);
    }

    #[test]
    fn areas_sum_to_interior() {
        let g = SdGrid::new(4, 4, 6);
        for id in g.ids() {
            let plan = build_halo_plan(&g, 2, id);
            // checkerboard ownership: maximal fragmentation
            let s = split_cases(6, 2, &plan, |n| n % 2 == 0);
            let case1: i64 = s.case1().iter().map(Rect::area).sum();
            assert_eq!(case1 + s.case2.area(), 36);
            assert_tiles_interior(&s, 6);
        }
    }

    #[test]
    fn case1_strips_wait_for_every_foreign_cell() {
        // Any interior cell within `halo` of a foreign-facing side must be
        // case 1 (it can read up to `halo` cells across that side).
        let g = SdGrid::new(3, 3, 10);
        let halo = 3;
        let foreign_left = g.id(0, 1);
        let owners = move |id: SdId| if id == foreign_left { 9u32 } else { 0 };
        let s = split(&g, halo, 1, 1, &owners, 0);
        for y in 0..10 {
            for x in 0..halo {
                assert!(
                    s.case1().iter().any(|r| r.contains(x, y)),
                    "({x},{y}) reads foreign data but is not case 1"
                );
            }
        }
    }
}
