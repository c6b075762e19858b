//! Halo (ghost-zone) exchange plans.
//!
//! To update its DPs, an SD needs every cell within ε of its interior
//! (paper Fig. 2). The halo plan enumerates where those ghost cells come
//! from: rectangular patches of neighbouring SDs (possibly several rings
//! away when ε exceeds the SD size) or the domain collar, whose value is
//! pinned to zero and therefore never needs communication.

use crate::rect::Rect;
use crate::subdomain::{SdGrid, SdId};

/// Where a halo patch's data lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchSource {
    /// Another sub-domain (same or different locality).
    Sd(SdId),
    /// The zero-temperature collar D_c — no data movement needed.
    Collar,
}

/// One rectangular piece of an SD's halo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloPatch {
    /// Source of the ghost data.
    pub source: PatchSource,
    /// The patch in the *source* SD's local interior coordinates
    /// (empty for collar patches).
    pub src_rect: Rect,
    /// The patch in the *destination* SD's local coordinates (lies in the
    /// halo ring: some coordinate is `< 0` or `≥ sd`).
    pub dst_rect: Rect,
}

/// The complete ghost-fill recipe for one SD.
#[derive(Debug, Clone)]
pub struct HaloPlan {
    /// The SD this plan fills.
    pub sd: SdId,
    /// All patches; their `dst_rect`s are pairwise disjoint and exactly
    /// tile the halo ring.
    pub patches: Vec<HaloPatch>,
}

impl HaloPlan {
    /// Patches sourced from real SDs (the ones that may require messages).
    pub fn sd_patches(&self) -> impl Iterator<Item = (usize, SdId, &HaloPatch)> {
        self.patches.iter().enumerate().filter_map(|(i, p)| {
            if let PatchSource::Sd(id) = p.source {
                Some((i, id, p))
            } else {
                None
            }
        })
    }
}

/// Build the halo plan for `sd_id` on an SD grid whose cells carry a ghost
/// ring of width `halo` cells.
pub fn build_halo_plan(sds: &SdGrid, halo: i64, sd_id: SdId) -> HaloPlan {
    assert!(halo >= 0);
    let own = sds.rect(sd_id);
    let (sx, sy) = sds.coords(sd_id);
    let padded = Rect::new(
        own.x0 - halo,
        own.y0 - halo,
        sds.sd + 2 * halo,
        sds.sd + 2 * halo,
    );
    // Number of SD rings the halo can reach into.
    let rings = (halo + sds.sd - 1) / sds.sd;
    let mut patches = Vec::with_capacity(((2 * rings + 1) * (2 * rings + 1) - 1) as usize);
    for dsy in -rings..=rings {
        for dsx in -rings..=rings {
            if dsx == 0 && dsy == 0 {
                continue;
            }
            let (nsx, nsy) = (sx + dsx, sy + dsy);
            // Virtual tile rect at this SD-grid position (exists even outside
            // the mesh: that's collar territory, value zero).
            let nrect = Rect::new(nsx * sds.sd, nsy * sds.sd, sds.sd, sds.sd);
            let overlap = padded.intersect(&nrect);
            if overlap.is_empty() {
                continue;
            }
            let dst_rect = overlap.translate(-own.x0, -own.y0);
            if sds.in_bounds(nsx, nsy) {
                let nid = sds.id(nsx, nsy);
                let src_rect = overlap.translate(-nrect.x0, -nrect.y0);
                patches.push(HaloPatch {
                    source: PatchSource::Sd(nid),
                    src_rect,
                    dst_rect,
                });
            } else {
                patches.push(HaloPatch {
                    source: PatchSource::Collar,
                    src_rect: Rect::empty(),
                    dst_rect,
                });
            }
        }
    }
    HaloPlan { sd: sd_id, patches }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(nsx: usize, nsy: usize, sd: usize, halo: i64, sx: i64, sy: i64) -> HaloPlan {
        let g = SdGrid::new(nsx, nsy, sd);
        build_halo_plan(&g, halo, g.id(sx, sy))
    }

    #[test]
    fn center_sd_has_eight_sd_patches() {
        // halo < sd: only the 8 immediate neighbours contribute.
        let plan = plan_for(3, 3, 10, 3, 1, 1);
        assert_eq!(plan.patches.len(), 8);
        assert!(plan
            .patches
            .iter()
            .all(|p| matches!(p.source, PatchSource::Sd(_))));
    }

    #[test]
    fn corner_sd_mixes_sd_and_collar() {
        let plan = plan_for(3, 3, 10, 3, 0, 0);
        let sd_count = plan.sd_patches().count();
        let collar_count = plan.patches.len() - sd_count;
        assert_eq!(sd_count, 3, "right, top, top-right neighbours");
        assert_eq!(collar_count, 5, "left/bottom sides and corners");
    }

    #[test]
    fn patches_tile_halo_ring_exactly() {
        for (halo, sd) in [(3i64, 10usize), (8, 5), (12, 5), (1, 1)] {
            let g = SdGrid::new(4, 3, sd);
            for id in g.ids() {
                let plan = build_halo_plan(&g, halo, id);
                let sdl = sd as i64;
                let padded = Rect::new(-halo, -halo, sdl + 2 * halo, sdl + 2 * halo);
                let interior = Rect::new(0, 0, sdl, sdl);
                // Every halo cell covered exactly once, interior never.
                let mut cover = std::collections::HashMap::new();
                for p in &plan.patches {
                    for c in p.dst_rect.cells() {
                        *cover.entry(c).or_insert(0) += 1;
                    }
                }
                for (x, y) in padded.cells() {
                    let expected = i32::from(!interior.contains(x, y));
                    assert_eq!(
                        cover.get(&(x, y)).copied().unwrap_or(0),
                        expected,
                        "cell ({x},{y}) sd={sd} halo={halo} id={id}"
                    );
                }
            }
        }
    }

    #[test]
    fn src_and_dst_rects_have_same_shape() {
        let plan = plan_for(4, 4, 6, 8, 1, 2); // halo > sd: multi-ring
        for (_, _, p) in plan.sd_patches() {
            assert_eq!(p.src_rect.w, p.dst_rect.w);
            assert_eq!(p.src_rect.h, p.dst_rect.h);
            // src rect must lie in the source SD's interior
            assert!(Rect::new(0, 0, 6, 6).contains_rect(&p.src_rect));
        }
    }

    #[test]
    fn multi_ring_halo_reaches_two_sds_away() {
        // halo 8, sd 5 -> rings = 2
        let plan = plan_for(5, 5, 5, 8, 2, 2);
        let g = SdGrid::new(5, 5, 5);
        let sources: Vec<SdId> = plan.sd_patches().map(|(_, id, _)| id).collect();
        assert!(sources.contains(&g.id(0, 2)), "two columns left");
        assert!(sources.contains(&g.id(4, 2)), "two columns right");
        assert_eq!(sources.len(), 24, "full 5x5 block minus self");
    }

    #[test]
    fn ghost_cell_count_matches_geometry() {
        // Interior SD, halo 2, sd 4: ring area = (4+4)^2 - 16 = 48,
        // all from SDs.
        let plan = plan_for(3, 3, 4, 2, 1, 1);
        let from_sds: i64 = plan.sd_patches().map(|(_, _, p)| p.dst_rect.area()).sum();
        assert_eq!(from_sds, 48);
    }

    #[test]
    fn single_sd_mesh_is_all_collar() {
        let plan = plan_for(1, 1, 8, 3, 0, 0);
        assert_eq!(plan.sd_patches().count(), 0);
        assert!(plan.patches.iter().all(|p| p.source == PatchSource::Collar));
    }
}
