//! Halo (ghost-zone) exchange plans.
//!
//! To update its DPs, an SD needs every cell within ε of its interior
//! (paper Fig. 2). The halo plan enumerates where those ghost cells come
//! from: rectangular patches of neighbouring SDs (possibly several rings
//! away when ε exceeds the SD size) or the domain collar, whose value is
//! pinned to zero and therefore never needs communication.
//!
//! The geometry is translation-invariant: every SD of a grid sees the same
//! `(2r + 1)² − 1` SD offsets within `r = ⌈halo / sd⌉` rings, with the same
//! source and destination rects at each. A [`HaloTemplate`] derives them
//! once per grid, in `(dsy, dsx)` order, and the offset's position in that
//! order is the patch index in every SD's plan: an offset that falls off
//! the grid keeps its slot as a collar patch. A [`HaloPlan`] is the
//! template instantiated at one SD; the SD adjacency graph and the
//! reverse lists ("which patches read from this SD") are read off the
//! template directly, without a plan per SD.

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

/// One slot of a [`HaloTemplate`]: the SD-grid offset a patch reads from
/// and its rects, the same at every SD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplatePatch {
    /// Offset `(dsx, dsy)` of the source SD from the destination SD.
    pub offset: (i64, i64),
    /// The patch in the source SD's local interior coordinates.
    pub src_rect: Rect,
    /// The patch in the destination SD's local coordinates.
    pub dst_rect: Rect,
}

impl TemplatePatch {
    /// This slot in the plan of the SD at `here`: sourced from the SD at
    /// its offset or, off the grid, from the collar.
    fn at(&self, sds: &SdGrid, here: (i64, i64)) -> HaloPatch {
        match shifted(sds, here, self.offset) {
            Some(src) => HaloPatch {
                source: PatchSource::Sd(src),
                src_rect: self.src_rect,
                dst_rect: self.dst_rect,
            },
            None => HaloPatch {
                source: PatchSource::Collar,
                src_rect: Rect::empty(),
                dst_rect: self.dst_rect,
            },
        }
    }
}

/// The halo geometry of every SD of one grid under a ghost ring of `halo`
/// cells: one [`TemplatePatch`] per SD offset the ring reaches, indexed
/// by patch index.
#[derive(Debug, Clone)]
pub struct HaloTemplate {
    sds: SdGrid,
    patches: Vec<TemplatePatch>,
}

impl HaloTemplate {
    /// Patches per SD of a grid of `sd`-cell SDs under a `halo`-cell ring:
    /// `(2r + 1)² − 1` for `r = ⌈halo / sd⌉` rings, saturating instead of
    /// overflowing, so a caller can size a template before building it.
    pub fn patch_count(sd: i64, halo: i64) -> u64 {
        let side = rings(sd, halo).saturating_mul(2).saturating_add(1);
        side.saturating_mul(side) - 1
    }

    /// The template of `sds` under a ghost ring of `halo` cells.
    pub fn new(sds: SdGrid, halo: i64) -> Self {
        let mut patches = Vec::with_capacity(Self::patch_count(sds.sd, halo) as usize);
        patches.extend(slots(sds.sd, halo));
        HaloTemplate { sds, patches }
    }

    /// The slots, by patch index.
    pub fn patches(&self) -> &[TemplatePatch] {
        &self.patches
    }

    /// The halo plan of `sd_id`: every slot, sourced from the SD at its
    /// offset or, off the grid, from the collar.
    pub fn plan(&self, sd_id: SdId) -> HaloPlan {
        let here = self.sds.coords(sd_id);
        HaloPlan {
            sd: sd_id,
            patches: self.patches.iter().map(|p| p.at(&self.sds, here)).collect(),
        }
    }

    /// The SD-sourced patches of `sd_id`'s plan as `(patch index, source
    /// SD)`, in ascending source id.
    pub fn sources(&self, sd_id: SdId) -> impl Iterator<Item = (usize, SdId)> + '_ {
        let here = self.sds.coords(sd_id);
        self.patches
            .iter()
            .enumerate()
            .filter_map(move |(i, p)| Some((i, shifted(&self.sds, here, p.offset)?)))
    }

    /// The patches that read from `src` as `(destination SD, patch
    /// index)`, in ascending destination id: each slot read backwards
    /// from the source's side.
    pub fn readers(&self, src: SdId) -> impl Iterator<Item = (SdId, usize)> + '_ {
        let here = self.sds.coords(src);
        self.patches
            .iter()
            .enumerate()
            .rev()
            .filter_map(move |(i, p)| {
                let (dsx, dsy) = p.offset;
                Some((shifted(&self.sds, here, (-dsx, -dsy))?, i))
            })
    }

    /// SD-sourced patches over all plans of the grid, counted per slot
    /// without building a plan: each slot at offset `(dsx, dsy)` lands on
    /// the grid from `(nsx − |dsx|)·(nsy − |dsy|)` SDs.
    pub fn exchange_count(&self) -> usize {
        let (nsx, nsy) = (self.sds.nsx, self.sds.nsy);
        self.patches
            .iter()
            .map(|p| ((nsx - p.offset.0.abs()).max(0) * (nsy - p.offset.1.abs()).max(0)) as usize)
            .sum()
    }
}

/// SD rings a `halo`-cell ghost ring reaches on `sd`-cell SDs.
fn rings(sd: i64, halo: i64) -> u64 {
    assert!(sd > 0 && halo >= 0);
    (halo as u64).div_ceil(sd as u64)
}

/// The slots of a `halo`-cell ghost ring on `sd`-cell SDs in patch-index
/// order: every offset within the rings but the SD's own, `(dsy, dsx)`
/// ascending, with both rects cut in the destination's frame — its padded
/// tile against the neighbour's interior at that offset.
fn slots(sd: i64, halo: i64) -> impl Iterator<Item = TemplatePatch> {
    let r = rings(sd, halo) as i64;
    let padded = Rect::new(-halo, -halo, sd + 2 * halo, sd + 2 * halo);
    (-r..=r)
        .flat_map(move |dsy| (-r..=r).map(move |dsx| (dsx, dsy)))
        .filter(|&offset| offset != (0, 0))
        .map(move |(dsx, dsy)| {
            let (x0, y0) = (dsx * sd, dsy * sd);
            let dst_rect = padded.intersect(&Rect::new(x0, y0, sd, sd));
            // the outermost ring starts (r − 1)·sd < halo cells out
            debug_assert!(
                !dst_rect.is_empty(),
                "offset ({dsx}, {dsy}) misses the halo"
            );
            TemplatePatch {
                offset: (dsx, dsy),
                src_rect: dst_rect.translate(-x0, -y0),
                dst_rect,
            }
        })
}

/// The SD at `(sx + dsx, sy + dsy)`, when it lies on the grid.
fn shifted(sds: &SdGrid, (sx, sy): (i64, i64), (dsx, dsy): (i64, i64)) -> Option<SdId> {
    let (x, y) = (sx + dsx, sy + dsy);
    sds.in_bounds(x, y).then(|| sds.id(x, y))
}

/// Build the halo plan for `sd_id` on an SD grid whose cells carry a ghost
/// ring of width `halo` cells: the slots [`HaloTemplate::plan`] reads,
/// generated for this one SD without storing a template. Callers that
/// need the plans of many SDs build the template once.
pub fn build_halo_plan(sds: &SdGrid, halo: i64, sd_id: SdId) -> HaloPlan {
    let here = sds.coords(sd_id);
    let mut patches = Vec::with_capacity(HaloTemplate::patch_count(sds.sd, halo) as usize);
    patches.extend(slots(sds.sd, halo).map(|p| p.at(sds, here)));
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

    /// The per-SD derivation the template replaced: this SD's padded tile
    /// against the virtual SD at each offset, in global coordinates.
    fn scanned_plan(sds: &SdGrid, halo: i64, sd_id: SdId) -> Vec<HaloPatch> {
        let own = sds.rect(sd_id);
        let (sx, sy) = sds.coords(sd_id);
        let padded = Rect::new(
            own.x0 - halo,
            own.y0 - halo,
            sds.sd + 2 * halo,
            sds.sd + 2 * halo,
        );
        let rings = (halo + sds.sd - 1) / sds.sd;
        let mut patches = Vec::new();
        for dsy in -rings..=rings {
            for dsx in -rings..=rings {
                let (nsx, nsy) = (sx + dsx, sy + dsy);
                let nrect = Rect::new(nsx * sds.sd, nsy * sds.sd, sds.sd, sds.sd);
                let overlap = padded.intersect(&nrect);
                if (dsx, dsy) == (0, 0) || overlap.is_empty() {
                    continue;
                }
                let dst_rect = overlap.translate(-own.x0, -own.y0);
                patches.push(if sds.in_bounds(nsx, nsy) {
                    HaloPatch {
                        source: PatchSource::Sd(sds.id(nsx, nsy)),
                        src_rect: overlap.translate(-nrect.x0, -nrect.y0),
                        dst_rect,
                    }
                } else {
                    HaloPatch {
                        source: PatchSource::Collar,
                        src_rect: Rect::empty(),
                        dst_rect,
                    }
                });
            }
        }
        patches
    }

    /// Plans (from the template and from `build_halo_plan`), sources,
    /// readers and the exchange count against the per-SD derivation and a
    /// scan of every plan, on 1×1,
    /// 1×N and N×1 grids, from no halo to a multi-ring one.
    #[test]
    fn the_template_matches_the_per_sd_derivation() {
        for (nsx, nsy) in [(1usize, 1usize), (1, 6), (6, 1), (4, 3), (7, 7)] {
            for (sd, halo) in [
                (5usize, 0i64),
                (5, 2),
                (5, 5),
                (5, 8),
                (5, 12),
                (3, 10),
                (1, 1),
            ] {
                let g = SdGrid::new(nsx, nsy, sd);
                let t = HaloTemplate::new(g, halo);
                let at = format!("{nsx}x{nsy}, sd {sd}, halo {halo}");
                assert_eq!(
                    t.patches().len() as u64,
                    HaloTemplate::patch_count(g.sd, halo),
                    "{at}"
                );
                let plans: Vec<HaloPlan> = g.ids().map(|id| t.plan(id)).collect();
                let mut readers: Vec<Vec<(SdId, usize)>> = vec![Vec::new(); g.count()];
                for plan in &plans {
                    let want = scanned_plan(&g, halo, plan.sd);
                    assert_eq!(plan.patches, want, "{at}, SD {}", plan.sd);
                    let single = build_halo_plan(&g, halo, plan.sd);
                    assert_eq!(single.patches, want, "{at}, SD {} alone", plan.sd);
                    let sources: Vec<(usize, SdId)> = t.sources(plan.sd).collect();
                    let want: Vec<(usize, SdId)> =
                        plan.sd_patches().map(|(i, src, _)| (i, src)).collect();
                    assert_eq!(sources, want, "{at}, SD {}", plan.sd);
                    assert!(sources.windows(2).all(|w| w[0].1 < w[1].1), "{at}");
                    for (i, src) in want {
                        readers[src as usize].push((plan.sd, i));
                    }
                }
                for src in g.ids() {
                    let got: Vec<(SdId, usize)> = t.readers(src).collect();
                    assert_eq!(got, readers[src as usize], "{at}, readers of SD {src}");
                }
                let exchanges: usize = plans.iter().map(|p| p.sd_patches().count()).sum();
                assert_eq!(t.exchange_count(), exchanges, "{at}");
            }
        }
    }

    #[test]
    fn patch_count_saturates() {
        assert_eq!(HaloTemplate::patch_count(5, 0), 0);
        assert_eq!(HaloTemplate::patch_count(5, 2), 8);
        assert_eq!(HaloTemplate::patch_count(1, 127), 65_024);
        assert_eq!(HaloTemplate::patch_count(1, 128), 66_048);
        assert_eq!(HaloTemplate::patch_count(1, i64::MAX), u64::MAX - 1);
    }

    #[test]
    fn single_sd_mesh_is_all_collar() {
        let plan = plan_for(1, 1, 8, 3, 0, 0);
        assert_eq!(plan.sd_patches().count(), 0);
        assert!(plan.patches.iter().all(|p| p.source == PatchSource::Collar));
    }
}
