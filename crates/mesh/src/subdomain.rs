//! Square sub-domains (SDs) — the unit of work and of load exchange.
//!
//! The mesh is coarsened into a grid of `nsx × nsy` square SDs of
//! `sd × sd` cells each (paper §6.1, Fig. 2). SDs are the tasks of the
//! asynchronous solver, the vertices of the partitioner's dual graph, and
//! the unit the load balancer moves between nodes.

use crate::rect::Rect;

/// Identifier of a sub-domain (row-major in the SD grid).
pub type SdId = u32;

/// The coarse grid of sub-domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdGrid {
    /// SDs along x.
    pub nsx: i64,
    /// SDs along y.
    pub nsy: i64,
    /// Cells per SD side.
    pub sd: i64,
}

impl SdGrid {
    /// An `nsx × nsy` grid of SDs with `sd` cells per side.
    pub fn new(nsx: usize, nsy: usize, sd: usize) -> Self {
        assert!(nsx > 0 && nsy > 0 && sd > 0);
        SdGrid {
            nsx: nsx as i64,
            nsy: nsy as i64,
            sd: sd as i64,
        }
    }

    /// Decompose an `nx × ny` mesh into SDs of `sd` cells per side.
    ///
    /// # Panics
    /// Panics unless `sd` divides both `nx` and `ny` exactly (the paper
    /// always uses exact tilings).
    pub fn tile_mesh(nx: usize, ny: usize, sd: usize) -> Self {
        assert!(
            nx.is_multiple_of(sd) && ny.is_multiple_of(sd),
            "SD size {sd} must divide mesh {nx}x{ny}"
        );
        SdGrid::new(nx / sd, ny / sd, sd)
    }

    /// Total number of SDs.
    pub fn count(&self) -> usize {
        (self.nsx * self.nsy) as usize
    }

    /// Cells per SD (DPs of one unit of work).
    pub fn cells_per_sd(&self) -> usize {
        (self.sd * self.sd) as usize
    }

    /// Mesh extent covered by the SD grid.
    pub fn mesh_extent(&self) -> (i64, i64) {
        (self.nsx * self.sd, self.nsy * self.sd)
    }

    /// Linear id of the SD at `(sx, sy)`.
    pub fn id(&self, sx: i64, sy: i64) -> SdId {
        debug_assert!(self.in_bounds(sx, sy));
        (sy * self.nsx + sx) as SdId
    }

    /// SD coordinates of `id`.
    pub fn coords(&self, id: SdId) -> (i64, i64) {
        let id = id as i64;
        (id % self.nsx, id / self.nsx)
    }

    /// Whether `(sx, sy)` is a real SD.
    pub fn in_bounds(&self, sx: i64, sy: i64) -> bool {
        sx >= 0 && sx < self.nsx && sy >= 0 && sy < self.nsy
    }

    /// Global cell rectangle of SD `id`.
    pub fn rect(&self, id: SdId) -> Rect {
        let (sx, sy) = self.coords(id);
        Rect::new(sx * self.sd, sy * self.sd, self.sd, self.sd)
    }

    /// Global origin (lower-left cell) of SD `id`.
    pub fn origin(&self, id: SdId) -> (i64, i64) {
        let (sx, sy) = self.coords(id);
        (sx * self.sd, sy * self.sd)
    }

    /// 4-neighbors (edge-adjacent SDs) of `id`.
    pub fn adjacent4(&self, id: SdId) -> Vec<SdId> {
        let (sx, sy) = self.coords(id);
        [(-1, 0), (1, 0), (0, -1), (0, 1)]
            .iter()
            .filter_map(|&(dx, dy)| {
                let (nx, ny) = (sx + dx, sy + dy);
                self.in_bounds(nx, ny).then(|| self.id(nx, ny))
            })
            .collect()
    }

    /// All SD ids in row-major order.
    pub fn ids(&self) -> impl Iterator<Item = SdId> {
        0..self.count() as SdId
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_mesh_divides_exactly() {
        let g = SdGrid::tile_mesh(400, 400, 50);
        assert_eq!(g.nsx, 8);
        assert_eq!(g.nsy, 8);
        assert_eq!(g.count(), 64);
        assert_eq!(g.cells_per_sd(), 2500);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn tile_mesh_rejects_uneven() {
        SdGrid::tile_mesh(100, 100, 33);
    }

    #[test]
    fn id_coords_roundtrip() {
        let g = SdGrid::new(5, 5, 4);
        for id in g.ids() {
            let (sx, sy) = g.coords(id);
            assert_eq!(g.id(sx, sy), id);
        }
    }

    #[test]
    fn rect_and_origin() {
        let g = SdGrid::new(5, 5, 4);
        let id = g.id(2, 3);
        assert_eq!(g.origin(id), (8, 12));
        assert_eq!(g.rect(id), Rect::new(8, 12, 4, 4));
    }

    #[test]
    fn adjacency_counts() {
        let g = SdGrid::new(3, 3, 2);
        assert_eq!(g.adjacent4(g.id(1, 1)).len(), 4);
        assert_eq!(g.adjacent4(g.id(0, 0)).len(), 2);
        assert_eq!(g.adjacent4(g.id(1, 0)).len(), 3);
    }

    #[test]
    fn single_sd_grid() {
        let g = SdGrid::new(1, 1, 10);
        assert_eq!(g.count(), 1);
        assert!(g.adjacent4(0).is_empty());
    }
}
