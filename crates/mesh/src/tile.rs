//! Per-SD padded field storage.
//!
//! Each sub-domain stores its `sd × sd` interior plus a halo ring of width
//! `halo` cells holding ghost copies of neighbour data (or the collar's
//! zeros). Indices are SD-local: interior `[0, sd)`, full tile
//! `[-halo, sd + halo)`.
//!
//! Several tasks may write pairwise disjoint rects of one tile at once: a
//! [`TileWriter`] exclusively borrows the tile and hands each rect of a
//! [`DisjointRects`] list out at most once, as a [`RectMut`] written row
//! by row through bounds-checked slices. Its one raw access, a row slice
//! of a rect no one else holds, is the only place disjointness is relied
//! on.

use crate::rect::Rect;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

/// A square tile of `f64` values with halo padding.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    sd: i64,
    halo: i64,
    stride: i64,
    data: Vec<f64>,
}

impl Tile {
    /// A zero-initialized tile for `sd` interior cells per side and halo
    /// width `halo`.
    pub fn new(sd: i64, halo: i64) -> Self {
        assert!(sd > 0 && halo >= 0);
        let stride = sd + 2 * halo;
        Tile {
            sd,
            halo,
            stride,
            data: vec![0.0; (stride * stride) as usize],
        }
    }

    /// Interior cells per side.
    pub fn sd(&self) -> i64 {
        self.sd
    }

    /// Halo width in cells.
    pub fn halo(&self) -> i64 {
        self.halo
    }

    /// Row stride of the underlying storage.
    pub fn stride(&self) -> i64 {
        self.stride
    }

    /// The interior as a local-coordinate rectangle.
    pub fn interior_rect(&self) -> Rect {
        Rect::new(0, 0, self.sd, self.sd)
    }

    /// The full padded extent as a local-coordinate rectangle.
    pub fn padded_rect(&self) -> Rect {
        Rect::new(-self.halo, -self.halo, self.stride, self.stride)
    }

    #[inline]
    fn index(&self, li: i64, lj: i64) -> usize {
        debug_assert!(
            li >= -self.halo && li < self.sd + self.halo,
            "li={li} out of tile"
        );
        debug_assert!(
            lj >= -self.halo && lj < self.sd + self.halo,
            "lj={lj} out of tile"
        );
        ((lj + self.halo) * self.stride + (li + self.halo)) as usize
    }

    /// The rect entry points' bounds check. [`index`](Self::index) only
    /// `debug_assert!`s its coordinates, and a storage offset computed from
    /// a column past the halo is *in bounds* — of the next row — so without
    /// this a release build would silently read or write a neighbour's
    /// cells. Once per rect, not per row or cell.
    ///
    /// # Panics
    /// If `rect` has a negative extent, or is not empty and not inside
    /// [`padded_rect`](Self::padded_rect).
    #[inline]
    pub(crate) fn assert_holds(&self, rect: &Rect) {
        // without overflow: `Rect`'s fields are public, and the `x0 + w`
        // of an arbitrary one may wrap
        let (lo, hi) = (-self.halo, self.sd + self.halo);
        let fits = |a0: i64, n: i64| a0 >= lo && n <= hi - a0;
        assert!(
            rect.w >= 0
                && rect.h >= 0
                && (rect.is_empty() || fits(rect.x0, rect.w) && fits(rect.y0, rect.h)),
            "rect {rect:?} is not inside the tile's padded extent {:?}",
            self.padded_rect()
        );
    }

    /// Read the value at local `(li, lj)` (halo cells allowed).
    #[inline]
    pub fn get(&self, li: i64, lj: i64) -> f64 {
        self.data[self.index(li, lj)]
    }

    /// Write the value at local `(li, lj)` (halo cells allowed).
    #[inline]
    pub fn set(&mut self, li: i64, lj: i64, v: f64) {
        let idx = self.index(li, lj);
        self.data[idx] = v;
    }

    /// Raw storage (row-major, padded) — used by the compute kernel.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Storage index of local `(li, lj)` — pairs with [`data`](Self::data)
    /// for kernel inner loops.
    #[inline]
    pub fn storage_index(&self, li: i64, lj: i64) -> usize {
        self.index(li, lj)
    }

    /// Copy the cells of `rect` (local coordinates) into a row-major vector.
    ///
    /// # Panics
    /// Panics if `rect` leaves the padded extent.
    pub fn pack(&self, rect: &Rect) -> Vec<f64> {
        self.assert_holds(rect);
        let mut out = Vec::with_capacity(rect.area() as usize);
        for lj in rect.y0..rect.y1() {
            let row = self.index(rect.x0, lj);
            out.extend_from_slice(&self.data[row..row + rect.w as usize]);
        }
        out
    }

    /// The rows of `rect` (local coordinates) as borrowed slices, top to
    /// bottom — lets codecs stream a rectangle straight off the strided
    /// storage without the intermediate vector [`pack`](Self::pack) builds.
    ///
    /// # Panics
    /// Panics if `rect` leaves the padded extent.
    pub fn rect_rows(&self, rect: &Rect) -> impl Iterator<Item = &[f64]> {
        self.assert_holds(rect);
        let w = rect.w as usize;
        let first = self.index(rect.x0, rect.y0);
        self.data[first..]
            .chunks(self.stride as usize)
            .take(rect.h as usize)
            .map(move |row| &row[..w])
    }

    /// Mutable counterpart of [`rect_rows`](Self::rect_rows): the rows of
    /// `rect` as mutable slices, for decoding payloads straight into the
    /// tile without an intermediate vector.
    ///
    /// # Panics
    /// Panics if `rect` leaves the padded extent.
    pub fn rect_rows_mut(&mut self, rect: &Rect) -> impl Iterator<Item = &mut [f64]> {
        self.assert_holds(rect);
        let w = rect.w as usize;
        let first = self.index(rect.x0, rect.y0);
        self.data[first..]
            .chunks_mut(self.stride as usize)
            .take(rect.h as usize)
            .map(move |row| &mut row[..w])
    }

    /// `rect` (local coordinates) as a [`RectMut`]; an empty `rect`, which
    /// may lie anywhere, as [`Rect::empty`].
    ///
    /// # Panics
    /// If `rect` leaves the padded extent.
    pub fn rect_mut(&mut self, rect: &Rect) -> RectMut<'_> {
        self.assert_holds(rect);
        let rect = if rect.is_empty() {
            Rect::empty()
        } else {
            *rect
        };
        let (stride, halo) = (self.stride(), self.halo());
        RectMut {
            data: self.data_mut().as_mut_ptr(),
            stride,
            halo,
            rect,
            _cells: PhantomData,
        }
    }

    /// Copy `src_rect` from another tile into this tile at `dst_rect`
    /// (rect shapes must match). Used for same-locality halo fills where no
    /// serialization is needed.
    ///
    /// # Panics
    /// Panics if the shapes differ or either rect leaves its tile's padded
    /// extent.
    pub fn copy_rect_from(&mut self, src: &Tile, src_rect: &Rect, dst_rect: &Rect) {
        assert!(
            (src_rect.w, src_rect.h) == (dst_rect.w, dst_rect.h),
            "copy_rect_from: {src_rect:?} and {dst_rect:?} differ in shape"
        );
        src.assert_holds(src_rect);
        self.assert_holds(dst_rect);
        for dy in 0..src_rect.h {
            let s = src.index(src_rect.x0, src_rect.y0 + dy);
            let d = self.index(dst_rect.x0, dst_rect.y0 + dy);
            let w = src_rect.w as usize;
            // Split borrows via split_at_mut is unnecessary: different tiles.
            let (src_slice, dst_slice) = (&src.data[s..s + w], &mut self.data[d..d + w]);
            dst_slice.copy_from_slice(src_slice);
        }
    }
}

/// Pairwise disjoint, non-empty rects of a tile of one geometry, with a
/// claim flag each.
pub struct DisjointRects {
    geometry: (i64, i64),
    rects: Vec<Rect>,
    claimed: Vec<AtomicBool>,
}

impl DisjointRects {
    /// `rects`, checked against `tile`'s geometry.
    ///
    /// # Panics
    /// If a rect is empty, has a negative extent, leaves `tile`'s padded
    /// extent, or overlaps another.
    pub fn new(tile: &Tile, rects: impl IntoIterator<Item = Rect>) -> Self {
        let rects: Vec<Rect> = rects.into_iter().collect();
        for (i, a) in rects.iter().enumerate() {
            assert!(!a.is_empty(), "a writer's rect is empty");
            tile.assert_holds(a);
            if let Some(b) = rects[..i].iter().find(|b| !a.intersect(b).is_empty()) {
                panic!("rects {b:?} and {a:?} of one tile overlap");
            }
        }
        DisjointRects {
            geometry: (tile.sd(), tile.halo()),
            claimed: rects.iter().map(|_| AtomicBool::new(false)).collect(),
            rects,
        }
    }
}

/// A tile lent to tasks that write the rects of a [`DisjointRects`], each
/// rect once.
pub struct TileWriter<'t> {
    tile: RectMut<'t>,
    rects: &'t DisjointRects,
}

// SAFETY: only `tile`'s raw pointer keeps `TileWriter` from being `Sync`.
// Shared, the writer hands that pointer out only inside the `RectMut` of
// a claimed rect: `rects`' claim flags are atomic, each rect is claimed
// once, and the rects are pairwise disjoint, so no two threads ever hold
// the same cell. `rects` is otherwise only read.
unsafe impl Sync for TileWriter<'_> {}

impl<'t> TileWriter<'t> {
    /// Lend `tile` to the claims of `rects`, all of them open.
    ///
    /// # Panics
    /// If `tile`'s geometry is not the one `rects` were checked against.
    pub fn new(tile: &'t mut Tile, rects: &'t mut DisjointRects) -> Self {
        assert!(
            (tile.sd(), tile.halo()) == rects.geometry,
            "the written tile and its rects differ in geometry: stride or halo"
        );
        rects.claimed.iter_mut().for_each(|c| *c.get_mut() = false);
        // the tile's storage, lent out one claimed rect at a time
        let tile = tile.rect_mut(&Rect::empty());
        TileWriter { tile, rects }
    }

    /// The `i`-th rect of the writer's list.
    ///
    /// # Panics
    /// If it was claimed before, or there is none.
    pub fn claim(&self, i: usize) -> RectMut<'_> {
        let (rect, claimed) = (self.rects.rects[i], &self.rects.claimed[i]);
        // Relaxed: the flag publishes nothing; a claimed rect is its claimer's
        let twice = claimed.swap(true, Ordering::Relaxed);
        assert!(!twice, "rect {i}, {rect:?}, claimed twice");
        RectMut { rect, ..self.tile }
    }
}

/// Out of line, so that the checks on the kernel's hot path inline.
#[cold]
#[inline(never)]
fn outside(li: i64, lj: i64, n: usize, rect: Rect) -> ! {
    panic!("cells ({li}, {lj}) + {n} leave rect {rect:?}")
}

/// The cells of one rect of a tile, held exclusively: written row by row.
pub struct RectMut<'w> {
    /// The tile's storage, in rows of `stride`.
    data: *mut f64,
    stride: i64,
    halo: i64,
    rect: Rect,
    _cells: PhantomData<&'w mut [f64]>,
}

impl RectMut<'_> {
    /// The rect, in tile-local coordinates.
    #[inline]
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// The tile's `(stride, halo)`.
    #[inline]
    pub fn geometry(&self) -> (i64, i64) {
        (self.stride, self.halo)
    }

    /// The `n` cells of row `lj` from column `li` (tile-local).
    ///
    /// # Panics
    /// Unless they lie inside the rect.
    #[inline]
    pub fn cells(&mut self, li: i64, lj: i64, n: usize) -> &mut [f64] {
        let r = self.rect;
        // a coordinate before the rect's first wraps to a huge offset
        let (dx, dy) = (li.wrapping_sub(r.x0) as u64, lj.wrapping_sub(r.y0) as u64);
        if dy >= r.h as u64 || dx.saturating_add(n as u64) > r.w as u64 {
            outside(li, lj, n, r);
        }
        let start = ((lj + self.halo) * self.stride + li + self.halo) as usize;
        // SAFETY: the cells lie inside this rect (checked, without
        // wrapping), and the rect, its extents not negative, inside the
        // tile's storage: `Tile::rect_mut` asserts that, and a `TileWriter`
        // hands out only rects `DisjointRects::new` checked against a tile
        // of this geometry. The storage is exclusively borrowed for `'w`
        // — by `Tile::rect_mut`'s `&mut Tile`, or by a `TileWriter` that
        // lends each of its pairwise disjoint rects to one holder only —
        // and borrowing `self` for the slice's life keeps two slices of
        // one `RectMut` from aliasing either.
        unsafe { std::slice::from_raw_parts_mut(self.data.add(start), n) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tile {
        /// Set every cell of `rect` (local coords) to `value`.
        pub(crate) fn fill_rect(&mut self, rect: &Rect, value: f64) {
            self.assert_holds(rect);
            for lj in rect.y0..rect.y1() {
                let row = self.index(rect.x0, lj);
                self.data[row..row + rect.w as usize].fill(value);
            }
        }
    }

    #[test]
    fn new_tile_is_zero() {
        let t = Tile::new(4, 2);
        assert_eq!(t.data().len(), 64);
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(-2, -2), 0.0);
        assert_eq!(t.get(5, 5), 0.0);
    }

    #[test]
    fn set_get_interior_and_halo() {
        let mut t = Tile::new(4, 2);
        t.set(0, 0, 1.5);
        t.set(-2, 3, 2.5);
        t.set(5, -1, 3.5);
        assert_eq!(t.get(0, 0), 1.5);
        assert_eq!(t.get(-2, 3), 2.5);
        assert_eq!(t.get(5, -1), 3.5);
    }

    #[test]
    fn pack_roundtrip() {
        let mut a = Tile::new(6, 2);
        for lj in 0..6 {
            for li in 0..6 {
                a.set(li, lj, (10 * li + lj) as f64);
            }
        }
        let rect = Rect::new(1, 2, 3, 2);
        let packed = a.pack(&rect);
        assert_eq!(packed.len(), 6);
        let mut b = Tile::new(6, 2);
        for ((x, y), v) in rect.cells().zip(packed) {
            b.set(x, y, v);
        }
        for (x, y) in rect.cells() {
            assert_eq!(b.get(x, y), a.get(x, y));
        }
    }

    #[test]
    fn rect_rows_match_pack() {
        let mut t = Tile::new(6, 2);
        for (i, (x, y)) in t.padded_rect().cells().enumerate() {
            t.set(x, y, i as f64);
        }
        for rect in [
            Rect::new(1, 2, 3, 2),
            Rect::new(-2, 0, 2, 6), // left halo strip
            Rect::new(0, 6, 6, 2),  // top halo strip
            Rect::new(4, 4, 4, 4),  // bottom-right corner incl. halo end
        ] {
            let packed = t.pack(&rect);
            let streamed: Vec<f64> = t.rect_rows(&rect).flatten().copied().collect();
            assert_eq!(streamed, packed, "rect {rect:?}");
        }
    }

    #[test]
    fn rect_rows_mut_writes_like_set_row_major() {
        let rect = Rect::new(-1, 0, 2, 3);
        let values: Vec<f64> = (0..6).map(f64::from).collect();
        let mut a = Tile::new(4, 1);
        for ((x, y), v) in rect.cells().zip(&values) {
            a.set(x, y, *v);
        }
        let mut b = Tile::new(4, 1);
        let mut it = values.iter();
        for row in b.rect_rows_mut(&rect) {
            for v in row {
                *v = *it.next().unwrap();
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn pack_row_major_order() {
        let mut t = Tile::new(3, 1);
        t.set(0, 0, 1.0);
        t.set(1, 0, 2.0);
        t.set(0, 1, 3.0);
        t.set(1, 1, 4.0);
        assert_eq!(t.pack(&Rect::new(0, 0, 2, 2)), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn rect_rows_mut_reach_the_halo_region() {
        let mut t = Tile::new(4, 2);
        let halo_rect = Rect::new(-2, 0, 2, 4);
        let values = (0..8).map(f64::from);
        for (cell, v) in t.rect_rows_mut(&halo_rect).flatten().zip(values) {
            *cell = v;
        }
        assert_eq!(t.get(-2, 0), 0.0);
        assert_eq!(t.get(-1, 0), 1.0);
        assert_eq!(t.get(-2, 3), 6.0);
        // interior untouched
        assert_eq!(t.get(0, 0), 0.0);
    }

    #[test]
    fn copy_rect_between_tiles() {
        let mut src = Tile::new(4, 1);
        src.fill_rect(&Rect::new(0, 0, 4, 4), 7.0);
        let mut dst = Tile::new(4, 1);
        // copy src's rightmost column into dst's left halo
        dst.copy_rect_from(&src, &Rect::new(3, 0, 1, 4), &Rect::new(-1, 0, 1, 4));
        assert_eq!(dst.get(-1, 0), 7.0);
        assert_eq!(dst.get(-1, 3), 7.0);
        assert_eq!(dst.get(0, 0), 0.0);
    }

    /// A 2x2 rect one cell past each edge of a `Tile::new(4, 2)` (padded
    /// extent `[-2, 6)` both ways). Past the left and right edges every
    /// storage offset is still in bounds — of a neighbouring row — so only
    /// the containment check stands between such a rect and a silent wrong
    /// copy in a release build.
    fn off_edge() -> [(&'static str, Rect); 4] {
        [
            ("left", Rect::new(-3, 0, 2, 2)),
            ("right", Rect::new(5, 0, 2, 2)),
            ("below", Rect::new(0, -3, 2, 2)),
            ("above", Rect::new(0, 5, 2, 2)),
        ]
    }

    macro_rules! off_edge_panics {
        ($($name:ident: $edge:literal, $call:expr;)*) => {$(
            #[test]
            #[should_panic(expected = "is not inside the tile's padded extent")]
            fn $name() {
                let mut t = Tile::new(4, 2);
                let (_, rect) = off_edge()[$edge];
                let call: fn(&mut Tile, &Rect) -> usize = $call;
                call(&mut t, &rect);
            }
        )*};
    }

    off_edge_panics! {
        rect_rows_off_the_left_edge_panics: 0, |t, r| t.rect_rows(r).count();
        rect_rows_off_the_right_edge_panics: 1, |t, r| t.rect_rows(r).count();
        rect_rows_off_the_bottom_edge_panics: 2, |t, r| t.rect_rows(r).count();
        rect_rows_off_the_top_edge_panics: 3, |t, r| t.rect_rows(r).count();
        rect_rows_mut_off_the_left_edge_panics: 0, |t, r| t.rect_rows_mut(r).count();
        rect_rows_mut_off_the_right_edge_panics: 1, |t, r| t.rect_rows_mut(r).count();
        rect_rows_mut_off_the_bottom_edge_panics: 2, |t, r| t.rect_rows_mut(r).count();
        rect_rows_mut_off_the_top_edge_panics: 3, |t, r| t.rect_rows_mut(r).count();
    }

    #[test]
    fn every_rect_entry_point_refuses_a_rect_off_the_tile() {
        let inside = Rect::new(0, 0, 2, 2);
        type Call = fn(&mut Tile, &Rect);
        let calls: [(&str, Call); 4] = [
            ("pack", |t, r| drop(t.pack(r))),
            ("rect_mut", |t, r| {
                t.rect_mut(r);
            }),
            ("copy_rect_from (source)", |t, r| {
                let src = t.clone();
                t.copy_rect_from(&src, r, &Rect::new(0, 0, 2, 2));
            }),
            ("copy_rect_from (destination)", |t, r| {
                let src = t.clone();
                t.copy_rect_from(&src, &Rect::new(0, 0, 2, 2), r);
            }),
        ];
        for (what, call) in calls {
            let mut t = Tile::new(4, 2);
            call(&mut t, &inside);
            for (edge, rect) in off_edge() {
                let mut t = Tile::new(4, 2);
                let outcome = std::panic::catch_unwind(move || {
                    call(&mut t, &rect);
                    t
                });
                let message = match outcome {
                    Ok(_) => panic!("{what} accepted a rect off the {edge} edge"),
                    Err(payload) => *payload.downcast::<String>().expect("a formatted panic"),
                };
                assert!(
                    message.contains("is not inside the tile's padded extent"),
                    "{what}, {edge} edge: {message}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "differ in shape")]
    fn copy_rect_of_another_shape_panics() {
        let src = Tile::new(4, 2);
        let mut dst = Tile::new(4, 2);
        dst.copy_rect_from(&src, &Rect::new(0, 0, 2, 3), &Rect::new(0, 0, 3, 2));
    }

    /// The rects of a 4-cell tile's interior cut into a left strip and two
    /// right halves.
    fn cut() -> [Rect; 3] {
        [
            Rect::new(0, 0, 1, 4),
            Rect::new(1, 0, 3, 2),
            Rect::new(1, 2, 3, 2),
        ]
    }

    #[test]
    fn claimed_rects_write_their_own_cells_from_several_threads() {
        let mut tile = Tile::new(4, 2);
        let mut rects = DisjointRects::new(&tile, cut());
        let writer = TileWriter::new(&mut tile, &mut rects);
        std::thread::scope(|s| {
            for (k, rect) in cut().into_iter().enumerate() {
                let writer = &writer;
                s.spawn(move || {
                    let mut out = writer.claim(k);
                    for lj in rect.y0..rect.y1() {
                        out.cells(rect.x0, lj, rect.w as usize).fill(k as f64 + 1.0);
                    }
                });
            }
        });
        let mut want = Tile::new(4, 2);
        for (k, rect) in cut().iter().enumerate() {
            want.fill_rect(rect, k as f64 + 1.0);
        }
        assert_eq!(tile, want);
    }

    #[test]
    fn a_new_writer_reopens_every_claim() {
        let mut tile = Tile::new(4, 2);
        let mut rects = DisjointRects::new(&tile, cut());
        for _step in 0..2 {
            let writer = TileWriter::new(&mut tile, &mut rects);
            for (i, rect) in cut().iter().enumerate() {
                writer.claim(i).cells(rect.x0, rect.y0, 1)[0] = 1.0;
            }
        }
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn a_second_claim_of_a_rect_panics() {
        let mut tile = Tile::new(4, 2);
        let mut rects = DisjointRects::new(&tile, cut());
        let writer = TileWriter::new(&mut tile, &mut rects);
        let _first = writer.claim(1);
        let _second = writer.claim(1);
    }

    #[test]
    #[should_panic(expected = "of one tile overlap")]
    fn overlapping_rects_are_refused() {
        let tile = Tile::new(4, 2);
        let _ = DisjointRects::new(&tile, [Rect::new(0, 0, 2, 2), Rect::new(1, 1, 2, 2)]);
    }

    #[test]
    #[should_panic(expected = "is not inside the tile's padded extent")]
    fn a_rect_off_the_tile_is_refused() {
        let tile = Tile::new(4, 2);
        let _ = DisjointRects::new(&tile, [Rect::new(5, 0, 2, 2)]);
    }

    /// Rects a struct literal can build past `Rect::new`'s clamp: negative
    /// extents, which a `== 0` emptiness test and the intersection's clamp
    /// let through, and an `x0 + w` that wraps.
    fn malformed() -> [Rect; 3] {
        let rect = |x0, w, h| Rect { x0, y0: 0, w, h };
        [rect(0, -1, -1), rect(0, -1, 2), rect(i64::MAX - 1, 10, 1)]
    }

    #[test]
    fn malformed_rects_are_refused_where_writes_begin() {
        for rect in malformed() {
            let refused = |call: &dyn Fn()| {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call));
                let payload = outcome.expect_err("a malformed rect was accepted");
                let message = *payload.downcast::<String>().expect("a formatted panic");
                assert!(
                    message.contains("is not inside the tile's padded extent"),
                    "{message}"
                );
            };
            refused(&|| {
                Tile::new(4, 2).rect_mut(&rect);
            });
            refused(&|| drop(DisjointRects::new(&Tile::new(4, 2), [rect])));
        }
    }

    #[test]
    #[should_panic(expected = "leave rect")]
    fn cells_past_the_rect_end_panic_without_wrapping() {
        let mut tile = Tile::new(4, 2);
        let r = cut()[1];
        let _ = tile.rect_mut(&r).cells(r.x0 + 1, r.y0, usize::MAX);
    }

    #[test]
    #[should_panic(expected = "leave rect")]
    fn cells_from_before_the_rect_panic_without_wrapping() {
        // column x0 - 1 wraps to a huge offset, which `+ 2` must not undo
        let mut tile = Tile::new(4, 2);
        let r = cut()[1];
        let _ = tile.rect_mut(&r).cells(r.x0 - 1, r.y0, 2);
    }

    #[test]
    #[should_panic(expected = "differ in geometry: stride or halo")]
    fn next_of_another_geometry_is_refused() {
        // equal strides, so every offset is in bounds — but of the wrong
        // cells: refused before any rect is handed out, let alone written
        let curr = Tile::new(10, 2);
        let mut next = Tile::new(8, 3);
        assert_eq!(curr.stride(), next.stride());
        let mut rects = DisjointRects::new(&curr, cut());
        let _ = TileWriter::new(&mut next, &mut rects);
    }

    #[test]
    #[should_panic(expected = "cells (1, 2) + 3 leave rect")]
    fn cells_outside_the_rect_panic() {
        let mut tile = Tile::new(4, 2);
        let mut rects = DisjointRects::new(&tile, cut());
        let writer = TileWriter::new(&mut tile, &mut rects);
        let _ = writer.claim(1).cells(1, 2, 3);
    }
}
