//! Axis-aligned integer cell rectangles.

/// A half-open rectangle of cells: `x ∈ [x0, x0+w)`, `y ∈ [y0, y0+h)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    pub x0: i64,
    pub y0: i64,
    pub w: i64,
    pub h: i64,
}

impl Rect {
    /// Construct; negative extents are clamped to empty.
    pub fn new(x0: i64, y0: i64, w: i64, h: i64) -> Self {
        Rect {
            x0,
            y0,
            w: w.max(0),
            h: h.max(0),
        }
    }

    /// The empty rectangle at the origin.
    pub fn empty() -> Self {
        Rect::new(0, 0, 0, 0)
    }

    /// Number of cells.
    pub fn area(&self) -> i64 {
        self.w * self.h
    }

    /// True when no cells are covered.
    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// Exclusive upper x bound.
    pub fn x1(&self) -> i64 {
        self.x0 + self.w
    }

    /// Exclusive upper y bound.
    pub fn y1(&self) -> i64 {
        self.y0 + self.h
    }

    /// Intersection (empty rect if disjoint).
    pub fn intersect(&self, other: &Rect) -> Rect {
        let x0 = self.x0.max(other.x0);
        let y0 = self.y0.max(other.y0);
        let x1 = self.x1().min(other.x1());
        let y1 = self.y1().min(other.y1());
        Rect::new(x0, y0, x1 - x0, y1 - y0)
    }

    /// Whether `(x, y)` lies inside.
    pub(crate) fn contains(&self, x: i64, y: i64) -> bool {
        x >= self.x0 && x < self.x1() && y >= self.y0 && y < self.y1()
    }

    /// The rectangle shifted by `(dx, dy)`.
    pub(crate) fn translate(&self, dx: i64, dy: i64) -> Rect {
        Rect::new(self.x0 + dx, self.y0 + dy, self.w, self.h)
    }

    /// Row-major iterator over `(x, y)` cells.
    pub fn cells(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        let r = *self;
        (r.y0..r.y1()).flat_map(move |y| (r.x0..r.x1()).map(move |x| (x, y)))
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (other.x0 >= self.x0
                && other.x1() <= self.x1()
                && other.y0 >= self.y0
                && other.y1() <= self.y1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_bounds() {
        let r = Rect::new(2, 3, 4, 5);
        assert_eq!(r.area(), 20);
        assert_eq!(r.x1(), 6);
        assert_eq!(r.y1(), 8);
        assert!(!r.is_empty());
    }

    #[test]
    fn negative_extent_clamps_to_empty() {
        let r = Rect::new(0, 0, -3, 5);
        assert!(r.is_empty());
        assert_eq!(r.area(), 0);
    }

    #[test]
    fn intersect_overlapping() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Rect::new(5, 5, 5, 5));
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(10, 10, 2, 2);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn contains_half_open() {
        let r = Rect::new(0, 0, 3, 3);
        assert!(r.contains(0, 0));
        assert!(r.contains(2, 2));
        assert!(!r.contains(3, 0));
        assert!(!r.contains(-1, 0));
    }

    #[test]
    fn translate_moves_origin() {
        let r = Rect::new(1, 1, 2, 2).translate(-3, 4);
        assert_eq!(r, Rect::new(-2, 5, 2, 2));
    }

    #[test]
    fn cells_iterates_row_major() {
        let r = Rect::new(0, 0, 2, 2);
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(cells, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn contains_rect_edge_cases() {
        let outer = Rect::new(0, 0, 10, 10);
        assert!(outer.contains_rect(&Rect::new(0, 0, 10, 10)));
        assert!(outer.contains_rect(&Rect::empty()));
        assert!(!outer.contains_rect(&Rect::new(5, 5, 10, 1)));
    }
}
