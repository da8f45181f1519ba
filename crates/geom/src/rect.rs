//! Axis-aligned rectangles (bounding boxes).

use crate::point::Point;
use crate::{GeomError, Result};

/// An axis-aligned rectangle, the workhorse bounding-box type.
///
/// Rectangles are the currency of the R*-tree, of spatial declustering
/// (shapes are mapped to grid tiles by their bounding box, paper §2.7.1),
/// and of the PBSM spatial join's filter phase. The paper notes that one can
/// "simply replicate the bounding box of the spatial feature (which
/// complicates query processing)" — our declustering replicates full tuples,
/// but bounding boxes still drive all filter steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner (minimum x and y).
    pub lo: Point,
    /// Upper-right corner (maximum x and y).
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// Returns [`GeomError::InvertedRect`] if `lo` exceeds `hi` on either
    /// axis, and [`GeomError::NonFiniteCoordinate`] for NaN/infinite corners.
    pub fn new(lo: Point, hi: Point) -> Result<Self> {
        crate::check_finite(&[lo, hi])?;
        if lo.x > hi.x || lo.y > hi.y {
            return Err(GeomError::InvertedRect);
        }
        Ok(Rect { lo, hi })
    }

    /// Creates a rectangle from any two opposite corners, swapping
    /// coordinates as needed.
    pub fn from_corners(a: Point, b: Point) -> Result<Self> {
        Rect::new(Point::new(a.x.min(b.x), a.y.min(b.y)), Point::new(a.x.max(b.x), a.y.max(b.y)))
    }

    /// The smallest rectangle enclosing all `points`.
    ///
    /// Returns `None` for an empty slice.
    pub fn hull_of(points: &[Point]) -> Option<Self> {
        Rect::hull(points.iter().copied())
    }

    /// [`Rect::hull_of`] over points produced one at a time (e.g. read in
    /// place from an encoded record); same folds in the same order, so the
    /// result is bit-identical for the same point sequence.
    pub fn hull(points: impl IntoIterator<Item = Point>) -> Option<Self> {
        let mut points = points.into_iter();
        let first = points.next()?;
        let mut lo = first;
        let mut hi = first;
        for p in points {
            lo.x = lo.x.min(p.x);
            lo.y = lo.y.min(p.y);
            hi.x = hi.x.max(p.x);
            hi.y = hi.y.max(p.y);
        }
        Some(Rect { lo, hi })
    }

    /// Width (x extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Height (y extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Perimeter (margin), used by the R*-tree split heuristic.
    #[inline]
    pub fn margin(&self) -> f64 {
        2.0 * (self.width() + self.height())
    }

    /// Geometric center.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) / 2.0, (self.lo.y + self.hi.y) / 2.0)
    }

    /// True if the rectangles share any area or boundary (closed-set
    /// semantics: touching rectangles intersect).
    ///
    /// ```
    /// use paradise_geom::{Point, Rect};
    ///
    /// let r = |x0, y0, x1, y1| Rect::from_corners(Point::new(x0, y0), Point::new(x1, y1)).unwrap();
    /// assert!(r(0.0, 0.0, 2.0, 2.0).intersects(&r(1.0, 1.0, 3.0, 3.0)));
    /// assert!(r(0.0, 0.0, 1.0, 1.0).intersects(&r(1.0, 1.0, 2.0, 2.0))); // touching corners
    /// assert!(!r(0.0, 0.0, 1.0, 1.0).intersects(&r(2.0, 2.0, 3.0, 3.0)));
    /// ```
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// True if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// True if `other` lies entirely inside (or on the boundary of) `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && self.hi.x >= other.hi.x
            && self.hi.y >= other.hi.y
    }

    /// The intersection rectangle, or `None` when disjoint.
    ///
    /// The lower-left corner of this rectangle is the PBSM *reference
    /// point* used by the spatial join to report each candidate pair
    /// exactly once (see `paradise_exec::ops::spatial_join`).
    ///
    /// ```
    /// use paradise_geom::{Point, Rect};
    ///
    /// let a = Rect::from_corners(Point::new(0.0, 0.0), Point::new(4.0, 4.0)).unwrap();
    /// let b = Rect::from_corners(Point::new(2.0, 1.0), Point::new(6.0, 3.0)).unwrap();
    /// let ix = a.intersection(&b).unwrap();
    /// assert_eq!((ix.lo.x, ix.lo.y, ix.hi.x, ix.hi.y), (2.0, 1.0, 4.0, 3.0));
    /// let far = Rect::from_corners(Point::new(9.0, 9.0), Point::new(10.0, 10.0)).unwrap();
    /// assert!(a.intersection(&far).is_none());
    /// ```
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            lo: Point::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            hi: Point::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        })
    }

    /// Smallest rectangle covering both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Area of overlap with `other` (0 when disjoint).
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        match self.intersection(other) {
            Some(r) => r.area(),
            None => 0.0,
        }
    }

    /// How much `self`'s area grows if enlarged to cover `other`
    /// (the R*-tree `ChooseSubtree` cost).
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Minimum distance from `p` to this rectangle (0 if inside).
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Minimum distance between two rectangles (0 if they intersect).
    pub fn distance_to_rect(&self, other: &Rect) -> f64 {
        let dx = (self.lo.x - other.hi.x).max(0.0).max(other.lo.x - self.hi.x);
        let dy = (self.lo.y - other.hi.y).max(0.0).max(other.lo.y - self.hi.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// The four corners, counter-clockwise starting at `lo`.
    pub fn corners(&self) -> [Point; 4] {
        [self.lo, Point::new(self.hi.x, self.lo.y), self.hi, Point::new(self.lo.x, self.hi.y)]
    }

    /// Expands the rectangle by `pad` on every side.
    pub fn expand(&self, pad: f64) -> Rect {
        Rect {
            lo: Point::new(self.lo.x - pad, self.lo.y - pad),
            hi: Point::new(self.hi.x + pad, self.hi.y + pad),
        }
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1)).unwrap()
    }

    #[test]
    fn rejects_inverted() {
        assert_eq!(
            Rect::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0)),
            Err(GeomError::InvertedRect)
        );
    }

    #[test]
    fn rejects_nan() {
        assert_eq!(
            Rect::new(Point::new(f64::NAN, 0.0), Point::new(1.0, 1.0)),
            Err(GeomError::NonFiniteCoordinate)
        );
    }

    #[test]
    fn from_corners_normalizes() {
        let a = Rect::from_corners(Point::new(5.0, -1.0), Point::new(2.0, 3.0)).unwrap();
        assert_eq!(a, r(2.0, -1.0, 5.0, 3.0));
    }

    #[test]
    fn hull_of_points() {
        let pts = [Point::new(1.0, 5.0), Point::new(-2.0, 0.0), Point::new(4.0, 2.0)];
        assert_eq!(Rect::hull_of(&pts).unwrap(), r(-2.0, 0.0, 4.0, 5.0));
        assert_eq!(Rect::hull_of(&[]), None);
    }

    #[test]
    fn intersection_and_union() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(2.0, 2.0, 6.0, 6.0);
        assert_eq!(a.intersection(&b).unwrap(), r(2.0, 2.0, 4.0, 4.0));
        assert_eq!(a.union(&b), r(0.0, 0.0, 6.0, 6.0));
        assert_eq!(a.overlap_area(&b), 4.0);
    }

    #[test]
    fn disjoint_rects() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection(&b), None);
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn touching_rects_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
        assert!(outer.contains_point(&Point::new(0.0, 10.0)));
        assert!(!outer.contains_point(&Point::new(-0.1, 5.0)));
    }

    #[test]
    fn distances() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.distance_to_point(&Point::new(0.5, 0.5)), 0.0);
        assert_eq!(a.distance_to_point(&Point::new(4.0, 5.0)), 5.0);
        let b = r(4.0, 5.0, 6.0, 7.0);
        assert_eq!(a.distance_to_rect(&b), 5.0);
        assert_eq!(a.distance_to_rect(&a), 0.0);
    }

    #[test]
    fn enlargement_cost() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(3.0, 0.0, 4.0, 2.0);
        // union is 4x2 = 8, a is 4 => enlargement 4
        assert_eq!(a.enlargement(&b), 4.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn margin_and_expand() {
        let a = r(0.0, 0.0, 2.0, 3.0);
        assert_eq!(a.margin(), 10.0);
        assert_eq!(a.expand(1.0), r(-1.0, -1.0, 3.0, 4.0));
    }
}
