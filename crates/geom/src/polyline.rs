//! The `polyline` spatial ADT.

use crate::algorithms::segment::{segments_intersect, Segment};
use crate::point::Point;
use crate::rect::Rect;
use crate::{GeomError, Result};

/// An open chain of line segments.
///
/// The benchmark's `roads` and `drainage` tables store their shapes as
/// polylines; Q13 joins two large polyline relations on `overlaps`
/// (segment crossing), and Q11/Q12 compute the closest polyline to a point.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    points: Vec<Point>,
    bbox: Rect,
}

impl Polyline {
    /// Creates a polyline from at least two vertices.
    pub fn new(points: Vec<Point>) -> Result<Self> {
        if points.len() < 2 {
            return Err(GeomError::DegeneratePolyline { got: points.len() });
        }
        crate::check_finite(&points)?;
        let bbox = Rect::hull_of(&points).expect("non-empty");
        Ok(Polyline { points, bbox })
    }

    /// The vertices in order.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of vertices.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Cached tight bounding box.
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Iterator over the line segments of the chain.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Total length of the chain.
    pub fn length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].distance(&w[1])).sum()
    }

    /// Minimum distance from `p` to the polyline.
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        chain_distance_to_point(self.points.iter().copied(), p)
    }

    /// True if any segment of `self` crosses or touches any segment of
    /// `other`. This is the `overlaps` predicate for polyline×polyline
    /// (benchmark Q13, "drainage features which cross a road").
    pub fn crosses(&self, other: &Polyline) -> bool {
        if !self.bbox.intersects(&other.bbox) {
            return false;
        }
        for a in self.segments() {
            // Per-segment bbox filter keeps the common disjoint case cheap.
            let ab = a.bbox();
            if !ab.intersects(&other.bbox) {
                continue;
            }
            for b in other.segments() {
                if ab.intersects(&b.bbox()) && segments_intersect(&a, &b) {
                    return true;
                }
            }
        }
        false
    }

    /// True if any part of the polyline lies within `rect` (a vertex inside,
    /// or a segment crossing the rectangle boundary).
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        if !self.bbox.intersects(rect) {
            return false;
        }
        if self.points.iter().any(|p| rect.contains_point(p)) {
            return true;
        }
        let edges = rect_edges(rect);
        self.segments().any(|s| edges.iter().any(|e| segments_intersect(&s, e)))
    }

    /// Minimum distance between two polylines (0 if they cross).
    pub fn distance_to_polyline(&self, other: &Polyline) -> f64 {
        if self.crosses(other) {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for a in self.segments() {
            for b in other.segments() {
                best = best.min(a.distance_to_segment(&b));
            }
        }
        best
    }
}

/// Minimum distance from `p` to the chain through `points`: each segment's
/// [`Segment::distance_to_point`] folded with `f64::min` in chain order.
/// [`Polyline::distance_to_point`] and scans reading vertices in place from
/// an encoded record share this kernel, so both give bit-identical results.
pub fn chain_distance_to_point(points: impl IntoIterator<Item = Point>, p: &Point) -> f64 {
    let mut points = points.into_iter();
    let Some(mut prev) = points.next() else {
        return f64::INFINITY;
    };
    let mut best = f64::INFINITY;
    for cur in points {
        best = best.min(Segment::new(prev, cur).distance_to_point(p));
        prev = cur;
    }
    best
}

pub(crate) fn rect_edges(rect: &Rect) -> [Segment; 4] {
    let c = rect.corners();
    [
        Segment::new(c[0], c[1]),
        Segment::new(c[1], c[2]),
        Segment::new(c[2], c[3]),
        Segment::new(c[3], c[0]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(pts: &[(f64, f64)]) -> Polyline {
        Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn rejects_single_point() {
        assert_eq!(
            Polyline::new(vec![Point::new(0.0, 0.0)]),
            Err(GeomError::DegeneratePolyline { got: 1 })
        );
    }

    #[test]
    fn length_sums_segments() {
        let line = pl(&[(0.0, 0.0), (3.0, 4.0), (3.0, 8.0)]);
        assert_eq!(line.length(), 9.0);
        assert_eq!(line.num_points(), 3);
    }

    #[test]
    fn bbox_covers_all_vertices() {
        let line = pl(&[(0.0, 5.0), (-2.0, 1.0), (7.0, 3.0)]);
        assert_eq!(line.bbox().lo, Point::new(-2.0, 1.0));
        assert_eq!(line.bbox().hi, Point::new(7.0, 5.0));
    }

    #[test]
    fn crossing_polylines() {
        let a = pl(&[(0.0, 0.0), (10.0, 10.0)]);
        let b = pl(&[(0.0, 10.0), (10.0, 0.0)]);
        assert!(a.crosses(&b));
        assert!(b.crosses(&a));
    }

    #[test]
    fn parallel_polylines_do_not_cross() {
        let a = pl(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = pl(&[(0.0, 1.0), (10.0, 1.0)]);
        assert!(!a.crosses(&b));
        assert_eq!(a.distance_to_polyline(&b), 1.0);
    }

    #[test]
    fn touching_endpoint_counts_as_cross() {
        let a = pl(&[(0.0, 0.0), (5.0, 5.0)]);
        let b = pl(&[(5.0, 5.0), (9.0, 2.0)]);
        assert!(a.crosses(&b));
        assert_eq!(a.distance_to_polyline(&b), 0.0);
    }

    #[test]
    fn multi_crossing_like_wisconsin_river_and_us90() {
        // The paper's example: a river and a road crossing in two places.
        let river = pl(&[(0.0, 0.0), (4.0, 4.0), (8.0, 0.0)]);
        let road = pl(&[(0.0, 2.0), (8.0, 2.0)]);
        assert!(river.crosses(&road));
    }

    #[test]
    fn distance_to_point() {
        let line = pl(&[(0.0, 0.0), (10.0, 0.0)]);
        assert_eq!(line.distance_to_point(&Point::new(5.0, 3.0)), 3.0);
        assert_eq!(line.distance_to_point(&Point::new(-3.0, 4.0)), 5.0);
        assert_eq!(line.distance_to_point(&Point::new(7.0, 0.0)), 0.0);
    }

    #[test]
    fn rect_intersection_detects_pass_through() {
        // Polyline passes straight through the rect without a vertex inside.
        let line = pl(&[(-5.0, 0.5), (5.0, 0.5)]);
        let rect = Rect::from_corners(Point::new(-1.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        assert!(line.intersects_rect(&rect));
        let rect_far = Rect::from_corners(Point::new(-1.0, 2.0), Point::new(1.0, 3.0)).unwrap();
        assert!(!line.intersects_rect(&rect_far));
    }
}
