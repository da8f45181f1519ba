//! Geo-located 2-D raster images (paper §2.1, §2.5).
//!
//! A raster is derived from the array ADT: dims are `[height, width]`,
//! row 0 is the **north** (top) edge, and a world rectangle geo-registers
//! the pixels. `clip`, `lower_res` and `average` are the methods invoked by
//! benchmark queries 2, 3, 4, 9, 10 and 14.

use crate::ndarray::{ElemType, NdArray};
use crate::{ArrayError, Result};
use paradise_geom::{Point, Polygon, Rect};

/// Pixel depth of a raster (paper: "Three types of 2-D raster images are
/// supported: 8 bit, 16 bit, and 24 bit").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitDepth {
    /// 8 bits per pixel.
    Eight,
    /// 16 bits per pixel (AVHRR channels).
    Sixteen,
    /// 24 bits per pixel (composite colour).
    TwentyFour,
}

impl BitDepth {
    /// Matching array element type.
    pub const fn elem_type(&self) -> ElemType {
        match self {
            BitDepth::Eight => ElemType::U8,
            BitDepth::Sixteen => ElemType::U16,
            BitDepth::TwentyFour => ElemType::U24,
        }
    }

    /// Largest representable pixel value.
    pub const fn max_value(&self) -> u32 {
        match self {
            BitDepth::Eight => 0xFF,
            BitDepth::Sixteen => 0xFFFF,
            BitDepth::TwentyFour => 0xFF_FFFF,
        }
    }

    /// Bytes per pixel.
    pub const fn bytes(&self) -> usize {
        self.elem_type().size()
    }
}

/// A pixel window `[row0, row1) × [col0, col1)` of a raster (row 0 is the
/// north edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelWindow {
    /// First row.
    pub row0: usize,
    /// One past the last row.
    pub row1: usize,
    /// First column.
    pub col0: usize,
    /// One past the last column.
    pub col1: usize,
}

impl PixelWindow {
    /// The pixels of a `width × height` raster over `geo` that the world
    /// rectangle `window` covers, snapped outward to whole pixels; `None`
    /// when disjoint. The one world-to-pixel mapping: an in-memory clip and
    /// a stored raster's tile fetch both cut this window.
    pub fn covering(geo: &Rect, width: usize, height: usize, window: &Rect) -> Option<Self> {
        let region = geo.intersection(window)?;
        let px_w = geo.width() / width as f64;
        let px_h = geo.height() / height as f64;
        let col0 = (((region.lo.x - geo.lo.x) / px_w).floor() as usize).min(width - 1);
        let col1 = (((region.hi.x - geo.lo.x) / px_w).ceil() as usize).clamp(col0 + 1, width);
        let row0 = (((geo.hi.y - region.hi.y) / px_h).floor() as usize).min(height - 1);
        let row1 = (((geo.hi.y - region.lo.y) / px_h).ceil() as usize).clamp(row0 + 1, height);
        Some(PixelWindow { row0, row1, col0, col1 })
    }

    /// World rectangle of the window's pixels on the `width × height`
    /// raster over `geo`.
    pub fn geo(&self, geo: &Rect, width: usize, height: usize) -> Rect {
        let px_w = geo.width() / width as f64;
        let px_h = geo.height() / height as f64;
        Rect::from_corners(
            Point::new(geo.lo.x + self.col0 as f64 * px_w, geo.hi.y - self.row1 as f64 * px_h),
            Point::new(geo.lo.x + self.col1 as f64 * px_w, geo.hi.y - self.row0 as f64 * px_h),
        )
        .expect("pixel-aligned geo rect")
    }

    /// Array origin `[row0, col0]`.
    pub fn lo(&self) -> [usize; 2] {
        [self.row0, self.col0]
    }

    /// Array shape `[rows, cols]`.
    pub fn shape(&self) -> [usize; 2] {
        [self.row1 - self.row0, self.col1 - self.col0]
    }
}

/// A geo-located 2-D raster image, optionally with a validity mask.
///
/// The mask exists so `clip(polygon)` can return a rectangular pixel block
/// while excluding pixels outside the polygon; `average()` then ranges over
/// valid pixels only.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    depth: BitDepth,
    geo: Rect,
    array: NdArray,
    /// None = every pixel valid; Some(bits) = bitset, row-major, 1 = valid.
    mask: Option<Vec<u8>>,
}

impl Raster {
    /// Creates a zero-filled raster of `width × height` pixels covering the
    /// world rectangle `geo`.
    pub fn new(width: usize, height: usize, depth: BitDepth, geo: Rect) -> Result<Self> {
        let array = NdArray::zeros(vec![height, width], depth.elem_type())?;
        Ok(Raster { depth, geo, array, mask: None })
    }

    /// Wraps an existing `[height, width]` array.
    pub fn from_array(array: NdArray, depth: BitDepth, geo: Rect) -> Result<Self> {
        if array.dims().len() != 2 || array.elem_type() != depth.elem_type() {
            return Err(ArrayError::BadShape(array.dims().to_vec()));
        }
        Ok(Raster { depth, geo, array, mask: None })
    }

    /// Attaches a validity mask: one bit per pixel in row-major order,
    /// least-significant bit first, `1` = valid (the layout [`Raster::clip`]
    /// produces). The mask must hold exactly `⌈width·height / 8⌉` bytes.
    pub fn with_mask(mut self, mask: Vec<u8>) -> Result<Self> {
        let expected = (self.width() * self.height()).div_ceil(8);
        if mask.len() != expected {
            return Err(ArrayError::DataSizeMismatch { expected, got: mask.len() });
        }
        self.mask = Some(mask);
        Ok(self)
    }

    /// The validity mask in the layout of [`Raster::with_mask`]; `None`
    /// when every pixel is valid.
    pub fn mask(&self) -> Option<&[u8]> {
        self.mask.as_deref()
    }

    /// Pixel columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.array.dims()[1]
    }

    /// Pixel rows.
    #[inline]
    pub fn height(&self) -> usize {
        self.array.dims()[0]
    }

    /// Pixel depth.
    #[inline]
    pub fn depth(&self) -> BitDepth {
        self.depth
    }

    /// World rectangle covered by the raster.
    #[inline]
    pub fn geo(&self) -> Rect {
        self.geo
    }

    /// Underlying array (dims `[height, width]`).
    #[inline]
    pub fn array(&self) -> &NdArray {
        &self.array
    }

    /// Payload size in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.array.byte_len()
    }

    /// Reads pixel (col, row); row 0 is the top row.
    #[inline]
    pub fn pixel(&self, col: usize, row: usize) -> Result<u32> {
        Ok(self.array.get(&[row, col])? as u32)
    }

    /// Writes pixel (col, row), truncating to the bit depth.
    #[inline]
    pub fn set_pixel(&mut self, col: usize, row: usize, value: u32) -> Result<()> {
        self.array.set(&[row, col], u64::from(value & self.depth.max_value()))
    }

    /// World coordinates of the center of pixel (col, row).
    pub fn pixel_center(&self, col: usize, row: usize) -> Point {
        let px_w = self.geo.width() / self.width() as f64;
        let px_h = self.geo.height() / self.height() as f64;
        Point::new(
            self.geo.lo.x + (col as f64 + 0.5) * px_w,
            self.geo.hi.y - (row as f64 + 0.5) * px_h,
        )
    }

    fn mask_bit(&self, col: usize, row: usize) -> bool {
        match &self.mask {
            None => true,
            Some(bits) => {
                let i = row * self.width() + col;
                bits[i / 8] & (1 << (i % 8)) != 0
            }
        }
    }

    /// Whether the pixel is valid (inside the clip region that produced
    /// this raster).
    pub fn is_valid(&self, col: usize, row: usize) -> bool {
        self.mask_bit(col, row)
    }

    /// Number of valid pixels.
    pub fn valid_count(&self) -> usize {
        match &self.mask {
            None => self.width() * self.height(),
            Some(bits) => bits.iter().map(|b| b.count_ones() as usize).sum(),
        }
    }

    /// Clips the raster to the world rectangle `window` — the subarray
    /// fetch path ("only the subarray itself is fetched", §2.2). The result
    /// covers `window ∩ geo`, snapped outward to pixel boundaries.
    pub fn clip_rect(&self, window: &Rect) -> Result<Raster> {
        let win = PixelWindow::covering(&self.geo, self.width(), self.height(), window)
            .ok_or(ArrayError::EmptyClip)?;
        let array = self.array.subarray(&win.lo(), &win.shape())?;
        let geo = win.geo(&self.geo, self.width(), self.height());
        Ok(Raster { depth: self.depth, geo, array, mask: None })
    }

    /// Clips the raster by a polygon (queries 2–4, 9, 10, 14): the result
    /// covers the polygon's bounding box intersected with the raster, with
    /// pixels masked out unless their pixel rectangle overlaps the polygon
    /// (so a polygon smaller than one pixel still clips that pixel — oil
    /// fields stay visible on coarse composites).
    pub fn clip(&self, poly: &Polygon) -> Result<Raster> {
        self.clip_rect(&poly.bbox())?.mask_outside(poly)
    }

    /// The second half of [`Raster::clip`], for a raster that already is
    /// the polygon's bounding-box window: masks out every pixel whose
    /// rectangle misses `poly`. A polygon that *is* its bounding box (the
    /// benchmark's rectangular POLYGON constant) skips the per-pixel test.
    pub fn mask_outside(mut self, poly: &Polygon) -> Result<Raster> {
        let rectangular = (poly.area() - poly.bbox().area()).abs()
            < paradise_geom::EPSILON * poly.bbox().area().max(1.0);
        if rectangular {
            return Ok(self);
        }
        let (w, h) = (self.width(), self.height());
        let px_w = self.geo.width() / w as f64;
        let px_h = self.geo.height() / h as f64;
        let mut bits = vec![0u8; (w * h).div_ceil(8)];
        let mut any_valid = false;
        for row in 0..h {
            for col in 0..w {
                // Cheap test first: center containment; otherwise exact
                // pixel-rectangle overlap (boundary pixels, tiny polygons).
                let valid = poly.contains_point(&self.pixel_center(col, row)) || {
                    let x0 = self.geo.lo.x + col as f64 * px_w;
                    let y1 = self.geo.hi.y - row as f64 * px_h;
                    let prect =
                        Rect::from_corners(Point::new(x0, y1 - px_h), Point::new(x0 + px_w, y1))
                            .expect("pixel rect");
                    poly.overlaps_rect(&prect)
                };
                if valid {
                    let i = row * w + col;
                    bits[i / 8] |= 1 << (i % 8);
                    any_valid = true;
                }
            }
        }
        if !any_valid {
            return Err(ArrayError::EmptyClip);
        }
        self.mask = Some(bits);
        Ok(self)
    }

    /// Mean of the valid pixel values (`raster.data.clip(POLY).average()`,
    /// query 10). `None` when no pixel is valid.
    pub fn average(&self) -> Option<f64> {
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for row in 0..self.height() {
            for col in 0..self.width() {
                if self.mask_bit(col, row) {
                    sum += self.array.get(&[row, col]).expect("in range") as f64;
                    n += 1;
                }
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Reduces resolution by an integer factor `k` (query 4's
    /// `lower_res(8)`): each output pixel is the mean of a `k × k` block of
    /// valid input pixels.
    pub fn lower_res(&self, k: usize) -> Result<Raster> {
        if k == 0 {
            return Err(ArrayError::BadFactor(k));
        }
        let w = self.width().div_ceil(k).max(1);
        let h = self.height().div_ceil(k).max(1);
        let mut out = Raster::new(w, h, self.depth, self.geo)?;
        for orow in 0..h {
            for ocol in 0..w {
                let mut sum = 0u64;
                let mut n = 0u64;
                for row in orow * k..((orow + 1) * k).min(self.height()) {
                    for col in ocol * k..((ocol + 1) * k).min(self.width()) {
                        if self.mask_bit(col, row) {
                            sum += self.array.get(&[row, col]).expect("in range");
                            n += 1;
                        }
                    }
                }
                let v = sum.checked_div(n).unwrap_or(0) as u32;
                out.set_pixel(ocol, orow, v)?;
            }
        }
        Ok(out)
    }

    /// Pixel-by-pixel average of several same-shaped rasters (query 3).
    pub fn average_of(rasters: &[&Raster]) -> Result<Raster> {
        let first = rasters.first().ok_or(ArrayError::EmptyClip)?;
        let (w, h) = (first.width(), first.height());
        for r in rasters {
            if r.width() != w || r.height() != h || r.depth != first.depth {
                return Err(ArrayError::BadShape(vec![r.height(), r.width()]));
            }
        }
        let mut out = Raster::new(w, h, first.depth, first.geo)?;
        for row in 0..h {
            for col in 0..w {
                let mut sum = 0u64;
                let mut n = 0u64;
                for r in rasters {
                    if r.mask_bit(col, row) {
                        sum += r.array.get(&[row, col]).expect("in range");
                        n += 1;
                    }
                }
                let v = sum.checked_div(n).unwrap_or(0) as u32;
                out.set_pixel(col, row, v)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).unwrap()
    }

    /// 10x10 raster over [0,100]^2, pixel (c, r) = r*10 + c.
    fn gradient() -> Raster {
        let mut r = Raster::new(10, 10, BitDepth::Sixteen, world()).unwrap();
        for row in 0..10 {
            for col in 0..10 {
                r.set_pixel(col, row, (row * 10 + col) as u32).unwrap();
            }
        }
        r
    }

    #[test]
    fn pixel_roundtrip_and_clamp() {
        let mut r = Raster::new(4, 4, BitDepth::Eight, world()).unwrap();
        r.set_pixel(1, 2, 0x1FF).unwrap(); // truncates to 8 bits
        assert_eq!(r.pixel(1, 2).unwrap(), 0xFF);
        assert_eq!(r.pixel(0, 0).unwrap(), 0);
    }

    #[test]
    fn geo_registration_row0_is_north() {
        let r = gradient();
        // top-left pixel center: x=5, y=95
        assert_eq!(r.pixel_center(0, 0), Point::new(5.0, 95.0));
        // bottom-right: x=95, y=5
        assert_eq!(r.pixel_center(9, 9), Point::new(95.0, 5.0));
    }

    #[test]
    fn clip_rect_extracts_subraster() {
        let r = gradient();
        // window covering columns 2..5, rows 1..4 in pixel space:
        // x in [20,50), y in [60,90)
        let w = Rect::from_corners(Point::new(20.0, 60.0), Point::new(50.0, 90.0)).unwrap();
        let c = r.clip_rect(&w).unwrap();
        assert_eq!(c.width(), 3);
        assert_eq!(c.height(), 3);
        assert_eq!(c.pixel(0, 0).unwrap(), 12); // row 1, col 2
        assert_eq!(c.geo(), w);
    }

    #[test]
    fn clip_rect_partial_pixels_snap_outward() {
        let r = gradient();
        let w = Rect::from_corners(Point::new(25.0, 65.0), Point::new(44.0, 89.0)).unwrap();
        let c = r.clip_rect(&w).unwrap();
        // x 25..44 covers pixel cols 2..4 (centers 25,35,45->no), snapped cols 2..5
        assert_eq!(c.width(), 3);
        assert_eq!(c.height(), 3);
    }

    #[test]
    fn clip_rect_disjoint_errors() {
        let r = gradient();
        let w = Rect::from_corners(Point::new(200.0, 200.0), Point::new(300.0, 300.0)).unwrap();
        assert_eq!(r.clip_rect(&w).unwrap_err(), ArrayError::EmptyClip);
    }

    #[test]
    fn polygon_clip_masks_outside_pixels() {
        let r = gradient();
        // Triangle over the lower-left quadrant.
        let tri =
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0), Point::new(0.0, 50.0)])
                .unwrap();
        let c = r.clip(&tri).unwrap();
        assert_eq!(c.width(), 5);
        assert_eq!(c.height(), 5);
        // Valid pixels: all whose pixel rectangle touches the triangle —
        // a bit over half the 5x5 block.
        let valid = c.valid_count();
        assert!(valid > 5 && valid < 25, "valid = {valid}");
        // The far corner pixel (x 40..50, y 40..50) lies fully beyond the
        // hypotenuse x + y = 50.
        assert!(!c.is_valid(4, 0));
        // The origin corner is inside.
        assert!(c.is_valid(0, 4));
    }

    #[test]
    fn mask_roundtrips_through_accessor_and_constructor() {
        let r = gradient();
        let tri =
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0), Point::new(0.0, 50.0)])
                .unwrap();
        let c = r.clip(&tri).unwrap();
        let mask = c.mask().expect("polygon clip is masked").to_vec();
        let bare = Raster::from_array(c.array().clone(), c.depth(), c.geo()).unwrap();
        assert_ne!(bare, c, "equality must see the mask");
        assert_eq!(bare.with_mask(mask).unwrap(), c);
        let bare = Raster::from_array(c.array().clone(), c.depth(), c.geo()).unwrap();
        assert!(bare.with_mask(vec![0xff]).is_err(), "wrong mask length");
    }

    #[test]
    fn rectangular_polygon_clip_has_no_mask() {
        let r = gradient();
        let rect_poly = Polygon::from_rect(
            &Rect::from_corners(Point::new(0.0, 0.0), Point::new(50.0, 50.0)).unwrap(),
        );
        let c = r.clip(&rect_poly).unwrap();
        assert_eq!(c.valid_count(), 25);
    }

    #[test]
    fn average_respects_mask() {
        let mut r = Raster::new(2, 2, BitDepth::Eight, world()).unwrap();
        r.set_pixel(0, 0, 10).unwrap();
        r.set_pixel(1, 0, 20).unwrap();
        r.set_pixel(0, 1, 30).unwrap();
        r.set_pixel(1, 1, 40).unwrap();
        assert_eq!(r.average(), Some(25.0));
        // Clip by a small triangle that only touches the top-left pixel
        // rectangle (x 0..50, y 50..100): exactly one valid pixel.
        let tri = Polygon::new(vec![
            Point::new(0.0, 99.0),
            Point::new(40.0, 99.0),
            Point::new(0.0, 60.0),
        ])
        .unwrap();
        let c = r.clip(&tri).unwrap();
        assert_eq!(c.valid_count(), 1);
        assert_eq!(c.average(), Some(10.0)); // pixel (0, 0) holds 10
    }

    #[test]
    fn lower_res_averages_blocks() {
        let r = gradient();
        let half = r.lower_res(2).unwrap();
        assert_eq!(half.width(), 5);
        assert_eq!(half.height(), 5);
        // block (0,0) = pixels {0,1,10,11} -> mean 5 (integer division 22/4)
        assert_eq!(half.pixel(0, 0).unwrap(), 5);
        // identity factor
        let same = r.lower_res(1).unwrap();
        assert_eq!(same.pixel(3, 7).unwrap(), r.pixel(3, 7).unwrap());
        assert!(r.lower_res(0).is_err());
    }

    #[test]
    fn average_of_rasters() {
        let mut a = Raster::new(2, 1, BitDepth::Sixteen, world()).unwrap();
        let mut b = Raster::new(2, 1, BitDepth::Sixteen, world()).unwrap();
        a.set_pixel(0, 0, 100).unwrap();
        b.set_pixel(0, 0, 300).unwrap();
        a.set_pixel(1, 0, 7).unwrap();
        b.set_pixel(1, 0, 9).unwrap();
        let avg = Raster::average_of(&[&a, &b]).unwrap();
        assert_eq!(avg.pixel(0, 0).unwrap(), 200);
        assert_eq!(avg.pixel(1, 0).unwrap(), 8);
        // mismatched shapes rejected
        let c = Raster::new(3, 1, BitDepth::Sixteen, world()).unwrap();
        assert!(Raster::average_of(&[&a, &c]).is_err());
    }
}
