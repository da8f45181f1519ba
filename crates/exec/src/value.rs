//! Attribute values, including spatial shapes and (possibly remote) rasters.

use crate::{ExecError, Result};
use paradise_array::{BitDepth, Raster};
use paradise_geom::{Circle, Point, Polygon, Polyline, Rect, Shape, SwissCheese};
use paradise_storage::Oid;
use std::sync::Arc;

/// A calendar date, stored as days since 1970-01-01 (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i64);

impl Date {
    /// Builds a date from year/month/day (civil calendar).
    pub fn from_ymd(y: i64, m: u32, d: u32) -> Date {
        // Howard Hinnant's days_from_civil algorithm.
        let y = if m <= 2 { y - 1 } else { y };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = (m as i64 + 9) % 12;
        let doy = (153 * mp + 2) / 5 + d as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Date(era * 146_097 + doe - 719_468)
    }

    /// Parses `"YYYY-MM-DD"`.
    pub fn parse(s: &str) -> Result<Date> {
        let parts: Vec<&str> = s.split('-').collect();
        if parts.len() != 3 {
            return Err(ExecError::Other(format!("bad date literal {s:?}")));
        }
        let y: i64 = parts[0].parse().map_err(|_| ExecError::Codec("bad year"))?;
        let m: u32 = parts[1].parse().map_err(|_| ExecError::Codec("bad month"))?;
        let d: u32 = parts[2].parse().map_err(|_| ExecError::Codec("bad day"))?;
        if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return Err(ExecError::Other(format!("bad date literal {s:?}")));
        }
        Ok(Date::from_ymd(y, m, d))
    }

    /// Decomposes back into (year, month, day).
    pub fn ymd(self) -> (i64, u32, u32) {
        // Howard Hinnant's civil_from_days algorithm.
        let z = self.0 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
        (if m <= 2 { y + 1 } else { y }, m, d)
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// The mapping-table entry for one stored raster tile (Figure 2.3): the
/// SHORE object holding the tile plus the per-tile compression flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRef {
    /// Node that stores the tile (tiles of a declustered raster live on
    /// several nodes, §2.6).
    pub node: u32,
    /// Object id of the tile within that node's store.
    pub oid: Oid,
    /// Whether the tile bytes are LZW-compressed.
    pub compressed: bool,
}

/// A raster stored as tiles in the database: the array metadata stays
/// inline in the tuple while the pixel data lives in separate tile objects
/// (paper §2.5.1). Cheap to clone and to ship between nodes — shipping the
/// *value* never ships the pixels (share-by-reference, §2.5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRaster {
    /// Pixel depth.
    pub depth: BitDepth,
    /// Geo-registration rectangle.
    pub geo: Rect,
    /// Pixel columns.
    pub width: u32,
    /// Pixel rows.
    pub height: u32,
    /// Tile extent in pixel rows.
    pub tile_h: u32,
    /// Tile extent in pixel columns.
    pub tile_w: u32,
    /// Mapping table, row-major over the tile grid.
    pub tiles: Arc<Vec<TileRef>>,
}

impl StoredRaster {
    /// Tiles per row of the tile grid.
    pub fn tile_cols(&self) -> u32 {
        self.width.div_ceil(self.tile_w)
    }

    /// Tiles per column of the tile grid.
    pub fn tile_rows(&self) -> u32 {
        self.height.div_ceil(self.tile_h)
    }

    /// Uncompressed pixel payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.width as usize * self.height as usize * self.depth.bytes()
    }

    /// Linear tile indexes overlapping the pixel region
    /// `[row0, row1) x [col0, col1)`.
    pub fn tiles_for_region(&self, row0: u32, row1: u32, col0: u32, col1: u32) -> Vec<usize> {
        if row0 >= row1 || col0 >= col1 {
            return Vec::new();
        }
        let tr0 = row0 / self.tile_h;
        let tr1 = (row1 - 1) / self.tile_h;
        let tc0 = col0 / self.tile_w;
        let tc1 = (col1 - 1) / self.tile_w;
        let mut out = Vec::new();
        for tr in tr0..=tr1.min(self.tile_rows() - 1) {
            for tc in tc0..=tc1.min(self.tile_cols() - 1) {
                out.push((tr * self.tile_cols() + tc) as usize);
            }
        }
        out
    }

    /// Pixel-space origin and shape (rows, cols) of linear tile `idx`.
    pub fn tile_region(&self, idx: usize) -> (u32, u32, u32, u32) {
        let tc = idx as u32 % self.tile_cols();
        let tr = idx as u32 / self.tile_cols();
        let r0 = tr * self.tile_h;
        let c0 = tc * self.tile_w;
        let h = self.tile_h.min(self.height - r0);
        let w = self.tile_w.min(self.width - c0);
        (r0, c0, h, w)
    }
}

/// A raster value: in memory (query intermediate) or stored as tiles.
#[derive(Debug, Clone, PartialEq)]
pub enum RasterValue {
    /// Materialised pixels (e.g. the output of a clip).
    Mem(Arc<Raster>),
    /// Reference to stored tiles, possibly on other nodes.
    Stored(StoredRaster),
}

/// One attribute value. Large attributes ([`RasterValue::Stored`]) are held
/// by reference: copying a tuple into a temporary table copies the mapping
/// table, not the pixels (§2.5.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Calendar date.
    Date(Date),
    /// Spatial shape.
    Shape(Shape),
    /// Raster image.
    Raster(RasterValue),
}

impl Value {
    /// Kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Date(_) => "date",
            Value::Shape(_) => "shape",
            Value::Raster(_) => "raster",
        }
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(type_err("int", other)),
        }
    }

    /// Float accessor (ints coerce).
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(type_err("float", other)),
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(type_err("string", other)),
        }
    }

    /// Date accessor.
    pub fn as_date(&self) -> Result<Date> {
        match self {
            Value::Date(d) => Ok(*d),
            other => Err(type_err("date", other)),
        }
    }

    /// Shape accessor.
    pub fn as_shape(&self) -> Result<&Shape> {
        match self {
            Value::Shape(s) => Ok(s),
            other => Err(type_err("shape", other)),
        }
    }

    /// Raster accessor.
    pub fn as_raster(&self) -> Result<&RasterValue> {
        match self {
            Value::Raster(r) => Ok(r),
            other => Err(type_err("raster", other)),
        }
    }

    /// Serialized size estimate in bytes — what shipping this value over a
    /// network stream costs. A stored raster costs only its mapping table.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) | Value::Date(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Shape(s) => 5 + s.num_points() * 16,
            Value::Raster(RasterValue::Mem(r)) => {
                32 + r.byte_len() + r.mask().map_or(0, <[u8]>::len)
            }
            Value::Raster(RasterValue::Stored(s)) => 48 + s.tiles.len() * 16,
        }
    }

    /// Encodes the value into `out` (tagged, little-endian).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Float(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                out.push(4);
                out.extend_from_slice(&d.0.to_le_bytes());
            }
            Value::Shape(s) => {
                out.push(5);
                encode_shape(s, out);
            }
            Value::Raster(RasterValue::Stored(s)) => {
                out.push(6);
                out.push(match s.depth {
                    BitDepth::Eight => 8,
                    BitDepth::Sixteen => 16,
                    BitDepth::TwentyFour => 24,
                });
                encode_rect(&s.geo, out);
                for v in [s.width, s.height, s.tile_h, s.tile_w] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(&(s.tiles.len() as u32).to_le_bytes());
                for t in s.tiles.iter() {
                    out.extend_from_slice(&t.node.to_le_bytes());
                    out.extend_from_slice(&t.oid.to_bytes());
                    out.push(t.compressed as u8);
                }
            }
            Value::Raster(RasterValue::Mem(r)) => {
                // Tag 8 is tag 7 followed by the clip mask.
                out.push(if r.mask().is_some() { 8 } else { 7 });
                out.push(match r.depth() {
                    BitDepth::Eight => 8,
                    BitDepth::Sixteen => 16,
                    BitDepth::TwentyFour => 24,
                });
                encode_rect(&r.geo(), out);
                out.extend_from_slice(&(r.width() as u32).to_le_bytes());
                out.extend_from_slice(&(r.height() as u32).to_le_bytes());
                out.extend_from_slice(r.array().data());
                if let Some(mask) = r.mask() {
                    out.extend_from_slice(mask);
                }
            }
        }
    }

    /// Decodes one value, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Value> {
        let tag = *buf.get(*pos).ok_or(ExecError::Codec("truncated value"))?;
        *pos += 1;
        Ok(match tag {
            0 => Value::Null,
            1 => Value::Int(i64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap())),
            2 => Value::Float(f64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap())),
            3 => {
                let n = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
                Value::Str(
                    String::from_utf8(take(buf, pos, n)?.to_vec())
                        .map_err(|_| ExecError::Codec("bad utf8"))?,
                )
            }
            4 => Value::Date(Date(i64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap()))),
            5 => Value::Shape(decode_shape(buf, pos)?),
            6 => {
                let depth = decode_depth(take(buf, pos, 1)?[0])?;
                let geo = decode_rect(buf, pos)?;
                let mut dims = [0u32; 4];
                for d in &mut dims {
                    *d = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap());
                }
                let n = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
                let mut tiles = Vec::with_capacity(n);
                for _ in 0..n {
                    let node = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap());
                    let oid =
                        Oid::from_bytes(take(buf, pos, 10)?).ok_or(ExecError::Codec("bad oid"))?;
                    let compressed = take(buf, pos, 1)?[0] == 1;
                    tiles.push(TileRef { node, oid, compressed });
                }
                Value::Raster(RasterValue::Stored(StoredRaster {
                    depth,
                    geo,
                    width: dims[0],
                    height: dims[1],
                    tile_h: dims[2],
                    tile_w: dims[3],
                    tiles: Arc::new(tiles),
                }))
            }
            7 | 8 => {
                let depth = decode_depth(take(buf, pos, 1)?[0])?;
                let geo = decode_rect(buf, pos)?;
                let w = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
                let h = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
                let len = w * h * depth.bytes();
                let data = take(buf, pos, len)?.to_vec();
                let arr = paradise_array::NdArray::new(vec![h, w], depth.elem_type(), data)
                    .map_err(|_| ExecError::Codec("bad raster payload"))?;
                let mut r = Raster::from_array(arr, depth, geo)
                    .map_err(|_| ExecError::Codec("bad raster"))?;
                if tag == 8 {
                    let mask = take(buf, pos, (w * h).div_ceil(8))?.to_vec();
                    r = r.with_mask(mask).map_err(|_| ExecError::Codec("bad raster mask"))?;
                }
                Value::Raster(RasterValue::Mem(Arc::new(r)))
            }
            _ => return Err(ExecError::Codec("unknown value tag")),
        })
    }
}

fn type_err(expected: &'static str, got: &Value) -> ExecError {
    ExecError::Type { expected, got: got.kind().to_string() }
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    if *pos + n > buf.len() {
        return Err(ExecError::Codec("truncated value"));
    }
    let s = &buf[*pos..*pos + n];
    *pos += n;
    Ok(s)
}

fn decode_depth(b: u8) -> Result<BitDepth> {
    Ok(match b {
        8 => BitDepth::Eight,
        16 => BitDepth::Sixteen,
        24 => BitDepth::TwentyFour,
        _ => return Err(ExecError::Codec("bad bit depth")),
    })
}

fn encode_point(p: &Point, out: &mut Vec<u8>) {
    out.extend_from_slice(&p.x.to_le_bytes());
    out.extend_from_slice(&p.y.to_le_bytes());
}

fn decode_point(buf: &[u8], pos: &mut usize) -> Result<Point> {
    let x = f64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap());
    let y = f64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap());
    Ok(Point::new(x, y))
}

fn encode_rect(r: &Rect, out: &mut Vec<u8>) {
    encode_point(&r.lo, out);
    encode_point(&r.hi, out);
}

fn decode_rect(buf: &[u8], pos: &mut usize) -> Result<Rect> {
    let lo = decode_point(buf, pos)?;
    let hi = decode_point(buf, pos)?;
    Rect::new(lo, hi).map_err(|_| ExecError::Codec("bad rect"))
}

fn encode_points(pts: &[Point], out: &mut Vec<u8>) {
    out.extend_from_slice(&(pts.len() as u32).to_le_bytes());
    for p in pts {
        encode_point(p, out);
    }
}

fn decode_points(buf: &[u8], pos: &mut usize) -> Result<Vec<Point>> {
    let n = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
    let mut pts = Vec::with_capacity(n);
    for _ in 0..n {
        pts.push(decode_point(buf, pos)?);
    }
    Ok(pts)
}

/// Encodes a shape (tag + payload).
pub fn encode_shape(s: &Shape, out: &mut Vec<u8>) {
    match s {
        Shape::Point(p) => {
            out.push(0);
            encode_point(p, out);
        }
        Shape::Polyline(l) => {
            out.push(1);
            encode_points(l.points(), out);
        }
        Shape::Polygon(p) => {
            out.push(2);
            encode_points(p.ring(), out);
        }
        Shape::SwissCheese(sc) => {
            out.push(3);
            encode_points(sc.shell().ring(), out);
            out.extend_from_slice(&(sc.holes().len() as u32).to_le_bytes());
            for h in sc.holes() {
                encode_points(h.ring(), out);
            }
        }
        Shape::Circle(c) => {
            out.push(4);
            encode_point(&c.center, out);
            out.extend_from_slice(&c.radius.to_le_bytes());
        }
        Shape::Rect(r) => {
            out.push(5);
            encode_rect(r, out);
        }
    }
}

/// Decodes a shape encoded by [`encode_shape`].
pub fn decode_shape(buf: &[u8], pos: &mut usize) -> Result<Shape> {
    let tag = take(buf, pos, 1)?[0];
    let bad = |_e: paradise_geom::GeomError| ExecError::Codec("bad shape payload");
    Ok(match tag {
        0 => Shape::Point(decode_point(buf, pos)?),
        1 => Shape::Polyline(Polyline::new(decode_points(buf, pos)?).map_err(bad)?),
        2 => Shape::Polygon(Polygon::new(decode_points(buf, pos)?).map_err(bad)?),
        3 => {
            let shell = Polygon::new(decode_points(buf, pos)?).map_err(bad)?;
            let n = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
            let mut holes = Vec::with_capacity(n);
            for _ in 0..n {
                holes.push(Polygon::new(decode_points(buf, pos)?).map_err(bad)?);
            }
            Shape::SwissCheese(SwissCheese::new(shell, holes).map_err(bad)?)
        }
        4 => {
            let c = decode_point(buf, pos)?;
            let r = f64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap());
            Shape::Circle(Circle::new(c, r).map_err(bad)?)
        }
        5 => Shape::Rect(decode_rect(buf, pos)?),
        _ => return Err(ExecError::Codec("unknown shape tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        let back = Value::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, v);
        assert_eq!(pos, buf.len(), "trailing bytes for {v:?}");
    }

    #[test]
    fn date_from_ymd_known_values() {
        assert_eq!(Date::from_ymd(1970, 1, 1).0, 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).0, 1);
        assert_eq!(Date::from_ymd(1988, 4, 1).0, 6665);
        assert_eq!(Date::from_ymd(1969, 12, 31).0, -1);
        // leap-year handling
        assert_eq!(Date::from_ymd(2000, 3, 1).0 - Date::from_ymd(2000, 2, 28).0, 2);
        assert_eq!(Date::from_ymd(1900, 3, 1).0 - Date::from_ymd(1900, 2, 28).0, 1);
    }

    #[test]
    fn date_ymd_round_trips_and_displays() {
        for (y, m, d) in [(1970, 1, 1), (1988, 4, 1), (2000, 2, 29), (1969, 12, 31)] {
            assert_eq!(Date::from_ymd(y, m, d).ymd(), (y, m, d));
        }
        assert_eq!(Date::from_ymd(1988, 4, 1).to_string(), "1988-04-01");
    }

    #[test]
    fn date_parse() {
        assert_eq!(Date::parse("1988-04-01").unwrap(), Date::from_ymd(1988, 4, 1));
        assert!(Date::parse("1988/04/01").is_err());
        assert!(Date::parse("1988-13-01").is_err());
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(Value::Null);
        roundtrip(Value::Int(-42));
        roundtrip(Value::Float(3.75));
        roundtrip(Value::Str("Phoenix".to_string()));
        roundtrip(Value::Date(Date::from_ymd(1988, 4, 1)));
    }

    #[test]
    fn shape_roundtrips() {
        roundtrip(Value::Shape(Shape::Point(Point::new(1.0, 2.0))));
        roundtrip(Value::Shape(Shape::Polyline(
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)]).unwrap(),
        )));
        roundtrip(Value::Shape(Shape::Polygon(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(1.0, 2.0)])
                .unwrap(),
        )));
        let shell = Polygon::from_rect(
            &Rect::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap(),
        );
        let hole = Polygon::from_rect(
            &Rect::from_corners(Point::new(4.0, 4.0), Point::new(6.0, 6.0)).unwrap(),
        );
        roundtrip(Value::Shape(Shape::SwissCheese(SwissCheese::new(shell, vec![hole]).unwrap())));
        roundtrip(Value::Shape(Shape::Circle(Circle::new(Point::new(5.0, 5.0), 2.5).unwrap())));
        roundtrip(Value::Shape(Shape::Rect(
            Rect::from_corners(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap(),
        )));
    }

    #[test]
    fn stored_raster_roundtrip() {
        let geo = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).unwrap();
        let sr = StoredRaster {
            depth: BitDepth::Sixteen,
            geo,
            width: 100,
            height: 80,
            tile_h: 32,
            tile_w: 40,
            tiles: Arc::new(vec![
                TileRef { node: 0, oid: Oid { page: 5, slot: 1 }, compressed: true },
                TileRef { node: 1, oid: Oid { page: 9, slot: 0 }, compressed: false },
                TileRef { node: 0, oid: Oid { page: 6, slot: 2 }, compressed: true },
                TileRef { node: 2, oid: Oid { page: 7, slot: 3 }, compressed: true },
                TileRef { node: 1, oid: Oid { page: 8, slot: 4 }, compressed: false },
                TileRef { node: 0, oid: Oid { page: 10, slot: 5 }, compressed: true },
            ]),
        };
        roundtrip(Value::Raster(RasterValue::Stored(sr)));
    }

    #[test]
    fn mem_raster_roundtrip() {
        let geo = Rect::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let mut r = Raster::new(4, 3, BitDepth::Eight, geo).unwrap();
        r.set_pixel(2, 1, 99).unwrap();
        roundtrip(Value::Raster(RasterValue::Mem(Arc::new(r.clone()))));
        // A polygon clip's mask survives the round trip (`Raster`'s
        // equality includes it) and is charged as wire bytes.
        let tri =
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(0.0, 10.0)])
                .unwrap();
        let clipped = r.clip(&tri).unwrap();
        assert!(clipped.mask().is_some());
        let masked = Value::Raster(RasterValue::Mem(Arc::new(clipped)));
        assert_eq!(
            masked.wire_size(),
            Value::Raster(RasterValue::Mem(Arc::new(r))).wire_size() + 2,
            "4x3 pixels need two mask bytes"
        );
        roundtrip(masked);
    }

    #[test]
    fn stored_raster_tile_math() {
        let geo = Rect::from_corners(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        let sr = StoredRaster {
            depth: BitDepth::Eight,
            geo,
            width: 100,
            height: 90,
            tile_h: 32,
            tile_w: 40,
            tiles: Arc::new(Vec::new()),
        };
        assert_eq!(sr.tile_cols(), 3);
        assert_eq!(sr.tile_rows(), 3);
        // full region covers all 9 tiles
        assert_eq!(sr.tiles_for_region(0, 90, 0, 100).len(), 9);
        // a region inside tile (1,1)
        assert_eq!(sr.tiles_for_region(40, 50, 45, 60), vec![4]);
        // edge tile shapes are clipped
        let (r0, c0, h, w) = sr.tile_region(8);
        assert_eq!((r0, c0, h, w), (64, 80, 26, 20));
        // empty region
        assert!(sr.tiles_for_region(10, 10, 0, 5).is_empty());
    }

    #[test]
    fn wire_size_reference_vs_pixels() {
        let geo = Rect::from_corners(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        let mem = Value::Raster(RasterValue::Mem(Arc::new(
            Raster::new(100, 100, BitDepth::Sixteen, geo).unwrap(),
        )));
        let stored = Value::Raster(RasterValue::Stored(StoredRaster {
            depth: BitDepth::Sixteen,
            geo,
            width: 100,
            height: 100,
            tile_h: 50,
            tile_w: 50,
            tiles: Arc::new(vec![
                TileRef {
                    node: 0,
                    oid: Oid { page: 1, slot: 0 },
                    compressed: false
                };
                4
            ]),
        }));
        assert!(stored.wire_size() * 10 < mem.wire_size(), "references must be cheap to ship");
    }

    #[test]
    fn accessors_enforce_types() {
        assert!(Value::Int(1).as_int().is_ok());
        assert!(Value::Str("x".into()).as_int().is_err());
        assert_eq!(Value::Int(2).as_float().unwrap(), 2.0);
        assert!(Value::Null.as_shape().is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut pos = 0;
        assert!(Value::decode(&[], &mut pos).is_err());
        let mut pos = 0;
        assert!(Value::decode(&[99], &mut pos).is_err());
        let mut pos = 0;
        assert!(Value::decode(&[1, 0, 0], &mut pos).is_err()); // truncated int
    }
}
