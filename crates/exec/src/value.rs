//! Attribute values, including spatial shapes and (possibly remote) rasters.

use crate::{ExecError, Result};
use paradise_array::{BitDepth, Raster, TilingScheme};
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
/// (paper §2.5.1). Shipping the *value* never ships the pixels
/// (share-by-reference, §2.5.2); a [`RasterValue::Stored`] shares it.
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
    pub tiles: Vec<TileRef>,
}

impl StoredRaster {
    /// Uncompressed pixel payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.width as usize * self.height as usize * self.depth.bytes()
    }

    /// The tile layout, rebuilt from the recorded tile shape. Fails when
    /// the shape is degenerate or the mapping table does not hold one
    /// entry per tile.
    pub fn scheme(&self) -> Result<TilingScheme> {
        let scheme = TilingScheme::with_tile_shape(
            &[self.height as usize, self.width as usize],
            &[self.tile_h as usize, self.tile_w as usize],
        )?;
        if scheme.num_tiles() != self.tiles.len() {
            return Err(ExecError::Codec("raster mapping table does not match its tile grid"));
        }
        Ok(scheme)
    }
}

/// A raster value: in memory (query intermediate) or stored as tiles.
/// Both are immutable and shared, so a clone copies one pointer.
#[derive(Debug, Clone, PartialEq)]
pub enum RasterValue {
    /// Materialised pixels (e.g. the output of a clip).
    Mem(Arc<Raster>),
    /// Reference to stored tiles, possibly on other nodes.
    Stored(Arc<StoredRaster>),
}

impl From<StoredRaster> for RasterValue {
    fn from(sr: StoredRaster) -> Self {
        RasterValue::Stored(Arc::new(sr))
    }
}

/// One attribute value, 24 bytes. Large attributes — shapes and rasters —
/// are immutable and held by reference: copying a tuple into a temporary
/// table or a join result copies pointers, not vertices, mapping tables or
/// pixels (§2.5.2).
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
    /// Spatial shape, shared.
    Shape(Arc<Shape>),
    /// Raster image.
    Raster(RasterValue),
}

impl From<Shape> for Value {
    fn from(s: Shape) -> Self {
        Value::Shape(Arc::new(s))
    }
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
                let n = read_u32(buf, pos)?;
                Value::Str(
                    String::from_utf8(take(buf, pos, n)?.to_vec())
                        .map_err(|_| ExecError::Codec("bad utf8"))?,
                )
            }
            4 => Value::Date(Date(i64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap()))),
            5 => decode_shape(buf, pos)?.into(),
            6 => {
                let depth = decode_depth(take(buf, pos, 1)?[0])?;
                let geo = decode_rect(buf, pos)?;
                let mut dims = [0u32; 4];
                for d in &mut dims {
                    *d = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap());
                }
                let n = read_u32(buf, pos)?;
                let mut tiles = Vec::with_capacity(capacity(buf, *pos, n, TILE_REF_BYTES));
                for _ in 0..n {
                    let node = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap());
                    let oid = Oid::from_bytes(take(buf, pos, OID_BYTES)?)
                        .ok_or(ExecError::Codec("bad oid"))?;
                    let compressed = take(buf, pos, 1)?[0] == 1;
                    tiles.push(TileRef { node, oid, compressed });
                }
                Value::Raster(RasterValue::from(StoredRaster {
                    depth,
                    geo,
                    width: dims[0],
                    height: dims[1],
                    tile_h: dims[2],
                    tile_w: dims[3],
                    tiles,
                }))
            }
            7 | 8 => {
                let depth = decode_depth(take(buf, pos, 1)?[0])?;
                let geo = decode_rect(buf, pos)?;
                let w = read_u32(buf, pos)?;
                let h = read_u32(buf, pos)?;
                let len = raster_bytes(w, h, depth)?;
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
    if n > buf.len().saturating_sub(*pos) {
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
    let n = read_u32(buf, pos)?;
    let mut pts = Vec::with_capacity(capacity(buf, *pos, n, POINT_BYTES));
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
            let n = read_u32(buf, pos)?;
            let mut holes = Vec::with_capacity(capacity(buf, *pos, n, 4));
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

/// Encoded size of one point.
const POINT_BYTES: usize = 16;
/// Encoded size of a rect (two points).
const RECT_BYTES: usize = 32;
/// Encoded size of an [`Oid`].
const OID_BYTES: usize = 10;
/// Encoded size of one [`TileRef`]: node, oid, compressed flag.
const TILE_REF_BYTES: usize = 4 + OID_BYTES + 1;

/// Pre-allocation for `n` items of at least `item_bytes` encoded bytes each,
/// bounded by what the rest of `buf` can hold, so a garbage count fails on
/// truncation instead of on a huge allocation.
fn capacity(buf: &[u8], pos: usize, n: usize, item_bytes: usize) -> usize {
    n.min(buf.len().saturating_sub(pos) / item_bytes)
}

/// Pixel payload bytes of a `w × h` in-memory raster.
fn raster_bytes(w: usize, h: usize, depth: BitDepth) -> Result<usize> {
    w.checked_mul(h)
        .and_then(|px| px.checked_mul(depth.bytes()))
        .ok_or(ExecError::Codec("truncated value"))
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<usize> {
    Ok(u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize)
}

/// Kind name of the value whose tag is `tag`, for type errors raised
/// without decoding the value.
pub(crate) fn tag_kind(tag: u8) -> &'static str {
    match tag {
        0 => "null",
        1 => "int",
        2 => "float",
        3 => "string",
        4 => "date",
        5 => "shape",
        _ => "raster",
    }
}

/// Steps `pos` over one encoded value without building it. Checks only
/// structure: known value and shape tags, valid bit depths, and lengths
/// within `buf`. Whatever this rejects, [`Value::decode`] rejects too.
pub(crate) fn skip_value(buf: &[u8], pos: &mut usize) -> Result<()> {
    let tag = take(buf, pos, 1)?[0];
    match tag {
        0 => {}
        1 | 2 | 4 => {
            take(buf, pos, 8)?;
        }
        3 => {
            let n = read_u32(buf, pos)?;
            take(buf, pos, n)?;
        }
        5 => skip_shape(buf, pos)?,
        6 => {
            decode_depth(take(buf, pos, 1)?[0])?;
            take(buf, pos, RECT_BYTES + 16)?;
            let n = read_u32(buf, pos)?;
            take(buf, pos, n.saturating_mul(TILE_REF_BYTES))?;
        }
        7 | 8 => {
            let depth = decode_depth(take(buf, pos, 1)?[0])?;
            take(buf, pos, RECT_BYTES)?;
            let w = read_u32(buf, pos)?;
            let h = read_u32(buf, pos)?;
            take(buf, pos, raster_bytes(w, h, depth)?)?;
            if tag == 8 {
                take(buf, pos, (w * h).div_ceil(8))?;
            }
        }
        _ => return Err(ExecError::Codec("unknown value tag")),
    }
    Ok(())
}

fn skip_points(buf: &[u8], pos: &mut usize) -> Result<()> {
    let n = read_u32(buf, pos)?;
    take(buf, pos, n.saturating_mul(POINT_BYTES))?;
    Ok(())
}

fn skip_shape(buf: &[u8], pos: &mut usize) -> Result<()> {
    match take(buf, pos, 1)?[0] {
        0 => {
            take(buf, pos, POINT_BYTES)?;
        }
        1 | 2 => skip_points(buf, pos)?,
        3 => {
            skip_points(buf, pos)?;
            for _ in 0..read_u32(buf, pos)? {
                skip_points(buf, pos)?;
            }
        }
        4 => {
            take(buf, pos, POINT_BYTES + 8)?;
        }
        5 => {
            take(buf, pos, RECT_BYTES)?;
        }
        _ => return Err(ExecError::Codec("unknown shape tag")),
    }
    Ok(())
}

/// The vertices of an encoded polyline, read in place: `(x, y)` pairs of
/// little-endian `f64`s. Validated on construction (at least two, all
/// finite), so they satisfy [`Polyline::new`].
#[derive(Debug, Clone, Copy)]
pub struct EncodedPoints<'a>(&'a [u8]);

impl<'a> EncodedPoints<'a> {
    /// The vertices in order.
    pub fn iter(&self) -> impl Iterator<Item = Point> + 'a {
        self.0.chunks_exact(POINT_BYTES).map(|c| {
            Point::new(
                f64::from_le_bytes(c[..8].try_into().unwrap()),
                f64::from_le_bytes(c[8..].try_into().unwrap()),
            )
        })
    }

    /// Number of vertices (at least two).
    pub fn len(&self) -> usize {
        self.0.len() / POINT_BYTES
    }

    /// Always false: a polyline has at least two vertices.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Vertex `i`.
    pub fn point(&self, i: usize) -> Point {
        let c = &self.0[i * POINT_BYTES..(i + 1) * POINT_BYTES];
        Point::new(
            f64::from_le_bytes(c[..8].try_into().unwrap()),
            f64::from_le_bytes(c[8..].try_into().unwrap()),
        )
    }

    /// The vertices of the polyline that [`ShapeRef::decode`] accepted at
    /// `pos` of a record, read again from `buf`, a copy of that record or
    /// a buffer holding it at the same offset; `None` for another kind.
    /// Skips the validation `decode` did.
    pub(crate) fn reread(buf: &'a [u8], pos: usize) -> Option<EncodedPoints<'a>> {
        if buf[pos] != 1 {
            return None;
        }
        let n = u32::from_le_bytes(buf[pos + 1..pos + 5].try_into().unwrap()) as usize;
        Some(EncodedPoints(&buf[pos + 5..pos + 5 + n * POINT_BYTES]))
    }
}

/// A shape column read from an encoded record. Polylines (roads, drainage)
/// stay in place: [`ShapeRef::bbox`] and [`ShapeRef::distance_to_point`]
/// run over the encoded vertices without allocating, through the same geom
/// kernels in the same order as [`Shape`], so results are bit-identical.
/// Other kinds are decoded (points, circles and rects allocate nothing).
#[derive(Debug, Clone)]
pub enum ShapeRef<'a> {
    /// An encoded polyline.
    Polyline(EncodedPoints<'a>),
    /// Any other kind, decoded.
    Decoded(Shape),
}

impl<'a> ShapeRef<'a> {
    /// Reads a shape encoded by [`encode_shape`] at `pos`. Rejects exactly
    /// what [`decode_shape`] rejects, with the same error.
    pub fn decode(buf: &'a [u8], pos: &mut usize) -> Result<ShapeRef<'a>> {
        if buf.get(*pos) != Some(&1) {
            return Ok(ShapeRef::Decoded(decode_shape(buf, pos)?));
        }
        *pos += 1;
        let n = read_u32(buf, pos)?;
        let pts = EncodedPoints(take(buf, pos, n.saturating_mul(POINT_BYTES))?);
        if n < 2 || !pts.iter().all(|p| p.x.is_finite() && p.y.is_finite()) {
            return Err(ExecError::Codec("bad shape payload"));
        }
        Ok(ShapeRef::Polyline(pts))
    }

    /// Bounding box, bit-identical to [`Shape::bbox`].
    pub fn bbox(&self) -> Rect {
        match self {
            ShapeRef::Polyline(pts) => Rect::hull(pts.iter()).expect("at least two vertices"),
            ShapeRef::Decoded(s) => s.bbox(),
        }
    }

    /// The shape, owned.
    pub fn to_shape(&self) -> Shape {
        match self {
            ShapeRef::Polyline(pts) => {
                Shape::Polyline(Polyline::new(pts.iter().collect()).expect("validated vertices"))
            }
            ShapeRef::Decoded(s) => s.clone(),
        }
    }

    /// Distance to `p`, bit-identical to [`Shape::distance_to_point`].
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        match self {
            ShapeRef::Polyline(pts) => {
                paradise_geom::polyline::chain_distance_to_point(pts.iter(), p)
            }
            ShapeRef::Decoded(s) => s.distance_to_point(p),
        }
    }
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
        roundtrip(Value::from(Shape::Point(Point::new(1.0, 2.0))));
        roundtrip(Value::from(Shape::Polyline(
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)]).unwrap(),
        )));
        roundtrip(Value::from(Shape::Polygon(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(1.0, 2.0)])
                .unwrap(),
        )));
        let shell = Polygon::from_rect(
            &Rect::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap(),
        );
        let hole = Polygon::from_rect(
            &Rect::from_corners(Point::new(4.0, 4.0), Point::new(6.0, 6.0)).unwrap(),
        );
        roundtrip(Value::from(Shape::SwissCheese(SwissCheese::new(shell, vec![hole]).unwrap())));
        roundtrip(Value::from(Shape::Circle(Circle::new(Point::new(5.0, 5.0), 2.5).unwrap())));
        roundtrip(Value::from(Shape::Rect(
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
            tiles: vec![
                TileRef { node: 0, oid: Oid { page: 5, slot: 1 }, compressed: true },
                TileRef { node: 1, oid: Oid { page: 9, slot: 0 }, compressed: false },
                TileRef { node: 0, oid: Oid { page: 6, slot: 2 }, compressed: true },
                TileRef { node: 2, oid: Oid { page: 7, slot: 3 }, compressed: true },
                TileRef { node: 1, oid: Oid { page: 8, slot: 4 }, compressed: false },
                TileRef { node: 0, oid: Oid { page: 10, slot: 5 }, compressed: true },
            ],
        };
        roundtrip(Value::Raster(sr.into()));
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
        let tile = TileRef { node: 0, oid: Oid { page: 1, slot: 0 }, compressed: false };
        let mut sr = StoredRaster {
            depth: BitDepth::Eight,
            geo,
            width: 100,
            height: 90,
            tile_h: 32,
            tile_w: 40,
            tiles: vec![tile; 9],
        };
        let s = sr.scheme().unwrap();
        assert_eq!(s.num_tiles(), 9);
        // full region covers all 9 tiles
        assert_eq!(s.tiles_overlapping(&[0, 0], &[90, 100]).unwrap().len(), 9);
        // a region inside tile (1,1)
        assert_eq!(s.tiles_overlapping(&[40, 45], &[10, 15]).unwrap(), vec![4]);
        // edge tile shapes are clipped
        assert_eq!(s.tile_region(8), (vec![64, 80], vec![26, 20]));
        // empty region
        assert!(s.tiles_overlapping(&[10, 0], &[0, 5]).unwrap().is_empty());
        // a mapping table that disagrees with the grid, or a zero tile
        // extent, is rejected rather than indexed
        sr.tiles.pop();
        assert!(sr.scheme().is_err());
        sr.tiles.push(tile);
        sr.tile_w = 0;
        assert!(sr.scheme().is_err());
    }

    #[test]
    fn wire_size_reference_vs_pixels() {
        let geo = Rect::from_corners(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        let mem = Value::Raster(RasterValue::Mem(Arc::new(
            Raster::new(100, 100, BitDepth::Sixteen, geo).unwrap(),
        )));
        let stored = Value::Raster(RasterValue::from(StoredRaster {
            depth: BitDepth::Sixteen,
            geo,
            width: 100,
            height: 100,
            tile_h: 50,
            tile_w: 50,
            tiles: vec![TileRef { node: 0, oid: Oid { page: 1, slot: 0 }, compressed: false }; 4],
        }));
        assert!(stored.wire_size() * 10 < mem.wire_size(), "references must be cheap to ship");
    }

    #[test]
    fn values_are_compact_and_share_large_attributes() {
        assert!(std::mem::size_of::<Value>() <= 24, "{}", std::mem::size_of::<Value>());
        assert!(std::mem::size_of::<RasterValue>() <= 16, "{}", std::mem::size_of::<RasterValue>());
        let line = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)]).unwrap();
        let shape = Value::from(Shape::Polyline(line));
        let (Value::Shape(a), Value::Shape(b)) = (&shape, &shape.clone()) else { unreachable!() };
        assert!(Arc::ptr_eq(a, b), "cloning a shape value copies the geometry");
        let geo = Rect::from_corners(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap();
        let sr = StoredRaster {
            depth: BitDepth::Eight,
            geo,
            width: 1,
            height: 1,
            tile_h: 1,
            tile_w: 1,
            tiles: Vec::new(),
        };
        let stored = Value::Raster(sr.into());
        let (Value::Raster(RasterValue::Stored(a)), Value::Raster(RasterValue::Stored(b))) =
            (&stored, &stored.clone())
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b), "cloning a raster reference copies its mapping table");
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
