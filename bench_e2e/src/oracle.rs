//! The answer oracle: brute force over the generated `World`, written
//! against the geometry and array types only — never the engine's query
//! plans — so it keeps checking answers while those plans are rewritten.
//!
//! Vector statements are compared as distinct-id sets; raster statements
//! compare pixel digests of `paradise_array` clips of the world's
//! in-memory rasters.

use crate::workload::Check;
use paradise::array::Raster;
use paradise::exec::value::{encode_shape, RasterValue, Value};
use paradise::exec::Tuple;
use paradise::geom::{Circle, Rect, Shape};
use paradise::queries::{
    LC_SHAPE, LC_TYPE, LINE_ID, LINE_SHAPE, LINE_TYPE, PP_LOC, PP_NAME, PP_TYPE,
};
use paradise_datagen::tables::World;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A statement's answer: the sorted, distinct keys of its rows.
pub type Answer = Vec<u64>;

/// Field-by-field key builder.
#[derive(Default)]
struct Key(DefaultHasher);

impl Key {
    fn str(mut self, s: &str) -> Key {
        s.hash(&mut self.0);
        self
    }
    fn int(mut self, v: i64) -> Key {
        v.hash(&mut self.0);
        self
    }
    fn float(mut self, v: f64) -> Key {
        v.to_bits().hash(&mut self.0);
        self
    }
    fn shape(mut self, s: &Shape) -> Key {
        let mut bytes = Vec::new();
        encode_shape(s, &mut bytes);
        bytes.hash(&mut self.0);
        self
    }
    fn raster(mut self, r: &Raster) -> Key {
        (r.width(), r.height()).hash(&mut self.0);
        let g = r.geo();
        for v in [g.lo.x, g.lo.y, g.hi.x, g.hi.y] {
            v.to_bits().hash(&mut self.0);
        }
        for row in 0..r.height() {
            for col in 0..r.width() {
                let px = if r.is_valid(col, row) { r.pixel(col, row).ok() } else { None };
                px.hash(&mut self.0);
            }
        }
        self
    }
    fn done(self) -> u64 {
        self.0.finish()
    }
}

fn answer(mut keys: Vec<u64>) -> Answer {
    keys.sort_unstable();
    keys.dedup();
    keys
}

fn col(t: &Tuple, i: usize) -> Result<&Value, String> {
    t.get(i).map_err(|e| format!("column {i}: {e}"))
}

fn shape_of(t: &Tuple, i: usize) -> Result<&Shape, String> {
    col(t, i)?.as_shape().map_err(|e| e.to_string())
}

fn int_of(t: &Tuple, i: usize) -> Result<i64, String> {
    col(t, i)?.as_int().map_err(|e| e.to_string())
}

fn str_of(t: &Tuple, i: usize) -> Result<&str, String> {
    col(t, i)?.as_str().map_err(|e| e.to_string())
}

fn date_of(t: &Tuple, i: usize) -> Result<i64, String> {
    col(t, i)?.as_date().map(|d| d.0).map_err(|e| e.to_string())
}

fn raster_of(t: &Tuple, i: usize) -> Result<&Raster, String> {
    match col(t, i)? {
        Value::Raster(RasterValue::Mem(r)) => Ok(r),
        other => Err(format!("column {i}: expected an in-memory raster, got {}", other.kind())),
    }
}

/// Keys of a statement's result rows, in the same key space as
/// [`Oracle::expect`].
pub fn answer_keys(check: &Check, rows: &[Tuple]) -> Result<Answer, String> {
    let mut keys = Vec::with_capacity(rows.len());
    for t in rows {
        let k = match check {
            Check::Q2 { .. } => Key::default().int(date_of(t, 0)?).raster(raster_of(t, 1)?),
            Check::Q3 { .. } => Key::default().raster(raster_of(t, 0)?),
            Check::Q4 { .. } | Check::Q10 { .. } => {
                Key::default().int(date_of(t, 0)?).int(int_of(t, 1)?).raster(raster_of(t, 2)?)
            }
            Check::Q5 { .. } | Check::Q6 { .. } => Key::default().str(str_of(t, 0)?),
            Check::Q7 { .. } => Key::default()
                .float(col(t, 0)?.as_float().map_err(|e| e.to_string())?)
                .int(int_of(t, 1)?),
            Check::Q8 { .. } | Check::Q11 { .. } => {
                Key::default().shape(shape_of(t, 0)?).int(int_of(t, 1)?)
            }
            Check::Q9Q14 { .. } => Key::default().shape(shape_of(t, 0)?).raster(raster_of(t, 1)?),
            Check::Q12 { .. } => Key::default().shape(shape_of(t, 0)?).shape(shape_of(t, 1)?),
            Check::Q13 => Key::default().str(str_of(t, 0)?).str(str_of(t, 3)?),
        };
        keys.push(k.done());
    }
    Ok(answer(keys))
}

/// Compares an answer with the expected one.
pub fn verify(expected: &Answer, got: &Answer) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let missing = expected.iter().filter(|k| got.binary_search(k).is_err()).count();
    let extra = got.iter().filter(|k| expected.binary_search(k).is_err()).count();
    Err(format!(
        "expected {} distinct rows, got {}: {missing} missing, {extra} unexpected",
        expected.len(),
        got.len()
    ))
}

/// Order-sensitive digest of the full encoded rows (Local and Tcp runs of
/// one statement must agree byte for byte).
pub fn row_digest(rows: &[Tuple]) -> u64 {
    let mut h = DefaultHasher::new();
    rows.len().hash(&mut h);
    for t in rows {
        t.encode().hash(&mut h);
    }
    h.finish()
}

/// Brute-force answers over one world.
pub struct Oracle<'w> {
    world: &'w World,
    lc_boxes: Vec<Rect>,
}

fn mem_raster(t: &Tuple) -> &Raster {
    match t.get(2).expect("raster.data") {
        Value::Raster(RasterValue::Mem(r)) => r,
        _ => unreachable!("generated rasters live in memory"),
    }
}

fn shape(t: &Tuple, i: usize) -> &Shape {
    t.get(i).expect("column").as_shape().expect("shape column")
}

fn int(t: &Tuple, i: usize) -> i64 {
    t.get(i).expect("column").as_int().expect("int column")
}

fn text(t: &Tuple, i: usize) -> &str {
    t.get(i).expect("column").as_str().expect("string column")
}

fn clip(r: &Raster, poly: &paradise::geom::Polygon) -> Option<Raster> {
    match r.clip(poly) {
        Ok(c) => Some(c),
        Err(paradise::array::ArrayError::EmptyClip) => None,
        Err(e) => panic!("clip of a generated raster failed: {e}"),
    }
}

impl<'w> Oracle<'w> {
    /// An oracle over `world`.
    pub fn new(world: &'w World) -> Oracle<'w> {
        let lc_boxes = world.land_cover.iter().map(|t| shape(t, LC_SHAPE).bbox()).collect();
        Oracle { world, lc_boxes }
    }

    fn rasters(&self) -> impl Iterator<Item = (i64, i64, &Raster)> {
        self.world.rasters.iter().map(|t| {
            let date = t.get(0).expect("date").as_date().expect("date column").0;
            (date, int(t, 1), mem_raster(t))
        })
    }

    /// Land-cover tuples whose bounding box meets `window`.
    fn land_cover_near(&self, window: Rect) -> impl Iterator<Item = &Tuple> {
        self.world
            .land_cover
            .iter()
            .zip(&self.lc_boxes)
            .filter_map(move |(t, b)| b.intersects(&window).then_some(t))
    }

    /// The expected answer to `check`.
    pub fn expect(&self, check: &Check) -> Answer {
        let w = self.world;
        let keys: Vec<u64> = match check {
            Check::Q2 { channel, clip: poly } => self
                .rasters()
                .filter(|(_, ch, _)| ch == channel)
                .filter_map(|(d, _, r)| Some(Key::default().int(d).raster(&clip(r, poly)?).done()))
                .collect(),
            Check::Q3 { date, clip: poly } => {
                let clipped: Vec<Raster> = self
                    .rasters()
                    .filter(|(d, _, _)| *d == date.0)
                    .filter_map(|(_, _, r)| clip(r, poly))
                    .collect();
                let refs: Vec<&Raster> = clipped.iter().collect();
                match Raster::average_of(&refs) {
                    Ok(avg) => vec![Key::default().raster(&avg).done()],
                    Err(_) => Vec::new(),
                }
            }
            Check::Q4 { date, channel, clip: poly, factor } => self
                .rasters()
                .filter(|(d, ch, _)| *d == date.0 && ch == channel)
                .filter_map(|(d, ch, r)| {
                    let low = clip(r, poly)?.lower_res(*factor).expect("factor > 0");
                    Some(Key::default().int(d).int(ch).raster(&low).done())
                })
                .collect(),
            Check::Q5 { name } => w
                .populated_places
                .iter()
                .filter(|t| text(t, PP_NAME) == name)
                .map(|t| Key::default().str(text(t, 0)).done())
                .collect(),
            Check::Q6 { region } => {
                let target = Shape::Polygon(region.clone());
                self.land_cover_near(region.bbox())
                    .filter(|t| shape(t, LC_SHAPE).overlaps(&target))
                    .map(|t| Key::default().str(text(t, 0)).done())
                    .collect()
            }
            Check::Q7 { center, radius, max_area } => {
                let circle = Circle::new(*center, *radius).expect("positive radius");
                self.land_cover_near(circle.bbox())
                    .filter_map(|t| match shape(t, LC_SHAPE) {
                        Shape::Polygon(p) if p.within_circle(&circle) && p.area() < *max_area => {
                            Some(Key::default().float(p.area()).int(int(t, LC_TYPE)).done())
                        }
                        _ => None,
                    })
                    .collect()
            }
            Check::Q8 { name, box_len } => {
                let mut keys = Vec::new();
                for place in w.populated_places.iter().filter(|t| text(t, PP_NAME) == name) {
                    let p = shape(place, PP_LOC).as_point().expect("place location");
                    let b = p.make_box(*box_len);
                    let target = Shape::Rect(b);
                    for t in self.land_cover_near(b) {
                        if shape(t, LC_SHAPE).overlaps(&target) {
                            keys.push(
                                Key::default()
                                    .shape(shape(t, LC_SHAPE))
                                    .int(int(t, LC_TYPE))
                                    .done(),
                            );
                        }
                    }
                }
                keys
            }
            Check::Q9Q14 { lo, hi, channel, cover } => {
                let polys: Vec<&Shape> = w
                    .land_cover
                    .iter()
                    .filter(|t| int(t, LC_TYPE) == *cover)
                    .map(|t| shape(t, LC_SHAPE))
                    .collect();
                let mut keys = Vec::new();
                for (_, _, r) in
                    self.rasters().filter(|(d, ch, _)| ch == channel && (lo.0..=hi.0).contains(d))
                {
                    for s in &polys {
                        let Shape::Polygon(p) = s else { continue };
                        if let Some(c) = clip(r, p) {
                            keys.push(Key::default().shape(s).raster(&c).done());
                        }
                    }
                }
                keys
            }
            Check::Q10 { clip: poly, threshold } => self
                .rasters()
                .filter_map(|(d, ch, r)| {
                    let c = clip(r, poly)?;
                    (c.average().unwrap_or(0.0) > *threshold)
                        .then(|| Key::default().int(d).int(ch).raster(&c).done())
                })
                .collect(),
            Check::Q11 { point } => {
                let mut best: std::collections::BTreeMap<i64, (f64, &Shape)> = Default::default();
                for t in &w.roads {
                    let s = shape(t, LINE_SHAPE);
                    let d = s.distance_to_point(point);
                    let e = best.entry(int(t, LINE_TYPE)).or_insert((d, s));
                    if d < e.0 {
                        *e = (d, s);
                    }
                }
                best.iter().map(|(ty, (_, s))| Key::default().shape(s).int(*ty).done()).collect()
            }
            Check::Q12 { place_type } => w
                .populated_places
                .iter()
                .filter(|t| int(t, PP_TYPE) == *place_type)
                .filter_map(|place| {
                    let loc = shape(place, PP_LOC);
                    let p = loc.as_point()?;
                    let nearest = w
                        .drainage
                        .iter()
                        .map(|t| (shape(t, LINE_SHAPE).distance_to_point(&p), shape(t, LINE_SHAPE)))
                        .min_by(|a, b| a.0.total_cmp(&b.0))?;
                    Some(Key::default().shape(nearest.1).shape(loc).done())
                })
                .collect(),
            Check::Q13 => self.crossings(),
        };
        answer(keys)
    }

    /// Q13 by a plane sweep over bounding boxes, then the exact test.
    fn crossings(&self) -> Vec<u64> {
        let w = self.world;
        let mut roads: Vec<(Rect, &Tuple)> =
            w.roads.iter().map(|t| (shape(t, LINE_SHAPE).bbox(), t)).collect();
        roads.sort_by(|a, b| a.0.lo.x.total_cmp(&b.0.lo.x));
        let widest = roads.iter().map(|(b, _)| b.width()).fold(0.0, f64::max);
        let mut keys = Vec::new();
        for d in &w.drainage {
            let ds = shape(d, LINE_SHAPE);
            let db = ds.bbox();
            let first = roads.partition_point(|(b, _)| b.lo.x < db.lo.x - widest);
            for (rb, r) in roads[first..].iter().take_while(|(b, _)| b.lo.x <= db.hi.x) {
                if rb.intersects(&db) && ds.overlaps(shape(r, LINE_SHAPE)) {
                    keys.push(Key::default().str(text(d, LINE_ID)).str(text(r, LINE_ID)).done());
                }
            }
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{load_instance, sequoia_pass, BrowseStream};
    use paradise::TransportKind;
    use paradise_datagen::tables::WorldSpec;
    use std::sync::Arc;

    fn check_all(db: &paradise::Paradise, oracle: &Oracle, stmts: &[crate::workload::Stmt]) {
        for s in stmts {
            let rows = db.sql(&s.sql).unwrap_or_else(|e| panic!("{}: {e}", s.template)).rows;
            let got = answer_keys(&s.check, &rows).unwrap();
            verify(&oracle.expect(&s.check), &got)
                .unwrap_or_else(|e| panic!("{}: {e}", s.template));
        }
    }

    #[test]
    fn oracle_accepts_engine_answers_and_rejects_corrupted_ones() {
        let world = World::generate(WorldSpec::tiny(21));
        let dir = std::env::temp_dir().join(format!("bench-e2e-oracle-{}", std::process::id()));
        let (db, _) = load_instance(&dir, &world, TransportKind::Local, None).unwrap();
        let oracle = Oracle::new(&world);

        // Every paper statement and a stretch of the browse stream agree.
        check_all(&db, &oracle, &sequoia_pass());
        let mut stream = BrowseStream::new(3, &world);
        let browse: Vec<_> = (0..60).map(|_| stream.next_stmt()).collect();
        check_all(&db, &oracle, &browse);

        // A dropped vector row is caught.
        let q6 = sequoia_pass().into_iter().find(|s| s.template == "q6").unwrap();
        let mut rows = db.sql(&q6.sql).unwrap().rows;
        assert!(rows.len() > 1, "tiny world should overlap the US region");
        rows.pop();
        let got = answer_keys(&q6.check, &rows).unwrap();
        assert!(verify(&oracle.expect(&q6.check), &got).is_err());

        // A changed id is caught.
        let mut rows = db.sql(&q6.sql).unwrap().rows;
        rows[0].values[0] = Value::Str("lc-forged".into());
        let got = answer_keys(&q6.check, &rows).unwrap();
        assert!(verify(&oracle.expect(&q6.check), &got).is_err());

        // One corrupted pixel in a clipped raster is caught.
        let q2 = sequoia_pass().into_iter().find(|s| s.template == "q2").unwrap();
        let mut rows = db.sql(&q2.sql).unwrap().rows;
        let Value::Raster(RasterValue::Mem(r)) = &rows[0].values[1] else { panic!("raster") };
        let mut bad = (**r).clone();
        let v = bad.pixel(0, 0).unwrap();
        bad.set_pixel(0, 0, v ^ 1).unwrap();
        rows[0].values[1] = Value::Raster(RasterValue::Mem(Arc::new(bad)));
        let got = answer_keys(&q2.check, &rows).unwrap();
        assert!(verify(&oracle.expect(&q2.check), &got).is_err());

        // A row of the wrong shape is an error, not a pass.
        assert!(answer_keys(&q2.check, &[Tuple::new(vec![Value::Int(1)])]).is_err());
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn row_digest_is_order_sensitive() {
        let a = Tuple::new(vec![Value::Int(1)]);
        let b = Tuple::new(vec![Value::Int(2)]);
        assert_eq!(row_digest(&[a.clone(), b.clone()]), row_digest(&[a.clone(), b.clone()]));
        assert_ne!(row_digest(&[a.clone(), b.clone()]), row_digest(&[b, a]));
    }
}
