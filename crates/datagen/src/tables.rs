//! The five benchmark tables (paper §3.1.1) at a configurable scale.

use crate::scaleup;
use crate::{random_point, rng, world_rect};
use paradise_array::{BitDepth, Raster};
use paradise_exec::schema::{DataType, Field, Schema};
use paradise_exec::value::{Date, RasterValue, Value};
use paradise_exec::{Decluster, TableDef, Tuple};
use paradise_geom::{Point, Polygon, Polyline, Rect, Shape};
use paradise_util::Rng as StdRng;
use std::sync::Arc;

/// `populatedPlaces.type` value meaning "large city" (Q12's filter).
pub const LARGE_CITY: i64 = 1;
/// `landCover.type` value meaning "oil field" (Q9/Q14's filter).
pub const OIL_FIELD: i64 = 7;
/// The raster channel the queries select (`channel = 5`).
pub const QUERY_CHANNEL: i64 = 5;
/// The anchored date used by Q3/Q4/Q9 (`Date("1988-04-01")`).
pub fn query_date() -> Date {
    Date::from_ymd(1988, 4, 1)
}

/// The benchmark's constant POLYGON: "a rectangular region roughly
/// corresponding to the continental United States … approximately 2% of
/// each raster image".
pub fn us_polygon() -> Polygon {
    Polygon::from_rect(
        &Rect::from_corners(Point::new(-125.0, 25.0), Point::new(-67.0, 49.0)).unwrap(),
    )
}

/// Generation parameters. `scale` applies the §3.1.3 resolution scaleup
/// (1, 2, 4 …); the other counts are the scale-1 cardinalities, by default
/// the Table 3.1 cardinalities divided by ~1000.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// RNG seed.
    pub seed: u64,
    /// Resolution-scaleup factor (Table 3.1's rows are 1, 2, 4).
    pub scale: usize,
    /// Number of raster dates (paper: 360 over 10 years).
    pub dates: usize,
    /// Raster channels (paper: 4 channels → 1440 rasters).
    pub channels: Vec<i64>,
    /// Base raster width in pixels.
    pub raster_w: usize,
    /// Base raster height in pixels.
    pub raster_h: usize,
    /// Populated places at scale 1 (paper: 250 K).
    pub populated_places: usize,
    /// Roads at scale 1 (paper: 700 K).
    pub roads: usize,
    /// Drainage features at scale 1 (paper: 1.74 M).
    pub drainage: usize,
    /// Land-cover polygons at scale 1 (paper: 570 K).
    pub land_cover: usize,
}

impl WorldSpec {
    /// Table 3.1 cardinalities shrunk by `shrink` (e.g. 1000 gives 250
    /// places, 700 roads, 1740 drainage features, 570 polygons) at
    /// resolution scale `scale`.
    pub fn paper_ratio(seed: u64, scale: usize, shrink: usize) -> WorldSpec {
        WorldSpec {
            seed,
            scale,
            dates: 36,
            channels: vec![1, 3, QUERY_CHANNEL, 7],
            raster_w: 240,
            raster_h: 120,
            populated_places: 250_000 / shrink,
            roads: 700_000 / shrink,
            drainage: 1_740_000 / shrink,
            land_cover: 570_000 / shrink,
        }
    }

    /// A tiny world for unit tests.
    pub fn tiny(seed: u64) -> WorldSpec {
        WorldSpec {
            seed,
            scale: 1,
            dates: 6,
            channels: vec![1, QUERY_CHANNEL],
            raster_w: 36,
            raster_h: 18,
            populated_places: 60,
            roads: 80,
            drainage: 120,
            land_cover: 60,
        }
    }
}

/// The generated benchmark relation set.
pub struct World {
    /// Generation parameters.
    pub spec: WorldSpec,
    /// `raster(date, channel, data)` tuples.
    pub rasters: Vec<Tuple>,
    /// `populatedPlaces(id, containing_face, type, location, name)`.
    pub populated_places: Vec<Tuple>,
    /// `roads(id, type, shape)`.
    pub roads: Vec<Tuple>,
    /// `drainage(id, type, shape)`.
    pub drainage: Vec<Tuple>,
    /// `landCover(id, type, shape)`.
    pub land_cover: Vec<Tuple>,
}

/// Continents: the land mask creating the paper's spatial skew (features
/// cluster on land, ocean tiles stay nearly empty — the Lake Michigan /
/// Rhinelander discussion of §2.7.1).
pub fn continents() -> Vec<Rect> {
    let r = |x0: f64, y0: f64, x1: f64, y1: f64| {
        Rect::from_corners(Point::new(x0, y0), Point::new(x1, y1)).unwrap()
    };
    vec![
        r(-165.0, 15.0, -55.0, 70.0),  // North America
        r(-80.0, -55.0, -35.0, 10.0),  // South America
        r(-15.0, -35.0, 50.0, 35.0),   // Africa
        r(-10.0, 36.0, 60.0, 70.0),    // Europe
        r(60.0, 5.0, 145.0, 65.0),     // Asia
        r(112.0, -40.0, 155.0, -12.0), // Australia
    ]
}

fn random_land_point(rng: &mut StdRng, continents: &[Rect]) -> Point {
    // Weight by area.
    let total: f64 = continents.iter().map(|c| c.area()).sum();
    let mut pick = rng.gen_range(0.0..total);
    for c in continents {
        if pick < c.area() {
            return random_point(rng, c);
        }
        pick -= c.area();
    }
    random_point(rng, continents.last().expect("non-empty"))
}

/// A meandering chain starting at `start` (roads / drainage).
fn random_chain(rng: &mut StdRng, start: Point, segs: usize, step: f64) -> Polyline {
    let mut pts = Vec::with_capacity(segs + 1);
    let mut p = start;
    let mut dir: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    pts.push(p);
    for _ in 0..segs {
        dir += rng.gen_range(-0.8..0.8);
        p = Point::new(
            (p.x + step * dir.cos()).clamp(-179.9, 179.9),
            (p.y + step * dir.sin()).clamp(-89.9, 89.9),
        );
        pts.push(p);
    }
    Polyline::new(pts).expect(">= 2 points")
}

/// A blobby polygon around `center` (land cover).
fn random_blob(rng: &mut StdRng, center: Point, radius: f64, points: usize) -> Polygon {
    let n = points.max(4);
    let ring: Vec<Point> = (0..n)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / n as f64;
            let r = radius * rng.gen_range(0.55..1.0);
            Point::new(
                (center.x + r * a.cos()).clamp(-179.9, 179.9),
                (center.y + r * a.sin()).clamp(-89.9, 89.9),
            )
        })
        .collect();
    Polygon::new(ring).expect(">= 3 points")
}

/// A synthetic AVHRR-like composite: a latitude gradient plus seasonal and
/// per-channel terms plus noise — compresses moderately, like real imagery.
fn make_raster(rng: &mut StdRng, w: usize, h: usize, date_ord: usize, channel: i64) -> Raster {
    let mut r = Raster::new(w, h, BitDepth::Sixteen, world_rect()).expect("raster");
    let season = (date_ord as f64 / 36.0 * std::f64::consts::TAU).sin();
    for row in 0..h {
        let lat = 90.0 - (row as f64 + 0.5) * 180.0 / h as f64;
        let base = 20_000.0 + 15_000.0 * (lat.to_radians().cos()) + 2_000.0 * season;
        for col in 0..w {
            let v = base + channel as f64 * 500.0 + rng.gen_range(-300.0..300.0);
            r.set_pixel(col, row, v.max(0.0) as u32).expect("in range");
        }
    }
    r
}

impl World {
    /// Generates the world for `spec` (deterministic per seed).
    pub fn generate(spec: WorldSpec) -> World {
        let mut rng = rng(spec.seed);
        let continents = continents();
        let s = spec.scale.max(1);

        // --- rasters -------------------------------------------------
        // Dates every 10 days anchored so Q3/Q4/Q9's 1988-04-01 exists and
        // roughly a year of dates falls in 1988 (Q14's range).
        let anchor = query_date().0;
        let mut rasters = Vec::with_capacity(spec.dates * spec.channels.len());
        for di in 0..spec.dates {
            let date = Date(anchor + (di as i64 - (spec.dates as i64 / 4)) * 10);
            for &ch in &spec.channels {
                let base = make_raster(&mut rng, spec.raster_w, spec.raster_h, di, ch);
                let img = if s > 1 { scaleup::scale_raster(&base, s, &mut rng) } else { base };
                rasters.push(Tuple::new(vec![
                    Value::Date(date),
                    Value::Int(ch),
                    Value::Raster(RasterValue::Mem(Arc::new(img))),
                ]));
            }
        }

        // --- populated places -----------------------------------------
        // Places cluster around urban centres (spatial skew).
        let n_centers = (spec.populated_places / 20).max(1);
        let centers: Vec<Point> =
            (0..n_centers).map(|_| random_land_point(&mut rng, &continents)).collect();
        let mut populated_places = Vec::new();
        let mut pp_id = 0usize;
        let push_place = |id: usize, p: Point, name: String, rng: &mut StdRng| {
            // Roughly 2% large cities, with a deterministic floor (one per
            // 40 ids) so even tiny worlds always have Q12 targets.
            let ty =
                if id % 40 == 7 || rng.gen_bool(0.02) { LARGE_CITY } else { 2 + (id as i64 % 4) };
            Tuple::new(vec![
                Value::Str(format!("pp-{id}").into()),
                Value::Str(format!("face-{}", id % 97).into()),
                Value::Int(ty),
                Value::from(Shape::Point(p)),
                Value::Str(name.into()),
            ])
        };
        for i in 0..spec.populated_places {
            let c = centers[rng.gen_range(0..centers.len())];
            let p = Point::new(
                (c.x + rng.gen_range(-3.0..3.0)).clamp(-179.9, 179.9),
                (c.y + rng.gen_range(-3.0..3.0)).clamp(-89.9, 89.9),
            );
            // Q5 needs a Phoenix; Q8 needs Louisvilles.
            let name = match i {
                0 => "Phoenix".to_string(),
                1 | 2 => "Louisville".to_string(),
                _ => format!("place-{i}"),
            };
            let (orig, sats) = scaleup::scale_point(&p, s, 0.5, &mut rng);
            populated_places.push(push_place(pp_id, orig, name, &mut rng));
            pp_id += 1;
            for sp in sats {
                populated_places.push(push_place(pp_id, sp, format!("place-{pp_id}"), &mut rng));
                pp_id += 1;
            }
        }

        // --- roads & drainage ------------------------------------------
        let mk_lines = |count: usize,
                        types: i64,
                        segs: usize,
                        step: f64,
                        prefix: &str,
                        rng: &mut StdRng|
         -> Vec<Tuple> {
            let mut out = Vec::new();
            let mut id = 0usize;
            let push = |id: usize, line: Polyline, rng: &mut StdRng, out: &mut Vec<Tuple>| {
                out.push(Tuple::new(vec![
                    Value::Str(format!("{prefix}-{id}").into()),
                    Value::Int(rng.gen_range(0..types)),
                    Value::from(Shape::Polyline(line)),
                ]));
            };
            for _ in 0..count {
                let start = random_land_point(rng, &continents);
                let base = random_chain(rng, start, segs, step);
                let (dense, sats) = scaleup::scale_polyline(&base, s, rng);
                push(id, dense, rng, &mut out);
                id += 1;
                for sat in sats {
                    push(id, sat, rng, &mut out);
                    id += 1;
                }
            }
            out
        };
        let roads = mk_lines(spec.roads, 8, 6, 1.2, "rd", &mut rng);
        let drainage = mk_lines(spec.drainage, 21, 8, 0.9, "dr", &mut rng);

        // --- land cover --------------------------------------------------
        let mut land_cover = Vec::new();
        let mut lc_id = 0usize;
        let push_lc = |id: usize, ty: i64, poly: Polygon, out: &mut Vec<Tuple>| {
            out.push(Tuple::new(vec![
                Value::Str(format!("lc-{id}").into()),
                Value::Int(ty),
                Value::from(Shape::Polygon(poly)),
            ]));
        };
        for i in 0..spec.land_cover {
            let center = random_land_point(&mut rng, &continents);
            let radius = rng.gen_range(0.3..2.0);
            let base = random_blob(&mut rng, center, radius, 8);
            // 16 categories (0..16); OIL_FIELD (7) only for every 100th.
            let ty = if i % 100 == 0 {
                OIL_FIELD
            } else {
                let t = i as i64 % 15;
                if t >= OIL_FIELD {
                    t + 1
                } else {
                    t
                }
            };
            let (dense, sats) = scaleup::scale_polygon(&base, s, &mut rng);
            push_lc(lc_id, ty, dense, &mut land_cover);
            lc_id += 1;
            for sat in sats {
                // Satellites get ordinary (non-oil-field) types.
                let t = lc_id as i64 % 15;
                let t = if t >= OIL_FIELD { t + 1 } else { t };
                push_lc(lc_id, t, sat, &mut land_cover);
                lc_id += 1;
            }
        }

        World { spec, rasters, populated_places, roads, drainage, land_cover }
    }

    /// Total raster pixel bytes (for the Table 3.1 size columns).
    pub fn raster_bytes(&self) -> usize {
        self.rasters
            .iter()
            .map(|t| match t.get(2).expect("data col") {
                Value::Raster(RasterValue::Mem(r)) => r.byte_len(),
                _ => 0,
            })
            .sum()
    }
}

/// `raster(date, channel, data)` — round-robin declustered: rasters are
/// large and uniformly queried, so round robin balances them (§2.3).
pub fn raster_table() -> TableDef {
    TableDef::new(
        "raster",
        Schema::new(vec![
            Field::new("date", DataType::Date),
            Field::new("channel", DataType::Int),
            Field::new("data", DataType::Raster),
        ]),
        Decluster::RoundRobin,
    )
}

/// `populatedPlaces(id, containing_face, type, location, name)` —
/// spatially declustered on `location` (Q12 step 2).
pub fn populated_places_table() -> TableDef {
    TableDef::new(
        "populatedPlaces",
        Schema::new(vec![
            Field::new("id", DataType::Str),
            Field::new("containing_face", DataType::Str),
            Field::new("type", DataType::Int),
            Field::new("location", DataType::Point),
            Field::new("name", DataType::Str),
        ]),
        Decluster::Spatial { col: 3 },
    )
}

/// `roads(id, type, shape)` — spatially declustered on `shape`.
pub fn roads_table() -> TableDef {
    TableDef::new(
        "roads",
        Schema::new(vec![
            Field::new("id", DataType::Str),
            Field::new("type", DataType::Int),
            Field::new("shape", DataType::Polyline),
        ]),
        Decluster::Spatial { col: 2 },
    )
}

/// `drainage(id, type, shape)` — spatially declustered on `shape` (Q12
/// step 1).
pub fn drainage_table() -> TableDef {
    TableDef::new(
        "drainage",
        Schema::new(vec![
            Field::new("id", DataType::Str),
            Field::new("type", DataType::Int),
            Field::new("shape", DataType::Polyline),
        ]),
        Decluster::Spatial { col: 2 },
    )
}

/// `landCover(id, type, shape)` — spatially declustered on `shape`.
pub fn land_cover_table() -> TableDef {
    TableDef::new(
        "landCover",
        Schema::new(vec![
            Field::new("id", DataType::Str),
            Field::new("type", DataType::Int),
            Field::new("shape", DataType::Polygon),
        ]),
        Decluster::Spatial { col: 2 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_world_has_expected_shape() {
        let w = World::generate(WorldSpec::tiny(1));
        assert_eq!(w.rasters.len(), 6 * 2);
        assert_eq!(w.populated_places.len(), 60);
        assert_eq!(w.roads.len(), 80);
        assert_eq!(w.drainage.len(), 120);
        assert_eq!(w.land_cover.len(), 60);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldSpec::tiny(7));
        let b = World::generate(WorldSpec::tiny(7));
        assert_eq!(a.populated_places, b.populated_places);
        assert_eq!(a.roads, b.roads);
        assert_eq!(a.land_cover, b.land_cover);
    }

    #[test]
    fn query_constants_exist() {
        let w = World::generate(WorldSpec::tiny(2));
        // Phoenix and Louisville present (Q5/Q8).
        let names: Vec<&str> =
            w.populated_places.iter().map(|t| t.get(4).unwrap().as_str().unwrap()).collect();
        assert!(names.contains(&"Phoenix"));
        assert!(names.iter().filter(|n| **n == "Louisville").count() >= 1);
        // The query date exists on the query channel (Q4/Q9).
        let hit = w.rasters.iter().any(|t| {
            t.get(0).unwrap().as_date().unwrap() == query_date()
                && t.get(1).unwrap().as_int().unwrap() == QUERY_CHANNEL
        });
        assert!(hit, "1988-04-01 channel 5 raster must exist");
        // Some oil fields exist (Q9/Q14).
        assert!(w.land_cover.iter().any(|t| t.get(1).unwrap().as_int().unwrap() == OIL_FIELD));
        // Some large cities exist (Q12).
        assert!(w
            .populated_places
            .iter()
            .any(|t| t.get(2).unwrap().as_int().unwrap() == LARGE_CITY));
    }

    #[test]
    fn scaleup_doubles_vector_tables_and_raster_bytes() {
        let s1 = World::generate(WorldSpec::tiny(3));
        let mut spec2 = WorldSpec::tiny(3);
        spec2.scale = 2;
        let s2 = World::generate(spec2);
        // Feature counts double (original + satellites).
        assert_eq!(s2.land_cover.len(), 2 * s1.land_cover.len());
        assert_eq!(s2.roads.len(), 2 * s1.roads.len());
        assert_eq!(s2.drainage.len(), 2 * s1.drainage.len());
        assert_eq!(s2.populated_places.len(), 2 * s1.populated_places.len());
        // Raster count fixed; bytes double.
        assert_eq!(s2.rasters.len(), s1.rasters.len());
        assert_eq!(s2.raster_bytes(), 2 * s1.raster_bytes());
    }

    #[test]
    fn features_cluster_on_land() {
        let w = World::generate(WorldSpec::tiny(4));
        let land = continents();
        let on_land = w
            .populated_places
            .iter()
            .filter(|t| {
                let p = t.get(3).unwrap().as_shape().unwrap().as_point().unwrap();
                land.iter().any(|c| c.expand(4.0).contains_point(&p))
            })
            .count();
        assert!(
            on_land * 10 >= w.populated_places.len() * 9,
            "{on_land}/{} places on land",
            w.populated_places.len()
        );
    }

    #[test]
    fn table_defs_match_paper_schemas() {
        assert_eq!(raster_table().schema.len(), 3);
        assert_eq!(populated_places_table().schema.len(), 5);
        assert_eq!(roads_table().schema.len(), 3);
        assert_eq!(drainage_table().schema.len(), 3);
        assert_eq!(land_cover_table().schema.len(), 3);
        assert!(matches!(populated_places_table().decluster, Decluster::Spatial { col: 3 }));
        assert!(matches!(raster_table().decluster, Decluster::RoundRobin));
    }
}
