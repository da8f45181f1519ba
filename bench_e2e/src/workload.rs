//! Workloads: the world and instance they run on, and the seeded
//! statement streams they send.

use paradise::exec::table::LoadStats;
use paradise::exec::value::Date;
use paradise::exec::Tuple;
use paradise::geom::{Point, Polygon};
use paradise::{queries, Paradise, ParadiseConfig, TransportKind};
use paradise_datagen::tables::{
    self, drainage_table, land_cover_table, populated_places_table, raster_table, roads_table,
    World, WorldSpec, LARGE_CITY, OIL_FIELD, QUERY_CHANNEL,
};
use paradise_util::Rng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Data-server nodes.
pub const NODES: usize = 4;
/// Spatial-declustering grid tiles.
pub const GRID_TILES: u32 = 1024;
/// Buffer-pool pages (8 KB) per node: 32 MB.
pub const POOL_PAGES: usize = 4096;
/// Raster tile payload.
pub const TILE_BYTES: usize = 4096;
/// Shrink of the paper's Table 3.1 cardinalities.
pub const SHRINK: usize = 100;
/// Roads per ingest batch.
pub const INGEST_ROADS: usize = 2000;
/// Rasters per ingest batch.
pub const INGEST_RASTERS: usize = 8;

/// The benchmark's constant POLYGON (the continental United States).
pub const US: &str = "Polygon(-125, 25, -67, 25, -67, 49, -125, 49)";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small interactive lookups, Local, warm pool.
    Browse,
    /// Q2–Q14 passes, Local, pool flushed before every statement.
    Sequoia,
    /// The same passes over the TCP transport.
    SequoiaTcp,
    /// Define, load, index, commit, drop, commit.
    Ingest,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Browse, Workload::Sequoia, Workload::SequoiaTcp, Workload::Ingest];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Sequoia => "sequoia",
            Workload::SequoiaTcp => "sequoia_tcp",
            Workload::Ingest => "ingest",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The transport the measured instance runs.
    pub fn transport(self) -> TransportKind {
        match self {
            Workload::SequoiaTcp => TransportKind::Tcp,
            _ => TransportKind::Local,
        }
    }

    /// Statements that make one operation of the end-to-end timings: a
    /// whole Q2–Q14 pass on the Sequoia workloads (the paper's unit of a
    /// benchmark run), else one. The median of single Sequoia statements
    /// would be the lower quartile of whichever one or two of the thirteen
    /// fixed statements sit mid-way (Q2 and Q9), and it moved by up to 25 %
    /// between runs of one build; a pass is steady to a few per cent.
    pub fn statements_per_op(self) -> usize {
        match self {
            Workload::Sequoia | Workload::SequoiaTcp => sequoia_pass().len(),
            Workload::Browse | Workload::Ingest => 1,
        }
    }

    /// Operations per window of the reported throughput: enough to span a
    /// fraction of a second to two seconds.
    pub fn rate_window(self) -> usize {
        match self {
            Workload::Browse => 100,
            Workload::Sequoia | Workload::SequoiaTcp => 5,
            Workload::Ingest => 10,
        }
    }

    /// Latency samples per window of the reported tail: 500 browse
    /// statements (the tail is their 98th percentile; a 30-second run has
    /// about 30 windows, so the median over windows is steady). A run holds
    /// too few Sequoia passes for more than one window, so their tail is
    /// taken over the whole run.
    pub fn tail_window(self) -> usize {
        match self {
            Workload::Browse => 500,
            Workload::Sequoia | Workload::SequoiaTcp => 10_000,
            Workload::Ingest => 200,
        }
    }

    /// Threads the host-speed kernel (`calib`) runs on: as many as the
    /// workload's statements keep busy. Browse statements and ingest
    /// batches are mostly serial; Sequoia statements spend most of their
    /// time in scans and joins run as morsels on the worker pool, which
    /// keeps both CPUs of the reference host busy, so they slow down when
    /// either CPU does.
    pub fn kernel_threads(self) -> usize {
        match self {
            Workload::Browse | Workload::Ingest => 1,
            Workload::Sequoia | Workload::SequoiaTcp => 2,
        }
    }

    /// Whether every statement starts from a flushed buffer pool.
    pub fn cold(self) -> bool {
        matches!(self, Workload::Sequoia | Workload::SequoiaTcp)
    }
}

/// The generated world for a seed.
pub fn world_spec(seed: u64) -> WorldSpec {
    WorldSpec::paper_ratio(seed, 1, SHRINK)
}

/// Load statistics of one set-up, per table.
pub type LoadReport = Vec<(&'static str, LoadStats)>;

/// Benchmark Q1: create the instance in `dir`, define and load the five
/// tables, build the indexes and commit.
pub fn load_instance(
    dir: &Path,
    world: &World,
    transport: TransportKind,
    event_log: Option<&Path>,
) -> paradise::Result<(Paradise, LoadReport)> {
    let mut cfg = ParadiseConfig::new(dir, NODES)
        .with_grid_tiles(GRID_TILES)
        .with_pool_pages(POOL_PAGES)
        .with_transport(transport);
    if let Some(path) = event_log {
        cfg = cfg.with_event_log(path);
    }
    let mut db = Paradise::create(cfg)?;
    db.define_table(raster_table().with_tile_bytes(TILE_BYTES));
    db.define_table(populated_places_table());
    db.define_table(roads_table());
    db.define_table(drainage_table());
    db.define_table(land_cover_table());
    let mut report = Vec::new();
    for (name, rows) in [
        ("raster", &world.rasters),
        ("populatedPlaces", &world.populated_places),
        ("roads", &world.roads),
        ("drainage", &world.drainage),
        ("landCover", &world.land_cover),
    ] {
        report.push((name, db.load_table(name, rows.iter().cloned())?));
    }
    db.create_btree_index("populatedPlaces", queries::PP_NAME)?;
    db.create_rtree_index("landCover", queries::LC_SHAPE)?;
    db.create_rtree_index("roads", queries::LINE_SHAPE)?;
    db.create_rtree_index("drainage", queries::LINE_SHAPE)?;
    db.commit()?;
    Ok((db, report))
}

/// Generates the world and loads it; returns the set-up time with them.
pub fn setup(
    seed: u64,
    dir: &Path,
    transport: TransportKind,
    event_log: Option<&Path>,
) -> paradise::Result<(World, Paradise, LoadReport, Duration)> {
    let t0 = Instant::now();
    let world = World::generate(world_spec(seed));
    let (db, report) = load_instance(dir, &world, transport, event_log)?;
    Ok((world, db, report, t0.elapsed()))
}

/// What a statement asks, in the terms the answer oracle checks.
#[derive(Debug, Clone)]
pub enum Check {
    /// Clip every raster of a channel.
    Q2 { channel: i64, clip: Polygon },
    /// Average the clipped rasters of one date.
    Q3 { date: Date, clip: Polygon },
    /// Clip one raster, then lower its resolution.
    Q4 { date: Date, channel: i64, clip: Polygon, factor: usize },
    /// Places with a name.
    Q5 { name: String },
    /// Land-cover polygons overlapping a region.
    Q6 { region: Polygon },
    /// Land-cover polygons inside a circle, below an area.
    Q7 { center: Point, radius: f64, max_area: f64 },
    /// Land-cover polygons overlapping the box around each named place.
    Q8 { name: String, box_len: f64 },
    /// Rasters of a channel in a date range clipped by every polygon of a
    /// land-cover type (Q9 is the one-date range).
    Q9Q14 { lo: Date, hi: Date, channel: i64, cover: i64 },
    /// Rasters whose clipped average exceeds a threshold.
    Q10 { clip: Polygon, threshold: f64 },
    /// Closest road of each type to a point.
    Q11 { point: Point },
    /// Closest drainage feature to each place of a type.
    Q12 { place_type: i64 },
    /// Every crossing drainage/road pair.
    Q13,
}

/// One statement of a workload.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Template name (`q2` … `q14`, or a browse template).
    pub template: &'static str,
    /// The SQL text sent to `Paradise::sql`.
    pub sql: String,
    /// The question the oracle answers independently.
    pub check: Check,
}

/// `Polygon(x1, y1, …)` as the SQL front end builds it.
pub fn polygon(points: &[(f64, f64)]) -> Polygon {
    Polygon::new(points.iter().map(|&(x, y)| Point::new(x, y)).collect())
        .expect("at least three points")
}

fn us() -> Polygon {
    polygon(&[(-125.0, 25.0), (-67.0, 25.0), (-67.0, 49.0), (-125.0, 49.0)])
}

/// One pass of the paper's Q2–Q14 SQL text (§3.1.2), in order.
pub fn sequoia_pass() -> Vec<Stmt> {
    let d = tables::query_date();
    let end_1988 = Date::from_ymd(1988, 12, 31);
    let s = |template, sql: String, check| Stmt { template, sql, check };
    vec![
        s(
            "q2",
            format!(
                "select raster.date, raster.data.clip({US}) from raster \
                 where raster.channel = 5 order by date"
            ),
            Check::Q2 { channel: QUERY_CHANNEL, clip: us() },
        ),
        s(
            "q3",
            format!(
                "select average(raster.data.clip({US})) from raster \
                 where raster.date = Date(\"1988-04-01\")"
            ),
            Check::Q3 { date: d, clip: us() },
        ),
        s(
            "q4",
            format!(
                "select raster.date, raster.channel, \
                 raster.data.clip(ClosedPolygon({US})).lower_res(8) from raster \
                 where raster.channel = 5 and raster.date = Date(\"1988-04-01\")"
            ),
            Check::Q4 { date: d, channel: QUERY_CHANNEL, clip: us(), factor: 8 },
        ),
        s(
            "q5",
            "select * from populatedPlaces where name = \"Phoenix\"".into(),
            Check::Q5 { name: "Phoenix".into() },
        ),
        s(
            "q6",
            format!("select * from landCover where shape overlaps {US}"),
            Check::Q6 { region: us() },
        ),
        s(
            "q7",
            "select shape.area(), LCPYTYPE from landCover \
             where shape < Circle(Point(-90, 40), 25) and shape.area() < 3"
                .into(),
            Check::Q7 { center: Point::new(-90.0, 40.0), radius: 25.0, max_area: 3.0 },
        ),
        s(
            "q8",
            "select landCover.shape, landCover.LCPYTYPE from landCover, populatedPlaces \
             where populatedPlaces.name = \"Louisville\" and \
             landCover.shape overlaps populatedPlaces.location.makeBox(8)"
                .into(),
            Check::Q8 { name: "Louisville".into(), box_len: 8.0 },
        ),
        s(
            "q9",
            format!(
                "select landCover.shape, raster.data.clip(landCover.shape) \
                 from landCover, raster where landCover.LCPYTYPE = {OIL_FIELD} and \
                 raster.channel = 5 and raster.date = Date(\"1988-04-01\")"
            ),
            Check::Q9Q14 { lo: d, hi: d, channel: QUERY_CHANNEL, cover: OIL_FIELD },
        ),
        s(
            "q10",
            format!(
                "select raster.date, raster.channel, raster.data.clip({US}) from raster \
                 where raster.data.clip({US}).average() > 25000"
            ),
            Check::Q10 { clip: us(), threshold: 25_000.0 },
        ),
        s(
            "q11",
            "select closest(shape, Point(-89.4, 43.1)), type from roads group by type".into(),
            Check::Q11 { point: Point::new(-89.4, 43.1) },
        ),
        s(
            "q12",
            "select closest(drainage.shape, populatedPlaces.location), \
             populatedPlaces.location from drainage, populatedPlaces \
             where populatedPlaces.location overlaps drainage.shape and \
             populatedPlaces.type = 1 group by populatedPlaces.location"
                .into(),
            Check::Q12 { place_type: LARGE_CITY },
        ),
        s(
            "q13",
            "select * from drainage, roads where drainage.shape overlaps roads.shape".into(),
            Check::Q13,
        ),
        s(
            "q14",
            format!(
                "select landCover.shape, raster.data.clip(landCover.shape) from landCover, raster \
                 where landCover.LCPYTYPE = {OIL_FIELD} and raster.channel = 5 and \
                 raster.date >= Date(\"1988-04-01\") and raster.date <= Date(\"1988-12-31\")"
            ),
            Check::Q9Q14 { lo: d, hi: end_1988, channel: QUERY_CHANNEL, cover: OIL_FIELD },
        ),
    ]
}

/// The browse templates, in the order the stream draws them from.
pub const BROWSE_TEMPLATES: [&str; 5] =
    ["q5_name", "q6_window", "q7_circle", "q8_citybox", "q11_closest"];

/// Rounds to four decimals through the same text the SQL carries, so the
/// oracle sees exactly the constant the front end parses.
fn fixed(v: f64) -> (f64, String) {
    let text = format!("{v:.4}");
    (text.parse().expect("formatted float"), text)
}

/// A seeded stream of small statements built from paper templates with
/// random parameters. Anchors (place names and land-cover centroids) come
/// from the world, so every statement asks about populated ground.
pub struct BrowseStream {
    rng: Rng,
    places: Vec<String>,
    anchors: Vec<Point>,
}

impl BrowseStream {
    /// The stream for `seed` over `world`.
    pub fn new(seed: u64, world: &World) -> BrowseStream {
        let places = world
            .populated_places
            .iter()
            .filter_map(|t| t.get(queries::PP_NAME).ok()?.as_str().ok().map(str::to_string))
            .filter(|n| n.starts_with("place-"))
            .collect();
        let anchors = world
            .land_cover
            .iter()
            .filter_map(|t| {
                t.get(queries::LC_SHAPE).ok()?.as_shape().ok().map(|s| s.bbox().center())
            })
            .collect();
        BrowseStream { rng: Rng::seed_from_u64(seed ^ 0xB0B5_E5EED), places, anchors }
    }

    fn anchor(&mut self, jitter: f64) -> (Point, String, String) {
        let a = self.anchors[self.rng.index(self.anchors.len())];
        let (x, xs) = fixed(a.x + self.rng.gen_range(-jitter..jitter));
        let (y, ys) = fixed(a.y + self.rng.gen_range(-jitter..jitter));
        (Point::new(x, y), xs, ys)
    }

    /// The next statement.
    pub fn next_stmt(&mut self) -> Stmt {
        let template = BROWSE_TEMPLATES[self.rng.index(BROWSE_TEMPLATES.len())];
        match template {
            "q5_name" => {
                let name = self.places[self.rng.index(self.places.len())].clone();
                Stmt {
                    template,
                    sql: format!("select * from populatedPlaces where name = \"{name}\""),
                    check: Check::Q5 { name },
                }
            }
            "q6_window" => {
                let (c, _, _) = self.anchor(1.0);
                let (w, h) = (self.rng.gen_range(0.5..3.0), self.rng.gen_range(0.5..3.0));
                let (x0, x0s) = fixed(c.x - w / 2.0);
                let (x1, x1s) = fixed(c.x + w / 2.0);
                let (y0, y0s) = fixed(c.y - h / 2.0);
                let (y1, y1s) = fixed(c.y + h / 2.0);
                Stmt {
                    template,
                    sql: format!(
                        "select * from landCover where shape overlaps \
                         Polygon({x0s}, {y0s}, {x1s}, {y0s}, {x1s}, {y1s}, {x0s}, {y1s})"
                    ),
                    check: Check::Q6 { region: polygon(&[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]) },
                }
            }
            "q7_circle" => {
                let (center, xs, ys) = self.anchor(2.0);
                let (radius, rs) = fixed(self.rng.gen_range(2.0..8.0));
                let (max_area, als) = fixed(self.rng.gen_range(0.5..4.0));
                Stmt {
                    template,
                    sql: format!(
                        "select shape.area(), LCPYTYPE from landCover \
                         where shape < Circle(Point({xs}, {ys}), {rs}) and shape.area() < {als}"
                    ),
                    check: Check::Q7 { center, radius, max_area },
                }
            }
            "q8_citybox" => {
                let name = self.places[self.rng.index(self.places.len())].clone();
                let (box_len, ls) = fixed(self.rng.gen_range(1.0..6.0));
                Stmt {
                    template,
                    sql: format!(
                        "select landCover.shape, landCover.LCPYTYPE from landCover, populatedPlaces \
                         where populatedPlaces.name = \"{name}\" and \
                         landCover.shape overlaps populatedPlaces.location.makeBox({ls})"
                    ),
                    check: Check::Q8 { name, box_len },
                }
            }
            _ => {
                let (point, xs, ys) = self.anchor(3.0);
                Stmt {
                    template,
                    sql: format!(
                        "select closest(shape, Point({xs}, {ys})), type from roads group by type"
                    ),
                    check: Check::Q11 { point },
                }
            }
        }
    }
}

/// One ingest operation's input: a contiguous run of the world's roads
/// and a few of its rasters, chosen from the seed and the operation number.
pub fn ingest_batch(seed: u64, op: u64, world: &World) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut rng = Rng::seed_from_u64(seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1A6E57);
    let n = INGEST_ROADS.min(world.roads.len());
    let start = rng.index(world.roads.len() - n + 1);
    let roads = world.roads[start..start + n].to_vec();
    let rasters = (0..INGEST_RASTERS)
        .map(|_| world.rasters[rng.index(world.rasters.len())].clone())
        .collect();
    (roads, rasters)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, world: &World, n: usize) -> Vec<String> {
        let mut s = BrowseStream::new(seed, world);
        (0..n).map(|_| s.next_stmt().sql).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let world = World::generate(WorldSpec::tiny(5));
        let a = stream(11, &world, 200);
        assert_eq!(a, stream(11, &world, 200));
        assert_ne!(a, stream(12, &world, 200));
        // Every template shows up.
        for t in BROWSE_TEMPLATES {
            let mut s = BrowseStream::new(11, &world);
            assert!((0..200).any(|_| s.next_stmt().template == t), "{t} never drawn");
        }
    }

    #[test]
    fn ingest_batches_follow_the_seed() {
        let world = World::generate(WorldSpec::tiny(5));
        assert_eq!(ingest_batch(3, 1, &world), ingest_batch(3, 1, &world));
        assert_ne!(ingest_batch(3, 1, &world), ingest_batch(4, 1, &world));
    }

    #[test]
    fn every_sequoia_statement_parses() {
        for s in sequoia_pass() {
            paradise::sql::parse_statement(&s.sql)
                .unwrap_or_else(|e| panic!("{}: {e}", s.template));
        }
    }
}
