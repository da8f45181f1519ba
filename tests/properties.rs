//! Cross-crate randomized property tests: codec roundtrips, clip algebra,
//! stored-raster/LZW invariants, index-vs-model equivalence, grid covering
//! laws.
//! Cases are generated with the deterministic in-repo PRNG, so every run
//! exercises the same inputs.

use paradise_array::{lzw, BitDepth, PixelWindow, Raster, TilingScheme};
use paradise_exec::cluster::{Cluster, ClusterConfig};
use paradise_exec::raster_store::{clip_stored, fetch_region, store_raster};
use paradise_exec::tuple::Tuple;
use paradise_exec::value::{Date, Value};
use paradise_geom::{algorithms::clip, Grid, Point, Polygon, Rect};
use paradise_util::Rng;

fn point(rng: &mut Rng) -> Point {
    Point::new(rng.gen_range(-180.0..180.0), rng.gen_range(-90.0..90.0))
}

fn rect(rng: &mut Rng) -> Rect {
    Rect::from_corners(point(rng), point(rng)).unwrap()
}

/// A star-shaped polygon around a center: always simple.
fn polygon(rng: &mut Rng) -> Polygon {
    let c = point(rng);
    let n = rng.gen_range(3usize..12);
    let ring: Vec<Point> = (0..n)
        .map(|i| {
            let r = rng.gen_range(0.1f64..8.0);
            let a = std::f64::consts::TAU * i as f64 / n as f64;
            Point::new(c.x + r * a.cos(), c.y + r * a.sin())
        })
        .collect();
    Polygon::new(ring).unwrap()
}

#[test]
fn lzw_roundtrips_arbitrary_bytes() {
    let mut rng = Rng::seed_from_u64(1);
    for case in 0..64 {
        let n = rng.gen_range(0usize..4096);
        let data = rng.bytes(n);
        let packed = lzw::compress(&data);
        assert_eq!(lzw::decompress(&packed).unwrap(), data, "case {case}");
    }
}

#[test]
fn maybe_compress_roundtrips() {
    let mut rng = Rng::seed_from_u64(2);
    for _ in 0..64 {
        let n = rng.gen_range(0usize..2048);
        let data = rng.bytes(n);
        let (bytes, flag) = lzw::maybe_compress(data.clone());
        assert_eq!(lzw::maybe_decompress(&bytes, flag).unwrap(), data);
    }
}

#[test]
fn value_codec_roundtrips() {
    let mut rng = Rng::seed_from_u64(3);
    for _ in 0..64 {
        let s: String = (0..rng.gen_range(0usize..40))
            .map(|_| (b'a' + (rng.index(26) as u8)) as char)
            .collect();
        for v in [
            Value::Int(rng.next_u64() as i64),
            Value::Float(rng.gen_range(-1e12f64..1e12)),
            Value::Str(s.as_str().into()),
            Value::Date(Date(rng.gen_range(-1_000_000i64..1_000_000))),
            Value::Null,
        ] {
            let t = Tuple::new(vec![v]);
            assert_eq!(Tuple::decode(&t.encode()).unwrap(), t);
        }
    }
}

#[test]
fn shape_codec_roundtrips() {
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..64 {
        let t = Tuple::new(vec![Value::from(paradise_geom::Shape::Polygon(polygon(&mut rng)))]);
        assert_eq!(Tuple::decode(&t.encode()).unwrap(), t);
    }
}

#[test]
fn clip_area_never_exceeds_either_operand() {
    let mut rng = Rng::seed_from_u64(5);
    for _ in 0..64 {
        let poly = polygon(&mut rng);
        let window = rect(&mut rng);
        let a = clip::clipped_area(&poly, &window);
        assert!(a <= poly.area() + 1e-6);
        assert!(a <= window.area() + 1e-6);
        assert!(a >= 0.0);
        // Clip against the polygon's own bbox is the whole polygon.
        let full = clip::clipped_area(&poly, &poly.bbox());
        assert!((full - poly.area()).abs() < 1e-6 * poly.area().max(1.0));
    }
}

#[test]
fn clip_result_lies_within_window() {
    let mut rng = Rng::seed_from_u64(6);
    for _ in 0..64 {
        let poly = polygon(&mut rng);
        let window = rect(&mut rng);
        if let Some(clipped) = clip::clip_polygon_to_rect(&poly, &window) {
            assert!(window.expand(1e-9).contains_rect(&clipped.bbox()));
        }
    }
}

#[test]
fn grid_tiles_cover_their_shapes() {
    let mut rng = Rng::seed_from_u64(7);
    for _ in 0..64 {
        let r = rect(&mut rng);
        let tiles = rng.gen_range(4u32..2000);
        let world = Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0)).unwrap();
        let grid = Grid::with_tile_count(world, tiles).unwrap();
        let ids = grid.tile_ids_for_rect(&r);
        assert!(!ids.is_empty());
        // Every returned tile intersects the rect (clamped to universe).
        let clamped = r.intersection(&world).unwrap_or(r);
        for id in &ids {
            assert!(grid.tile_rect(*id).expand(1e-9).intersects(&clamped));
        }
        // The union of returned tiles covers the clamped rect.
        let union = ids.iter().map(|&i| grid.tile_rect(i)).reduce(|a, b| a.union(&b)).unwrap();
        assert!(union.expand(1e-9).contains_rect(&clamped));
    }
}

/// A point inside `r`.
fn point_in(rng: &mut Rng, r: &Rect) -> Point {
    Point::new(rng.gen_range(r.lo.x..r.hi.x), rng.gen_range(r.lo.y..r.hi.y))
}

/// A polygon near `geo`, sized relative to it: a star (often masked) or a
/// rectangle (the unmasked fast path), sometimes poking past the edge.
fn polygon_near(rng: &mut Rng, geo: &Rect) -> Polygon {
    let c = point_in(rng, &geo.expand(geo.width().max(geo.height()) * 0.1));
    let scale = geo.width().min(geo.height());
    if rng.gen_range(0u32..4) == 0 {
        let half = rng.gen_range(0.01f64..0.6) * scale;
        let lo = Point::new(c.x - half, c.y - half * 0.7);
        let hi = Point::new(c.x + half, c.y + half * 0.7);
        return Polygon::from_rect(&Rect::from_corners(lo, hi).unwrap());
    }
    let n = rng.gen_range(3usize..12);
    let ring: Vec<Point> = (0..n)
        .map(|i| {
            let r = rng.gen_range(0.005f64..0.5) * scale;
            let a = std::f64::consts::TAU * i as f64 / n as f64;
            Point::new(c.x + r * a.cos(), c.y + r * a.sin())
        })
        .collect();
    Polygon::new(ring).unwrap()
}

#[test]
fn stored_rasters_read_back_like_the_in_memory_raster() {
    let mut rng = Rng::seed_from_u64(8);
    let cluster = Cluster::create(&ClusterConfig::for_test(1, "prop-raster")).unwrap();
    for case in 0..48 {
        let (w, h) = (rng.gen_range(1usize..60), rng.gen_range(1usize..60));
        let depth = [BitDepth::Eight, BitDepth::Sixteen, BitDepth::TwentyFour][case % 3];
        let geo = rect(&mut rng);
        let mut raster = Raster::new(w, h, depth, geo).unwrap();
        for row in 0..h {
            for col in 0..w {
                raster.set_pixel(col, row, rng.next_u64() as u32).unwrap();
            }
        }
        let target = rng.gen_range(16usize..2048);
        let sr = store_raster(&cluster, "tiles", 0, &raster, false, target).unwrap();
        let scheme = TilingScheme::new(&[h, w], depth.elem_type(), target).unwrap();
        assert_eq!(sr.tiles.len(), scheme.num_tiles(), "case {case}");
        for _ in 0..4 {
            // A random pixel window reads back the in-memory subarray,
            // touching exactly the tiles the scheme lists.
            let (row0, col0) = (rng.gen_range(0..h), rng.gen_range(0..w));
            let (row1, col1) = (rng.gen_range(row0 + 1..h + 1), rng.gen_range(col0 + 1..w + 1));
            let win = PixelWindow { row0, row1, col0, col1 };
            let (region, read) = fetch_region(&cluster, 0, &sr, win).unwrap();
            assert_eq!(
                region.array(),
                &raster.array().subarray(&win.lo(), &win.shape()).unwrap(),
                "case {case} window {win:?}"
            );
            assert_eq!(read, scheme.tiles_overlapping(&win.lo(), &win.shape()).unwrap().len());
            // A random polygon clips the stored raster exactly as it clips
            // the in-memory one: same window, pixels, geo and mask.
            let poly = polygon_near(&mut rng, &geo);
            let stored = clip_stored(&cluster, 0, &sr, &poly).unwrap().map(|(r, _)| r);
            let in_memory = match raster.clip(&poly) {
                Ok(r) => Some(r),
                Err(paradise_array::ArrayError::EmptyClip) => None,
                Err(e) => panic!("case {case}: {e}"),
            };
            assert_eq!(stored, in_memory, "case {case} polygon {poly:?}");
        }
    }
}

#[test]
fn btree_agrees_with_model() {
    use std::collections::BTreeMap;
    let mut rng = Rng::seed_from_u64(9);
    let dir = std::env::temp_dir().join(format!("paradise-prop-bt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for case in 0..16 {
        let path = dir.join(format!("t{case}.vol"));
        let _ = std::fs::remove_file(&path);
        let vol = std::sync::Arc::new(paradise_storage::Volume::create(&path).unwrap());
        let pool = std::sync::Arc::new(paradise_storage::BufferPool::new(vol, 128));
        let tree = paradise_storage::btree::BTree::create(pool).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u64>> = BTreeMap::new();
        for _ in 0..rng.gen_range(1usize..300) {
            let key = ((rng.next_u64() & 0xFFFF) as u16).to_be_bytes().to_vec();
            let v = rng.next_u64() & 0xFF;
            tree.insert(&key, v).unwrap();
            model.entry(key).or_default().push(v);
        }
        for (key, vals) in &model {
            let mut got = tree.get_all(key).unwrap();
            let mut want = vals.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
        let total: usize = model.values().map(|v| v.len()).sum();
        assert_eq!(tree.len().unwrap(), total);
    }
}

#[test]
fn rtree_search_agrees_with_linear_scan() {
    let mut rng = Rng::seed_from_u64(10);
    for _ in 0..48 {
        let n = rng.gen_range(1usize..150);
        let entries: Vec<(Rect, u64)> = (0..n)
            .map(|i| {
                let p = point(&mut rng);
                let w = rng.gen_range(0.1f64..5.0);
                let h = rng.gen_range(0.1f64..5.0);
                (Rect::from_corners(p, Point::new(p.x + w, p.y + h)).unwrap(), i as u64)
            })
            .collect();
        let window = rect(&mut rng);
        let tree = paradise_storage::RTree::bulk_load(entries.clone());
        let mut got: Vec<u64> = tree.search(&window).iter().map(|(_, v)| *v).collect();
        got.sort_unstable();
        let mut want: Vec<u64> =
            entries.iter().filter(|(r, _)| r.intersects(&window)).map(|(_, v)| *v).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

fn random_sample(rng: &mut Rng) -> paradise::obs::MetricSample {
    use paradise::obs::{MetricSample, SampleKind};
    let name: String =
        (0..rng.gen_range(0usize..24)).map(|_| (b'a' + (rng.index(26) as u8)) as char).collect();
    let kind = if rng.index(2) == 0 { SampleKind::Counter } else { SampleKind::Gauge };
    MetricSample::new(name, kind, rng.next_u64())
}

fn random_frame(rng: &mut Rng) -> paradise::net::frame::Frame {
    use paradise::net::frame::Frame;
    let name: String =
        (0..rng.gen_range(1usize..20)).map(|_| (b'a' + (rng.index(26) as u8)) as char).collect();
    match rng.index(9) {
        0 => Frame::OpenStream { stream: rng.next_u64(), window: rng.next_u64() as u32 },
        1 => {
            let n = rng.gen_range(0usize..256);
            Frame::Tuple(rng.bytes(n))
        }
        2 => Frame::Eos,
        3 => Frame::Credit(rng.next_u64() as u32),
        4 => {
            let mut oid = [0u8; 10];
            oid.copy_from_slice(&rng.bytes(10));
            Frame::PullTile(oid)
        }
        5 => {
            let n = rng.gen_range(0usize..512);
            Frame::TileData(rng.bytes(n))
        }
        6 => Frame::Error(name),
        7 => Frame::StatsPull,
        _ => Frame::StatsReply((0..rng.gen_range(0usize..8)).map(|_| random_sample(rng)).collect()),
    }
}

#[test]
fn wire_frames_roundtrip() {
    use paradise::net::frame::Frame;
    let mut rng = Rng::seed_from_u64(11);
    for case in 0..256 {
        let f = random_frame(&mut rng);
        let bytes = f.to_bytes();
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4, "case {case}: length prefix");
        assert_eq!(Frame::from_body(&bytes[4..]).unwrap(), f, "case {case}: {f:?}");
    }
}

/// Truncating a frame body must never panic, and any prefix the decoder
/// *does* accept must re-encode to exactly that prefix (i.e. the decoder
/// never invents trailing data).
#[test]
fn truncated_frame_bodies_fail_closed() {
    use paradise::net::frame::Frame;
    let mut rng = Rng::seed_from_u64(12);
    for _ in 0..128 {
        let f = random_frame(&mut rng);
        let body = &f.to_bytes()[4..];
        for cut in 0..body.len() {
            if let Ok(g) = Frame::from_body(&body[..cut]) {
                assert_eq!(
                    &g.to_bytes()[4..],
                    &body[..cut],
                    "decoder accepted {cut} bytes of {f:?} as {g:?} but re-encodes differently"
                );
            }
        }
        // Fixed-size payloads reject truncation outright.
        if matches!(f, Frame::OpenStream { .. } | Frame::Credit(_) | Frame::PullTile(_)) {
            assert!(Frame::from_body(&body[..body.len() - 1]).is_err(), "{f:?}");
        }
    }
    // An empty body is not a frame at all.
    assert!(Frame::from_body(&[]).is_err());
    // Unknown tags are rejected.
    assert!(Frame::from_body(&[42]).is_err());
}

/// `lzw::decompress` fails closed: arbitrary streams and bit-flipped
/// valid streams return `Ok` or `Err` — never a panic, never a runaway
/// allocation loop.
#[test]
fn lzw_decompress_fails_closed_on_garbage() {
    let mut rng = Rng::seed_from_u64(13);
    for _ in 0..128 {
        let n = rng.gen_range(0usize..2048);
        let junk = rng.bytes(n);
        let _ = lzw::decompress(&junk); // must return, Ok or Err
    }
    for _ in 0..64 {
        let n = rng.gen_range(1usize..1024);
        let mut packed = lzw::compress(&rng.bytes(n));
        if packed.is_empty() {
            continue;
        }
        // One flipped bit, one truncation.
        let at = rng.index(packed.len());
        packed[at] ^= 1 << rng.index(8);
        let _ = lzw::decompress(&packed);
        let cut = rng.index(packed.len());
        let _ = lzw::decompress(&packed[..cut]);
    }
}

/// `read_frame` fails closed on a hostile byte stream: arbitrary bytes,
/// truncated frames, and bit-flipped frames all produce `Ok` or `Err` in
/// bounded time — never a panic, hang, or huge allocation (the length
/// prefix is capped before any buffer is sized).
#[test]
fn read_frame_fails_closed_on_hostile_streams() {
    use paradise::net::frame::{read_frame, Frame};
    use std::io::Cursor;
    let mut rng = Rng::seed_from_u64(14);
    for _ in 0..128 {
        let n = rng.gen_range(0usize..512);
        let _ = read_frame(&mut Cursor::new(rng.bytes(n)));
    }
    // An absurd length prefix is rejected without allocating it.
    let mut huge = u32::MAX.to_le_bytes().to_vec();
    huge.extend_from_slice(&[0u8; 16]);
    assert!(read_frame(&mut Cursor::new(huge)).is_err(), "oversized frame must be rejected");
    for _ in 0..64 {
        let bytes = random_frame(&mut rng).to_bytes();
        // Bit flip anywhere in the wire image (length prefix included).
        let mut flipped = bytes.clone();
        let at = rng.index(flipped.len());
        flipped[at] ^= 1 << rng.index(8);
        let _ = read_frame(&mut Cursor::new(flipped));
        // Truncation mid-frame.
        let cut = rng.index(bytes.len());
        let _ = read_frame(&mut Cursor::new(bytes[..cut].to_vec()));
    }
    // A clean frame still decodes after surviving all of the above.
    let f = Frame::Credit(7);
    match read_frame(&mut Cursor::new(f.to_bytes())).unwrap() {
        paradise::net::frame::ReadOutcome::Frame(g) => assert_eq!(g, f),
        other => panic!("expected frame, got {other:?}"),
    }
}

/// `Wal::replay` fails closed: a WAL file holding arbitrary bytes, a torn
/// tail, or a bit-flipped record replays to `Ok` (discarding the garbage
/// as an uncommitted tail) or a clean `Err` — never a panic — and never
/// applies an uncommitted batch.
#[test]
fn wal_replay_fails_closed_on_corrupt_logs() {
    use paradise_storage::{page::PAGE_SIZE, volume::Volume, wal::Wal};
    use std::io::Write as _;
    let mut rng = Rng::seed_from_u64(15);
    let dir = std::env::temp_dir().join(format!("paradise-prop-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let vol = Volume::create(dir.join("vol")).unwrap();
    let pid = vol.alloc_extent().unwrap();
    let baseline = [0x5A; PAGE_SIZE];
    vol.write_page_bytes(pid, &baseline).unwrap();

    for case in 0..96 {
        let path = dir.join(format!("wal-{case}"));
        let mut contents = match case % 3 {
            // Arbitrary bytes.
            0 => {
                let n = rng.gen_range(0usize..4096);
                rng.bytes(n)
            }
            // A valid committed batch, then bit-flip one byte.
            1 => {
                let w = Wal::open(&path).unwrap();
                w.log_commit(&[(pid, &[case as u8; PAGE_SIZE])]).unwrap();
                let mut b = std::fs::read(&path).unwrap();
                let at = rng.index(b.len());
                b[at] ^= 1 << rng.index(8);
                b
            }
            // A valid batch with a torn (truncated) tail.
            _ => {
                let w = Wal::open(&path).unwrap();
                w.log_commit(&[(pid, &[case as u8; PAGE_SIZE])]).unwrap();
                let b = std::fs::read(&path).unwrap();
                let keep = rng.gen_range(0usize..b.len());
                b[..keep].to_vec()
            }
        };
        // Torn tails must never replay: whatever survives decoding either
        // carries its commit record or is discarded.
        if case % 3 == 2 {
            // Guarantee the tail is torn before the commit record.
            contents.truncate(contents.len().saturating_sub(13).min(contents.len()));
        }
        std::fs::remove_file(&path).ok();
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(&contents).unwrap();
        drop(f);
        let wal = Wal::open(&path).unwrap();
        match wal.replay(&vol) {
            Ok(_) | Err(_) => {} // fail closed: returning at all is the property
        }
        if case % 3 == 2 {
            // The torn batch never committed, so the page is untouched.
            assert_eq!(
                vol.read_page(pid).unwrap().bytes(),
                &baseline,
                "case {case}: torn tail must not replay"
            );
        } else {
            // Restore the baseline in case a (validly-framed) flip applied.
            vol.write_page_bytes(pid, &baseline).unwrap();
        }
    }
}

/// A random value of the given kind (`0..14`): every scalar, every shape,
/// stored rasters and in-memory rasters with and without a clip mask.
fn value_of_kind(rng: &mut Rng, kind: usize) -> Value {
    use paradise_array::{BitDepth, Raster};
    use paradise_exec::value::{RasterValue, StoredRaster, TileRef};
    use paradise_geom::{Circle, Polyline, Shape, SwissCheese};
    let geo = rect(rng);
    let depth = [BitDepth::Eight, BitDepth::Sixteen, BitDepth::TwentyFour][rng.index(3)];
    match kind {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::Float(rng.gen_range(-1e12f64..1e12)),
        3 => Value::Str(
            (0..rng.index(24))
                .map(|_| ['a', 'é', '7', '∑'][rng.index(4)])
                .collect::<String>()
                .into(),
        ),
        4 => Value::Date(Date(rng.gen_range(-1_000_000i64..1_000_000))),
        5 => Value::from(Shape::Point(point(rng))),
        6 => {
            let pts = (0..rng.gen_range(2usize..30)).map(|_| point(rng)).collect();
            Value::from(Shape::Polyline(Polyline::new(pts).unwrap()))
        }
        7 => Value::from(Shape::Polygon(polygon(rng))),
        8 => {
            let shell = Polygon::from_rect(&geo);
            let c = geo.center();
            let (w, h) = (geo.width() / 8.0, geo.height() / 8.0);
            let hole = Rect::from_corners(c.offset(-w, -h), c.offset(w, h)).unwrap();
            let holes = if w > 0.0 && h > 0.0 { vec![Polygon::from_rect(&hole)] } else { vec![] };
            Value::from(Shape::SwissCheese(SwissCheese::new(shell, holes).unwrap()))
        }
        9 => Value::from(Shape::Circle(Circle::new(point(rng), rng.gen_range(0.0..10.0)).unwrap())),
        10 => Value::from(Shape::Rect(geo)),
        11 => {
            let tiles = (0..rng.index(6))
                .map(|i| TileRef {
                    node: rng.index(4) as u32,
                    oid: paradise_storage::Oid { page: rng.next_u64() >> 20, slot: i as u16 },
                    compressed: rng.gen_bool(0.5),
                })
                .collect();
            Value::Raster(RasterValue::from(StoredRaster {
                depth,
                geo,
                width: rng.gen_range(1u32..500),
                height: rng.gen_range(1u32..500),
                tile_h: rng.gen_range(1u32..64),
                tile_w: rng.gen_range(1u32..64),
                tiles,
            }))
        }
        _ => {
            let (w, h) = (rng.gen_range(1usize..12), rng.gen_range(1usize..12));
            let world = Rect::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
            let mut r = Raster::new(w, h, depth, world).unwrap();
            for _ in 0..8 {
                r.set_pixel(rng.index(w), rng.index(h), rng.gen_range(0u32..200)).unwrap();
            }
            if kind == 13 {
                // A triangle clip leaves a mask (value tag 8).
                let tri = Polygon::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(10.0, 0.0),
                    Point::new(0.0, 10.0),
                ])
                .unwrap();
                r = r.clip(&tri).unwrap();
            }
            Value::Raster(RasterValue::Mem(std::sync::Arc::new(r)))
        }
    }
}

const VALUE_KINDS: usize = 14;

fn random_tuple(rng: &mut Rng, max_cols: usize) -> Tuple {
    let n = rng.gen_range(1..max_cols);
    Tuple::new(
        (0..n)
            .map(|_| {
                let kind = rng.index(VALUE_KINDS);
                value_of_kind(rng, kind)
            })
            .collect(),
    )
}

fn bbox_bits(r: &Rect) -> [u64; 4] {
    [r.lo.x.to_bits(), r.lo.y.to_bits(), r.hi.x.to_bits(), r.hi.y.to_bits()]
}

/// Reads every column of `row` through every accessor; on garbage these
/// may fail but must never panic.
fn touch_every_column(row: &paradise_exec::Row, probe: &Point) {
    for c in 0..16 {
        let _ = row.get(c);
        let _ = row.int(c);
        let _ = row.date(c);
        let _ = row.str(c);
        if let Ok(s) = row.shape(c) {
            let _ = (s.bbox(), s.distance_to_point(probe));
        }
    }
}

/// The vertices a shape read in place stands for.
fn shape_ref_points(s: &paradise_exec::ShapeRef) -> Vec<Point> {
    use paradise_exec::ShapeRef;
    use paradise_geom::Shape;
    match s {
        ShapeRef::Polyline(pts) => pts.iter().collect(),
        ShapeRef::Decoded(Shape::Polyline(l)) => panic!("polyline not read in place: {l:?}"),
        ShapeRef::Decoded(other) => panic!("not a polyline: {other:?}"),
    }
}

#[test]
fn row_accessors_agree_with_tuple_decode() {
    use paradise_exec::{Row, ShapeRef};
    use paradise_geom::Shape;
    let mut rng = Rng::seed_from_u64(20);
    for case in 0..300 {
        let mut t = random_tuple(&mut rng, 12);
        // Every kind appears at least once in the first cases.
        if case < VALUE_KINDS {
            t.values.push(value_of_kind(&mut rng, case));
        }
        let bytes = t.encode();
        let row = Row::new(&bytes).unwrap();
        assert!(!row.materialised());
        let probe = point(&mut rng);
        for (c, v) in t.values.iter().enumerate() {
            assert_eq!(&row.get(c).unwrap(), v, "case {case} column {c}");
            assert_eq!(row.int(c).ok(), v.as_int().ok());
            assert_eq!(row.date(c).ok(), v.as_date().ok());
            assert_eq!(row.str(c).ok(), v.as_str().ok());
            match v.as_shape() {
                Ok(shape) => {
                    let s = row.shape(c).unwrap();
                    assert_eq!(bbox_bits(&s.bbox()), bbox_bits(&shape.bbox()), "case {case}");
                    assert_eq!(
                        s.distance_to_point(&probe).to_bits(),
                        shape.distance_to_point(&probe).to_bits(),
                        "case {case}: {shape:?}"
                    );
                    match shape {
                        Shape::Polyline(l) => assert_eq!(shape_ref_points(&s), l.points()),
                        other => assert!(matches!(&s, ShapeRef::Decoded(d) if d == other)),
                    }
                }
                Err(_) => assert!(row.shape(c).is_err()),
            }
        }
        assert!(row.get(t.values.len()).is_err(), "out-of-range column");
        assert_eq!(row.to_tuple().unwrap(), t);
        assert!(row.materialised());
    }
}

#[test]
fn row_fails_closed_on_truncated_and_garbage_records() {
    use paradise_exec::Row;
    let mut rng = Rng::seed_from_u64(21);
    let probe = Point::new(1.0, 2.0);
    let row_decode = |b: &[u8]| Row::new(b).and_then(|r| r.to_tuple());
    for case in 0..200 {
        let bytes = random_tuple(&mut rng, 5).encode();
        // Every strict prefix is truncated: both paths reject it.
        for cut in 0..bytes.len() {
            assert!(row_decode(&bytes[..cut]).is_err(), "case {case}: prefix {cut} accepted");
            assert!(Tuple::decode(&bytes[..cut]).is_err());
        }
        // Corrupted bytes: `Row::new` + `to_tuple` accepts exactly what
        // `Tuple::decode` accepts, and reads the same values (the first
        // error found may differ: the structure check runs first).
        for _ in 0..8 {
            let mut bad = bytes.clone();
            for _ in 0..rng.gen_range(1usize..4) {
                let i = rng.index(bad.len());
                bad[i] = rng.next_u64() as u8;
            }
            match (row_decode(&bad), Tuple::decode(&bad)) {
                (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("case {case}: Row path {a:?} vs Tuple::decode {b:?}"),
            }
            if let Ok(row) = Row::new(&bad) {
                touch_every_column(&row, &probe);
            }
        }
        // Pure garbage.
        let n = rng.index(64);
        let junk = rng.bytes(n);
        let (a, b) = (row_decode(&junk), Tuple::decode(&junk));
        assert_eq!(a.is_ok(), b.is_ok(), "case {case}: {junk:?}");
        if let Ok(row) = Row::new(&junk) {
            touch_every_column(&row, &probe);
        }
    }
}

#[test]
fn shape_ref_rejects_what_decode_shape_rejects() {
    use paradise_exec::value::{decode_shape, encode_shape, ShapeRef};
    use paradise_geom::Shape;
    let mut rng = Rng::seed_from_u64(22);
    for case in 0..400 {
        let kind = rng.gen_range(5usize..11);
        let Value::Shape(shape) = value_of_kind(&mut rng, kind) else { unreachable!() };
        let mut bytes = Vec::new();
        encode_shape(&shape, &mut bytes);
        let mut bad = bytes.clone();
        match rng.index(4) {
            // Fewer than two vertices.
            0 if matches!(*shape, Shape::Polyline(_)) => {
                bad[1..5].copy_from_slice(&1u32.to_le_bytes())
            }
            // A non-finite coordinate.
            1 if bad.len() > 13 => bad[5..13].copy_from_slice(&f64::NAN.to_le_bytes()),
            // Truncation.
            2 => bad.truncate(rng.index(bad.len())),
            _ => {
                let i = rng.index(bad.len());
                bad[i] = rng.next_u64() as u8;
            }
        }
        for buf in [&bytes, &bad] {
            let (mut p1, mut p2) = (0, 0);
            let want = decode_shape(buf, &mut p1);
            let got = ShapeRef::decode(buf, &mut p2);
            match (&want, &got) {
                (Ok(Shape::Polyline(w)), Ok(g)) => {
                    assert_eq!(shape_ref_points(g), w.points(), "case {case}");
                    assert_eq!(p1, p2, "case {case}: both read the whole payload");
                }
                (Ok(w), Ok(g)) => {
                    assert!(matches!(g, ShapeRef::Decoded(d) if d == w), "case {case}");
                    assert_eq!(p1, p2, "case {case}: both read the whole payload");
                }
                (Err(w), Err(g)) => assert_eq!(w.to_string(), g.to_string(), "case {case}"),
                _ => panic!("case {case}: decode_shape {want:?} vs ShapeRef {got:?}"),
            }
        }
    }
}
