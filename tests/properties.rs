//! Cross-crate randomized property tests: codec roundtrips, clip algebra,
//! tiling/LZW invariants, index-vs-model equivalence, grid covering laws.
//! Cases are generated with the deterministic in-repo PRNG, so every run
//! exercises the same inputs.

use paradise_array::{lzw, ElemType, NdArray, TileMap};
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
        let (bytes, flag) = lzw::maybe_compress(&data);
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
            Value::Str(s.clone()),
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
        let t = Tuple::new(vec![Value::Shape(paradise_geom::Shape::Polygon(polygon(&mut rng)))]);
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

#[test]
fn tilemap_roundtrips_arbitrary_2d_arrays() {
    let mut rng = Rng::seed_from_u64(8);
    for _ in 0..48 {
        let h = rng.gen_range(1usize..40);
        let w = rng.gen_range(1usize..40);
        let target = rng.gen_range(16usize..512);
        let mut a = NdArray::zeros(vec![h, w], ElemType::U16).unwrap();
        for i in 0..a.num_elems() {
            a.set_linear(i, rng.next_u64() % 65_536);
        }
        let map = TileMap::build(&a, target).unwrap();
        assert_eq!(map.assemble().unwrap(), a.clone());
        // Any sub-region read matches the direct subarray.
        if h > 2 && w > 2 {
            let (r, _) = map.read_region(&[1, 1], &[h - 2, w - 2]).unwrap();
            assert_eq!(r, a.subarray(&[1, 1], &[h - 2, w - 2]).unwrap());
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
