//! Figure 2.3: storing a raster as tiles (+ adaptive per-tile compression)
//! and tile-granular region reads vs whole-raster assembly, on the engine's
//! storage path (`store_raster` / `fetch_region`, one node).

use paradise_array::{BitDepth, PixelWindow, Raster};
use paradise_bench::harness::{BenchmarkId, Criterion, Throughput};
use paradise_bench::{criterion_group, criterion_main};
use paradise_exec::cluster::{Cluster, ClusterConfig};
use paradise_exec::raster_store;
use paradise_geom::{Point, Rect};

fn raster_like(h: usize, w: usize) -> Raster {
    let world = Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0)).unwrap();
    let mut r = Raster::new(w, h, BitDepth::Sixteen, world).unwrap();
    for row in 0..h {
        for col in 0..w {
            // smooth gradient -> realistic compressibility
            r.set_pixel(col, row, ((row * 37 + col / 3) % 60_000) as u32).unwrap();
        }
    }
    r
}

fn bench_tiling(c: &mut Criterion) {
    let cfg = ClusterConfig::for_test(1, "bench-tiling");
    let cluster = Cluster::create(&cfg).unwrap();
    let mut g = c.benchmark_group("tiling");
    let r = raster_like(512, 512); // 512 KB
    g.throughput(Throughput::Bytes(r.byte_len() as u64));
    for tile_kb in [8usize, 32, 128] {
        g.bench_with_input(BenchmarkId::new("store", tile_kb), &r, |b, r| {
            b.iter(|| {
                raster_store::store_raster(&cluster, "tiles", 0, r, false, tile_kb * 1024).unwrap()
            })
        });
    }
    let sr = raster_store::store_raster(&cluster, "tiles", 0, &r, false, 32 * 1024).unwrap();
    g.bench_function("fetch_whole", |b| {
        b.iter(|| raster_store::fetch_whole(&cluster, 0, &sr).unwrap())
    });
    // A 2% region (the benchmark's US clip is ~2% of a raster).
    let win = PixelWindow { row0: 100, row1: 172, col0: 100, col1: 172 };
    g.bench_function("fetch_region_2pct", |b| {
        b.iter(|| raster_store::fetch_region(&cluster, 0, &sr, win).unwrap())
    });
    g.finish();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&cfg.base_dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(800));
    targets = bench_tiling
}
criterion_main!(benches);
