//! Pull vs push for large attributes (paper §2.5.2): fetching only the
//! tiles a clip needs (pull) vs shipping the whole raster (push), for
//! clip regions of growing size.

use paradise_array::{BitDepth, PixelWindow, Raster};
use paradise_bench::harness::{BenchmarkId, Criterion};
use paradise_bench::{criterion_group, criterion_main};
use paradise_exec::cluster::{Cluster, ClusterConfig};
use paradise_exec::raster_store;
use paradise_geom::{Point, Rect};

fn bench_pullpush(c: &mut Criterion) {
    let cluster = Cluster::create(&ClusterConfig::for_test(2, "bench-pullpush")).unwrap();
    let world = Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0)).unwrap();
    let mut img = Raster::new(512, 256, BitDepth::Sixteen, world).unwrap();
    for row in 0..256 {
        for col in 0..512 {
            img.set_pixel(col, row, ((row * 512 + col) % 60_000) as u32).unwrap();
        }
    }
    // Stored on node 0; node 1 is the "remote" consumer.
    let sr = raster_store::store_raster(&cluster, "tiles", 0, &img, false, 8 * 1024).unwrap();

    let mut g = c.benchmark_group("pull_vs_push");
    for pct in [2u32, 10, 50, 100] {
        // A clip region covering `pct`% of the raster's pixels.
        let rows = (256 * pct as usize / 100).max(1);
        let cols = (512 * pct as usize / 100).max(1);
        let win = PixelWindow { row0: 0, row1: rows, col0: 0, col1: cols };
        g.bench_with_input(BenchmarkId::new("pull_tiles", pct), &pct, |b, _| {
            b.iter(|| raster_store::fetch_region(&cluster, 1, &sr, win).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("push_whole", pct), &pct, |b, _| {
            b.iter(|| {
                // Push model: materialise the whole raster at the consumer,
                // then cut the region out locally.
                let whole = raster_store::fetch_whole(&cluster, 1, &sr).unwrap();
                whole.array().subarray(&[0, 0], &[rows, cols]).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(800));
    targets = bench_pullpush
}
criterion_main!(benches);
