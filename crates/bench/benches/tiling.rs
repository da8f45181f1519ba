//! Figure 2.3: chunking an array into tiles (+ adaptive per-tile
//! compression) and tile-granular region reads vs whole-array assembly.

use paradise_array::{ElemType, NdArray, TileMap};
use paradise_bench::harness::{BenchmarkId, Criterion, Throughput};
use paradise_bench::{criterion_group, criterion_main};

fn raster_like(h: usize, w: usize) -> NdArray {
    let mut a = NdArray::zeros(vec![h, w], ElemType::U16).unwrap();
    for r in 0..h {
        for c in 0..w {
            // smooth gradient -> realistic compressibility
            a.set(&[r, c], ((r * 37 + c / 3) % 60_000) as u64).unwrap();
        }
    }
    a
}

fn bench_tiling(c: &mut Criterion) {
    let mut g = c.benchmark_group("tiling");
    let a = raster_like(512, 512); // 512 KB
    g.throughput(Throughput::Bytes(a.byte_len() as u64));
    for tile_kb in [8usize, 32, 128] {
        g.bench_with_input(BenchmarkId::new("build", tile_kb), &a, |b, a| {
            b.iter(|| TileMap::build(a, tile_kb * 1024).unwrap())
        });
    }
    let map = TileMap::build(&a, 32 * 1024).unwrap();
    g.bench_function("assemble_whole", |b| b.iter(|| map.assemble().unwrap()));
    // A 2% region (the benchmark's US clip is ~2% of a raster).
    g.bench_function("read_region_2pct", |b| {
        b.iter(|| map.read_region(&[100, 100], &[72, 72]).unwrap())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(800));
    targets = bench_tiling
}
criterion_main!(benches);
