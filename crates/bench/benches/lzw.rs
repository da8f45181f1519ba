//! LZW compression micro-benchmarks (paper §2.5.1): raster-like smooth
//! data vs incompressible noise vs generated 16-bit imagery, and the
//! adaptive `maybe_compress` flag, which stops encoding a tile as soon as
//! its stream passes the savings budget.

use paradise_array::lzw;
use paradise_bench::harness::{BenchmarkId, Criterion, Throughput};
use paradise_bench::{criterion_group, criterion_main};

fn smooth_tile(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i / 64) % 251) as u8).collect()
}

fn noisy_tile(len: usize) -> Vec<u8> {
    let mut x: u32 = 0xDEAD_BEEF;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 24) as u8
        })
        .collect()
}

/// The benchmark world's imagery (`paradise_datagen`): 16-bit pixels of a
/// latitude gradient plus uniform noise of ±300 counts. Its tiles stay raw,
/// so `maybe_compress` gives up part-way through each of them.
fn raster16_tile(len: usize) -> Vec<u8> {
    let (w, h) = (256, len / 512);
    let mut rng = paradise_util::rng::Rng::seed_from_u64(1);
    let mut out = Vec::with_capacity(len);
    for row in 0..h {
        let lat = 90.0 - (row as f64 + 0.5) * 180.0 / h as f64;
        let base = 20_000.0 + 15_000.0 * lat.to_radians().cos();
        for _ in 0..w {
            let v = (base + rng.gen_range(-300.0..300.0)) as u16;
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

fn bench_lzw(c: &mut Criterion) {
    let mut g = c.benchmark_group("lzw");
    let len = 128 * 1024;
    for (name, data) in
        [("smooth", smooth_tile(len)), ("noisy", noisy_tile(len)), ("raster16", raster16_tile(len))]
    {
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("compress", name), &data, |b, d| {
            b.iter(|| lzw::compress(d))
        });
        let packed = lzw::compress(&data);
        g.bench_with_input(BenchmarkId::new("decompress", name), &packed, |b, p| {
            b.iter(|| lzw::decompress(p).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("maybe_compress", name), &data, |b, d| {
            b.iter(|| lzw::maybe_compress(d.clone()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(800));
    targets = bench_lzw
}
criterion_main!(benches);
