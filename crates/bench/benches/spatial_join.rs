//! Spatial-join algorithm comparison (paper §2.4): PBSM tile join vs
//! indexed nested loops with an R*-tree vs naive nested loops, on two sets
//! of polyline bounding boxes with exact refinement.
//!
//! The PBSM tile join (`pbsm_tile/n`) is the engine's columnar kernel over
//! encoded records ([`JoinInput`], built once outside the timed loop as a
//! fragment scan builds it; each iteration joins a copy), run as the
//! engine runs it inside one node's fragment: a plain loop on one thread.

use paradise_bench::harness::{BenchmarkId, Criterion};
use paradise_bench::{criterion_group, criterion_main};
use paradise_exec::cluster::{Cluster, ClusterConfig};
use paradise_exec::ops::spatial_join::{local_tile_join, JoinInput};
use paradise_exec::tuple::Tuple;
use paradise_exec::value::Value;
use paradise_geom::{Point, Polyline, Shape};
use paradise_storage::RTree;

fn lines(n: usize, seed: u64) -> Vec<Tuple> {
    let mut x: u64 = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 3200) as f64 / 10.0 - 160.0
    };
    (0..n)
        .map(|i| {
            let (a, b) = (next(), next() * 0.5);
            Tuple::new(vec![
                Value::Str(format!("l{i}").into()),
                Value::from(Shape::Polyline(
                    Polyline::new(vec![Point::new(a, b), Point::new(a + 4.0, b + 3.0)]).unwrap(),
                )),
            ])
        })
        .collect()
}

fn bench_spatial_join(c: &mut Criterion) {
    let cluster = Cluster::create(&ClusterConfig::for_test(1, "bench-sj")).unwrap();
    let mut g = c.benchmark_group("spatial_join");
    for n in [500usize, 2000] {
        let left = lines(n, 7);
        let right = lines(n, 1234);
        // PBSM-style tile join (single node owns every tile).
        let (left_in, right_in) =
            (JoinInput::from_tuples(&left, 1).unwrap(), JoinInput::from_tuples(&right, 1).unwrap());
        g.bench_with_input(BenchmarkId::new("pbsm_tile", n), &n, |b, _| {
            b.iter(|| local_tile_join(&cluster, 0, left_in.clone(), right_in.clone()).unwrap())
        });
        // Indexed nested loops: bulk-load an R*-tree on the right side,
        // probe with every left bbox, refine exactly.
        g.bench_with_input(BenchmarkId::new("indexed_nl", n), &n, |b, _| {
            b.iter(|| {
                let entries: Vec<_> = right
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (t.get(1).unwrap().as_shape().unwrap().bbox(), i as u64))
                    .collect();
                let tree = RTree::bulk_load(entries);
                let mut hits = 0usize;
                for l in &left {
                    let ls = l.get(1).unwrap().as_shape().unwrap();
                    for (_, ri) in tree.search(&ls.bbox()) {
                        let rs = right[ri as usize].get(1).unwrap().as_shape().unwrap();
                        if ls.overlaps(rs) {
                            hits += 1;
                        }
                    }
                }
                hits
            })
        });
        // Naive nested loops baseline (bbox filter only per pair).
        g.bench_with_input(BenchmarkId::new("nested_loops", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for l in &left {
                    let ls = l.get(1).unwrap().as_shape().unwrap();
                    let lb = ls.bbox();
                    for r in &right {
                        let rs = r.get(1).unwrap().as_shape().unwrap();
                        if lb.intersects(&rs.bbox()) && ls.overlaps(rs) {
                            hits += 1;
                        }
                    }
                }
                hits
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(800));
    targets = bench_spatial_join
}
criterion_main!(benches);
