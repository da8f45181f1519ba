//! The coordinator's gather of Q13's result (paper §2.3, Figure 2.1): about
//! 150k joined rows, built as the PBSM join builds them (each row
//! [`concat`]s one drainage and one road record, sharing their strings
//! and shapes), travel from 4 nodes to the query coordinator through
//! [`exchange`] under the `Local` transport and are then dropped.
//!
//! Rows are built outside the timed span. `gather_and_drop` times the
//! exchange plus dropping the gathered rows; `drop` times dropping the
//! same rows without an exchange, so the difference is the gather.

use paradise_bench::harness::{BenchmarkId, Criterion};
use paradise_bench::{criterion_group, criterion_main};
use paradise_exec::cluster::{Cluster, ClusterConfig};
use paradise_exec::metrics::QueryMetrics;
use paradise_exec::ops::basic::concat;
use paradise_exec::phase::{exchange, Outbox};
use paradise_exec::tuple::Tuple;
use paradise_exec::value::Value;
use paradise_geom::{Point, Polyline, Shape};

const NODES: usize = 4;
/// Joined rows per node: 4 × 37,500 = 150,000, about Q13's 149,985 on the
/// seed-1 benchmark world.
const ROWS_PER_NODE: usize = 37_500;

/// A `(id, type, shape)` line record with a `points`-vertex polyline.
fn line(prefix: &str, i: usize, points: usize) -> Tuple {
    let pts = (0..points).map(|k| Point::new((i + k) as f64 * 0.01, k as f64 * 0.02)).collect();
    Tuple::new(vec![
        Value::Str(format!("{prefix}-{i}").into()),
        Value::Int((i % 7) as i64),
        Value::from(Shape::Polyline(Polyline::new(pts).expect("two or more vertices"))),
    ])
}

/// Each node's joined rows: every drainage record pairs with a few roads.
fn joined_rows(drainage: &[Tuple], roads: &[Tuple]) -> Vec<Vec<Tuple>> {
    (0..NODES)
        .map(|node| {
            (0..ROWS_PER_NODE)
                .map(|i| {
                    let d = &drainage[(node * ROWS_PER_NODE + i) / 9 % drainage.len()];
                    concat(&d.values, &roads[(i * 31 + node) % roads.len()].values)
                })
                .collect()
        })
        .collect()
}

fn bench_exchange(c: &mut Criterion) {
    let cluster = Cluster::create(&ClusterConfig::for_test(NODES, "bench-exchange")).unwrap();
    let qc = cluster.coordinator_id();
    let drainage: Vec<Tuple> = (0..17_400).map(|i| line("d", i, 8)).collect();
    let roads: Vec<Tuple> = (0..7_000).map(|i| line("r", i, 6)).collect();
    let rows = NODES * ROWS_PER_NODE;
    let mut g = c.benchmark_group("exchange");
    g.bench_with_input(BenchmarkId::new("gather_and_drop", rows), &rows, |b, _| {
        b.iter_with_setup(
            || joined_rows(&drainage, &roads),
            |per_node| {
                let outbox = per_node.into_iter().map(|r| Outbox::to(qc, r)).collect();
                let mut m = QueryMetrics::default();
                let inbox = exchange(&cluster, &mut m, "gather", outbox).unwrap();
                assert_eq!(inbox[qc].len(), rows);
            },
        )
    });
    g.bench_with_input(BenchmarkId::new("drop", rows), &rows, |b, _| {
        b.iter_with_setup(|| joined_rows(&drainage, &roads), drop)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_exchange
}
criterion_main!(benches);
