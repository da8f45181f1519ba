//! Micro versions of representative benchmark queries (Q2 raster clip,
//! Q6 spatial selection, Q8 indexed NL join, Q13 spatial join) over a
//! small loaded world.

use paradise::queries;
use paradise_bench::harness::Criterion;
use paradise_bench::{criterion_group, criterion_main};
use paradise_bench::{setup_db, BenchConfig};
use paradise_datagen::tables::{self, World, WorldSpec, OIL_FIELD, QUERY_CHANNEL};
use paradise_geom::Point;

fn bench_queries(c: &mut Criterion) {
    let mut cfg = BenchConfig::new(4, 1);
    cfg.shrink = 4000;
    cfg.base_dir =
        std::env::temp_dir().join(format!("paradise-bench-queries-{}", std::process::id()));
    let world = World::generate(WorldSpec::paper_ratio(cfg.seed, 1, cfg.shrink));
    let db = setup_db(&cfg, &world);
    let us = tables::us_polygon();
    let d = tables::query_date();

    let mut g = c.benchmark_group("queries");
    g.bench_function("q2_clip_rasters", |b| {
        b.iter(|| queries::q2(&db, QUERY_CHANNEL, &us).unwrap().rows.len())
    });
    g.bench_function("q5_name_probe", |b| {
        b.iter(|| queries::q5(&db, "Phoenix").unwrap().rows.len())
    });
    g.bench_function("q6_spatial_selection", |b| {
        b.iter(|| queries::q6(&db, &us).unwrap().rows.len())
    });
    g.bench_function("q8_indexed_nl_spatial_join", |b| {
        b.iter(|| queries::q8(&db, "Louisville", 8.0).unwrap().rows.len())
    });
    g.bench_function("q9_raster_polygon_join", |b| {
        b.iter(|| queries::q9(&db, d, QUERY_CHANNEL, OIL_FIELD).unwrap().rows.len())
    });
    g.bench_function("q11_closest_aggregate", |b| {
        b.iter(|| queries::q11(&db, Point::new(-89.4, 43.1)).unwrap().rows.len())
    });
    g.bench_function("q13_spatial_join", |b| b.iter(|| queries::q13(&db).unwrap().rows.len()));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(800));
    targets = bench_queries
}
criterion_main!(benches);
