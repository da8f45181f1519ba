//! The phase driver's dispatch cost: [`run_phase`] with empty fragments on
//! a 4-node cluster, the per-phase overhead every statement pays on top of
//! its fragments' work (one or two phases for a `browse` lookup).
//!
//! `run_phase/4` hands the four fragments to the cluster's executor, so it
//! times publishing a phase, waking a helper thread and merging the
//! outputs in node order; `run_phase/1` times a one-node phase, which runs
//! inline on the calling thread and wakes nobody.

use paradise_bench::harness::{BenchmarkId, Criterion};
use paradise_bench::{criterion_group, criterion_main};
use paradise_exec::cluster::{Cluster, ClusterConfig};
use paradise_exec::metrics::QueryMetrics;
use paradise_exec::phase::run_phase;

fn bench_phase(c: &mut Criterion) {
    let mut g = c.benchmark_group("run_phase");
    for nodes in [1usize, 4] {
        let cluster = Cluster::create(&ClusterConfig::for_test(nodes, "bench-phase")).unwrap();
        g.bench_with_input(BenchmarkId::new("empty", nodes), &nodes, |b, _| {
            b.iter(|| {
                let mut m = QueryMetrics::default();
                run_phase(&cluster, &mut m, "empty", |_| Ok(())).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(1000));
    targets = bench_phase
}
criterion_main!(benches);
