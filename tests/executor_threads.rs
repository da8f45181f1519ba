//! A cluster starts its executor's helper threads when it is created and
//! joins them when it is dropped: creating and dropping clusters leaves the
//! process's thread count where it was. (Alone in its test binary, so no
//! other test's threads come or go while it counts.)

use paradise::exec::cluster::{Cluster, ClusterConfig};
use paradise::exec::metrics::QueryMetrics;
use paradise::exec::phase::run_phase;

/// The process's live thread count (`Threads:` in `/proc/self/status`).
fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:")?.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn cluster_create_and_drop_cycles_keep_the_thread_count_flat() {
    let before = threads();
    for cycle in 0..100 {
        let cluster = Cluster::create(&ClusterConfig::for_test(4, "threads")).unwrap();
        let mut m = QueryMetrics::default();
        let outs = run_phase(&cluster, &mut m, "touch", Ok).unwrap();
        assert_eq!(outs, vec![0, 1, 2, 3], "cycle {cycle}");
        drop(cluster);
        assert_eq!(threads(), before, "cycle {cycle} left threads behind");
    }
}
