//! Determinism properties of the morsel-parallel PBSM tile join.
//!
//! The contract under test (DESIGN.md §10): a pool-driven kernel is
//! **byte-identical** to its serial counterpart for every worker count,
//! because morsel boundaries depend only on the input length and outputs
//! merge in morsel order. A worker pool is a performance knob, never a
//! semantics knob.

mod common;

use common::local_tile_join_quadratic;
use paradise_exec::cluster::{Cluster, ClusterConfig};
use paradise_exec::ops::spatial_join::{local_tile_join, JoinInput};
use paradise_exec::value::Value;
use paradise_exec::workers::WorkerPool;
use paradise_exec::Tuple;
use paradise_geom::{Point, Polyline, Shape};

/// The worker counts every property is checked against. 1 must reproduce
/// the serial kernels exactly; the rest exercise real thread scheduling
/// (including a count that does not divide typical morsel counts evenly).
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Deterministic xorshift for reproducible "random" inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn f64(&mut self) -> f64 {
        (self.next() % 10_000) as f64 / 10.0 - 500.0
    }
}

fn line(id: &str, pts: &[(f64, f64)]) -> Tuple {
    Tuple::new(vec![
        Value::Str(id.into()),
        Value::from(Shape::Polyline(
            Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap(),
        )),
    ])
}

fn input(tuples: &[Tuple]) -> JoinInput {
    JoinInput::from_tuples(tuples, 1).unwrap()
}

fn random_segments(n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|i| {
            let (x, y) = (rng.f64() / 3.0, rng.f64() / 6.0);
            let (dx, dy) = (rng.f64() / 20.0, rng.f64() / 30.0);
            line(&format!("s{seed}-{i}"), &[(x, y), (x + dx, y + dy)])
        })
        .collect()
}

#[test]
fn plane_sweep_join_matches_quadratic_and_is_pool_invariant() {
    let cluster = Cluster::create(&ClusterConfig::for_test(2, "pk-sweep")).unwrap();
    let left = random_segments(150, 3);
    let right = random_segments(150, 5);
    let (left_in, right_in) = (input(&left), input(&right));
    for node in 0..2 {
        let expected = local_tile_join_quadratic(&cluster, node, &left, 1, &right, 1);
        for w in WORKER_COUNTS {
            let got = local_tile_join(
                &cluster,
                &WorkerPool::new(w),
                node,
                left_in.clone(),
                right_in.clone(),
            )
            .unwrap();
            // Same pair set: the sweep only changes candidate-enumeration
            // order within a tile, so compare as multisets of pairs.
            let key = |t: &Tuple| format!("{t:?}");
            let mut a: Vec<String> = got.iter().map(key).collect();
            let mut b: Vec<String> = expected.iter().map(key).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "sweep != quadratic on node {node} at {w} workers");
        }
        // And across worker counts the output must be byte-identical
        // (same order, not just the same set).
        let serial =
            local_tile_join(&cluster, &WorkerPool::new(1), node, left_in.clone(), right_in.clone())
                .unwrap();
        for w in WORKER_COUNTS {
            let got = local_tile_join(
                &cluster,
                &WorkerPool::new(w),
                node,
                left_in.clone(),
                right_in.clone(),
            )
            .unwrap();
            assert_eq!(got, serial, "tile join order diverged at {w} workers");
        }
    }
}

#[test]
fn reference_point_rule_is_per_tile_not_per_morsel() {
    // Regression for the PBSM duplicate-elimination rule. Two long
    // crossing diagonals span far more tiles than one TILE_MORSEL (8), so
    // the same candidate pair appears in tile buckets belonging to
    // *different morsels*. If the reference-point rule were evaluated per
    // morsel (e.g. "report in the first tile of my morsel that sees the
    // pair"), every morsel containing a shared tile would report the pair
    // once and the join would double-count. Per-tile evaluation reports it
    // exactly once regardless of how tiles are sliced into morsels.
    let cluster = Cluster::create(&ClusterConfig::for_test(1, "pk-refpoint")).unwrap();
    let l = input(&[line("diag-up", &[(-170.0, -85.0), (170.0, 85.0)])]);
    let r = input(&[line("diag-down", &[(-170.0, 85.0), (170.0, -85.0)])]);
    let pool = cluster.workers();
    let before = pool.snapshot();
    let out = local_tile_join(&cluster, &pool, 0, l.clone(), r.clone()).unwrap();
    let delta = pool.snapshot().since(&before);
    assert!(
        delta.morsels > 1,
        "workload must span several morsels for this regression to bite (got {})",
        delta.morsels
    );
    assert_eq!(out.len(), 1, "pair must be reported exactly once, not per morsel");
    // The same invariant for every pool size.
    for w in WORKER_COUNTS {
        let pool = WorkerPool::new(w);
        assert_eq!(local_tile_join(&cluster, &pool, 0, l.clone(), r.clone()).unwrap().len(), 1);
    }
}

#[test]
fn with_workers_one_reproduces_serial_engine_output() {
    // One worker must not change any kernel output (checked above per
    // kernel). Here: the spatial join over every node of a cluster, run
    // once on a 1-worker pool and once on a 7-worker pool.
    let cluster = Cluster::create(&ClusterConfig::for_test(2, "pk-swap")).unwrap();
    let left = input(&random_segments(120, 13));
    let right = input(&random_segments(120, 17));
    let join_all = |pool: &WorkerPool| -> Vec<Vec<Tuple>> {
        (0..2)
            .map(|n| {
                local_tile_join(&cluster, pool, n, left.clone(), right.clone())
                    .unwrap()
                    .into_tuples()
            })
            .collect()
    };
    let serial = join_all(&WorkerPool::new(1));
    let parallel = join_all(&WorkerPool::new(7));
    assert_eq!(serial, parallel);
    assert!(serial.iter().map(Vec::len).sum::<usize>() > 0, "join should produce pairs");
}
