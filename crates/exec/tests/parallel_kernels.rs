//! Determinism properties of the PBSM tile join on the cluster's executor.
//!
//! The contract under test (DESIGN.md §10): node fragments run as morsels
//! on the executor give **byte-identical** output to a serial loop over
//! the nodes for every executor size, because a morsel's work never
//! depends on the thread that runs it and outputs merge in morsel order.
//! The executor is a performance knob, never a semantics knob.

mod common;

use common::local_tile_join_quadratic;
use paradise_exec::cluster::{Cluster, ClusterConfig};
use paradise_exec::ops::spatial_join::{local_tile_join, JoinInput};
use paradise_exec::value::Value;
use paradise_exec::workers::Executor;
use paradise_exec::Tuple;
use paradise_geom::{Point, Polyline, Shape};
use std::sync::Arc;

/// The executor sizes every property is checked against: no helper (a
/// serial loop on the calling thread), one, and more helpers than nodes.
const HELPER_COUNTS: [usize; 3] = [0, 1, 3];

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

/// Runs `local_tile_join` for every node as one morsel each on an
/// executor with `helpers` helper threads, the way a phase runs fragments.
fn join_on(
    helpers: usize,
    cluster: &Arc<Cluster>,
    left: &JoinInput,
    right: &JoinInput,
) -> Vec<Vec<Tuple>> {
    let (c, l, r) = (cluster.clone(), left.clone(), right.clone());
    Executor::new(helpers)
        .unwrap()
        .run(cluster.num_nodes(), move |node| {
            local_tile_join(&c, node, l.clone(), r.clone()).unwrap().into_tuples()
        })
        .into_iter()
        .map(|d| d.out.unwrap())
        .collect()
}

#[test]
fn plane_sweep_join_matches_quadratic_and_is_pool_invariant() {
    let cluster = Arc::new(Cluster::create(&ClusterConfig::for_test(2, "pk-sweep")).unwrap());
    let left = random_segments(150, 3);
    let right = random_segments(150, 5);
    let (left_in, right_in) = (input(&left), input(&right));
    let serial: Vec<Vec<Tuple>> = (0..2)
        .map(|node| {
            local_tile_join(&cluster, node, left_in.clone(), right_in.clone())
                .unwrap()
                .into_tuples()
        })
        .collect();
    for (node, got) in serial.iter().enumerate() {
        let expected = local_tile_join_quadratic(&cluster, node, &left, 1, &right, 1);
        // Same pair set: the sweep only changes candidate-enumeration
        // order within a tile, so compare as multisets of pairs.
        let key = |t: &Tuple| format!("{t:?}");
        let mut a: Vec<String> = got.iter().map(key).collect();
        let mut b: Vec<String> = expected.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "sweep != quadratic on node {node}");
    }
    // Run as morsels on executors of every size, the output is
    // byte-identical (same order, not just the same set).
    for helpers in HELPER_COUNTS {
        assert_eq!(join_on(helpers, &cluster, &left_in, &right_in), serial, "{helpers} helpers");
    }
}

#[test]
fn reference_point_rule_is_per_tile_not_per_morsel() {
    // Regression for the PBSM duplicate-elimination rule. Two long
    // crossing diagonals span hundreds of tiles, so the same candidate pair
    // appears in many tile buckets. The reference-point rule reports it
    // only in the tile holding the lower-left corner of the boxes'
    // intersection, so the join reports it exactly once.
    let cluster = Arc::new(Cluster::create(&ClusterConfig::for_test(1, "pk-refpoint")).unwrap());
    let l = input(&[line("diag-up", &[(-170.0, -85.0), (170.0, 85.0)])]);
    let r = input(&[line("diag-down", &[(-170.0, 85.0), (170.0, -85.0)])]);
    let out = local_tile_join(&cluster, 0, l.clone(), r.clone()).unwrap();
    assert_eq!(out.len(), 1, "pair must be reported exactly once, not once per tile");
    for helpers in HELPER_COUNTS {
        assert_eq!(join_on(helpers, &cluster, &l, &r), vec![out.clone().into_tuples()]);
    }
}

#[test]
fn with_workers_one_reproduces_serial_engine_output() {
    // The spatial join over every node of a cluster, run as morsels on an
    // executor with no helper (one worker: the calling thread) and on one
    // with three helpers, gives the same rows in the same order.
    let cluster = Arc::new(Cluster::create(&ClusterConfig::for_test(2, "pk-swap")).unwrap());
    let left = input(&random_segments(120, 13));
    let right = input(&random_segments(120, 17));
    let serial = join_on(0, &cluster, &left, &right);
    assert_eq!(join_on(3, &cluster, &left, &right), serial);
    assert!(serial.iter().map(Vec::len).sum::<usize>() > 0, "join should produce pairs");
}
