//! Differential test of the columnar PBSM join against two references on
//! polylines built to hit the join's edge cases: shared endpoints,
//! T-junctions, collinear overlaps, vertices on tile boundaries, and long
//! chains replicated over many tiles and nodes.
//!
//! - Per node, the columnar join (`local_tile_join` over encoded records)
//!   returns the same rows as the quadratic per-tile reference.
//! - Over the whole cluster, `parallel_spatial_join` on spatially
//!   declustered tables reports every pair brute-force `Shape::overlaps`
//!   finds, exactly once.

mod common;

use common::local_tile_join_quadratic;
use paradise_exec::cluster::{Cluster, ClusterConfig};
use paradise_exec::ops::spatial_join::{local_tile_join, parallel_spatial_join, JoinInput};
use paradise_exec::phase::Batch;
use paradise_exec::schema::{DataType, Field, Schema};
use paradise_exec::value::Value;
use paradise_exec::{Decluster, QueryMetrics, TableDef, Tuple};
use paradise_geom::{Point, Polyline, Shape};
use paradise_util::Rng;
use std::sync::Arc;

const NODES: usize = 3;

/// Lattice spacing: an eighth of a tile's width and a quarter of its
/// height on the test grid (32 × 32 tiles over the world), exact in binary,
/// so vertices often fall on tile boundaries and chains share vertices and
/// run collinear.
const STEP_X: f64 = 360.0 / 32.0 / 8.0;
const STEP_Y: f64 = 180.0 / 32.0 / 4.0;

fn line(id: String, pts: &[(i32, i32)]) -> Tuple {
    let pts = pts.iter().map(|&(x, y)| Point::new(f64::from(x) * STEP_X, f64::from(y) * STEP_Y));
    Tuple::new(vec![
        Value::Str(id.into()),
        Value::from(Shape::Polyline(Polyline::new(pts.collect()).unwrap())),
    ])
}

/// Chains over a 40 × 24 lattice window around the origin: most are short
/// random walks of axis-parallel and diagonal lattice steps (collinear
/// overlaps, shared endpoints and T-junctions are common); one in eight is
/// a long chain crossing many tiles and nodes.
fn chains(n: usize, prefix: &str, rng: &mut Rng) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let id = format!("{prefix}{i}");
            let mut p = (rng.gen_range(-20..20i32), rng.gen_range(-12..12i32));
            if i % 8 == 0 {
                let q = (rng.gen_range(-20..20i32), rng.gen_range(-12..12i32));
                let far = (p.0 + (q.0 - p.0) * 3, p.1 + (q.1 - p.1) * 3);
                return line(id, &[p, far]);
            }
            let mut pts = vec![p];
            while pts.len() < rng.gen_range(2..6usize) + 1 {
                let step = (rng.gen_range(-2..3i32), rng.gen_range(-2..3i32));
                if step != (0, 0) {
                    p = (p.0 + step.0, p.1 + step.1);
                    pts.push(p);
                }
            }
            line(id, &pts)
        })
        .collect()
}

fn ids(rows: &[Tuple]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = rows
        .iter()
        .map(|t| {
            let s = |c: usize| t.get(c).unwrap().as_str().unwrap().to_string();
            (s(0), s(2))
        })
        .collect();
    out.sort();
    out
}

fn brute_force(left: &[Tuple], right: &[Tuple]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            let shape = |t: &Tuple| t.get(1).unwrap().as_shape().unwrap().clone();
            if shape(l).overlaps(&shape(r)) {
                let id = |t: &Tuple| t.get(0).unwrap().as_str().unwrap().to_string();
                out.push((id(l), id(r)));
            }
        }
    }
    out.sort();
    out
}

fn line_table(name: &str) -> Arc<TableDef> {
    Arc::new(TableDef::new(
        name,
        Schema::new(vec![Field::new("id", DataType::Str), Field::new("shape", DataType::Polyline)]),
        Decluster::Spatial { col: 1 },
    ))
}

#[test]
fn columnar_join_matches_quadratic_and_brute_force() {
    let cluster = Arc::new(Cluster::create(&ClusterConfig::for_test(NODES, "pbsm-diff")).unwrap());
    for seed in [1u64, 2, 3] {
        let mut rng = Rng::seed_from_u64(seed);
        let left = chains(90, "l", &mut rng);
        let right = chains(90, "r", &mut rng);
        let want = brute_force(&left, &right);
        assert!(want.len() > 50, "seed {seed}: too few crossings ({})", want.len());

        // Every node sees every shape, as if each were replicated
        // everywhere; ownership and the reference point pick the reporter.
        let (left_in, right_in) =
            (JoinInput::from_tuples(&left, 1).unwrap(), JoinInput::from_tuples(&right, 1).unwrap());
        let mut all = Vec::new();
        for node in 0..NODES {
            let quadratic = local_tile_join_quadratic(&cluster, node, &left, 1, &right, 1);
            let got = local_tile_join(&cluster, node, left_in.clone(), right_in.clone()).unwrap();
            assert_eq!(ids(&got), ids(&quadratic), "seed {seed} node {node}");
            all.extend(got.into_tuples());
        }
        assert_eq!(ids(&all), want, "seed {seed}: nodes together");

        // The same through stored, spatially declustered fragments.
        let (lt, rt) = (line_table(&format!("left{seed}")), line_table(&format!("right{seed}")));
        lt.load(&cluster, left.clone()).unwrap();
        rt.load(&cluster, right.clone()).unwrap();
        assert!(lt.stored_count(&cluster) > left.len() as u64, "no shape was replicated");
        let mut m = QueryMetrics::default();
        let per_node = parallel_spatial_join(&cluster, &mut m, lt, 1, rt, 1).unwrap();
        assert_eq!(ids(&Batch::concat(per_node)), want, "seed {seed}: parallel_spatial_join");
    }
}
