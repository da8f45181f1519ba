//! Spatial joins: PBSM locally, tile-partitioned + replicated in parallel
//! (paper §2.4, §2.7.2).
//!
//! The parallel algorithm is the paper's two-phase scheme: (1) decluster
//! both inputs on the shared spatial grid — shapes spanning several tiles
//! are *replicated* (here at load time, [`crate::Decluster::Spatial`], so a
//! query never repartitions); (2) every node joins the tuples of the tiles it owns
//! with a Partition Based Spatial-Merge \[Pate96\] filter + refine pass.
//! Replication can produce duplicate result pairs (the Wisconsin river ×
//! US-90 example); they are eliminated with the PBSM *reference-point*
//! rule: a candidate pair is reported only by the tile containing the
//! lower-left corner of the two bounding boxes' intersection, and only by
//! the node owning that tile — each pair is therefore reported exactly
//! once cluster-wide.
//!
//! Inside one node the filter step is a **plane sweep**, not the quadratic
//! all-pairs test: each tile's two bucket lists are sorted by bbox `lo.x`
//! and swept forward so every x-overlapping pair is enumerated exactly
//! once, then checked for y-overlap, the reference-point rule, and the
//! exact refinement. Tile buckets are processed as fixed-size morsels on
//! a worker pool ([`crate::workers`]) in sorted tile order —
//! **the reference-point rule is evaluated per tile, never per morsel**,
//! so morsel boundaries cannot re-introduce duplicates, and morsel-order
//! merging keeps the output deterministic for every worker count.

use crate::cluster::Cluster;
use crate::metrics::QueryMetrics;
use crate::ops::basic::concat;
use crate::phase::run_phase;
use crate::table::TableDef;
use crate::tuple::Tuple;
use crate::workers::{WorkerPool, TILE_MORSEL};
use crate::{ExecError, NodeId, Result};
use paradise_geom::{Grid, Rect, Shape, TileId};
use std::collections::HashMap;

/// Per-tile bucket lists: tuple indexes of both sides whose bounding boxes
/// touch the tile, for every tile (owned by `node`) present on *both*
/// sides, in ascending tile order.
type TileBuckets = Vec<(TileId, Vec<usize>, Vec<usize>)>;

/// One side's buckets plus its per-tuple bounding boxes.
type SideBuckets = (HashMap<TileId, Vec<usize>>, Vec<Rect>);

/// Buckets tuple indexes by the tiles their bounding boxes cover, keeping
/// only tiles `node` owns (other replicas handle the rest), and returns
/// the per-tuple bounding boxes alongside.
fn bucket_by_tile(
    cluster: &Cluster,
    node: NodeId,
    tuples: &[Tuple],
    col: usize,
) -> Result<SideBuckets> {
    let grid = cluster.grid();
    let mut buckets: HashMap<TileId, Vec<usize>> = HashMap::new();
    let mut boxes: Vec<Rect> = Vec::with_capacity(tuples.len());
    for (i, t) in tuples.iter().enumerate() {
        let b = t.get(col)?.as_shape()?.bbox();
        boxes.push(b);
        for tile in grid.tile_ids_for_rect(&b) {
            if cluster.node_for_tile(tile) == node {
                buckets.entry(tile).or_default().push(i);
            }
        }
    }
    Ok((buckets, boxes))
}

/// The sorted per-tile work list: tiles present in both inputs.
fn tile_worklist(
    cluster: &Cluster,
    node: NodeId,
    left: &[Tuple],
    lcol: usize,
    right: &[Tuple],
    rcol: usize,
) -> Result<(TileBuckets, Vec<Rect>, Vec<Rect>)> {
    let (lbuckets, lboxes) = bucket_by_tile(cluster, node, left, lcol)?;
    let (mut rbuckets, rboxes) = bucket_by_tile(cluster, node, right, rcol)?;
    let mut tiles: TileBuckets = lbuckets
        .into_iter()
        .filter_map(|(tile, lids)| rbuckets.remove(&tile).map(|rids| (tile, lids, rids)))
        .collect();
    // Sorted tile order makes the per-node output deterministic (the
    // buckets come out of a HashMap) and gives morsels a stable identity.
    tiles.sort_unstable_by_key(|(tile, _, _)| *tile);
    Ok((tiles, lboxes, rboxes))
}

/// Candidate test shared by the sweep and the quadratic reference: bbox
/// intersection (the y-overlap check of the sweep), the PBSM
/// reference-point rule **for this tile**, then the exact refinement.
#[allow(clippy::too_many_arguments)]
fn emit_if_reference_pair(
    grid: &Grid,
    tile: TileId,
    li: usize,
    ri: usize,
    lboxes: &[Rect],
    rboxes: &[Rect],
    left: &[Tuple],
    lcol: usize,
    right: &[Tuple],
    rcol: usize,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    // Filter: bounding boxes must intersect (the sweep guarantees x; this
    // also checks y).
    let Some(ix) = lboxes[li].intersection(&rboxes[ri]) else {
        return Ok(());
    };
    // Reference point: report the pair only in the tile holding the
    // intersection's lower-left corner.
    if grid.tile_of_point(&ix.lo) != tile {
        return Ok(());
    }
    // Refine: exact geometry test.
    let ls: &Shape = left[li].get(lcol)?.as_shape()?;
    let rs: &Shape = right[ri].get(rcol)?.as_shape()?;
    if ls.overlaps(rs) {
        out.push(concat(&left[li], &right[ri]));
    }
    Ok(())
}

/// Plane-sweep filter over one tile's bucket lists: both lists are sorted
/// by bbox `lo.x` (ties by tuple index) and swept forward, enumerating
/// every x-overlapping pair exactly once before the y/reference/refine
/// checks.
#[allow(clippy::too_many_arguments)]
fn sweep_tile(
    grid: &Grid,
    tile: TileId,
    lids: &[usize],
    rids: &[usize],
    lboxes: &[Rect],
    rboxes: &[Rect],
    left: &[Tuple],
    lcol: usize,
    right: &[Tuple],
    rcol: usize,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    fn sort_by_lo_x(ids: &[usize], boxes: &[Rect]) -> Vec<usize> {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable_by(|&a, &b| {
            boxes[a]
                .lo
                .x
                .partial_cmp(&boxes[b].lo.x)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        sorted
    }
    let ls = sort_by_lo_x(lids, lboxes);
    let rs = sort_by_lo_x(rids, rboxes);

    let (mut i, mut j) = (0usize, 0usize);
    while i < ls.len() && j < rs.len() {
        if lboxes[ls[i]].lo.x <= rboxes[rs[j]].lo.x {
            // The left box starts first: pair it with every right box that
            // starts before it ends.
            let li = ls[i];
            let hi_x = lboxes[li].hi.x;
            let mut k = j;
            while k < rs.len() && rboxes[rs[k]].lo.x <= hi_x {
                emit_if_reference_pair(
                    grid, tile, li, rs[k], lboxes, rboxes, left, lcol, right, rcol, out,
                )?;
                k += 1;
            }
            i += 1;
        } else {
            let ri = rs[j];
            let hi_x = rboxes[ri].hi.x;
            let mut k = i;
            while k < ls.len() && lboxes[ls[k]].lo.x <= hi_x {
                emit_if_reference_pair(
                    grid, tile, ls[k], ri, lboxes, rboxes, left, lcol, right, rcol, out,
                )?;
                k += 1;
            }
            j += 1;
        }
    }
    Ok(())
}

/// Filter + refine join of two local tuple batches over the cluster grid,
/// reporting only pairs whose reference tile belongs to `node`.
///
/// Inputs are the node's fragments of spatially-declustered (and therefore
/// possibly replicated) tables. The filter is a per-tile plane sweep; tile
/// buckets run as [`TILE_MORSEL`]-sized morsels on `pool` and the outputs
/// are merged in morsel (= sorted tile) order, so the result is identical
/// for every worker count.
pub fn local_tile_join(
    cluster: &Cluster,
    pool: &WorkerPool,
    node: NodeId,
    left: &[Tuple],
    lcol: usize,
    right: &[Tuple],
    rcol: usize,
) -> Result<Vec<Tuple>> {
    let (tiles, lboxes, rboxes) = tile_worklist(cluster, node, left, lcol, right, rcol)?;
    let grid = cluster.grid();
    let per_morsel = pool.run(tiles.len(), TILE_MORSEL, |range| {
        let mut out = Vec::new();
        for (tile, lids, rids) in &tiles[range] {
            sweep_tile(
                grid, *tile, lids, rids, &lboxes, &rboxes, left, lcol, right, rcol, &mut out,
            )?;
        }
        Ok::<_, ExecError>(out)
    })?;
    Ok(per_morsel.into_iter().flatten().collect())
}

/// The pre-sweep quadratic filter (every left×right bbox pair per tile),
/// kept as the reference implementation for the plane sweep's equivalence
/// tests. Semantics are identical to [`local_tile_join`]; only the
/// candidate-enumeration order differs.
pub fn local_tile_join_quadratic(
    cluster: &Cluster,
    node: NodeId,
    left: &[Tuple],
    lcol: usize,
    right: &[Tuple],
    rcol: usize,
) -> Result<Vec<Tuple>> {
    let (tiles, lboxes, rboxes) = tile_worklist(cluster, node, left, lcol, right, rcol)?;
    let grid = cluster.grid();
    let mut out = Vec::new();
    for (tile, lids, rids) in &tiles {
        for &li in lids {
            for &ri in rids {
                emit_if_reference_pair(
                    grid, *tile, li, ri, &lboxes, &rboxes, left, lcol, right, rcol, &mut out,
                )?;
            }
        }
    }
    Ok(out)
}

/// The full parallel spatial join of two spatially-declustered tables:
/// every node joins its own fragments (phase 2 only — co-located inputs).
pub fn parallel_spatial_join(
    cluster: &Cluster,
    metrics: &mut QueryMetrics,
    left: &TableDef,
    lcol: usize,
    right: &TableDef,
    rcol: usize,
) -> Result<Vec<Vec<Tuple>>> {
    let pool = cluster.workers();
    run_phase(cluster, metrics, "local spatial join", |node| {
        let l = left.fragment_tuples(cluster, node)?;
        let r = right.fragment_tuples(cluster, node)?;
        local_tile_join(cluster, &pool, node, &l, lcol, &r, rcol)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::decluster::Decluster;
    use crate::schema::{DataType, Field, Schema};
    use crate::value::Value;
    use paradise_geom::{Point, Polyline};

    fn cluster(n: usize, tag: &str) -> Cluster {
        Cluster::create(&ClusterConfig::for_test(n, tag)).unwrap()
    }

    fn line_table(name: &str) -> TableDef {
        TableDef::new(
            name,
            Schema::new(vec![
                Field::new("id", DataType::Str),
                Field::new("shape", DataType::Polyline),
            ]),
            Decluster::Spatial { col: 1 },
        )
    }

    fn line(id: &str, pts: &[(f64, f64)]) -> Tuple {
        Tuple::new(vec![
            Value::Str(id.into()),
            Value::from(Shape::Polyline(
                Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap(),
            )),
        ])
    }

    /// Brute-force expected crossing pairs.
    fn brute(pairs_l: &[Tuple], pairs_r: &[Tuple]) -> usize {
        let mut n = 0;
        for l in pairs_l {
            for r in pairs_r {
                let ls = l.get(1).unwrap().as_shape().unwrap();
                let rs = r.get(1).unwrap().as_shape().unwrap();
                if ls.overlaps(rs) {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn parallel_join_no_duplicates_for_multi_crossing_pair() {
        // The paper's Wisconsin-river × US-90 case: the shapes cross twice
        // in regions owned by different tiles/nodes; the result must still
        // contain exactly one pair.
        let c = cluster(4, "sj1");
        let rivers = line_table("rivers");
        let roads = line_table("roads");
        // A long zig-zag river and a long straight road crossing repeatedly.
        let river = line(
            "wisconsin",
            &[(-120.0, -40.0), (-60.0, 40.0), (0.0, -40.0), (60.0, 40.0), (120.0, -40.0)],
        );
        let road = line("us90", &[(-150.0, 0.0), (150.0, 0.0)]);
        rivers.load(&c, vec![river.clone()]).unwrap();
        roads.load(&c, vec![road.clone()]).unwrap();
        // Both tuples are replicated to several nodes.
        assert!(rivers.stored_count(&c) > 1);
        let mut m = QueryMetrics::default();
        let per_node = parallel_spatial_join(&c, &mut m, &rivers, 1, &roads, 1).unwrap();
        let total: usize = per_node.iter().map(|v| v.len()).sum();
        assert_eq!(total, 1, "duplicates must be eliminated");
    }

    #[test]
    fn parallel_join_matches_brute_force() {
        let c = cluster(4, "sj2");
        let drainage = line_table("drainage");
        let roads = line_table("roads");
        // Deterministic pseudo-random short segments.
        let mut x: u64 = 42;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 3000) as f64 / 10.0 - 150.0
        };
        // Vary the segment direction — identical directions would make
        // every pair parallel and crossing-free.
        let mk = |next: &mut dyn FnMut() -> f64, id: String| {
            let (a, b) = (next(), next() * 0.5);
            let (dx, dy) = (next() / 15.0, next() / 25.0);
            line(&id, &[(a, b), (a + dx, b + dy)])
        };
        let dr: Vec<Tuple> = (0..80).map(|i| mk(&mut next, format!("d{i}"))).collect();
        let rd: Vec<Tuple> = (0..80).map(|i| mk(&mut next, format!("r{i}"))).collect();
        drainage.load(&c, dr.clone()).unwrap();
        roads.load(&c, rd.clone()).unwrap();
        let mut m = QueryMetrics::default();
        let per_node = parallel_spatial_join(&c, &mut m, &drainage, 1, &roads, 1).unwrap();
        let total: usize = per_node.iter().map(|v| v.len()).sum();
        assert_eq!(total, brute(&dr, &rd));
        assert!(total > 0, "test should produce some crossings");
    }

    #[test]
    fn local_tile_join_respects_node_ownership() {
        // A pair visible on a node that doesn't own the reference tile must
        // not be reported by that node.
        let c = cluster(4, "sj3");
        let l = vec![line("a", &[(-50.0, -50.0), (50.0, 50.0)])];
        let r = vec![line("b", &[(-50.0, 50.0), (50.0, -50.0)])];
        let mut owners = Vec::new();
        let mut total = 0;
        for node in 0..4 {
            let out = local_tile_join(&c, &c.workers(), node, &l, 1, &r, 1).unwrap();
            if !out.is_empty() {
                owners.push(node);
            }
            total += out.len();
        }
        assert_eq!(total, 1);
        assert_eq!(owners.len(), 1);
    }

    #[test]
    fn join_output_shares_the_input_geometry() {
        // `concat` copies pointers: every output row's shapes are the very
        // allocations of the input tuples, not copies of their vertices.
        let c = cluster(4, "sj4");
        let l = vec![line("a", &[(-50.0, -50.0), (50.0, 50.0)])];
        let r = vec![line("b", &[(-50.0, 50.0), (50.0, -50.0)])];
        let out: Vec<Tuple> = (0..4)
            .flat_map(|node| local_tile_join(&c, &c.workers(), node, &l, 1, &r, 1).unwrap())
            .collect();
        assert_eq!(out.len(), 1);
        for (col, input) in [(1, &l[0]), (3, &r[0])] {
            let (Value::Shape(got), Value::Shape(want)) = (&out[0].values[col], &input.values[1])
            else {
                panic!("shape columns")
            };
            assert!(std::sync::Arc::ptr_eq(got, want), "column {col} was copied");
        }
    }
}
