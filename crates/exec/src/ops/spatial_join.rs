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
//! Inside one node the join runs over columns, not decoded tuples:
//!
//! 1. **Scan.** Each input fragment is scanned once without decoding
//!    ([`JoinInput`]; the two fragments are one pool morsel each): the
//!    encoded records are kept back to back in *sweep order* (bbox `lo.x`,
//!    ties by scan order), beside a column of shape bounding boxes read in
//!    place ([`ShapeRef`]) and, for polylines, each record's segment boxes,
//!    computed once per record.
//! 2. **Bucket.** Record indexes are bucketed by the tiles the node owns,
//!    in index order, so every tile's lists arrive sorted for the sweep:
//!    no per-tile sort and no hash map.
//! 3. **Filter + refine.** Each tile present on both sides is a forward
//!    plane sweep that enumerates every x-overlapping pair exactly once,
//!    then checks y-overlap, the reference-point rule and the exact test:
//!    [`chains_cross`], the kernel of `Polyline::crosses`, reading the
//!    vertices in place and the precomputed segment boxes. Tiles run as
//!    [`TILE_MORSEL`]-sized morsels on the worker pool ([`crate::workers`])
//!    in sorted tile order — **the reference-point rule is evaluated per
//!    tile, never per morsel**, so morsel boundaries cannot re-introduce
//!    duplicates — and emit `(left, right)` record-index pairs.
//! 4. **Materialise.** The filter columns are freed; each record a pair
//!    names is decoded once, on the pool, and the output rows are built
//!    with [`concat()`] in pair order, on the pool too.
//!
//! Morsel-order merging keeps the output identical for every worker count.

use crate::cluster::Cluster;
use crate::metrics::QueryMetrics;
use crate::ops::basic::concat;
use crate::phase::run_phase;
use crate::table::TableDef;
use crate::tuple::{Records, Row, Tuple};
use crate::value::{EncodedPoints, ShapeRef};
use crate::workers::{WorkerPool, ROW_MORSEL, TILE_MORSEL};
use crate::{ExecError, NodeId, Result};
use paradise_geom::algorithms::segment::Segment;
use paradise_geom::polyline::{chains_cross, SegmentChain};
use paradise_geom::{Grid, Rect, Shape, TileId};
use std::cmp::Ordering;

/// One node's fragment of a join input, as columns: the encoded records in
/// sweep order (by shape bbox `lo.x`, ties by scan order), each record's
/// shape bounding box and, for polylines, its segments' bounding boxes.
/// Nothing is decoded until a record is known to join.
#[derive(Debug, Clone, Default)]
pub struct JoinInput {
    records: Records,
    /// Offset in `records.bytes()` of each record's shape payload.
    shape_at: Vec<usize>,
    /// Each record's shape bounding box.
    boxes: Vec<Rect>,
    /// The segment boxes of every polyline, record after record: record
    /// `i`'s end at `seg_ends[i]` (none for other kinds).
    seg_boxes: Vec<Rect>,
    seg_ends: Vec<usize>,
}

impl JoinInput {
    /// Scans `table`'s fragment on `node` once, joining on shape column
    /// `col`.
    pub fn scan(table: &TableDef, cluster: &Cluster, node: NodeId, col: usize) -> Result<Self> {
        let mut scanned = Scanned::default();
        table.scan_fragment(cluster, node, |_, row| scanned.push(row, col))?;
        Ok(scanned.into_sweep_order())
    }

    /// The input holding `tuples`, encoded, joining on shape column `col`.
    pub fn from_tuples(tuples: &[Tuple], col: usize) -> Result<Self> {
        let mut scanned = Scanned::default();
        for t in tuples {
            scanned.push(&Row::new(&t.encode())?, col)?;
        }
        Ok(scanned.into_sweep_order())
    }

    /// Record `i`'s polyline, read in place; `None` for another kind.
    fn chain(&self, i: usize) -> Option<RecordChain<'_>> {
        let points = EncodedPoints::reread(self.records.bytes(), self.shape_at[i])?;
        let first = if i == 0 { 0 } else { self.seg_ends[i - 1] };
        let seg_boxes = &self.seg_boxes[first..self.seg_ends[i]];
        Some(RecordChain { points, seg_boxes, bbox: self.boxes[i] })
    }

    /// Record `i`'s shape, decoded.
    fn shape(&self, i: usize) -> Result<Shape> {
        Ok(ShapeRef::decode(self.records.bytes(), &mut self.shape_at[i].clone())?.to_shape())
    }

    /// The records alone: the filter columns are freed.
    fn into_records(self) -> Records {
        self.records
    }
}

/// Decodes every record of `records` that `used` names, once each, on
/// `pool`; the others stay `None`.
fn decode_used(
    pool: &WorkerPool,
    records: &Records,
    used: impl Iterator<Item = u32>,
) -> Result<Vec<Option<Tuple>>> {
    let mut marked = vec![false; records.len()];
    for i in used {
        marked[i as usize] = true;
    }
    let ids: Vec<usize> = (0..records.len()).filter(|&i| marked[i]).collect();
    let decoded = pool.run(ids.len(), ROW_MORSEL, |range| {
        ids[range].iter().map(|&i| records.row(i)?.to_tuple()).collect::<Result<Vec<_>>>()
    })?;
    let mut out = vec![None; records.len()];
    for (i, t) in ids.into_iter().zip(decoded.into_iter().flatten()) {
        out[i] = Some(t);
    }
    Ok(out)
}

/// A fragment as scanned: records in storage order, each with its shape
/// bounding box and the offset of its shape payload in the record.
#[derive(Default)]
struct Scanned {
    records: Records,
    boxes: Vec<Rect>,
    shape_offsets: Vec<usize>,
    /// Polyline segments in all the records.
    segments: usize,
}

impl Scanned {
    fn push(&mut self, row: &Row, col: usize) -> Result<()> {
        let shape = row.shape(col)?;
        if let ShapeRef::Polyline(pts) = &shape {
            self.segments += pts.len() - 1;
        }
        self.boxes.push(shape.bbox());
        self.shape_offsets.push(row.shape_offset(col)?);
        self.records.push(row.as_bytes());
        Ok(())
    }

    /// Copies the records into sweep order and computes each polyline's
    /// segment boxes. In sweep order every tile's bucket lists are sorted
    /// as they are filled, and a tile's sweep reads its records' columns
    /// front to back.
    fn into_sweep_order(self) -> JoinInput {
        let boxes = &self.boxes;
        let mut order: Vec<usize> = (0..boxes.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            boxes[a].lo.x.partial_cmp(&boxes[b].lo.x).unwrap_or(Ordering::Equal).then(a.cmp(&b))
        });
        let n = order.len();
        let mut input = JoinInput {
            records: Records::with_capacity(n, self.records.bytes().len()),
            shape_at: Vec::with_capacity(n),
            boxes: Vec::with_capacity(n),
            seg_boxes: Vec::with_capacity(self.segments),
            seg_ends: Vec::with_capacity(n),
        };
        for i in order {
            let at = input.records.push(self.records.get(i)) + self.shape_offsets[i];
            if let Some(pts) = EncodedPoints::reread(input.records.bytes(), at) {
                let segment = |v: usize| Segment::new(pts.point(v - 1), pts.point(v));
                input.seg_boxes.extend((1..pts.len()).map(|v| segment(v).bbox()));
            }
            input.seg_ends.push(input.seg_boxes.len());
            input.shape_at.push(at);
            input.boxes.push(boxes[i]);
        }
        input
    }
}

/// A polyline record as [`chains_cross`] reads it: vertices in place in
/// the encoded record, segment boxes from the input's column.
struct RecordChain<'a> {
    points: EncodedPoints<'a>,
    seg_boxes: &'a [Rect],
    bbox: Rect,
}

impl SegmentChain for RecordChain<'_> {
    fn bbox(&self) -> Rect {
        self.bbox
    }

    fn num_segments(&self) -> usize {
        self.seg_boxes.len()
    }

    fn segment(&self, i: usize) -> Segment {
        Segment::new(self.points.point(i), self.points.point(i + 1))
    }

    fn segment_bbox(&self, i: usize) -> Rect {
        self.seg_boxes[i]
    }
}

/// The exact test, [`Shape::overlaps`]: polyline pairs run the crossing
/// kernel in place, any other pair of kinds is decoded first.
fn overlaps(left: &JoinInput, li: usize, right: &JoinInput, ri: usize) -> Result<bool> {
    Ok(match (left.chain(li), right.chain(ri)) {
        (Some(a), Some(b)) => chains_cross(&a, &b),
        _ => left.shape(li)?.overlaps(&right.shape(ri)?),
    })
}

/// One side's record indexes bucketed by tile: tile `t`'s records are
/// `ids[starts[t]..starts[t + 1]]`, in sweep order. Only tiles the node
/// owns hold records; other replicas handle the rest.
struct Buckets {
    starts: Vec<usize>,
    ids: Vec<u32>,
}

impl Buckets {
    /// A counting pass sizes every bucket, then a second pass fills them,
    /// both over the records in sweep order.
    fn new(grid: &Grid, owned: &[bool], boxes: &[Rect]) -> Buckets {
        let mut starts = vec![0; owned.len() + 1];
        for b in boxes {
            for_owned_tile(grid, owned, b, |t| starts[t + 1] += 1);
        }
        for t in 0..owned.len() {
            starts[t + 1] += starts[t];
        }
        let mut next = starts.clone();
        let mut ids = vec![0; starts[owned.len()]];
        for (i, b) in boxes.iter().enumerate() {
            for_owned_tile(grid, owned, b, |t| {
                ids[next[t]] = i as u32;
                next[t] += 1;
            });
        }
        Buckets { starts, ids }
    }

    fn tile(&self, t: TileId) -> &[u32] {
        &self.ids[self.starts[t as usize]..self.starts[t as usize + 1]]
    }
}

/// Calls `f` for every tile `b` covers that `owned` marks.
fn for_owned_tile(grid: &Grid, owned: &[bool], b: &Rect, mut f: impl FnMut(usize)) {
    let range = grid.tiles_for_rect(b);
    for row in range.row0..=range.row1 {
        for col in range.col0..=range.col1 {
            let t = grid.tile_id(col, row) as usize;
            if owned[t] {
                f(t);
            }
        }
    }
}

/// Filter + refine over one tile's lo.x-sorted lists: the forward sweep
/// enumerates every x-overlapping pair exactly once; a pair is kept when
/// the boxes also overlap in y, the intersection's lower-left corner lies
/// in `tile` (the reference-point rule), and the shapes overlap.
fn sweep_tile(
    grid: &Grid,
    tile: TileId,
    (lids, rids): (&[u32], &[u32]),
    left: &JoinInput,
    right: &JoinInput,
    out: &mut Vec<(u32, u32)>,
) -> Result<()> {
    let (lb, rb) = (&left.boxes, &right.boxes);
    let mut check = |li: u32, ri: u32| -> Result<()> {
        let (l, r) = (li as usize, ri as usize);
        let Some(ix) = lb[l].intersection(&rb[r]) else {
            return Ok(());
        };
        if grid.tile_of_point(&ix.lo) == tile && overlaps(left, l, right, r)? {
            out.push((li, ri));
        }
        Ok(())
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < lids.len() && j < rids.len() {
        let (li, ri) = (lids[i], rids[j]);
        if lb[li as usize].lo.x <= rb[ri as usize].lo.x {
            // The left box starts first: pair it with every right box that
            // starts before it ends.
            let hi_x = lb[li as usize].hi.x;
            for &rk in rids[j..].iter().take_while(|&&rk| rb[rk as usize].lo.x <= hi_x) {
                check(li, rk)?;
            }
            i += 1;
        } else {
            let hi_x = rb[ri as usize].hi.x;
            for &lk in lids[i..].iter().take_while(|&&lk| lb[lk as usize].lo.x <= hi_x) {
                check(lk, ri)?;
            }
            j += 1;
        }
    }
    Ok(())
}

/// The local PBSM join of two inputs over the cluster grid, reporting only
/// pairs whose reference tile belongs to `node`: output rows are `left ++
/// right` tuples, in ascending reference tile, then sweep order.
///
/// The inputs are the node's fragments of spatially-declustered (and
/// therefore possibly replicated) tables; the join consumes them, freeing
/// their filter columns before it decodes. Tiles run as
/// [`TILE_MORSEL`]-sized morsels and materialisation as
/// [`ROW_MORSEL`]-sized ones on `pool`, merged in morsel order, so the
/// result is identical for every worker count.
pub fn local_tile_join(
    cluster: &Cluster,
    pool: &WorkerPool,
    node: NodeId,
    left: JoinInput,
    right: JoinInput,
) -> Result<Vec<Tuple>> {
    let grid = cluster.grid();
    let owned: Vec<bool> =
        (0..grid.num_tiles()).map(|t| cluster.node_for_tile(t) == node).collect();
    let (lbuckets, rbuckets) =
        (Buckets::new(grid, &owned, &left.boxes), Buckets::new(grid, &owned, &right.boxes));
    let tiles: Vec<TileId> = (0..grid.num_tiles())
        .filter(|&t| !lbuckets.tile(t).is_empty() && !rbuckets.tile(t).is_empty())
        .collect();
    let pairs = pool
        .run(tiles.len(), TILE_MORSEL, |range| {
            let mut out = Vec::new();
            for &t in &tiles[range] {
                let lists = (lbuckets.tile(t), rbuckets.tile(t));
                sweep_tile(grid, t, lists, &left, &right, &mut out)?;
            }
            Ok::<_, ExecError>(out)
        })?
        .concat();
    // Only the records are read from here on.
    let (left, right) = (left.into_records(), right.into_records());
    let lrows = decode_used(pool, &left, pairs.iter().map(|p| p.0))?;
    let rrows = decode_used(pool, &right, pairs.iter().map(|p| p.1))?;
    drop((left, right));
    fn decoded(rows: &[Option<Tuple>], i: u32) -> &Tuple {
        rows[i as usize].as_ref().expect("every paired record is decoded")
    }
    let rows = pool.run(pairs.len(), ROW_MORSEL, |range| {
        let rows =
            pairs[range].iter().map(|&(l, r)| concat(decoded(&lrows, l), decoded(&rrows, r)));
        Ok::<_, ExecError>(rows.collect::<Vec<_>>())
    })?;
    Ok(rows.into_iter().flatten().collect())
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
        // The two scans are independent: one morsel each.
        let sides = [(left, lcol), (right, rcol)];
        let [l, r]: [JoinInput; 2] = pool
            .run(2, 1, |side| {
                let (table, col) = sides[side.start];
                JoinInput::scan(table, cluster, node, col)
            })?
            .try_into()
            .expect("one input per side");
        local_tile_join(cluster, &pool, node, l, r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::decluster::Decluster;
    use crate::schema::{DataType, Field, Schema};
    use crate::value::Value;
    use paradise_geom::{Point, Polygon, Polyline};

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

    fn input(tuples: &[Tuple]) -> JoinInput {
        JoinInput::from_tuples(tuples, 1).unwrap()
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
        let l = input(&[line("a", &[(-50.0, -50.0), (50.0, 50.0)])]);
        let r = input(&[line("b", &[(-50.0, 50.0), (50.0, -50.0)])]);
        let mut owners = Vec::new();
        let mut total = 0;
        for node in 0..4 {
            let out = local_tile_join(&c, &c.workers(), node, l.clone(), r.clone()).unwrap();
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
        // Each joining record is decoded once and `concat` copies pointers:
        // the two rows of one left record share its shape allocation.
        let c = cluster(1, "sj4");
        let l = input(&[line("a", &[(-50.0, -50.0), (50.0, 50.0)])]);
        let r = input(&[
            line("b", &[(-50.0, 50.0), (50.0, -50.0)]),
            line("c", &[(-40.0, 10.0), (40.0, -10.0)]),
        ]);
        let out = local_tile_join(&c, &c.workers(), 0, l, r).unwrap();
        assert_eq!(out.len(), 2);
        let (Value::Shape(first), Value::Shape(second)) = (&out[0].values[1], &out[1].values[1])
        else {
            panic!("shape columns")
        };
        assert!(std::sync::Arc::ptr_eq(first, second), "the left record was decoded twice");
    }

    #[test]
    fn other_shape_kinds_refine_through_shape_overlaps() {
        // A polygon side has no segment boxes: its pairs are decoded and
        // tested with `Shape::overlaps`.
        let c = cluster(1, "sj6");
        let square = Polygon::from_rect(
            &Rect::from_corners(Point::new(0.0, 0.0), Point::new(4.0, 4.0)).unwrap(),
        );
        let l = input(&[Tuple::new(vec![
            Value::Str("sq".into()),
            Value::from(Shape::Polygon(square)),
        ])]);
        let right = [
            line("through", &[(-1.0, 2.0), (5.0, 2.0)]),
            line("inside", &[(1.0, 1.0), (2.0, 2.0)]),
            line("outside", &[(5.0, 0.5), (6.0, 3.5)]),
        ];
        let got = local_tile_join(&c, &c.workers(), 0, l, input(&right)).unwrap();
        let ids: Vec<&str> = got.iter().map(|t| t.get(2).unwrap().as_str().unwrap()).collect();
        assert_eq!(ids, ["through", "inside"]);
    }

    #[test]
    fn rows_are_the_decoded_records_in_sweep_order() {
        // Inside one tile rows follow the sweep (right boxes by ascending
        // lo.x, not by record index); a record that joins nothing adds no
        // row.
        let c = cluster(1, "sj5");
        let a = line("a", &[(0.5, 0.5), (10.0, 5.0)]);
        let l = input(&[a.clone(), line("far", &[(100.0, 80.0), (110.0, 85.0)])]);
        let right = [line("c", &[(6.0, 4.8), (9.0, 1.0)]), line("b", &[(1.0, 3.0), (3.0, 0.6)])];
        let out = local_tile_join(&c, &c.workers(), 0, l, input(&right)).unwrap();
        assert_eq!(out, vec![concat(&a, &right[1]), concat(&a, &right[0])]);
    }
}
