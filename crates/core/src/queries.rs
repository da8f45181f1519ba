//! The global Sequoia 2000 benchmark queries (paper §3.1.2), implemented
//! as physical plans over the parallel engine.
//!
//! Each function is one of the paper's fourteen queries. Q1 is the load
//! (see [`crate::Paradise::load_table`] and the index builders); Q2–Q14
//! return a [`QueryResult`] whose [`QueryMetrics`] carries the simulated
//! parallel execution time, network bytes, and pull counts the experiments
//! report.
//!
//! Column layout conventions (the benchmark schemas of §3.1.1):
//!
//! * `raster(date, channel, data)`
//! * `populatedPlaces(id, containing_face, type, location, name)`
//! * `roads(id, type, shape)` / `drainage(id, type, shape)`
//! * `landCover(id, type, shape)`

use crate::db::{Paradise, QueryResult};
use crate::Result;
use paradise_array::{PixelWindow, Raster};
use paradise_exec::cluster::NetSnapshot;
use paradise_exec::metrics::QueryMetrics;
use paradise_exec::ops::basic::sort_by_col;
use paradise_exec::ops::closest::{closest_join, ClosestResult};
use paradise_exec::ops::spatial_join::parallel_spatial_join;
use paradise_exec::phase::{exchange, run_phase, run_sequential};
use paradise_exec::raster_store;
use paradise_exec::table::unpack_oid;
use paradise_exec::value::{Date, RasterValue, StoredRaster, Value};
use paradise_exec::{ExecError, NodeId, Row, Tuple};
use paradise_geom::{Circle, Point, Polygon, Shape};
use std::sync::Arc;
use std::time::Instant;

/// `raster.date` column.
pub const RASTER_DATE: usize = 0;
/// `raster.channel` column.
pub const RASTER_CHANNEL: usize = 1;
/// `raster.data` column.
pub const RASTER_DATA: usize = 2;
/// `populatedPlaces.type` column.
pub const PP_TYPE: usize = 2;
/// `populatedPlaces.location` column.
pub const PP_LOC: usize = 3;
/// `populatedPlaces.name` column.
pub const PP_NAME: usize = 4;
/// `roads`/`drainage` `.id` column.
pub const LINE_ID: usize = 0;
/// `roads`/`drainage` `.type` column.
pub const LINE_TYPE: usize = 1;
/// `roads`/`drainage` `.shape` column.
pub const LINE_SHAPE: usize = 2;
/// `landCover.id` column.
pub const LC_ID: usize = 0;
/// `landCover.type` column.
pub const LC_TYPE: usize = 1;
/// `landCover.shape` column.
pub const LC_SHAPE: usize = 2;

/// Seals a query's metrics: wall clock plus the network traffic the query
/// caused (the delta over `net0`). Accounting happens at the stream/
/// transport choke point, so these numbers are identical for `Local` and
/// `Tcp` transports running the same plan.
fn finish(
    db: &Paradise,
    net0: NetSnapshot,
    mut metrics: QueryMetrics,
    columns: &[&str],
    rows: Vec<Tuple>,
    t0: Instant,
) -> QueryResult {
    seal(db, net0, &mut metrics, t0);
    QueryResult { columns: columns.iter().map(|s| s.to_string()).collect(), rows, metrics }
}

/// The metrics half of [`finish`]: records the traffic since `net0` and
/// the wall clock since `t0`.
pub(crate) fn seal(db: &Paradise, net0: NetSnapshot, metrics: &mut QueryMetrics, t0: Instant) {
    let d = db.cluster().net.since(net0);
    metrics.net_bytes = d.bytes;
    metrics.net_tuples = d.tuples;
    metrics.pulls = d.pulls;
    metrics.pull_bytes = d.pull_bytes;
    metrics.wall = t0.elapsed();
}

/// Ships per-node rows to the query coordinator over the cluster's active
/// transport, charging network traffic for every row (the QC is its own
/// endpoint, Figure 2.1). Rows arrive in node order, then emission order.
pub(crate) fn collect_rows(db: &Paradise, per_node: Vec<Vec<Tuple>>) -> Result<Vec<Tuple>> {
    let qc = db.cluster().coordinator_id();
    let outbox =
        per_node.into_iter().map(|rows| rows.into_iter().map(|t| (qc, t)).collect()).collect();
    Ok(exchange(db.cluster(), outbox)?.swap_remove(qc))
}

/// Sends `rows` from the query coordinator to every node (a replicated
/// small outer, §2.4) and returns each node's copy, in `rows` order.
fn broadcast(db: &Paradise, rows: Vec<Tuple>) -> Result<Vec<Vec<Tuple>>> {
    let n = db.cluster().num_nodes();
    let mut outbox: Vec<Vec<(NodeId, Tuple)>> = (0..n).map(|_| Vec::new()).collect();
    outbox.push(rows.iter().flat_map(|t| (0..n).map(move |node| (node, t.clone()))).collect());
    let mut inbox = exchange(db.cluster(), outbox)?;
    inbox.truncate(n);
    Ok(inbox)
}

fn stored_raster(row: &Row, col: usize) -> Result<Arc<StoredRaster>> {
    match row.get(col)? {
        Value::Raster(RasterValue::Stored(sr)) => Ok(sr),
        other => Err(ExecError::Type { expected: "stored raster", got: other.kind().to_string() }),
    }
}

/// **Q2** — "Select all raster images corresponding to a particular
/// satellite channel, clip each image by a fixed polygon, and sort the
/// results by date."
pub fn q2(db: &Paradise, channel: i64, clip: &Polygon) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let raster = db.table("raster")?;
    let per_node = run_phase(db.cluster(), &mut m, "scan + clip rasters", |node| {
        let mut rows = Vec::new();
        raster.scan_fragment(db.cluster(), node, |_, row| {
            if row.int(RASTER_CHANNEL)? != channel {
                return Ok(());
            }
            let sr = stored_raster(row, RASTER_DATA)?;
            if let Some((clipped, _)) = raster_store::clip_stored(db.cluster(), node, &sr, clip)? {
                rows.push(Tuple::new(vec![
                    row.get(RASTER_DATE)?,
                    Value::Raster(RasterValue::Mem(Arc::new(clipped))),
                ]));
            }
            Ok(())
        })?;
        Ok(rows)
    })?;
    let rows = collect_rows(db, per_node)?;
    let rows = run_sequential(&mut m, || sort_by_col(rows, 0))?;
    Ok(finish(db, net0, m, &["date", "clip"], rows, t0))
}

/// **Q3** — "Select all the raster images for a particular date, clipping
/// each image by a constant polygon. Average the pixel values of the
/// clipped images to produce a single result image."
///
/// With `declustered_rasters = false` this is the paper's sequential plan:
/// an average operator on node 0 *pulls* the clip-region tiles of every
/// matching image (§3.5). With `true`, every node averages the tiles it
/// stores locally and the coordinator merges partial sums — the §2.6
/// "decluster the image" plan.
pub fn q3(
    db: &Paradise,
    date: Date,
    clip: &Polygon,
    declustered_rasters: bool,
) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let raster = db.table("raster")?;

    // Locate the matching rasters (metadata only — cheap).
    let located = run_phase(db.cluster(), &mut m, "locate rasters", |node| {
        let mut srs: Vec<Arc<StoredRaster>> = Vec::new();
        raster.scan_fragment(db.cluster(), node, |_, row| {
            if row.date(RASTER_DATE)? == date {
                srs.push(stored_raster(row, RASTER_DATA)?);
            }
            Ok(())
        })?;
        Ok(srs)
    })?;
    let srs: Vec<Arc<StoredRaster>> = located.into_iter().flatten().collect();
    if srs.is_empty() {
        return Ok(finish(db, net0, m, &["average"], Vec::new(), t0));
    }

    let result: Raster = if !declustered_rasters {
        // The paper's plan: one average operator pulls everything to p0.
        run_sequential(&mut m, || {
            let mut clipped = Vec::with_capacity(srs.len());
            for sr in &srs {
                if let Some((c, _)) = raster_store::clip_stored(db.cluster(), 0, sr, clip)? {
                    clipped.push(c);
                }
            }
            let refs: Vec<&Raster> = clipped.iter().collect();
            Ok(Raster::average_of(&refs)?)
        })?
    } else {
        // Parallel plan: each node cuts the clip-region pieces of the tiles
        // it stores, shipping compact per-tile pieces; the coordinator
        // pastes the pieces — its work is proportional to the pixels
        // contributed, independent of the node count. A piece is one tuple:
        // `row0, col0, rows, cols`, then `rows × cols` pixels, all `Int`.
        let sr0 = &srs[0];
        let (w0, h0) = (sr0.width as usize, sr0.height as usize);
        let Some(win) = PixelWindow::covering(&sr0.geo, w0, h0, &clip.bbox()) else {
            return Ok(finish(db, net0, m, &["average"], Vec::new(), t0));
        };
        let [h, w] = win.shape();
        let partials = run_phase(db.cluster(), &mut m, "local partial sums", |node| {
            let mut out: Vec<Tuple> = Vec::new();
            for sr in &srs {
                for piece in sr.scheme()?.pieces(&win.lo(), &win.shape())? {
                    let tile_ref = &sr.tiles[piece.tile];
                    if tile_ref.node as usize != node {
                        continue; // another node owns this tile
                    }
                    let bytes = db.cluster().fetch_tile(node, tile_ref)?;
                    let tile = paradise_array::NdArray::new(
                        piece.tile_shape.clone(),
                        sr.depth.elem_type(),
                        bytes,
                    )?;
                    let part = tile.subarray(&piece.in_tile, &piece.shape)?;
                    let header =
                        [piece.in_region[0], piece.in_region[1], piece.shape[0], piece.shape[1]];
                    let mut values: Vec<Value> =
                        header.iter().map(|&v| Value::Int(v as i64)).collect();
                    values.extend(
                        (0..part.num_elems()).map(|i| Value::Int(part.get_linear(i) as i64)),
                    );
                    out.push(Tuple::new(values));
                }
            }
            Ok(out)
        })?;
        let pieces = collect_rows(db, partials)?;
        run_sequential(&mut m, || {
            let mut sums = vec![0u64; h * w];
            let mut counts = vec![0u32; h * w];
            for piece in &pieces {
                let int = |i: usize| -> Result<usize> { Ok(piece.get(i)?.as_int()? as usize) };
                let (row0, col0, rows, cols) = (int(0)?, int(1)?, int(2)?, int(3)?);
                for pr in 0..rows {
                    for pc in 0..cols {
                        let off = (row0 + pr) * w + col0 + pc;
                        sums[off] += int(4 + pr * cols + pc)? as u64;
                        counts[off] += 1;
                    }
                }
            }
            let mut out = Raster::new(w, h, sr0.depth, win.geo(&sr0.geo, w0, h0))?;
            for row in 0..h {
                for col in 0..w {
                    let off = row * w + col;
                    let n = u64::from(counts[off]);
                    out.set_pixel(col, row, sums[off].checked_div(n).unwrap_or(0) as u32)?;
                }
            }
            Ok(out)
        })?
    };

    let rows = vec![Tuple::new(vec![Value::Raster(RasterValue::Mem(Arc::new(result)))])];
    Ok(finish(db, net0, m, &["average"], rows, t0))
}

/// **Q4** — select one raster by date + channel, clip, `lower_res(8)`, and
/// insert the result into a permanent relation (copy-on-insert of the new
/// large attribute, §2.5.2).
pub fn q4(
    db: &Paradise,
    date: Date,
    channel: i64,
    clip: &Polygon,
    factor: usize,
) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let raster = db.table("raster")?;
    let per_node = run_phase(db.cluster(), &mut m, "select + clip + lower_res", |node| {
        let mut rows = Vec::new();
        raster.scan_fragment(db.cluster(), node, |_, row| {
            if row.date(RASTER_DATE)? != date || row.int(RASTER_CHANNEL)? != channel {
                return Ok(());
            }
            let sr = stored_raster(row, RASTER_DATA)?;
            if let Some((clipped, _)) = raster_store::clip_stored(db.cluster(), node, &sr, clip)? {
                let low = clipped.lower_res(factor)?;
                rows.push(Tuple::new(vec![
                    Value::Date(date),
                    Value::Int(channel),
                    Value::Raster(RasterValue::Mem(Arc::new(low))),
                ]));
            }
            Ok(())
        })?;
        Ok(rows)
    })?;
    let rows = collect_rows(db, per_node)?;
    // Copy-on-insert into a permanent result relation, then clean it up.
    let result_table = paradise_exec::TableDef::new(
        &db.cluster().fresh_temp_name("q4_result"),
        db.table("raster")?.schema.clone(),
        paradise_exec::Decluster::RoundRobin,
    );
    let loaded = run_sequential(&mut m, || {
        result_table.load(db.cluster(), rows.iter().cloned())?;
        Ok(())
    });
    // Dropped whether or not the load succeeded.
    loaded.and(result_table.drop_table(db.cluster()))?;
    Ok(finish(db, net0, m, &["date", "channel", "lowres"], rows, t0))
}

/// **Q5** — "Select one city based on the city's name" (B+-tree probe).
pub fn q5(db: &Paradise, name: &str) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let pp = db.table("populatedPlaces")?;
    let per_node = run_phase(db.cluster(), &mut m, "index probe", |node| {
        pp.btree_probe(db.cluster(), node, PP_NAME, &Value::Str(name.to_string()))
    })?;
    let rows = collect_rows(db, per_node)?;
    Ok(finish(db, net0, m, &["id", "containing_face", "type", "location", "name"], rows, t0))
}

/// Reference-point duplicate elimination for replicated spatial tuples: a
/// replica participates on the node owning the tile of `probe ∩ bbox`'s
/// lower-left corner.
fn owns_ref_point(
    db: &Paradise,
    node: NodeId,
    a: &paradise_geom::Rect,
    b: &paradise_geom::Rect,
) -> bool {
    match a.intersection(b) {
        Some(ix) => {
            let tile = db.cluster().grid().tile_of_point(&ix.lo);
            db.cluster().node_for_tile(tile) == node
        }
        None => false,
    }
}

/// **Q6** — "Locate all polygons which overlap a particular geographical
/// region and insert the result into a permanent relation" (spatial
/// selection through the R*-tree).
pub fn q6(db: &Paradise, region: &Polygon) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let lc = db.table("landCover")?;
    let bbox = region.bbox();
    let per_node = run_phase(db.cluster(), &mut m, "spatial index selection", |node| {
        let idx = lc.rtree_index(db.cluster(), node, LC_SHAPE)?;
        let mut rows = Vec::new();
        for (rect, packed) in idx.search(&bbox) {
            // Replicated polygons: only the reference-point owner reports.
            if !owns_ref_point(db, node, &rect, &bbox) {
                continue;
            }
            let t = lc.read_tuple(db.cluster(), node, unpack_oid(packed))?;
            let shape = t.get(LC_SHAPE)?.as_shape()?;
            if shape.overlaps(&Shape::Polygon(region.clone())) {
                rows.push(t);
            }
        }
        Ok(rows)
    })?;
    let rows = collect_rows(db, per_node)?;
    // Insert into a permanent relation (then drop — benchmark hygiene).
    let result_table = paradise_exec::TableDef::new(
        &db.cluster().fresh_temp_name("q6_result"),
        lc.schema.clone(),
        paradise_exec::Decluster::RoundRobin,
    );
    let loaded = run_sequential(&mut m, || {
        result_table.load(db.cluster(), rows.iter().cloned())?;
        Ok(())
    });
    // Dropped whether or not the load succeeded.
    loaded.and(result_table.drop_table(db.cluster()))?;
    Ok(finish(db, net0, m, &["id", "type", "shape"], rows, t0))
}

/// **Q7** — polygons within a radius of a point with a bounded area
/// (combined spatial + non-spatial selection).
pub fn q7(db: &Paradise, center: Point, radius: f64, max_area: f64) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let lc = db.table("landCover")?;
    let circle = Circle::new(center, radius).map_err(ExecError::Geom)?;
    let bbox = circle.bbox();
    let per_node = run_phase(db.cluster(), &mut m, "circle selection", |node| {
        let idx = lc.rtree_index(db.cluster(), node, LC_SHAPE)?;
        let mut rows = Vec::new();
        for (rect, packed) in idx.search(&bbox) {
            if !owns_ref_point(db, node, &rect, &bbox) {
                continue;
            }
            let t = lc.read_tuple(db.cluster(), node, unpack_oid(packed))?;
            let Shape::Polygon(poly) = t.get(LC_SHAPE)?.as_shape()? else {
                continue;
            };
            if poly.within_circle(&circle) && poly.area() < max_area {
                rows.push(Tuple::new(vec![Value::Float(poly.area()), t.get(LC_TYPE)?.clone()]));
            }
        }
        Ok(rows)
    })?;
    let rows = collect_rows(db, per_node)?;
    Ok(finish(db, net0, m, &["area", "type"], rows, t0))
}

/// **Q8** — "Find all polygons which are nearby any city named Louisville"
/// (indexed nested-loops spatial join; the small outer is replicated to
/// every node, §2.4).
pub fn q8(db: &Paradise, city_name: &str, box_len: f64) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let pp = db.table("populatedPlaces")?;
    let lc = db.table("landCover")?;
    // Outer: the named cities (tiny), via the name index.
    let cities = run_phase(db.cluster(), &mut m, "select cities", |node| {
        pp.btree_probe(db.cluster(), node, PP_NAME, &Value::Str(city_name.to_string()))
    })?;
    let cities = collect_rows(db, cities)?;
    let boxes: Vec<Tuple> = run_sequential(&mut m, || {
        let mut out = Vec::new();
        for t in &cities {
            let p = t
                .get(PP_LOC)?
                .as_shape()?
                .as_point()
                .ok_or(ExecError::Type { expected: "point", got: "shape".into() })?;
            out.push(Tuple::new(vec![Value::from(Shape::Rect(p.make_box(box_len)))]));
        }
        Ok(out)
    })?;
    let boxes = broadcast(db, boxes)?;
    let per_node = run_phase(db.cluster(), &mut m, "indexed NL spatial join", |node| {
        let idx = lc.rtree_index(db.cluster(), node, LC_SHAPE)?;
        let mut rows = Vec::new();
        for t in &boxes[node] {
            let Shape::Rect(b) = t.get(0)?.as_shape()? else {
                return Err(ExecError::Type { expected: "box", got: "shape".into() });
            };
            for (rect, packed) in idx.search(b) {
                if !owns_ref_point(db, node, &rect, b) {
                    continue;
                }
                let t = lc.read_tuple(db.cluster(), node, unpack_oid(packed))?;
                let shape = t.get(LC_SHAPE)?.as_shape()?;
                if shape.overlaps(&Shape::Rect(*b)) {
                    rows.push(Tuple::new(vec![t.get(LC_SHAPE)?.clone(), t.get(LC_TYPE)?.clone()]));
                }
            }
        }
        Ok(rows)
    })?;
    let rows = collect_rows(db, per_node)?;
    Ok(finish(db, net0, m, &["shape", "type"], rows, t0))
}

/// Selects the oil-field polygons, de-duplicates the spatial replicas at
/// the query coordinator and broadcasts them to every node (shared by
/// Q9/Q14). Returns each node's copy, one `[shape]` tuple per polygon.
fn broadcast_oil_polygons(
    db: &Paradise,
    m: &mut QueryMetrics,
    oil_type: i64,
) -> Result<Vec<Vec<Tuple>>> {
    let lc = db.table("landCover")?;
    let per_node = run_phase(db.cluster(), m, "select oil fields", |node| {
        let mut out = Vec::new();
        lc.scan_fragment(db.cluster(), node, |_, row| {
            if row.int(LC_TYPE)? != oil_type {
                return Ok(());
            }
            let shape = row.get(LC_SHAPE)?;
            if matches!(shape.as_shape()?, Shape::Polygon(_)) {
                out.push(Tuple::new(vec![row.get(LC_ID)?, shape]));
            }
            Ok(())
        })?;
        Ok(out)
    })?;
    let fields = collect_rows(db, per_node)?;
    let polys = run_sequential(m, || {
        let mut seen = std::collections::HashSet::new();
        let mut polys = Vec::new();
        for mut t in fields {
            if seen.insert(t.get(0)?.as_str()?.to_string()) {
                polys.push(Tuple::new(vec![t.values.swap_remove(1)]));
            }
        }
        Ok(polys)
    })?;
    broadcast(db, polys)
}

/// **Q9** — clip one raster (date + channel) by every oil-field polygon:
/// "the polygons are sent to all the nodes … all the processing for the
/// query is done at the node that holds the selected raster."
pub fn q9(db: &Paradise, date: Date, channel: i64, oil_type: i64) -> Result<QueryResult> {
    q9_q14_impl(db, (date, date), channel, oil_type)
}

/// **Q14** — like Q9 over a date *range* (a year of rasters), so the
/// clipping parallelises across the nodes holding the selected rasters.
pub fn q14(
    db: &Paradise,
    date_lo: Date,
    date_hi: Date,
    channel: i64,
    oil_type: i64,
) -> Result<QueryResult> {
    q9_q14_impl(db, (date_lo, date_hi), channel, oil_type)
}

/// Q9 and Q14: clip every `channel` raster dated within the inclusive
/// range `lo..=hi` by every oil-field polygon.
fn q9_q14_impl(
    db: &Paradise,
    (lo, hi): (Date, Date),
    channel: i64,
    oil_type: i64,
) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let raster = db.table("raster")?;
    let polys = broadcast_oil_polygons(db, &mut m, oil_type)?;
    let per_node = run_phase(db.cluster(), &mut m, "clip rasters by polygons", |node| {
        let mut rows = Vec::new();
        raster.scan_fragment(db.cluster(), node, |_, row| {
            if row.int(RASTER_CHANNEL)? != channel {
                return Ok(());
            }
            if !(lo..=hi).contains(&row.date(RASTER_DATE)?) {
                return Ok(());
            }
            let sr = stored_raster(row, RASTER_DATA)?;
            for poly in &polys[node] {
                let shape = poly.get(0)?;
                let Shape::Polygon(p) = shape.as_shape()? else {
                    return Err(ExecError::Type { expected: "polygon", got: "shape".into() });
                };
                if let Some((clipped, _)) = raster_store::clip_stored(db.cluster(), node, &sr, p)? {
                    rows.push(Tuple::new(vec![
                        shape.clone(),
                        Value::Raster(RasterValue::Mem(Arc::new(clipped))),
                    ]));
                }
            }
            Ok(())
        })?;
        Ok(rows)
    })?;
    let rows = collect_rows(db, per_node)?;
    Ok(finish(db, net0, m, &["shape", "clip"], rows, t0))
}

/// **Q10** — rasters whose average pixel value over a region exceeds a
/// constant: the clipped raster is a new large attribute created during
/// predicate evaluation, stored in an operator-scoped file that disappears
/// when the operator completes (§2.5.2).
pub fn q10(db: &Paradise, clip: &Polygon, threshold: f64) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let raster = db.table("raster")?;
    let op_file = db.cluster().fresh_temp_name("q10_op");
    let per_node = run_phase(db.cluster(), &mut m, "clip + average predicate", |node| {
        // Operator-scoped large-object file for the clipped rasters.
        let file = db.cluster().node(node).store.create_file(&op_file)?;
        let mut rows = Vec::new();
        raster.scan_fragment(db.cluster(), node, |_, row| {
            let sr = stored_raster(row, RASTER_DATA)?;
            let Some((clipped, _)) = raster_store::clip_stored(db.cluster(), node, &sr, clip)?
            else {
                return Ok(());
            };
            // Materialise the predicate's large attribute into the
            // operator-scoped file, as Paradise does.
            file.insert(clipped.array().data())?;
            if clipped.average().unwrap_or(0.0) > threshold {
                rows.push(Tuple::new(vec![
                    row.get(RASTER_DATE)?,
                    row.get(RASTER_CHANNEL)?,
                    Value::Raster(RasterValue::Mem(Arc::new(clipped))),
                ]));
            }
            Ok(())
        })?;
        Ok(rows)
    });
    // The operator has completed or failed: either way its file (and all
    // its extents) go away on every node.
    let mut dropped = Ok(());
    for n in db.cluster().nodes() {
        dropped = dropped.and(n.store.drop_entry(&op_file));
    }
    let per_node = per_node?;
    dropped?;
    let rows = collect_rows(db, per_node)?;
    Ok(finish(db, net0, m, &["date", "channel", "clip"], rows, t0))
}

/// **Q11** — "Find the closest road of each type to a given point": a
/// spatial aggregate evaluated with the extensible two-phase scheme — the
/// local function keeps the per-type minimum on each node, the global
/// function merges the partials (sequential tail, §2.4/§3.3).
pub fn q11(db: &Paradise, point: Point) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let roads = db.table("roads")?;
    // Phase 1: local "closest" aggregate per road type; each partial leaves
    // for the QC as the road tuple plus its `Float` distance. Each row is
    // tested on its type and in-place shape distance; only a row that beats
    // its type's best so far (strict `<`: the first in scan order wins a
    // tie) is decoded.
    let partials = run_phase(db.cluster(), &mut m, "local closest per type", |node| {
        let mut best: std::collections::BTreeMap<i64, (f64, Tuple)> =
            std::collections::BTreeMap::new();
        roads.scan_fragment(db.cluster(), node, |_, row| {
            let ty = row.int(LINE_TYPE)?;
            let d = row.shape(LINE_SHAPE)?.distance_to_point(&point);
            let replace = best.get(&ty).is_none_or(|(bd, _)| d < *bd);
            if replace {
                best.insert(ty, (d, row.to_tuple()?));
            }
            Ok(())
        })?;
        Ok(best
            .into_values()
            .map(|(d, mut t)| {
                t.values.push(Value::Float(d));
                t
            })
            .collect::<Vec<_>>())
    })?;
    let partials = collect_rows(db, partials)?;
    // Phase 2: the single global aggregate operator.
    let rows = run_sequential(&mut m, || {
        let mut merged: std::collections::HashMap<i64, (f64, Tuple)> =
            std::collections::HashMap::new();
        for mut t in partials {
            let d = t.values.pop().ok_or(ExecError::Codec("empty closest partial"))?.as_float()?;
            let ty = t.get(LINE_TYPE)?.as_int()?;
            let replace = merged.get(&ty).is_none_or(|(bd, _)| d < *bd);
            if replace {
                merged.insert(ty, (d, t));
            }
        }
        let mut types: Vec<i64> = merged.keys().copied().collect();
        types.sort_unstable();
        Ok(types
            .into_iter()
            .map(|ty| {
                let (d, t) = merged.remove(&ty).expect("present");
                Tuple::new(vec![t.values[LINE_SHAPE].clone(), Value::Int(ty), Value::Float(d)])
            })
            .collect::<Vec<_>>())
    })?;
    Ok(finish(db, net0, m, &["closest", "type", "distance"], rows, t0))
}

/// **Q12** — "Find the closest drainage feature to every large city": the
/// full Figure 3.1 plan (on-the-fly local R*-trees, spatial semi-join,
/// join-with-aggregate with expanding circles, sequential global
/// aggregate). `use_semi_join = false` ablates the semi-join.
pub fn q12(db: &Paradise, large_city_type: i64, use_semi_join: bool) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let pp = db.table("populatedPlaces")?;
    let drainage = db.table("drainage")?;
    // Select the large cities from the (spatially declustered) places.
    let cities = run_phase(db.cluster(), &mut m, "select large cities", |node| {
        let mut out = Vec::new();
        pp.scan_fragment(db.cluster(), node, |_, row| {
            if row.int(PP_TYPE)? == large_city_type {
                out.push(row.to_tuple()?);
            }
            Ok(())
        })?;
        Ok(out)
    })?;
    let results: Vec<ClosestResult> =
        closest_join(db.cluster(), &mut m, drainage, LINE_SHAPE, cities, PP_LOC, use_semi_join)?;
    let rows = results
        .into_iter()
        .map(|r| {
            Tuple::new(vec![
                r.inner.values[LINE_SHAPE].clone(),
                r.outer.values[PP_LOC].clone(),
                Value::Float(r.distance),
            ])
        })
        .collect();
    Ok(finish(db, net0, m, &["closest", "location", "distance"], rows, t0))
}

/// **Q13** — "Find all drainage features which cross a road": the parallel
/// spatial join (tile repartitioning was done at load time — both tables
/// are spatially declustered on the shared grid — so only the local PBSM
/// phase runs, with reference-point duplicate elimination).
pub fn q13(db: &Paradise) -> Result<QueryResult> {
    let t0 = Instant::now();
    let mut m = QueryMetrics::default();
    let net0 = db.cluster().net.snapshot();
    let drainage = db.table("drainage")?;
    let roads = db.table("roads")?;
    let per_node =
        parallel_spatial_join(db.cluster(), &mut m, drainage, LINE_SHAPE, roads, LINE_SHAPE)?;
    let rows = collect_rows(db, per_node)?;
    Ok(finish(db, net0, m, &["d_id", "d_type", "d_shape", "r_id", "r_type", "r_shape"], rows, t0))
}

/// Variant of Q2/Q3 used by the §3.5 declustered-raster experiment: Q3
/// with the clip region widened to the whole raster ("Query 3'").
pub fn q3_prime(db: &Paradise, date: Date, declustered_rasters: bool) -> Result<QueryResult> {
    let whole = Polygon::from_rect(&db.cluster().grid().universe());
    q3(db, date, &whole, declustered_rasters)
}
