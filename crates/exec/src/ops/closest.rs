//! The `closest` spatial aggregate and the spatial join-with-aggregate of
//! Figure 3.1 (paper §2.7.3, §3.1.2 / benchmark Q11, Q12).

use crate::cluster::Cluster;
use crate::metrics::QueryMetrics;
use crate::phase::{exchange, run_phase, run_sequential, Outbox};
use crate::table::TableDef;
use crate::tuple::{Records, Tuple};
use crate::value::Value;
use crate::{ExecError, Result};
use paradise_geom::{Circle, Point, Rect};
use paradise_storage::RTree;
use std::sync::Arc;

/// Finds the entry of `rtree` closest to `point` by *exact* shape distance
/// (`dist(payload)`), using the paper's expanding-circle probe: start with
/// a circle whose area is a millionth of the universe, double the area
/// until the probe returns candidates, then verify with one final probe at
/// the best exact distance (a candidate's true shape can lie farther than
/// its bounding box). Falls back to a full scan over `all_payloads` when
/// the circle outgrows the universe.
pub fn expanding_circle_closest(
    rtree: &RTree,
    point: &Point,
    universe: &Rect,
    mut dist: impl FnMut(u64) -> Result<f64>,
    all_payloads: impl Fn() -> Vec<u64>,
) -> Result<Option<(u64, f64)>> {
    if rtree.is_empty() {
        // "the index scan is changed to a file scan"
        return full_scan_closest(all_payloads(), dist);
    }
    let start_area = universe.area() / 1_000_000.0;
    let mut circle = Circle::new(*point, (start_area / std::f64::consts::PI).sqrt().max(1e-12))
        .expect("valid probe circle");
    let max_radius = universe.width().hypot(universe.height());
    loop {
        let candidates = rtree.search_circle(&circle);
        if !candidates.is_empty() {
            // Exact-distance refinement over this candidate set.
            let mut best: Option<(u64, f64)> = None;
            for (_, payload) in &candidates {
                let d = dist(*payload)?;
                if best.as_ref().is_none_or(|(_, bd)| d < *bd) {
                    best = Some((*payload, d));
                }
            }
            let (bp, bd) = best.expect("non-empty candidates");
            if bd <= circle.radius {
                return Ok(Some((bp, bd)));
            }
            // The nearest candidate's true distance exceeds the probe
            // radius: a closer shape may exist outside the circle. Re-probe
            // at the verified distance.
            let verify = Circle::new(*point, bd).expect("valid radius");
            let mut best = (bp, bd);
            for (_, payload) in rtree.search_circle(&verify) {
                let d = dist(payload)?;
                if d < best.1 {
                    best = (payload, d);
                }
            }
            return Ok(Some(best));
        }
        if circle.radius > max_radius {
            return full_scan_closest(all_payloads(), dist);
        }
        // "forms a new circle, which is twice the area of the previous"
        circle = circle.scale_area(2.0);
    }
}

fn full_scan_closest(
    payloads: Vec<u64>,
    mut dist: impl FnMut(u64) -> Result<f64>,
) -> Result<Option<(u64, f64)>> {
    let mut best: Option<(u64, f64)> = None;
    for p in payloads {
        let d = dist(p)?;
        if best.as_ref().is_none_or(|(_, bd)| d < *bd) {
            best = Some((p, d));
        }
    }
    Ok(best)
}

/// The spatial semi-join test (Figure 3.1): form the largest circle around
/// the point completely contained in the point's grid tile; if a local
/// feature provably lies inside that circle, the closest feature is local
/// and the point need not be broadcast.
///
/// The R-tree probe is only a bounding-box filter; the guarantee requires
/// an *exact* feature within the circle (everything outside the tile is at
/// least `circle.radius` away), so candidates are refined with `dist`.
pub fn semi_join_is_local(
    cluster: &Cluster,
    rtree: &RTree,
    point: &Point,
    mut dist: impl FnMut(u64) -> Result<f64>,
) -> Result<bool> {
    let tile = cluster.grid().tile_of_point(point);
    let tile_rect = cluster.grid().tile_rect(tile);
    match Circle::largest_inscribed(*point, &tile_rect) {
        Some(c) if c.radius > 0.0 => {
            for (_, payload) in rtree.search_circle(&c) {
                if dist(payload)? <= c.radius {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        _ => Ok(false),
    }
}

/// One result row of a closest join.
#[derive(Debug, Clone)]
pub struct ClosestResult {
    /// The outer (point) tuple.
    pub outer: Tuple,
    /// The closest inner tuple.
    pub inner: Tuple,
    /// Their distance.
    pub distance: f64,
}

/// The parallel spatial join-with-aggregate of Figure 3.1 (benchmark Q12):
/// finds, for every outer point, the closest inner feature.
///
/// * `inner` must be spatially declustered; each node builds an on-the-fly
///   R*-tree over its fragment (step 3 of the paper's walk-through).
/// * `outer_pts[node]` holds the (already spatially declustered) point
///   tuples of each node; `outer_col` is the point column.
/// * With `use_semi_join = false` every point is broadcast to all nodes
///   (the ablation of the semi-join optimisation).
///
/// The final global-aggregate step is sequential, exactly as in the paper
/// ("this operator represents a sequential portion of the query execution,
/// and hurts the speedup and scaleup somewhat").
pub fn closest_join(
    cluster: &Arc<Cluster>,
    metrics: &mut QueryMetrics,
    inner: Arc<TableDef>,
    inner_col: usize,
    outer_pts: Vec<Vec<Tuple>>,
    outer_col: usize,
    use_semi_join: bool,
) -> Result<Vec<ClosestResult>> {
    // Step 3: per-node on-the-fly index over the inner fragments. The scan
    // reads only each row's bounding box and keeps the encoded record (a
    // record's index is its R*-tree payload);
    // candidates' distances are computed in place, and only matches are
    // decoded.
    let inner_arity = inner.schema.len();
    let c = cluster.clone();
    let built: Arc<Vec<(Records, RTree)>> =
        Arc::new(run_phase(cluster, metrics, "build local index", move |node| {
            let mut frag = Records::default();
            let mut entries: Vec<(Rect, u64)> = Vec::new();
            inner.scan_fragment(&c, node, |_, row| {
                entries.push((row.shape(inner_col)?.bbox(), entries.len() as u64));
                frag.push(row.as_bytes());
                Ok(())
            })?;
            let mut tree = RTree::bulk_load(entries);
            tree.set_visit_counter(c.obs().counter("rtree.node_visits"));
            Ok((frag, tree))
        })?);

    // Step 4a: spatial semi-join routes each point (Figure 3.1 lower half).
    let (c, local) = (cluster.clone(), built.clone());
    let outer_pts = Arc::new(outer_pts);
    let outbox = run_phase(cluster, metrics, "spatial semi-join", move |node| {
        let (frag, tree) = &local[node];
        let mut msgs = Outbox::default();
        for t in &outer_pts[node] {
            let p = t.get(outer_col)?.as_shape()?.as_point().ok_or(crate::ExecError::Type {
                expected: "point",
                got: "non-point shape".into(),
            })?;
            let local = use_semi_join
                && semi_join_is_local(&c, tree, &p, |payload| {
                    distance(frag, payload, inner_col, &p)
                })?;
            if local {
                msgs.push(node, t.clone());
            } else {
                // Replicate to every node: the closest feature could be
                // anywhere (Figure 2.5's Madison case).
                for dest in 0..c.num_nodes() {
                    msgs.push(dest, t.clone());
                }
            }
        }
        Ok(msgs)
    })?;
    let inbox = Arc::new(exchange(cluster, metrics, "route to nodes", outbox)?);

    // Step 4b: join-with-aggregate per node (expanding circle probes). Each
    // match leaves for the QC as one (outer, inner, distance) row.
    let qc = cluster.coordinator_id();
    let c = cluster.clone();
    let per_node = run_phase(cluster, metrics, "join with aggregate", move |node| {
        let (frag, tree) = &built[node];
        let mut out = Vec::new();
        for t in &inbox[node] {
            let p = t.get(outer_col)?.as_shape()?.as_point().expect("checked");
            let found = expanding_circle_closest(
                tree,
                &p,
                &c.grid().universe(),
                |payload| distance(frag, payload, inner_col, &p),
                || (0..frag.len() as u64).collect(),
            )?;
            if let Some((payload, d)) = found {
                let mut row = t.values.clone();
                row.extend(frag.row(payload as usize)?.to_tuple()?.values);
                row.push(Value::Float(d));
                out.push(Tuple::new(row));
            }
        }
        Ok(Outbox::to(qc, out))
    })?;

    let rows = exchange(cluster, metrics, "gather", per_node)?.swap_remove(qc);

    // Final sequential global aggregate: min distance per outer point.
    run_sequential(metrics, || {
        use std::collections::HashMap;
        let mut best: HashMap<Vec<u8>, ClosestResult> = HashMap::new();
        for mut outer in rows {
            let d = outer.values.pop().ok_or(ExecError::Codec("empty closest row"))?.as_float()?;
            let split = outer
                .values
                .len()
                .checked_sub(inner_arity)
                .ok_or(ExecError::Codec("short closest row"))?;
            let inner = Tuple::new(outer.values.split_off(split));
            let key = outer.encode();
            let replace = best.get(&key).is_none_or(|r| d < r.distance);
            if replace {
                best.insert(key, ClosestResult { outer, inner, distance: d });
            }
        }
        let mut out: Vec<ClosestResult> = best.into_values().collect();
        out.sort_by_key(|a| a.outer.encode());
        Ok(out)
    })
}

/// Exact distance from record `payload`'s shape column to `p`, read in
/// place.
fn distance(frag: &Records, payload: u64, col: usize, p: &Point) -> Result<f64> {
    Ok(frag.row(payload as usize)?.shape(col)?.distance_to_point(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::decluster::Decluster;
    use crate::schema::{DataType, Field, Schema};
    use crate::value::Value;
    use paradise_geom::{Polyline, Shape};

    fn cluster(n: usize, tag: &str) -> Arc<Cluster> {
        Arc::new(Cluster::create(&ClusterConfig::for_test(n, tag)).unwrap())
    }

    fn seg_table(name: &str) -> Arc<TableDef> {
        Arc::new(TableDef::new(
            name,
            Schema::new(vec![
                Field::new("id", DataType::Str),
                Field::new("shape", DataType::Polyline),
            ]),
            Decluster::Spatial { col: 1 },
        ))
    }

    fn seg(id: &str, x0: f64, y0: f64, x1: f64, y1: f64) -> Tuple {
        Tuple::new(vec![
            Value::Str(id.into()),
            Value::from(Shape::Polyline(
                Polyline::new(vec![Point::new(x0, y0), Point::new(x1, y1)]).unwrap(),
            )),
        ])
    }

    fn pt(id: &str, x: f64, y: f64) -> Tuple {
        Tuple::new(vec![Value::Str(id.into()), Value::from(Shape::Point(Point::new(x, y)))])
    }

    /// Deterministic drainage segments spread over the world.
    fn world_segments(n: usize) -> Vec<Tuple> {
        let mut x: u64 = 7;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 3200) as f64 / 10.0 - 160.0
        };
        (0..n)
            .map(|i| {
                let (a, b) = (next(), next() * 0.5);
                seg(&format!("s{i}"), a, b, a + 3.0, b + 2.0)
            })
            .collect()
    }

    fn brute_closest(segments: &[Tuple], p: &Point) -> (String, f64) {
        let mut best = (String::new(), f64::INFINITY);
        for s in segments {
            let d = s.get(1).unwrap().as_shape().unwrap().distance_to_point(p);
            if d < best.1 {
                best = (s.get(0).unwrap().as_str().unwrap().to_string(), d);
            }
        }
        best
    }

    #[test]
    fn expanding_circle_matches_brute_force() {
        let segs = world_segments(200);
        let entries: Vec<(Rect, u64)> = segs
            .iter()
            .enumerate()
            .map(|(i, t)| (t.get(1).unwrap().as_shape().unwrap().bbox(), i as u64))
            .collect();
        let tree = RTree::bulk_load(entries);
        let universe =
            Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0)).unwrap();
        for probe in [Point::new(0.0, 0.0), Point::new(-170.0, 80.0), Point::new(42.0, -33.0)] {
            let got = expanding_circle_closest(
                &tree,
                &probe,
                &universe,
                |i| Ok(segs[i as usize].get(1)?.as_shape()?.distance_to_point(&probe)),
                || (0..segs.len() as u64).collect(),
            )
            .unwrap()
            .unwrap();
            let want = brute_closest(&segs, &probe);
            assert!((got.1 - want.1).abs() < 1e-9, "probe {probe}: {} vs {}", got.1, want.1);
        }
    }

    #[test]
    fn expanding_circle_empty_tree_falls_back() {
        let tree = RTree::new();
        let universe = Rect::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap();
        let got = expanding_circle_closest(
            &tree,
            &Point::new(5.0, 5.0),
            &universe,
            |_| Ok(1.0),
            Vec::new,
        )
        .unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn semi_join_detects_local_candidates() {
        let c = cluster(4, "cj1");
        // A point with a feature right next to it (same tile) is local.
        let p = Point::new(10.05, 10.05);
        let tile_rect = c.grid().tile_rect(c.grid().tile_of_point(&p));
        let near = tile_rect.center();
        let tree = RTree::bulk_load(vec![(near.bbox(), 0)]);
        let probe = tile_rect.center();
        let local = semi_join_is_local(&c, &tree, &probe, |_| Ok(near.distance(&probe))).unwrap();
        assert!(local);
        // An empty local index can never prove locality.
        let empty = RTree::new();
        assert!(!semi_join_is_local(&c, &empty, &p, |_| Ok(0.0)).unwrap());
        // A bbox-only false positive must NOT count as local: the exact
        // distance exceeds the inscribed radius.
        let far = semi_join_is_local(&c, &tree, &probe, |_| Ok(1e9)).unwrap();
        assert!(!far, "exact refinement must reject far features");
    }

    #[test]
    fn closest_join_matches_brute_force() {
        let c = cluster(4, "cj2");
        let drainage = seg_table("drainage");
        let segs = world_segments(150);
        drainage.load(&c, segs.clone()).unwrap();

        let cities: Vec<Tuple> = vec![
            pt("madison", -89.4, 43.1),
            pt("quito", -78.5, -0.2),
            pt("perth", 115.9, -31.9),
            pt("reykjavik", -21.9, 64.1),
        ];
        // Decluster the cities spatially, as the paper's step 2 does.
        let mut outer: Vec<Vec<Tuple>> = vec![Vec::new(); 4];
        for t in &cities {
            let p = t.get(1).unwrap().as_shape().unwrap().as_point().unwrap();
            let node = c.node_for_tile(c.grid().tile_of_point(&p));
            outer[node].push(t.clone());
        }

        let mut m = QueryMetrics::default();
        let results = closest_join(&c, &mut m, drainage, 1, outer, 1, true).unwrap();
        assert_eq!(results.len(), 4);
        for r in &results {
            let p = r.outer.get(1).unwrap().as_shape().unwrap().as_point().unwrap();
            let (want_id, want_d) = brute_closest(&segs, &p);
            assert!(
                (r.distance - want_d).abs() < 1e-9,
                "{}: {} vs {} ({want_id})",
                r.outer.get(0).unwrap().as_str().unwrap(),
                r.distance,
                want_d
            );
        }
        // Phases recorded: index build, semi-join, join-with-aggregate.
        assert_eq!(m.phases.len(), 3);
        assert!(m.sequential > std::time::Duration::ZERO);
    }

    #[test]
    fn semi_join_reduces_broadcasts() {
        let c = cluster(4, "cj3");
        let drainage = seg_table("drainage");
        // Dense features everywhere: most points should resolve locally.
        let segs = world_segments(800);
        drainage.load(&c, segs.clone()).unwrap();
        let cities: Vec<Tuple> = (0..40)
            .map(|i| {
                pt(&format!("c{i}"), f64::from(i) * 8.0 - 160.0, f64::from(i % 9) * 16.0 - 64.0)
            })
            .collect();
        let mut outer: Vec<Vec<Tuple>> = vec![Vec::new(); 4];
        for t in &cities {
            let p = t.get(1).unwrap().as_shape().unwrap().as_point().unwrap();
            outer[c.node_for_tile(c.grid().tile_of_point(&p))].push(t.clone());
        }

        let mut m1 = QueryMetrics::default();
        let b1 = c.net.snapshot();
        let with = closest_join(&c, &mut m1, drainage.clone(), 1, outer.clone(), 1, true).unwrap();
        let traffic_with = c.net.since(b1).tuples;

        let mut m2 = QueryMetrics::default();
        let b2 = c.net.snapshot();
        let without = closest_join(&c, &mut m2, drainage, 1, outer, 1, false).unwrap();
        let traffic_without = c.net.since(b2).tuples;

        assert_eq!(with.len(), without.len());
        // Identical answers.
        for (a, b) in with.iter().zip(&without) {
            assert!((a.distance - b.distance).abs() < 1e-9);
        }
        assert!(
            traffic_with < traffic_without,
            "semi-join should cut traffic: {traffic_with} vs {traffic_without}"
        );
    }
}
