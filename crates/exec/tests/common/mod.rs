//! The brute-force PBSM reference the join tests compare against.

use paradise_exec::cluster::Cluster;
use paradise_exec::ops::basic::concat;
use paradise_exec::{NodeId, Tuple};
use paradise_geom::{Rect, TileId};
use std::collections::BTreeMap;

/// The PBSM join without the plane sweep: for every tile `node` owns, in
/// ascending order, every left × right pair whose bounding boxes both
/// cover the tile (in input order), kept when the boxes intersect, the
/// intersection's lower-left corner lies in that tile and the shapes
/// overlap. Returns `left ++ right` rows.
pub fn local_tile_join_quadratic(
    cluster: &Cluster,
    node: NodeId,
    left: &[Tuple],
    lcol: usize,
    right: &[Tuple],
    rcol: usize,
) -> Vec<Tuple> {
    let grid = cluster.grid();
    let bbox = |t: &Tuple, col: usize| -> Rect { t.get(col).unwrap().as_shape().unwrap().bbox() };
    let buckets = |tuples: &[Tuple], col: usize| {
        let mut by_tile: BTreeMap<TileId, Vec<usize>> = BTreeMap::new();
        for (i, t) in tuples.iter().enumerate() {
            for tile in grid.tile_ids_for_rect(&bbox(t, col)) {
                if cluster.node_for_tile(tile) == node {
                    by_tile.entry(tile).or_default().push(i);
                }
            }
        }
        by_tile
    };
    let (lbuckets, rbuckets) = (buckets(left, lcol), buckets(right, rcol));
    let mut out = Vec::new();
    for (tile, lids) in &lbuckets {
        let Some(rids) = rbuckets.get(tile) else { continue };
        for &li in lids {
            for &ri in rids {
                let Some(ix) = bbox(&left[li], lcol).intersection(&bbox(&right[ri], rcol)) else {
                    continue;
                };
                let (ls, rs) = (left[li].get(lcol).unwrap(), right[ri].get(rcol).unwrap());
                if grid.tile_of_point(&ix.lo) == *tile
                    && ls.as_shape().unwrap().overlaps(rs.as_shape().unwrap())
                {
                    out.push(concat(&left[li], &right[ri]));
                }
            }
        }
    }
    out
}
