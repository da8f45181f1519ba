//! Tile-granular raster storage (paper §2.5.1, §2.6) and the pull-based
//! region fetch (§2.5.2).
//!
//! A raster is stored as one SHORE object per ~tile plus a mapping table
//! that stays inline in the tuple ([`StoredRaster`]). Tiles are LZW
//! compressed when that helps (per-tile flag). A raster's tiles normally
//! live on the node that owns the tuple; with *raster declustering* (§2.6)
//! each tile goes to the node owning the grid tile under the tile's
//! geographic center, so one image can be processed by many nodes.

use crate::cluster::{Cluster, NodeId};
use crate::value::{StoredRaster, TileRef};
use crate::Result;
use paradise_array::{lzw, NdArray, Raster, TilingScheme};
use paradise_geom::{Point, Polygon, Rect};

/// Name of the per-node heap file holding raster tile objects.
pub const TILE_FILE: &str = "__raster_tiles";

/// Target tile payload. The paper uses 128 KB; the scaled-down benchmark
/// data uses smaller rasters, so the engine takes it as a parameter.
pub const DEFAULT_TILE_BYTES: usize = 32 * 1024;

/// Stores `raster` as tiles. With `decluster = false` every tile lands on
/// `home`; with `decluster = true` tiles are spread by the geographic
/// position of each tile (§2.6).
pub fn store_raster(
    cluster: &Cluster,
    home: NodeId,
    raster: &Raster,
    decluster: bool,
    tile_bytes: usize,
) -> Result<StoredRaster> {
    let dims = [raster.height(), raster.width()];
    let scheme = TilingScheme::new(&dims, raster.depth().elem_type(), tile_bytes)?;
    let (tile_h, tile_w) = (scheme.tile_shape()[0], scheme.tile_shape()[1]);
    // Cut the raster into tile payloads (cheap memory moves), then LZW-encode
    // the whole batch on the worker pool — the codec dominates store cost.
    let mut payloads = Vec::with_capacity(scheme.num_tiles());
    for i in 0..scheme.num_tiles() {
        let (lo, shape) = scheme.tile_region(i);
        payloads.push(raster.array().subarray(&lo, &shape)?.data().to_vec());
    }
    let encoded = lzw::maybe_compress_batch(&cluster.workers(), &payloads);
    // Inserts stay serial, in tile order: object ids are handed out in
    // insertion order, so the mapping table is identical for any pool size.
    let mut tiles = Vec::with_capacity(scheme.num_tiles());
    for (i, (bytes, compressed)) in encoded.into_iter().enumerate() {
        let (lo, shape) = scheme.tile_region(i);
        let owner = if decluster {
            // Geographic center of this tile picks the node.
            let px_w = raster.geo().width() / raster.width() as f64;
            let px_h = raster.geo().height() / raster.height() as f64;
            let cx = raster.geo().lo.x + (lo[1] as f64 + shape[1] as f64 / 2.0) * px_w;
            let cy = raster.geo().hi.y - (lo[0] as f64 + shape[0] as f64 / 2.0) * px_h;
            let tile = cluster.grid().tile_of_point(&Point::new(cx, cy));
            cluster.node_for_tile(tile)
        } else {
            home
        };
        let file = cluster.node(owner).store.create_file(TILE_FILE)?;
        let oid = file.insert(&bytes)?;
        tiles.push(TileRef { node: owner as u32, oid, compressed });
    }
    Ok(StoredRaster {
        depth: raster.depth(),
        geo: raster.geo(),
        width: raster.width() as u32,
        height: raster.height() as u32,
        tile_h: tile_h as u32,
        tile_w: tile_w as u32,
        tiles,
    })
}

/// The pixel region `[row0, row1) × [col0, col1)` of `sr` covered by the
/// world rectangle `window`, snapped outward to whole pixels. `None` when
/// disjoint.
pub fn pixel_region(sr: &StoredRaster, window: &Rect) -> Option<(u32, u32, u32, u32)> {
    let region = sr.geo.intersection(window)?;
    let px_w = sr.geo.width() / f64::from(sr.width);
    let px_h = sr.geo.height() / f64::from(sr.height);
    let col0 = ((((region.lo.x - sr.geo.lo.x) / px_w).floor()) as i64)
        .clamp(0, i64::from(sr.width) - 1) as u32;
    let col1 = ((((region.hi.x - sr.geo.lo.x) / px_w).ceil()) as i64)
        .clamp(i64::from(col0) + 1, i64::from(sr.width)) as u32;
    let row0 = ((((sr.geo.hi.y - region.hi.y) / px_h).floor()) as i64)
        .clamp(0, i64::from(sr.height) - 1) as u32;
    let row1 = ((((sr.geo.hi.y - region.lo.y) / px_h).ceil()) as i64)
        .clamp(i64::from(row0) + 1, i64::from(sr.height)) as u32;
    Some((row0, row1, col0, col1))
}

/// World rectangle of a pixel region of `sr`.
pub fn geo_of_region(sr: &StoredRaster, row0: u32, row1: u32, col0: u32, col1: u32) -> Rect {
    let px_w = sr.geo.width() / f64::from(sr.width);
    let px_h = sr.geo.height() / f64::from(sr.height);
    Rect::from_corners(
        Point::new(sr.geo.lo.x + f64::from(col0) * px_w, sr.geo.hi.y - f64::from(row1) * px_h),
        Point::new(sr.geo.lo.x + f64::from(col1) * px_w, sr.geo.hi.y - f64::from(row0) * px_h),
    )
    .expect("pixel-aligned rect")
}

/// Materialises a pixel region of a stored raster, reading **only** the
/// tiles the region overlaps and pulling remote ones (§2.5.2). Returns the
/// raster and the number of tiles read.
pub fn fetch_region(
    cluster: &Cluster,
    requester: NodeId,
    sr: &StoredRaster,
    row0: u32,
    row1: u32,
    col0: u32,
    col1: u32,
) -> Result<(Raster, usize)> {
    let h = (row1 - row0) as usize;
    let w = (col1 - col0) as usize;
    let mut out = NdArray::zeros(vec![h, w], sr.depth.elem_type())?;
    let needed = sr.tiles_for_region(row0, row1, col0, col1);
    // Fetch raw tiles serially (pull accounting and failpoint order stay
    // deterministic), decompress the batch on the worker pool, then place
    // the pieces serially in tile order.
    let mut raw = Vec::with_capacity(needed.len());
    for &idx in &needed {
        let tile = &sr.tiles[idx];
        raw.push((cluster.fetch_tile_raw(requester, tile)?, tile.compressed));
    }
    let decoded = lzw::maybe_decompress_batch(&cluster.workers(), &raw)?;
    for (&idx, bytes) in needed.iter().zip(decoded) {
        let (tr0, tc0, th, tw) = sr.tile_region(idx);
        let tile = NdArray::new(vec![th as usize, tw as usize], sr.depth.elem_type(), bytes)?;
        // Intersect the tile with the requested region.
        let a_r = row0.max(tr0);
        let b_r = row1.min(tr0 + th);
        let a_c = col0.max(tc0);
        let b_c = col1.min(tc0 + tw);
        debug_assert!(a_r < b_r && a_c < b_c);
        let piece = tile.subarray(
            &[(a_r - tr0) as usize, (a_c - tc0) as usize],
            &[(b_r - a_r) as usize, (b_c - a_c) as usize],
        )?;
        out.write_subarray(&[(a_r - row0) as usize, (a_c - col0) as usize], &piece)?;
    }
    let geo = geo_of_region(sr, row0, row1, col0, col1);
    Ok((Raster::from_array(out, sr.depth, geo)?, needed.len()))
}

/// Clips a stored raster by a polygon (queries 2–4, 9, 10, 14): fetches
/// only the tiles under the polygon's bounding box, then masks pixels
/// outside the polygon. Returns `None` when the polygon misses the raster.
pub fn clip_stored(
    cluster: &Cluster,
    requester: NodeId,
    sr: &StoredRaster,
    poly: &Polygon,
) -> Result<Option<(Raster, usize)>> {
    let Some((r0, r1, c0, c1)) = pixel_region(sr, &poly.bbox()) else {
        return Ok(None);
    };
    let (region, tiles_read) = fetch_region(cluster, requester, sr, r0, r1, c0, c1)?;
    match region.clip(poly) {
        Ok(clipped) => Ok(Some((clipped, tiles_read))),
        Err(paradise_array::ArrayError::EmptyClip) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Materialises a whole stored raster.
pub fn fetch_whole(cluster: &Cluster, requester: NodeId, sr: &StoredRaster) -> Result<Raster> {
    Ok(fetch_region(cluster, requester, sr, 0, sr.height, 0, sr.width)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use paradise_array::BitDepth;

    fn world() -> Rect {
        Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0)).unwrap()
    }

    fn gradient(w: usize, h: usize) -> Raster {
        let mut r = Raster::new(w, h, BitDepth::Sixteen, world()).unwrap();
        for row in 0..h {
            for col in 0..w {
                r.set_pixel(col, row, ((row * w + col) % 60_000) as u32).unwrap();
            }
        }
        r
    }

    #[test]
    fn store_and_fetch_whole_roundtrip() {
        let cluster = Cluster::create(&ClusterConfig::for_test(2, "rs1")).unwrap();
        let r = gradient(120, 80);
        let sr = store_raster(&cluster, 0, &r, false, 2048).unwrap();
        assert!(sr.tiles.len() > 1, "should be tiled");
        // All tiles on the home node.
        assert!(sr.tiles.iter().all(|t| t.node == 0));
        let back = fetch_whole(&cluster, 0, &sr).unwrap();
        assert_eq!(back.array().data(), r.array().data());
        assert_eq!(back.geo(), r.geo());
    }

    #[test]
    fn fetch_region_reads_only_needed_tiles_and_pulls_remote() {
        let cluster = Cluster::create(&ClusterConfig::for_test(2, "rs2")).unwrap();
        let r = gradient(128, 128);
        let sr = store_raster(&cluster, 0, &r, false, 1024).unwrap();
        let total = sr.tiles.len();
        // Local fetch of a corner region: few tiles, no pulls.
        let base = cluster.net.snapshot();
        let (region, read) = fetch_region(&cluster, 0, &sr, 0, 16, 0, 16).unwrap();
        assert!(read < total / 2, "{read} of {total}");
        assert_eq!(region.pixel(3, 2).unwrap(), r.pixel(3, 2).unwrap());
        assert_eq!(cluster.net.since(base).pulls, 0, "local reads are not pulls");
        // Remote fetch from node 1 pulls.
        let base = cluster.net.snapshot();
        let _ = fetch_region(&cluster, 1, &sr, 0, 16, 0, 16).unwrap();
        let d = cluster.net.since(base);
        assert_eq!(d.pulls as usize, read);
        assert!(d.pull_bytes > 0);
    }

    #[test]
    fn declustered_raster_spreads_tiles() {
        let cluster = Cluster::create(&ClusterConfig::for_test(4, "rs3")).unwrap();
        let r = gradient(256, 128); // world-covering raster
        let sr = store_raster(&cluster, 0, &r, true, 1024).unwrap();
        let nodes: std::collections::HashSet<u32> = sr.tiles.iter().map(|t| t.node).collect();
        assert!(nodes.len() > 1, "declustered tiles should span nodes: {nodes:?}");
        // Content survives the scatter.
        let back = fetch_whole(&cluster, 0, &sr).unwrap();
        assert_eq!(back.array().data(), r.array().data());
    }

    #[test]
    fn clip_stored_by_polygon() {
        let cluster = Cluster::create(&ClusterConfig::for_test(1, "rs4")).unwrap();
        let r = gradient(360, 180); // 1 pixel per degree
        let sr = store_raster(&cluster, 0, &r, false, 4096).unwrap();
        // A rectangle roughly like the continental US (~2% of the world).
        let us = Polygon::from_rect(
            &Rect::from_corners(Point::new(-125.0, 25.0), Point::new(-67.0, 49.0)).unwrap(),
        );
        let (clipped, tiles_read) = clip_stored(&cluster, 0, &sr, &us).unwrap().unwrap();
        assert!(tiles_read < sr.tiles.len(), "clip must not read every tile");
        assert_eq!(clipped.width(), 58);
        assert_eq!(clipped.height(), 24);
        // A polygon off the raster returns None.
        let off = Polygon::from_rect(
            &Rect::from_corners(Point::new(500.0, 500.0), Point::new(600.0, 600.0)).unwrap(),
        );
        assert!(clip_stored(&cluster, 0, &sr, &off).unwrap().is_none());
    }

    #[test]
    fn pixel_region_math() {
        let cluster = Cluster::create(&ClusterConfig::for_test(1, "rs5")).unwrap();
        let r = gradient(360, 180);
        let sr = store_raster(&cluster, 0, &r, false, 1 << 20).unwrap();
        // Whole world.
        assert_eq!(pixel_region(&sr, &world()), Some((0, 180, 0, 360)));
        // One-degree box at the top-left corner.
        let tl = Rect::from_corners(Point::new(-180.0, 89.0), Point::new(-179.0, 90.0)).unwrap();
        assert_eq!(pixel_region(&sr, &tl), Some((0, 1, 0, 1)));
        // Disjoint.
        let off = Rect::from_corners(Point::new(300.0, 0.0), Point::new(310.0, 10.0)).unwrap();
        assert_eq!(pixel_region(&sr, &off), None);
        // geo roundtrip
        let g = geo_of_region(&sr, 0, 180, 0, 360);
        assert_eq!(g, world());
    }

    #[test]
    fn compression_flags_recorded_per_tile() {
        let cluster = Cluster::create(&ClusterConfig::for_test(1, "rs6")).unwrap();
        // Left half constant, right half noisy.
        let mut r = Raster::new(128, 64, BitDepth::Eight, world()).unwrap();
        let mut x: u32 = 1;
        for row in 0..64 {
            for col in 64..128 {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                r.set_pixel(col, row, x >> 24).unwrap();
            }
        }
        let sr = store_raster(&cluster, 0, &r, false, 1024).unwrap();
        let compressed = sr.tiles.iter().filter(|t| t.compressed).count();
        assert!(compressed > 0, "smooth tiles should compress");
        assert!(compressed < sr.tiles.len(), "noisy tiles should stay raw");
        let back = fetch_whole(&cluster, 0, &sr).unwrap();
        assert_eq!(back.array().data(), r.array().data());
    }
}
