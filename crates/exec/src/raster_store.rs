//! Tile-granular raster storage (paper §2.5.1, §2.6) and the pull-based
//! region fetch (§2.5.2).
//!
//! A raster is stored as one SHORE object per ~tile plus a mapping table
//! that stays inline in the tuple ([`StoredRaster`]). Tiles are LZW
//! compressed when that helps (per-tile flag). A raster's tiles normally
//! live on the node that owns the tuple; with *raster declustering* (§2.6)
//! each tile goes to the node owning the grid tile under the tile's
//! geographic center, so one image can be processed by many nodes.
//!
//! Tiles live in a heap file whose lifetime matches their owner's (§2.5):
//! a table's tiles in its own tile file on each node, which dropping the
//! table frees by extents; an operator's in a file dropped when it
//! completes. A stored raster loaded into another table is copied
//! ([`copy_raster`]), so a table owns every tile its rows reference.

use crate::cluster::{Cluster, NodeId};
use crate::value::{StoredRaster, TileRef};
use crate::Result;
use paradise_array::{lzw, NdArray, PixelWindow, Raster, TilingScheme};
use paradise_geom::{Point, Polygon};

/// Prefix of every table's tile file: table `t` keeps the raster tiles of
/// its rows in the heap file `rtiles_t` on each node holding any of them.
pub const TILE_FILE: &str = "rtiles";

/// Target tile payload. The paper uses ~128 KB tiles (§2.5.1); the
/// scaled-down benchmark data uses smaller rasters, so the engine defaults
/// to 32 KB and takes the target as a parameter.
pub const DEFAULT_TILE_BYTES: usize = 32 * 1024;

/// Stores `raster` as tiles in the heap file `file`. With `decluster =
/// false` every tile lands on `home`; with `decluster = true` tiles are
/// spread by the geographic position of each tile (§2.6).
pub fn store_raster(
    cluster: &Cluster,
    file: &str,
    home: NodeId,
    raster: &Raster,
    decluster: bool,
    tile_bytes: usize,
) -> Result<StoredRaster> {
    let dims = [raster.height(), raster.width()];
    let scheme = TilingScheme::new(&dims, raster.depth().elem_type(), tile_bytes)?;
    let (tile_h, tile_w) = (scheme.tile_shape()[0], scheme.tile_shape()[1]);
    // Cut the raster into tile payloads, then LZW-encode the whole batch on
    // the worker pool — the codec dominates store cost. Payloads move
    // through the codec: a tile stored raw is the buffer cut here.
    let mut payloads = Vec::with_capacity(scheme.num_tiles());
    for i in 0..scheme.num_tiles() {
        let (lo, shape) = scheme.tile_region(i);
        payloads.push(raster.array().subarray(&lo, &shape)?.into_data());
    }
    let codec = cluster.tile_codec();
    codec.bytes_in.add(payloads.iter().map(|p| p.len() as u64).sum());
    let encoded = lzw::maybe_compress_batch(&cluster.workers(), payloads);
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
        if compressed { &codec.compressed } else { &codec.raw }.inc();
        codec.bytes_out.add(bytes.len() as u64);
        let oid = cluster.node(owner).store.create_file(file)?.insert(&bytes)?;
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

/// Copies a stored raster's tiles into the heap file `file`, each on the
/// node that holds it: the stored bytes move as they are, without a
/// decode, and keep their compression flag. Returns the copy, which
/// references only the new tiles.
pub(crate) fn copy_raster(
    cluster: &Cluster,
    file: &str,
    sr: &StoredRaster,
) -> Result<StoredRaster> {
    let mut copy = sr.clone();
    for tile in &mut copy.tiles {
        let store = &cluster.node(tile.node as usize).store;
        tile.oid = store.create_file(file)?.insert(&store.read(tile.oid)?)?;
    }
    Ok(copy)
}

/// Materialises a pixel window of a stored raster, reading **only** the
/// tiles the window overlaps and pulling remote ones (§2.5.2). Returns the
/// raster and the number of tiles read.
pub fn fetch_region(
    cluster: &Cluster,
    requester: NodeId,
    sr: &StoredRaster,
    win: PixelWindow,
) -> Result<(Raster, usize)> {
    let elem = sr.depth.elem_type();
    let mut out = NdArray::zeros(win.shape().to_vec(), elem)?;
    let pieces = sr.scheme()?.pieces(&win.lo(), &win.shape())?;
    for piece in &pieces {
        let bytes = cluster.fetch_tile(requester, &sr.tiles[piece.tile])?;
        let tile = NdArray::new(piece.tile_shape.clone(), elem, bytes)?;
        out.write_subarray(&piece.in_region, &tile.subarray(&piece.in_tile, &piece.shape)?)?;
    }
    let geo = win.geo(&sr.geo, sr.width as usize, sr.height as usize);
    Ok((Raster::from_array(out, sr.depth, geo)?, pieces.len()))
}

/// Clips a stored raster by a polygon (queries 2–4, 9, 10, 14): fetches
/// only the tiles under the polygon's bounding box, then masks pixels
/// outside the polygon — the same window and mask as [`Raster::clip`] on
/// the whole image. Returns `None` when the polygon misses the raster.
pub fn clip_stored(
    cluster: &Cluster,
    requester: NodeId,
    sr: &StoredRaster,
    poly: &Polygon,
) -> Result<Option<(Raster, usize)>> {
    let (w, h) = (sr.width as usize, sr.height as usize);
    let Some(win) = PixelWindow::covering(&sr.geo, w, h, &poly.bbox()) else {
        return Ok(None);
    };
    let (region, tiles_read) = fetch_region(cluster, requester, sr, win)?;
    match region.mask_outside(poly) {
        Ok(clipped) => Ok(Some((clipped, tiles_read))),
        Err(paradise_array::ArrayError::EmptyClip) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Materialises a whole stored raster.
pub fn fetch_whole(cluster: &Cluster, requester: NodeId, sr: &StoredRaster) -> Result<Raster> {
    let win = PixelWindow { row0: 0, row1: sr.height as usize, col0: 0, col1: sr.width as usize };
    Ok(fetch_region(cluster, requester, sr, win)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use paradise_array::BitDepth;
    use paradise_geom::Rect;

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
        let sr = store_raster(&cluster, "t", 0, &r, false, 2048).unwrap();
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
        let sr = store_raster(&cluster, "t", 0, &r, false, 1024).unwrap();
        let total = sr.tiles.len();
        // Local fetch of a corner region: few tiles, no pulls.
        let base = cluster.net.snapshot();
        let corner = PixelWindow { row0: 0, row1: 16, col0: 0, col1: 16 };
        let (region, read) = fetch_region(&cluster, 0, &sr, corner).unwrap();
        assert!(read < total / 2, "{read} of {total}");
        assert_eq!(region.pixel(3, 2).unwrap(), r.pixel(3, 2).unwrap());
        assert_eq!(cluster.net.since(base).pulls, 0, "local reads are not pulls");
        // Remote fetch from node 1 pulls.
        let base = cluster.net.snapshot();
        let _ = fetch_region(&cluster, 1, &sr, corner).unwrap();
        let d = cluster.net.since(base);
        assert_eq!(d.pulls as usize, read);
        assert!(d.pull_bytes > 0);
    }

    #[test]
    fn declustered_raster_spreads_tiles() {
        let cluster = Cluster::create(&ClusterConfig::for_test(4, "rs3")).unwrap();
        let r = gradient(256, 128); // world-covering raster
        let sr = store_raster(&cluster, "t", 0, &r, true, 1024).unwrap();
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
        let sr = store_raster(&cluster, "t", 0, &r, false, 4096).unwrap();
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
        let sr = store_raster(&cluster, "t", 0, &r, false, 1 << 20).unwrap();
        // Whole world.
        let whole = PixelWindow { row0: 0, row1: 180, col0: 0, col1: 360 };
        let pixel_window = |r: &Rect| PixelWindow::covering(&sr.geo, 360, 180, r);
        assert_eq!(pixel_window(&world()), Some(whole));
        // One-degree box at the top-left corner.
        let tl = Rect::from_corners(Point::new(-180.0, 89.0), Point::new(-179.0, 90.0)).unwrap();
        assert_eq!(pixel_window(&tl), Some(PixelWindow { row0: 0, row1: 1, col0: 0, col1: 1 }));
        // Disjoint.
        let off = Rect::from_corners(Point::new(300.0, 0.0), Point::new(310.0, 10.0)).unwrap();
        assert_eq!(pixel_window(&off), None);
        // geo roundtrip
        assert_eq!(whole.geo(&sr.geo, 360, 180), world());
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
        let sr = store_raster(&cluster, "t", 0, &r, false, 1024).unwrap();
        let compressed = sr.tiles.iter().filter(|t| t.compressed).count();
        assert!(compressed > 0, "smooth tiles should compress");
        assert!(compressed < sr.tiles.len(), "noisy tiles should stay raw");
        let back = fetch_whole(&cluster, 0, &sr).unwrap();
        assert_eq!(back.array().data(), r.array().data());
    }

    #[test]
    fn codec_counters_report_each_tile() {
        let cluster = Cluster::create(&ClusterConfig::for_test(1, "rs7")).unwrap();
        let codec = cluster.tile_codec();
        let counts =
            || [&codec.compressed, &codec.raw, &codec.bytes_in, &codec.bytes_out].map(|c| c.get());
        // A smooth latitude gradient compresses in every tile.
        let mut smooth = Raster::new(128, 64, BitDepth::Sixteen, world()).unwrap();
        for row in 0..64 {
            for col in 0..128 {
                smooth.set_pixel(col, row, 20_000 + 40 * row as u32).unwrap();
            }
        }
        let sr = store_raster(&cluster, "t", 0, &smooth, false, 1024).unwrap();
        let n = sr.tiles.len() as u64;
        let [compressed, raw, bytes_in, bytes_out] = counts();
        assert_eq!((compressed, raw), (n, 0));
        assert_eq!(bytes_in, smooth.array().byte_len() as u64);
        assert!(bytes_out < bytes_in * 9 / 10, "{bytes_out} of {bytes_in}");
        // Generated imagery: a latitude gradient plus ±300 of noise per
        // 16-bit pixel — no tile shrinks by the savings threshold.
        let mut noisy = Raster::new(128, 64, BitDepth::Sixteen, world()).unwrap();
        let mut rng = paradise_util::rng::Rng::seed_from_u64(5);
        for row in 0..64 {
            let lat = 90.0 - (row as f64 + 0.5) * 180.0 / 64.0;
            for col in 0..128 {
                let v = 20_000.0 + 15_000.0 * lat.to_radians().cos() + rng.gen_range(-300.0..300.0);
                noisy.set_pixel(col, row, v as u32).unwrap();
            }
        }
        let sr = store_raster(&cluster, "t", 0, &noisy, false, 1024).unwrap();
        let m = sr.tiles.len() as u64;
        assert!(sr.tiles.iter().all(|t| !t.compressed));
        let after = counts();
        assert_eq!((after[0], after[1]), (n, m));
        let noisy_bytes = noisy.array().byte_len() as u64;
        assert_eq!((after[2] - bytes_in, after[3] - bytes_out), (noisy_bytes, noisy_bytes));
    }
}
