//! Demonstrates the large-image machinery of paper §2.5–§2.6: tiling with
//! per-tile LZW compression, tile-granular clipping, the pull model for
//! remote tiles, and raster declustering.
//!
//! ```sh
//! cargo run --release --example raster_pipeline
//! ```

use paradise_array::{BitDepth, Raster};
use paradise_exec::cluster::{Cluster, ClusterConfig};
use paradise_exec::raster_store;
use paradise_geom::{Point, Polygon, Rect};

fn main() {
    let cfg = ClusterConfig::for_test(4, "raster-pipeline-example");
    let cluster = Cluster::create(&cfg).expect("cluster");

    // A 720x360 16-bit "satellite composite" with a smooth gradient plus a
    // noisy band (so some tiles compress and some don't).
    let world = Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0)).unwrap();
    let mut img = Raster::new(720, 360, BitDepth::Sixteen, world).unwrap();
    let mut x: u32 = 1;
    for row in 0..360 {
        for col in 0..720 {
            let base = 400 * (row as u32) / 360 * 100;
            let noise = if (100..140).contains(&row) {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                x >> 18
            } else {
                0
            };
            img.set_pixel(col, row, base + noise).unwrap();
        }
    }
    println!("image: {}x{} = {} KB raw", img.width(), img.height(), img.byte_len() / 1024);

    // Store on node 0 as ~8 KB tiles.
    let sr = raster_store::store_raster(&cluster, "tiles", 0, &img, false, 8 * 1024).unwrap();
    let compressed = sr.tiles.iter().filter(|t| t.compressed).count();
    println!(
        "stored as {} tiles ({} LZW-compressed, {} raw) of {}x{} pixels",
        sr.tiles.len(),
        compressed,
        sr.tiles.len() - compressed,
        sr.tile_h,
        sr.tile_w
    );

    // Clip by a polygon: only the tiles under its bounding box are read.
    let clip_poly = Polygon::new(vec![
        Point::new(-120.0, 20.0),
        Point::new(-60.0, 25.0),
        Point::new(-70.0, 55.0),
        Point::new(-125.0, 50.0),
    ])
    .unwrap();
    let (clipped, tiles_read) =
        raster_store::clip_stored(&cluster, 0, &sr, &clip_poly).unwrap().unwrap();
    println!(
        "clip: read {tiles_read}/{} tiles; result {}x{} with {} valid pixels; mean {:.0}",
        sr.tiles.len(),
        clipped.width(),
        clipped.height(),
        clipped.valid_count(),
        clipped.average().unwrap_or(0.0)
    );

    // Remote access = pull: node 3 fetching the same clip pulls tiles.
    let before = cluster.net.snapshot();
    let _ = raster_store::clip_stored(&cluster, 3, &sr, &clip_poly).unwrap().unwrap();
    let d = cluster.net.since(before);
    println!("same clip from node 3: {} pulls, {} KB pulled", d.pulls, d.pull_bytes / 1024);

    // Decluster the raster's tiles across nodes (paper §2.6): now every
    // node owns a share and a whole-image operation parallelises.
    let decl = raster_store::store_raster(&cluster, "tiles", 0, &img, true, 8 * 1024).unwrap();
    let mut per_node = [0usize; 4];
    for t in decl.tiles.iter() {
        per_node[t.node as usize] += 1;
    }
    println!("declustered tile placement per node: {per_node:?}");

    // lower_res (Q4's operation).
    let low = clipped.lower_res(8).unwrap();
    println!("lower_res(8): {}x{} pixels", low.width(), low.height());
}
