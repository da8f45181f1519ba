//! Shape checks for the paper's headline claims at miniature scale:
//! speedup (fixed data, more nodes → less simulated time for the heavy
//! queries) and scaleup (data grown with nodes → roughly flat time), plus
//! the §3.1.3 data-scaleup invariants.
//!
//! Every test here serialises on one mutex: the speedup check compares
//! measured busy times, which other tests loading data on the same CPUs
//! would distort.

use paradise::queries;
use paradise::{Paradise, ParadiseConfig};
use paradise_datagen::tables::{
    drainage_table, land_cover_table, populated_places_table, raster_table, roads_table, World,
    WorldSpec,
};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialises the tests of this file (poison-tolerant, so one failed test
/// does not wedge the rest).
fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

fn load(nodes: usize, scale: usize, tag: &str) -> Paradise {
    let world = World::generate(WorldSpec::paper_ratio(3, scale, 3000));
    let dir = std::env::temp_dir()
        .join(format!("paradise-it-scale-{}-{tag}-{nodes}-{scale}", std::process::id()));
    let mut db = Paradise::create(ParadiseConfig::new(dir, nodes).with_grid_tiles(1024)).unwrap();
    db.define_table(raster_table().with_tile_bytes(4096));
    db.define_table(populated_places_table());
    db.define_table(roads_table());
    db.define_table(drainage_table());
    db.define_table(land_cover_table());
    db.load_table("raster", world.rasters.iter().cloned()).unwrap();
    db.load_table("populatedPlaces", world.populated_places.iter().cloned()).unwrap();
    db.load_table("roads", world.roads.iter().cloned()).unwrap();
    db.load_table("drainage", world.drainage.iter().cloned()).unwrap();
    db.load_table("landCover", world.land_cover.iter().cloned()).unwrap();
    db.create_rtree_index("landCover", 2).unwrap();
    db.commit().unwrap();
    db
}

/// Median-of-3 simulated seconds for a query runner.
fn sim3(mut f: impl FnMut() -> f64) -> f64 {
    let mut v = [f(), f(), f()];
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[1]
}

#[test]
fn q13_speeds_up_with_more_nodes() {
    let _g = serial();
    // The paper's heaviest query (Q13) "uniformly showed good speedup".
    let db2 = load(2, 1, "sp");
    let db8 = load(8, 1, "sp");
    let t2 = sim3(|| queries::q13(&db2).unwrap().metrics.simulated_time().as_secs_f64());
    let t8 = sim3(|| queries::q13(&db8).unwrap().metrics.simulated_time().as_secs_f64());
    // Perfect speedup would be 4x; demand at least 1.8x to stay robust.
    assert!(t8 < t2 / 1.8, "Q13 should speed up with nodes: 2n={t2:.4}s 8n={t8:.4}s");
}

#[test]
fn q2_scales_up_roughly_flat() {
    let _g = serial();
    // Scaleup: double the nodes AND the data — per-node work stays put.
    let a = load(2, 1, "su");
    let b = load(4, 2, "su");
    let ta = sim3(|| {
        queries::q2(&a, 5, &paradise_datagen::tables::us_polygon())
            .unwrap()
            .metrics
            .simulated_time()
            .as_secs_f64()
    });
    let tb = sim3(|| {
        queries::q2(&b, 5, &paradise_datagen::tables::us_polygon())
            .unwrap()
            .metrics
            .simulated_time()
            .as_secs_f64()
    });
    // Flat within 2.5x either way (generous: tiny absolute times).
    assert!(
        tb < ta * 2.5 && ta < tb * 2.5,
        "Q2 scaleup should be roughly flat: {ta:.4}s vs {tb:.4}s"
    );
}

#[test]
fn data_scaleup_matches_table_31_shape() {
    let _g = serial();
    // Table 3.1's columns: tuple counts double for the vector tables,
    // raster tuple count stays fixed while raster bytes double.
    let w1 = World::generate(WorldSpec::paper_ratio(1, 1, 4000));
    let w2 = World::generate(WorldSpec::paper_ratio(1, 2, 4000));
    let w4 = World::generate(WorldSpec::paper_ratio(1, 4, 4000));
    assert_eq!(w2.populated_places.len(), 2 * w1.populated_places.len());
    assert_eq!(w4.populated_places.len(), 4 * w1.populated_places.len());
    assert_eq!(w2.roads.len(), 2 * w1.roads.len());
    assert_eq!(w2.drainage.len(), 2 * w1.drainage.len());
    assert_eq!(w2.land_cover.len(), 2 * w1.land_cover.len());
    assert_eq!(w1.rasters.len(), w2.rasters.len());
    assert_eq!(w2.raster_bytes(), 2 * w1.raster_bytes());
    assert_eq!(w4.raster_bytes(), 4 * w1.raster_bytes());
    // Total vector points roughly double too (the paper's other axis).
    let pts = |w: &World| -> usize {
        w.drainage.iter().map(|t| t.get(2).unwrap().as_shape().unwrap().num_points()).sum()
    };
    let (p1, p2) = (pts(&w1), pts(&w2));
    assert!(
        p2 as f64 > 1.7 * p1 as f64 && (p2 as f64) < 2.3 * p1 as f64,
        "drainage points should ~double: {p1} -> {p2}"
    );
}

#[test]
fn spatial_skew_exists_but_many_partitions_smooth_it() {
    let _g = serial();
    // §2.7.1: with few partitions the land/ocean skew is dramatic; with
    // thousands of tiles the per-NODE load evens out.
    let world = World::generate(WorldSpec::paper_ratio(8, 1, 4000));
    let db = load(4, 1, "skew");
    let cluster = db.cluster();
    let _ = world;
    let drainage = db.table("drainage").unwrap();
    let counts: Vec<u64> = (0..4)
        .map(|n| {
            cluster.node(n).store.file(&drainage.fragment_file()).map(|f| f.count()).unwrap_or(0)
        })
        .collect();
    let max = *counts.iter().max().unwrap() as f64;
    let min = *counts.iter().min().unwrap().max(&1) as f64;
    assert!(max / min < 3.0, "hashed tiles should balance node load: {counts:?}");
}
