//! The intra-node worker pool has exactly two clients: the PBSM join (Q13:
//! its scans, tile sweep and materialisation) and LZW compression of
//! raster tiles at load. Region reads,
//! generic scans and the raster statements run as plain loops and record
//! no pool run.

use paradise::array::PixelWindow;
use paradise::exec::raster_store::fetch_region;
use paradise::exec::value::{RasterValue, Value};
use paradise::exec::workers::PoolSnapshot;
use paradise::{Paradise, ParadiseConfig};
use paradise_datagen::tables::{
    drainage_table, land_cover_table, raster_table, roads_table, World, WorldSpec, OIL_FIELD,
};

const US: &str = "Polygon(-125, 25, -67, 25, -67, 49, -125, 49)";

/// What the cluster's pool executed while `op` ran.
fn pool_delta<T>(db: &Paradise, op: impl FnOnce() -> T) -> (T, PoolSnapshot) {
    let pool = db.cluster().workers();
    let before = pool.snapshot();
    let out = op();
    (out, pool.snapshot().since(&before))
}

#[test]
fn only_the_pbsm_sweep_and_raster_load_run_on_the_pool() {
    let world = World::generate(WorldSpec::tiny(5));
    let dir = std::env::temp_dir().join(format!("paradise-it-pool-{}", std::process::id()));
    let mut db = Paradise::create(ParadiseConfig::new(dir, 2).with_grid_tiles(256)).unwrap();
    // Small tiles: every raster spans several, so region reads have work.
    db.define_table(raster_table().with_tile_bytes(256));
    db.define_table(roads_table());
    db.define_table(drainage_table());
    db.define_table(land_cover_table());

    // Loading rasters compresses their tiles on the pool.
    let (loaded, load) = pool_delta(&db, || db.load_table("raster", world.rasters.clone()));
    loaded.unwrap();
    assert!(load.runs > 0 && load.morsels > 0, "raster load ran no morsel: {load:?}");
    db.load_table("roads", world.roads.clone()).unwrap();
    db.load_table("drainage", world.drainage.clone()).unwrap();
    db.load_table("landCover", world.land_cover.clone()).unwrap();
    db.create_rtree_index("landCover", 2).unwrap();
    db.commit().unwrap();

    // A region read through the engine tile path.
    let raster = db.table("raster").unwrap();
    let tuples = raster.fragment_tuples(db.cluster(), 0).unwrap();
    let Value::Raster(RasterValue::Stored(sr)) = tuples[0].get(2).unwrap() else {
        panic!("raster column holds no stored raster");
    };
    assert!(sr.tiles.len() > 1, "want a multi-tile raster, got {} tile", sr.tiles.len());
    let win = PixelWindow { row0: 0, row1: sr.height as usize, col0: 0, col1: sr.width as usize };
    let (region, read) = pool_delta(&db, || fetch_region(db.cluster(), 1, sr, win));
    assert_eq!(region.unwrap().1, sr.tiles.len());
    assert_eq!(read.runs, 0, "fetch_region ran on the pool: {read:?}");

    let plain_loops = [
        ("generic scan", "select id, type from drainage where type = 3".to_string()),
        (
            "Q2",
            format!(
                "select raster.date, raster.data.clip({US}) from raster \
                 where raster.channel = 5 order by date"
            ),
        ),
        (
            "Q10",
            format!(
                "select raster.date, raster.channel, raster.data.clip({US}) from raster \
                 where raster.data.clip({US}).average() > 100"
            ),
        ),
        (
            "Q14",
            format!(
                "select landCover.shape, raster.data.clip(landCover.shape) from landCover, raster \
                 where landCover.LCPYTYPE = {OIL_FIELD} and raster.channel = 5 and \
                 raster.date >= Date(\"1988-04-01\") and raster.date <= Date(\"1988-12-31\")"
            ),
        ),
    ];
    for (name, sql) in plain_loops {
        let (r, delta) = pool_delta(&db, || db.sql(&sql));
        let rows = r.unwrap_or_else(|e| panic!("{name}: {e}")).rows;
        assert!(!rows.is_empty(), "{name} returned no row");
        assert_eq!(delta.runs, 0, "{name} ran on the pool: {delta:?}");
    }

    let q13 = "select * from drainage, roads where drainage.shape overlaps roads.shape";
    let (r, sweep) = pool_delta(&db, || db.sql(q13));
    assert!(!r.unwrap().rows.is_empty(), "Q13 found no overlapping pair");
    assert!(sweep.runs > 0 && sweep.morsels > 0, "Q13 ran no morsel: {sweep:?}");
}
