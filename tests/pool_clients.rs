//! The cluster's executor is the one pool of threads in the engine, and it
//! has two clients: every phase's node fragments (one morsel per node)
//! and LZW compression of raster tiles at load (one morsel per tile). Kernels
//! inside a fragment — the PBSM sweep, region reads, generic scans, the
//! raster statements — are plain loops, and no query starts a thread.

use paradise::array::PixelWindow;
use paradise::exec::raster_store::fetch_region;
use paradise::exec::value::{RasterValue, Value};
use paradise::exec::workers::PoolSnapshot;
use paradise::{Paradise, ParadiseConfig};
use paradise_datagen::tables::{
    drainage_table, land_cover_table, raster_table, roads_table, World, WorldSpec, OIL_FIELD,
};

const US: &str = "Polygon(-125, 25, -67, 25, -67, 49, -125, 49)";
const NODES: usize = 2;

/// What the cluster's executor ran while `op` ran.
fn pool_delta<T>(db: &Paradise, op: impl FnOnce() -> T) -> (T, PoolSnapshot) {
    let pool = db.cluster().workers();
    let before = pool.snapshot();
    let out = op();
    (out, pool.snapshot().since(&before))
}

/// The process's live thread count (`Threads:` in `/proc/self/status`).
fn threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")?.trim().parse().ok())
}

#[test]
fn phases_and_the_raster_load_run_on_the_executor() {
    let world = World::generate(WorldSpec::tiny(5));
    let dir = std::env::temp_dir().join(format!("paradise-it-pool-{}", std::process::id()));
    let mut db = Paradise::create(ParadiseConfig::new(dir, NODES).with_grid_tiles(256)).unwrap();
    // Small tiles: every raster spans several, so region reads have work.
    db.define_table(raster_table().with_tile_bytes(256));
    db.define_table(roads_table());
    db.define_table(drainage_table());
    db.define_table(land_cover_table());

    // Loading rasters compresses their tiles on the executor, one morsel
    // per tile.
    let (loaded, load) = pool_delta(&db, || db.load_table("raster", world.rasters.clone()));
    loaded.unwrap();
    assert!(load.runs > 0 && load.morsels > load.runs, "raster load ran no tile morsel: {load:?}");
    db.load_table("roads", world.roads.clone()).unwrap();
    db.load_table("drainage", world.drainage.clone()).unwrap();
    db.load_table("landCover", world.land_cover.clone()).unwrap();
    db.create_rtree_index("landCover", 2).unwrap();
    db.commit().unwrap();

    // A region read through the engine tile path is a plain loop.
    let raster = db.table("raster").unwrap();
    let tuples = raster.fragment_tuples(db.cluster(), 0).unwrap();
    let Value::Raster(RasterValue::Stored(sr)) = tuples[0].get(2).unwrap() else {
        panic!("raster column holds no stored raster");
    };
    assert!(sr.tiles.len() > 1, "want a multi-tile raster, got {} tile", sr.tiles.len());
    let win = PixelWindow { row0: 0, row1: sr.height as usize, col0: 0, col1: sr.width as usize };
    let (region, read) = pool_delta(&db, || fetch_region(db.cluster(), 1, sr, win));
    assert_eq!(region.unwrap().1, sr.tiles.len());
    assert_eq!(read.runs, 0, "fetch_region ran on the executor: {read:?}");

    let statements = [
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
        ("Q13", "select * from drainage, roads where drainage.shape overlaps roads.shape".into()),
    ];
    let threads0 = threads();
    for (name, sql) in statements {
        let (r, delta) = pool_delta(&db, || db.sql(&sql));
        let r = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!r.rows.is_empty(), "{name} returned no row");
        // One executor batch per phase, one morsel per node: no kernel
        // inside a fragment runs a batch of its own.
        let phases = r.metrics.phases.len() as u64;
        assert!(phases > 0, "{name} ran no phase");
        assert_eq!(delta.runs, phases, "{name}: {delta:?}");
        assert_eq!(delta.morsels, phases * NODES as u64, "{name}: {delta:?}");
        let on_helpers: u64 = r.metrics.phases.iter().map(|p| p.morsels).sum();
        assert_eq!(on_helpers, delta.helper_morsels, "{name}: {delta:?}");
        // The executor's threads are the cluster's: the query started none.
        assert_eq!(threads(), threads0, "{name} changed the thread count");
    }
}
