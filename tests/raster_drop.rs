//! Dropping a table frees the raster tiles its own loads stored, and only
//! those: a stored raster copied into another table keeps its tiles.

use paradise::exec::raster_store::TILE_FILE;
use paradise::exec::TableDef;
use paradise::{Paradise, ParadiseConfig};
use paradise_datagen::tables::{raster_table, World, WorldSpec};

const Q2: &str =
    "select raster.date, raster.data.clip(Polygon(-125, 25, -67, 25, -67, 49, -125, 49)) \
                  from raster where raster.channel = 5 order by date";
const Q4: &str = "select raster.date, raster.channel, \
                  raster.data.clip(ClosedPolygon(-125, 25, -67, 25, -67, 49, -125, 49)).lower_res(2) \
                  from raster where raster.channel = 5 and raster.date = Date(\"1988-04-01\")";

fn rasters(tag: &str) -> Paradise {
    let world = World::generate(WorldSpec::tiny(3));
    let dir = std::env::temp_dir().join(format!("paradise-it-rdrop-{}-{tag}", std::process::id()));
    let mut db = Paradise::create(ParadiseConfig::new(dir, 3).with_grid_tiles(256)).unwrap();
    db.define_table(raster_table().with_tile_bytes(256));
    db.load_table("raster", world.rasters.iter().cloned()).unwrap();
    db.commit().unwrap();
    db
}

/// Objects in each node's raster tile file.
fn tile_objects(db: &Paradise) -> Vec<u64> {
    db.cluster().nodes().iter().map(|n| n.store.file(TILE_FILE).map_or(0, |f| f.count())).collect()
}

#[test]
fn q4_leaves_no_tile_behind() {
    let db = rasters("q4");
    let before = tile_objects(&db);
    assert!(before.iter().sum::<u64>() > 0);
    for _ in 0..10 {
        let r = db.sql(Q4).unwrap();
        assert_eq!(r.rows.len(), 1, "Q4 selects one raster");
    }
    assert_eq!(tile_objects(&db), before);
}

#[test]
fn dropping_a_copy_of_stored_rasters_keeps_their_tiles() {
    let db = rasters("copy");
    let clipped = db.sql(Q2).unwrap().rows;
    assert!(!clipped.is_empty());
    let before = tile_objects(&db);

    // The copy's rows hold the source's stored rasters as they are.
    let source = db.table("raster").unwrap();
    let copy = TableDef::new("raster_copy", source.schema.clone(), source.decluster.clone());
    let rows: Vec<_> = (0..db.cluster().num_nodes())
        .flat_map(|node| source.fragment_tuples(db.cluster(), node).unwrap())
        .collect();
    copy.load(db.cluster(), rows).unwrap();
    assert_eq!(tile_objects(&db), before, "loading stored rasters stores no tile");
    copy.drop_table(db.cluster()).unwrap();

    assert_eq!(tile_objects(&db), before);
    assert_eq!(db.sql(Q2).unwrap().rows, clipped, "the source's clips changed");
}
