//! A table owns every raster tile its rows reference, in a tile file of
//! its own on each node: dropping the table frees that file by extents,
//! and a stored raster loaded into another table is copied, so dropping
//! the copy leaves the source's tiles alone.

use paradise::exec::raster_store::fetch_whole;
use paradise::exec::value::{RasterValue, Value};
use paradise::exec::TableDef;
use paradise::{Paradise, ParadiseConfig};
use paradise_datagen::tables::{raster_table, World, WorldSpec};

const Q2: &str =
    "select raster.date, raster.data.clip(Polygon(-125, 25, -67, 25, -67, 49, -125, 49)) \
                  from raster where raster.channel = 5 order by date";
const Q4: &str = "select raster.date, raster.channel, \
                  raster.data.clip(ClosedPolygon(-125, 25, -67, 25, -67, 49, -125, 49)).lower_res(2) \
                  from raster where raster.channel = 5 and raster.date = Date(\"1988-04-01\")";

fn instance(tag: &str) -> (Paradise, World) {
    let world = World::generate(WorldSpec::tiny(3));
    let dir = std::env::temp_dir().join(format!("paradise-it-rdrop-{}-{tag}", std::process::id()));
    let db = Paradise::create(ParadiseConfig::new(dir, 3).with_grid_tiles(256)).unwrap();
    (db, world)
}

fn rasters(tag: &str) -> Paradise {
    let (mut db, world) = instance(tag);
    db.define_table(raster_table().with_tile_bytes(256));
    db.load_table("raster", world.rasters.iter().cloned()).unwrap();
    db.commit().unwrap();
    db
}

/// Objects in each node's tile files, whichever table owns them.
fn tile_objects(db: &Paradise) -> Vec<u64> {
    db.cluster()
        .nodes()
        .iter()
        .map(|n| {
            let names = n.store.names().into_iter().filter(|name| name.starts_with("rtiles_"));
            names.filter_map(|name| n.store.file(&name)).map(|f| f.count()).sum()
        })
        .collect()
}

/// Objects in each node's tile file of `table`.
fn table_tiles(db: &Paradise, table: &TableDef) -> Vec<u64> {
    let file = table.tile_file();
    db.cluster().nodes().iter().map(|n| n.store.file(&file).map_or(0, |f| f.count())).collect()
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
    let source = db.table("raster").unwrap();
    let before = table_tiles(&db, &source);

    // The copy's rows hold stored rasters; loading copies their tiles,
    // node by node, into the copy's own tile files.
    let copy = TableDef::new("raster_copy", source.schema.clone(), source.decluster.clone());
    let rows: Vec<_> = (0..db.cluster().num_nodes())
        .flat_map(|node| source.fragment_tuples(db.cluster(), node).unwrap())
        .collect();
    copy.load(db.cluster(), rows).unwrap();
    assert_eq!(table_tiles(&db, &source), before, "the source's tile files changed");
    assert_eq!(table_tiles(&db, &copy), before, "one copied object per source tile");
    copy.drop_table(db.cluster()).unwrap();

    assert_eq!(table_tiles(&db, &source), before);
    assert_eq!(db.sql(Q2).unwrap().rows, clipped, "the source's clips changed");
}

#[test]
fn a_copied_raster_reads_its_own_tiles() {
    let db = rasters("own");
    let source = db.table("raster").unwrap();
    let copy = TableDef::new("raster_copy", source.schema.clone(), source.decluster.clone());
    let rows = source.fragment_tuples(db.cluster(), 0).unwrap();
    copy.load(db.cluster(), rows.clone()).unwrap();
    let copied: Vec<_> = (0..db.cluster().num_nodes())
        .flat_map(|node| copy.fragment_tuples(db.cluster(), node).unwrap())
        .collect();
    assert_eq!(copied.len(), rows.len());
    for src in &rows {
        // Rows are routed afresh, so find the copy by date and channel.
        let dst = copied.iter().find(|t| t.values[..2] == src.values[..2]).unwrap();
        let (Value::Raster(RasterValue::Stored(a)), Value::Raster(RasterValue::Stored(b))) =
            (src.get(2).unwrap(), dst.get(2).unwrap())
        else {
            panic!("stored rasters expected");
        };
        assert_eq!(a.tiles.len(), b.tiles.len());
        for (ta, tb) in a.tiles.iter().zip(&b.tiles) {
            assert_eq!((ta.node, ta.compressed), (tb.node, tb.compressed));
            assert_ne!(ta.oid, tb.oid, "the copy references its own tile");
        }
        let whole = |sr| fetch_whole(db.cluster(), 0, sr).unwrap();
        assert_eq!(whole(a).array().data(), whole(b).array().data());
    }
}

/// Each node's `storage.volume_bytes` and directory entry count.
fn footprint(db: &Paradise) -> Vec<(i64, usize)> {
    let r =
        db.sql("select * from paradise.metrics where name like 'storage.volume_bytes'").unwrap();
    let nodes = db.cluster().nodes();
    assert_eq!(r.rows.len(), nodes.len(), "one volume gauge per node");
    nodes
        .iter()
        .map(|n| {
            let row =
                r.rows.iter().find(|t| t.get(1).unwrap() == &Value::Str(n.id.to_string().into()));
            let Some(Value::Int(bytes)) = row.map(|t| t.get(2).unwrap()) else {
                panic!("no volume gauge for node {}", n.id);
            };
            (*bytes, n.store.names().len())
        })
        .collect()
}

#[test]
fn load_and_drop_cycles_keep_every_volume_flat() {
    let (mut db, world) = instance("cycles");
    let mut after_first = None;
    for cycle in 0..30 {
        let mut def = raster_table().with_tile_bytes(256);
        def.name = format!("cycle_{cycle}");
        db.define_table(def.clone());
        db.load_table(&def.name, world.rasters.iter().cloned()).unwrap();
        db.commit().unwrap();
        assert!(table_tiles(&db, &def).iter().sum::<u64>() > 0);
        def.drop_table(db.cluster()).unwrap();
        db.commit().unwrap();
        let now = footprint(&db);
        match &after_first {
            None => after_first = Some(now),
            Some(first) => assert_eq!(&now, first, "cycle {cycle} grew a volume or directory"),
        }
    }
}
