//! The decoded R*-tree a node's store shares between statements: a
//! dropped and rebuilt table must never answer from the old tree, and
//! statements served from the shared tree keep reporting index work.

use paradise::exec::value::Value;
use paradise::exec::Tuple;
use paradise::queries::{LC_ID, LC_SHAPE};
use paradise::{Paradise, ParadiseConfig};
use paradise_datagen::tables::{land_cover_table, us_polygon, World, WorldSpec};
use paradise_geom::Shape;
use std::collections::BTreeSet;

/// [`us_polygon`] as SQL text.
const US: &str = "Polygon(-125, 25, -67, 25, -67, 49, -125, 49)";

fn ids(rows: &[Tuple]) -> BTreeSet<String> {
    rows.iter().map(|t| t.get(LC_ID).unwrap().as_str().unwrap().to_string()).collect()
}

fn brute_q6(world: &World) -> BTreeSet<String> {
    let us = Shape::Polygon(us_polygon());
    let hits: Vec<Tuple> = world
        .land_cover
        .iter()
        .filter(|t| t.get(LC_SHAPE).unwrap().as_shape().unwrap().overlaps(&us))
        .cloned()
        .collect();
    ids(&hits)
}

fn decodes(db: &Paradise) -> u64 {
    db.cluster().nodes().iter().map(|n| n.obs.get("rtree.decodes").unwrap()).sum()
}

#[test]
fn rebuilt_table_answers_from_its_new_rows() {
    let dir = std::env::temp_dir().join(format!("paradise-it-rtcache-{}", std::process::id()));
    let mut db = Paradise::create(ParadiseConfig::new(dir, 3).with_grid_tiles(256)).unwrap();
    let q6 = format!("select * from landCover where shape overlaps {US}");

    let first = World::generate(WorldSpec::tiny(3));
    db.define_table(land_cover_table());
    db.load_table("landCover", first.land_cover.iter().cloned()).unwrap();
    db.create_rtree_index("landCover", LC_SHAPE).unwrap();
    db.commit().unwrap();
    assert_eq!(decodes(&db), 0, "index trees are decoded on first use, not at build");
    assert_eq!(ids(&db.sql(&q6).unwrap().rows), brute_q6(&first));
    assert_eq!(decodes(&db), 3, "one decode per node");

    // A warm Q6 is served from the shared trees and still counts visits.
    let visits = || db.obs().get("rtree.node_visits").unwrap_or(0);
    let visits0 = visits();
    assert_eq!(ids(&db.sql(&q6).unwrap().rows), brute_q6(&first));
    assert_eq!(decodes(&db), 3, "a warm statement decodes nothing");
    assert!(visits() > visits0, "rtree.node_visits did not move on a warm Q6");

    // Drop, redefine under the same name, load other rows, rebuild.
    db.table("landCover").unwrap().drop_table(db.cluster()).unwrap();
    let second = World::generate(WorldSpec::tiny(11));
    assert_ne!(brute_q6(&first), brute_q6(&second));
    db.define_table(land_cover_table());
    db.load_table("landCover", second.land_cover.iter().cloned()).unwrap();
    db.create_rtree_index("landCover", LC_SHAPE).unwrap();
    db.commit().unwrap();
    assert_eq!(ids(&db.sql(&q6).unwrap().rows), brute_q6(&second));
    assert_eq!(decodes(&db), 6, "the rebuilt trees are decoded afresh");
}

#[test]
fn decodes_are_listed_per_node_in_the_catalog() {
    let dir = std::env::temp_dir().join(format!("paradise-it-rtcat-{}", std::process::id()));
    let mut db = Paradise::create(ParadiseConfig::new(dir, 2).with_grid_tiles(64)).unwrap();
    let world = World::generate(WorldSpec::tiny(5));
    db.define_table(land_cover_table());
    db.load_table("landCover", world.land_cover.iter().cloned()).unwrap();
    db.create_rtree_index("landCover", LC_SHAPE).unwrap();
    db.commit().unwrap();
    db.sql(&format!("select * from landCover where shape overlaps {US}")).unwrap();
    let r = db.sql("select * from paradise.metrics where name like 'rtree.decodes'").unwrap();
    // One row per node, each having decoded its landCover tree once.
    let values: Vec<&Value> = r.rows.iter().map(|t| t.get(2).unwrap()).collect();
    assert_eq!(values, vec![&Value::Int(1), &Value::Int(1)], "{:?}", r.rows);
}
