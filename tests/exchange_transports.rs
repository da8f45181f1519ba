//! `exchange` under both transports for the shapes that move the most
//! tuples: Q12 routes cities node → node and then gathers its matches at
//! the coordinator; Q13 gathers every joined pair. Entered as SQL, each
//! must return the same rows and charge the same traffic whether batches
//! move by ownership (`Local`) or over loopback sockets (`Tcp`).

use paradise::exec::metrics::QueryMetrics;
use paradise::exec::Tuple;
use paradise::{queries, Paradise, ParadiseConfig, QueryResult, TransportKind};
use paradise_datagen::tables::{
    drainage_table, land_cover_table, populated_places_table, raster_table, roads_table, World,
    WorldSpec,
};
use std::path::PathBuf;

const Q12: &str = "select closest(drainage.shape, populatedPlaces.location), \
                   populatedPlaces.location from drainage, populatedPlaces \
                   where populatedPlaces.location overlaps drainage.shape and \
                   populatedPlaces.type = 1 group by populatedPlaces.location";
const Q13: &str = "select * from drainage, roads where drainage.shape overlaps roads.shape";

fn fresh_dir(tag: &str) -> PathBuf {
    let d =
        std::env::temp_dir().join(format!("paradise-exchange-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn build_db(tag: &str, world: &World, kind: TransportKind) -> Paradise {
    let mut db = Paradise::create(
        ParadiseConfig::new(fresh_dir(tag), 3)
            .with_grid_tiles(256)
            .with_pool_pages(512)
            .with_transport(kind),
    )
    .expect("create cluster");
    db.define_table(raster_table().with_tile_bytes(4096));
    db.define_table(populated_places_table());
    db.define_table(roads_table());
    db.define_table(drainage_table());
    db.define_table(land_cover_table());
    db.load_table("populatedPlaces", world.populated_places.iter().cloned()).expect("places");
    db.load_table("roads", world.roads.iter().cloned()).expect("roads");
    db.load_table("drainage", world.drainage.iter().cloned()).expect("drainage");
    db.create_rtree_index("drainage", queries::LINE_SHAPE).expect("drainage rtree");
    db.commit().expect("commit");
    db
}

fn encoded(rows: &[Tuple]) -> Vec<Vec<u8>> {
    rows.iter().map(Tuple::encode).collect()
}

/// `(name, tuples, bytes)` of every exchange the query ran.
fn exchanges(m: &QueryMetrics) -> Vec<(String, u64, u64)> {
    m.exchanges.iter().map(|x| (x.name.clone(), x.net.tuples, x.net.bytes)).collect()
}

fn assert_same(name: &str, local: &QueryResult, tcp: &QueryResult) {
    assert!(!local.rows.is_empty(), "{name}: no rows");
    assert_eq!(local.rows, tcp.rows, "{name}: rows");
    assert_eq!(encoded(&local.rows), encoded(&tcp.rows), "{name}: encoded rows");
    let (a, b) = (&local.metrics, &tcp.metrics);
    assert_eq!(a.net_bytes, b.net_bytes, "{name}: net_bytes");
    assert_eq!(a.net_tuples, b.net_tuples, "{name}: net_tuples");
    assert_eq!(a.pulls, b.pulls, "{name}: pulls");
    assert_eq!(a.pull_bytes, b.pull_bytes, "{name}: pull_bytes");
    assert_eq!(exchanges(a), exchanges(b), "{name}: per-exchange traffic");
    // Every charged tuple crossed an endpoint in one of the exchanges.
    let (tuples, bytes) = exchanges(a).iter().fold((0, 0), |(t, b), x| (t + x.1, b + x.2));
    assert_eq!((tuples, bytes), (a.net_tuples, a.net_bytes), "{name}: exchanges cover traffic");
}

#[test]
fn q12_and_q13_match_across_transports() {
    let world = World::generate(WorldSpec::tiny(5));
    let local = build_db("local", &world, TransportKind::Local);
    let tcp = build_db("tcp", &world, TransportKind::Tcp);

    let (a, b) = (local.sql(Q12).expect("q12 local"), tcp.sql(Q12).expect("q12 tcp"));
    assert_same("q12", &a, &b);
    let names: Vec<String> = exchanges(&a.metrics).into_iter().map(|x| x.0).collect();
    assert_eq!(names, ["route to nodes", "gather"], "q12 routes, then gathers");
    assert!(a.metrics.exchanges[0].net.tuples > 0, "q12 routed no city between nodes");

    let (a, b) = (local.sql(Q13).expect("q13 local"), tcp.sql(Q13).expect("q13 tcp"));
    assert_same("q13", &a, &b);
    assert_eq!(a.metrics.exchanges.len(), 1, "q13 gathers once");
    assert_eq!(a.metrics.net_tuples, a.rows.len() as u64, "every joined pair reaches the QC");
    let bytes: u64 = a.rows.iter().map(|t| t.wire_size() as u64).sum();
    assert_eq!(a.metrics.net_bytes, bytes, "charged bytes are the rows' wire sizes");
    tcp.cluster().shutdown_transport();
}
