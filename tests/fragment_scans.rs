//! Fragment scans lend each record in place and decode only the columns a
//! scan tests: Q11 keeps its tie rule, and the per-node `scan.rows` /
//! `scan.decoded` counters report how many rows were handed out and how
//! many were materialised.

use paradise::exec::value::Value;
use paradise::exec::Tuple;
use paradise::{Paradise, ParadiseConfig};
use paradise_datagen::tables::{drainage_table, roads_table, World, WorldSpec};
use paradise_geom::{Point, Polyline, Shape};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("paradise-it-scan-{}-{tag}", std::process::id()))
}

fn road(id: &str, ty: i64, pts: &[(f64, f64)]) -> Tuple {
    let pts = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
    Tuple::new(vec![
        Value::Str(id.into()),
        Value::Int(ty),
        Value::from(Shape::Polyline(Polyline::new(pts).unwrap())),
    ])
}

/// Sums a per-node counter over the cluster.
fn node_total(db: &Paradise, name: &str) -> u64 {
    db.cluster().nodes().iter().map(|n| n.obs.get(name).unwrap()).sum()
}

#[test]
fn q11_tie_goes_to_the_first_road_in_scan_order() {
    // Two type-7 roads exactly 1 away from the probe point, one above and
    // one below it; a type-3 road farther away.
    let above = road("above", 7, &[(0.0, 1.0), (1.0, 1.0)]);
    let below = road("below", 7, &[(0.0, -1.0), (1.0, -1.0)]);
    let other = road("other", 3, &[(0.0, 5.0), (1.0, 5.0)]);
    let q11 = "select closest(shape, Point(0.5, 0)), type from roads group by type";
    for (tag, order, winner) in [("ab", [&above, &below], &above), ("ba", [&below, &above], &below)]
    {
        let mut db = Paradise::create(ParadiseConfig::new(fresh_dir(tag), 1)).unwrap();
        db.define_table(roads_table());
        let rows = [order[0].clone(), other.clone(), order[1].clone()];
        db.load_table("roads", rows).unwrap();
        db.commit().unwrap();
        let r = db.sql(q11).unwrap();
        assert_eq!(r.rows.len(), 2, "{tag}: one row per type");
        let tie = &r.rows[1];
        assert_eq!(tie.get(1).unwrap(), &Value::Int(7));
        assert_eq!(tie.get(2).unwrap(), &Value::Float(1.0), "{tag}: distance");
        assert_eq!(
            tie.get(0).unwrap(),
            winner.get(2).unwrap(),
            "{tag}: the first road loaded wins"
        );
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect exporter");
    conn.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write!(conn, "GET {path} HTTP/1.1\r\nHost: paradise\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut out = String::new();
    conn.read_to_string(&mut out).expect("read response");
    out
}

#[test]
fn scan_counters_report_rows_handed_out_and_rows_decoded() {
    let world = World::generate(WorldSpec::tiny(5));
    let cfg = ParadiseConfig::new(fresh_dir("counters"), 3)
        .with_grid_tiles(256)
        .with_metrics_addr("127.0.0.1:0");
    let mut db = Paradise::create(cfg).unwrap();
    db.define_table(roads_table());
    db.define_table(drainage_table());
    db.load_table("roads", world.roads.iter().cloned()).unwrap();
    db.load_table("drainage", world.drainage.iter().cloned()).unwrap();
    db.commit().unwrap();
    let stored = |t: &str| db.table(t).unwrap().stored_count(db.cluster());
    let counters = || (node_total(&db, "scan.rows"), node_total(&db, "scan.decoded"));

    // Q11 hands every stored road to its scan but decodes only the rows
    // that beat their type's best so far.
    let (rows0, decoded0) = counters();
    db.sql("select closest(shape, Point(-89.4, 43.1)), type from roads group by type").unwrap();
    let (rows1, decoded1) = counters();
    assert_eq!(rows1 - rows0, stored("roads"));
    assert!(decoded1 > decoded0, "each type's winner is decoded");
    assert!(decoded1 - decoded0 < rows1 - rows0, "Q11 decoded every row");

    // Q13's PBSM materialises both fragments whole.
    db.sql("select * from drainage, roads where drainage.shape overlaps roads.shape").unwrap();
    let (rows2, decoded2) = counters();
    let both = stored("roads") + stored("drainage");
    assert_eq!(rows2 - rows1, both);
    assert_eq!(decoded2 - decoded1, both);

    // Both counters are listed per node in the catalog and on /metrics.
    let r = db.sql("select * from paradise.metrics where name like 'scan.%'").unwrap();
    let listed: std::collections::BTreeSet<(String, String)> = r
        .rows
        .iter()
        .map(|t| {
            let s = |i: usize| t.get(i).unwrap().as_str().unwrap().to_string();
            (s(0), s(1))
        })
        .collect();
    for node in ["0", "1", "2"] {
        assert!(listed.contains(&("scan.rows".into(), node.into())), "{listed:?}");
        assert!(listed.contains(&("scan.decoded".into(), node.into())), "{listed:?}");
    }
    let body = http_get(db.metrics_addr().expect("exporter bound"), "/metrics");
    assert!(body.contains("paradise_scan_rows_total{node=\"0\"}"), "{body}");
    assert!(body.contains("paradise_scan_decoded_total{node=\"2\"}"), "{body}");
}
