//! Integration tests for the monitoring plane: the `paradise.*` system
//! catalog, the query-history ring and slow-query log, the structured
//! JSONL event log, and the Prometheus `/metrics` endpoint.

use paradise::exec::schema::{DataType, Field, Schema};
use paradise::exec::value::Value;
use paradise::exec::{Decluster, TableDef, Tuple};
use paradise::{Paradise, ParadiseConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("paradise-mon-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A two-node instance with one tiny scalar table to query.
fn build_db(cfg: ParadiseConfig) -> Paradise {
    let mut db = Paradise::create(cfg).expect("create");
    db.define_table(TableDef::new(
        "t",
        Schema::new(vec![Field::new("x", DataType::Int)]),
        Decluster::RoundRobin,
    ));
    db.load_table("t", (0..20).map(|i| Tuple::new(vec![Value::Int(i)]))).expect("load");
    db.commit().expect("commit");
    db
}

fn str_col(t: &Tuple, i: usize) -> String {
    match t.get(i).expect("column") {
        Value::Str(s) => s.to_string(),
        other => panic!("expected string column, got {other:?}"),
    }
}

fn int_col(t: &Tuple, i: usize) -> i64 {
    match t.get(i).expect("column") {
        Value::Int(v) => *v,
        other => panic!("expected int column, got {other:?}"),
    }
}

#[test]
fn catalog_metrics_is_node_labelled_and_filters_with_like() {
    let db = build_db(ParadiseConfig::new(fresh_dir("cat"), 2).with_grid_tiles(64));
    let r = db.sql("select * from paradise.metrics").expect("catalog query");
    assert_eq!(r.columns, vec!["name", "node", "value"]);
    let nodes: std::collections::BTreeSet<String> = r.rows.iter().map(|t| str_col(t, 1)).collect();
    assert!(nodes.contains("0") && nodes.contains("1") && nodes.contains("qc"), "{nodes:?}");
    // Per-node rows carry the unprefixed storage metrics…
    assert!(r
        .rows
        .iter()
        .any(|t| str_col(t, 0) == "buffer.capacity" && str_col(t, 1) == "0" && int_col(t, 2) > 0));
    // …and the QC group carries the cluster-wide ones.
    assert!(r.rows.iter().any(|t| str_col(t, 0) == "net.bytes" && str_col(t, 1) == "qc"));
    // The load-time tile codec counters are registered once, for the QC.
    for name in ["array.tiles_compressed", "array.tiles_raw", "array.tile_bytes_in"] {
        let at: Vec<String> =
            r.rows.iter().filter(|t| str_col(t, 0) == name).map(|t| str_col(t, 1)).collect();
        assert_eq!(at, vec!["qc"], "{name}");
    }

    // LIKE narrows by metric name, per node.
    let r = db.sql("select * from paradise.metrics where name like 'wal%'").expect("like");
    assert!(!r.rows.is_empty());
    assert!(r.rows.iter().all(|t| str_col(t, 0).starts_with("wal")), "LIKE leak");
    let wal_nodes: std::collections::BTreeSet<String> =
        r.rows.iter().map(|t| str_col(t, 1)).collect();
    assert_eq!(wal_nodes.into_iter().collect::<Vec<_>>(), vec!["0", "1"]);

    // The catalog composes with EXPLAIN like any other table.
    let r = db.sql("explain select * from paradise.metrics").expect("explain");
    let text: String = r.rows.iter().map(|t| str_col(t, 0) + "\n").collect();
    assert!(text.contains("CatalogScan paradise.metrics"), "{text}");
    assert!(text.contains("stats pull per node"), "{text}");
}

#[test]
fn catalog_buffer_pool_and_streams_shapes() {
    let db = build_db(ParadiseConfig::new(fresh_dir("bp"), 3).with_grid_tiles(64));
    db.sql("select * from t").expect("warm-up scan");
    let r = db.sql("select * from paradise.buffer_pool order by node").expect("buffer_pool");
    assert_eq!(r.rows.len(), 3, "one row per node");
    assert_eq!(r.columns[0], "node");
    for (i, row) in r.rows.iter().enumerate() {
        assert_eq!(str_col(row, 0), i.to_string());
        assert!(int_col(row, 1) > 0, "capacity");
    }
    // Charge some deterministic cross-node traffic, then read it back.
    db.cluster().net.ship(128);
    let r = db.sql("select * from paradise.streams").expect("streams");
    assert_eq!(r.rows.len(), 1);
    assert_eq!(
        r.columns,
        vec!["streams_opened", "net_bytes", "net_tuples", "wire_bytes_sent", "wire_frames_sent"]
    );
    assert!(int_col(&r.rows[0], 1) >= 128, "net_bytes");
    // The warm-up scan shipped its 20 rows to the QC, plus the one above.
    assert_eq!(int_col(&r.rows[0], 2), 21, "net_tuples");
}

#[test]
fn query_history_records_evicts_and_reports_errors() {
    let db = build_db(
        ParadiseConfig::new(fresh_dir("hist"), 2).with_grid_tiles(64).with_history_capacity(3),
    );
    for i in 0..4 {
        db.sql(&format!("select * from t where x = {i}")).expect("query");
    }
    // Failures are recorded too (with the error as status).
    assert!(db.sql("select * from t where nope = 1").is_err());
    let recs = db.history().records();
    assert_eq!(recs.len(), 3, "ring caps at capacity");
    assert_eq!(recs[2].shape, "error");
    assert!(recs[2].status.contains("column nope"), "{:?}", recs[2].status);
    assert_eq!(recs[1].statement, "select * from t where x = 3");
    assert_eq!(recs[1].status, "ok");
    assert_eq!(recs[1].rows, 1);

    // The history is itself SQL-queryable; the reading statement runs
    // before it is recorded, so it does not see itself.
    let r = db.sql("select * from paradise.queries").expect("queries");
    assert_eq!(r.rows.len(), 3);
    let statements: Vec<String> = r.rows.iter().map(|t| str_col(t, 1)).collect();
    assert!(statements.iter().any(|s| s == "select * from t where x = 3"), "{statements:?}");
    assert!(statements.iter().all(|s| s != "select * from paradise.queries"));
}

#[test]
fn slow_query_log_flags_only_slow_statements() {
    let db = build_db(
        ParadiseConfig::new(fresh_dir("slow"), 2)
            .with_grid_tiles(64)
            .with_slow_query_threshold(Duration::from_micros(1)),
    );
    db.cluster().events().set_enabled(true);
    db.sql("select * from t where x = 7").expect("slow by construction");
    let slow = db.history().slow_queries();
    assert_eq!(slow.len(), 1);
    assert!(slow[0].slow);
    let events = db.cluster().events().of_kind("slow_query");
    assert_eq!(events.len(), 1);
    assert!(events[0].line.contains("select * from t where x = 7"), "{}", events[0].line);

    // Raise the threshold out of reach: nothing new is flagged.
    db.history().set_slow_threshold(Some(Duration::from_secs(3600)));
    db.sql("select * from t where x = 8").expect("fast");
    assert_eq!(db.history().slow_queries().len(), 1);
    assert_eq!(db.cluster().events().of_kind("slow_query").len(), 1);
    // The SQL-visible flag agrees.
    let r = db.sql("select * from paradise.queries").expect("queries");
    let slow_count = r.rows.iter().filter(|t| int_col(t, 8) == 1).count();
    assert_eq!(slow_count, 1);
}

#[test]
fn event_log_file_captures_structured_jsonl() {
    let dir = fresh_dir("events");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("events.jsonl");
    let db = build_db(
        ParadiseConfig::new(dir.join("db"), 2)
            .with_grid_tiles(64)
            .with_slow_query_threshold(Duration::from_micros(1))
            .with_event_log(&path),
    );
    db.sql("select * from t").expect("query");
    let text = std::fs::read_to_string(&path).expect("event log file");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        assert!(line.starts_with("{") && line.ends_with("}"), "not JSONL: {line}");
        assert!(line.contains("\"ts_us\":"), "{line}");
        assert!(line.contains("\"event\":"), "{line}");
    }
    assert!(text.contains("\"event\":\"phase.start\""), "{text}");
    assert!(text.contains("\"event\":\"slow_query\""), "{text}");
    assert!(text.contains("select * from t"), "{text}");
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
fn metrics_endpoint_serves_prometheus_text() {
    let db = build_db(
        ParadiseConfig::new(fresh_dir("prom"), 2)
            .with_grid_tiles(64)
            .with_metrics_addr("127.0.0.1:0"),
    );
    db.sql("select * from t").expect("traffic");
    let addr = db.metrics_addr().expect("exporter bound");
    let resp = http_get(addr, "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
    let body = resp.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains("# TYPE paradise_buffer_hits_total counter"), "{body}");
    assert!(body.contains("node=\"0\""), "{body}");
    assert!(body.contains("node=\"1\""), "{body}");
    assert!(body.contains("paradise_net_bytes_total{node=\"qc\"}"), "{body}");
    assert!(body.contains("paradise_array_tiles_compressed_total{node=\"qc\"} 0"), "{body}");
    assert!(body.contains("paradise_array_tiles_raw_total{node=\"qc\"} 0"), "{body}");
    // Every exposition line is either a comment or name{labels} value.
    for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        assert!(line.contains("{node=\""), "unlabelled sample: {line}");
        let value = line.rsplit(' ').next().unwrap();
        value.parse::<u64>().unwrap_or_else(|_| panic!("bad value in {line}"));
    }
    // Unknown paths 404; the exporter keeps serving afterwards.
    assert!(http_get(addr, "/nope").starts_with("HTTP/1.1 404"), "404 expected");
    assert!(http_get(addr, "/metrics").starts_with("HTTP/1.1 200"), "still serving");
}
