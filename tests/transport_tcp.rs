//! Loopback integration tests for the TCP transport (`paradise-net`).
//!
//! The contract under test: switching the cluster from `Transport::Local`
//! to `Transport::Tcp` must be invisible to queries — byte-identical
//! results and identical `QueryMetrics` network accounting — while the
//! tuples really do cross sockets (proved by the wire-level counters).
//! Timeout/retry behaviour is covered by stalling a receiver and by
//! killing a data server.

use paradise::exec::cluster::{Cluster, ClusterConfig, Transport};
use paradise::exec::value::Date;
use paradise::exec::value::Value;
use paradise::exec::{Tuple, WireTransport};
use paradise::geom::Point;
use paradise::net::{NetConfig, TcpTransport};
use paradise::{queries, Paradise, ParadiseConfig, TransportKind};
use paradise_datagen::tables::{
    self, drainage_table, land_cover_table, populated_places_table, raster_table, roads_table,
    World, WorldSpec, LARGE_CITY, OIL_FIELD, QUERY_CHANNEL,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("paradise-tcp-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Benchmark-shaped database: all five Sequoia tables with the name index
/// and the landCover R-tree, loaded from the same deterministic tiny world
/// either side.
fn build_db(tag: &str, world: &World, kind: TransportKind) -> Paradise {
    let mut db = Paradise::create(
        ParadiseConfig::new(fresh_dir(tag), 2)
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
    db.load_table("raster", world.rasters.iter().cloned()).expect("load rasters");
    db.load_table("populatedPlaces", world.populated_places.iter().cloned()).expect("load places");
    db.load_table("roads", world.roads.iter().cloned()).expect("load roads");
    db.load_table("drainage", world.drainage.iter().cloned()).expect("load drainage");
    db.load_table("landCover", world.land_cover.iter().cloned()).expect("load landCover");
    db.create_btree_index("populatedPlaces", queries::PP_NAME).expect("name index");
    db.create_rtree_index("landCover", queries::LC_SHAPE).expect("landCover rtree");
    db.commit().expect("commit");
    db
}

fn encoded_rows(rows: &[Tuple]) -> Vec<Vec<u8>> {
    rows.iter().map(Tuple::encode).collect()
}

type Query<'a> = (&'static str, Box<dyn Fn(&Paradise) -> paradise::QueryResult + 'a>);

/// Q2, Q6, Q9 and Q14 (raster clip, spatial index scan, polygon-clipped
/// rasters — the benchmark shapes that stress tuple shipping and remote
/// tile pulls) must return identical rows and identical network accounting
/// under both transports.
#[test]
fn q2_q6_identical_results_and_accounting_across_transports() {
    let world = World::generate(WorldSpec::tiny(7));
    let us = tables::us_polygon();
    let d = tables::query_date();
    let local = build_db("local", &world, TransportKind::Local);
    let tcp = build_db("tcp", &world, TransportKind::Tcp);

    let runs: Vec<Query> = vec![
        ("q2", Box::new(|db| queries::q2(db, QUERY_CHANNEL, &us).expect("q2"))),
        ("q6", Box::new(|db| queries::q6(db, &us).expect("q6"))),
        ("q9", Box::new(move |db| queries::q9(db, d, QUERY_CHANNEL, OIL_FIELD).expect("q9"))),
        (
            "q14",
            Box::new(move |db| {
                queries::q14(db, d, Date(d.0 + 270), QUERY_CHANNEL, OIL_FIELD).expect("q14")
            }),
        ),
    ];
    for (name, run) in &runs {
        let a = run(&local);
        let b = run(&tcp);
        assert_eq!(a.columns, b.columns, "{name}: column mismatch");
        // Structural equality sees what the encoding carries and more: a
        // raster's clip mask is part of `Raster`'s equality.
        assert!(a.rows == b.rows, "{name}: rows differ between Local and Tcp");
        assert_eq!(
            encoded_rows(&a.rows),
            encoded_rows(&b.rows),
            "{name}: rows differ between Local and Tcp"
        );
        assert!(!a.rows.is_empty(), "{name}: degenerate (empty) result");
        // Satellite: accounting happens at the transport-independent choke
        // point, so both transports must report *identical* traffic.
        assert_eq!(a.metrics.net_bytes, b.metrics.net_bytes, "{name}: net_bytes");
        assert_eq!(a.metrics.net_tuples, b.metrics.net_tuples, "{name}: net_tuples");
        assert_eq!(a.metrics.pulls, b.metrics.pulls, "{name}: pulls");
        assert_eq!(a.metrics.pull_bytes, b.metrics.pull_bytes, "{name}: pull_bytes");
        // Shipping results to the QC is charged, so a non-empty result
        // implies non-zero traffic.
        assert!(a.metrics.net_bytes > 0, "{name}: expected cross-node traffic");
        assert!(a.metrics.net_tuples >= a.rows.len() as u64, "{name}: QC rows under-counted");
        // Per-operator parity: every measured phase must agree on its
        // shape, row counts, and buffer/network activity across
        // transports — the observability pipeline may not see different
        // work just because tuples crossed a socket.
        assert_eq!(a.metrics.phases.len(), b.metrics.phases.len(), "{name}: phase count");
        for (pa, pb) in a.metrics.phases.iter().zip(&b.metrics.phases) {
            assert_eq!(pa.name, pb.name, "{name}: phase name");
            assert_eq!(pa.node_busy.len(), pb.node_busy.len(), "{name}/{}: nodes", pa.name);
            assert_eq!(pa.node_rows, pb.node_rows, "{name}/{}: per-node rows", pa.name);
            assert_eq!(pa.net.bytes, pb.net.bytes, "{name}/{}: phase net bytes", pa.name);
            assert_eq!(pa.net.tuples, pb.net.tuples, "{name}/{}: phase net tuples", pa.name);
            assert_eq!(
                (pa.buffer.hits + pa.buffer.misses),
                (pb.buffer.hits + pb.buffer.misses),
                "{name}/{}: buffer requests",
                pa.name
            );
        }
        // Both registries expose the same logical traffic…
        for key in ["net.bytes", "net.tuples", "net.pulls"] {
            assert_eq!(
                local.obs().get(key),
                tcp.obs().get(key),
                "{name}: registry {key} differs across transports"
            );
        }
    }
    // …while only the TCP side saw wire-level frames.
    assert!(local.obs().get("net.wire.bytes_sent").is_none(), "Local has no wire metrics");
    assert!(tcp.obs().get("net.wire.bytes_sent").unwrap() > 0, "no bytes crossed sockets");
    assert!(tcp.obs().get("net.wire.frames_sent").unwrap() > 0, "no frames crossed sockets");
}

fn test_tuple(i: i64) -> Tuple {
    Tuple::new(vec![Value::Int(i), Value::Str(format!("row-{i}"))])
}

/// Tuples sent through `Transport::Tcp` really cross a socket: the
/// wire-level byte counter must exceed the logical payload.
#[test]
fn tuples_really_flow_over_sockets() {
    let mut cluster = Cluster::create(&ClusterConfig::for_test(2, "wire-proof")).expect("cluster");
    let transport = TcpTransport::serve(cluster.nodes()).expect("serve");
    cluster.set_transport(Transport::Tcp(transport.clone()));

    let (tx, rx) = cluster.stream(4, 0, 1).expect("open stream");
    let payload: usize = (0..32).map(|i| test_tuple(i).wire_size()).sum();
    let sender = std::thread::spawn(move || {
        for i in 0..32 {
            tx.send(test_tuple(i)).expect("send");
        }
    });
    let got = rx.collect();
    sender.join().expect("sender thread");
    assert_eq!(got.len(), 32);
    assert_eq!(got[7], test_tuple(7));

    let wire = transport.wire_stats();
    let bytes = wire.bytes_sent.load(std::sync::atomic::Ordering::Relaxed);
    let frames = wire.frames_sent.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        bytes as usize > payload,
        "wire bytes ({bytes}) must exceed logical payload ({payload})"
    );
    // 32 tuple frames + OpenStream + Eos at minimum.
    assert!(frames >= 34, "expected >= 34 frames, saw {frames}");
    // Logical accounting saw the same traffic the Local path would.
    let d = cluster.net.snapshot();
    assert_eq!(d.tuples, 32);
    assert_eq!(d.bytes, payload as u64);
    cluster.shutdown_transport();
}

/// A stalled consumer (nobody pops the inbox) exhausts the credit window;
/// the sender must fail in bounded time instead of hanging.
#[test]
fn stalled_receiver_times_out_sender_in_bounded_time() {
    let cluster = {
        let mut c = Cluster::create(&ClusterConfig::for_test(2, "stall")).expect("cluster");
        let t = TcpTransport::serve_with(c.nodes(), NetConfig::fast_fail()).expect("serve");
        c.set_transport(Transport::Tcp(t));
        c
    };
    let (tx, rx) = cluster.stream(2, 0, 1).expect("open stream");
    let t0 = Instant::now();
    let mut err = None;
    // Window is 2 and the receiver never pops: the third send (at the
    // latest) must hit the flow-control timeout.
    for i in 0..8 {
        if let Err(e) = tx.send(test_tuple(i)) {
            err = Some(e);
            break;
        }
    }
    let elapsed = t0.elapsed();
    let err = err.expect("sender should fail once the window is exhausted");
    assert!(err.to_string().contains("flow-control timeout"), "unexpected error: {err}");
    assert!(elapsed < Duration::from_secs(10), "sender took {elapsed:?}; timeout is not bounded");
    drop(rx);
    cluster.shutdown_transport();
}

/// Killing the data servers mid-flight: opening a new stream must give up
/// after a bounded number of connect retries, not spin forever.
#[test]
fn killed_data_server_fails_with_bounded_retries() {
    let mut cluster = Cluster::create(&ClusterConfig::for_test(2, "kill")).expect("cluster");
    let transport =
        TcpTransport::serve_with(cluster.nodes(), NetConfig::fast_fail()).expect("serve");
    let victim = transport.addr(1).expect("node 1 address");
    cluster.set_transport(Transport::Tcp(transport.clone()));

    // Kill every data server (the transport-level "pull the plug").
    transport.shutdown();

    let t0 = Instant::now();
    let err = paradise::net::conn::connect_with_retry(victim, &NetConfig::fast_fail())
        .expect_err("connecting to a killed data server must fail");
    assert!(err.to_string().contains("unreachable after"), "unexpected error: {err}");
    assert!(t0.elapsed() < Duration::from_secs(10), "retry loop not bounded");

    // The engine-level path reports the shutdown instead of hanging.
    let open = cluster.stream(4, 0, 1);
    assert!(open.is_err(), "opening a stream on a dead transport must fail");
}

/// Acceptance: `select * from paradise.metrics` on a TCP cluster returns
/// per-node rows pulled over the wire (StatsPull/StatsReply), and the
/// QC's wire-counter rows agree with the transport's own `WireStats`.
#[test]
fn catalog_metrics_over_tcp_reflects_wire_stats() {
    let world = World::generate(WorldSpec::tiny(11));
    let db = build_db("catalog", &world, TransportKind::Tcp);
    // Generate real wire traffic first.
    queries::q2(&db, QUERY_CHANNEL, &tables::us_polygon()).expect("q2");

    let before = db.obs().get("net.wire.bytes_sent").expect("wire counter");
    let r = db.sql("select * from paradise.metrics").expect("catalog over tcp");
    let after = db.obs().get("net.wire.bytes_sent").expect("wire counter");
    assert!(after > before, "the stats pull itself must cross the wire");

    let cell = |t: &Tuple, i: usize| match t.get(i).expect("col") {
        Value::Str(s) => s.clone(),
        other => panic!("expected string, got {other:?}"),
    };
    let val = |t: &Tuple, i: usize| match t.get(i).expect("col") {
        Value::Int(v) => *v as u64,
        other => panic!("expected int, got {other:?}"),
    };
    // Every data node answered with its own registry rows.
    for node in ["0", "1"] {
        let row = r
            .rows
            .iter()
            .find(|t| cell(t, 0) == "buffer.capacity" && cell(t, 1) == node)
            .unwrap_or_else(|| panic!("no buffer.capacity row for node {node}"));
        assert!(val(row, 2) > 0, "node {node} capacity");
    }
    // The QC row for the wire counter is bracketed by the direct
    // before/after readings of the same counter.
    let wire_row = r
        .rows
        .iter()
        .find(|t| cell(t, 0) == "net.wire.bytes_sent" && cell(t, 1) == "qc")
        .expect("wire counter row");
    let v = val(wire_row, 2);
    assert!(v >= before && v <= after, "wire row {v} outside [{before}, {after}]");
}

/// Every tuple a query charges as network traffic really crossed a socket
/// under Tcp: `net_tuples` equals the change in the transport's count of
/// tuple frames written, for each Sequoia query that moves tuples between
/// endpoints (collection, broadcast from the QC, repartitioning).
#[test]
fn charged_tuples_are_the_tuples_framed_onto_sockets() {
    let world = World::generate(WorldSpec::tiny(13));
    let db = build_db("honest", &world, TransportKind::Tcp);
    let us = tables::us_polygon();
    let d = tables::query_date();
    let runs: Vec<Query> = vec![
        ("q2", Box::new(|db| queries::q2(db, QUERY_CHANNEL, &us).expect("q2"))),
        ("q3", Box::new(|db| queries::q3(db, d, &us, false).expect("q3"))),
        ("q3 declustered", Box::new(|db| queries::q3(db, d, &us, true).expect("q3"))),
        ("q6", Box::new(|db| queries::q6(db, &us).expect("q6"))),
        ("q8", Box::new(|db| queries::q8(db, "Louisville", 8.0).expect("q8"))),
        ("q9", Box::new(move |db| queries::q9(db, d, QUERY_CHANNEL, OIL_FIELD).expect("q9"))),
        ("q11", Box::new(|db| queries::q11(db, Point::new(-89.4, 43.1)).expect("q11"))),
        ("q12", Box::new(|db| queries::q12(db, LARGE_CITY, true).expect("q12"))),
        ("q12 broadcast", Box::new(|db| queries::q12(db, LARGE_CITY, false).expect("q12"))),
        (
            "q14",
            Box::new(move |db| {
                queries::q14(db, d, Date(d.0 + 270), QUERY_CHANNEL, OIL_FIELD).expect("q14")
            }),
        ),
    ];
    let sent = || db.obs().get("net.wire.tuples_sent").expect("wire tuple counter");
    for (name, run) in &runs {
        let before = sent();
        let r = run(&db);
        let framed = sent() - before;
        assert_eq!(r.metrics.net_tuples, framed, "{name}: charged vs framed tuples");
        // Plain Q3 moves only raster tiles (pulls), never tuples.
        assert!(framed > 0 || *name == "q3", "{name}: no tuple crossed a socket");
    }
}
