//! Chaos tests: deterministic fault injection across storage, net, and
//! exec.
//!
//! The contract under test has two halves:
//!
//! * **Durability (commit-point invariant)** — a crash at *any* point of
//!   the redo-only commit protocol loses at most the uncommitted batch:
//!   batches whose commit record reached the WAL always survive replay,
//!   batches that died before the commit point never resurface.
//! * **Availability (never wrong, never wedged)** — under every network
//!   fault schedule (dropped frames, corrupted frames, connection resets,
//!   lost credit grants, dead data servers, poisoned sender threads) a
//!   query either returns byte-identical results or a clean `ExecError`
//!   within bounded time, and the database stays usable for the next
//!   query.
//!
//! Failpoint state is process-global, so every test here serialises on
//! one mutex and disarms on entry.

use paradise::exec::cluster::{Cluster, ClusterConfig, Transport};
use paradise::exec::metrics::QueryMetrics;
use paradise::exec::phase::{exchange, Outbox};
use paradise::exec::value::Value;
use paradise::exec::Tuple;
use paradise::net::{NetConfig, TcpTransport};
use paradise::{queries, Paradise, ParadiseConfig, QueryResult, TransportKind};
use paradise_datagen::tables::{
    self, land_cover_table, populated_places_table, raster_table, World, WorldSpec, QUERY_CHANNEL,
};
use paradise_storage::page::PAGE_SIZE;
use paradise_storage::volume::Volume;
use paradise_storage::wal::Wal;
use paradise_util::failpoint::{self, Policy};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serialises every chaos test: failpoints are process-global, so two
/// tests arming different sites concurrently would see each other's
/// faults. Poison-tolerant — one failed test must not wedge the rest.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let g = GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner());
    failpoint::disarm_all();
    g
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("paradise-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create test dir");
    d
}

// ---------------------------------------------------------------------
// Kill-point torture: the commit-point invariant
// ---------------------------------------------------------------------

/// One run of the redo-only commit protocol, exactly as the engine
/// performs it: page images to the WAL, commit record + sync (the commit
/// point), pages to the volume, sync, truncate.
fn commit_batch(vol: &Volume, wal: &Wal, pid: u64, fill: u8) -> paradise_storage::Result<()> {
    let bytes = [fill; PAGE_SIZE];
    wal.log_commit(&[(pid, &bytes)])?;
    vol.write_page_bytes(pid, &bytes)?;
    vol.sync()?;
    wal.truncate()?;
    Ok(())
}

/// Crash-recovers the pair: reopen both files and replay the WAL, as a
/// restarting data server would.
fn recover(dir: &std::path::Path) -> (Volume, Wal, usize) {
    let vol = Volume::open(dir.join("vol")).expect("reopen volume");
    let wal = Wal::open(dir.join("wal")).expect("reopen wal");
    let redone = wal.replay(&vol).expect("replay");
    (vol, wal, redone)
}

/// Kills the commit protocol at every injection site in turn and checks
/// the invariant: the new batch survives recovery if and only if the
/// crash site is at or after the commit point (the synced commit record).
#[test]
fn kill_point_torture_upholds_commit_point_invariant() {
    let _g = serial();
    // (site, survives): must batch B be visible after crash + replay?
    let cases = [
        ("wal.log_commit", false),         // died before anything was logged
        ("wal.commit_point", false),       // page images logged, no commit record
        ("volume.write_page_bytes", true), // committed, page write lost
        ("volume.sync", true),             // committed, volume sync lost
        ("wal.truncate", true),            // fully durable, cleanup lost
    ];
    for (site, survives) in cases {
        let dir = fresh_dir(&format!("kill-{}", site.replace('.', "-")));
        let pid;
        {
            let vol = Volume::create(dir.join("vol")).expect("create volume");
            pid = vol.alloc_extent().expect("alloc extent");
            let wal = Wal::open(dir.join("wal")).expect("create wal");
            // Batch A commits cleanly; batch B dies at the site.
            commit_batch(&vol, &wal, pid, 0xAA).expect("baseline commit");
            let armed = failpoint::armed(site, Policy::error("injected crash"));
            let err = commit_batch(&vol, &wal, pid, 0xBB)
                .expect_err(&format!("{site}: injected crash must surface"));
            assert!(err.to_string().contains(site), "{site}: error names the site: {err}");
            drop(armed); // crash "happens" here: nothing after the site ran
        }
        let (vol, wal, _) = recover(&dir);
        let expect = if survives { 0xBB } else { 0xAA };
        let page = vol.read_page(pid).expect("read after recovery");
        assert!(
            page.bytes().iter().all(|b| *b == expect),
            "{site}: after crash + replay the page must hold batch {}",
            if survives { "B (committed)" } else { "A (B never committed)" },
        );
        // Replay is idempotent and recovery leaves a writable store.
        wal.replay(&vol).expect("second replay");
        wal.truncate().expect("post-recovery truncate");
        commit_batch(&vol, &wal, pid, 0xCC).expect("store usable after recovery");
        assert!(vol.read_page(pid).unwrap().bytes().iter().all(|b| *b == 0xCC));
    }
}

/// A crash *during* truncate (after the old WAL is unlinked but before
/// its replacement syncs) still recovers: the committed batch already
/// reached the volume, and a fresh WAL accepts the next commit.
#[test]
fn torn_truncate_leaves_replayable_wal() {
    let _g = serial();
    let dir = fresh_dir("torn-truncate");
    let pid;
    {
        let vol = Volume::create(dir.join("vol")).expect("create volume");
        pid = vol.alloc_extent().expect("alloc extent");
        let wal = Wal::open(dir.join("wal")).expect("create wal");
        let bytes = [0xBB; PAGE_SIZE];
        wal.log_commit(&[(pid, &bytes)]).expect("log");
        vol.write_page_bytes(pid, &bytes).expect("write");
        vol.sync().expect("sync");
        // Crash instead of truncating: the WAL keeps the committed batch.
        assert!(!wal.is_empty().unwrap(), "WAL must still hold the batch");
    }
    let (vol, wal, redone) = recover(&dir);
    assert_eq!(redone, 1, "the committed batch replays");
    assert!(vol.read_page(pid).unwrap().bytes().iter().all(|b| *b == 0xBB));
    wal.truncate().expect("recovery truncate");
    assert!(wal.is_empty().unwrap());
}

// ---------------------------------------------------------------------
// Sequoia queries under network fault schedules
// ---------------------------------------------------------------------

fn build_db(tag: &str, world: &World, kind: TransportKind) -> Paradise {
    let mut db = Paradise::create(
        ParadiseConfig::new(fresh_dir(tag), 2)
            .with_grid_tiles(256)
            .with_pool_pages(512)
            .with_transport(kind)
            .with_net(NetConfig::fast_fail()),
    )
    .expect("create cluster");
    db.define_table(raster_table().with_tile_bytes(4096));
    db.define_table(populated_places_table());
    db.define_table(land_cover_table());
    db.load_table("raster", world.rasters.iter().cloned()).expect("load rasters");
    db.load_table("populatedPlaces", world.populated_places.iter().cloned()).expect("load places");
    db.load_table("landCover", world.land_cover.iter().cloned()).expect("load landCover");
    db.create_rtree_index("landCover", queries::LC_SHAPE).expect("landCover rtree");
    db.commit().expect("commit");
    db
}

fn encoded_rows(r: &QueryResult) -> Vec<Vec<u8>> {
    r.rows.iter().map(Tuple::encode).collect()
}

/// Every fault schedule, against the two benchmark shapes that stress the
/// wire hardest (Q2: raster clip + tile pulls; Q6: spatial index scan +
/// gather). The acceptance bar: byte-identical results or a clean error,
/// inside 2× the configured fast-fail timeouts, and the database answers
/// the next disarmed query correctly.
#[test]
fn sequoia_queries_under_fault_schedules_never_wrong_never_wedged() {
    let _g = serial();
    let world = World::generate(WorldSpec::tiny(13));
    let us = tables::us_polygon();
    let db = build_db("sequoia", &world, TransportKind::Tcp);
    db.cluster().events().set_enabled(true);

    let q2 = |db: &Paradise| queries::q2(db, QUERY_CHANNEL, &us);
    let q6 = |db: &Paradise| queries::q6(db, &us);
    let q2_base = encoded_rows(&q2(&db).expect("q2 baseline"));
    let q6_base = encoded_rows(&q6(&db).expect("q6 baseline"));
    assert!(!q2_base.is_empty() && !q6_base.is_empty(), "degenerate baseline");

    let schedules: &[(&str, Policy)] = &[
        // Partition: every outgoing frame silently vanishes.
        ("net.write_frame", Policy::drop_op()),
        // Bit rot on the wire, both directions.
        ("net.write_frame", Policy::corrupt()),
        ("net.read_frame", Policy::corrupt()),
        // Peer resets every connection.
        ("net.read_frame", Policy::error("connection reset")),
        // Every credit grant is lost.
        ("net.credit", Policy::drop_op()),
        // Dead data server: no connection ever succeeds.
        ("net.connect", Policy::error("data server down")),
    ];
    // Generous bound ≥ 2× every fast-fail timeout compounded across the
    // retries and per-stream waits a single query can chain.
    let bound = Duration::from_secs(30);
    for (site, policy) in schedules {
        let armed = failpoint::armed(site, policy.clone());
        for (name, base, run) in [
            ("q2", &q2_base, &q2 as &dyn Fn(&Paradise) -> paradise::exec::Result<QueryResult>),
            ("q6", &q6_base, &q6),
        ] {
            let t0 = Instant::now();
            let out = run(&db);
            let elapsed = t0.elapsed();
            assert!(elapsed < bound, "{name} under {site}: wedged for {elapsed:?}");
            match out {
                Ok(r) => assert_eq!(
                    &encoded_rows(&r),
                    base,
                    "{name} under {site}={policy:?}: WRONG results"
                ),
                Err(e) => {
                    let msg = e.to_string();
                    assert!(!msg.is_empty(), "{name} under {site}: empty error");
                }
            }
        }
        drop(armed);
        // The fault plane disarms cleanly: the very next query is exact.
        let again = q6(&db).expect("query after disarm");
        assert_eq!(encoded_rows(&again), q6_base, "db wedged after {site} schedule");
    }
    // The dead-DS schedule exercised the retry loop, and every injected
    // fault left an audit event via the core-installed observer.
    assert!(!db.cluster().events().of_kind("net.retry").is_empty(), "no net.retry events");
    assert!(!db.cluster().events().of_kind("failpoint").is_empty(), "no failpoint events");
}

fn test_tuple(i: i64) -> Tuple {
    Tuple::new(vec![Value::Int(i), Value::Str(format!("row-{i}").into())])
}

/// Lost credit grants starve the sender's window: the send fails with the
/// flow-control timeout (never hangs) and emits a `flow.stall` event.
#[test]
fn credit_grant_loss_surfaces_flow_stall_not_a_hang() {
    let _g = serial();
    let mut cluster =
        Cluster::create(&ClusterConfig::for_test(2, "chaos-credit")).expect("cluster");
    let cfg = NetConfig { events: Some(cluster.events().clone()), ..NetConfig::fast_fail() };
    let t = TcpTransport::serve_with(cluster.nodes(), cfg).expect("serve");
    cluster.set_transport(Transport::Tcp(t));
    cluster.events().set_enabled(true);

    let armed = failpoint::armed("net.credit", Policy::drop_op());
    let (tx, mut rx) = cluster.stream(2, 0, 1).expect("open stream");
    // The consumer keeps popping, but every credit it returns is dropped:
    // the window (2) never refills and the sender must time out.
    let consumer = std::thread::spawn(move || {
        let mut n = 0u32;
        while rx.recv().is_some() {
            n += 1;
        }
        n
    });
    let t0 = Instant::now();
    let mut err = None;
    for i in 0..16 {
        if let Err(e) = tx.send(test_tuple(i)) {
            err = Some(e);
            break;
        }
    }
    let elapsed = t0.elapsed();
    let err = err.expect("sender must fail once the starved window empties");
    assert!(err.to_string().contains("flow-control timeout"), "unexpected error: {err}");
    assert!(elapsed < Duration::from_secs(10), "sender wedged for {elapsed:?}");
    drop(tx);
    let _ = consumer.join();
    drop(armed);
    assert!(!cluster.events().of_kind("flow.stall").is_empty(), "no flow.stall event");
    cluster.shutdown_transport();
}

/// A poisoned sender thread fails its phase with a clean error naming the
/// site, and the cluster keeps serving: the next exchange is exact.
#[test]
fn poisoned_sender_fails_phase_cleanly_and_cluster_stays_usable() {
    let _g = serial();
    let world = World::generate(WorldSpec::tiny(17));
    let us = tables::us_polygon();
    let db = build_db("poison", &world, TransportKind::Tcp);
    let base = encoded_rows(&queries::q6(&db, &us).expect("baseline"));

    // Result collection: one poisoned node fails the whole query…
    let armed = failpoint::armed("exec.route_send", Policy::error_once("node poisoned"));
    let err = queries::q6(&db, &us).expect_err("poisoned collect must fail the query");
    assert!(err.to_string().contains("exec.route_send"), "unexpected error: {err}");
    drop(armed);
    // …and the database is immediately usable again.
    assert_eq!(encoded_rows(&queries::q6(&db, &us).expect("after poison")), base);

    // Repartition: same contract on a node-to-node exchange.
    let outbox =
        |n: i64| vec![Outbox::to(1, vec![test_tuple(n)]), Outbox::to(0, vec![test_tuple(n + 1)])];
    let armed = failpoint::armed("exec.route_send", Policy::error("node poisoned"));
    let err = exchange(db.cluster(), &mut QueryMetrics::default(), "route", outbox(1))
        .expect_err("poisoned exchange must fail the phase");
    assert!(err.to_string().contains("exec.route_send"), "unexpected error: {err}");
    drop(armed);
    let inbox = exchange(db.cluster(), &mut QueryMetrics::default(), "route", outbox(10))
        .expect("exchange after poison");
    assert_eq!(inbox[0].len() + inbox[1].len(), 2, "exchange works again once disarmed");
}

/// Names of every temporary file left in any node's store.
fn temp_files(db: &Paradise) -> Vec<String> {
    let mut names: Vec<String> =
        db.cluster().nodes().iter().flat_map(|n| n.store.names()).collect();
    names.retain(|n| n.contains("__tmp_"));
    names
}

/// A query that fails midway still drops the temporary files it created:
/// Q4's and Q6's result relations and Q10's operator-scoped file. A tiny
/// buffer pool forces page write-back while they fill, so a failing page
/// write fails the query inside the temporary's lifetime.
#[test]
fn failed_queries_drop_their_temporary_files() {
    let _g = serial();
    let world = World::generate(WorldSpec::tiny(19));
    let us = tables::us_polygon();
    let mut db = Paradise::create(
        ParadiseConfig::new(fresh_dir("tmp-cleanup"), 2).with_grid_tiles(256).with_pool_pages(16),
    )
    .expect("create cluster");
    db.define_table(raster_table().with_tile_bytes(4096));
    db.define_table(land_cover_table());
    db.load_table("raster", world.rasters.iter().cloned()).expect("load rasters");
    db.load_table("landCover", world.land_cover.iter().cloned()).expect("load landCover");
    db.create_rtree_index("landCover", queries::LC_SHAPE).expect("landCover rtree");
    db.commit().expect("commit");
    let d = tables::query_date();

    let armed = failpoint::armed("volume.write_page", Policy::error("disk full"));
    queries::q4(&db, d, QUERY_CHANNEL, &us, 8).expect_err("q4 with failing page writes");
    queries::q6(&db, &us).expect_err("q6 with failing page writes");
    queries::q10(&db, &us, 0.0).expect_err("q10 with failing page writes");
    drop(armed);
    assert_eq!(temp_files(&db), Vec::<String>::new(), "temporaries left after failed queries");
    // The next queries succeed and leave nothing behind either.
    queries::q4(&db, d, QUERY_CHANNEL, &us, 8).expect("q4 after disarm");
    queries::q10(&db, &us, 0.0).expect("q10 after disarm");
    assert_eq!(temp_files(&db), Vec::<String>::new());
}

// ---------------------------------------------------------------------
// Disarmed cost
// ---------------------------------------------------------------------

/// The zero-cost claim, as a smoke bound: a disarmed site is one relaxed
/// atomic load, so even an unoptimised build must stay far under a
/// microsecond per check.
#[test]
fn disarmed_failpoint_checks_are_nearly_free() {
    let _g = serial();
    let n = 2_000_000u32;
    let t0 = Instant::now();
    for _ in 0..n {
        assert!(failpoint::trigger("chaos.hot.site").is_none());
    }
    let per_ns = t0.elapsed().as_nanos() / u128::from(n);
    assert!(per_ns < 1_000, "disarmed trigger() costs {per_ns} ns — fast path is broken");
    assert_eq!(failpoint::fired("chaos.hot.site"), 0);
}

/// The env-var arming path used by CI's smoke job: a spec string arms
/// real sites, faults fire, and disarming restores normal service.
#[test]
fn spec_string_arms_and_disarms_sites() {
    let _g = serial();
    let n = failpoint::arm_from_spec("net.connect=error(env fault);wal.truncate=delay(1)")
        .expect("valid spec");
    assert_eq!(n, 2);
    let err = paradise::net::conn::connect_with_retry(
        "127.0.0.1:1".parse().unwrap(),
        &NetConfig::fast_fail(),
    )
    .expect_err("armed net.connect must fail every attempt");
    assert!(err.to_string().contains("injected fault"), "unexpected error: {err}");
    failpoint::disarm_all();
    assert!(failpoint::trigger("net.connect").is_none());
}
