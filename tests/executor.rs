//! The cluster's executor runs every phase's node fragments concurrently
//! on long-lived threads: outputs merge in node order, the lowest failing
//! node's error wins, a panicking fragment fails only its phase, and two
//! nodes' fragments really run at the same time when the host has the
//! threads for it.

use paradise::exec::metrics::QueryMetrics;
use paradise::exec::phase::run_phase;
use paradise::exec::schema::{DataType, Field, Schema};
use paradise::exec::value::Value;
use paradise::exec::{Decluster, ExecError, TableDef, Tuple};
use paradise::{Paradise, ParadiseConfig};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn db(tag: &str, nodes: usize) -> Paradise {
    let dir = std::env::temp_dir().join(format!("paradise-it-exec-{}-{tag}", std::process::id()));
    let mut db = Paradise::create(ParadiseConfig::new(dir, nodes).with_grid_tiles(64)).unwrap();
    db.define_table(TableDef::new(
        "t",
        Schema::new(vec![Field::new("x", DataType::Int)]),
        Decluster::RoundRobin,
    ));
    db.load_table("t", (0..40).map(|i| Tuple::new(vec![Value::Int(i)]))).unwrap();
    db
}

#[test]
fn outputs_come_back_in_node_order() {
    let db = db("order", 4);
    let mut m = QueryMetrics::default();
    // Node 0 finishes last, node 3 first: the merge order is still 0..4.
    let outs = run_phase(db.cluster(), &mut m, "staggered", |node| {
        std::thread::sleep(Duration::from_millis(5 * (4 - node as u64)));
        Ok(vec![node; node + 1])
    })
    .unwrap();
    assert_eq!(outs, vec![vec![0], vec![1, 1], vec![2, 2, 2], vec![3, 3, 3, 3]]);
    let p = &m.phases[0];
    assert_eq!(p.node_rows, Some(vec![1, 2, 3, 4]));
    assert!(p.node_busy[0] >= Duration::from_millis(20), "node 0's busy: {:?}", p.node_busy);
    assert!(p.wall >= p.critical());
}

#[test]
fn the_lowest_failing_node_reports_its_error() {
    let db = db("errors", 4);
    let mut m = QueryMetrics::default();
    // Node 1 fails only after node 3 has failed (when another thread runs
    // node 3; alone, it waits out a timeout): node 1's error is the one
    // returned, as a serial loop over the nodes would report it.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
    let err = run_phase(db.cluster(), &mut m, "failing", move |node| match node {
        1 => {
            let _ = rx.lock().unwrap().recv_timeout(Duration::from_secs(5));
            Err(ExecError::Other("node 1 failed".into()))
        }
        3 => {
            let _ = tx.lock().unwrap().send(());
            Err(ExecError::Other("node 3 failed".into()))
        }
        _ => Ok(()),
    })
    .unwrap_err();
    assert_eq!(err.to_string(), "node 1 failed");
    assert!(m.phases.is_empty(), "a failed phase records no phase");
}

#[test]
fn a_panicking_fragment_fails_its_phase_and_the_next_statement_runs() {
    let db = db("panic", 4);
    for _ in 0..3 {
        let mut m = QueryMetrics::default();
        let err = run_phase(db.cluster(), &mut m, "boom", |node| {
            if node == 2 {
                panic!("fragment {node} gave up");
            }
            Ok(node)
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("node 2") && msg.contains("fragment 2 gave up"), "{msg}");
        let rows = db.sql("select x from t where x < 10").expect("the executor stays usable").rows;
        assert_eq!(rows.len(), 10);
    }
}

#[test]
fn two_nodes_fragments_run_at_the_same_time() {
    let db = db("meet", 2);
    let threads = db.cluster().workers().workers();
    if threads < 2 {
        eprintln!(
            "skipped: the executor has {threads} thread on this host, so fragments cannot meet"
        );
        return;
    }
    // A barrier with a timeout: each fragment arrives and waits for the
    // other. Run one after another, the first would time out alone.
    let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
    let mut m = QueryMetrics::default();
    let met = run_phase(db.cluster(), &mut m, "meet", move |_| {
        let (arrived, cv) = &*gate;
        let mut n = arrived.lock().unwrap();
        *n += 1;
        cv.notify_all();
        let (n, timeout) = cv.wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2).unwrap();
        Ok(usize::from(*n == 2 && !timeout.timed_out()))
    })
    .unwrap();
    assert_eq!(met, vec![1, 1], "the two fragments never overlapped");
    assert_eq!(m.phases[0].morsels, 1, "one fragment ran on a helper thread");
}
