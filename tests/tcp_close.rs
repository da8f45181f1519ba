//! The TCP stream close handshake. A sender that closed its socket while
//! the receiver was still returning credits drew a RST, which could discard
//! the EOS in flight: the exchange then failed with "sender closed
//! connection before EOS" or "Connection reset by peer". Batches just over
//! the credit window keep credits flowing while each sender finishes.

use paradise::exec::cluster::{Cluster, ClusterConfig, Transport};
use paradise::exec::phase::exchange;
use paradise::exec::stream::DEFAULT_WINDOW;
use paradise::exec::value::Value;
use paradise::exec::Tuple;
use paradise::net::TcpTransport;

#[test]
fn back_to_back_exchanges_deliver_every_stream_to_its_eos() {
    let mut cluster = Cluster::create(&ClusterConfig::for_test(4, "close")).expect("cluster");
    let transport = TcpTransport::serve(cluster.nodes()).expect("serve");
    cluster.set_transport(Transport::Tcp(transport));
    let endpoints = cluster.coordinator_id() + 1;
    let per_batch = DEFAULT_WINDOW + 44;
    let opened = || cluster.obs().get("exec.streams_opened").expect("streams_opened counter");
    let opened0 = opened();
    let tuple =
        |src: usize, i: usize| Tuple::new(vec![Value::Int(src as i64), Value::Int(i as i64)]);
    for round in 0..40 {
        // Every endpoint sends one batch to every other endpoint.
        let outbox: Vec<Vec<(usize, Tuple)>> = (0..endpoints)
            .map(|src| {
                (0..endpoints)
                    .filter(|&dst| dst != src)
                    .flat_map(|dst| (0..per_batch).map(move |i| (dst, tuple(src, i))))
                    .collect()
            })
            .collect();
        let inbox = exchange(&cluster, outbox).unwrap_or_else(|e| panic!("round {round}: {e}"));
        for (dst, got) in inbox.iter().enumerate() {
            let want: Vec<Tuple> = (0..endpoints)
                .filter(|&src| src != dst)
                .flat_map(|src| (0..per_batch).map(move |i| tuple(src, i)))
                .collect();
            assert!(*got == want, "round {round}: endpoint {dst} got a different inbox");
        }
    }
    // One stream per (src, dst) pair of distinct endpoints, per round, and
    // each is published in the cluster registry.
    assert_eq!(opened() - opened0, 40 * (endpoints * (endpoints - 1)) as u64);
    cluster.shutdown_transport();
}
