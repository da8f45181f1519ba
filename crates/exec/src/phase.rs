//! The measured phase driver.
//!
//! A query is a sequence of *phases*. Within a phase every node processes
//! its fragment independently (shared-nothing); between phases
//! [`exchange`] moves tuples between endpoints (repartitioning, broadcast
//! from the query coordinator, collection at the coordinator). The
//! driver executes node fragments one after another on the host, measuring
//! each node's busy time; [`crate::metrics::QueryMetrics::simulated_time`]
//! then reconstructs the parallel execution time as the per-phase critical
//! path — the paper's cost model with one CPU per node.

use crate::cluster::{Cluster, Transport};
use crate::metrics::{PhaseTimes, QueryMetrics};
use crate::tuple::Tuple;
use crate::{ExecError, NodeId, Result};
use std::time::Instant;

/// Output cardinality of a phase's per-node result, for automatic
/// per-operator row accounting in [`run_phase`].
///
/// Row-shaped outputs (`Vec`, `HashMap`) report their length; opaque
/// outputs (indexes, scalars, composites) report `None`, which marks the
/// whole phase's cardinality as not-row-shaped rather than as zero.
pub trait RowCounted {
    /// Number of rows in this output, if it is row-shaped.
    fn row_count(&self) -> Option<u64> {
        None
    }
}

impl<T> RowCounted for Vec<T> {
    fn row_count(&self) -> Option<u64> {
        Some(self.len() as u64)
    }
}

impl<K, V, S> RowCounted for std::collections::HashMap<K, V, S> {
    fn row_count(&self) -> Option<u64> {
        Some(self.len() as u64)
    }
}

impl RowCounted for usize {}
impl RowCounted for () {}
impl<A, B> RowCounted for (A, B) {}

/// Runs one parallel phase: `work(node_id)` for every node, recording
/// per-node busy time into `metrics` under `name`, together with the
/// phase's output cardinality, the cross-node traffic and the (summed)
/// buffer-pool activity charged while it ran. Each node's fragment also
/// runs under a trace span on that node's lane, so `EXPLAIN ANALYZE`
/// renders one Chrome-trace track per node. Returns each node's output.
pub fn run_phase<O: RowCounted>(
    cluster: &Cluster,
    metrics: &mut QueryMetrics,
    name: &str,
    mut work: impl FnMut(NodeId) -> Result<O>,
) -> Result<Vec<O>> {
    cluster.events().emit("phase.start", &[("phase", name.into())]);
    let net0 = cluster.net.snapshot();
    let buf0 = cluster.buffer_stats_total();
    let pool = cluster.workers();
    let pool0 = pool.snapshot();
    let mut busy = Vec::with_capacity(cluster.num_nodes());
    let mut outs = Vec::with_capacity(cluster.num_nodes());
    let mut rows = Vec::with_capacity(cluster.num_nodes());
    let mut countable = true;
    for id in 0..cluster.num_nodes() {
        let span = cluster.trace().span(name, id as u32);
        let t0 = Instant::now();
        let out = work(id)?;
        busy.push(t0.elapsed());
        drop(span);
        match out.row_count() {
            Some(n) => rows.push(n),
            None => countable = false,
        }
        outs.push(out);
    }
    let pool_delta = pool.snapshot().since(&pool0);
    metrics.push_phase_record(PhaseTimes {
        name: name.to_string(),
        node_busy: busy,
        node_rows: countable.then_some(rows),
        net: cluster.net.since(net0),
        buffer: cluster.buffer_stats_total().since(buf0),
        morsels: pool_delta.morsels,
        worker_busy: std::time::Duration::from_nanos(pool_delta.busy_ns),
    });
    Ok(outs)
}

/// Runs a sequential (coordinator-side) step, accumulating its time into
/// `metrics.sequential` — e.g. the single global-aggregate operator of Q12
/// that the paper calls out as "a sequential portion of the query".
pub fn run_sequential<O>(
    metrics: &mut QueryMetrics,
    work: impl FnOnce() -> Result<O>,
) -> Result<O> {
    let t0 = Instant::now();
    let out = work()?;
    metrics.sequential += t0.elapsed();
    Ok(out)
}

/// Moves tuples between cluster endpoints — the one way a tuple crosses a
/// node boundary. Endpoints are the data-server nodes `0..n` plus the query
/// coordinator `n` ([`Cluster::coordinator_id`]), so the same call
/// repartitions (node → node), broadcasts (QC → nodes) and collects
/// (nodes → QC). `outbox[src]` lists the `(dest, tuple)` pairs endpoint
/// `src` emits; it may be shorter than `n + 1` when the QC sends nothing.
/// Returns one inbox per endpoint (`n + 1` of them), each holding its
/// tuples in source order, then emission order, under every transport.
///
/// Under [`Transport::Local`] tuples move by ownership; under `Tcp` each
/// `(src, dst)` batch between distinct endpoints travels through its own
/// flow-controlled wire stream. Both charge every tuple that crosses an
/// endpoint boundary, and only those, to [`crate::cluster::NetStats`].
pub fn exchange(cluster: &Cluster, outbox: Vec<Vec<(NodeId, Tuple)>>) -> Result<Vec<Vec<Tuple>>> {
    let endpoints = cluster.coordinator_id() + 1;
    if outbox.len() > endpoints {
        return Err(ExecError::Other(format!(
            "exchange: {} sources for {endpoints} endpoints",
            outbox.len()
        )));
    }
    // batches[src][dst], in emission order.
    let mut batches: Vec<Vec<Vec<Tuple>>> = Vec::with_capacity(outbox.len());
    for msgs in outbox {
        let mut per_dst: Vec<Vec<Tuple>> = (0..endpoints).map(|_| Vec::new()).collect();
        for (dst, tuple) in msgs {
            per_dst
                .get_mut(dst)
                .ok_or_else(|| ExecError::Other(format!("exchange: no endpoint {dst}")))?
                .push(tuple);
        }
        batches.push(per_dst);
    }
    let local = matches!(cluster.transport(), Transport::Local);
    if !local {
        ship_over_wire(cluster, &mut batches)?;
    }
    let mut inbox: Vec<Vec<Tuple>> = (0..endpoints).map(|_| Vec::new()).collect();
    for (src, per_dst) in batches.into_iter().enumerate() {
        for (dst, batch) in per_dst.into_iter().enumerate() {
            if local && dst != src {
                for t in &batch {
                    cluster.net.ship(t.wire_size());
                }
            }
            inbox[dst].extend(batch);
        }
    }
    Ok(inbox)
}

/// The `Tcp` body of [`exchange`]: sends every non-empty batch between
/// distinct endpoints over its own stream and replaces it with what the
/// receiver got. Same-endpoint batches stay where they are.
fn ship_over_wire(cluster: &Cluster, batches: &mut [Vec<Vec<Tuple>>]) -> Result<()> {
    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for (src, per_dst) in batches.iter_mut().enumerate() {
        for (dst, batch) in per_dst.iter_mut().enumerate() {
            if dst == src || batch.is_empty() {
                continue;
            }
            let batch = std::mem::take(batch);
            let (tx, rx) = cluster.stream(crate::stream::DEFAULT_WINDOW, src, dst)?;
            senders.push(std::thread::spawn(move || -> Result<()> {
                // `exec.route_send` injects a poisoned sender: the
                // endpoint's sending thread dies and the whole exchange
                // must fail cleanly rather than deliver a partial inbox.
                if let Err(msg) = paradise_util::failpoint::check("exec.route_send") {
                    return Err(ExecError::Other(format!(
                        "injected fault at exec.route_send (endpoint {src}): {msg}"
                    )));
                }
                for t in batch {
                    tx.send(t)?;
                }
                Ok(())
            }));
            receivers.push((src, dst, rx));
        }
    }
    // Drain every receiver before joining senders (senders block on flow
    // control until their stream drains), then surface the first failure.
    // A link error without a sender error means tuples were lost in
    // flight — that MUST fail the exchange: a silently short inbox would
    // produce wrong results rather than an error.
    let mut link_err: Option<String> = None;
    for (src, dst, mut rx) in receivers {
        while let Some(t) = rx.recv() {
            batches[src][dst].push(t);
        }
        if link_err.is_none() {
            link_err = rx.link_error();
        }
    }
    let mut send_err: Option<ExecError> = None;
    for s in senders {
        let err = match s.join() {
            Ok(r) => r.err(),
            Err(_) => Some(ExecError::Other("exchange sender panicked".into())),
        };
        send_err = send_err.or(err);
    }
    if let Some(e) = send_err {
        return Err(e);
    }
    if let Some(msg) = link_err {
        return Err(ExecError::Other(format!("exchange stream failed: {msg}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::value::Value;

    #[test]
    fn phases_record_per_node_busy() {
        let cluster = Cluster::create(&ClusterConfig::for_test(3, "phase")).unwrap();
        let mut m = QueryMetrics::default();
        let outs = run_phase(&cluster, &mut m, "square", |id| Ok(id * id)).unwrap();
        assert_eq!(outs, vec![0, 1, 4]);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].node_busy.len(), 3);
        assert_eq!(m.phases[0].name, "square");
        // usize outputs are opaque, not row-shaped.
        assert_eq!(m.phases[0].rows_out(), None);
    }

    #[test]
    fn phases_capture_rows_net_and_spans() {
        let cluster = Cluster::create(&ClusterConfig::for_test(2, "phase-obs")).unwrap();
        cluster.trace().set_enabled(true);
        let mut m = QueryMetrics::default();
        let outs = run_phase(&cluster, &mut m, "emit", |id| {
            if id == 1 {
                cluster.net.ship(128);
            }
            Ok(vec![Tuple::new(vec![Value::Int(id as i64)]); id + 1])
        })
        .unwrap();
        assert_eq!(outs.len(), 2);
        let p = &m.phases[0];
        assert_eq!(p.node_rows, Some(vec![1, 2]));
        assert_eq!(p.rows_out(), Some(3));
        assert_eq!(p.net.bytes, 128, "net delta is scoped to the phase");
        // One span per node, on that node's lane.
        let evs = cluster.trace().events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "emit");
        assert_eq!(evs[0].lane, 0);
        assert_eq!(evs[1].lane, 1);
        cluster.trace().set_enabled(false);
    }

    #[test]
    fn route_accounts_cross_node_traffic_only() {
        let cluster = Cluster::create(&ClusterConfig::for_test(2, "exchange")).unwrap();
        let qc = cluster.coordinator_id();
        let t = |v: i64| Tuple::new(vec![Value::Int(v)]);
        let base = cluster.net.snapshot();
        let inbox = exchange(
            &cluster,
            vec![
                vec![(0, t(1)), (1, t(2)), (qc, t(4))], // node 0: one local, two remote
                vec![(0, t(3)), (qc, t(5))],            // node 1: two remote
                vec![(1, t(6))],                        // QC: a broadcast
            ],
        )
        .unwrap();
        assert_eq!(inbox, vec![vec![t(1), t(3)], vec![t(2), t(6)], vec![t(4), t(5)]]);
        let d = cluster.net.since(base);
        assert_eq!(d.tuples, 5, "only tuples crossing an endpoint are network traffic");
        assert_eq!(d.bytes, 5 * t(0).wire_size() as u64);
        assert!(exchange(&cluster, vec![vec![(qc + 1, t(7))]]).is_err(), "no such endpoint");
    }

    #[test]
    fn sequential_time_accumulates() {
        let mut m = QueryMetrics::default();
        let v = run_sequential(&mut m, || Ok(41 + 1)).unwrap();
        assert_eq!(v, 42);
        let first = m.sequential;
        run_sequential(&mut m, || Ok(())).unwrap();
        assert!(m.sequential >= first);
    }
}
