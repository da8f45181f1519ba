//! The measured phase driver.
//!
//! A query is a sequence of *phases*. Within a phase every node processes
//! its fragment independently (shared-nothing); between phases
//! [`exchange`] moves tuples between endpoints (repartitioning, broadcast
//! from the query coordinator, collection at the coordinator). The
//! driver runs a phase's node fragments concurrently on the cluster's
//! executor ([`crate::workers`]), one fragment per thread at a time, and
//! measures each node's busy time and the phase's wall time;
//! [`crate::metrics::QueryMetrics::simulated_time`] then reconstructs the
//! parallel execution time as the per-phase critical path — the paper's
//! cost model with one CPU per node.
//!
//! A fragment is owned work: it captures `Arc` handles (the cluster, table
//! definitions) and owned parameters, and returns its output.

use crate::cluster::{Cluster, Transport};
use crate::metrics::{ExchangeTimes, PhaseTimes, QueryMetrics};
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

/// Runs one parallel phase: `work(node_id)` for every node, concurrently
/// on the cluster's executor, recording into `metrics` under `name` each
/// node's busy time, the phase's measured wall time, its output
/// cardinality, the cross-node traffic and the (summed) buffer-pool
/// activity charged while it ran. Each node's fragment is also recorded
/// as a trace span on that node's lane, so `EXPLAIN ANALYZE` renders one
/// Chrome-trace track per node. Returns each node's output, in node
/// order; when fragments fail, the lowest node's error is returned, and a
/// fragment that panics fails the phase with an error.
pub fn run_phase<O, F>(
    cluster: &Cluster,
    metrics: &mut QueryMetrics,
    name: &str,
    work: F,
) -> Result<Vec<O>>
where
    O: RowCounted + Send + 'static,
    F: Fn(NodeId) -> Result<O> + Send + Sync + 'static,
{
    cluster.events().emit("phase.start", &[("phase", name.into())]);
    let net0 = cluster.net.snapshot();
    let buf0 = cluster.buffer_stats_total();
    let t0 = Instant::now();
    let done = cluster.workers().run(cluster.num_nodes(), work);
    let wall = t0.elapsed();
    let mut phase = PhaseTimes {
        name: name.to_string(),
        node_busy: Vec::with_capacity(done.len()),
        wall,
        ..Default::default()
    };
    let mut outs = Vec::with_capacity(done.len());
    let mut rows = Some(Vec::with_capacity(done.len()));
    for (id, d) in done.into_iter().enumerate() {
        cluster.trace().record(name, id as u32, d.start, d.busy);
        phase.node_busy.push(d.busy);
        if d.on_helper {
            phase.morsels += 1;
            phase.worker_busy += d.busy;
        }
        let out = d.out.map_err(|panic| {
            ExecError::Other(format!("phase {name}: node {id}'s fragment panicked: {panic}"))
        })??;
        rows = rows.zip(out.row_count()).map(|(mut rows, n)| {
            rows.push(n);
            rows
        });
        outs.push(out);
    }
    phase.node_rows = rows;
    phase.net = cluster.net.since(net0);
    phase.buffer = cluster.buffer_stats_total().since(buf0);
    metrics.push_phase_record(phase);
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

/// Tuples bound for one endpoint, with the sum of their
/// [`Tuple::wire_size`]s kept as they are added, so charging the batch
/// under the `Local` transport reads no tuple. An operator that builds its
/// output as a batch sizes each tuple while it is still in cache.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    tuples: Vec<Tuple>,
    wire_bytes: u64,
}

impl Batch {
    /// An empty batch with room for `n` tuples.
    pub fn with_capacity(n: usize) -> Batch {
        Batch { tuples: Vec::with_capacity(n), wire_bytes: 0 }
    }

    /// Appends `t`.
    pub fn push(&mut self, t: Tuple) {
        self.wire_bytes += t.wire_size() as u64;
        self.tuples.push(t);
    }

    /// The batches one after another, in order.
    pub fn concat(batches: Vec<Batch>) -> Batch {
        let mut out = Batch {
            tuples: Vec::with_capacity(batches.iter().map(|b| b.len()).sum()),
            wire_bytes: 0,
        };
        for mut b in batches {
            out.tuples.append(&mut b.tuples);
            out.wire_bytes += b.wire_bytes;
        }
        out
    }

    /// The summed wire size of the tuples.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// The tuples, in order.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }
}

impl std::ops::Deref for Batch {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        &self.tuples
    }
}

impl From<Vec<Tuple>> for Batch {
    fn from(tuples: Vec<Tuple>) -> Batch {
        let wire_bytes = tuples.iter().map(|t| t.wire_size() as u64).sum();
        Batch { tuples, wire_bytes }
    }
}

impl FromIterator<Tuple> for Batch {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Batch {
        let mut b = Batch::default();
        for t in iter {
            b.push(t);
        }
        b
    }
}

impl RowCounted for Batch {
    fn row_count(&self) -> Option<u64> {
        Some(self.len() as u64)
    }
}

/// What one endpoint sends in an [`exchange`]: `self.0[dst]` is its batch
/// for endpoint `dst`, in emission order. Endpoints past the end of the
/// list receive nothing from it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outbox(pub Vec<Batch>);

impl Outbox {
    /// One batch, all of it for endpoint `dst`.
    pub fn to(dst: NodeId, rows: impl Into<Batch>) -> Outbox {
        let mut batches: Vec<Batch> = (0..dst).map(|_| Batch::default()).collect();
        batches.push(rows.into());
        Outbox(batches)
    }

    /// Appends `t` to the batch for endpoint `dst`.
    pub fn push(&mut self, dst: NodeId, t: Tuple) {
        if self.0.len() <= dst {
            self.0.resize_with(dst + 1, Batch::default);
        }
        self.0[dst].push(t);
    }
}

impl RowCounted for Outbox {
    fn row_count(&self) -> Option<u64> {
        Some(self.0.iter().map(|b| b.len() as u64).sum())
    }
}

/// Moves tuples between cluster endpoints — the one way a tuple crosses a
/// node boundary. Endpoints are the data-server nodes `0..n` plus the query
/// coordinator `n` ([`Cluster::coordinator_id`]), so the same call
/// repartitions (node → node), broadcasts (QC → nodes) and collects
/// (nodes → QC). `outbox[src]` is what endpoint `src` sends; the list may
/// be shorter than `n + 1` when the QC sends nothing. Returns one inbox per
/// endpoint (`n + 1` of them), each holding its tuples in source order,
/// then emission order, under every transport.
///
/// Under [`Transport::Local`] each batch moves into its inbox whole and is
/// charged to [`crate::cluster::NetStats`] once, with its tuple count and
/// [`Batch::wire_bytes`]; under `Tcp` each `(src, dst)` batch between
/// distinct endpoints travels through its own flow-controlled wire stream,
/// charged per tuple as it is sent. Both charge the tuples that cross an
/// endpoint boundary, and only those. The exchange's wall time and traffic
/// go into `metrics` as a measured entry named `name`
/// ([`QueryMetrics::exchanges`]), outside the simulated time.
pub fn exchange(
    cluster: &Cluster,
    metrics: &mut QueryMetrics,
    name: &str,
    outbox: Vec<Outbox>,
) -> Result<Vec<Vec<Tuple>>> {
    let t0 = Instant::now();
    let net0 = cluster.net.snapshot();
    let endpoints = cluster.coordinator_id() + 1;
    if outbox.len() > endpoints {
        return Err(ExecError::Other(format!(
            "exchange: {} sources for {endpoints} endpoints",
            outbox.len()
        )));
    }
    if outbox.iter().any(|o| o.0.len() > endpoints) {
        return Err(ExecError::Other(format!("exchange: no endpoint {endpoints}")));
    }
    let local = matches!(cluster.transport(), Transport::Local);
    // batches[src][dst], in emission order.
    let mut batches: Vec<Vec<Vec<Tuple>>> = Vec::with_capacity(outbox.len());
    for (src, Outbox(per_dst)) in outbox.into_iter().enumerate() {
        let mut tuples = Vec::with_capacity(per_dst.len());
        for (dst, batch) in per_dst.into_iter().enumerate() {
            if local && dst != src && !batch.is_empty() {
                cluster.net.ship_batch(batch.wire_bytes(), batch.len() as u64);
            }
            tuples.push(batch.into_tuples());
        }
        batches.push(tuples);
    }
    if !local {
        ship_over_wire(cluster, &mut batches)?;
    }
    let mut inbox: Vec<Vec<Tuple>> = (0..endpoints).map(|_| Vec::new()).collect();
    for per_dst in batches {
        for (dst, mut batch) in per_dst.into_iter().enumerate() {
            if inbox[dst].is_empty() {
                inbox[dst] = batch;
            } else {
                inbox[dst].append(&mut batch);
            }
        }
    }
    metrics.exchanges.push(ExchangeTimes {
        name: name.to_string(),
        wall: t0.elapsed(),
        net: cluster.net.since(net0),
    });
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
    use crate::cluster::{ClusterConfig, NetSnapshot};
    use crate::value::Value;

    #[test]
    fn phases_record_per_node_busy() {
        let cluster = Cluster::create(&ClusterConfig::for_test(3, "phase")).unwrap();
        let mut m = QueryMetrics::default();
        let outs = run_phase(&cluster, &mut m, "square", |id| Ok(id * id)).unwrap();
        assert!(m.phases[0].wall >= m.phases[0].critical(), "wall spans every fragment");
        assert_eq!(outs, vec![0, 1, 4]);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].node_busy.len(), 3);
        assert_eq!(m.phases[0].name, "square");
        // usize outputs are opaque, not row-shaped.
        assert_eq!(m.phases[0].rows_out(), None);
    }

    #[test]
    fn phases_capture_rows_net_and_spans() {
        let cluster =
            std::sync::Arc::new(Cluster::create(&ClusterConfig::for_test(2, "phase-obs")).unwrap());
        cluster.trace().set_enabled(true);
        let mut m = QueryMetrics::default();
        let c = cluster.clone();
        let outs = run_phase(&cluster, &mut m, "emit", move |id| {
            if id == 1 {
                c.net.ship(128);
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

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    #[test]
    fn route_accounts_cross_node_traffic_only() {
        let cluster = Cluster::create(&ClusterConfig::for_test(2, "exchange")).unwrap();
        let qc = cluster.coordinator_id();
        let base = cluster.net.snapshot();
        let mut m = QueryMetrics::default();
        let inbox = exchange(
            &cluster,
            &mut m,
            "route",
            vec![
                Outbox(vec![vec![t(1)].into(), vec![t(2)].into(), vec![t(4)].into()]), // node 0: one local, two remote
                Outbox(vec![vec![t(3)].into(), Batch::default(), vec![t(5)].into()]), // node 1: two remote
                Outbox::to(1, vec![t(6)]), // QC: a broadcast
            ],
        )
        .unwrap();
        assert_eq!(inbox, vec![vec![t(1), t(3)], vec![t(2), t(6)], vec![t(4), t(5)]]);
        let d = cluster.net.since(base);
        assert_eq!(d.tuples, 5, "only tuples crossing an endpoint are network traffic");
        assert_eq!(d.bytes, 5 * t(0).wire_size() as u64);
        assert!(
            exchange(&cluster, &mut m, "route", vec![Outbox::to(qc + 1, vec![t(7)])]).is_err(),
            "no such endpoint"
        );
    }

    #[test]
    fn batches_arrive_in_source_then_emission_order() {
        let cluster = Cluster::create(&ClusterConfig::for_test(3, "exchange-order")).unwrap();
        let qc = cluster.coordinator_id();
        let mut m = QueryMetrics::default();
        let mut outbox: Vec<Outbox> = Vec::new();
        for src in 0..3 {
            let mut o = Outbox::default();
            for i in 0..4 {
                // Interleave destinations: emission order within a batch
                // survives, batches line up by source.
                o.push(qc, t(src * 10 + i));
                o.push((src as usize + 1) % 3, t(100 + src * 10 + i));
            }
            outbox.push(o);
        }
        let inbox = exchange(&cluster, &mut m, "gather", outbox).unwrap();
        let want_qc: Vec<Tuple> =
            (0..3).flat_map(|src| (0..4).map(move |i| t(src * 10 + i))).collect();
        assert_eq!(inbox[qc], want_qc);
        assert_eq!(inbox[1], (0..4).map(|i| t(100 + i)).collect::<Vec<_>>());
        assert_eq!(inbox[0], (0..4).map(|i| t(120 + i)).collect::<Vec<_>>());
        assert_eq!(m.exchanges.len(), 1);
        assert_eq!(m.exchanges[0].name, "gather");
        assert_eq!(m.exchanges[0].net.tuples, 24);
        assert!(m.phases.is_empty() && m.simulated_time().is_zero(), "not a phase");
    }

    #[test]
    fn unknown_endpoints_are_errors() {
        let cluster = Cluster::create(&ClusterConfig::for_test(2, "exchange-bad")).unwrap();
        let endpoints = cluster.coordinator_id() + 1;
        let mut m = QueryMetrics::default();
        let base = cluster.net.snapshot();
        let mut o = Outbox::default();
        o.push(endpoints, t(1));
        let err = exchange(&cluster, &mut m, "route", vec![o]).unwrap_err();
        assert!(err.to_string().contains(&format!("no endpoint {endpoints}")), "{err}");
        let sources = (0..=endpoints).map(|_| Outbox::default()).collect();
        assert!(exchange(&cluster, &mut m, "route", sources).is_err(), "too many sources");
        assert_eq!(cluster.net.since(base), NetSnapshot::default(), "nothing charged");
        assert!(m.exchanges.is_empty());
    }

    #[test]
    fn batch_counters_sum_the_crossing_tuples_wire_sizes() {
        let cluster = Cluster::create(&ClusterConfig::for_test(2, "exchange-bytes")).unwrap();
        let qc = cluster.coordinator_id();
        let row = |i: i64| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Str(format!("id-{}", "x".repeat(i as usize)).into()),
            ])
        };
        let node0: Vec<Tuple> = (0..5).map(row).collect();
        let node1: Vec<Tuple> = (5..8).map(row).collect();
        let crossing: usize = node0.iter().chain(&node1).map(Tuple::wire_size).sum();
        let base = cluster.net.snapshot();
        let mut m = QueryMetrics::default();
        let mut stay = Outbox::to(qc, node1);
        stay.push(1, row(99)); // stays on node 1: not traffic
        let inbox =
            exchange(&cluster, &mut m, "gather", vec![Outbox::to(qc, node0), stay]).unwrap();
        assert_eq!(inbox[qc].len(), 8);
        assert_eq!(inbox[1], vec![row(99)]);
        let d = cluster.net.since(base);
        assert_eq!((d.tuples, d.bytes), (8, crossing as u64));
        assert_eq!(m.exchanges[0].net, d);
    }

    #[test]
    fn batches_keep_their_wire_size() {
        let row =
            |i: i64| Tuple::new(vec![Value::Int(i), Value::Str("x".repeat(i as usize).into())]);
        let size = |rows: &[Tuple]| rows.iter().map(|t| t.wire_size() as u64).sum::<u64>();
        let rows: Vec<Tuple> = (0..6).map(row).collect();
        let from_vec = Batch::from(rows.clone());
        let collected: Batch = rows.iter().cloned().collect();
        let mut pushed = Batch::default();
        rows.iter().for_each(|t| pushed.push(t.clone()));
        for b in [&from_vec, &collected, &pushed] {
            assert_eq!((b.len(), b.wire_bytes()), (6, size(&rows)));
        }
        let halves = vec![
            Batch::from(rows[..2].to_vec()),
            Batch::default(),
            rows[2..].iter().cloned().collect(),
        ];
        let joined = Batch::concat(halves);
        assert_eq!(joined, from_vec);
        assert_eq!(joined.into_tuples(), rows);
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
