//! Tuple streams: the flow-controlled links of §2.3.
//!
//! *"Every Paradise operator takes its input from an input stream and
//! places its result tuples on an output stream. … Network streams also
//! provide a flow-control mechanism that is used to regulate the execution
//! rates of the different operators."*
//!
//! A stream is a [`TupleTx`]/[`TupleRx`] pair with a bounded window of
//! tuples in flight. It comes in two physical flavours behind the same
//! interface: an in-process bounded channel ([`network_stream`]) and
//! *remote* endpoints supplied by a wire transport ([`remote_stream`],
//! used by `paradise-net` to run a stream over TCP with credit-based flow
//! control). [`crate::cluster::Cluster::stream`] picks the flavour;
//! [`crate::phase::exchange`] is the one operator that opens streams.
//!
//! Network accounting happens here, in [`TupleTx::send`] — the choke point
//! every wire-transported tuple passes through — and in the `Local` body
//! of `exchange`, so `Local` and `Tcp` transports report identical traffic
//! for identical plans.

use crate::cluster::{NetStats, NodeId};
use crate::tuple::Tuple;
use crate::Result;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Default flow-control window (tuples in flight per stream).
pub const DEFAULT_WINDOW: usize = 256;

/// The sending side of a wire-transported stream. Implementations must
/// apply flow control in `send` (blocking until the peer grants credit)
/// and deliver end-of-stream when the last clone is dropped.
pub trait RemoteTx: Send + Sync {
    /// Ships one tuple, blocking on flow control.
    fn send(&self, t: Tuple) -> Result<()>;
}

/// The receiving side of a wire-transported stream.
pub trait RemoteRx: Send {
    /// Next tuple; `None` once the peer finished (or the link died).
    fn recv(&mut self) -> Option<Tuple>;

    /// If the link terminated abnormally (peer death, timeout), the error.
    fn link_error(&self) -> Option<String> {
        None
    }
}

enum TxInner {
    Chan(SyncSender<Tuple>),
    Remote(Arc<dyn RemoteTx>),
}

impl Clone for TxInner {
    fn clone(&self) -> Self {
        match self {
            TxInner::Chan(s) => TxInner::Chan(s.clone()),
            TxInner::Remote(r) => TxInner::Remote(r.clone()),
        }
    }
}

enum RxInner {
    Chan(Receiver<Tuple>),
    Remote(Box<dyn RemoteRx>),
}

/// Sending half of a stream.
#[derive(Clone)]
pub struct TupleTx {
    inner: TxInner,
    /// Set for network streams: (src, dst, counters).
    net: Option<(NodeId, NodeId, Arc<NetStats>)>,
}

/// Receiving half of a stream.
pub struct TupleRx {
    inner: RxInner,
}

impl TupleTx {
    /// Sends a tuple, blocking when the flow-control window is full.
    /// Cross-node sends are charged to the network counters.
    pub fn send(&self, t: Tuple) -> Result<()> {
        if let Some((src, dst, net)) = &self.net {
            if src != dst {
                net.ship(t.wire_size());
            }
        }
        match &self.inner {
            TxInner::Chan(s) => {
                s.send(t).map_err(|_| crate::ExecError::Other("stream receiver dropped".into()))
            }
            TxInner::Remote(r) => r.send(t),
        }
    }
}

impl TupleRx {
    /// Receives the next tuple; `None` when every sender has finished.
    pub fn recv(&mut self) -> Option<Tuple> {
        match &mut self.inner {
            RxInner::Chan(r) => r.recv().ok(),
            RxInner::Remote(r) => r.recv(),
        }
    }

    /// Drains the stream into a vector.
    pub fn collect(mut self) -> Vec<Tuple> {
        let mut out = Vec::new();
        while let Some(t) = self.recv() {
            out.push(t);
        }
        out
    }

    /// For remote streams: the abnormal-termination reason, if any.
    pub fn link_error(&self) -> Option<String> {
        match &self.inner {
            RxInner::Chan(_) => None,
            RxInner::Remote(r) => r.link_error(),
        }
    }
}

impl Iterator for TupleRx {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        self.recv()
    }
}

/// A cross-node stream: tuples crossing `src → dst` are charged to `net`.
pub fn network_stream(
    window: usize,
    src: NodeId,
    dst: NodeId,
    net: Arc<NetStats>,
) -> (TupleTx, TupleRx) {
    let (tx, rx) = sync_channel(window.max(1));
    (
        TupleTx { inner: TxInner::Chan(tx), net: Some((src, dst, net)) },
        TupleRx { inner: RxInner::Chan(rx) },
    )
}

/// Wraps transport-provided endpoints (e.g. a TCP connection with credit
/// flow control) in the standard stream interface, attaching the same
/// cross-node accounting as [`network_stream`]. Operators cannot tell the
/// difference — which is the point.
pub fn remote_stream(
    tx: Arc<dyn RemoteTx>,
    rx: Box<dyn RemoteRx>,
    src: NodeId,
    dst: NodeId,
    net: Arc<NetStats>,
) -> (TupleTx, TupleRx) {
    (
        TupleTx { inner: TxInner::Remote(tx), net: Some((src, dst, net)) },
        TupleRx { inner: RxInner::Remote(rx) },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    /// A same-node stream: no traffic is charged, only flow control.
    fn local_stream(window: usize) -> (TupleTx, TupleRx) {
        network_stream(window, 0, 0, Arc::new(NetStats::default()))
    }

    #[test]
    fn same_node_stream_roundtrip() {
        let (tx, rx) = local_stream(8);
        std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(t(i)).unwrap();
            }
        });
        let got = rx.collect();
        assert_eq!(got.len(), 100);
        assert_eq!(got[99], t(99));
    }

    #[test]
    fn flow_control_blocks_fast_producer() {
        // Window of 2: producer cannot run ahead; the test completes only
        // if the consumer draining unblocks the producer (flow control).
        let (tx, rx) = local_stream(2);
        let producer = std::thread::spawn(move || {
            for i in 0..50 {
                tx.send(t(i)).unwrap();
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let got = rx.collect();
        producer.join().unwrap();
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn network_stream_charges_cross_node_traffic() {
        let net = Arc::new(NetStats::default());
        let (tx, rx) = network_stream(8, 0, 1, net.clone());
        tx.send(t(7)).unwrap();
        drop(tx);
        assert_eq!(rx.collect().len(), 1);
        assert_eq!(net.snapshot().tuples, 1);
        assert!(net.snapshot().bytes > 0);

        // Same-node "network" stream (SMP memory transport, §2.2) is free.
        let net2 = Arc::new(NetStats::default());
        let (tx, rx) = network_stream(8, 3, 3, net2.clone());
        tx.send(t(7)).unwrap();
        drop(tx);
        let _ = rx.collect();
        assert_eq!(net2.snapshot().tuples, 0);
    }
}
