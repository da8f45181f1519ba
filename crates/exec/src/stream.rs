//! Tuple streams: the flow-controlled links of §2.3.
//!
//! *"Every Paradise operator takes its input from an input stream and
//! places its result tuples on an output stream. … Network streams also
//! provide a flow-control mechanism that is used to regulate the execution
//! rates of the different operators."*
//!
//! A stream is a [`TupleTx`]/[`TupleRx`] pair with a bounded window of
//! tuples in flight, over endpoints supplied by a wire transport
//! ([`remote_stream`], used by `paradise-net` to run a stream over TCP
//! with credit-based flow control). [`crate::cluster::Cluster::stream`]
//! opens one; [`crate::phase::exchange`] is the one operator that does.
//! Under the `Local` transport `exchange` moves tuples by ownership and
//! opens no stream.
//!
//! Network accounting happens here, in [`TupleTx::send`] — the choke point
//! every wire-transported tuple passes through — and in the `Local` body
//! of `exchange`, so `Local` and `Tcp` transports report identical traffic
//! for identical plans.

use crate::cluster::{NetStats, NodeId};
use crate::tuple::Tuple;
use crate::Result;
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

/// Sending half of a stream.
#[derive(Clone)]
pub struct TupleTx {
    inner: Arc<dyn RemoteTx>,
    src: NodeId,
    dst: NodeId,
    net: Arc<NetStats>,
}

/// Receiving half of a stream.
pub struct TupleRx {
    inner: Box<dyn RemoteRx>,
}

impl TupleTx {
    /// Sends a tuple, blocking when the flow-control window is full.
    /// Cross-node sends are charged to the network counters.
    pub fn send(&self, t: Tuple) -> Result<()> {
        if self.src != self.dst {
            self.net.ship(t.wire_size());
        }
        self.inner.send(t)
    }
}

impl TupleRx {
    /// Receives the next tuple; `None` when every sender has finished.
    pub fn recv(&mut self) -> Option<Tuple> {
        self.inner.recv()
    }

    /// Drains the stream into a vector.
    pub fn collect(mut self) -> Vec<Tuple> {
        let mut out = Vec::new();
        while let Some(t) = self.recv() {
            out.push(t);
        }
        out
    }

    /// The abnormal-termination reason, if any.
    pub fn link_error(&self) -> Option<String> {
        self.inner.link_error()
    }
}

impl Iterator for TupleRx {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        self.recv()
    }
}

/// Wraps transport-provided endpoints (e.g. a TCP connection with credit
/// flow control) in the standard stream interface, attaching cross-node
/// accounting: every tuple sent between distinct endpoints is charged to
/// `net`.
pub fn remote_stream(
    tx: Arc<dyn RemoteTx>,
    rx: Box<dyn RemoteRx>,
    src: NodeId,
    dst: NodeId,
    net: Arc<NetStats>,
) -> (TupleTx, TupleRx) {
    (TupleTx { inner: tx, src, dst, net }, TupleRx { inner: rx })
}
