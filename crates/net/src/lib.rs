//! # paradise-net
//!
//! The wire protocol and TCP transport behind Paradise's QC/DS execution
//! (paper §2.2, Figure 2.1): a Query Coordinator talking to one Data
//! Server per node over real sockets.
//!
//! The engine (`paradise-exec`) defines the transport interface
//! ([`paradise_exec::WireTransport`]) and runs every operator against the
//! transport-independent `TupleTx`/`TupleRx` streams; this crate supplies
//! the TCP implementation:
//!
//! * [`frame`] — length-prefixed binary frames (tuples, credits, tile
//!   and stats pulls);
//! * [`flow`] — credit-based flow control mirroring the bounded-channel
//!   windows of local streams, so backpressure behaves identically on
//!   both transports;
//! * [`conn`] — connect/read timeouts and bounded exponential-backoff
//!   retry;
//! * [`server`] — the data-server accept loop (tuple streams, §2.5.2 tile
//!   pulls, stats pulls);
//! * [`transport`] — [`TcpTransport`], the [`paradise_exec::WireTransport`]
//!   implementation a cluster installs with
//!   `cluster.set_transport(Transport::Tcp(t))`.
//!
//! Large attributes keep the paper's pull model on the wire: a stored
//! raster's tuple carries only its tile mapping table; pixel tiles move
//! as explicit [`frame::Frame::PullTile`] requests when an operator needs
//! them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod conn;
pub mod flow;
pub mod frame;
pub mod server;
pub mod transport;

pub use conn::NetConfig;
pub use server::DataServer;
pub use transport::{TcpTransport, WireStats};
