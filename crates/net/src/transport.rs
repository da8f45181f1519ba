//! The TCP implementation of the engine's [`WireTransport`] trait.
//!
//! [`TcpTransport::serve`] starts one [`DataServer`] per cluster node plus
//! a store-less one for the Query Coordinator, then plugs into
//! [`paradise_exec::Cluster`] via `set_transport(Transport::Tcp(..))`.
//! Operators keep using the same `TupleTx`/`TupleRx` interface; the only
//! difference is that cross-node tuples now really cross a socket.

use crate::conn::{connect_with_retry, NetConfig};
use crate::flow::{CreditGate, Inbox};
use crate::frame::{read_frame, write_frame, Frame, ReadOutcome};
use crate::server::{DataServer, Registry};
use paradise_exec::cluster::Node;
use paradise_exec::value::TileRef;
use paradise_exec::{ExecError, NodeId, RemoteRx, RemoteTx, Result, Tuple, WireTransport};
use paradise_obs::MetricSample;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn lock_err<T>(e: std::sync::PoisonError<T>) -> T {
    e.into_inner()
}

/// Raw wire-level counters (frames and bytes actually written to sockets).
/// Distinct from the engine's `NetStats`, which counts *logical* traffic at
/// the transport-independent choke point — these let tests prove that the
/// logical traffic really flowed over TCP.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Bytes written to sockets (frame headers included).
    pub bytes_sent: AtomicU64,
    /// Frames written to sockets.
    pub frames_sent: AtomicU64,
    /// Tuple frames written to sockets — every tuple that crossed an
    /// endpoint boundary over TCP.
    pub tuples_sent: AtomicU64,
}

/// The sending endpoint of one TCP tuple stream.
struct TcpTx {
    conn: Mutex<TcpStream>,
    gate: Arc<CreditGate>,
    cfg: NetConfig,
    stats: Arc<WireStats>,
}

impl RemoteTx for TcpTx {
    fn send(&self, t: Tuple) -> Result<()> {
        // Flow control first: block until the receiver has window room.
        self.gate.acquire(self.cfg.send_timeout)?;
        let mut conn = self.conn.lock().unwrap_or_else(lock_err);
        let n = write_frame(&mut *conn, &Frame::Tuple(t.encode()))?;
        self.stats.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.stats.tuples_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for TcpTx {
    fn drop(&mut self) {
        // Last clone gone: tell the receiver the stream is complete, then
        // close the socket (which also stops the credit-reader thread).
        let mut conn = self.conn.lock().unwrap_or_else(lock_err);
        if write_frame(&mut *conn, &Frame::Eos).is_ok() {
            self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        }
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
}

/// The receiving endpoint: pops the inbox the data server fills.
struct InboxRx {
    inbox: Arc<Inbox>,
}

impl RemoteRx for InboxRx {
    fn recv(&mut self) -> Option<Tuple> {
        self.inbox.pop()
    }

    fn link_error(&self) -> Option<String> {
        self.inbox.error()
    }
}

impl Drop for InboxRx {
    fn drop(&mut self) {
        // A receiver dropped before EOS must release the connection
        // reader, which may be blocked pushing into a full inbox.
        self.inbox.close_receiver();
    }
}

/// TCP transport for a whole cluster: servers, stream opening, pooled tile
/// pulls, and graceful shutdown.
pub struct TcpTransport {
    cfg: NetConfig,
    /// One server per DS node, plus the QC endpoint last.
    servers: Vec<DataServer>,
    addrs: Vec<SocketAddr>,
    registry: Arc<Registry>,
    next_stream: AtomicU64,
    /// Idle pull connections, keyed by owning node.
    pull_pool: Mutex<HashMap<NodeId, Vec<TcpStream>>>,
    stats: Arc<WireStats>,
    shut: AtomicBool,
}

impl TcpTransport {
    /// Starts the cluster's data servers (one per node, plus the QC
    /// endpoint) with default tunables.
    pub fn serve(nodes: &[Arc<Node>]) -> Result<Arc<TcpTransport>> {
        TcpTransport::serve_with(nodes, NetConfig::default())
    }

    /// Starts the cluster's data servers with explicit tunables.
    pub fn serve_with(nodes: &[Arc<Node>], cfg: NetConfig) -> Result<Arc<TcpTransport>> {
        let registry = Arc::new(Registry::default());
        let mut servers = Vec::with_capacity(nodes.len() + 1);
        for node in nodes {
            servers.push(DataServer::start(
                Some(node.store.clone()),
                registry.clone(),
                cfg.clone(),
                Some(node.obs.clone()),
            )?);
        }
        // The QC endpoint: receives result streams, owns no data and
        // serves no per-node stats (the QC reads its registry in-process).
        servers.push(DataServer::start(None, registry.clone(), cfg.clone(), None)?);
        let addrs = servers.iter().map(|s| s.addr()).collect();
        Ok(Arc::new(TcpTransport {
            cfg,
            servers,
            addrs,
            registry,
            next_stream: AtomicU64::new(1),
            pull_pool: Mutex::new(HashMap::new()),
            stats: Arc::new(WireStats::default()),
            shut: AtomicBool::new(false),
        }))
    }

    /// Wire-level counters (for tests and diagnostics).
    pub fn wire_stats(&self) -> &WireStats {
        &self.stats
    }

    /// Publishes the wire-level counters into a metrics registry as lazy
    /// collectors (`net.wire.bytes_sent`, `net.wire.frames_sent`,
    /// `net.wire.tuples_sent`), so an `EXPLAIN ANALYZE` profile can prove
    /// traffic really crossed sockets.
    pub fn register_metrics(&self, obs: &paradise_obs::MetricsRegistry) {
        let stats = self.stats.clone();
        obs.register_collector("net.wire.bytes_sent", move || {
            stats.bytes_sent.load(Ordering::Relaxed)
        });
        let stats = self.stats.clone();
        obs.register_collector("net.wire.frames_sent", move || {
            stats.frames_sent.load(Ordering::Relaxed)
        });
        let stats = self.stats.clone();
        obs.register_collector("net.wire.tuples_sent", move || {
            stats.tuples_sent.load(Ordering::Relaxed)
        });
    }

    /// The listening address of endpoint `id` (a node, or the QC).
    pub fn addr(&self, id: NodeId) -> Option<SocketAddr> {
        self.addrs.get(id).copied()
    }

    fn ensure_up(&self) -> Result<()> {
        if self.shut.load(Ordering::Relaxed) {
            return Err(ExecError::Other("transport is shut down".into()));
        }
        Ok(())
    }

    fn endpoint_addr(&self, id: NodeId) -> Result<SocketAddr> {
        self.addr(id).ok_or_else(|| ExecError::Other(format!("no endpoint {id} in this cluster")))
    }

    fn pooled_pull_conn(&self, owner: NodeId) -> Result<TcpStream> {
        if let Some(conn) =
            self.pull_pool.lock().unwrap_or_else(lock_err).get_mut(&owner).and_then(Vec::pop)
        {
            return Ok(conn);
        }
        connect_with_retry(self.endpoint_addr(owner)?, &self.cfg)
    }
}

impl WireTransport for TcpTransport {
    fn open(
        &self,
        window: usize,
        _src: NodeId,
        dst: NodeId,
    ) -> Result<(Arc<dyn RemoteTx>, Box<dyn RemoteRx>)> {
        self.ensure_up()?;
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        let window = window.max(1);
        let inbox = Arc::new(Inbox::with_timeout(window, self.cfg.recv_timeout));
        // Register before connecting: the server must be able to resolve
        // the stream id the moment OpenStream arrives.
        self.registry.register(id, inbox.clone());
        let conn = match connect_with_retry(self.endpoint_addr(dst)?, &self.cfg) {
            Ok(c) => c,
            Err(e) => {
                let _ = self.registry.take(id);
                return Err(e);
            }
        };
        let mut opener =
            conn.try_clone().map_err(|e| ExecError::Other(format!("net clone: {e}")))?;
        let n = write_frame(
            &mut opener,
            &Frame::OpenStream { stream: id, window: u32::try_from(window).unwrap_or(u32::MAX) },
        )?;
        self.stats.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        let gate = Arc::new(CreditGate::with_events(window as u64, self.cfg.events.clone()));
        // Credit reader: the receiver's pops come back on this socket.
        let gate2 = gate.clone();
        let mut credit_side = opener;
        std::thread::spawn(move || loop {
            match read_frame(&mut credit_side) {
                Ok(ReadOutcome::Frame(Frame::Credit(n))) => gate2.grant(u64::from(n)),
                Ok(ReadOutcome::Frame(Frame::Error(msg))) => {
                    gate2.close(&msg);
                    return;
                }
                Ok(ReadOutcome::Idle) => {}
                Ok(ReadOutcome::Frame(_)) | Ok(ReadOutcome::Closed) => {
                    gate2.close("stream connection closed");
                    return;
                }
                Err(e) => {
                    gate2.close(&e.to_string());
                    return;
                }
            }
        });
        let tx = TcpTx {
            conn: Mutex::new(conn),
            gate,
            cfg: self.cfg.clone(),
            stats: self.stats.clone(),
        };
        Ok((Arc::new(tx), Box::new(InboxRx { inbox })))
    }

    fn fetch_tile(&self, _requester: NodeId, tile: &TileRef) -> Result<Vec<u8>> {
        self.ensure_up()?;
        let owner = tile.node as NodeId;
        let mut conn = self.pooled_pull_conn(owner)?;
        let n = write_frame(&mut conn, &Frame::PullTile(tile.oid.to_bytes()))?;
        self.stats.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        let mut idles = 0;
        loop {
            match read_frame(&mut conn)? {
                ReadOutcome::Frame(Frame::TileData(bytes)) => {
                    // Healthy exchange: return the socket to the pool.
                    self.pull_pool
                        .lock()
                        .unwrap_or_else(lock_err)
                        .entry(owner)
                        .or_default()
                        .push(conn);
                    return Ok(bytes);
                }
                ReadOutcome::Frame(Frame::Error(msg)) => {
                    return Err(ExecError::Other(format!("remote pull failed: {msg}")))
                }
                ReadOutcome::Frame(_) => {
                    return Err(ExecError::Other("unexpected frame in pull reply".into()))
                }
                ReadOutcome::Idle => {
                    idles += 1;
                    if idles > 100 {
                        return Err(ExecError::Other("tile pull timed out".into()));
                    }
                }
                ReadOutcome::Closed => {
                    return Err(ExecError::Other("server closed pull connection".into()))
                }
            }
        }
    }

    fn pull_stats(&self, node: NodeId) -> Result<Vec<MetricSample>> {
        self.ensure_up()?;
        if node >= self.addrs.len().saturating_sub(1) {
            return Err(ExecError::Other(format!("no data server {node} in this cluster")));
        }
        // Stats pulls share the pooled pull connections: the server's
        // dispatch loop answers PullTile and StatsPull interleaved.
        let mut conn = self.pooled_pull_conn(node)?;
        let n = write_frame(&mut conn, &Frame::StatsPull)?;
        self.stats.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        let mut idles = 0;
        loop {
            match read_frame(&mut conn)? {
                ReadOutcome::Frame(Frame::StatsReply(samples)) => {
                    self.pull_pool
                        .lock()
                        .unwrap_or_else(lock_err)
                        .entry(node)
                        .or_default()
                        .push(conn);
                    return Ok(samples);
                }
                ReadOutcome::Frame(Frame::Error(msg)) => {
                    return Err(ExecError::Other(format!("remote stats pull failed: {msg}")))
                }
                ReadOutcome::Frame(_) => {
                    return Err(ExecError::Other("unexpected frame in stats reply".into()))
                }
                ReadOutcome::Idle => {
                    idles += 1;
                    if idles > 100 {
                        return Err(ExecError::Other("stats pull timed out".into()));
                    }
                }
                ReadOutcome::Closed => {
                    return Err(ExecError::Other("server closed stats connection".into()))
                }
            }
        }
    }

    fn shutdown(&self) {
        if self.shut.swap(true, Ordering::Relaxed) {
            return;
        }
        self.pull_pool.lock().unwrap_or_else(lock_err).clear();
        for s in &self.servers {
            s.shutdown();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}
