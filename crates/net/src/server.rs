//! The data-server accept loop.
//!
//! Paper §2.2/Figure 2.1: each node runs a Data Server process; the Query
//! Coordinator talks to all of them. Here one [`DataServer`] listens per
//! cluster endpoint (every DS node plus one store-less listener for the
//! QC) and serves two kinds of connection:
//!
//! * **tuple streams** — a peer opens with [`Frame::OpenStream`] and
//!   pushes credit-controlled tuples into the registered [`Inbox`];
//! * **tile pulls** — [`Frame::PullTile`] requests are answered from the
//!   node's raster tile file (§2.5.2), and [`Frame::StatsPull`] requests
//!   from the node's metrics registry; a connection serves many of both.

use crate::conn::NetConfig;
use crate::flow::Inbox;
use crate::frame::{read_frame, write_frame, Frame, ReadOutcome};
use paradise_exec::{ExecError, Result, Tuple};
use paradise_obs::MetricsRegistry;
use paradise_storage::{Oid, Store};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn lock_err<T>(e: std::sync::PoisonError<T>) -> T {
    e.into_inner()
}

/// Maps stream ids to the inboxes awaiting them. Shared by every server
/// in the process; stream ids are allocated centrally by the transport.
#[derive(Default)]
pub struct Registry {
    streams: Mutex<HashMap<u64, Arc<Inbox>>>,
}

impl Registry {
    /// Announces an inbox for stream `id` (done *before* the sender
    /// connects, so the server can never see an unknown id from a
    /// well-behaved peer).
    pub fn register(&self, id: u64, inbox: Arc<Inbox>) {
        self.streams.lock().unwrap_or_else(lock_err).insert(id, inbox);
    }

    /// Claims (removes) the inbox for stream `id`.
    pub fn take(&self, id: u64) -> Option<Arc<Inbox>> {
        self.streams.lock().unwrap_or_else(lock_err).remove(&id)
    }
}

/// One listening endpoint of the cluster.
pub struct DataServer {
    addr: SocketAddr,
    shut: Arc<AtomicBool>,
    accept_join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl DataServer {
    /// Binds a loopback listener and starts the accept loop. `store` is
    /// `None` for the QC endpoint (it receives streams but owns no data);
    /// `obs` is the node's metrics registry, answered to `StatsPull`
    /// requests (`None` → stats pulls report an error).
    pub fn start(
        store: Option<Arc<Store>>,
        registry: Arc<Registry>,
        cfg: NetConfig,
        obs: Option<Arc<MetricsRegistry>>,
    ) -> Result<DataServer> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| ExecError::Other(format!("net bind: {e}")))?;
        let addr = listener.local_addr().map_err(|e| ExecError::Other(format!("net bind: {e}")))?;
        listener.set_nonblocking(true).map_err(|e| ExecError::Other(format!("net bind: {e}")))?;
        let shut = Arc::new(AtomicBool::new(false));
        let shut2 = shut.clone();
        let accept_join = std::thread::spawn(move || {
            while !shut2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((conn, _peer)) => {
                        let store = store.clone();
                        let registry = registry.clone();
                        let cfg = cfg.clone();
                        let shut = shut2.clone();
                        let obs = obs.clone();
                        std::thread::spawn(move || handle(conn, store, registry, cfg, obs, shut));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(DataServer { addr, shut, accept_join: Mutex::new(Some(accept_join)) })
    }

    /// The address peers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and winds down handler threads. Idempotent.
    pub fn shutdown(&self) {
        self.shut.store(true, Ordering::Relaxed);
        if let Some(j) = self.accept_join.lock().unwrap_or_else(lock_err).take() {
            let _ = j.join();
        }
    }
}

impl Drop for DataServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Dispatches one accepted connection by its first frame.
fn handle(
    mut conn: TcpStream,
    store: Option<Arc<Store>>,
    registry: Arc<Registry>,
    cfg: NetConfig,
    obs: Option<Arc<MetricsRegistry>>,
    shut: Arc<AtomicBool>,
) {
    let _ = conn.set_read_timeout(Some(cfg.read_timeout));
    let _ = conn.set_nodelay(true);
    loop {
        match read_frame(&mut conn) {
            Ok(ReadOutcome::Frame(Frame::OpenStream { stream, window })) => {
                serve_stream(conn, &registry, stream, window, &shut);
                return;
            }
            Ok(ReadOutcome::Frame(Frame::PullTile(oid))) => {
                // Pull connections are pooled: keep answering requests on
                // this socket until the peer hangs up.
                if serve_pull(&mut conn, store.as_deref(), &oid).is_err() {
                    return;
                }
            }
            Ok(ReadOutcome::Frame(Frame::StatsPull)) => {
                // Stats connections are pooled like pull connections: one
                // socket can interleave tile pulls and stats pulls.
                let reply = match &obs {
                    Some(reg) => Frame::StatsReply(reg.samples()),
                    None => Frame::Error("no metrics registry on this endpoint".into()),
                };
                if write_frame(&mut conn, &reply).is_err() {
                    return;
                }
            }
            Ok(ReadOutcome::Frame(_)) => {
                let _ = write_frame(&mut conn, &Frame::Error("unexpected frame".into()));
                return;
            }
            Ok(ReadOutcome::Idle) => {
                if shut.load(Ordering::Relaxed) {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) | Err(_) => return,
        }
    }
}

/// Receives a credit-controlled tuple stream into its registered inbox.
fn serve_stream(
    mut conn: TcpStream,
    registry: &Registry,
    stream: u64,
    _window: u32,
    shut: &AtomicBool,
) {
    let Some(inbox) = registry.take(stream) else {
        let _ = write_frame(&mut conn, &Frame::Error(format!("unknown stream {stream}")));
        return;
    };
    // The reverse direction of this socket carries the credits granted as
    // the consumer pops tuples.
    match conn.try_clone() {
        Ok(back) => inbox.set_credit_sink(back),
        Err(e) => {
            inbox.fail(&format!("credit channel: {e}"));
            return;
        }
    }
    loop {
        match read_frame(&mut conn) {
            Ok(ReadOutcome::Frame(Frame::Tuple(bytes))) => match Tuple::decode(&bytes) {
                Ok(t) => {
                    if !inbox.push(t) {
                        // Stream went terminal (receiver dropped or link
                        // failed): stop reading; the closing socket tells
                        // the sender.
                        return;
                    }
                }
                Err(e) => {
                    inbox.fail(&format!("tuple decode: {e}"));
                    return;
                }
            },
            Ok(ReadOutcome::Frame(Frame::Eos)) => {
                inbox.finish();
                return;
            }
            Ok(ReadOutcome::Frame(Frame::Error(msg))) => {
                inbox.fail(&msg);
                return;
            }
            Ok(ReadOutcome::Frame(_)) => {
                inbox.fail("unexpected frame on tuple stream");
                return;
            }
            Ok(ReadOutcome::Idle) => {
                if shut.load(Ordering::Relaxed) {
                    inbox.fail("server shutdown");
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => {
                inbox.fail("sender closed connection before EOS");
                return;
            }
            Err(e) => {
                inbox.fail(&e.to_string());
                return;
            }
        }
    }
}

/// Answers one tile pull from the node's store, by object id. The raw
/// stored bytes cross the wire; decompression stays with the requester
/// (§2.5.2).
fn serve_pull(conn: &mut TcpStream, store: Option<&Store>, oid_bytes: &[u8; 10]) -> Result<()> {
    let reply = (|| -> Result<Frame> {
        let store = store.ok_or_else(|| ExecError::NotFound("no store on this endpoint".into()))?;
        let oid = Oid::from_bytes(oid_bytes).ok_or(ExecError::Codec("bad oid in PullTile"))?;
        Ok(Frame::TileData(store.read(oid)?))
    })();
    match reply {
        Ok(frame) => write_frame(conn, &frame).map(|_| ()),
        Err(e) => {
            // Report the failure to the peer but keep the connection: a
            // missing tile must not poison the pooled socket.
            write_frame(conn, &Frame::Error(e.to_string())).map(|_| ())
        }
    }
}
