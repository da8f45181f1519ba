//! The simulated shared-nothing cluster.
//!
//! Paper §2.2/§3.2: Paradise runs one Query Coordinator plus one Data
//! Server per node; each node owns its disks exclusively. Here every node
//! is a [`Node`] owning one [`Store`] (volume + buffer pool + WAL) rooted
//! in its own directory — shared-nothing by construction. The paper's four
//! database disks per node are collapsed into one volume per node; within-
//! node disk striping does not change any of the parallel algorithms.
//!
//! Cross-node traffic — tuples moved by [`crate::phase::exchange`] and
//! remote tile pulls — is accounted in [`NetStats`], which the experiments
//! read.

use crate::stream::{self, RemoteRx, RemoteTx, TupleRx, TupleTx};
use crate::table::TableDef;
use crate::value::TileRef;
use crate::workers::{register_pool_metrics, Executor};
use crate::{ExecError, Result};
use paradise_geom::{Grid, Point, Rect, TileId};
use paradise_obs::{Counter, EventLog, MetricSample, MetricsRegistry, TraceSink};
use paradise_storage::{BufferStats, Store, PAGE_SIZE};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Index of a node within the cluster.
pub type NodeId = usize;

/// The endpoints a wire transport must provide. `paradise-net` implements
/// this over TCP; the trait lives here so the engine can be wired to any
/// transport without a dependency cycle (net depends on exec, not the
/// other way round).
pub trait WireTransport: Send + Sync {
    /// Opens a flow-controlled tuple stream from `src` to `dst` with a
    /// window of `window` tuples in flight. `dst` may be
    /// [`Cluster::coordinator_id`] (the QC endpoint). Returns the raw
    /// endpoints; the cluster wraps them with traffic accounting.
    fn open(
        &self,
        window: usize,
        src: NodeId,
        dst: NodeId,
    ) -> Result<(Arc<dyn RemoteTx>, Box<dyn RemoteRx>)>;

    /// Fetches the raw stored bytes of a tile object living on
    /// `tile.node`, on behalf of `requester` (§2.5.2 pull).
    fn fetch_tile(&self, requester: NodeId, tile: &TileRef) -> Result<Vec<u8>>;

    /// Pulls a snapshot of `node`'s metrics registry over the wire
    /// (`StatsPull`/`StatsReply`) — the monitoring plane's per-node view.
    fn pull_stats(&self, node: NodeId) -> Result<Vec<MetricSample>>;

    /// Stops servers and closes connections. Idempotent.
    fn shutdown(&self);
}

/// How tuples and tiles move between nodes.
#[derive(Clone)]
pub enum Transport {
    /// In-process (the default): [`crate::phase::exchange`] moves tuples
    /// between endpoints by ownership and charges each crossing tuple to
    /// the network counters; no stream is opened.
    Local,
    /// A real wire protocol (e.g. `paradise-net` TCP with credit-based
    /// flow control). Both transports share the accounting choke point,
    /// so plans behave identically.
    Tcp(Arc<dyn WireTransport>),
}

impl std::fmt::Debug for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transport::Local => write!(f, "Transport::Local"),
            Transport::Tcp(_) => write!(f, "Transport::Tcp"),
        }
    }
}

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data-server nodes (the paper uses 4, 8, 16).
    pub nodes: usize,
    /// Buffer-pool pages per node (the paper: 32 MB = 4096 8 KB pages;
    /// scaled down alongside the data).
    pub pool_pages: usize,
    /// Spatial-declustering tile count (the paper uses 10,000).
    pub grid_tiles: u32,
    /// World rectangle (the spatial universe).
    pub universe: Rect,
    /// Directory to place per-node volumes in.
    pub base_dir: PathBuf,
    /// Busy-time charged to the requesting node per remote tile pull,
    /// modelling the paper's §2.5.2 observation that "pull is an expensive
    /// operation because each pull requires that a separate operator be
    /// started on the remote node" plus the extra random disk seeks.
    pub pull_cost: std::time::Duration,
}

impl ClusterConfig {
    /// A small default configuration for tests: `nodes` nodes in a fresh
    /// temporary directory, a 360×180 "world", 1024 grid tiles.
    pub fn for_test(nodes: usize, tag: &str) -> ClusterConfig {
        let base_dir = std::env::temp_dir().join(format!(
            "paradise-cluster-{}-{}-{}",
            std::process::id(),
            tag,
            nodes
        ));
        ClusterConfig {
            nodes,
            pool_pages: 512,
            grid_tiles: 1024,
            universe: Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0))
                .expect("valid universe"),
            base_dir,
            pull_cost: std::time::Duration::from_micros(5),
        }
    }
}

/// Cross-node traffic counters.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Bytes shipped between distinct endpoints (nodes or the QC).
    pub bytes: AtomicU64,
    /// Tuples shipped between distinct endpoints (nodes or the QC).
    pub tuples: AtomicU64,
    /// Remote tile pulls.
    pub pulls: AtomicU64,
    /// Bytes moved by pulls.
    pub pull_bytes: AtomicU64,
}

/// Snapshot of [`NetStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Bytes shipped between distinct nodes.
    pub bytes: u64,
    /// Tuples shipped between distinct nodes.
    pub tuples: u64,
    /// Remote tile pulls.
    pub pulls: u64,
    /// Bytes moved by pulls.
    pub pull_bytes: u64,
}

impl NetStats {
    /// Current values.
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            bytes: self.bytes.load(Ordering::Relaxed),
            tuples: self.tuples.load(Ordering::Relaxed),
            pulls: self.pulls.load(Ordering::Relaxed),
            pull_bytes: self.pull_bytes.load(Ordering::Relaxed),
        }
    }

    /// Difference since `base` (per-query accounting).
    pub fn since(&self, base: NetSnapshot) -> NetSnapshot {
        let now = self.snapshot();
        NetSnapshot {
            bytes: now.bytes - base.bytes,
            tuples: now.tuples - base.tuples,
            pulls: now.pulls - base.pulls,
            pull_bytes: now.pull_bytes - base.pull_bytes,
        }
    }

    /// Records one tuple shipped between distinct endpoints.
    pub fn ship(&self, bytes: usize) {
        self.ship_batch(bytes as u64, 1);
    }

    /// Records `tuples` tuples of `bytes` bytes in all shipped between
    /// distinct endpoints.
    pub fn ship_batch(&self, bytes: u64, tuples: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.tuples.fetch_add(tuples, Ordering::Relaxed);
    }
}

/// One data-server node.
pub struct Node {
    /// The node's index.
    pub id: NodeId,
    /// The node's private storage manager.
    pub store: Arc<Store>,
    /// The node's own metrics registry (unprefixed names — `buffer.hits`,
    /// `wal.commits`, …). Over a wire transport this is what the node's
    /// data server serves to `StatsPull`; the QC labels each snapshot
    /// with `node=<id>` when aggregating.
    pub obs: Arc<MetricsRegistry>,
    /// `scan.rows`: rows this node's fragment scans handed to callbacks.
    pub scan_rows: Counter,
    /// `scan.decoded`: rows those callbacks materialised as whole tuples.
    pub scan_decoded: Counter,
}

/// What the load-time tile codec did (`array.*` in the QC registry): tiles
/// stored LZW-compressed and tiles stored raw, with the raw bytes that went
/// in and the stored bytes that came out.
#[derive(Debug, Clone)]
pub struct TileCodecStats {
    /// `array.tiles_compressed`.
    pub compressed: Counter,
    /// `array.tiles_raw`.
    pub raw: Counter,
    /// `array.tile_bytes_in`: raw tile payload bytes handed to the codec.
    pub bytes_in: Counter,
    /// `array.tile_bytes_out`: tile bytes stored.
    pub bytes_out: Counter,
}

impl TileCodecStats {
    fn register(obs: &MetricsRegistry) -> Self {
        TileCodecStats {
            compressed: obs.counter("array.tiles_compressed"),
            raw: obs.counter("array.tiles_raw"),
            bytes_in: obs.counter("array.tile_bytes_in"),
            bytes_out: obs.counter("array.tile_bytes_out"),
        }
    }
}

/// A simulated cluster: the query coordinator's view of all nodes.
pub struct Cluster {
    nodes: Vec<Arc<Node>>,
    grid: Grid,
    /// Traffic counters (shared with wire streams).
    pub net: Arc<NetStats>,
    pull_cost: std::time::Duration,
    temp_counter: AtomicU64,
    transport: Transport,
    /// The unified metrics registry every subsystem publishes into.
    obs: Arc<MetricsRegistry>,
    /// Span sink for per-node/per-operator tracing (disabled by default;
    /// `EXPLAIN ANALYZE` enables it for one query).
    trace: Arc<TraceSink>,
    /// Structured JSONL event log (slow queries, stalls, retries, phase
    /// starts). Disabled by default.
    events: Arc<EventLog>,
    streams_opened: Counter,
    tile_codec: TileCodecStats,
    /// The query coordinator's catalog: every defined table, by name.
    tables: Mutex<HashMap<String, Arc<TableDef>>>,
    /// The executor every phase's node fragments run on
    /// ([`crate::workers`]): long-lived helper threads, started here and
    /// joined when the cluster drops.
    workers: Arc<Executor>,
}

impl Cluster {
    /// Creates a fresh cluster (wiping `base_dir`).
    pub fn create(cfg: &ClusterConfig) -> Result<Cluster> {
        let _ = std::fs::remove_dir_all(&cfg.base_dir);
        std::fs::create_dir_all(&cfg.base_dir).map_err(paradise_storage::StorageError::Io)?;
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for id in 0..cfg.nodes {
            let base = cfg.base_dir.join(format!("node{id}"));
            let store = Arc::new(Store::create(&base, cfg.pool_pages)?);
            let obs = Arc::new(MetricsRegistry::new());
            let [scan_rows, scan_decoded] = register_node_metrics(&obs, &store);
            nodes.push(Arc::new(Node { id, store, obs, scan_rows, scan_decoded }));
        }
        let grid = Grid::with_tile_count(cfg.universe, cfg.grid_tiles).map_err(ExecError::Geom)?;
        let net = Arc::new(NetStats::default());
        let obs = Arc::new(MetricsRegistry::new());
        let trace = Arc::new(TraceSink::new());
        register_cluster_metrics(&obs, &net);
        for n in &nodes {
            trace.set_lane_name(n.id as u32, &format!("node {}", n.id));
        }
        trace.set_lane_name(nodes.len() as u32, "QC");
        let streams_opened = obs.counter("exec.streams_opened");
        let tile_codec = TileCodecStats::register(&obs);
        let workers = Arc::new(
            Executor::for_host()
                .map_err(|e| ExecError::Other(format!("starting executor threads: {e}")))?,
        );
        register_pool_metrics(&obs, &workers);
        Ok(Cluster {
            nodes,
            grid,
            net,
            pull_cost: cfg.pull_cost,
            temp_counter: AtomicU64::new(0),
            transport: Transport::Local,
            obs,
            trace,
            events: Arc::new(EventLog::new()),
            streams_opened,
            tile_codec,
            tables: Mutex::default(),
            workers,
        })
    }

    /// The executor the cluster's node fragments run on.
    pub fn workers(&self) -> &Executor {
        &self.workers
    }

    /// Registers a table definition in the catalog, replacing any table of
    /// the same name.
    pub fn define_table(&self, def: TableDef) {
        self.catalog().insert(def.name.clone(), Arc::new(def));
    }

    /// Looks up a defined table.
    pub fn table(&self, name: &str) -> Result<Arc<TableDef>> {
        self.catalog()
            .get(name)
            .cloned()
            .ok_or_else(|| ExecError::NotFound(format!("table {name}")))
    }

    /// The defined tables' names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.catalog().keys().cloned().collect();
        v.sort();
        v
    }

    /// Removes a table from the catalog ([`TableDef::drop_table`]).
    pub(crate) fn forget_table(&self, name: &str) {
        self.catalog().remove(name);
    }

    fn catalog(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<TableDef>>> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The load-time tile codec counters.
    pub fn tile_codec(&self) -> &TileCodecStats {
        &self.tile_codec
    }

    /// The cluster-wide metrics registry.
    pub fn obs(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// The cluster-wide trace sink. Lane `i` is node `i`; lane
    /// [`Cluster::coordinator_id`] is the QC.
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// The cluster-wide structured event log (disabled by default).
    pub fn events(&self) -> &Arc<EventLog> {
        &self.events
    }

    /// Snapshot of one node's own registry. Over a `Tcp` transport the
    /// samples are pulled over the wire from the node's data server
    /// (`StatsPull`/`StatsReply`); over `Local` they are read directly.
    pub fn node_samples(&self, id: NodeId) -> Result<Vec<MetricSample>> {
        let node = self
            .nodes
            .get(id)
            .ok_or_else(|| ExecError::Other(format!("no node {id} in this cluster")))?;
        match &self.transport {
            Transport::Tcp(t) => t.pull_stats(id),
            Transport::Local => Ok(node.obs.samples()),
        }
    }

    /// Node-labelled snapshots of the whole monitoring plane: one group
    /// per data server (labelled `"0"`, `"1"`, …) plus the QC's own
    /// cluster-level registry (labelled `"qc"`). Wire pulls that fail
    /// (e.g. during shutdown) degrade to a direct in-process read — the
    /// nodes share our address space, so the data is always reachable.
    pub fn all_samples(&self) -> Vec<(String, Vec<MetricSample>)> {
        let mut groups = Vec::with_capacity(self.nodes.len() + 1);
        for node in &self.nodes {
            let samples = self.node_samples(node.id).unwrap_or_else(|_| node.obs.samples());
            groups.push((node.id.to_string(), samples));
        }
        groups.push(("qc".to_string(), self.obs.samples()));
        groups
    }

    /// Summed buffer-pool statistics across every node's pool (each pool
    /// snapshot is internally consistent; see `BufferPool::stats`).
    pub fn buffer_stats_total(&self) -> BufferStats {
        self.nodes.iter().fold(BufferStats::default(), |acc, n| acc.merge(n.store.pool().stats()))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The stream/tile endpoint id of the query coordinator — one past the
    /// last data server, mirroring the paper's QC-as-its-own-process
    /// (Figure 2.1).
    pub fn coordinator_id(&self) -> NodeId {
        self.nodes.len()
    }

    /// Installs a wire transport (servers must already be running).
    /// Subsequent cross-node streams, routing, and tile pulls go over it.
    pub fn set_transport(&mut self, transport: Transport) {
        self.transport = transport;
    }

    /// The active transport.
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// Shuts the wire transport down (no-op for `Local`). Idempotent.
    pub fn shutdown_transport(&self) {
        if let Transport::Tcp(t) = &self.transport {
            t.shutdown();
        }
    }

    /// Opens a wire stream between endpoints `src → dst` (a node or the
    /// QC, [`Cluster::coordinator_id`]) with the given flow-control window.
    /// Every tuple crossing distinct endpoints is charged to [`NetStats`]
    /// at [`TupleTx::send`]. Under [`Transport::Local`] there is no wire —
    /// [`crate::phase::exchange`] moves tuples by ownership — so this is
    /// an error.
    pub fn stream(&self, window: usize, src: NodeId, dst: NodeId) -> Result<(TupleTx, TupleRx)> {
        let Transport::Tcp(t) = &self.transport else {
            return Err(ExecError::Other("the Local transport opens no streams".into()));
        };
        self.streams_opened.inc();
        let (tx, rx) = t.open(window, src, dst)?;
        Ok(stream::remote_stream(tx, rx, src, dst, self.net.clone()))
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
    }

    /// One node.
    pub fn node(&self, id: NodeId) -> &Arc<Node> {
        &self.nodes[id]
    }

    /// The spatial-declustering grid (shared by every spatially declustered
    /// table so joins can be local, §2.7.1).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The node owning a grid tile: hash on tile number (paper §3.1.2,
    /// "each tile is mapped to one of the nodes by hashing on tile number").
    pub fn node_for_tile(&self, tile: TileId) -> NodeId {
        // Fibonacci hash on the tile id.
        let h = (u64::from(tile)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.nodes.len()
    }

    /// A fresh unique name for a temporary table / operator file.
    pub fn fresh_temp_name(&self, prefix: &str) -> String {
        let n = self.temp_counter.fetch_add(1, Ordering::Relaxed);
        format!("__tmp_{prefix}_{n}")
    }

    /// Reads a raster tile object, possibly from a remote node — the pull
    /// operator of §2.5.2. Returns the decoded (decompressed) tile bytes.
    ///
    /// `requester` is the node doing the work; a pull is accounted whenever
    /// the tile lives elsewhere.
    pub fn fetch_tile(&self, requester: NodeId, tile: &TileRef) -> Result<Vec<u8>> {
        let owner = tile.node as usize;
        let raw = match (&self.transport, owner == requester) {
            // A remote pull over a real transport goes through the wire:
            // the owning data server reads the object and ships the bytes.
            (Transport::Tcp(t), false) => t.fetch_tile(requester, tile)?,
            // Local transport (or a pull of a tile we own): direct read.
            _ => self.nodes[owner].store.read(tile.oid)?,
        };
        if owner != requester {
            self.net.pulls.fetch_add(1, Ordering::Relaxed);
            self.net.pull_bytes.fetch_add(raw.len() as u64, Ordering::Relaxed);
            // Charge the remote-operator startup + extra seeks to the
            // requesting node's busy time (§2.5.2).
            let t0 = std::time::Instant::now();
            while t0.elapsed() < self.pull_cost {
                std::hint::spin_loop();
            }
        }
        if tile.compressed {
            return Ok(paradise_array::lzw::decompress(&raw)?);
        }
        Ok(raw)
    }

    /// Flushes every node's buffer pool (cold-cache start, paper §3.2).
    pub fn flush_caches(&self) -> Result<()> {
        for n in &self.nodes {
            n.store.flush_cache()?;
        }
        Ok(())
    }

    /// Commits every node's store.
    pub fn commit_all(&self) -> Result<()> {
        for n in &self.nodes {
            n.store.commit()?;
        }
        Ok(())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_transport();
    }
}

/// Publishes one node's pre-existing storage atomics (buffer pool, WAL,
/// R*-tree decodes) into the node's *own* registry under unprefixed names —
/// this is the snapshot that travels over the wire in a `StatsReply`; the
/// QC attaches the `node=<id>` label when it aggregates. Returns the node's
/// `scan.rows` and `scan.decoded` counters.
fn register_node_metrics(obs: &MetricsRegistry, store: &Arc<Store>) -> [Counter; 2] {
    macro_rules! pool_stat {
        ($field:ident) => {{
            let store = store.clone();
            obs.register_collector(&format!("buffer.{}", stringify!($field)), move || {
                store.pool().stats().$field
            });
        }};
    }
    pool_stat!(hits);
    pool_stat!(misses);
    pool_stat!(writebacks);
    pool_stat!(evictions);
    macro_rules! wal_stat {
        ($field:ident) => {{
            let store = store.clone();
            obs.register_collector(&format!("wal.{}", stringify!($field)), move || {
                store.wal_stats().$field
            });
        }};
    }
    wal_stat!(commits);
    wal_stat!(pages);
    wal_stat!(bytes);
    let decodes = store.clone();
    obs.register_collector("rtree.decodes", move || decodes.rtree_decodes());
    // The volume file's size: freed extents are reused before it grows.
    let vol = store.volume().clone();
    obs.register_collector("storage.volume_bytes", move || vol.num_pages() * PAGE_SIZE as u64);
    // The live cached-frame level, tracked with gauge deltas inside the
    // pool (no recompute-and-set race), plus the static capacity.
    obs.register_gauge("buffer.frames_cached", store.pool().frames_gauge());
    let capacity = store.pool().capacity() as u64;
    obs.register_collector("buffer.capacity", move || capacity);
    // Fragment scans (`TableDef::scan_fragment`) add to these per page.
    [obs.counter("scan.rows"), obs.counter("scan.decoded")]
}

/// Publishes the cluster-wide [`NetStats`] into the QC registry as lazy
/// collectors — the hot paths keep their own counters and pay nothing
/// extra. Per-node storage metrics live in each node's own registry
/// (see [`register_node_metrics`]); [`Cluster::all_samples`] labels them.
fn register_cluster_metrics(obs: &MetricsRegistry, net: &Arc<NetStats>) {
    macro_rules! net_stat {
        ($field:ident) => {{
            let net = net.clone();
            obs.register_collector(&format!("net.{}", stringify!($field)), move || {
                net.$field.load(Ordering::Relaxed)
            });
        }};
    }
    net_stat!(bytes);
    net_stat!(tuples);
    net_stat!(pulls);
    net_stat!(pull_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_cluster_with_private_stores() {
        let cluster = Cluster::create(&ClusterConfig::for_test(4, "create")).unwrap();
        assert_eq!(cluster.num_nodes(), 4);
        // Each node can host its own files independently.
        for n in cluster.nodes() {
            let f = n.store.create_file("frag").unwrap();
            f.insert(format!("node {}", n.id).as_bytes()).unwrap();
        }
        for n in cluster.nodes() {
            let f = n.store.file("frag").unwrap();
            let rows = f.scan().unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].1, format!("node {}", n.id).as_bytes());
        }
    }

    #[test]
    fn tile_to_node_mapping_is_stable_and_balanced() {
        let cluster = Cluster::create(&ClusterConfig::for_test(8, "map")).unwrap();
        let mut counts = [0usize; 8];
        for t in 0..cluster.grid().num_tiles() {
            let n = cluster.node_for_tile(t);
            assert_eq!(n, cluster.node_for_tile(t), "mapping must be deterministic");
            counts[n] += 1;
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total as u32, cluster.grid().num_tiles());
        let avg = total / 8;
        for (n, &c) in counts.iter().enumerate() {
            assert!(c > avg / 2 && c < avg * 2, "node {n} got {c} of {total} tiles");
        }
    }

    #[test]
    fn net_stats_accumulate() {
        let cluster = Cluster::create(&ClusterConfig::for_test(2, "net")).unwrap();
        let base = cluster.net.snapshot();
        cluster.net.ship(100);
        cluster.net.ship(50);
        let d = cluster.net.since(base);
        assert_eq!(d.bytes, 150);
        assert_eq!(d.tuples, 2);
    }

    #[test]
    fn registry_surfaces_storage_and_net_counters() {
        let cluster = Cluster::create(&ClusterConfig::for_test(2, "obs")).unwrap();
        // Touch node 0's store so its storage counters move.
        let f = cluster.node(0).store.create_file("t").unwrap();
        f.insert(b"x").unwrap();
        cluster.node(0).store.commit().unwrap();
        cluster.net.ship(64);
        let snap = cluster.obs().snapshot();
        assert_eq!(snap["net.bytes"], 64);
        assert_eq!(snap["net.tuples"], 1);
        // Storage metrics are registered once, in each node's own registry;
        // all_samples labels them by node.
        assert!(!snap.keys().any(|k| k.contains("buffer.") || k.contains("wal.")), "{snap:?}");
        let groups = cluster.all_samples();
        let commits = |node: &str| {
            let (_, samples) = groups.iter().find(|(label, _)| label == node).unwrap();
            samples.iter().find(|s| s.name == "wal.commits").map(|s| s.value)
        };
        assert!(commits("0").unwrap() >= 1, "commit not visible: {groups:?}");
        assert!(commits("1").is_some());
        assert_eq!(commits("qc"), None);
        // Local moves tuples by ownership: no stream to open or count.
        assert!(cluster.stream(4, 0, 1).is_err());
        assert_eq!(cluster.obs().get("exec.streams_opened"), Some(0));
    }

    #[test]
    fn per_node_registries_carry_unprefixed_storage_metrics() {
        let cluster = Cluster::create(&ClusterConfig::for_test(2, "nodeobs")).unwrap();
        let f = cluster.node(0).store.create_file("t").unwrap();
        f.insert(b"x").unwrap();
        cluster.node(0).store.commit().unwrap();
        let n0 = cluster.node(0).obs.snapshot();
        assert!(n0.contains_key("buffer.hits"), "keys: {:?}", n0.keys());
        assert!(n0.contains_key("buffer.frames_cached"));
        assert!(n0["buffer.capacity"] > 0);
        assert!(n0["wal.commits"] >= 1, "{n0:?}");
        // Node 1 saw none of that traffic (only the shared setup commits).
        let n1_commits = cluster.node(1).obs.get("wal.commits").unwrap();
        assert!(n0["wal.commits"] > n1_commits, "{n0:?} vs {n1_commits}");
        // Local transport: node_samples reads the registry directly.
        let samples = cluster.node_samples(0).unwrap();
        assert!(samples.iter().any(|s| s.name == "wal.commits" && s.value >= 1));
        assert!(cluster.node_samples(7).is_err());
        // all_samples groups every node plus the QC registry.
        let groups = cluster.all_samples();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[2].0, "qc");
        assert!(groups[2].1.iter().any(|s| s.name == "net.bytes"));
    }

    #[test]
    fn temp_names_unique() {
        let cluster = Cluster::create(&ClusterConfig::for_test(1, "tmp")).unwrap();
        let a = cluster.fresh_temp_name("join");
        let b = cluster.fresh_temp_name("join");
        assert_ne!(a, b);
    }
}
