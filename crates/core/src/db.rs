//! The [`Paradise`] facade: cluster + catalog + query entry points.

use crate::history::QueryHistory;
use crate::Result;
use paradise_exec::cluster::{Cluster, ClusterConfig, Transport};
use paradise_exec::metrics::QueryMetrics;
use paradise_exec::{ExecError, TableDef, Tuple};
use paradise_geom::{Point, Rect};
use paradise_obs::{render_prometheus, MetricsExporter, MetricsRegistry, RenderFn};
use std::path::PathBuf;
use std::sync::Arc;

/// Which transport carries cross-node tuples and tile pulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process (the default): tuples move between endpoints by
    /// ownership and are charged as network traffic.
    #[default]
    Local,
    /// Real TCP data servers with the `paradise-net` wire protocol and
    /// credit-based flow control (one loopback server per node plus the
    /// QC endpoint).
    Tcp,
}

/// Construction parameters for a Paradise instance.
#[derive(Debug, Clone)]
pub struct ParadiseConfig {
    /// Where per-node volumes live.
    pub base_dir: PathBuf,
    /// Number of data-server nodes (the paper evaluates 4, 8, 16).
    pub nodes: usize,
    /// Buffer-pool pages per node.
    pub pool_pages: usize,
    /// Number of spatial-declustering grid tiles (paper: 10,000).
    pub grid_tiles: u32,
    /// The spatial universe.
    pub universe: Rect,
    /// Simulated cost per remote tile pull (see
    /// [`paradise_exec::cluster::ClusterConfig::pull_cost`]).
    pub pull_cost: std::time::Duration,
    /// How cross-node traffic moves (`Local` channels or real `Tcp`).
    pub transport: TransportKind,
    /// Where `EXPLAIN ANALYZE` writes its Chrome-trace JSON profile
    /// (`None`: no trace file is produced).
    pub trace_path: Option<PathBuf>,
    /// Listen address for the Prometheus metrics endpoint (`None`: no
    /// exporter is started). Use `"127.0.0.1:0"` to pick a free port and
    /// read it back with [`Paradise::metrics_addr`].
    pub metrics_addr: Option<String>,
    /// How many recent statements the query history retains.
    pub history_capacity: usize,
    /// Executions at least this slow are flagged in `paradise.queries`
    /// and emitted as `slow_query` events (`None`: slow log disabled).
    pub slow_query_threshold: Option<std::time::Duration>,
    /// Where the structured JSONL event log is written (`None`: events
    /// stay in the in-memory ring and the log starts disabled).
    pub event_log_path: Option<PathBuf>,
    /// Network tunables for the [`TransportKind::Tcp`] transport
    /// (timeouts, retry/backoff schedule). `None`: the defaults. Chaos and
    /// fault-injection tests override this so a dead or stalled peer
    /// surfaces as a clean per-query error within a bounded wait.
    pub net: Option<paradise_net::NetConfig>,
}

impl ParadiseConfig {
    /// A configuration with the benchmark defaults: a longitude/latitude
    /// world and 10,000 grid tiles.
    pub fn new(base_dir: impl Into<PathBuf>, nodes: usize) -> Self {
        ParadiseConfig {
            base_dir: base_dir.into(),
            nodes,
            pool_pages: 2048,
            grid_tiles: 10_000,
            universe: Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0))
                .expect("valid universe"),
            pull_cost: std::time::Duration::from_micros(5),
            transport: TransportKind::Local,
            trace_path: None,
            metrics_addr: None,
            history_capacity: 128,
            slow_query_threshold: None,
            event_log_path: None,
            net: None,
        }
    }

    /// Overrides the grid tile count.
    ///
    /// ```
    /// use paradise::ParadiseConfig;
    ///
    /// let cfg = ParadiseConfig::new("/tmp/paradise-doc", 4).with_grid_tiles(1024);
    /// assert_eq!(cfg.grid_tiles, 1024);
    /// ```
    pub fn with_grid_tiles(mut self, tiles: u32) -> Self {
        self.grid_tiles = tiles;
        self
    }

    /// Overrides the per-node buffer-pool size.
    ///
    /// ```
    /// use paradise::ParadiseConfig;
    ///
    /// let cfg = ParadiseConfig::new("/tmp/paradise-doc", 4).with_pool_pages(256);
    /// assert_eq!(cfg.pool_pages, 256);
    /// ```
    pub fn with_pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages;
        self
    }

    /// Selects the cross-node transport.
    ///
    /// ```
    /// use paradise::{ParadiseConfig, TransportKind};
    ///
    /// let cfg = ParadiseConfig::new("/tmp/paradise-doc", 2).with_transport(TransportKind::Tcp);
    /// assert_eq!(cfg.transport, TransportKind::Tcp);
    /// ```
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the Chrome-trace output path for `EXPLAIN ANALYZE` profiles.
    pub fn with_trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Starts a Prometheus `/metrics` endpoint on `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port).
    pub fn with_metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Overrides how many recent statements the query history retains.
    pub fn with_history_capacity(mut self, capacity: usize) -> Self {
        self.history_capacity = capacity;
        self
    }

    /// Enables the slow-query log for executions at least this slow.
    pub fn with_slow_query_threshold(mut self, threshold: std::time::Duration) -> Self {
        self.slow_query_threshold = Some(threshold);
        self
    }

    /// Enables the structured event log and writes it (JSONL) to `path`.
    pub fn with_event_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.event_log_path = Some(path.into());
        self
    }

    /// Overrides the TCP transport's network tunables (the `events` handle
    /// is wired to the cluster's event log at startup regardless).
    pub fn with_net(mut self, net: paradise_net::NetConfig) -> Self {
        self.net = Some(net);
        self
    }
}

/// Starts the Prometheus endpoint over the cluster's registries: one
/// node-labelled sample group per data server plus the coordinator's
/// (`node="qc"`). The render closure holds its own registry handles, so
/// scrapes keep working for the exporter's whole lifetime.
fn start_exporter(addr: &str, cluster: &Cluster) -> Result<MetricsExporter> {
    let mut groups: Vec<(String, Arc<MetricsRegistry>)> = cluster
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| (i.to_string(), node.obs.clone()))
        .collect();
    groups.push(("qc".to_string(), cluster.obs().clone()));
    let render: RenderFn = Arc::new(move || {
        let sampled: Vec<(String, Vec<paradise_obs::MetricSample>)> =
            groups.iter().map(|(label, reg)| (label.clone(), reg.samples())).collect();
        render_prometheus(&sampled)
    });
    MetricsExporter::start(addr, render)
        .map_err(|e| ExecError::Other(format!("metrics endpoint {addr}: {e}")))
}

/// A query answer: result rows plus the execution cost record.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result tuples.
    pub rows: Vec<Tuple>,
    /// Cost accounting (phases, network, pulls, simulated time).
    pub metrics: QueryMetrics,
}

/// The Paradise DBMS: a query coordinator over a simulated shared-nothing
/// cluster (paper Figure 2.1).
pub struct Paradise {
    // Declared before `cluster` so the exporter thread shuts down first.
    exporter: Option<MetricsExporter>,
    cluster: Arc<Cluster>,
    history: QueryHistory,
    trace_path: Option<PathBuf>,
}

impl Paradise {
    /// Creates a fresh instance (wiping `base_dir`). With
    /// [`TransportKind::Tcp`] this also starts the cluster's data servers
    /// (one loopback listener per node plus the QC endpoint) and routes
    /// all cross-node streams and tile pulls through them.
    pub fn create(cfg: ParadiseConfig) -> Result<Paradise> {
        let mut cluster = Cluster::create(&ClusterConfig {
            nodes: cfg.nodes,
            pool_pages: cfg.pool_pages,
            grid_tiles: cfg.grid_tiles,
            universe: cfg.universe,
            base_dir: cfg.base_dir,
            pull_cost: cfg.pull_cost,
        })?;
        if let Some(path) = &cfg.event_log_path {
            cluster
                .events()
                .attach_file(path)
                .map_err(|e| ExecError::Other(format!("event log {}: {e}", path.display())))?;
        }
        // Every failpoint trigger in the process lands in this instance's
        // event log (site + action), so chaos runs leave an auditable JSONL
        // trail alongside the net.retry / flow.stall events they provoke.
        {
            let events = cluster.events().clone();
            paradise_util::failpoint::set_observer(move |site, action| {
                events.emit(
                    "failpoint",
                    &[("site", site.to_string().into()), ("action", action.to_string().into())],
                );
            });
        }
        if cfg.transport == TransportKind::Tcp {
            let net_cfg = paradise_net::NetConfig {
                events: Some(cluster.events().clone()),
                ..cfg.net.unwrap_or_default()
            };
            let t = paradise_net::TcpTransport::serve_with(cluster.nodes(), net_cfg)?;
            t.register_metrics(cluster.obs());
            cluster.set_transport(Transport::Tcp(t));
        }
        let exporter = match &cfg.metrics_addr {
            Some(addr) => Some(start_exporter(addr, &cluster)?),
            None => None,
        };
        let history = QueryHistory::new(cfg.history_capacity);
        history.set_slow_threshold(cfg.slow_query_threshold);
        Ok(Paradise { exporter, cluster: Arc::new(cluster), history, trace_path: cfg.trace_path })
    }

    /// The underlying cluster. Query plans clone the handle into the
    /// node fragments they run on the cluster's executor.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The cluster-wide metrics registry (buffer, WAL, network, R-tree,
    /// and stream counters — see `paradise_obs`).
    pub fn obs(&self) -> &paradise_obs::MetricsRegistry {
        self.cluster.obs()
    }

    /// Where `EXPLAIN ANALYZE` writes its Chrome-trace profile, if set.
    pub fn trace_path(&self) -> Option<&std::path::Path> {
        self.trace_path.as_deref()
    }

    /// The query-history ring backing `paradise.queries`.
    pub fn history(&self) -> &QueryHistory {
        &self.history
    }

    /// Bound address of the Prometheus endpoint, when one was configured
    /// with [`ParadiseConfig::with_metrics_addr`].
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.exporter.as_ref().map(|e| e.addr())
    }

    /// Registers a table definition (DDL), replacing any table of the
    /// same name.
    pub fn define_table(&mut self, def: TableDef) {
        self.cluster.define_table(def);
    }

    /// Looks up a table definition. A dropped table is not found.
    pub fn table(&self, name: &str) -> Result<Arc<TableDef>> {
        self.cluster.table(name)
    }

    /// Defined table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.cluster.table_names()
    }

    /// Drops a table: its fragments, tile files and indexes on every node,
    /// and its definition ([`TableDef::drop_table`]).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.table(name)?.drop_table(&self.cluster)
    }

    /// Loads tuples into a defined table (part of benchmark Q1).
    pub fn load_table(
        &self,
        name: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<paradise_exec::table::LoadStats> {
        let def = self.table(name)?;
        let stats = def.load(&self.cluster, tuples)?;
        Ok(stats)
    }

    /// Builds a B+-tree index on a scalar column of a table.
    pub fn create_btree_index(&self, table: &str, col: usize) -> Result<()> {
        self.table(table)?.build_btree_index(&self.cluster, col)
    }

    /// Builds an R*-tree index on a spatial column of a table.
    pub fn create_rtree_index(&self, table: &str, col: usize) -> Result<()> {
        self.table(table)?.build_rtree_index(&self.cluster, col)
    }

    /// Durably commits all nodes (end of load).
    pub fn commit(&self) -> Result<()> {
        self.cluster.commit_all()
    }

    /// Flushes every buffer pool — run before each measured query, as the
    /// paper does ("The buffer pool was flushed between queries").
    pub fn flush_caches(&self) -> Result<()> {
        self.cluster.flush_caches()
    }

    /// Parses and executes a statement in the extended SQL dialect.
    pub fn sql(&self, text: &str) -> Result<QueryResult> {
        crate::sql_exec::run_sql(self, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_exec::schema::{DataType, Field, Schema};
    use paradise_exec::value::Value;
    use paradise_exec::Decluster;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("paradise-db-{}-{tag}", std::process::id()))
    }

    #[test]
    fn create_define_load_roundtrip() {
        let mut db = Paradise::create(ParadiseConfig::new(tmp("a"), 2)).unwrap();
        db.define_table(TableDef::new(
            "t",
            Schema::new(vec![Field::new("x", DataType::Int)]),
            Decluster::RoundRobin,
        ));
        let stats = db.load_table("t", (0..10).map(|i| Tuple::new(vec![Value::Int(i)]))).unwrap();
        assert_eq!(stats.input_tuples, 10);
        assert!(db.table("t").is_ok());
        assert!(db.table("missing").is_err());
        assert_eq!(db.table_names(), vec!["t"]);
        db.commit().unwrap();
        db.flush_caches().unwrap();
    }

    #[test]
    fn dropped_tables_leave_the_catalog() {
        let mut db = Paradise::create(ParadiseConfig::new(tmp("drop"), 2)).unwrap();
        let def = || {
            TableDef::new(
                "t",
                Schema::new(vec![Field::new("x", DataType::Int)]),
                Decluster::RoundRobin,
            )
        };
        let rows = || (0..10).map(|i| Tuple::new(vec![Value::Int(i)]));
        for drop_by_name in [true, false] {
            db.define_table(def());
            db.load_table("t", rows()).unwrap();
            db.commit().unwrap();
            assert_eq!(db.sql("select x from t").unwrap().rows.len(), 10);
            if drop_by_name {
                db.drop_table("t").unwrap();
            } else {
                db.table("t").unwrap().drop_table(db.cluster()).unwrap();
            }
            db.commit().unwrap();
            assert!(db.table("t").is_err(), "dropped table still defined");
            assert!(db.table_names().is_empty());
            let err = db.sql("select x from t").unwrap_err().to_string();
            assert!(err.contains("table t"), "{err}");
            assert!(db.drop_table("t").is_err(), "dropped twice");
        }
        // The name can be defined again.
        db.define_table(def());
        db.load_table("t", rows()).unwrap();
        assert_eq!(db.sql("select x from t").unwrap().rows.len(), 10);
    }
}
