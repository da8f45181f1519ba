//! The `paradise.*` system catalog: virtual tables over the monitoring
//! plane, queryable with ordinary SELECTs (paper §2.3 exposes catalog
//! relations the same way; this reproduction extends them to the
//! distributed metrics plane).
//!
//! | table                 | one row per            | source                         |
//! |-----------------------|------------------------|--------------------------------|
//! | `paradise.metrics`    | metric × node          | per-node registries (wire pull)|
//! | `paradise.queries`    | recent statement       | [`crate::history::QueryHistory`]|
//! | `paradise.buffer_pool`| node                   | per-node buffer/WAL counters   |
//! | `paradise.streams`    | cluster (single row)   | QC registry stream/net counters|
//!
//! Per-node tables are populated through
//! [`Cluster::node_samples`](paradise_exec::cluster::Cluster::node_samples), which
//! under the TCP transport pulls each data server's registry over the wire
//! (`StatsPull`/`StatsReply`) — the rows really do come from the remote
//! endpoints, labelled `node = "0" … "N-1"`, plus `"qc"` for the
//! coordinator's own registry.

use crate::db::Paradise;
use crate::Result;
use paradise_exec::metrics::QueryMetrics;
use paradise_exec::phase::{run_phase, run_sequential};
use paradise_exec::schema::{DataType, Field, Schema};
use paradise_exec::value::Value;
use paradise_exec::Tuple;
use paradise_obs::MetricSample;

/// Which system table a `paradise.*` FROM clause named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogTable {
    /// `paradise.metrics` — every metric of every node, node-labelled.
    Metrics,
    /// `paradise.queries` — the query-history ring.
    Queries,
    /// `paradise.buffer_pool` — per-node buffer-pool and WAL counters.
    BufferPool,
    /// `paradise.streams` — cluster-wide stream and network totals.
    Streams,
}

impl CatalogTable {
    /// Resolves a (lowercased) `paradise.*` table name.
    pub fn from_name(name: &str) -> Option<CatalogTable> {
        match name {
            "paradise.metrics" => Some(CatalogTable::Metrics),
            "paradise.queries" => Some(CatalogTable::Queries),
            "paradise.buffer_pool" => Some(CatalogTable::BufferPool),
            "paradise.streams" => Some(CatalogTable::Streams),
            _ => None,
        }
    }

    /// The table's catalog name.
    pub fn name(&self) -> &'static str {
        match self {
            CatalogTable::Metrics => "paradise.metrics",
            CatalogTable::Queries => "paradise.queries",
            CatalogTable::BufferPool => "paradise.buffer_pool",
            CatalogTable::Streams => "paradise.streams",
        }
    }

    /// True when the table's rows are produced per node (a measured
    /// "catalog scan" phase) rather than at the coordinator.
    pub fn is_per_node(&self) -> bool {
        matches!(self, CatalogTable::Metrics | CatalogTable::BufferPool)
    }

    /// The table's schema.
    pub fn schema(&self) -> Schema {
        let f = Field::new;
        Schema::new(match self {
            CatalogTable::Metrics => {
                vec![f("name", DataType::Str), f("node", DataType::Str), f("value", DataType::Int)]
            }
            CatalogTable::Queries => vec![
                f("id", DataType::Int),
                f("statement", DataType::Str),
                f("shape", DataType::Str),
                f("status", DataType::Str),
                f("rows", DataType::Int),
                f("wall_us", DataType::Int),
                f("simulated_us", DataType::Int),
                f("net_bytes", DataType::Int),
                f("slow", DataType::Int),
            ],
            CatalogTable::BufferPool => vec![
                f("node", DataType::Str),
                f("capacity", DataType::Int),
                f("cached", DataType::Int),
                f("hits", DataType::Int),
                f("misses", DataType::Int),
                f("evictions", DataType::Int),
                f("writebacks", DataType::Int),
            ],
            CatalogTable::Streams => vec![
                f("streams_opened", DataType::Int),
                f("net_bytes", DataType::Int),
                f("net_tuples", DataType::Int),
                f("wire_bytes_sent", DataType::Int),
                f("wire_frames_sent", DataType::Int),
            ],
        })
    }
}

fn sample_value(samples: &[MetricSample], name: &str) -> i64 {
    samples.iter().find(|s| s.name == name).map(|s| s.value as i64).unwrap_or(0)
}

fn metric_rows(label: &str, samples: &[MetricSample]) -> Vec<Tuple> {
    samples
        .iter()
        .map(|s| {
            Tuple::new(vec![
                Value::Str(s.name.as_str().into()),
                Value::Str(label.into()),
                Value::Int(s.value as i64),
            ])
        })
        .collect()
}

fn buffer_pool_row(label: &str, samples: &[MetricSample]) -> Tuple {
    let v = |name| Value::Int(sample_value(samples, name));
    Tuple::new(vec![
        Value::Str(label.into()),
        v("buffer.capacity"),
        v("buffer.frames_cached"),
        v("buffer.hits"),
        v("buffer.misses"),
        v("buffer.evictions"),
        v("buffer.writebacks"),
    ])
}

/// Materialises a catalog table's rows, recording the work in `m` (a
/// per-node "catalog scan" phase for per-node tables, sequential QC time
/// otherwise).
pub fn scan(db: &Paradise, table: CatalogTable, m: &mut QueryMetrics) -> Result<Vec<Tuple>> {
    let cluster = db.cluster();
    match table {
        CatalogTable::Metrics => {
            let c = cluster.clone();
            let per_node = run_phase(cluster, m, "catalog scan", move |node| {
                Ok(metric_rows(&node.to_string(), &c.node_samples(node)?))
            })?;
            let mut rows: Vec<Tuple> = per_node.into_iter().flatten().collect();
            run_sequential(m, || {
                rows.extend(metric_rows("qc", &cluster.obs().samples()));
                Ok(())
            })?;
            Ok(rows)
        }
        CatalogTable::BufferPool => {
            let c = cluster.clone();
            let per_node = run_phase(cluster, m, "catalog scan", move |node| {
                Ok(vec![buffer_pool_row(&node.to_string(), &c.node_samples(node)?)])
            })?;
            Ok(per_node.into_iter().flatten().collect())
        }
        CatalogTable::Queries => run_sequential(m, || {
            Ok(db
                .history()
                .records()
                .into_iter()
                .map(|r| {
                    Tuple::new(vec![
                        Value::Int(r.id as i64),
                        Value::Str(r.statement.into()),
                        Value::Str(r.shape.into()),
                        Value::Str(r.status.into()),
                        Value::Int(r.rows as i64),
                        Value::Int(r.wall.as_micros() as i64),
                        Value::Int(r.simulated.as_micros() as i64),
                        Value::Int(r.net_bytes as i64),
                        Value::Int(i64::from(r.slow)),
                    ])
                })
                .collect())
        }),
        CatalogTable::Streams => run_sequential(m, || {
            let obs = cluster.obs();
            let g = |name: &str| Value::Int(obs.get(name).unwrap_or(0) as i64);
            Ok(vec![Tuple::new(vec![
                g("exec.streams_opened"),
                g("net.bytes"),
                g("net.tuples"),
                g("net.wire.bytes_sent"),
                g("net.wire.frames_sent"),
            ])])
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_resolution_roundtrip() {
        for t in [
            CatalogTable::Metrics,
            CatalogTable::Queries,
            CatalogTable::BufferPool,
            CatalogTable::Streams,
        ] {
            assert_eq!(CatalogTable::from_name(t.name()), Some(t));
        }
        assert_eq!(CatalogTable::from_name("paradise.nope"), None);
        assert_eq!(CatalogTable::from_name("roads"), None);
    }

    #[test]
    fn schemas_are_self_consistent() {
        assert_eq!(CatalogTable::Metrics.schema().index_of("node").unwrap(), 1);
        assert_eq!(CatalogTable::Queries.schema().index_of("statement").unwrap(), 1);
        assert_eq!(CatalogTable::BufferPool.schema().index_of("capacity").unwrap(), 1);
        assert_eq!(CatalogTable::Streams.schema().index_of("net_bytes").unwrap(), 1);
        assert!(CatalogTable::Metrics.is_per_node());
        assert!(!CatalogTable::Queries.is_per_node());
    }
}
