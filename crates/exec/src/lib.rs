//! # paradise-exec
//!
//! The parallel execution engine of Paradise (paper §2.2–§2.7): a simulated
//! shared-nothing cluster of data-server nodes, tuple streams, declustering
//! (round-robin / hash / spatial with replication), the operator library
//! (projection, sort, PBSM spatial join), the tile-granular raster store
//! with the pull model for large attributes, and the spatial-semi-join +
//! join-with-aggregate machinery behind the `closest` spatial aggregate
//! (Figure 3.1).
//!
//! ## Timing model
//!
//! Nodes are simulated within one process. Operators run under the
//! *measured phase driver* ([`phase`]), which executes each node's fragment
//! work sequentially while recording per-node busy time; a query's
//! simulated parallel time is `Σ_phases max_node(busy) + sequential time`,
//! the shared-nothing cost model of the paper. Between phases, tuples cross
//! node boundaries only through [`phase::exchange`] (over flow-controlled
//! [`stream`]s), which, with remote tile pulls, accounts all network
//! traffic.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cluster;
pub mod decluster;
pub mod metrics;
pub mod ops;
pub mod phase;
pub mod raster_store;
pub mod schema;
pub mod stream;
pub mod table;
pub mod tuple;
pub mod value;
pub mod workers;

pub use cluster::{Cluster, ClusterConfig, NetSnapshot, Node, NodeId, Transport, WireTransport};
pub use decluster::Decluster;
pub use metrics::{PhaseTimes, QueryMetrics};
pub use phase::RowCounted;
pub use schema::{DataType, Field, Schema};
pub use stream::{RemoteRx, RemoteTx};
pub use table::TableDef;
pub use tuple::{Row, Tuple};
pub use value::{Date, ShapeRef, StoredRaster, Value};

use paradise_array::ArrayError;
use paradise_geom::GeomError;
use paradise_storage::StorageError;

/// Errors from the execution engine.
#[derive(Debug)]
pub enum ExecError {
    /// Storage-layer failure.
    Storage(StorageError),
    /// Array/raster failure.
    Array(ArrayError),
    /// Geometry failure.
    Geom(GeomError),
    /// Tuple/schema mismatch.
    Type {
        /// What the operator expected.
        expected: &'static str,
        /// What it got.
        got: String,
    },
    /// Named table/column/aggregate missing.
    NotFound(String),
    /// Malformed tuple bytes.
    Codec(&'static str),
    /// Anything else.
    Other(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage: {e}"),
            ExecError::Array(e) => write!(f, "array: {e}"),
            ExecError::Geom(e) => write!(f, "geometry: {e}"),
            ExecError::Type { expected, got } => {
                write!(f, "type error: expected {expected}, got {got}")
            }
            ExecError::NotFound(what) => write!(f, "not found: {what}"),
            ExecError::Codec(w) => write!(f, "tuple codec: {w}"),
            ExecError::Other(w) => write!(f, "{w}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}
impl From<ArrayError> for ExecError {
    fn from(e: ArrayError) -> Self {
        ExecError::Array(e)
    }
}
impl From<GeomError> for ExecError {
    fn from(e: GeomError) -> Self {
        ExecError::Geom(e)
    }
}

/// Result alias for the engine.
pub type Result<T> = std::result::Result<T, ExecError>;
