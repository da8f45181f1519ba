//! # paradise
//!
//! A from-scratch Rust reproduction of **Paradise**, the parallel
//! object-relational geo-spatial DBMS of
//! *"Building a Scalable Geo-Spatial DBMS: Technology, Implementation, and
//! Evaluation"* (SIGMOD 1997).
//!
//! The crate ties together the substrates:
//!
//! * [`paradise_geom`] — spatial ADTs (point, polyline, polygon,
//!   swiss-cheese polygon, circle) and computational geometry;
//! * [`paradise_array`] — N-d arrays and geo-located rasters with ~128 KB
//!   tiling and per-tile LZW compression;
//! * [`paradise_storage`] — a SHORE-like storage manager (volumes, extents,
//!   buffer pool, heap files, large objects, WAL, B+-trees, R*-trees);
//! * [`paradise_exec`] — the shared-nothing execution engine: declustering
//!   (round-robin / hash / spatial with replication), streams, relational
//!   and spatial operators, tile-granular raster storage with the pull
//!   model, the parallel spatial join and the two-phase `closest`
//!   join-with-aggregate of Figure 3.1;
//! * [`paradise_sql`] — the extended-SQL front end.
//!
//! [`Paradise`] is the query-coordinator facade: create a cluster, define
//! and load tables, run queries — either the programmatic benchmark plans
//! in [`queries`] (Q2–Q14 of the global Sequoia 2000 benchmark, §3.1) or
//! SQL via [`Paradise::sql`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod db;
pub mod history;
pub mod queries;
pub mod sql_exec;

pub use catalog::CatalogTable;
pub use db::{Paradise, ParadiseConfig, QueryResult, TransportKind};
pub use history::{QueryHistory, QueryRecord};
pub use sql_exec::{execute_plan, match_plan, Plan, PlanLine};

pub use paradise_array as array;
pub use paradise_exec as exec;
pub use paradise_geom as geom;
pub use paradise_net as net;
pub use paradise_obs as obs;
pub use paradise_sql as sql;
pub use paradise_storage as storage;

/// Crate-wide error: the engine error type.
pub type Error = paradise_exec::ExecError;
/// Result alias.
pub type Result<T> = paradise_exec::Result<T>;
