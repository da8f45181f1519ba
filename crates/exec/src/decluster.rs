//! Declustering policies (paper §2.3, §2.7.1).
//!
//! "Tables are fully partitioned across all disks in the system using
//! round-robin, hash, or spatial declustering." Spatial declustering maps a
//! tuple to the grid tiles its spatial attribute's bounding box covers;
//! tiles map to nodes by hashing the tile number. A tuple spanning tiles on
//! several nodes is **replicated** to each of them (Figure 2.4) — queries
//! then eliminate the duplicates.

use crate::cluster::{Cluster, NodeId};
use crate::tuple::{Row, Tuple};
use crate::value::Value;
use crate::{ExecError, Result};
use paradise_geom::Rect;

/// How a table's tuples are spread across nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decluster {
    /// Tuple *i* goes to node *i mod n*.
    RoundRobin,
    /// Hash of column `col` picks the node.
    Hash {
        /// Column hashed.
        col: usize,
    },
    /// Grid tiles covered by column `col`'s bounding box pick the node(s);
    /// spanning tuples are replicated.
    Spatial {
        /// Spatial column.
        col: usize,
    },
}

/// A stable 64-bit hash of a value (FNV-1a over its encoding).
pub fn hash_value(v: &Value) -> u64 {
    let mut buf = Vec::with_capacity(16);
    v.encode(&mut buf);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in buf {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl Decluster {
    /// The destination node(s) for a tuple. `seq` is the tuple's load
    /// ordinal (used by round-robin). Spatial declustering may return
    /// several nodes — the tuple must be stored at each (replication).
    pub fn route(&self, cluster: &Cluster, tuple: &Tuple, seq: u64) -> Result<Vec<NodeId>> {
        let n = cluster.num_nodes();
        Ok(match self {
            Decluster::RoundRobin => vec![(seq as usize) % n],
            Decluster::Hash { col } => {
                vec![(hash_value(tuple.get(*col)?) as usize) % n]
            }
            Decluster::Spatial { col } => {
                let mut nodes: Vec<NodeId> = cluster
                    .grid()
                    .tile_ids_for_rect(&spatial_bbox(tuple.get(*col)?)?)
                    .into_iter()
                    .map(|t| cluster.node_for_tile(t))
                    .collect();
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            }
        })
    }

    /// Whether `node` is the home of a stored row, so that a scan keeping
    /// only home rows sees each tuple exactly once. Round-robin and hash
    /// tuples live on one node only. A spatially declustered tuple's home
    /// is the node owning the grid tile of its bounding box's lower-left
    /// corner — the PBSM reference point of the box alone. Shapes are read
    /// in place, so a replica skipped here is never decoded.
    pub fn is_home(&self, cluster: &Cluster, node: NodeId, row: &Row) -> Result<bool> {
        let Decluster::Spatial { col } = self else {
            return Ok(true);
        };
        let bbox = match row.shape(*col) {
            Ok(shape) => shape.bbox(),
            Err(_) => spatial_bbox(&row.get(*col)?)?,
        };
        Ok(cluster.node_for_tile(cluster.grid().tile_of_point(&bbox.lo)) == node)
    }

    /// The grid tiles a tuple's spatial column covers (used by the spatial
    /// repartitioning phase of the parallel spatial join, §2.7.2, where
    /// many more partitions than nodes are needed).
    pub fn tiles_for(&self, cluster: &Cluster, tuple: &Tuple) -> Result<Vec<u32>> {
        match self {
            Decluster::Spatial { col } => {
                let shape = tuple.get(*col)?.as_shape()?;
                Ok(cluster.grid().tile_ids_for_shape(shape))
            }
            _ => Err(ExecError::Other("tiles_for on non-spatial declustering".into())),
        }
    }
}

/// The extent a spatial declustering column places: a shape's bounding box
/// or a raster's geographic rectangle.
fn spatial_bbox(v: &Value) -> Result<Rect> {
    match v {
        Value::Shape(s) => Ok(s.bbox()),
        Value::Raster(crate::value::RasterValue::Mem(m)) => Ok(m.geo()),
        Value::Raster(crate::value::RasterValue::Stored(s)) => Ok(s.geo),
        other => {
            Err(ExecError::Type { expected: "shape or raster", got: other.kind().to_string() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use paradise_geom::{Point, Polygon, Rect, Shape};

    fn cluster(n: usize, tag: &str) -> Cluster {
        Cluster::create(&ClusterConfig::for_test(n, tag)).unwrap()
    }

    #[test]
    fn round_robin_cycles() {
        let c = cluster(4, "rr");
        let d = Decluster::RoundRobin;
        let t = Tuple::new(vec![Value::Int(0)]);
        let dests: Vec<_> = (0..8).map(|i| d.route(&c, &t, i).unwrap()[0]).collect();
        assert_eq!(dests, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        let c = cluster(4, "hash");
        let d = Decluster::Hash { col: 0 };
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let t = Tuple::new(vec![Value::Str(format!("key{i}").into())]);
            let a = d.route(&c, &t, 0).unwrap();
            let b = d.route(&c, &t, 99).unwrap();
            assert_eq!(a, b, "hash must ignore seq");
            assert_eq!(a.len(), 1);
            seen.insert(a[0]);
        }
        assert_eq!(seen.len(), 4, "200 keys should hit all 4 nodes");
    }

    #[test]
    fn spatial_small_shape_single_node() {
        let c = cluster(4, "sp1");
        let d = Decluster::Spatial { col: 0 };
        // A tiny polygon well inside one tile.
        let tile = c.grid().tile_rect(500);
        let center = tile.center();
        let poly = Polygon::from_rect(
            &Rect::from_corners(
                Point::new(center.x - 0.01, center.y - 0.01),
                Point::new(center.x + 0.01, center.y + 0.01),
            )
            .unwrap(),
        );
        let t = Tuple::new(vec![Value::from(Shape::Polygon(poly))]);
        let dests = d.route(&c, &t, 0).unwrap();
        assert_eq!(dests.len(), 1);
        assert_eq!(dests[0], c.node_for_tile(500));
    }

    #[test]
    fn spatial_spanning_shape_replicated() {
        let c = cluster(8, "sp2");
        let d = Decluster::Spatial { col: 0 };
        // A polygon covering a large fraction of the world spans many tiles
        // and therefore several nodes.
        let poly = Polygon::from_rect(
            &Rect::from_corners(Point::new(-90.0, -45.0), Point::new(90.0, 45.0)).unwrap(),
        );
        let t = Tuple::new(vec![Value::from(Shape::Polygon(poly))]);
        let dests = d.route(&c, &t, 0).unwrap();
        assert!(dests.len() > 1, "spanning shape must be replicated");
        assert!(dests.len() <= 8);
        // destinations unique
        let mut sorted = dests.clone();
        sorted.dedup();
        assert_eq!(sorted, dests);
        // Exactly one replica is home, for a shape and for a raster column.
        let raster =
            paradise_array::Raster::new(8, 4, paradise_array::BitDepth::Eight, c.grid().universe())
                .unwrap();
        let r = Tuple::new(vec![Value::Raster(crate::value::RasterValue::Mem(raster.into()))]);
        for t in [t, r] {
            let bytes = t.encode();
            let row = Row::new(&bytes).unwrap();
            let dests = d.route(&c, &t, 0).unwrap();
            let homes: Vec<_> =
                dests.iter().filter(|&&n| d.is_home(&c, n, &row).unwrap()).collect();
            assert_eq!(homes.len(), 1, "{dests:?}");
        }
    }

    #[test]
    fn spatial_on_scalar_column_errors() {
        let c = cluster(2, "sp3");
        let d = Decluster::Spatial { col: 0 };
        let t = Tuple::new(vec![Value::Int(5)]);
        assert!(d.route(&c, &t, 0).is_err());
    }

    #[test]
    fn replication_fraction_grows_with_partition_count() {
        // §2.7.1: more partitions smooth skew but raise the fraction of
        // replicated tuples. Verify the mechanism with a fixed shape size.
        let world = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).unwrap();
        let shape_count = 400;
        let frac = |tiles: u32| -> f64 {
            let grid = paradise_geom::Grid::with_tile_count(world, tiles).unwrap();
            let mut replicated = 0;
            for i in 0..shape_count {
                let x = (i % 20) as f64 * 5.0 + 0.3;
                let y = (i / 20) as f64 * 5.0 + 0.3;
                let r = Rect::from_corners(Point::new(x, y), Point::new(x + 2.0, y + 2.0)).unwrap();
                if grid.tile_ids_for_rect(&r).len() > 1 {
                    replicated += 1;
                }
            }
            f64::from(replicated) / f64::from(shape_count)
        };
        let few = frac(16);
        let many = frac(2048);
        assert!(many > few, "replication should grow with partitions: {few} vs {many}");
    }
}
