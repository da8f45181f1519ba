//! Declustered tables: fragments, loading, scans and per-fragment indexes.

use crate::cluster::{Cluster, NodeId};
use crate::decluster::Decluster;
use crate::raster_store;
use crate::schema::Schema;
use crate::tuple::{Row, Tuple};
use crate::value::{RasterValue, Value};
use crate::{ExecError, Result};
use paradise_storage::{Oid, RTree};

/// Load statistics (replication factor is the §2.7.1 tradeoff).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Tuples presented to the loader.
    pub input_tuples: u64,
    /// Physical copies stored (≥ input for spatial declustering).
    pub stored_tuples: u64,
    /// Bytes written (tuple encodings, excluding raster tiles).
    pub bytes: u64,
}

/// A table declustered across the cluster.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// How tuples map to nodes.
    pub decluster: Decluster,
    /// Whether raster attributes' tiles are spread across nodes (§2.6).
    pub decluster_rasters: bool,
    /// Target raster tile payload in bytes.
    pub tile_bytes: usize,
}

impl TableDef {
    /// Defines a table.
    pub fn new(name: &str, schema: Schema, decluster: Decluster) -> Self {
        TableDef {
            name: name.to_string(),
            schema,
            decluster,
            decluster_rasters: false,
            tile_bytes: raster_store::DEFAULT_TILE_BYTES,
        }
    }

    /// Enables/disables raster-tile declustering (§2.6, Table 3.5).
    pub fn with_raster_decluster(mut self, on: bool) -> Self {
        self.decluster_rasters = on;
        self
    }

    /// Overrides the raster tile size.
    pub fn with_tile_bytes(mut self, bytes: usize) -> Self {
        self.tile_bytes = bytes;
        self
    }

    /// Heap-file name of this table's fragment on every node.
    pub fn fragment_file(&self) -> String {
        format!("tbl_{}", self.name)
    }

    fn btree_index_file(&self, col: usize) -> String {
        format!("idx_{}_{col}", self.name)
    }

    fn rtree_index_file(&self, col: usize) -> String {
        format!("rtidx_{}_{col}", self.name)
    }

    /// Heap-file name, on every node holding any, of the raster tiles
    /// this table's rows reference.
    pub fn tile_file(&self) -> String {
        format!("{}_{}", raster_store::TILE_FILE, self.name)
    }

    /// Loads tuples, routing each to its destination node(s). A raster
    /// attribute's tiles go into this table's tile file: an in-memory
    /// raster is tiled on the destination, a stored one is copied tile by
    /// tile, so the table owns every tile its rows reference.
    pub fn load(
        &self,
        cluster: &Cluster,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<LoadStats> {
        let mut stats = LoadStats::default();
        let tile_file = self.tile_file();
        // Ensure fragments exist on every node.
        for n in cluster.nodes() {
            n.store.create_file(&self.fragment_file())?;
        }
        for (seq, tuple) in tuples.into_iter().enumerate() {
            let dests = self.decluster.route(cluster, &tuple, seq as u64)?;
            stats.input_tuples += 1;
            for &dest in &dests {
                let mut stored = tuple.clone();
                for v in &mut stored.values {
                    let Value::Raster(raster) = v else { continue };
                    let sr = match raster {
                        RasterValue::Mem(r) => raster_store::store_raster(
                            cluster,
                            &tile_file,
                            dest,
                            r,
                            self.decluster_rasters,
                            self.tile_bytes,
                        )?,
                        RasterValue::Stored(sr) => {
                            raster_store::copy_raster(cluster, &tile_file, sr)?
                        }
                    };
                    *v = Value::Raster(sr.into());
                }
                let bytes = stored.encode();
                stats.bytes += bytes.len() as u64;
                stats.stored_tuples += 1;
                cluster
                    .node(dest)
                    .store
                    .file(&self.fragment_file())
                    .expect("fragment created above")
                    .insert(&bytes)?;
            }
        }
        Ok(stats)
    }

    /// Streams every row of one node's fragment, in storage order. Each
    /// record is lent in place as a [`Row`]: `f` decodes the columns it
    /// tests and calls [`Row::to_tuple`] only for the rows it keeps. The
    /// node's `scan.rows` and `scan.decoded` counters grow once per page.
    pub fn scan_fragment(
        &self,
        cluster: &Cluster,
        node: NodeId,
        mut f: impl FnMut(Oid, &Row) -> Result<()>,
    ) -> Result<()> {
        let node = cluster.node(node);
        let Some(file) = node.store.file(&self.fragment_file()) else {
            return Ok(()); // unloaded table: empty fragment
        };
        // Rows handed out and rows materialised on the current page.
        let (mut page, mut rows, mut decoded) = (None, 0, 0);
        let publish = |rows: &mut u64, decoded: &mut u64| {
            node.scan_rows.add(std::mem::take(rows));
            node.scan_decoded.add(std::mem::take(decoded));
        };
        let scanned = file.for_each(|oid, bytes| {
            if page != Some(oid.page) {
                publish(&mut rows, &mut decoded);
                page = Some(oid.page);
            }
            let row = Row::new(bytes)?;
            rows += 1;
            let kept = f(oid, &row);
            decoded += u64::from(row.materialised());
            kept
        });
        publish(&mut rows, &mut decoded);
        scanned
    }

    /// Materialises one node's fragment.
    pub fn fragment_tuples(&self, cluster: &Cluster, node: NodeId) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        self.scan_fragment(cluster, node, |_, row| {
            out.push(row.to_tuple()?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Reads one tuple by OID from a node's fragment.
    pub fn read_tuple(&self, cluster: &Cluster, node: NodeId, oid: Oid) -> Result<Tuple> {
        let file = cluster
            .node(node)
            .store
            .file(&self.fragment_file())
            .ok_or_else(|| ExecError::NotFound(format!("table {}", self.name)))?;
        Tuple::decode(&file.read(oid)?)
    }

    /// Total stored tuples across nodes (including replicas).
    pub fn stored_count(&self, cluster: &Cluster) -> u64 {
        cluster
            .nodes()
            .iter()
            .filter_map(|n| n.store.file(&self.fragment_file()))
            .map(|f| f.count())
            .sum()
    }

    /// Builds a per-fragment B+-tree index on column `col` (scalar types).
    pub fn build_btree_index(&self, cluster: &Cluster, col: usize) -> Result<()> {
        for node in 0..cluster.num_nodes() {
            let mut pairs: Vec<(Vec<u8>, u64)> = Vec::new();
            self.scan_fragment(cluster, node, |oid, row| {
                pairs.push((index_key(&row.get(col)?), pack_oid(oid)));
                Ok(())
            })?;
            pairs.sort();
            let tree = cluster.node(node).store.create_btree(&self.btree_index_file(col))?;
            tree.bulk_load(&pairs)?;
        }
        Ok(())
    }

    /// Probes the B+-tree index on `col` for `value` on one node.
    pub fn btree_probe(
        &self,
        cluster: &Cluster,
        node: NodeId,
        col: usize,
        value: &Value,
    ) -> Result<Vec<Tuple>> {
        let Some(tree) = cluster.node(node).store.btree(&self.btree_index_file(col)) else {
            return Err(ExecError::NotFound(format!("btree index on {}.{col}", self.name)));
        };
        tree.get_all(&index_key(value))?
            .into_iter()
            .map(|v| self.read_tuple(cluster, node, unpack_oid(v)))
            .collect()
    }

    /// Builds a per-fragment R*-tree on spatial column `col`, bulk loaded
    /// (the paper bulk-loads spatial indexes at load time \[DeWi94\] and on
    /// the fly after redeclustering). Persisted as a serialized object.
    pub fn build_rtree_index(&self, cluster: &Cluster, col: usize) -> Result<()> {
        for node in 0..cluster.num_nodes() {
            let mut entries: Vec<(paradise_geom::Rect, u64)> = Vec::new();
            self.scan_fragment(cluster, node, |oid, row| {
                entries.push((row.shape(col)?.bbox(), pack_oid(oid)));
                Ok(())
            })?;
            let tree = RTree::bulk_load(entries);
            cluster.node(node).store.put_rtree(&self.rtree_index_file(col), &tree)?;
        }
        Ok(())
    }

    /// Opens one node's persisted R*-tree index on `col`: a handle to the
    /// tree the node's store decoded (see [`paradise_storage::Store::rtree`]),
    /// wired to the cluster's `rtree.node_visits` metric so index
    /// selectivity shows up in the registry.
    pub fn rtree_index(&self, cluster: &Cluster, node: NodeId, col: usize) -> Result<RTree> {
        let mut tree =
            cluster.node(node).store.rtree(&self.rtree_index_file(col))?.ok_or_else(|| {
                ExecError::NotFound(format!("rtree index on {}.{col}", self.name))
            })?;
        tree.set_visit_counter(cluster.obs().counter("rtree.node_visits"));
        Ok(tree)
    }

    /// Drops the table's fragments, tile files and indexes everywhere,
    /// returning their extents to each node's volume.
    pub fn drop_table(&self, cluster: &Cluster) -> Result<()> {
        // Exact names: table `a` must not take table `a_b`'s indexes along.
        let cols = 0..self.schema.fields().len();
        let names: Vec<String> = [self.fragment_file(), self.tile_file()]
            .into_iter()
            .chain(cols.flat_map(|c| [self.btree_index_file(c), self.rtree_index_file(c)]))
            .collect();
        // Every entry is dropped even when dropping an earlier one fails.
        let mut dropped = Ok(());
        for n in cluster.nodes() {
            for name in &names {
                dropped = dropped.and(n.store.drop_entry(name).map_err(ExecError::from));
            }
        }
        dropped
    }
}

/// Packs an OID into the `u64` payload of an index entry (page numbers stay
/// far below 2^48 at benchmark scale).
pub fn pack_oid(oid: Oid) -> u64 {
    (oid.page << 16) | u64::from(oid.slot)
}

/// Inverse of [`pack_oid`].
pub fn unpack_oid(v: u64) -> Oid {
    Oid { page: v >> 16, slot: (v & 0xFFFF) as u16 }
}

/// Order-preserving index key encoding for scalar values.
pub fn index_key(v: &Value) -> Vec<u8> {
    match v {
        Value::Null => vec![0],
        Value::Int(i) => {
            let mut out = vec![1];
            out.extend_from_slice(&((*i as u64) ^ (1u64 << 63)).to_be_bytes());
            out
        }
        Value::Date(d) => {
            let mut out = vec![1]; // dates sort with ints
            out.extend_from_slice(&((d.0 as u64) ^ (1u64 << 63)).to_be_bytes());
            out
        }
        Value::Float(f) => {
            // IEEE total-order trick: flip all bits for negatives, sign for
            // positives.
            let bits = f.to_bits();
            let key = if *f >= 0.0 { bits ^ (1u64 << 63) } else { !bits };
            let mut out = vec![2];
            out.extend_from_slice(&key.to_be_bytes());
            out
        }
        Value::Str(s) => {
            let mut out = vec![3];
            out.extend_from_slice(s.as_bytes());
            out
        }
        // Spatial/raster columns use R-trees, but give them a stable key so
        // hash-grouping on shapes is possible.
        other => {
            let mut out = vec![9];
            other.encode(&mut out);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::schema::{DataType, Field};
    use crate::value::Date;
    use paradise_geom::{Point, Polygon, Rect, Shape};

    fn cluster(n: usize, tag: &str) -> Cluster {
        Cluster::create(&ClusterConfig::for_test(n, tag)).unwrap()
    }

    fn cities_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Str),
            Field::new("type", DataType::Int),
            Field::new("location", DataType::Point),
            Field::new("name", DataType::Str),
        ])
    }

    fn city(i: i64, x: f64, y: f64, name: &str) -> Tuple {
        Tuple::new(vec![
            Value::Str(format!("pp-{i}").into()),
            Value::Int(i % 6),
            Value::from(Shape::Point(Point::new(x, y))),
            Value::Str(name.into()),
        ])
    }

    #[test]
    fn round_robin_load_balances() {
        let c = cluster(4, "t1");
        let t = TableDef::new("pp", cities_schema(), Decluster::RoundRobin);
        let tuples: Vec<Tuple> =
            (0..100).map(|i| city(i, f64::from(i as i32) - 50.0, 0.0, "x")).collect();
        let stats = t.load(&c, tuples).unwrap();
        assert_eq!(stats.input_tuples, 100);
        assert_eq!(stats.stored_tuples, 100, "round robin never replicates");
        for node in 0..4 {
            assert_eq!(t.fragment_tuples(&c, node).unwrap().len(), 25);
        }
    }

    #[test]
    fn spatial_load_replicates_spanning_tuples() {
        let c = cluster(4, "t2");
        let schema = Schema::new(vec![
            Field::new("id", DataType::Str),
            Field::new("shape", DataType::Polygon),
        ]);
        let t = TableDef::new("lc", schema, Decluster::Spatial { col: 1 });
        // One tiny polygon and one giant polygon.
        let tiny = Polygon::from_rect(
            &Rect::from_corners(Point::new(10.0, 10.0), Point::new(10.1, 10.1)).unwrap(),
        );
        let giant = Polygon::from_rect(
            &Rect::from_corners(Point::new(-150.0, -70.0), Point::new(150.0, 70.0)).unwrap(),
        );
        let stats = t
            .load(
                &c,
                vec![
                    Tuple::new(vec![Value::Str("tiny".into()), Value::from(Shape::Polygon(tiny))]),
                    Tuple::new(vec![
                        Value::Str("giant".into()),
                        Value::from(Shape::Polygon(giant)),
                    ]),
                ],
            )
            .unwrap();
        assert_eq!(stats.input_tuples, 2);
        assert!(stats.stored_tuples > 2, "giant polygon must be replicated");
        assert_eq!(t.stored_count(&c), stats.stored_tuples);
    }

    #[test]
    fn btree_index_probe_and_range() {
        let c = cluster(2, "t3");
        let t = TableDef::new("pp", cities_schema(), Decluster::RoundRobin);
        let tuples: Vec<Tuple> = (0..50).map(|i| city(i, 0.0, 0.0, &format!("city{i}"))).collect();
        t.load(&c, tuples).unwrap();
        t.build_btree_index(&c, 3).unwrap(); // index on name
        let mut found = Vec::new();
        for node in 0..2 {
            found.extend(t.btree_probe(&c, node, 3, &Value::Str("city7".into())).unwrap());
        }
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get(0).unwrap(), &Value::Str("pp-7".into()));
        // Missing key
        for node in 0..2 {
            assert!(t.btree_probe(&c, node, 3, &Value::Str("atlantis".into())).unwrap().is_empty());
        }
        // The key range 0..=1 of the int column, one probe per key.
        t.build_btree_index(&c, 1).unwrap();
        let mut hits = 0;
        for node in 0..2 {
            for key in 0..=1 {
                hits += t.btree_probe(&c, node, 1, &Value::Int(key)).unwrap().len();
            }
        }
        // types cycle 0..6 over 50 tuples: type 0 x9 (0,6,..48), type 1 x9? 50/6
        let expected = (0..50).filter(|i| i % 6 <= 1).count();
        assert_eq!(hits, expected);
    }

    #[test]
    fn rtree_index_roundtrip() {
        let c = cluster(2, "t4");
        let t = TableDef::new("pp", cities_schema(), Decluster::RoundRobin);
        let tuples: Vec<Tuple> =
            (0..60).map(|i| city(i, f64::from(i as i32) * 2.0 - 60.0, 10.0, "x")).collect();
        t.load(&c, tuples).unwrap();
        t.build_rtree_index(&c, 2).unwrap();
        let window = Rect::from_corners(Point::new(-10.0, 0.0), Point::new(10.0, 20.0)).unwrap();
        let mut hits = 0;
        for node in 0..2 {
            let idx = t.rtree_index(&c, node, 2).unwrap();
            for (_, packed) in idx.search(&window) {
                let tup = t.read_tuple(&c, node, unpack_oid(packed)).unwrap();
                let p = tup.get(2).unwrap().as_shape().unwrap().as_point().unwrap();
                assert!(window.contains_point(&p));
                hits += 1;
            }
        }
        // x = 2i - 60 in [-10, 10] => i in [25, 35] => 11 points
        assert_eq!(hits, 11);
    }

    #[test]
    fn rebuilt_rtree_index_holds_every_stored_row() {
        // Regression: a rebuild used to append a second blob to the index
        // file while `rtree_index` kept reading the first one.
        let c = cluster(2, "t8");
        let t = TableDef::new("pp", cities_schema(), Decluster::RoundRobin);
        t.load(&c, (0..10).map(|i| city(i, f64::from(i as i32), 0.0, "x"))).unwrap();
        t.build_rtree_index(&c, 2).unwrap();
        t.load(&c, (10..60).map(|i| city(i, f64::from(i as i32), 0.0, "x"))).unwrap();
        t.build_rtree_index(&c, 2).unwrap();
        let indexed: u64 =
            (0..2).map(|node| t.rtree_index(&c, node, 2).unwrap().len() as u64).sum();
        assert_eq!(indexed, t.stored_count(&c));
        assert_eq!(indexed, 60);
    }

    #[test]
    fn rtree_index_is_decoded_once_per_flush() {
        let c = cluster(1, "t9");
        let t = TableDef::new("pp", cities_schema(), Decluster::RoundRobin);
        t.load(&c, (0..500).map(|i| city(i, f64::from(i as i32) / 10.0, 0.0, "x"))).unwrap();
        t.build_rtree_index(&c, 2).unwrap();
        c.commit_all().unwrap();
        let node = c.node(0);
        let stat = |name: &str| node.obs.get(name).unwrap();
        let pages_read = || stat("buffer.hits") + stat("buffer.misses");
        // Cold: after a flush the blob's pages are read and decoded again.
        c.flush_caches().unwrap();
        let (misses0, decodes0) = (stat("buffer.misses"), stat("rtree.decodes"));
        let cold = t.rtree_index(&c, 0, 2).unwrap();
        assert!(stat("buffer.misses") > misses0, "cold open read no page");
        assert_eq!(stat("rtree.decodes"), decodes0 + 1);
        // Warm: a second open shares the decoded tree and touches no page.
        let (pages0, decodes1) = (pages_read(), stat("rtree.decodes"));
        let warm = t.rtree_index(&c, 0, 2).unwrap();
        assert_eq!(pages_read(), pages0, "warm open read a page");
        assert_eq!(stat("rtree.decodes"), decodes1);
        assert_eq!(warm.len(), cold.len());
        // The shared tree still reports node visits per search.
        let visits = c.obs().counter("rtree.node_visits");
        let before = visits.get();
        let window = Rect::from_corners(Point::new(0.0, -1.0), Point::new(1.0, 1.0)).unwrap();
        assert_eq!(warm.search(&window).len(), 11);
        assert!(visits.get() > before);
        // The next flush makes the open cold again.
        c.flush_caches().unwrap();
        let misses1 = stat("buffer.misses");
        t.rtree_index(&c, 0, 2).unwrap();
        assert!(stat("buffer.misses") > misses1);
        assert_eq!(stat("rtree.decodes"), decodes1 + 1);
    }

    #[test]
    fn index_key_order_preserving() {
        // ints incl. negatives
        let ints = [-100i64, -1, 0, 1, 99];
        let keys: Vec<_> = ints.iter().map(|&i| index_key(&Value::Int(i))).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        // floats incl. negatives
        let floats = [-5.5f64, -0.25, 0.0, 0.5, 7.0];
        let keys: Vec<_> = floats.iter().map(|&f| index_key(&Value::Float(f))).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        // dates
        let d1 = index_key(&Value::Date(Date::from_ymd(1988, 4, 1)));
        let d2 = index_key(&Value::Date(Date::from_ymd(1988, 12, 31)));
        assert!(d1 < d2);
        // strings
        assert!(index_key(&Value::Str("a".into())) < index_key(&Value::Str("b".into())));
    }

    #[test]
    fn pack_unpack_oid() {
        let oid = Oid { page: 123_456, slot: 789 };
        assert_eq!(unpack_oid(pack_oid(oid)), oid);
    }

    #[test]
    fn drop_table_removes_everything() {
        let c = cluster(2, "t5");
        let t = TableDef::new("pp", cities_schema(), Decluster::RoundRobin);
        t.load(&c, (0..10).map(|i| city(i, 0.0, 0.0, "x"))).unwrap();
        t.build_btree_index(&c, 3).unwrap();
        t.build_rtree_index(&c, 2).unwrap();
        t.drop_table(&c).unwrap();
        assert_eq!(t.stored_count(&c), 0);
        for node in 0..2 {
            assert!(t.btree_probe(&c, node, 3, &Value::Str("x".into())).is_err());
        }
    }

    #[test]
    fn drop_table_leaves_tables_sharing_its_name_prefix() {
        let c = cluster(1, "t8");
        let [a, a_b] =
            ["pp", "pp_2"].map(|n| TableDef::new(n, cities_schema(), Decluster::RoundRobin));
        for t in [&a, &a_b] {
            t.load(&c, (0..10).map(|i| city(i, 0.0, 0.0, "x"))).unwrap();
            t.build_btree_index(&c, 3).unwrap();
            t.build_rtree_index(&c, 2).unwrap();
        }
        a.drop_table(&c).unwrap();
        assert_eq!(a_b.btree_probe(&c, 0, 3, &Value::Str("x".into())).unwrap().len(), 10);
        assert_eq!(a_b.rtree_index(&c, 0, 2).unwrap().len(), 10);
        assert_eq!(c.node(0).store.names().len(), 3, "pp_2's fragment and two indexes");
    }

    #[test]
    fn raster_attribute_stored_as_tiles_on_destination() {
        use paradise_array::{BitDepth, Raster};
        let c = cluster(2, "t6");
        let schema = Schema::new(vec![
            Field::new("date", DataType::Date),
            Field::new("channel", DataType::Int),
            Field::new("data", DataType::Raster),
        ]);
        let t = TableDef::new("raster", schema, Decluster::RoundRobin).with_tile_bytes(1024);
        let world = Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0)).unwrap();
        let tuples: Vec<Tuple> = (0..4)
            .map(|i| {
                let mut r = Raster::new(64, 32, BitDepth::Sixteen, world).unwrap();
                r.set_pixel(1, 1, 1000 + i).unwrap();
                Tuple::new(vec![
                    Value::Date(Date::from_ymd(1988, 1, 1 + i)),
                    Value::Int(5),
                    Value::Raster(RasterValue::Mem(std::sync::Arc::new(r))),
                ])
            })
            .collect();
        t.load(&c, tuples).unwrap();
        // Every stored tuple now holds a Stored raster whose tiles live on
        // the tuple's node.
        for node in 0..2 {
            for tup in t.fragment_tuples(&c, node).unwrap() {
                match tup.get(2).unwrap() {
                    Value::Raster(RasterValue::Stored(sr)) => {
                        assert!(sr.tiles.iter().all(|tr| tr.node as usize == node));
                        let back = raster_store::fetch_whole(&c, node, sr).unwrap();
                        assert_eq!(back.width(), 64);
                    }
                    other => panic!("expected stored raster, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn raster_date_pixel_roundtrip() {
        use paradise_array::{BitDepth, Raster};
        let c = cluster(1, "t7");
        let schema = Schema::new(vec![
            Field::new("date", DataType::Date),
            Field::new("data", DataType::Raster),
        ]);
        let t = TableDef::new("raster", schema, Decluster::RoundRobin);
        let world = Rect::from_corners(Point::new(-180.0, -90.0), Point::new(180.0, 90.0)).unwrap();
        let mut r = Raster::new(16, 8, BitDepth::Sixteen, world).unwrap();
        r.set_pixel(7, 3, 4242).unwrap();
        t.load(
            &c,
            vec![Tuple::new(vec![
                Value::Date(Date::from_ymd(1988, 4, 1)),
                Value::Raster(RasterValue::Mem(std::sync::Arc::new(r))),
            ])],
        )
        .unwrap();
        let rows = t.fragment_tuples(&c, 0).unwrap();
        let Value::Raster(RasterValue::Stored(sr)) = rows[0].get(1).unwrap() else {
            panic!("not stored")
        };
        let back = raster_store::fetch_whole(&c, 0, sr).unwrap();
        assert_eq!(back.pixel(7, 3).unwrap(), 4242);
    }
}
