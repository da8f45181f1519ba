//! An R*-tree \[Beck90\] over bounding boxes.
//!
//! SHORE provides R*-trees as its spatial access method (paper §2.2);
//! Paradise uses them for spatial selections (Q6–Q8), indexed-nested-loops
//! spatial joins (§2.4), and the on-the-fly local indexes built per node
//! after spatial redeclustering (Q12 step 3). The tree lives in memory and
//! serializes to a byte string so it can be persisted as a large object —
//! on-the-fly indexes are rebuilt per query exactly as in the paper.
//!
//! The root sits behind an `Arc`, so `clone()` is O(1) and hands out
//! another handle to the same nodes; `insert` copies on write. A persisted
//! tree is decoded once by [`crate::Store::rtree`] and shared by every
//! statement that opens it until the next `flush_cache`, `drop_entry` or
//! `put_rtree` of its file (or a reopen of the store) — the in-memory
//! counterpart of SHORE keeping the index pages in the buffer pool. Q12's
//! on-the-fly trees are built, probed and dropped within one query and
//! never pass through that cache.
//!
//! Implemented: R* ChooseSubtree (overlap-minimising at the leaf level),
//! R* split (margin-driven axis choice, overlap-driven distribution),
//! forced reinsertion (30% of entries, once per level per insertion), STR
//! (Sort-Tile-Recursive) bulk loading, window search, circle search, and
//! best-first nearest-neighbour.

use crate::{Result, StorageError};
use paradise_geom::{Circle, Point, Rect};
use paradise_obs::Counter;
use std::cmp::Ordering as CmpOrd;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Maximum entries per node.
const MAX_ENTRIES: usize = 16;
/// Minimum entries per node (40% of max, per the R* paper).
const MIN_ENTRIES: usize = 6;
/// Entries removed on forced reinsertion (30% of max).
const REINSERT: usize = 5;

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<(Rect, u64)>),
    Inner(Vec<(Rect, Box<Node>)>),
}

impl Node {
    fn bbox(&self) -> Rect {
        let mut it: Box<dyn Iterator<Item = Rect>> = match self {
            Node::Leaf(v) => Box::new(v.iter().map(|(r, _)| *r)),
            Node::Inner(v) => Box::new(v.iter().map(|(r, _)| *r)),
        };
        let first = it.next().expect("bbox of empty node");
        it.fold(first, |acc, r| acc.union(&r))
    }
}

/// An in-memory R*-tree mapping rectangles to `u64` payloads.
///
/// Cloning is O(1): clones share the nodes and copy them on the first
/// `insert` into a shared tree.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Arc<Node>,
    height: usize, // 1 = root is a leaf
    len: usize,
    /// Optional observability hook: counts tree nodes touched by searches.
    /// It belongs to this handle, not to the shared nodes: a clone starts
    /// with the same `Counter` (clones share the atomic) and may replace it
    /// without affecting other handles.
    visits: Option<Counter>,
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RTree {
    /// An empty tree.
    pub fn new() -> Self {
        RTree { root: Arc::new(Node::Leaf(Vec::new())), height: 1, len: 0, visits: None }
    }

    /// Attach a counter that is bumped once per tree node touched by
    /// `search`/`visit`/`search_circle`/`nearest` (R*-tree node visits,
    /// the classic index-selectivity metric).
    pub fn set_visit_counter(&mut self, counter: Counter) {
        self.visits = Some(counter);
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Bounding box of everything in the tree.
    pub fn bbox(&self) -> Option<Rect> {
        if self.is_empty() {
            None
        } else {
            Some(self.root.bbox())
        }
    }

    /// Inserts `(rect, value)`. A tree whose nodes other handles share is
    /// copied first, so those handles never see the insert.
    pub fn insert(&mut self, rect: Rect, value: u64) {
        self.len += 1;
        // Forced reinsertion: entries evicted from an overflowing node are
        // re-inserted from the top (without further reinsertion).
        let mut pending = vec![(rect, value)];
        let mut allow_reinsert = true;
        while let Some((r, v)) = pending.pop() {
            let mut reinserted = Vec::new();
            let root = Arc::make_mut(&mut self.root);
            if let Some((left, right)) =
                Self::insert_rec(root, self.height, r, v, allow_reinsert, &mut reinserted)
            {
                // Root split: grow the tree.
                self.root = Arc::new(Node::Inner(vec![
                    (left.bbox(), Box::new(left)),
                    (right.bbox(), Box::new(right)),
                ]));
                self.height += 1;
            }
            pending.extend(reinserted);
            allow_reinsert = false;
        }
    }

    /// Recursive insert at `level` (root has level == height; leaves 1).
    /// Returns `Some((left, right))` when this node split.
    fn insert_rec(
        node: &mut Node,
        level: usize,
        rect: Rect,
        value: u64,
        allow_reinsert: bool,
        reinserted: &mut Vec<(Rect, u64)>,
    ) -> Option<(Node, Node)> {
        match node {
            Node::Leaf(entries) => {
                entries.push((rect, value));
                if entries.len() <= MAX_ENTRIES {
                    return None;
                }
                if allow_reinsert {
                    Self::evict_farthest(entries, reinserted);
                    return None;
                }
                let (l, r) = split_entries(std::mem::take(entries));
                Some((Node::Leaf(l), Node::Leaf(r)))
            }
            Node::Inner(children) => {
                let idx = choose_subtree(children, &rect, level == 2);
                let split = Self::insert_rec(
                    &mut children[idx].1,
                    level - 1,
                    rect,
                    value,
                    allow_reinsert,
                    reinserted,
                );
                match split {
                    Some((l, r)) => {
                        children[idx] = (l.bbox(), Box::new(l));
                        children.push((r.bbox(), Box::new(r)));
                    }
                    None => children[idx].0 = children[idx].1.bbox(),
                }
                if children.len() <= MAX_ENTRIES {
                    return None;
                }
                let (l, r) = split_children(std::mem::take(children));
                Some((Node::Inner(l), Node::Inner(r)))
            }
        }
    }

    /// Removes the `REINSERT` entries farthest from the node centroid and
    /// queues them for reinsertion.
    fn evict_farthest(entries: &mut Vec<(Rect, u64)>, reinserted: &mut Vec<(Rect, u64)>) {
        let center = entries
            .iter()
            .fold(Rect::hull_of(&[entries[0].0.center()]).unwrap(), |acc, (r, _)| {
                acc.union(&r.center().bbox())
            })
            .center();
        entries.sort_by(|a, b| {
            let da = a.0.center().distance_sq(&center);
            let db = b.0.center().distance_sq(&center);
            da.partial_cmp(&db).unwrap_or(CmpOrd::Equal)
        });
        let keep = entries.len() - REINSERT;
        reinserted.extend(entries.drain(keep..));
    }

    /// All `(rect, value)` entries whose rectangle intersects `window`.
    pub fn search(&self, window: &Rect) -> Vec<(Rect, u64)> {
        let mut out = Vec::new();
        self.visit(window, &mut |r, v| out.push((r, v)));
        out
    }

    /// Visitor-style window search (avoids materialising results).
    pub fn visit<F: FnMut(Rect, u64)>(&self, window: &Rect, f: &mut F) {
        fn rec<F: FnMut(Rect, u64)>(node: &Node, w: &Rect, f: &mut F, touched: &mut u64) {
            *touched += 1;
            match node {
                Node::Leaf(entries) => {
                    for (r, v) in entries {
                        if r.intersects(w) {
                            f(*r, *v);
                        }
                    }
                }
                Node::Inner(children) => {
                    for (r, c) in children {
                        if r.intersects(w) {
                            rec(c, w, f, touched);
                        }
                    }
                }
            }
        }
        if !self.is_empty() {
            let mut touched = 0u64;
            rec(&self.root, window, f, &mut touched);
            if let Some(c) = &self.visits {
                c.add(touched);
            }
        }
    }

    /// Entries whose rectangle intersects `circle` — the probe shape of the
    /// expanding-circle closest search (§2.7.3).
    pub fn search_circle(&self, circle: &Circle) -> Vec<(Rect, u64)> {
        let window = circle.bbox();
        let mut out = Vec::new();
        self.visit(&window, &mut |r, v| {
            if circle.intersects_rect(&r) {
                out.push((r, v));
            }
        });
        out
    }

    /// Best-first nearest entry to `p` by rectangle distance. Returns
    /// `(rect, value, distance)`.
    pub fn nearest(&self, p: &Point) -> Option<(Rect, u64, f64)> {
        if self.is_empty() {
            return None;
        }
        struct Item<'a> {
            dist: f64,
            payload: ItemKind<'a>,
        }
        enum ItemKind<'a> {
            Node(&'a Node),
            Entry(Rect, u64),
        }
        impl PartialEq for Item<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist
            }
        }
        impl Eq for Item<'_> {}
        impl PartialOrd for Item<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<CmpOrd> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Item<'_> {
            fn cmp(&self, other: &Self) -> CmpOrd {
                // min-heap via reversed compare
                other.dist.partial_cmp(&self.dist).unwrap_or(CmpOrd::Equal)
            }
        }
        let mut heap = BinaryHeap::new();
        heap.push(Item { dist: 0.0, payload: ItemKind::Node(&self.root) });
        let mut touched = 0u64;
        let result = loop {
            let Some(item) = heap.pop() else { break None };
            match item.payload {
                ItemKind::Entry(r, v) => break Some((r, v, item.dist)),
                ItemKind::Node(Node::Leaf(entries)) => {
                    touched += 1;
                    for (r, v) in entries {
                        heap.push(Item {
                            dist: r.distance_to_point(p),
                            payload: ItemKind::Entry(*r, *v),
                        });
                    }
                }
                ItemKind::Node(Node::Inner(children)) => {
                    touched += 1;
                    for (r, c) in children {
                        heap.push(Item {
                            dist: r.distance_to_point(p),
                            payload: ItemKind::Node(c),
                        });
                    }
                }
            }
        };
        if let Some(c) = &self.visits {
            c.add(touched);
        }
        result
    }

    /// Bulk-loads entries with Sort-Tile-Recursive packing. Replaces the
    /// tree contents. This is the "index built on the fly" of Q12.
    pub fn bulk_load(entries: Vec<(Rect, u64)>) -> RTree {
        if entries.is_empty() {
            return RTree::new();
        }
        let len = entries.len();
        // STR: sort by center x, cut into vertical slices of
        // ceil(sqrt(n/M)) groups, sort each slice by center y, pack runs
        // of M into leaves.
        let mut entries = entries;
        entries
            .sort_by(|a, b| a.0.center().x.partial_cmp(&b.0.center().x).unwrap_or(CmpOrd::Equal));
        let n_leaves = len.div_ceil(MAX_ENTRIES);
        let n_slices = (n_leaves as f64).sqrt().ceil() as usize;
        let slice_size = len.div_ceil(n_slices);
        let mut leaves: Vec<Node> = Vec::with_capacity(n_leaves);
        for slice in entries.chunks_mut(slice_size.max(1)) {
            slice.sort_by(|a, b| {
                a.0.center().y.partial_cmp(&b.0.center().y).unwrap_or(CmpOrd::Equal)
            });
            for run in slice.chunks(MAX_ENTRIES) {
                leaves.push(Node::Leaf(run.to_vec()));
            }
        }
        // Pack upper levels.
        let mut level = leaves;
        let mut height = 1;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            for run in level.chunks(MAX_ENTRIES) {
                let children: Vec<(Rect, Box<Node>)> =
                    run.iter().map(|n| (n.bbox(), Box::new(n.clone()))).collect();
                next.push(Node::Inner(children));
            }
            level = next;
            height += 1;
        }
        RTree { root: Arc::new(level.pop().expect("non-empty")), height, len, visits: None }
    }

    /// Serializes the tree to bytes (persistable as a large object).
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_rect(out: &mut Vec<u8>, r: &Rect) {
            for v in [r.lo.x, r.lo.y, r.hi.x, r.hi.y] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        fn rec(node: &Node, out: &mut Vec<u8>) {
            match node {
                Node::Leaf(entries) => {
                    out.push(1);
                    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                    for (r, v) in entries {
                        put_rect(out, r);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Node::Inner(children) => {
                    out.push(0);
                    out.extend_from_slice(&(children.len() as u16).to_le_bytes());
                    for (_, c) in children {
                        rec(c, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        out.extend_from_slice(&(self.height as u16).to_le_bytes());
        rec(&self.root, &mut out);
        out
    }

    /// Reconstructs a tree serialized by [`RTree::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<RTree> {
        fn get_rect(b: &[u8], pos: &mut usize) -> Result<Rect> {
            if *pos + 32 > b.len() {
                return Err(StorageError::Corrupt("rtree: truncated rect"));
            }
            let mut vals = [0f64; 4];
            for v in &mut vals {
                *v = f64::from_le_bytes(b[*pos..*pos + 8].try_into().unwrap());
                *pos += 8;
            }
            Rect::new(Point::new(vals[0], vals[1]), Point::new(vals[2], vals[3]))
                .map_err(|_| StorageError::Corrupt("rtree: invalid rect"))
        }
        fn rec(b: &[u8], pos: &mut usize) -> Result<Node> {
            if *pos + 3 > b.len() {
                return Err(StorageError::Corrupt("rtree: truncated node"));
            }
            let is_leaf = b[*pos] == 1;
            let n = u16::from_le_bytes(b[*pos + 1..*pos + 3].try_into().unwrap()) as usize;
            *pos += 3;
            if is_leaf {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let r = get_rect(b, pos)?;
                    if *pos + 8 > b.len() {
                        return Err(StorageError::Corrupt("rtree: truncated value"));
                    }
                    let v = u64::from_le_bytes(b[*pos..*pos + 8].try_into().unwrap());
                    *pos += 8;
                    entries.push((r, v));
                }
                Ok(Node::Leaf(entries))
            } else {
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    let c = rec(b, pos)?;
                    children.push((c.bbox(), Box::new(c)));
                }
                Ok(Node::Inner(children))
            }
        }
        if bytes.len() < 10 {
            return Err(StorageError::Corrupt("rtree: too short"));
        }
        let len = u64::from_le_bytes(bytes[0..8].try_into().unwrap()) as usize;
        let height = u16::from_le_bytes(bytes[8..10].try_into().unwrap()) as usize;
        let mut pos = 10;
        let root = Arc::new(rec(bytes, &mut pos)?);
        Ok(RTree { root, height, len, visits: None })
    }
}

/// R* ChooseSubtree: at the level just above the leaves minimise overlap
/// enlargement; higher up minimise area enlargement (ties: smaller area).
fn choose_subtree(children: &[(Rect, Box<Node>)], rect: &Rect, above_leaf: bool) -> usize {
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, (r, _)) in children.iter().enumerate() {
        let enlarged = r.union(rect);
        let key = if above_leaf {
            let overlap_now: f64 = children
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, (o, _))| r.overlap_area(o))
                .sum();
            let overlap_then: f64 = children
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, (o, _))| enlarged.overlap_area(o))
                .sum();
            (overlap_then - overlap_now, r.enlargement(rect), r.area())
        } else {
            (r.enlargement(rect), r.area(), 0.0)
        };
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// A leaf's entries: each payload id with its bounding rectangle.
type Entries = Vec<(Rect, u64)>;

/// R* split for leaf entries.
fn split_entries(entries: Entries) -> (Entries, Entries) {
    let rects: Vec<Rect> = entries.iter().map(|(r, _)| *r).collect();
    let (axis_is_x, split_at) = rstar_split_position(&rects);
    let mut entries = entries;
    sort_by_axis(&mut entries, |e| e.0, axis_is_x);
    let right = entries.split_off(split_at);
    (entries, right)
}

/// A node's children, each with its bounding rectangle.
type Children = Vec<(Rect, Box<Node>)>;

/// R* split for inner children.
fn split_children(children: Children) -> (Children, Children) {
    let rects: Vec<Rect> = children.iter().map(|(r, _)| *r).collect();
    let (axis_is_x, split_at) = rstar_split_position(&rects);
    let mut children = children;
    sort_by_axis(&mut children, |e| e.0, axis_is_x);
    let right = children.split_off(split_at);
    (children, right)
}

fn sort_by_axis<T>(items: &mut [T], rect_of: impl Fn(&T) -> Rect, axis_is_x: bool) {
    items.sort_by(|a, b| {
        let (ra, rb) = (rect_of(a), rect_of(b));
        let ka = if axis_is_x { (ra.lo.x, ra.hi.x) } else { (ra.lo.y, ra.hi.y) };
        let kb = if axis_is_x { (rb.lo.x, rb.hi.x) } else { (rb.lo.y, rb.hi.y) };
        ka.partial_cmp(&kb).unwrap_or(CmpOrd::Equal)
    });
}

/// Chooses the split axis (minimum total margin over all distributions) and
/// the distribution (minimum overlap, ties by combined area). Returns
/// `(axis_is_x, index of the first right entry after axis sort)`.
fn rstar_split_position(rects: &[Rect]) -> (bool, usize) {
    let n = rects.len();
    let mut best_axis = true;
    let mut best_margin = f64::INFINITY;
    for axis_is_x in [true, false] {
        let mut sorted = rects.to_vec();
        sort_by_axis(&mut sorted, |r| *r, axis_is_x);
        let mut margin = 0.0;
        for k in MIN_ENTRIES..=(n - MIN_ENTRIES) {
            let left = sorted[..k].iter().fold(sorted[0], |a, r| a.union(r));
            let right = sorted[k..].iter().fold(sorted[k], |a, r| a.union(r));
            margin += left.margin() + right.margin();
        }
        if margin < best_margin {
            best_margin = margin;
            best_axis = axis_is_x;
        }
    }
    let mut sorted = rects.to_vec();
    sort_by_axis(&mut sorted, |r| *r, best_axis);
    let mut best_k = MIN_ENTRIES;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for k in MIN_ENTRIES..=(n - MIN_ENTRIES) {
        let left = sorted[..k].iter().fold(sorted[0], |a, r| a.union(r));
        let right = sorted[k..].iter().fold(sorted[k], |a, r| a.union(r));
        let key = (left.overlap_area(&right), left.area() + right.area());
        if key < best_key {
            best_key = key;
            best_k = k;
        }
    }
    (best_axis, best_k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_corners(Point::new(x0, y0), Point::new(x1, y1)).unwrap()
    }

    fn pt_rect(x: f64, y: f64) -> Rect {
        r(x, y, x, y)
    }

    /// Deterministic pseudo-random rect in [0,1000)^2.
    fn rnd_rects(n: usize) -> Vec<(Rect, u64)> {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 10_000) as f64 / 10.0
        };
        (0..n)
            .map(|i| {
                let cx = next();
                let cy = next();
                let w = next() / 100.0;
                let h = next() / 100.0;
                (r(cx, cy, cx + w, cy + h), i as u64)
            })
            .collect()
    }

    fn brute_search(data: &[(Rect, u64)], w: &Rect) -> Vec<u64> {
        let mut v: Vec<u64> =
            data.iter().filter(|(r, _)| r.intersects(w)).map(|(_, id)| *id).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree() {
        let t = RTree::new();
        assert!(t.is_empty());
        assert!(t.search(&r(0.0, 0.0, 100.0, 100.0)).is_empty());
        assert_eq!(t.nearest(&Point::new(0.0, 0.0)), None);
        assert_eq!(t.bbox(), None);
    }

    #[test]
    fn insert_search_matches_brute_force() {
        let data = rnd_rects(500);
        let mut t = RTree::new();
        for (rect, v) in &data {
            t.insert(*rect, *v);
        }
        assert_eq!(t.len(), 500);
        for window in [
            r(0.0, 0.0, 100.0, 100.0),
            r(400.0, 400.0, 600.0, 600.0),
            r(0.0, 0.0, 1000.0, 1000.0),
            r(999.0, 999.0, 1000.0, 1000.0),
        ] {
            let mut got: Vec<u64> = t.search(&window).iter().map(|(_, v)| *v).collect();
            got.sort_unstable();
            assert_eq!(got, brute_search(&data, &window), "window {window}");
        }
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let data = rnd_rects(2000);
        let t = RTree::bulk_load(data.clone());
        assert_eq!(t.len(), 2000);
        let window = r(200.0, 300.0, 450.0, 520.0);
        let mut got: Vec<u64> = t.search(&window).iter().map(|(_, v)| *v).collect();
        got.sort_unstable();
        assert_eq!(got, brute_search(&data, &window));
    }

    #[test]
    fn nearest_matches_brute_force() {
        let data = rnd_rects(300);
        let t = RTree::bulk_load(data.clone());
        for probe in [Point::new(0.0, 0.0), Point::new(500.0, 500.0), Point::new(1200.0, -50.0)] {
            let (_, _, d) = t.nearest(&probe).unwrap();
            let brute =
                data.iter().map(|(r, _)| r.distance_to_point(&probe)).fold(f64::INFINITY, f64::min);
            assert!((d - brute).abs() < 1e-9, "probe {probe}: {d} vs {brute}");
        }
    }

    #[test]
    fn search_circle_filters_by_distance() {
        let mut t = RTree::new();
        t.insert(pt_rect(0.0, 0.0), 1);
        t.insert(pt_rect(10.0, 0.0), 2);
        t.insert(pt_rect(7.0, 7.0), 3); // dist ~9.9 from origin
        let c = Circle::new(Point::new(0.0, 0.0), 9.95).unwrap();
        let mut ids: Vec<u64> = t.search_circle(&c).iter().map(|(_, v)| *v).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn tree_grows_in_height() {
        let mut t = RTree::new();
        for (rect, v) in rnd_rects(1000) {
            t.insert(rect, v);
        }
        assert!(t.height() >= 3, "height = {}", t.height());
        // bbox covers everything
        let bb = t.bbox().unwrap();
        for (rect, _) in t.search(&r(-1e9, -1e9, 1e9, 1e9)) {
            assert!(bb.contains_rect(&rect));
        }
    }

    #[test]
    fn duplicate_rects_all_found() {
        let mut t = RTree::new();
        for i in 0..50 {
            t.insert(pt_rect(5.0, 5.0), i);
        }
        let hits = t.search(&r(5.0, 5.0, 5.0, 5.0));
        assert_eq!(hits.len(), 50);
    }

    #[test]
    fn serialization_roundtrip() {
        let data = rnd_rects(700);
        let t = RTree::bulk_load(data.clone());
        let bytes = t.to_bytes();
        let t2 = RTree::from_bytes(&bytes).unwrap();
        assert_eq!(t2.len(), t.len());
        assert_eq!(t2.height(), t.height());
        let w = r(100.0, 100.0, 400.0, 400.0);
        let mut a: Vec<u64> = t.search(&w).iter().map(|(_, v)| *v).collect();
        let mut b: Vec<u64> = t2.search(&w).iter().map(|(_, v)| *v).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // corrupt data rejected
        assert!(RTree::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(RTree::from_bytes(&[1, 2]).is_err());
    }

    #[test]
    fn visitor_early_accumulation() {
        let t = RTree::bulk_load(rnd_rects(100));
        let mut count = 0usize;
        t.visit(&r(0.0, 0.0, 1000.0, 1000.0), &mut |_, _| count += 1);
        assert_eq!(count, 100);
    }

    #[test]
    fn visit_counter_counts_touched_nodes() {
        let mut t = RTree::bulk_load(rnd_rects(1000));
        let visits = Counter::new();
        t.set_visit_counter(visits.clone());
        // Full-window search touches every node: root + inner + leaves.
        t.search(&r(-1e9, -1e9, 1e9, 1e9));
        let full = visits.get();
        assert!(full > 1000 / MAX_ENTRIES as u64, "full scan touched only {full} nodes");
        // A tiny window must touch far fewer nodes than the full scan —
        // this is the index-selectivity signal the metric exists for.
        let before = visits.get();
        t.search(&r(0.0, 0.0, 1.0, 1.0));
        let narrow = visits.get() - before;
        assert!(narrow > 0 && narrow < full / 4, "narrow {narrow} vs full {full}");
        // nearest() also reports traversal work.
        let before = visits.get();
        t.nearest(&Point::new(500.0, 500.0)).unwrap();
        assert!(visits.get() > before);
        // Clones share the counter.
        let t2 = t.clone();
        let before = visits.get();
        t2.search(&r(0.0, 0.0, 1.0, 1.0));
        assert!(visits.get() > before);
        // ...until a handle attaches its own: the other keeps the old one.
        let mut t3 = t.clone();
        let own = Counter::new();
        t3.set_visit_counter(own.clone());
        let before = visits.get();
        t3.search(&r(0.0, 0.0, 1.0, 1.0));
        assert_eq!(visits.get(), before);
        assert!(own.get() > 0);
    }

    #[test]
    fn insert_into_clone_leaves_original_unchanged() {
        let data = rnd_rects(300);
        let original = RTree::bulk_load(data.clone());
        let mut copy = original.clone();
        let far = r(5000.0, 5000.0, 5001.0, 5001.0);
        for i in 0..40 {
            copy.insert(far, 10_000 + i); // forces splits down the shared path
        }
        assert_eq!(copy.len(), 340);
        assert_eq!(copy.search(&far).len(), 40);
        assert_eq!(original.len(), 300);
        assert!(original.search(&far).is_empty());
        let everything = r(-1e9, -1e9, 1e9, 1e9);
        let mut ids: Vec<u64> = original.search(&everything).iter().map(|(_, v)| *v).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn str_bulk_load_is_well_packed() {
        // For uniformly spread points, STR leaves should be near-full:
        // tree height should be close to log_M(n).
        let t = RTree::bulk_load(rnd_rects(4000));
        assert!(t.height() <= 4, "height = {}", t.height());
    }
}
