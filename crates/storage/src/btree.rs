//! A page-based B+-tree on byte-string keys (SHORE provides B+-trees;
//! paper §2.2). Values are `u64` — typically a packed [`crate::Oid`] or a
//! tuple ordinal. Duplicate keys are allowed (secondary indexes need them).
//!
//! Node representation: each node occupies one slotted page. Record 0 is
//! the node header `[is_leaf u8][extra u64]` where `extra` is the next-leaf
//! link for leaves and the leftmost child for inner nodes; records 1..=n
//! are the sorted entries `[key…][value u64]` (the key length is implied by
//! the record length). Nodes are rewritten wholesale on modification —
//! simple, and the buffer pool absorbs the cost.
//!
//! Deletion is by tombstone-free entry removal without rebalancing
//! (underfull nodes persist); the benchmark workload is insert/scan heavy,
//! and SHORE-era systems commonly deferred merge as well.

use crate::buffer::BufferPool;
use crate::page::{Page, PageId, NO_PAGE, PAGE_SIZE};
use crate::volume::ExtentAllocator;
use crate::Result;
use paradise_util::sync::Mutex;
use std::sync::Arc;

/// Serialized node must stay under this budget (page minus header/slots
/// slack) before a split is forced.
const NODE_BUDGET: usize = PAGE_SIZE - 512;

/// Persistable description of a B+-tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BTreeMeta {
    /// Root page.
    pub root: PageId,
    /// Extents owned by the tree.
    pub extents: Vec<PageId>,
}

struct Node {
    is_leaf: bool,
    /// Leaves: next-leaf page id ([`NO_PAGE`] at the end).
    /// Inner nodes: leftmost child page id.
    extra: u64,
    /// Sorted by key (then value). Inner nodes: (separator key, child);
    /// child covers keys `>=` its separator.
    entries: Vec<(Vec<u8>, u64)>,
}

impl Node {
    fn serialized_size(&self) -> usize {
        // header record 9 + slot 4; each entry: key + 8 + slot 4
        13 + self.entries.iter().map(|(k, _)| k.len() + 12).sum::<usize>()
    }
}

/// A B+-tree over `(Vec<u8>, u64)` pairs.
pub struct BTree {
    pool: Arc<BufferPool>,
    alloc: ExtentAllocator,
    root: Mutex<PageId>,
    /// Serialises writers; readers go through the buffer pool latches.
    write_lock: Mutex<()>,
}

impl BTree {
    /// Creates an empty tree.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let alloc = ExtentAllocator::new(pool.volume().clone());
        let root = alloc.alloc_page()?;
        let t = BTree { pool, alloc, root: Mutex::new(root), write_lock: Mutex::new(()) };
        t.write_node(root, &Node { is_leaf: true, extra: NO_PAGE, entries: Vec::new() }, true)?;
        Ok(t)
    }

    /// Reopens a tree from persisted metadata.
    pub fn from_meta(pool: Arc<BufferPool>, meta: BTreeMeta) -> Self {
        let alloc = ExtentAllocator::from_extents(pool.volume().clone(), meta.extents);
        BTree { pool, alloc, root: Mutex::new(meta.root), write_lock: Mutex::new(()) }
    }

    /// Metadata snapshot for persistence.
    pub fn meta(&self) -> BTreeMeta {
        BTreeMeta { root: *self.root.lock(), extents: self.alloc.extents() }
    }

    /// Frees all extents.
    pub fn free(&self) -> Result<()> {
        self.alloc.free_all()
    }

    fn read_node(&self, pid: PageId) -> Result<Node> {
        let g = self.pool.get(pid)?;
        let page = g.read();
        let hdr = page.get(0)?;
        let is_leaf = hdr[0] == 1;
        let extra = u64::from_le_bytes(hdr[1..9].try_into().unwrap());
        let mut entries = Vec::with_capacity(page.num_slots() as usize - 1);
        for s in 1..page.num_slots() {
            let rec = page.get(s)?;
            let (key, val) = rec.split_at(rec.len() - 8);
            entries.push((key.to_vec(), u64::from_le_bytes(val.try_into().unwrap())));
        }
        Ok(Node { is_leaf, extra, entries })
    }

    fn write_node(&self, pid: PageId, node: &Node, fresh: bool) -> Result<()> {
        let g = if fresh { self.pool.get_new(pid)? } else { self.pool.get(pid)? };
        let mut page = g.write();
        *page = Page::new();
        let mut hdr = [0u8; 9];
        hdr[0] = node.is_leaf as u8;
        hdr[1..9].copy_from_slice(&node.extra.to_le_bytes());
        page.insert(&hdr)?;
        let mut rec = Vec::new();
        for (k, v) in &node.entries {
            rec.clear();
            rec.extend_from_slice(k);
            rec.extend_from_slice(&v.to_le_bytes());
            page.insert(&rec)?;
        }
        Ok(())
    }

    /// Which child of an inner node covers `key`.
    fn child_for(node: &Node, key: &[u8]) -> u64 {
        // entries[i].0 is the smallest key in child entries[i].1
        match node.entries.partition_point(|(k, _)| k.as_slice() <= key) {
            0 => node.extra,
            i => node.entries[i - 1].1,
        }
    }

    /// Inserts a `(key, value)` pair (duplicates allowed).
    pub fn insert(&self, key: &[u8], value: u64) -> Result<()> {
        let _w = self.write_lock.lock();
        let root = *self.root.lock();
        if let Some((sep, right)) = self.insert_rec(root, key, value)? {
            // Root split: allocate a new root.
            let old_root_copy = self.read_node(root)?;
            let left_pid = self.alloc.alloc_page()?;
            self.write_node(left_pid, &old_root_copy, true)?;
            let new_root = Node { is_leaf: false, extra: left_pid, entries: vec![(sep, right)] };
            self.write_node(root, &new_root, false)?;
        }
        Ok(())
    }

    /// Recursive insert; returns `Some((separator, new_right_pid))` when the
    /// child split.
    fn insert_rec(&self, pid: PageId, key: &[u8], value: u64) -> Result<Option<(Vec<u8>, u64)>> {
        let mut node = self.read_node(pid)?;
        if node.is_leaf {
            let at = node.entries.partition_point(|(k, v)| (k.as_slice(), *v) < (key, value));
            node.entries.insert(at, (key.to_vec(), value));
        } else {
            let child = Self::child_for(&node, key);
            if let Some((sep, right)) = self.insert_rec(child, key, value)? {
                let at = node.entries.partition_point(|(k, _)| k.as_slice() <= &sep[..]);
                node.entries.insert(at, (sep, right));
            } else {
                return Ok(None);
            }
        }
        if node.serialized_size() <= NODE_BUDGET {
            self.write_node(pid, &node, false)?;
            return Ok(None);
        }
        // Split: move the upper half to a new right sibling.
        let mid = node.entries.len() / 2;
        let right_entries = node.entries.split_off(mid);
        let right_pid = self.alloc.alloc_page()?;
        let (sep, right_node) = if node.is_leaf {
            let sep = right_entries[0].0.clone();
            let right_node = Node {
                is_leaf: true,
                extra: node.extra, // old next-leaf
                entries: right_entries,
            };
            node.extra = right_pid;
            (sep, right_node)
        } else {
            // The first right entry's key becomes the separator; its child
            // becomes the right node's leftmost child.
            let mut it = right_entries.into_iter();
            let (sep, leftmost) = it.next().expect("non-empty split");
            let right_node = Node { is_leaf: false, extra: leftmost, entries: it.collect() };
            (sep, right_node)
        };
        self.write_node(right_pid, &right_node, true)?;
        self.write_node(pid, &node, false)?;
        Ok(Some((sep, right_pid)))
    }

    fn find_leaf(&self, key: &[u8]) -> Result<PageId> {
        let mut pid = *self.root.lock();
        loop {
            let node = self.read_node(pid)?;
            if node.is_leaf {
                return Ok(pid);
            }
            pid = Self::child_for(&node, key);
        }
    }

    /// First value stored under `key`, if any.
    pub fn get(&self, key: &[u8]) -> Result<Option<u64>> {
        Ok(self.get_all(key)?.into_iter().next())
    }

    /// All values stored under `key` (duplicates), in value order.
    pub fn get_all(&self, key: &[u8]) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        let mut pid = self.find_leaf(key)?;
        loop {
            let node = self.read_node(pid)?;
            let start = node.entries.partition_point(|(k, _)| k.as_slice() < key);
            for (k, v) in &node.entries[start..] {
                if k.as_slice() != key {
                    return Ok(out);
                }
                out.push(*v);
            }
            if node.extra == NO_PAGE {
                return Ok(out);
            }
            pid = node.extra; // duplicates may continue on the next leaf
        }
    }

    /// Every `(key, value)` pair in key order (full index scan).
    pub fn scan_all(&self) -> Result<Vec<(Vec<u8>, u64)>> {
        // Walk down the leftmost spine, then the leaf chain.
        let mut pid = *self.root.lock();
        loop {
            let node = self.read_node(pid)?;
            if node.is_leaf {
                break;
            }
            pid = node.extra;
        }
        let mut out = Vec::new();
        loop {
            let node = self.read_node(pid)?;
            out.extend(node.entries.iter().cloned());
            if node.extra == NO_PAGE {
                return Ok(out);
            }
            pid = node.extra;
        }
    }

    /// Bulk-loads `pairs` (must be sorted by key) into an empty tree,
    /// packing leaves tightly — the fast path the benchmark's Q1 index
    /// build uses (cf. \[DeWi94\] bulk loading).
    pub fn bulk_load(&self, pairs: &[(Vec<u8>, u64)]) -> Result<()> {
        let _w = self.write_lock.lock();
        debug_assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0), "input not sorted");
        if pairs.is_empty() {
            return Ok(());
        }
        // Build leaf level.
        let mut level: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, pid)
        let mut cur = Node { is_leaf: true, extra: NO_PAGE, entries: Vec::new() };
        let mut cur_pid = self.alloc.alloc_page()?;
        let mut pending: Vec<(PageId, Node)> = Vec::new();
        for (k, v) in pairs {
            if cur.serialized_size() + k.len() + 12 > NODE_BUDGET && !cur.entries.is_empty() {
                let next_pid = self.alloc.alloc_page()?;
                cur.extra = next_pid;
                level.push((cur.entries[0].0.clone(), cur_pid));
                pending.push((
                    cur_pid,
                    std::mem::replace(
                        &mut cur,
                        Node { is_leaf: true, extra: NO_PAGE, entries: Vec::new() },
                    ),
                ));
                cur_pid = next_pid;
            }
            cur.entries.push((k.clone(), *v));
        }
        level.push((cur.entries[0].0.clone(), cur_pid));
        pending.push((cur_pid, cur));
        for (pid, node) in &pending {
            self.write_node(*pid, node, true)?;
        }
        // Build inner levels bottom-up.
        while level.len() > 1 {
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let pid = self.alloc.alloc_page()?;
                let first_key = level[i].0.clone();
                let mut node = Node { is_leaf: false, extra: level[i].1, entries: Vec::new() };
                i += 1;
                while i < level.len()
                    && node.serialized_size() + level[i].0.len() + 12 <= NODE_BUDGET
                {
                    node.entries.push((level[i].0.clone(), level[i].1));
                    i += 1;
                }
                self.write_node(pid, &node, true)?;
                next_level.push((first_key, pid));
            }
            level = next_level;
        }
        // Install the built tree under the existing root page id.
        let built_root = self.read_node(level[0].1)?;
        let root = *self.root.lock();
        self.write_node(root, &built_root, false)?;
        Ok(())
    }

    /// Number of entries (full scan; used by tests and statistics).
    pub fn len(&self) -> Result<usize> {
        Ok(self.scan_all()?.len())
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::Volume;

    fn tree(name: &str) -> BTree {
        let dir = std::env::temp_dir().join(format!("paradise-btree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vol = Arc::new(Volume::create(dir.join(name)).unwrap());
        let pool = Arc::new(BufferPool::new(vol, 256));
        BTree::create(pool).unwrap()
    }

    fn key(i: u32) -> Vec<u8> {
        // big-endian so byte order == numeric order
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn empty_tree() {
        let t = tree("a.vol");
        assert_eq!(t.get(b"x").unwrap(), None);
        assert!(t.is_empty().unwrap());
        assert!(t.scan_all().unwrap().is_empty());
    }

    #[test]
    fn insert_and_get() {
        let t = tree("b.vol");
        t.insert(b"wisconsin", 1).unwrap();
        t.insert(b"madison", 2).unwrap();
        assert_eq!(t.get(b"wisconsin").unwrap(), Some(1));
        assert_eq!(t.get(b"madison").unwrap(), Some(2));
        assert_eq!(t.get(b"phoenix").unwrap(), None);
    }

    #[test]
    fn many_inserts_force_splits() {
        let t = tree("c.vol");
        let n = 20_000u32;
        for i in 0..n {
            // Insert in a scrambled order to exercise interior splits.
            // The odd multiplier is coprime to n, so (in u64 arithmetic)
            // this is a bijection on 0..n.
            let k = ((u64::from(i) * 2_654_435_761) % u64::from(n)) as u32;
            t.insert(&key(k), u64::from(k)).unwrap();
        }
        for probe in [0u32, 1, 17, 999, n - 1] {
            assert_eq!(t.get(&key(probe)).unwrap(), Some(u64::from(probe)), "probe {probe}");
        }
        // Full scan is sorted and complete (each key inserted exactly once).
        let all = t.scan_all().unwrap();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn duplicates_supported() {
        let t = tree("d.vol");
        for v in 0..100 {
            t.insert(b"dup", v).unwrap();
        }
        t.insert(b"other", 1).unwrap();
        let all = t.get_all(b"dup").unwrap();
        assert_eq!(all.len(), 100);
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn variable_length_keys() {
        let t = tree("g.vol");
        let keys: Vec<Vec<u8>> = (0..2000)
            .map(|i| format!("feature-{:0width$}", i, width = (i % 40) + 5).into_bytes())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k).unwrap(), Some(i as u64));
        }
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let t = tree("h.vol");
        let pairs: Vec<(Vec<u8>, u64)> = (0..50_000u32).map(|i| (key(i), u64::from(i))).collect();
        t.bulk_load(&pairs).unwrap();
        assert_eq!(t.len().unwrap(), 50_000);
        assert_eq!(t.get(&key(0)).unwrap(), Some(0));
        assert_eq!(t.get(&key(49_999)).unwrap(), Some(49_999));
        assert_eq!(t.get(&key(31_337)).unwrap(), Some(31_337));
        let all = t.scan_all().unwrap();
        assert_eq!(all[1000..1005], pairs[1000..1005]);
        // inserts still work after a bulk load
        t.insert(&key(50_000), 50_000).unwrap();
        assert_eq!(t.get(&key(50_000)).unwrap(), Some(50_000));
    }

    #[test]
    fn sequential_inserts() {
        let t = tree("i.vol");
        for i in 0..5000u32 {
            t.insert(&key(i), u64::from(i)).unwrap();
        }
        let all = t.scan_all().unwrap();
        assert_eq!(all.len(), 5000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
