//! Large objects: byte strings of arbitrary size stored as page chains.
//!
//! "Objects can be arbitrarily large, up to the size of a storage volume"
//! (paper §2.2). Raster tiles, whole rasters being copied on insert, and
//! large attributes created during predicate evaluation are all stored as
//! LOBs. Paper §2.5.2 distinguishes three lifetimes, which the engine maps
//! to which [`crate::volume::ExtentAllocator`] owns the LOB's extents:
//!
//! 1. base-table LOB file — freed when the base table is dropped;
//! 2. temporary-table LOB file — freed when the intermediate table is;
//! 3. operator-scoped LOB file — freed when the operator finishes.
//!
//! LOB page layout (raw, not slotted): `[next: u64][len: u32][payload…]`.

use crate::buffer::BufferPool;
use crate::page::{PageId, NO_PAGE, PAGE_SIZE};
use crate::volume::ExtentAllocator;
use crate::Result;

const LOB_HDR: usize = 12;
/// Payload bytes per LOB page.
pub const LOB_PAYLOAD: usize = PAGE_SIZE - LOB_HDR;

/// Writes `data` as a page chain; returns the first page id (a zero-length
/// LOB still occupies one page so it has an address).
pub fn write_lob(pool: &BufferPool, alloc: &ExtentAllocator, data: &[u8]) -> Result<PageId> {
    let chunks: Vec<&[u8]> =
        if data.is_empty() { vec![&[][..]] } else { data.chunks(LOB_PAYLOAD).collect() };
    // Allocate all pages first so each page can record its successor.
    let pids: Vec<PageId> = chunks.iter().map(|_| alloc.alloc_page()).collect::<Result<_>>()?;
    for (i, chunk) in chunks.iter().enumerate() {
        let g = pool.get_new(pids[i])?;
        let mut page = g.write();
        let buf = page.bytes_mut();
        let next = if i + 1 < pids.len() { pids[i + 1] } else { NO_PAGE };
        buf[0..8].copy_from_slice(&next.to_le_bytes());
        buf[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        buf[LOB_HDR..LOB_HDR + chunk.len()].copy_from_slice(chunk);
    }
    Ok(pids[0])
}

/// Reads a whole LOB chain starting at `first`.
pub fn read_lob(pool: &BufferPool, first: PageId) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut pid = first;
    while pid != NO_PAGE {
        let g = pool.get(pid)?;
        let page = g.read();
        let buf = page.bytes();
        let next = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let len = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        out.extend_from_slice(&buf[LOB_HDR..LOB_HDR + len]);
        pid = next;
    }
    Ok(out)
}

/// Reads bytes `[offset, offset+len)` of a LOB, touching only the pages in
/// range — the "only the subarray itself is fetched" delivery path (§2.2)
/// and the tile-level pull (§2.5.2) rely on this.
///
/// Returns the available prefix when the range pokes past the end.
pub fn read_lob_range(
    pool: &BufferPool,
    first: PageId,
    offset: usize,
    len: usize,
) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(len);
    let mut pid = first;
    let mut pos = 0usize; // byte offset of the current page's payload start
    while pid != NO_PAGE && out.len() < len {
        let g = pool.get(pid)?;
        let page = g.read();
        let buf = page.bytes();
        let next = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let plen = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        let page_start = pos;
        let page_end = pos + plen;
        if page_end > offset {
            let from = offset.max(page_start) - page_start;
            let to = (offset + len).min(page_end) - page_start;
            out.extend_from_slice(&buf[LOB_HDR + from..LOB_HDR + to]);
        }
        pos = page_end;
        pid = next;
        if page_start >= offset + len {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::Volume;
    use std::sync::Arc;

    fn setup(name: &str) -> (BufferPool, ExtentAllocator) {
        let dir = std::env::temp_dir().join(format!("paradise-lob-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vol = Arc::new(Volume::create(dir.join(name)).unwrap());
        (BufferPool::new(vol.clone(), 64), ExtentAllocator::new(vol))
    }

    #[test]
    fn small_lob_roundtrip() {
        let (pool, alloc) = setup("s.vol");
        let first = write_lob(&pool, &alloc, b"tiny").unwrap();
        assert_eq!(read_lob(&pool, first).unwrap(), b"tiny");
    }

    #[test]
    fn empty_lob() {
        let (pool, alloc) = setup("e.vol");
        let first = write_lob(&pool, &alloc, b"").unwrap();
        assert_eq!(read_lob(&pool, first).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multi_page_lob_roundtrip() {
        let (pool, alloc) = setup("m.vol");
        let data: Vec<u8> = (0..3 * LOB_PAYLOAD + 100).map(|i| (i % 251) as u8).collect();
        let first = write_lob(&pool, &alloc, &data).unwrap();
        assert_eq!(read_lob(&pool, first).unwrap(), data);
        // uses 4 pages
        assert_eq!(alloc.extents().len(), 1);
    }

    #[test]
    fn range_read_touches_middle() {
        let (pool, alloc) = setup("r.vol");
        let data: Vec<u8> = (0..4 * LOB_PAYLOAD).map(|i| (i % 251) as u8).collect();
        let first = write_lob(&pool, &alloc, &data).unwrap();
        pool.flush_and_clear().unwrap();
        pool.reset_stats();
        // A range inside page 2 only.
        let off = 2 * LOB_PAYLOAD + 10;
        let got = read_lob_range(&pool, first, off, 100).unwrap();
        assert_eq!(got, &data[off..off + 100]);
        // Must have read at most pages 0,1,2 headers + payload page — but
        // never page 3.
        let s = pool.stats();
        assert!(s.misses <= 3, "read {} pages", s.misses);
    }

    #[test]
    fn range_read_spanning_pages() {
        let (pool, alloc) = setup("sp.vol");
        let data: Vec<u8> = (0..3 * LOB_PAYLOAD).map(|i| (i % 199) as u8).collect();
        let first = write_lob(&pool, &alloc, &data).unwrap();
        let off = LOB_PAYLOAD - 50;
        let got = read_lob_range(&pool, first, off, 100).unwrap();
        assert_eq!(got, &data[off..off + 100]);
    }

    #[test]
    fn range_read_past_end_truncates() {
        let (pool, alloc) = setup("t.vol");
        let first = write_lob(&pool, &alloc, b"abcdef").unwrap();
        assert_eq!(read_lob_range(&pool, first, 4, 100).unwrap(), b"ef");
        assert_eq!(read_lob_range(&pool, first, 10, 5).unwrap(), b"");
    }

    #[test]
    fn freeing_extents_releases_lob() {
        let (pool, alloc) = setup("f.vol");
        let data = vec![9u8; 2 * LOB_PAYLOAD];
        let _first = write_lob(&pool, &alloc, &data).unwrap();
        pool.flush_and_clear().unwrap();
        let n = alloc.extents().len();
        assert!(n >= 1);
        alloc.free_all().unwrap();
        assert!(alloc.extents().is_empty());
    }
}
