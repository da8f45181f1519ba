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
