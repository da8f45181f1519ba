//! File-backed storage volumes with extent allocation.
//!
//! "Allocation of space inside a storage volume is performed in terms of
//! fixed-size extents" (paper §2.2). An extent here is 8 contiguous pages
//! (64 KB). Structures (heap files, indexes, large objects) allocate whole
//! extents and return them wholesale when dropped — which is exactly how
//! Paradise reclaims temporary-table and operator-scoped large-attribute
//! files (§2.5.2).

use crate::page::{Page, PageId, NO_PAGE, PAGE_SIZE};
use crate::{Result, StorageError};
use paradise_util::sync::Mutex;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pages per extent.
pub const EXTENT_PAGES: u64 = 8;

const MAGIC: u64 = 0x5041_5241_4449_5345; // "PARADISE"

/// A file-backed volume of 8 KB pages.
///
/// Page 0 is the volume header: `[magic][num_pages][free_extent_head]`.
/// Freed extents form a linked list threaded through the first 8 bytes of
/// each extent's first page.
pub struct Volume {
    file: File,
    /// Total pages in the volume (including header).
    num_pages: AtomicU64,
    /// Guards the free-list manipulation and file growth.
    alloc_lock: Mutex<()>,
    /// Head of the free extent list.
    free_head: AtomicU64,
}

impl Volume {
    /// Creates a new volume at `path` (truncating any existing file). The
    /// parent directory is fsynced so the new file's directory entry — and
    /// with it the volume — survives a crash right after creation.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref();
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let vol = Volume {
            file,
            num_pages: AtomicU64::new(1),
            alloc_lock: Mutex::new(()),
            free_head: AtomicU64::new(NO_PAGE),
        };
        vol.write_header()?;
        vol.file.sync_all()?;
        crate::fsync_parent_dir(path)?;
        Ok(vol)
    }

    /// Opens an existing volume.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut hdr = [0u8; PAGE_SIZE];
        file.read_exact_at(&mut hdr, 0)?;
        let magic = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
        if magic != MAGIC {
            return Err(StorageError::Corrupt("bad volume magic"));
        }
        let num_pages = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        let free_head = u64::from_le_bytes(hdr[16..24].try_into().unwrap());
        Ok(Volume {
            file,
            num_pages: AtomicU64::new(num_pages),
            alloc_lock: Mutex::new(()),
            free_head: AtomicU64::new(free_head),
        })
    }

    fn write_header(&self) -> Result<()> {
        let mut hdr = [0u8; PAGE_SIZE];
        hdr[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        hdr[8..16].copy_from_slice(&self.num_pages.load(Ordering::SeqCst).to_le_bytes());
        hdr[16..24].copy_from_slice(&self.free_head.load(Ordering::SeqCst).to_le_bytes());
        self.file.write_all_at(&hdr, 0)?;
        Ok(())
    }

    /// Total pages, including the header page.
    pub fn num_pages(&self) -> u64 {
        self.num_pages.load(Ordering::SeqCst)
    }

    /// Reads page `pid` from disk.
    pub fn read_page(&self, pid: PageId) -> Result<Page> {
        if pid == 0 || pid >= self.num_pages() {
            return Err(StorageError::BadPageId(pid));
        }
        let mut buf = [0u8; PAGE_SIZE];
        self.file.read_exact_at(&mut buf, pid * PAGE_SIZE as u64)?;
        Ok(Page::from_bytes(buf))
    }

    /// Writes page `pid` to disk.
    pub fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        if pid == 0 || pid >= self.num_pages() {
            return Err(StorageError::BadPageId(pid));
        }
        if !crate::failpoint("volume.write_page")? {
            return Ok(());
        }
        self.file.write_all_at(page.bytes(), pid * PAGE_SIZE as u64)?;
        Ok(())
    }

    /// Writes raw bytes to page `pid` (used by WAL replay).
    pub fn write_page_bytes(&self, pid: PageId, bytes: &[u8; PAGE_SIZE]) -> Result<()> {
        if pid == 0 || pid >= self.num_pages() {
            return Err(StorageError::BadPageId(pid));
        }
        if !crate::failpoint("volume.write_page_bytes")? {
            return Ok(());
        }
        self.file.write_all_at(bytes, pid * PAGE_SIZE as u64)?;
        Ok(())
    }

    /// Allocates an extent of [`EXTENT_PAGES`] contiguous pages and returns
    /// the first page id. Reuses a freed extent when one exists.
    pub fn alloc_extent(&self) -> Result<PageId> {
        let _g = self.alloc_lock.lock();
        let head = self.free_head.load(Ordering::SeqCst);
        if head != NO_PAGE {
            // Pop the free list: the next pointer lives in the first 8
            // bytes of the extent's first page.
            let page = self.read_page(head)?;
            let next = u64::from_le_bytes(page.bytes()[0..8].try_into().unwrap());
            self.free_head.store(next, Ordering::SeqCst);
            self.write_header()?;
            // Return the pages zeroed.
            let blank = Page::new();
            for i in 0..EXTENT_PAGES {
                self.write_page(head + i, &blank)?;
            }
            return Ok(head);
        }
        // Grow the file by one extent.
        let first = self.num_pages.fetch_add(EXTENT_PAGES, Ordering::SeqCst);
        let new_len = (first + EXTENT_PAGES) * PAGE_SIZE as u64;
        self.file.set_len(new_len)?;
        self.write_header()?;
        Ok(first)
    }

    /// Returns an extent (identified by its first page) to the free list.
    pub fn free_extent(&self, first: PageId) -> Result<()> {
        let _g = self.alloc_lock.lock();
        let mut page = Page::new();
        let head = self.free_head.load(Ordering::SeqCst);
        page.bytes_mut()[0..8].copy_from_slice(&head.to_le_bytes());
        self.write_page(first, &page)?;
        self.free_head.store(first, Ordering::SeqCst);
        self.write_header()?;
        Ok(())
    }

    /// Forces all file contents to stable storage.
    pub fn sync(&self) -> Result<()> {
        if !crate::failpoint("volume.sync")? {
            return Ok(());
        }
        self.file.sync_data()?;
        Ok(())
    }
}

/// Doles out single pages from extents and remembers every extent it
/// allocated so the whole structure can be freed at once.
pub struct ExtentAllocator {
    vol: std::sync::Arc<Volume>,
    state: Mutex<AllocState>,
}

struct AllocState {
    extents: Vec<PageId>,
    /// Next unused page within the last extent (0..EXTENT_PAGES).
    used_in_last: u64,
}

impl ExtentAllocator {
    /// Creates an allocator on `vol` owning no extents yet.
    pub fn new(vol: std::sync::Arc<Volume>) -> Self {
        ExtentAllocator {
            vol,
            state: Mutex::new(AllocState { extents: Vec::new(), used_in_last: EXTENT_PAGES }),
        }
    }

    /// Rebuilds an allocator from a persisted extent list (for reopening
    /// files). `used_in_last` is conservatively set to "full", so reopened
    /// files allocate a fresh extent on the next insert.
    pub fn from_extents(vol: std::sync::Arc<Volume>, extents: Vec<PageId>) -> Self {
        ExtentAllocator {
            vol,
            state: Mutex::new(AllocState { extents, used_in_last: EXTENT_PAGES }),
        }
    }

    /// Allocates one page.
    pub fn alloc_page(&self) -> Result<PageId> {
        let mut st = self.state.lock();
        if st.used_in_last >= EXTENT_PAGES {
            let first = self.vol.alloc_extent()?;
            st.extents.push(first);
            st.used_in_last = 0;
        }
        let first = *st.extents.last().expect("just pushed");
        let pid = first + st.used_in_last;
        st.used_in_last += 1;
        Ok(pid)
    }

    /// The extents currently owned (for persistence).
    pub fn extents(&self) -> Vec<PageId> {
        self.state.lock().extents.clone()
    }

    /// The underlying volume.
    pub fn volume(&self) -> &std::sync::Arc<Volume> {
        &self.vol
    }

    /// Frees every owned extent back to the volume.
    pub fn free_all(&self) -> Result<()> {
        let mut st = self.state.lock();
        for &e in &st.extents {
            self.vol.free_extent(e)?;
        }
        st.extents.clear();
        st.used_in_last = EXTENT_PAGES;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "paradise-vol-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn create_write_read_roundtrip() {
        let path = tmpdir().join("v1.vol");
        let vol = Volume::create(&path).unwrap();
        let first = vol.alloc_extent().unwrap();
        let mut p = Page::new();
        p.insert(b"page data").unwrap();
        vol.write_page(first, &p).unwrap();
        let q = vol.read_page(first).unwrap();
        assert_eq!(q.get(0).unwrap(), b"page data");
    }

    #[test]
    fn header_page_protected() {
        let path = tmpdir().join("v2.vol");
        let vol = Volume::create(&path).unwrap();
        assert!(matches!(vol.read_page(0), Err(StorageError::BadPageId(0))));
        assert!(matches!(vol.write_page(0, &Page::new()), Err(StorageError::BadPageId(0))));
        assert!(matches!(vol.read_page(999), Err(StorageError::BadPageId(999))));
    }

    #[test]
    fn extents_are_contiguous_and_aligned() {
        let path = tmpdir().join("v3.vol");
        let vol = Volume::create(&path).unwrap();
        let a = vol.alloc_extent().unwrap();
        let b = vol.alloc_extent().unwrap();
        assert_eq!(b, a + EXTENT_PAGES);
        assert_eq!(vol.num_pages(), 1 + 2 * EXTENT_PAGES);
    }

    #[test]
    fn freed_extent_is_reused() {
        let path = tmpdir().join("v4.vol");
        let vol = Volume::create(&path).unwrap();
        let a = vol.alloc_extent().unwrap();
        let _b = vol.alloc_extent().unwrap();
        vol.free_extent(a).unwrap();
        let c = vol.alloc_extent().unwrap();
        assert_eq!(c, a, "freed extent should be recycled");
        // Recycled pages come back zeroed.
        let p = vol.read_page(c).unwrap();
        assert_eq!(p.num_slots(), 0);
    }

    #[test]
    fn reopen_preserves_allocation_state() {
        let path = tmpdir().join("v5.vol");
        let (a, freed) = {
            let vol = Volume::create(&path).unwrap();
            let a = vol.alloc_extent().unwrap();
            let b = vol.alloc_extent().unwrap();
            vol.free_extent(b).unwrap();
            let mut p = Page::new();
            p.insert(b"survives").unwrap();
            vol.write_page(a, &p).unwrap();
            vol.sync().unwrap();
            (a, b)
        };
        let vol = Volume::open(&path).unwrap();
        assert_eq!(vol.read_page(a).unwrap().get(0).unwrap(), b"survives");
        // The freed extent is still on the free list.
        assert_eq!(vol.alloc_extent().unwrap(), freed);
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmpdir().join("v6.vol");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        assert!(matches!(Volume::open(&path), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn extent_allocator_tracks_and_frees() {
        let path = tmpdir().join("v7.vol");
        let vol = Arc::new(Volume::create(&path).unwrap());
        let alloc = ExtentAllocator::new(vol.clone());
        let pages: Vec<_> = (0..20).map(|_| alloc.alloc_page().unwrap()).collect();
        // 20 pages => 3 extents
        assert_eq!(alloc.extents().len(), 3);
        // pages within an extent are consecutive
        assert_eq!(pages[1], pages[0] + 1);
        alloc.free_all().unwrap();
        assert!(alloc.extents().is_empty());
        // the freed extents are reusable
        let again = vol.alloc_extent().unwrap();
        assert!(pages.contains(&again));
    }
}
