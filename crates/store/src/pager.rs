//! Raw paged file: fixed-size pages addressed by [`PageId`].
//!
//! The pager is deliberately dumb — it reads and writes whole pages at
//! absolute offsets and hands out page ids in order. Caching, eviction,
//! and dirty tracking live one layer up in [`crate::cache`].

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Fixed page size. 8 KiB keeps a whole CSR run for most nodes on one or
/// two pages while staying small enough that a few-hundred-KiB cache
/// budget still holds tens of pages.
pub const PAGE_SIZE: usize = 8192;

/// Index of a page within the store file (byte offset = id × PAGE_SIZE).
pub type PageId = u64;

/// A page-granular file.
pub struct Pager {
    file: File,
    num_pages: u64,
}

impl Pager {
    /// Create (truncate) a fresh page file.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Pager { file, num_pages: 0 })
    }

    /// Allocate the next page id; the file grows when the page is written.
    pub fn alloc(&mut self) -> PageId {
        let id = self.num_pages;
        self.num_pages += 1;
        id
    }

    /// Read one whole page into `buf`. Pages that were allocated but never
    /// written read back as zeroes (short read past EOF is zero-filled), so
    /// a fresh column is all-zero without an explicit clear pass.
    pub fn read_page(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        let off = id * PAGE_SIZE as u64;
        let mut done = 0usize;
        while done < PAGE_SIZE {
            match self.file.read_at(&mut buf[done..], off + done as u64) {
                Ok(0) => break, // EOF: rest stays zero
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        buf[done..].fill(0);
        Ok(())
    }

    /// Write one whole page.
    pub fn write_page(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        self.file.write_all_at(buf, id * PAGE_SIZE as u64)
    }

    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("benchtemp-pager-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pages.bin")
    }

    #[test]
    fn roundtrip_and_zero_fill() {
        let path = tmp("rt");
        let mut p = Pager::create(&path).unwrap();
        let a = p.alloc();
        let b = p.alloc();
        assert_eq!((a, b), (0, 1));
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        p.write_page(b, &page).unwrap();
        let mut back = vec![0xFFu8; PAGE_SIZE];
        p.read_page(b, &mut back).unwrap();
        assert_eq!(back, page);
        // Page `a` was allocated but never written: reads as zeroes.
        p.read_page(a, &mut back).unwrap();
        assert!(back.iter().all(|&x| x == 0));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
