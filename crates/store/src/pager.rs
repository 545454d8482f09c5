//! Raw paged file: fixed-size pages addressed by [`PageId`], read whole.
//!
//! The pager is deliberately dumb — it opens the page file read-only and
//! reads whole pages at absolute offsets. The file is written once, by
//! [`crate::TemporalStore::write`], which lays the columns out one after
//! another, each padded to a page boundary; caching and eviction live one
//! layer up in [`crate::cache`].

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Fixed page size. 8 KiB keeps a whole CSR run for most nodes on one or
/// two pages while staying small enough that a few-hundred-KiB cache
/// budget still holds tens of pages.
pub const PAGE_SIZE: usize = 8192;

/// Index of a page within the store file (byte offset = id × PAGE_SIZE).
pub type PageId = u64;

/// A page-granular, read-only file.
pub struct Pager {
    file: File,
}

impl Pager {
    /// Open an existing page file for reading.
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(Pager {
            file: File::open(path)?,
        })
    }

    /// Read one whole page into `buf`. The writer pads every column to a
    /// page boundary, so a page that ends past the end of the file means
    /// the file was truncated: that is an `UnexpectedEof` error, not zeroes.
    pub fn read_page(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        self.file.read_exact_at(buf, id * PAGE_SIZE as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_whole_pages_and_rejects_a_truncated_one() {
        let dir = std::env::temp_dir().join(format!("benchtemp-pager-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        // Two full pages and half of a third.
        let mut bytes = vec![0u8; 2 * PAGE_SIZE + PAGE_SIZE / 2];
        bytes[PAGE_SIZE] = 0xAB;
        bytes[2 * PAGE_SIZE - 1] = 0xCD;
        std::fs::write(&path, &bytes).unwrap();
        let p = Pager::open(&path).unwrap();
        let mut page = vec![0xFFu8; PAGE_SIZE];
        p.read_page(1, &mut page).unwrap();
        assert_eq!(page, bytes[PAGE_SIZE..2 * PAGE_SIZE]);
        let err = p.read_page(2, &mut page).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_dir_all(&dir).ok();
    }
}
