//! CLOCK-style page cache with a byte budget over a [`crate::pager::Pager`].
//!
//! The cache is read-only: the page file is written whole before the
//! cache opens it. Every page touch goes through
//! [`CachedPager::with_page`]: a hit flips the frame's reference bit, a
//! miss faults the page in (evicting via second-chance CLOCK once the
//! budget's frame count is reached; a victim is dropped, never written
//! back). The cache is the *only* RAM the big columns occupy, so the byte
//! budget is the store's bounded-memory contract; hits/misses/evictions
//! tick the `store.*` obs counters and the resident-bytes gauge so
//! training runs can prove the bound from their profile.
//!
//! Thread safety: one `Mutex` around the whole frame table. The paged
//! sampler's pool tasks share a `&CachedPager` and take the lock per page
//! touch — coarse, but correctness-first, and the resident path is still
//! available when the dataset fits in RAM.

use std::collections::HashMap;
use std::io;
use std::sync::{Mutex, OnceLock};

use benchtemp_obs::counters::{
    STORE_CACHE_RESIDENT_BYTES, STORE_PAGE_EVICTIONS, STORE_PAGE_HITS, STORE_PAGE_MISSES,
};
use benchtemp_util::env::{self, Knob};

use crate::pager::{PageId, Pager, PAGE_SIZE};

/// Default cache budget when `BENCHTEMP_PAGE_CACHE_MB` is unset.
const DEFAULT_BUDGET_MB: usize = 64;

/// Floor on the frame count so degenerate budgets still make progress.
const MIN_FRAMES: usize = 4;

/// Process-wide default page-cache budget in bytes, from
/// `BENCHTEMP_PAGE_CACHE_MB`. Read exactly once per process (the env
/// registry's read-once rule); per-store overrides go through
/// [`CachedPager::open`]'s explicit budget argument instead of the
/// environment.
pub fn default_cache_budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        env::var(Knob::PageCacheMb)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_BUDGET_MB)
            .saturating_mul(1 << 20)
    })
}

struct Frame {
    page: PageId,
    data: Box<[u8]>,
    referenced: bool,
}

struct Inner {
    pager: Pager,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    hand: usize,
    max_frames: usize,
}

impl Inner {
    /// Locate (or fault in) `page`, returning its frame index.
    fn frame_for(&mut self, page: PageId) -> io::Result<usize> {
        if let Some(&fi) = self.map.get(&page) {
            STORE_PAGE_HITS.incr();
            self.frames[fi].referenced = true;
            return Ok(fi);
        }
        STORE_PAGE_MISSES.incr();
        let fi = if self.frames.len() < self.max_frames {
            let fi = self.frames.len();
            self.frames.push(Frame {
                page,
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                referenced: false,
            });
            STORE_CACHE_RESIDENT_BYTES.sample((self.frames.len() * PAGE_SIZE) as u64);
            fi
        } else {
            let fi = self.evict_one();
            self.frames[fi].page = page;
            self.frames[fi].referenced = false;
            fi
        };
        // Fault the page in before publishing the mapping.
        let frame = &mut self.frames[fi];
        self.pager.read_page(page, &mut frame.data)?;
        self.map.insert(page, fi);
        Ok(fi)
    }

    /// Second-chance CLOCK sweep: clear reference bits until a victim with
    /// `referenced == false` comes under the hand, and unmap it.
    /// Terminates within two sweeps by construction.
    fn evict_one(&mut self) -> usize {
        loop {
            let fi = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[fi].referenced {
                self.frames[fi].referenced = false;
                continue;
            }
            self.map.remove(&self.frames[fi].page);
            STORE_PAGE_EVICTIONS.incr();
            return fi;
        }
    }
}

/// A [`Pager`] fronted by the CLOCK cache. All page access goes through
/// the closure APIs so borrowed page bytes can never outlive the lock.
pub struct CachedPager {
    inner: Mutex<Inner>,
}

impl CachedPager {
    fn budget_frames(budget_bytes: Option<usize>) -> usize {
        let bytes = budget_bytes.unwrap_or_else(default_cache_budget);
        (bytes / PAGE_SIZE).max(MIN_FRAMES)
    }

    /// Open a written page file behind an empty cache with the given byte
    /// budget (`None` means the process-wide `BENCHTEMP_PAGE_CACHE_MB`
    /// default).
    pub fn open(path: &std::path::Path, budget_bytes: Option<usize>) -> io::Result<Self> {
        Ok(CachedPager {
            inner: Mutex::new(Inner {
                pager: Pager::open(path)?,
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
                max_frames: Self::budget_frames(budget_bytes),
            }),
        })
    }

    /// Read access to one page. The closure must not re-enter the cache.
    pub fn with_page<R>(&self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> io::Result<R> {
        let mut inner = self.inner.lock().expect("page cache poisoned");
        let fi = inner.frame_for(page)?;
        Ok(f(&inner.frames[fi].data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("benchtemp-cache-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pages.bin")
    }

    #[test]
    fn tiny_budget_evicts_and_preserves_data() {
        let path = tmp("evict");
        let num_pages = MIN_FRAMES * 3;
        // Page i holds the byte i throughout.
        let bytes: Vec<u8> = (0..num_pages).flat_map(|i| [i as u8; PAGE_SIZE]).collect();
        std::fs::write(&path, &bytes).unwrap();
        let cp = CachedPager::open(&path, Some(1)).unwrap(); // floor: MIN_FRAMES
        assert_eq!(cp.inner.lock().unwrap().max_frames, MIN_FRAMES);
        let before = STORE_PAGE_EVICTIONS.get();
        for pass in 0..2 {
            for i in 0..num_pages {
                let own = cp
                    .with_page(i as PageId, |buf| buf.iter().all(|&b| b == i as u8))
                    .unwrap();
                assert!(own, "pass {pass}: page {i} read another page's bytes");
            }
        }
        // Reading 3× the frame budget must have evicted, and stayed inside
        // the budget.
        assert!(STORE_PAGE_EVICTIONS.get() > before);
        assert!(cp.inner.lock().unwrap().frames.len() <= MIN_FRAMES);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
