//! Buffer-pool accounting.
//!
//! Data always lives in memory, as in the paper's tmpfs-backed database and
//! the main-memory regime every measured configuration runs: every page is
//! resident, so a row access is always a hit. The pool is where that access
//! is counted and where its time lands in the profiler's buffer-pool
//! component (the Figure 6/10 breakdowns).

use std::sync::atomic::{AtomicU64, Ordering};

use sli_profiler::Category;
use sli_profiler::Component;

/// Monotonic hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Accesses that found the frame resident: every row access.
    pub hits: u64,
    /// Accesses that paid an I/O penalty. Always 0: every page is resident.
    pub misses: u64,
    /// Frames evicted. Always 0: nothing is ever evicted.
    pub evictions: u64,
}

/// Row-access counter of an all-resident buffer pool. Every row access on
/// every thread bumps it, so it fills a cache line of its own rather than
/// share one with the read-mostly data of whatever embeds it.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct BufferPool {
    hits: AtomicU64,
}

impl BufferPool {
    /// Create a pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account one row access (always a hit).
    #[inline]
    pub fn access(&self) {
        let _work = sli_profiler::enter(Category::Work(Component::BufferPool));
        // ordering: monotonic statistics counter; nothing is published
        // through it.
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            // ordering: relaxed load of the statistics counter.
            hits: self.hits.load(Ordering::Relaxed),
            ..BufferPoolStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_in_memory_never_misses() {
        let p = BufferPool::new();
        for _ in 0..1000 {
            p.access();
        }
        let s = p.stats();
        assert_eq!(s.misses, 0);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.hits, 1000);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let p = std::sync::Arc::new(BufferPool::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = std::sync::Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    p.access();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = p.stats();
        assert_eq!(s.hits + s.misses, 8000);
        assert_eq!(s.misses, 0);
    }
}
