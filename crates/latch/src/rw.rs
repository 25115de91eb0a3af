//! Reader-writer latch.

use parking_lot::lock_api::RawRwLock as RawRwLockApi;
use parking_lot::RawRwLock;
use sli_profiler::{Category, Component};

use crate::stats::LatchStats;

/// A reader-writer latch with the same contended-path accounting as
/// [`crate::Latch`]. Used where Shore-MT applies "less often, reader-writer
/// locking" for critical sections (Section 2) — e.g. index shards and the
/// buffer-pool residency table.
pub struct RwLatch {
    raw: RawRwLock,
    component: Component,
    stats: LatchStats,
}

impl RwLatch {
    /// Create a reader-writer latch charged to `component`.
    pub fn new(component: Component) -> Self {
        RwLatch {
            raw: RawRwLock::INIT,
            component,
            stats: LatchStats::new(),
        }
    }

    /// Acquire in shared mode.
    #[inline]
    pub fn read(&self) -> RwReadGuard<'_> {
        if self.raw.try_lock_shared() {
            self.stats.record_shared(false);
            return RwReadGuard {
                latch: self,
                contended: false,
            };
        }
        let profile;
        {
            let _wait = sli_profiler::enter(Category::LatchWait(self.component));
            profile = self.raw.lock_shared_profiled();
        }
        self.stats.record_shared(true);
        self.stats.record_wait(profile.spins, profile.parks);
        RwReadGuard {
            latch: self,
            contended: true,
        }
    }

    /// Acquire in exclusive mode.
    #[inline]
    pub fn write(&self) -> RwWriteGuard<'_> {
        if self.raw.try_lock_exclusive() {
            self.stats.record_exclusive(false);
            return RwWriteGuard {
                latch: self,
                contended: false,
            };
        }
        let profile;
        {
            let _wait = sli_profiler::enter(Category::LatchWait(self.component));
            profile = self.raw.lock_exclusive_profiled();
        }
        self.stats.record_exclusive(true);
        self.stats.record_wait(profile.spins, profile.parks);
        RwWriteGuard {
            latch: self,
            contended: true,
        }
    }

    /// Lifetime acquisition/contention counters.
    pub fn stats(&self) -> &LatchStats {
        &self.stats
    }
}

impl std::fmt::Debug for RwLatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLatch")
            .field("component", &self.component)
            .field("acquires", &self.stats.acquires())
            .finish()
    }
}

/// Shared-mode guard.
pub struct RwReadGuard<'a> {
    latch: &'a RwLatch,
    contended: bool,
}

impl RwReadGuard<'_> {
    /// Whether this acquisition had to wait.
    pub fn was_contended(&self) -> bool {
        self.contended
    }
}

impl Drop for RwReadGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: guard proves shared ownership.
        unsafe { self.latch.raw.unlock_shared() };
    }
}

/// Exclusive-mode guard.
pub struct RwWriteGuard<'a> {
    latch: &'a RwLatch,
    contended: bool,
}

impl RwWriteGuard<'_> {
    /// Whether this acquisition had to wait.
    pub fn was_contended(&self) -> bool {
        self.contended
    }
}

impl Drop for RwWriteGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: guard proves exclusive ownership.
        unsafe { self.latch.raw.unlock_exclusive() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn many_concurrent_readers() {
        let latch = Arc::new(RwLatch::new(Component::Storage));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let latch = Arc::clone(&latch);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let _g = latch.read();
                    n += 1;
                }
                n
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
    }

    #[test]
    fn write_guard_blocks_second_writer() {
        let latch = Arc::new(RwLatch::new(Component::Storage));
        let w = latch.write();
        let l2 = Arc::clone(&latch);
        let h = std::thread::spawn(move || {
            let w2 = l2.write();
            w2.was_contended()
        });
        std::thread::sleep(std::time::Duration::from_millis(15));
        drop(w);
        assert!(h.join().unwrap());
    }

    /// Readers bump the acquisition counter with an atomic add, writers
    /// with a plain store under the latch; racing both must lose nothing.
    #[test]
    fn mixed_readers_and_writers_count_every_acquire() {
        const THREADS: u64 = 4;
        const PER: u64 = 5_000;
        let latch = RwLatch::new(Component::Storage);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (latch, start) = (&latch, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER {
                        if (i + t) % 3 == 0 {
                            let _w = latch.write();
                        } else {
                            let _r = latch.read();
                        }
                    }
                });
            }
        });
        assert_eq!(latch.stats().acquires(), THREADS * PER);
        assert!(latch.stats().contended() <= latch.stats().acquires());
    }
}
