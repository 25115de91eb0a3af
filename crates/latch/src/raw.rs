//! Mutual-exclusion latch with a contention fast path.

use parking_lot::lock_api::RawMutex as RawMutexApi;
use parking_lot::RawMutex;
use sli_profiler::{Category, Component};

use crate::stats::LatchStats;

/// A short-term mutual-exclusion latch.
///
/// The fast path is a single `try_lock`; if it fails the acquisition is
/// *contended*: the waiter charges its wait time to
/// `Category::LatchWait(component)` and then falls back to parking_lot's
/// adaptive spin-then-park `lock`, which models the spin/block mix the paper
/// describes for Shore-MT latches.
pub struct Latch {
    raw: RawMutex,
    component: Component,
    stats: LatchStats,
}

impl Latch {
    /// Create a latch whose contended waits are attributed to `component`.
    pub fn new(component: Component) -> Self {
        Latch {
            raw: RawMutex::INIT,
            component,
            stats: LatchStats::new(),
        }
    }

    /// Acquire the latch, spinning/parking if necessary.
    #[inline]
    pub fn acquire(&self) -> LatchGuard<'_> {
        if self.raw.try_lock() {
            self.stats.record_exclusive(false);
            return LatchGuard {
                latch: self,
                contended: false,
            };
        }
        // Contended slow path: adaptive spin, then queued parking. The
        // whole wait is charged to `LatchWait(component)`; the spin/park
        // split is recorded separately so reports can tell busy-waiting
        // from descheduled waiting. Counted once the latch is held, like
        // every other bump of the acquisition counters.
        let profile;
        {
            let _wait = sli_profiler::enter(Category::LatchWait(self.component));
            profile = self.raw.lock_profiled();
        }
        self.stats.record_exclusive(true);
        self.stats.record_wait(profile.spins, profile.parks);
        LatchGuard {
            latch: self,
            contended: true,
        }
    }

    /// Try to acquire without waiting.
    #[inline]
    pub fn try_acquire(&self) -> Option<LatchGuard<'_>> {
        if self.raw.try_lock() {
            self.stats.record_exclusive(false);
            Some(LatchGuard {
                latch: self,
                contended: false,
            })
        } else {
            None
        }
    }

    /// Lifetime acquisition/contention counters for this latch.
    pub fn stats(&self) -> &LatchStats {
        &self.stats
    }

    /// The component charged for contended waits.
    pub fn component(&self) -> Component {
        self.component
    }
}

impl std::fmt::Debug for Latch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Latch")
            .field("component", &self.component)
            .field("acquires", &self.stats.acquires())
            .field("contended", &self.stats.contended())
            .finish()
    }
}

/// RAII guard; releases the latch on drop.
pub struct LatchGuard<'a> {
    latch: &'a Latch,
    contended: bool,
}

impl LatchGuard<'_> {
    /// Whether this acquisition had to wait. Feeds SLI's per-lock hot
    /// tracker.
    #[inline]
    pub fn was_contended(&self) -> bool {
        self.contended
    }
}

impl Drop for LatchGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: the guard's existence proves this thread holds the latch.
        unsafe { self.latch.raw.unlock() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn guard_releases_on_drop() {
        let latch = Latch::new(Component::Other);
        {
            let _g = latch.acquire();
        }
        let _g2 = latch.acquire();
    }

    #[test]
    fn stats_count_every_acquire() {
        let latch = Latch::new(Component::Other);
        for _ in 0..5 {
            let _g = latch.acquire();
        }
        let _ = latch.try_acquire();
        assert_eq!(latch.stats().acquires(), 6);
    }

    /// The counters are bumped with a plain load + store under the latch;
    /// racing acquirers (contended and not) must lose nothing.
    #[test]
    fn racing_acquirers_count_every_acquire() {
        const THREADS: u64 = 4;
        const PER: u64 = 5_000;
        let latch = Latch::new(Component::Other);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for i in 0..PER {
                        let tried = if i % 2 == 0 {
                            None
                        } else {
                            latch.try_acquire()
                        };
                        let _g = tried.unwrap_or_else(|| latch.acquire());
                    }
                });
            }
        });
        assert_eq!(latch.stats().acquires(), THREADS * PER);
        assert!(latch.stats().contended() <= latch.stats().acquires());
    }

    #[test]
    fn contended_wait_charges_profiler() {
        sli_profiler::reset();
        let latch = Arc::new(Latch::new(Component::LockManager));
        let g = latch.acquire();
        let l2 = Arc::clone(&latch);
        let h = std::thread::spawn(move || {
            sli_profiler::reset();
            let _g = l2.acquire();
            sli_profiler::take_tally()
        });
        std::thread::sleep(std::time::Duration::from_millis(15));
        drop(g);
        let tally = h.join().unwrap();
        let waited = tally.get(Category::LatchWait(Component::LockManager));
        assert!(waited > 5_000_000, "waited = {waited}ns");
    }
}
