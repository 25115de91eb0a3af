//! Per-latch acquisition counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lifetime counters for a single latch: total acquisitions and how many of
/// them contended. The ratio is the raw signal behind the paper's "hot lock"
/// criterion ("tracking what fraction of the most recent several acquires
/// encountered latch contention", Section 4.2) — the lock manager keeps its
/// own *windowed* version per lock head; these totals are for diagnostics
/// and tests.
#[derive(Debug, Default)]
pub struct LatchStats {
    acquires: AtomicU64,
    contended: AtomicU64,
    /// Adaptive-spin iterations burned by contended acquisitions (busy
    /// CPU while waiting).
    spins: AtomicU64,
    /// Times a contended acquisition parked its thread (descheduled,
    /// woken by the releasing thread).
    parks: AtomicU64,
}

impl LatchStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one acquisition, and whether it contended, by a thread that
    /// now holds the latch **exclusively**: the latch makes it the only
    /// writer, so the bump is a plain load and store, not an atomic
    /// read-modify-write on a line every acquirer of the latch shares.
    #[inline]
    pub(crate) fn record_exclusive(&self, contended: bool) {
        // ordering: single writer at a time — every bump of these two
        // counters is made while holding the latch (shared holders use
        // `record_shared`, and can never overlap an exclusive one), whose
        // acquire/release orders successive writers. Readers tolerate
        // staleness and nothing is published through the counters.
        let a = self.acquires.load(Ordering::Relaxed);
        self.acquires.store(a + 1, Ordering::Relaxed); // ordering: see above.
        if contended {
            let c = self.contended.load(Ordering::Relaxed); // ordering: see above.
            self.contended.store(c + 1, Ordering::Relaxed); // ordering: see above.
        }
    }

    /// Record one acquisition, and whether it contended, by a thread that
    /// now holds the latch in **shared** mode: other shared holders bump
    /// concurrently, so this is an atomic add.
    #[inline]
    pub(crate) fn record_shared(&self, contended: bool) {
        // ordering: monotonic statistics counters; readers tolerate
        // staleness and nothing is published through them.
        self.acquires.fetch_add(1, Ordering::Relaxed);
        if contended {
            self.contended.fetch_add(1, Ordering::Relaxed); // ordering: see above.
        }
    }

    /// Record how a contended acquisition waited: spin iterations vs real
    /// parks. Distinguishes the two halves of the `LatchWait` profiler
    /// attribution (spinning burns the core; parking cedes it).
    #[inline]
    pub(crate) fn record_wait(&self, spins: u32, parks: u32) {
        // ordering: statistics counters (see `record_shared`); contended
        // acquisitions are rare enough to keep the atomic add.
        if spins > 0 {
            self.spins.fetch_add(u64::from(spins), Ordering::Relaxed); // ordering: see above.
        }
        if parks > 0 {
            self.parks.fetch_add(u64::from(parks), Ordering::Relaxed); // ordering: see above.
        }
    }

    /// Total acquisitions.
    pub fn acquires(&self) -> u64 {
        // ordering: advisory read of a statistics counter.
        self.acquires.load(Ordering::Relaxed)
    }

    /// Acquisitions that hit the contended path.
    pub fn contended(&self) -> u64 {
        // ordering: advisory read of a statistics counter.
        self.contended.load(Ordering::Relaxed)
    }

    /// Spin iterations burned by contended acquisitions.
    pub fn spins(&self) -> u64 {
        // ordering: advisory read of a statistics counter.
        self.spins.load(Ordering::Relaxed)
    }

    /// Thread parks performed by contended acquisitions.
    pub fn parks(&self) -> u64 {
        // ordering: advisory read of a statistics counter.
        self.parks.load(Ordering::Relaxed)
    }

    /// Lifetime contention ratio in `[0, 1]`; 0 when never acquired.
    pub fn contention_ratio(&self) -> f64 {
        let a = self.acquires();
        if a == 0 {
            0.0
        } else {
            self.contended() as f64 / a as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_acquires() {
        let s = LatchStats::new();
        assert_eq!(s.contention_ratio(), 0.0);
    }

    #[test]
    fn ratio_reflects_recorded_mix() {
        let s = LatchStats::new();
        s.record_exclusive(false);
        s.record_exclusive(true);
        s.record_shared(true);
        s.record_shared(false);
        assert_eq!(s.acquires(), 4);
        assert_eq!(s.contended(), 2);
        assert!((s.contention_ratio() - 0.5).abs() < 1e-12);
    }
}
