//! Hot-lock detection.
//!
//! Section 4.2: "We detect a 'hot' lock by tracking what fraction of the
//! most recent several acquires encountered latch contention and enabling
//! SLI when the ratio crosses a tunable threshold." Each lock head embeds a
//! [`HotTracker`]: a 16-bit shift register of per-acquire contention bits,
//! updated with relaxed atomics so it adds no synchronization to the latch
//! path it is observing.

use std::sync::atomic::{AtomicU32, Ordering};

/// Sliding window of latch-contention outcomes for one lock head.
#[derive(Debug, Default)]
pub struct HotTracker {
    /// Low 16 bits: shift register (bit set = that acquire contended).
    /// Bits 16..21: number of acquires observed so far, saturating at the
    /// window size, so a brand-new lock isn't "hot" after one sample.
    state: AtomicU32,
}

/// Window size in acquisitions: the width of the shift register.
const WINDOW: u32 = 16;
const COUNT_SHIFT: u32 = 16;

impl HotTracker {
    /// New tracker with an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the contention outcome of one latch acquisition.
    #[inline]
    pub fn record(&self, contended: bool) {
        // A racy read-modify-write is acceptable: dropping one sample under
        // contention biases *toward* detecting heat, which is exactly when
        // samples race.
        // ordering: relaxed — the window is a lossy heuristic by design
        // (see above); no other memory is published through it.
        let cur = self.state.load(Ordering::Relaxed);
        let bits = (cur & 0xFFFF) << 1 | contended as u32;
        let count = ((cur >> COUNT_SHIFT) + 1).min(WINDOW);
        // ordering: relaxed lossy heuristic (see above).
        self.state
            .store((count << COUNT_SHIFT) | (bits & 0xFFFF), Ordering::Relaxed);
    }

    /// Fraction of the last 16 acquisitions that contended, in `[0, 1]`.
    /// Returns 0 until 16 samples accumulated.
    #[inline]
    pub fn ratio(&self) -> f64 {
        // ordering: relaxed read of the lossy heuristic window.
        let cur = self.state.load(Ordering::Relaxed);
        if cur >> COUNT_SHIFT < WINDOW {
            return 0.0;
        }
        (cur & 0xFFFF).count_ones() as f64 / WINDOW as f64
    }

    /// Whether at least `threshold` of the window contended (SLI's
    /// criterion 2).
    #[inline]
    pub fn is_hot(&self, threshold: f64) -> bool {
        self.ratio() >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_until_window_fills() {
        let t = HotTracker::new();
        for _ in 0..15 {
            t.record(true);
        }
        assert_eq!(t.ratio(), 0.0, "window not yet full");
        t.record(true);
        assert_eq!(t.ratio(), 1.0);
    }

    #[test]
    fn ratio_tracks_recent_mix() {
        let t = HotTracker::new();
        for _ in 0..16 {
            t.record(false);
        }
        assert_eq!(t.ratio(), 0.0);
        for _ in 0..8 {
            t.record(true);
        }
        assert!((t.ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn old_samples_age_out() {
        let t = HotTracker::new();
        for _ in 0..16 {
            t.record(true);
        }
        assert!(t.is_hot(0.5));
        // A long quiet spell cools the lock back down: "SLI has a short
        // memory" (Section 4.4).
        for _ in 0..16 {
            t.record(false);
        }
        assert!(!t.is_hot(0.1));
        assert_eq!(t.ratio(), 0.0);
    }

    #[test]
    fn threshold_boundary_is_inclusive() {
        let t = HotTracker::new();
        for i in 0..16 {
            t.record(i % 4 == 0); // 4/16 = 0.25
        }
        assert!(t.is_hot(0.25));
        assert!(!t.is_hot(0.26));
    }
}
