//! Thread-local work/contention profiler.
//!
//! The SLI paper attributes every cpu-second of a run to one of four kinds of
//! time: *useful work* inside a storage-manager component, *contention*
//! (spinning or blocking on a latch), *true lock waits* (logical conflicts on
//! database locks), and *I/O waits*. Figures 1, 6 and 10 are stacked
//! breakdowns of exactly these categories, with lock waits and I/O waits
//! excluded from the "contention" the paper talks about.
//!
//! The original work used Sun's `collect`/`analyzer` tools on Solaris. This
//! crate replaces them with in-process instrumentation: every thread keeps a
//! flat tally of nanoseconds per [`Category`], and scoped [`Guard`]s switch
//! the *current* category the way a sampling profiler would attribute stack
//! frames — time spent inside a nested scope is attributed to the innermost
//! category only.
//!
//! Scopes are compiled into every layer but only measure inside a
//! *window*: [`reset`] arms the calling thread, [`take_tally`] disarms it,
//! and outside a window [`enter`] is a single thread-local flag test. An
//! engine nobody is profiling pays nothing for being profilable.
//!
//! # Example
//!
//! ```
//! use sli_profiler::{enter, take_tally, reset, Category, Component};
//!
//! reset();
//! {
//!     let _g = enter(Category::Work(Component::LockManager));
//!     // ... latch acquisition inside the lock manager contends:
//!     {
//!         let _w = enter(Category::LatchWait(Component::LockManager));
//!         // spin/park time lands on LatchWait, not Work
//!     }
//! }
//! let tally = take_tally();
//! assert!(tally.get(Category::Work(Component::LockManager)) > 0);
//! ```

mod categories;
mod report;
mod tally;
mod timer;

pub use categories::{Category, Component, ALL_CATEGORIES, NUM_CATEGORIES, NUM_COMPONENTS};
pub use report::{BreakdownRow, Report};
pub use tally::Tally;
pub use timer::{enter, reset, snapshot_tally, take_tally, Guard};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin_for(d: Duration) {
        let start = std::time::Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_scopes_attribute_to_innermost() {
        reset();
        {
            let _outer = enter(Category::Work(Component::LockManager));
            spin_for(Duration::from_millis(5));
            {
                let _inner = enter(Category::LatchWait(Component::LockManager));
                spin_for(Duration::from_millis(5));
            }
            spin_for(Duration::from_millis(5));
        }
        let t = take_tally();
        let work = t.get(Category::Work(Component::LockManager));
        let wait = t.get(Category::LatchWait(Component::LockManager));
        // ~10ms work, ~5ms wait; allow generous slop for CI noise.
        assert!(work > 8_000_000, "work = {work}");
        assert!(wait > 4_000_000, "wait = {wait}");
        assert!(work > wait);
    }

    #[test]
    fn take_resets_the_tally() {
        reset();
        {
            let _g = enter(Category::IoWait);
            spin_for(Duration::from_millis(2));
        }
        let first = take_tally();
        assert!(first.get(Category::IoWait) > 0);
        let second = take_tally();
        assert_eq!(second.get(Category::IoWait), 0);
    }

    #[test]
    fn snapshot_does_not_reset() {
        reset();
        {
            let _g = enter(Category::LockWait);
            spin_for(Duration::from_millis(2));
        }
        let snap = snapshot_tally();
        assert!(snap.get(Category::LockWait) > 0);
        let taken = take_tally();
        assert!(taken.get(Category::LockWait) >= snap.get(Category::LockWait));
    }

    #[test]
    fn tallies_are_thread_local() {
        reset();
        let handle = std::thread::spawn(|| {
            reset();
            {
                let _g = enter(Category::Work(Component::LogManager));
                spin_for(Duration::from_millis(2));
            }
            take_tally()
        });
        let other = handle.join().unwrap();
        assert!(other.get(Category::Work(Component::LogManager)) > 0);
        let mine = take_tally();
        assert_eq!(mine.get(Category::Work(Component::LogManager)), 0);
    }
}
