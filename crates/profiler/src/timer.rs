//! Scoped category timers.
//!
//! Each thread tracks a single *current* category plus a stack of suspended
//! outer categories. [`enter`] attributes the time elapsed since the previous
//! switch to the previous category and makes the new category current; when
//! the returned [`Guard`] drops, the elapsed slice is attributed to the inner
//! category and the outer one resumes. Outside any scope, time is simply not
//! attributed (the harness brackets measurement windows with [`reset`] /
//! [`take_tally`] and computes unaccounted time as `wall * threads - total`).
//!
//! Scopes only measure inside such a window. [`reset`] arms the calling
//! thread and [`take_tally`] disarms it; on a disarmed thread [`enter`] is
//! one thread-local flag test — no clock read, no borrow, no stack push —
//! so code that nobody is profiling does not pay for its scopes.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::categories::Category;
use crate::tally::Tally;

struct ThreadProf {
    tally: Tally,
    /// Current category; `None` when outside any profiled scope.
    current: Option<Category>,
    /// Instant of the last category switch.
    last: Instant,
    /// Suspended outer categories.
    stack: Vec<Option<Category>>,
    /// Id of the open window; every [`reset`] and [`take_tally`] moves it
    /// on, so a guard from an earlier window can tell it is stale. Never 0.
    window: u32,
}

impl ThreadProf {
    fn new() -> Self {
        ThreadProf {
            tally: Tally::new(),
            current: None,
            last: Instant::now(),
            stack: Vec::with_capacity(16),
            window: 1,
        }
    }

    /// Close the current window: open scopes are forgotten (their guards
    /// become stale) and the clock restarts.
    fn next_window(&mut self, now: Instant) {
        self.window = self.window.checked_add(1).unwrap_or(1);
        self.current = None;
        self.stack.clear();
        self.last = now;
    }

    #[inline]
    fn charge_elapsed(&mut self, now: Instant) {
        if let Some(cat) = self.current {
            let dt = now.duration_since(self.last).as_nanos() as u64;
            self.tally.add(cat, dt);
        }
        self.last = now;
    }
}

thread_local! {
    /// Whether this thread is inside a `reset()` .. `take_tally()` window.
    /// Const-initialised and `Drop`-free, so the test in [`enter`] is a
    /// plain thread-local load with no lazy-init branch.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PROF: RefCell<ThreadProf> = RefCell::new(ThreadProf::new());
}

/// RAII scope: restores the enclosing category (and charges the inner one)
/// on drop.
#[must_use = "dropping the guard immediately ends the profiled scope"]
pub struct Guard {
    /// The window this scope was pushed in; 0 for a scope entered on a
    /// disarmed thread, which pushed nothing and so must pop nothing.
    window: u32,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Begin attributing time to `cat` until the returned guard drops. Free
/// (and unmeasured) on a thread that is not inside a [`reset`] ..
/// [`take_tally`] window.
#[inline]
pub fn enter(cat: Category) -> Guard {
    let window = if ARMED.with(Cell::get) {
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            let now = Instant::now();
            p.charge_elapsed(now);
            let prev = p.current;
            p.stack.push(prev);
            p.current = Some(cat);
            p.window
        })
    } else {
        0
    };
    Guard {
        window,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if self.window == 0 {
            return;
        }
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            // A window edge since `enter` already forgot this scope:
            // popping would unbalance the new window's stack, and the
            // slice up to now was only half measured.
            if p.window == self.window {
                let now = Instant::now();
                p.charge_elapsed(now);
                p.current = p.stack.pop().unwrap_or(None);
            }
        });
    }
}

/// Open a measurement window on this thread: zero its tally, restart the
/// clock and arm [`enter`]. Scopes already open are not part of the window.
pub fn reset() {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.tally = Tally::new();
        p.next_window(Instant::now());
    });
    ARMED.with(|a| a.set(true));
}

/// Close this thread's measurement window: return its tally (including
/// time charged so far to the current open scope), reset it and disarm
/// [`enter`] until the next [`reset`].
pub fn take_tally() -> Tally {
    ARMED.with(|a| a.set(false));
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        let now = Instant::now();
        p.charge_elapsed(now);
        p.next_window(now);
        std::mem::take(&mut p.tally)
    })
}

/// Copy this thread's tally without resetting it.
pub fn snapshot_tally() -> Tally {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        let now = Instant::now();
        p.charge_elapsed(now);
        p.tally.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categories::Component;

    #[test]
    fn unscoped_time_is_not_attributed() {
        reset();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t = take_tally();
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn deep_nesting_restores_correctly() {
        reset();
        let g1 = enter(Category::Work(Component::Application));
        let g2 = enter(Category::Work(Component::LockManager));
        let g3 = enter(Category::LatchWait(Component::LockManager));
        drop(g3);
        drop(g2);
        drop(g1);
        // After all guards drop, further time is unattributed.
        std::thread::sleep(std::time::Duration::from_millis(1));
        let t = take_tally();
        let attributed = t.total();
        // All three categories appear (may be tiny but nonzero is not
        // guaranteed at ns resolution for empty scopes, so just check sanity).
        assert!(attributed < 1_000_000, "attributed = {attributed}");
    }

    fn spin_for(d: std::time::Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    const MS: std::time::Duration = std::time::Duration::from_millis(1);

    #[test]
    fn scopes_outside_a_window_are_inert() {
        // A fresh thread has never armed; a thread that closed its window
        // is disarmed again.
        for closed_a_window in [false, true] {
            let total = std::thread::spawn(move || {
                if closed_a_window {
                    reset();
                    let _ = take_tally();
                }
                let _outer = enter(Category::Work(Component::Application));
                let _inner = enter(Category::LatchWait(Component::LockManager));
                spin_for(MS);
                snapshot_tally().total()
            })
            .join()
            .unwrap();
            assert_eq!(total, 0, "closed_a_window = {closed_a_window}");
        }
    }

    #[test]
    fn guard_entered_before_reset_neither_charges_nor_pops() {
        let _ = take_tally();
        let early = enter(Category::IoWait);
        reset();
        let outer = enter(Category::Work(Component::Application));
        spin_for(MS);
        // Dropping the inert guard here must leave `outer` current.
        drop(early);
        spin_for(MS);
        drop(outer);
        let t = take_tally();
        assert_eq!(t.get(Category::IoWait), 0);
        let app = t.get(Category::Work(Component::Application));
        assert!(app >= 2_000_000, "app = {app}");
        assert_eq!(t.total(), app);
    }

    #[test]
    fn guard_open_across_take_tally_is_forgotten() {
        reset();
        let stale = enter(Category::LockWait);
        spin_for(MS);
        // The open scope is charged up to the window's end...
        let first = take_tally();
        assert!(first.get(Category::LockWait) >= 1_000_000);
        // ...and not at all in the next window, whose stack it must not pop.
        reset();
        let outer = enter(Category::Work(Component::Storage));
        let inner = enter(Category::Work(Component::LogManager));
        drop(stale);
        spin_for(MS);
        drop(inner);
        spin_for(MS);
        drop(outer);
        let second = take_tally();
        assert_eq!(second.get(Category::LockWait), 0);
        assert!(second.get(Category::Work(Component::LogManager)) >= 1_000_000);
        assert!(second.get(Category::Work(Component::Storage)) >= 1_000_000);
        // A live guard dropped on a disarmed thread, its frame long gone.
        reset();
        let late = enter(Category::IoWait);
        let _ = take_tally();
        drop(late);
        assert_eq!(snapshot_tally().total(), 0);
    }

    #[test]
    fn guard_drop_order_mismatch_is_tolerated() {
        // Dropping guards out of order is a programming error but must not
        // panic or corrupt the stack beyond the current scopes.
        reset();
        let g1 = enter(Category::Work(Component::Application));
        let g2 = enter(Category::Work(Component::Storage));
        drop(g1);
        drop(g2);
        let _ = take_tally();
    }
}
