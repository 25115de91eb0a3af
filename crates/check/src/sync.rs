//! Shimmed synchronisation primitives.
//!
//! Outside a model every type here is a zero-surprise passthrough to its
//! `std::sync` twin (the caller's memory orderings are honoured verbatim).
//! Inside a model every operation becomes a schedule point: the scheduler
//! decides who runs before the op executes, the op runs under sequential
//! consistency, and its effect is folded into the state hash.

use crate::sched::{self, Ctx};
use std::sync::TryLockError;

pub use std::sync::atomic::Ordering;

macro_rules! shim_atomic {
    ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            pub const fn new(v: $prim) -> Self {
                Self { inner: <$std>::new(v) }
            }

            /// Exclusive access needs no schedule point: no other thread
            /// can observe the value while `&mut self` is held.
            #[inline]
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            #[inline]
            fn addr(&self) -> usize {
                self as *const Self as usize
            }

            #[inline]
            pub fn load(&self, order: Ordering) -> $prim {
                match sched::ctx() {
                    None => self.inner.load(order),
                    Some(cx) => {
                        cx.yield_point();
                        let v = self.inner.load(Ordering::SeqCst);
                        cx.record(sched::OP_LOAD, self.addr(), v as u64);
                        v
                    }
                }
            }

            #[inline]
            pub fn store(&self, val: $prim, order: Ordering) {
                match sched::ctx() {
                    None => self.inner.store(val, order),
                    Some(cx) => {
                        cx.yield_point();
                        self.inner.store(val, Ordering::SeqCst);
                        cx.record(sched::OP_STORE, self.addr(), val as u64);
                    }
                }
            }

            #[inline]
            pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                match sched::ctx() {
                    None => self.inner.swap(val, order),
                    Some(cx) => {
                        cx.yield_point();
                        let prev = self.inner.swap(val, Ordering::SeqCst);
                        cx.record(sched::OP_RMW, self.addr(), val as u64);
                        prev
                    }
                }
            }

            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match sched::ctx() {
                    None => self.inner.compare_exchange(current, new, success, failure),
                    Some(cx) => {
                        cx.yield_point();
                        let r = self.inner.compare_exchange(
                            current,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        match &r {
                            Ok(_) => cx.record(sched::OP_CAS_OK, self.addr(), new as u64),
                            Err(v) => cx.record(sched::OP_CAS_FAIL, self.addr(), *v as u64),
                        }
                        r
                    }
                }
            }

            /// Under the model a weak CAS never fails spuriously (it is the
            /// strong CAS). Spurious failures only ever send callers round
            /// their retry loop once more, which the schedule exploration
            /// of the strong CAS already subsumes at the SC level.
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match sched::ctx() {
                    None => self.inner.compare_exchange_weak(current, new, success, failure),
                    Some(_) => self.compare_exchange(current, new, success, failure),
                }
            }

            /// Modelled as a single atomic step: failed internal CAS
            /// attempts have no side effects, so collapsing the retry loop
            /// does not hide any reachable outcome.
            #[inline]
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                mut f: F,
            ) -> Result<$prim, $prim>
            where
                F: FnMut($prim) -> Option<$prim>,
            {
                match sched::ctx() {
                    None => self.inner.fetch_update(set_order, fetch_order, f),
                    Some(cx) => {
                        cx.yield_point();
                        let r = self.inner.fetch_update(
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                            &mut f,
                        );
                        match &r {
                            Ok(prev) => {
                                let new = f(*prev).unwrap_or(*prev);
                                cx.record(sched::OP_CAS_OK, self.addr(), new as u64);
                            }
                            Err(v) => cx.record(sched::OP_CAS_FAIL, self.addr(), *v as u64),
                        }
                        r
                    }
                }
            }
        }

        shim_atomic!(@arith $name, $prim);
    };

    (@arith AtomicBool, $prim:ty) => {
        impl AtomicBool {
            #[inline]
            pub fn fetch_or(&self, val: bool, order: Ordering) -> bool {
                match sched::ctx() {
                    None => self.inner.fetch_or(val, order),
                    Some(cx) => {
                        cx.yield_point();
                        let prev = self.inner.fetch_or(val, Ordering::SeqCst);
                        cx.record(sched::OP_RMW, self.addr(), (prev | val) as u64);
                        prev
                    }
                }
            }

            #[inline]
            pub fn fetch_and(&self, val: bool, order: Ordering) -> bool {
                match sched::ctx() {
                    None => self.inner.fetch_and(val, order),
                    Some(cx) => {
                        cx.yield_point();
                        let prev = self.inner.fetch_and(val, Ordering::SeqCst);
                        cx.record(sched::OP_RMW, self.addr(), (prev & val) as u64);
                        prev
                    }
                }
            }
        }
    };

    (@arith $name:ident, $prim:ty) => {
        impl $name {
            #[inline]
            pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                match sched::ctx() {
                    None => self.inner.fetch_add(val, order),
                    Some(cx) => {
                        cx.yield_point();
                        let prev = self.inner.fetch_add(val, Ordering::SeqCst);
                        cx.record(sched::OP_RMW, self.addr(), prev.wrapping_add(val) as u64);
                        prev
                    }
                }
            }

            #[inline]
            pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                match sched::ctx() {
                    None => self.inner.fetch_sub(val, order),
                    Some(cx) => {
                        cx.yield_point();
                        let prev = self.inner.fetch_sub(val, Ordering::SeqCst);
                        cx.record(sched::OP_RMW, self.addr(), prev.wrapping_sub(val) as u64);
                        prev
                    }
                }
            }

            #[inline]
            pub fn fetch_or(&self, val: $prim, order: Ordering) -> $prim {
                match sched::ctx() {
                    None => self.inner.fetch_or(val, order),
                    Some(cx) => {
                        cx.yield_point();
                        let prev = self.inner.fetch_or(val, Ordering::SeqCst);
                        cx.record(sched::OP_RMW, self.addr(), (prev | val) as u64);
                        prev
                    }
                }
            }

            #[inline]
            pub fn fetch_and(&self, val: $prim, order: Ordering) -> $prim {
                match sched::ctx() {
                    None => self.inner.fetch_and(val, order),
                    Some(cx) => {
                        cx.yield_point();
                        let prev = self.inner.fetch_and(val, Ordering::SeqCst);
                        cx.record(sched::OP_RMW, self.addr(), (prev & val) as u64);
                        prev
                    }
                }
            }
        }
    };
}

shim_atomic!(
    /// Model-aware drop-in for [`std::sync::atomic::AtomicU64`].
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);
shim_atomic!(
    /// Model-aware drop-in for [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);
shim_atomic!(
    /// Model-aware drop-in for [`std::sync::atomic::AtomicU32`].
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32
);
shim_atomic!(
    /// Model-aware drop-in for [`std::sync::atomic::AtomicU8`].
    AtomicU8,
    std::sync::atomic::AtomicU8,
    u8
);
shim_atomic!(
    /// Model-aware drop-in for [`std::sync::atomic::AtomicBool`].
    AtomicBool,
    std::sync::atomic::AtomicBool,
    bool
);

// ---------------------------------------------------------------------------
// Mutex.

/// Model-aware mutex. Outside a model it is a non-poisoning wrapper over
/// [`std::sync::Mutex`]; inside a model a failed acquisition blocks the
/// *virtual* thread (the scheduler explores who runs instead) rather than
/// the OS thread.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(t: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(t),
        }
    }

    #[inline]
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        match sched::ctx() {
            None => MutexGuard {
                lock: self,
                real: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
                cx: None,
            },
            Some(cx) => {
                if std::thread::panicking() {
                    // Failure teardown: scheduling is over, fall back to a
                    // real blocking lock so cleanup in Drop impls works.
                    return MutexGuard {
                        lock: self,
                        real: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
                        cx: None,
                    };
                }
                cx.yield_point();
                loop {
                    match self.inner.try_lock() {
                        Ok(g) => {
                            cx.record(sched::OP_MUTEX_LOCK, self.addr(), 1);
                            return MutexGuard {
                                lock: self,
                                real: Some(g),
                                cx: Some(cx),
                            };
                        }
                        Err(TryLockError::Poisoned(e)) => {
                            cx.record(sched::OP_MUTEX_LOCK, self.addr(), 1);
                            return MutexGuard {
                                lock: self,
                                real: Some(e.into_inner()),
                                cx: Some(cx),
                            };
                        }
                        Err(TryLockError::WouldBlock) => cx.block_mutex(self.addr()),
                    }
                }
            }
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match sched::ctx() {
            None => match self.inner.try_lock() {
                Ok(g) => Some(MutexGuard {
                    lock: self,
                    real: Some(g),
                    cx: None,
                }),
                Err(TryLockError::Poisoned(e)) => Some(MutexGuard {
                    lock: self,
                    real: Some(e.into_inner()),
                    cx: None,
                }),
                Err(TryLockError::WouldBlock) => None,
            },
            Some(cx) => {
                cx.yield_point();
                match self.inner.try_lock() {
                    Ok(g) => {
                        cx.record(sched::OP_MUTEX_LOCK, self.addr(), 1);
                        Some(MutexGuard {
                            lock: self,
                            real: Some(g),
                            cx: Some(cx),
                        })
                    }
                    Err(TryLockError::Poisoned(e)) => {
                        cx.record(sched::OP_MUTEX_LOCK, self.addr(), 1);
                        Some(MutexGuard {
                            lock: self,
                            real: Some(e.into_inner()),
                            cx: Some(cx),
                        })
                    }
                    Err(TryLockError::WouldBlock) => {
                        cx.record(sched::OP_MUTEX_LOCK, self.addr(), 2);
                        None
                    }
                }
            }
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    real: Option<std::sync::MutexGuard<'a, T>>,
    cx: Option<Ctx>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard still held")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard still held")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(cx) = self.cx.take() {
            // The release is a visible op — but never reschedule while
            // unwinding (teardown must not block, and resume_unwind inside
            // a Drop during unwind would abort the process).
            if !std::thread::panicking() {
                cx.yield_point();
            }
            self.real = None;
            cx.record(sched::OP_MUTEX_UNLOCK, self.lock.addr(), 0);
            cx.ready_mutex_waiters(self.lock.addr());
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar.

/// Model-aware condition variable (no `wait_timeout`; models must pair it
/// with a shim [`Mutex`]).
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    #[inline]
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match guard.cx.take() {
            None => {
                let real = guard.real.take().expect("guard still held");
                let lock = guard.lock;
                std::mem::forget(guard);
                let real = self.inner.wait(real).unwrap_or_else(|e| e.into_inner());
                MutexGuard {
                    lock,
                    real: Some(real),
                    cx: None,
                }
            }
            Some(cx) => {
                let lock = guard.lock;
                let mutex_addr = lock.addr();
                cx.yield_point();
                cx.record(sched::OP_CV_WAIT, self.addr(), 0);
                // Atomically: drop the real mutex, wake its waiters, and
                // block on this condvar — all under the scheduler lock so
                // no notify can slip between the release and the block.
                let real = guard.real.take();
                std::mem::forget(guard);
                cx.condvar_wait(self.addr(), mutex_addr, move || drop(real));
                // Notified and selected: reacquire.
                lock.lock()
            }
        }
    }

    pub fn notify_one(&self) {
        match sched::ctx() {
            None => self.inner.notify_one(),
            Some(cx) => {
                cx.yield_point();
                cx.record(sched::OP_CV_NOTIFY, self.addr(), 1);
                cx.condvar_notify(self.addr(), false);
            }
        }
    }

    pub fn notify_all(&self) {
        match sched::ctx() {
            None => self.inner.notify_all(),
            Some(cx) => {
                cx.yield_point();
                cx.record(sched::OP_CV_NOTIFY, self.addr(), 2);
                cx.condvar_notify(self.addr(), true);
            }
        }
    }
}
