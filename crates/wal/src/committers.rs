//! The parked committer queue.
//!
//! `LogManager::commit` used to convoy on the flush mutex: every waiter
//! blocked on the lock while one thread slept through the device latency
//! (the `flush_cv` next to it was notified but never awaited). Committers
//! now enqueue `(lsn, park-address)` on an LSN-ordered wait list and
//! **park** on the PR 3 parking subsystem until the durable watermark
//! covers their LSN or the device poisons. A finished flush removes the
//! covered prefix of the list and unparks exactly those threads.
//!
//! Lost-wakeup safety is the parker's validate-under-bucket-lock
//! protocol: the waiter re-checks `durable < lsn && !poisoned` under the
//! bucket lock, and the waker publishes `durable` (release) *before*
//! unparking, so a wakeup racing the park either invalidates it or finds
//! the thread queued. Park addresses are stack locations ([`WaitSlot`])
//! used purely as keys — a stale unpark to a reused address is a spurious
//! wake the committer loop revalidates away.
//!
//! Failure delivery is bit-for-bit the old contract: the failing flush
//! records `(flush number, dropped bytes, attempted end-LSN)` and poisons
//! the queue; a waiter whose LSN falls inside the failed batch gets
//! `FlushFailed` (it was *its* flush that died), later LSNs get
//! `Poisoned`, and already-durable LSNs stay acknowledged.

// Schedule-aware atomics under the model checker (see
// `crates/check/tests/wal_ring_models.rs`); std atomics otherwise.
#[cfg(feature = "sli_check")]
use sli_check::sync::{AtomicBool, AtomicU64, Ordering};
#[cfg(not(feature = "sli_check"))]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use std::time::Instant;

use parking_lot::parking::{self, ParkResult, TOKEN_NORMAL};
use parking_lot::Mutex;

use crate::manager::WalError;
use crate::record::Lsn;

struct Waiter {
    lsn: Lsn,
    addr: usize,
}

/// A committer's park-address identity: the address of a stack byte. The
/// queue stores the address as a key for `unpark_one` and never
/// dereferences it, so the slot may die as soon as its owner returns.
#[derive(Default)]
pub struct WaitSlot {
    cell: u8,
}

impl WaitSlot {
    /// A fresh slot; pin it on the stack for the duration of the wait.
    pub fn new() -> Self {
        WaitSlot::default()
    }

    fn addr(&self) -> usize {
        &self.cell as *const u8 as usize
    }
}

/// Durability watermark + LSN-ordered parked committers. See module docs.
pub struct CommitQueue {
    durable: AtomicU64,
    poisoned: AtomicBool,
    /// Failure record, published by the `poisoned` release edge: which
    /// physical flush died, how many batch bytes never hit the device,
    /// and the end-LSN the failed batch attempted.
    fail_flush: AtomicU64,
    fail_dropped: AtomicU64,
    fail_end: AtomicU64,
    waiters: Mutex<Vec<Waiter>>,
    parks: AtomicU64,
}

impl CommitQueue {
    /// Queue whose watermark starts at `base` (a recovered prefix).
    pub fn new(base: Lsn) -> Self {
        CommitQueue {
            durable: AtomicU64::new(base),
            poisoned: AtomicBool::new(false),
            fail_flush: AtomicU64::new(0),
            fail_dropped: AtomicU64::new(0),
            fail_end: AtomicU64::new(0),
            waiters: Mutex::new(Vec::new()),
            parks: AtomicU64::new(0),
        }
    }

    /// Highest durable LSN.
    pub fn durable(&self) -> Lsn {
        // ordering: acquire pairs with the release in `advance` so an
        // observed watermark implies the covered flush completed.
        self.durable.load(Ordering::Acquire)
    }

    /// Whether a flush failure has poisoned the device.
    pub fn is_poisoned(&self) -> bool {
        // ordering: acquire pairs with the release in `poison` — whoever
        // sees the poison sees the failure record stored before it.
        self.poisoned.load(Ordering::Acquire)
    }

    /// Advance the durable watermark to `upto` (monotone).
    pub fn advance(&self, upto: Lsn) {
        // ordering: AcqRel CAS — the release half publishes the flushed
        // batch to `durable()` readers; the acquire half orders against a
        // concurrent advance of a later watermark.
        let _ = self
            .durable
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                (d < upto).then_some(upto)
            });
    }

    /// Record a flush failure. The watermark never moves again; callers
    /// follow up with [`wake`](Self::wake) to deliver errors.
    pub fn poison(&self, flush: u64, dropped: usize, attempted_end: Lsn) {
        // ordering: relaxed stores published by the `poisoned` release
        // below — readers only inspect them after an acquire of the flag.
        self.fail_flush.store(flush, Ordering::Relaxed);
        self.fail_dropped.store(dropped as u64, Ordering::Relaxed); // ordering: see above.
        self.fail_end.store(attempted_end, Ordering::Relaxed); // ordering: see above.
                                                               // ordering: release pairs with the acquire in `is_poisoned`.
        self.poisoned.store(true, Ordering::Release);
    }

    /// The commit verdict for `lsn`, if one exists yet: `Ok` once durable,
    /// the original `FlushFailed` if `lsn` sat in the failed batch,
    /// `Poisoned` for anything later on a dead device. `None` = keep
    /// waiting.
    pub fn outcome(&self, lsn: Lsn) -> Option<Result<(), WalError>> {
        if self.durable() >= lsn {
            // Already durable — even on a poisoned device the record made
            // it out before the failure.
            return Some(Ok(()));
        }
        if self.is_poisoned() {
            // ordering: relaxed — the failure record was published by the
            // poison release/acquire edge just observed.
            return Some(Err(if lsn <= self.fail_end.load(Ordering::Relaxed) {
                WalError::FlushFailed {
                    flush: self.fail_flush.load(Ordering::Relaxed), // ordering: see above.
                    dropped: self.fail_dropped.load(Ordering::Relaxed) as usize, // ordering: see above.
                }
            } else {
                WalError::Poisoned
            }));
        }
        None
    }

    /// Enqueue a waiter for `lsn`. Call once before the park loop; the
    /// node is removed by the wake pass that covers (or poisons) it.
    pub fn enqueue(&self, lsn: Lsn, slot: &WaitSlot) {
        let mut w = self.waiters.lock();
        let at = w.partition_point(|x| x.lsn <= lsn);
        w.insert(
            at,
            Waiter {
                lsn,
                addr: slot.addr(),
            },
        );
    }

    /// Park until the watermark may cover `lsn`, a poison lands, a waker
    /// signals, or the safety `deadline` passes. Spurious returns are
    /// fine — callers loop on [`outcome`](Self::outcome).
    pub fn park(&self, lsn: Lsn, slot: &WaitSlot, deadline: Option<Instant>) {
        let r = parking::park(
            slot.addr(),
            // Validated under the parker's bucket lock: the wake pass
            // publishes `durable`/`poisoned` before unparking, so a
            // concurrent wake either invalidates this or finds us queued.
            || self.durable() < lsn && !self.is_poisoned(),
            || {},
            deadline,
        );
        if !matches!(r, ParkResult::Invalid) {
            // ordering: monotonic statistics counter.
            self.parks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Wake every waiter the current watermark covers (all of them when
    /// poisoned). Returns `(woken_covered, uncovered_remaining)`.
    pub fn wake(&self) -> (u64, bool) {
        let durable = self.durable();
        let mut woken = 0u64;
        let mut w = self.waiters.lock();
        if self.is_poisoned() {
            for node in w.drain(..) {
                parking::unpark_one(node.addr, |_| TOKEN_NORMAL);
                woken += 1;
            }
            return (woken, false);
        }
        let covered = w.partition_point(|x| x.lsn <= durable);
        for node in w.drain(..covered) {
            parking::unpark_one(node.addr, |_| TOKEN_NORMAL);
            woken += 1;
        }
        (woken, !w.is_empty())
    }

    /// Times a committer actually slept (vs. an invalidated park).
    pub fn parks(&self) -> u64 {
        // ordering: relaxed — advisory statistics.
        self.parks.load(Ordering::Relaxed)
    }
}

#[cfg(all(test, not(feature = "sli_check")))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn outcome_splits_failed_batch_from_later_lsns() {
        let q = CommitQueue::new(0);
        assert_eq!(q.outcome(10), None);
        q.advance(10);
        assert_eq!(q.outcome(10), Some(Ok(())));
        q.poison(3, 9, 40);
        assert_eq!(q.outcome(10), Some(Ok(())), "durable before the failure");
        assert_eq!(
            q.outcome(40),
            Some(Err(WalError::FlushFailed {
                flush: 3,
                dropped: 9
            })),
            "inside the failed batch"
        );
        assert_eq!(q.outcome(41), Some(Err(WalError::Poisoned)));
    }

    #[test]
    fn advance_is_monotone() {
        let q = CommitQueue::new(100);
        q.advance(50);
        assert_eq!(q.durable(), 100);
        q.advance(150);
        assert_eq!(q.durable(), 150);
    }

    #[test]
    fn wake_covers_the_lsn_prefix() {
        let q = Arc::new(CommitQueue::new(0));
        let mut handles = Vec::new();
        for lsn in [10u64, 20, 30] {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let slot = WaitSlot::new();
                q.enqueue(lsn, &slot);
                loop {
                    if let Some(out) = q.outcome(lsn) {
                        return out;
                    }
                    q.park(lsn, &slot, None);
                }
            }));
        }
        // Cover 10 and 20; 30 must stay parked, then poison frees it.
        q.advance(20);
        q.wake();
        q.poison(1, 0, 25);
        q.wake();
        let outs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(outs[0], Ok(()));
        assert_eq!(outs[1], Ok(()));
        assert_eq!(outs[2], Err(WalError::Poisoned));
    }
}
