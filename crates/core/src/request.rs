//! Lock requests and their status lifecycle.
//!
//! A [`LockRequest`] is shared (via `Arc`) between up to three owners: the
//! lock head's queue, the owning transaction's private lock list, and — once
//! inherited — the agent thread's inherited list. Its `status` field is the
//! synchronization point of the whole SLI protocol:
//!
//! ```text
//!            enqueue                    commit (candidate)
//!  Waiting ----------> Granted ------------------------------> Inherited
//!     |      grant        |                                      |    |
//!     |                   | commit (not candidate)      reclaim  |    | conflict
//!     |                   v                      (CAS, no latch) |    | (CAS, latch)
//!     +--> [timeout/deadlock: removed]        Granted <----------+    +--> Invalid
//!                         |
//!                         v
//!                     Released
//! ```
//!
//! The reclaim CAS (`Inherited -> Granted`) is the paper's fast path: "the
//! status update uses an atomic compare-and-swap operation and does not
//! require calling into the lock manager, allocating requests, or updating
//! latch-protected lock state" (Section 4.1). The invalidation CAS
//! (`Inherited -> Invalid`) is performed under the lock-head latch by
//! whichever transaction finds the inherited request in its way. Exactly one
//! of the two CASes can win.

// Under the `sli_check` feature the status word and its companions run on
// the model checker's shimmed atomics, so the reclaim and invalidation CASes
// are schedule points (see `crates/check`). Production builds keep std.
#[cfg(feature = "sli_check")]
use sli_check::sync::{AtomicU64, AtomicU8, Ordering};
#[cfg(not(feature = "sli_check"))]
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::id::LockId;
use crate::mode::LockMode;

/// Lifecycle state of a lock request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RequestStatus {
    /// In the queue, not yet granted.
    Waiting = 0,
    /// Granted in `mode`, waiting to upgrade to `convert_to`.
    Converting = 1,
    /// Granted; the owner transaction holds the lock.
    Granted = 2,
    /// Kept past commit by SLI; counted as granted for compatibility
    /// purposes until reclaimed or invalidated.
    Inherited = 3,
    /// Invalidated by a conflicting transaction (or orphaned); the owner
    /// must not use it and will garbage-collect it.
    Invalid = 4,
    /// Released and unlinked from the queue.
    Released = 5,
}

impl RequestStatus {
    fn from_u8(v: u8) -> RequestStatus {
        match v {
            0 => RequestStatus::Waiting,
            1 => RequestStatus::Converting,
            2 => RequestStatus::Granted,
            3 => RequestStatus::Inherited,
            4 => RequestStatus::Invalid,
            5 => RequestStatus::Released,
            _ => unreachable!("corrupt request status {v}"),
        }
    }

    /// Whether this request currently contributes to the lock's granted-mode
    /// summary. Inherited and converting requests still hold their
    /// (old) granted mode.
    pub fn holds_lock(self) -> bool {
        matches!(
            self,
            RequestStatus::Granted | RequestStatus::Inherited | RequestStatus::Converting
        )
    }
}

/// One transaction's (or agent's) claim on one lock.
pub struct LockRequest {
    id: LockId,
    /// Agent slot of the owning thread. Never changes while the request is
    /// live (inheritance stays on the same agent); only pool recycling
    /// (`reinit`, under provable exclusivity) may rebind it.
    agent: u32,
    /// Sequence number of the owning transaction; updated on reclaim.
    txn: AtomicU64,
    /// Granted mode (valid while `status.holds_lock()`).
    mode: AtomicU8,
    /// Requested mode while Waiting, or upgrade target while Converting.
    convert_to: AtomicU8,
    status: AtomicU8,
    /// Consecutive commits this request was inherited but unused
    /// (Section 4.4 hysteresis).
    pub(crate) unused_generations: AtomicU8,
    /// Grant notification. Granters set status while holding `wait_lock`,
    /// so sleeping waiters cannot miss a wakeup.
    wait_lock: Mutex<()>,
    wait_cv: Condvar,
}

impl LockRequest {
    /// New request, already granted in `mode`.
    pub fn new_granted(id: LockId, agent: u32, txn: u64, mode: LockMode) -> Self {
        Self::new(id, agent, txn, mode, mode, RequestStatus::Granted)
    }

    /// New request waiting for `mode`.
    pub fn new_waiting(id: LockId, agent: u32, txn: u64, mode: LockMode) -> Self {
        Self::new(id, agent, txn, LockMode::NL, mode, RequestStatus::Waiting)
    }

    fn new(
        id: LockId,
        agent: u32,
        txn: u64,
        mode: LockMode,
        convert_to: LockMode,
        status: RequestStatus,
    ) -> Self {
        LockRequest {
            id,
            agent,
            txn: AtomicU64::new(txn),
            mode: AtomicU8::new(mode as u8),
            convert_to: AtomicU8::new(convert_to as u8),
            status: AtomicU8::new(status as u8),
            unused_generations: AtomicU8::new(0),
            wait_lock: Mutex::new(()),
            wait_cv: Condvar::new(),
        }
    }

    /// Re-initialize a recycled request in place for a new acquisition —
    /// the allocation-free fast path's replacement for `Arc::new`. Takes
    /// `&mut self`, which the pool obtains via `Arc::get_mut`: the request
    /// is provably unshared (strong count 1, no queue/cache/agent refs), so
    /// no concurrent observer can see the transition.
    pub(crate) fn reinit(
        &mut self,
        id: LockId,
        agent: u32,
        txn: u64,
        mode: LockMode,
        convert_to: LockMode,
        status: RequestStatus,
    ) {
        debug_assert!(
            !self.status().holds_lock(),
            "recycling a request that still holds a lock"
        );
        self.id = id;
        self.agent = agent;
        *self.txn.get_mut() = txn;
        *self.mode.get_mut() = mode as u8;
        *self.convert_to.get_mut() = convert_to as u8;
        *self.status.get_mut() = status as u8;
        *self.unused_generations.get_mut() = 0;
    }

    /// The lock this request is for.
    #[inline]
    pub fn lock_id(&self) -> LockId {
        self.id
    }

    /// Owning agent slot.
    #[inline]
    pub fn agent(&self) -> u32 {
        self.agent
    }

    /// Owning transaction sequence number.
    #[inline]
    pub fn txn(&self) -> u64 {
        // ordering: acquire pairs with the release store in `try_reclaim`
        // so a reader sees the adopting transaction's id.
        self.txn.load(Ordering::Acquire)
    }

    /// Current status.
    #[inline]
    pub fn status(&self) -> RequestStatus {
        // ordering: acquire pairs with the release stores of the status
        // transitions — observing Granted publishes mode/convert_to.
        RequestStatus::from_u8(self.status.load(Ordering::Acquire))
    }

    /// Currently granted mode (NL while waiting).
    #[inline]
    pub fn mode(&self) -> LockMode {
        // ordering: acquire pairs with `set_granted_mode`'s release store.
        mode_from_u8(self.mode.load(Ordering::Acquire))
    }

    /// Requested / upgrade-target mode.
    #[inline]
    pub fn convert_to(&self) -> LockMode {
        // ordering: acquire for symmetry with `status`; the field is only
        // written under the head latch or before a release store.
        mode_from_u8(self.convert_to.load(Ordering::Acquire))
    }

    // ---- transitions performed under the lock-head latch ----------------

    /// Grant a waiting or converting request in its target mode and wake the
    /// waiter. Caller must hold the lock-head latch and have updated the
    /// granted-mode summary.
    pub(crate) fn grant(&self) {
        let _g = self.wait_lock.lock();
        // ordering: relaxed is enough for mode/convert_to — the release
        // store of Granted below publishes both, and waiters read status
        // first (acquire) before looking at the mode.
        let target = self.convert_to.load(Ordering::Relaxed);
        self.mode.store(target, Ordering::Relaxed); // ordering: see above.
                                                    // ordering: release publishes the granted mode to the acquire
                                                    // loads in `status()`/`wait_for_grant`.
        self.status
            .store(RequestStatus::Granted as u8, Ordering::Release);
        self.wait_cv.notify_all();
    }

    /// Upgrade a granted request in place (no wait was needed). Caller holds
    /// the head latch.
    pub(crate) fn set_granted_mode(&self, mode: LockMode) {
        // ordering: release so a racing `mode()` reader sees the new mode;
        // convert_to is only read meaningfully under the head latch.
        self.mode.store(mode as u8, Ordering::Release);
        self.convert_to.store(mode as u8, Ordering::Relaxed); // ordering: latch-guarded.
    }

    /// Begin an upgrade: mark Converting with the given target. Caller holds
    /// the head latch.
    pub(crate) fn begin_convert(&self, target: LockMode) {
        // ordering: the release store of Converting below publishes the
        // target; nothing reads convert_to without first seeing status.
        self.convert_to.store(target as u8, Ordering::Relaxed);
        // ordering: release publishes the conversion target (see above).
        self.status
            .store(RequestStatus::Converting as u8, Ordering::Release);
    }

    /// Abandon an upgrade (deadlock/timeout victim): fall back to the
    /// previously granted mode. Caller holds the head latch.
    pub(crate) fn cancel_convert(&self) {
        // ordering: both fields are guarded by the head latch the caller
        // holds; the release store of Granted publishes them to waiters.
        let cur = self.mode.load(Ordering::Relaxed);
        self.convert_to.store(cur, Ordering::Relaxed); // ordering: latch-guarded.
                                                       // ordering: release publishes the fallback mode (see above).
        self.status
            .store(RequestStatus::Granted as u8, Ordering::Release);
    }

    /// Mark released. Caller holds the head latch and unlinks the request.
    pub(crate) fn mark_released(&self) {
        // ordering: release so the owning agent's next acquire load of
        // status observes the unlink performed under the latch.
        self.status
            .store(RequestStatus::Released as u8, Ordering::Release);
    }

    /// Transition `Granted -> Inherited` at commit. Caller is the owning
    /// agent; no latch needed because the request keeps counting toward the
    /// granted summary and no other thread transitions Granted requests.
    pub fn begin_inheritance(&self) -> bool {
        // ordering: AcqRel — the success publishes the request as
        // Inherited to racing reclaim/invalidate CASes; acquire on failure
        // to observe the state that beat us.
        self.status
            .compare_exchange(
                RequestStatus::Granted as u8,
                RequestStatus::Inherited as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    // ---- the two racing CAS transitions ----------------------------------

    /// The SLI fast path: adopt an inherited request for a new transaction.
    /// No latch required. Returns false if a conflicting transaction
    /// invalidated the request first.
    #[inline]
    pub fn try_reclaim(&self, new_txn: u64) -> bool {
        // ordering: AcqRel — winning the race acquires the inheriting
        // agent's writes and publishes the adoption; acquire on failure to
        // see the invalidator's state.
        let ok = self
            .status
            .compare_exchange(
                RequestStatus::Inherited as u8,
                RequestStatus::Granted as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if ok {
            // ordering: release pairs with `txn()`'s acquire; the GC
            // generation counter is advisory, hence relaxed.
            self.txn.store(new_txn, Ordering::Release);
            self.unused_generations.store(0, Ordering::Relaxed); // ordering: advisory.
        }
        ok
    }

    /// Invalidate an inconvenient inherited request. Caller must hold the
    /// lock-head latch (it will unlink the request and update the summary on
    /// success). Returns false if the owner reclaimed it first.
    #[inline]
    pub fn try_invalidate(&self) -> bool {
        // ordering: AcqRel mirror of `try_reclaim` — exactly one of the two
        // racing CASes can move the request out of Inherited.
        self.status
            .compare_exchange(
                RequestStatus::Inherited as u8,
                RequestStatus::Invalid as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    // ---- waiting ---------------------------------------------------------

    /// Block until granted, a poll interval elapses, or the deadline passes.
    /// Returns the current status; the caller loops, running deadlock checks
    /// between polls.
    pub(crate) fn wait_for_grant(&self, poll: Duration, deadline: Instant) -> RequestStatus {
        let mut guard = self.wait_lock.lock();
        loop {
            let st = self.status();
            if st != RequestStatus::Waiting && st != RequestStatus::Converting {
                return st;
            }
            let now = Instant::now();
            if now >= deadline {
                return st;
            }
            let until = (deadline - now).min(poll);
            let timed_out = self.wait_cv.wait_for(&mut guard, until).timed_out();
            if timed_out {
                return self.status();
            }
        }
    }
}

#[inline]
fn mode_from_u8(v: u8) -> LockMode {
    match v {
        0 => LockMode::NL,
        1 => LockMode::IS,
        2 => LockMode::IX,
        3 => LockMode::S,
        4 => LockMode::SIX,
        5 => LockMode::X,
        _ => unreachable!("corrupt lock mode {v}"),
    }
}

impl std::fmt::Debug for LockRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockRequest")
            .field("id", &self.id)
            .field("agent", &self.agent)
            .field("txn", &self.txn())
            .field("mode", &self.mode())
            .field("convert_to", &self.convert_to())
            .field("status", &self.status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::TableId;
    use std::sync::Arc;

    fn table_req(status_granted: bool) -> LockRequest {
        let id = LockId::Table(TableId(1));
        if status_granted {
            LockRequest::new_granted(id, 0, 1, LockMode::IS)
        } else {
            LockRequest::new_waiting(id, 0, 1, LockMode::IS)
        }
    }

    #[test]
    fn grant_moves_waiting_to_granted_with_target_mode() {
        let r = LockRequest::new_waiting(LockId::Database, 0, 1, LockMode::IX);
        assert_eq!(r.status(), RequestStatus::Waiting);
        assert_eq!(r.mode(), LockMode::NL);
        r.grant();
        assert_eq!(r.status(), RequestStatus::Granted);
        assert_eq!(r.mode(), LockMode::IX);
    }

    #[test]
    fn reclaim_and_invalidate_race_has_one_winner() {
        for _ in 0..100 {
            let r = Arc::new(table_req(true));
            assert!(r.begin_inheritance());
            let r1 = Arc::clone(&r);
            let r2 = Arc::clone(&r);
            let t1 = std::thread::spawn(move || r1.try_reclaim(2));
            let t2 = std::thread::spawn(move || r2.try_invalidate());
            let reclaimed = t1.join().unwrap();
            let invalidated = t2.join().unwrap();
            assert!(
                reclaimed ^ invalidated,
                "exactly one CAS must win (reclaimed={reclaimed}, invalidated={invalidated})"
            );
            let final_status = r.status();
            if reclaimed {
                assert_eq!(final_status, RequestStatus::Granted);
                assert_eq!(r.txn(), 2);
            } else {
                assert_eq!(final_status, RequestStatus::Invalid);
            }
        }
    }

    #[test]
    fn inheritance_requires_granted_state() {
        let r = table_req(false);
        assert!(!r.begin_inheritance());
        let g = table_req(true);
        assert!(g.begin_inheritance());
        assert!(!g.begin_inheritance(), "already inherited");
    }

    #[test]
    fn reclaim_fails_on_granted_request() {
        let r = table_req(true);
        assert!(!r.try_reclaim(9));
        assert_eq!(r.txn(), 1);
    }

    #[test]
    fn convert_cycle_preserves_old_mode_on_cancel() {
        let r = LockRequest::new_granted(LockId::Database, 0, 1, LockMode::IS);
        r.begin_convert(LockMode::IX);
        assert_eq!(r.status(), RequestStatus::Converting);
        assert_eq!(r.mode(), LockMode::IS);
        assert_eq!(r.convert_to(), LockMode::IX);
        r.cancel_convert();
        assert_eq!(r.status(), RequestStatus::Granted);
        assert_eq!(r.mode(), LockMode::IS);
    }

    #[test]
    fn wait_for_grant_sees_cross_thread_grant() {
        let r = Arc::new(LockRequest::new_waiting(
            LockId::Database,
            0,
            1,
            LockMode::S,
        ));
        let r2 = Arc::clone(&r);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            r2.grant();
        });
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let st = r.wait_for_grant(Duration::from_millis(1), deadline);
            if st == RequestStatus::Granted {
                break;
            }
            assert!(Instant::now() < deadline, "missed grant");
        }
        h.join().unwrap();
    }

    #[test]
    fn wait_for_grant_respects_deadline() {
        let r = table_req(false);
        let start = Instant::now();
        let st = r.wait_for_grant(
            Duration::from_millis(1),
            Instant::now() + Duration::from_millis(10),
        );
        assert_eq!(st, RequestStatus::Waiting);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn holds_lock_classification() {
        assert!(RequestStatus::Granted.holds_lock());
        assert!(RequestStatus::Inherited.holds_lock());
        assert!(RequestStatus::Converting.holds_lock());
        assert!(!RequestStatus::Waiting.holds_lock());
        assert!(!RequestStatus::Invalid.holds_lock());
        assert!(!RequestStatus::Released.holds_lock());
    }
}
