//! Lock heads and request queues.
//!
//! Mirrors the Shore-MT structure in the paper's Figure 2: "Every active
//! lock in the system is represented by a lock head data structure which
//! contains the lock's current state, the head of a linked list of current
//! lock requests, and a latch which protects both lock head and list
//! elements."
//!
//! Release follows Figure 3's traversal semantics: satisfy pending upgrades
//! (conversions) first, then grant the contiguous prefix of compatible
//! waiting requests. Both steps additionally invalidate *inherited* requests
//! that are the only thing standing in a candidate's way — the paper's
//! "inconvenient inherited lock request" rule.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use sli_latch::{Latched, LatchedGuard};
use sli_profiler::Component;

use crate::hot::HotTracker;
use crate::id::LockId;
use crate::mode::{LockMode, NUM_MODES};
use crate::policy::AcquireSample;
use crate::request::{LockRequest, RequestStatus};
use crate::scope::HeadPolicy;
use crate::stats::LockStats;
use crate::word::GrantWord;

/// Latch-protected state of one lock: the request queue plus a granted-mode
/// summary so compatibility checks don't rescan the queue.
pub struct LockQueue {
    /// Requests in FIFO arrival order.
    pub reqs: Vec<Arc<LockRequest>>,
    /// Per-mode counts of requests currently holding the lock
    /// (Granted / Inherited / Converting-at-old-mode).
    granted_counts: [u32; NUM_MODES],
    /// Number of Waiting + Converting requests.
    pub waiters: u32,
    /// Set when this head has been unlinked from its hash bucket; probers
    /// that latched a stale `Arc` must retry.
    pub zombie: bool,
    /// The head's grant word, shared with latch-free fast-path acquirers.
    /// Every latched mutation re-publishes the queue-derived flag bits so
    /// the word and the queue summary always agree (see `crate::word`).
    word: Arc<GrantWord>,
    /// The head's policy-scope id, mirrored here so queue-internal stat
    /// bumps (inherited-blocker invalidation) attribute to the right
    /// scope without reaching back to the head.
    scope_id: u16,
}

impl LockQueue {
    fn new(word: Arc<GrantWord>, scope_id: u16) -> Self {
        LockQueue {
            reqs: Vec::with_capacity(4),
            granted_counts: [0; NUM_MODES],
            waiters: 0,
            zombie: false,
            word,
            scope_id,
        }
    }

    /// Mirror the queue summary's flag bits into the grant word. Called
    /// after every latched mutation; the latch serializes publishers, so
    /// the last publish in a critical section always reflects the final
    /// queue state.
    fn publish(&self) {
        self.word.publish(
            self.granted_counts[LockMode::IX as usize] > 0,
            self.granted_counts[LockMode::S as usize] > 0,
            self.granted_counts[LockMode::SIX as usize] + self.granted_counts[LockMode::X as usize]
                > 0,
            self.waiters > 0,
        );
    }

    /// Raise the latched-scan barrier: sets the word's WAIT flag, halting
    /// new fast grants, so the fast counters can only decrease until the
    /// next [`LockQueue`] mutation re-publishes. Callers must follow up
    /// with a mutation or an explicit `publish` so the flag does not
    /// stick. Caller holds the latch.
    pub fn begin_scan(&self) {
        self.word.begin_scan()
    }

    /// Atomically claim the word's queue-side flag for an immediately
    /// grantable latched request, validating against fast-path holders in
    /// the same CAS. Caller holds the latch and has verified queue-side
    /// compatibility. On `false` the caller must take the wait path.
    pub fn claim_queued(&self, mode: LockMode) -> bool {
        self.word.claim_queued(mode)
    }

    /// Whether a current *fast-path* holder conflicts with `mode`. Valid
    /// for grant decisions only while the word's WAIT flag is raised
    /// (waiters present or barrier held), which freezes fast admissions.
    pub fn fast_conflicts_with(&self, mode: LockMode) -> bool {
        self.word.fast_conflicts_with(mode)
    }

    /// True when `mode` is compatible with every granted mode, not counting
    /// the contribution of `except` (used for upgrades, where a request must
    /// not conflict with itself).
    pub fn compatible_with_granted(
        &self,
        mode: LockMode,
        except: Option<&Arc<LockRequest>>,
    ) -> bool {
        let mut counts = self.granted_counts;
        if let Some(req) = except {
            if req.status().holds_lock() {
                let m = req.mode() as usize;
                debug_assert!(counts[m] > 0);
                counts[m] = counts[m].saturating_sub(1);
            }
        }
        counts
            .iter()
            .enumerate()
            .all(|(m, &c)| c == 0 || mode.compatible(crate::mode::ALL_MODES[m]))
    }

    /// Append a freshly granted request (immediate-grant path: empty wait
    /// queue and compatible mode).
    pub fn push_granted(&mut self, req: Arc<LockRequest>) {
        debug_assert_eq!(req.status(), RequestStatus::Granted);
        self.granted_counts[req.mode() as usize] += 1;
        self.reqs.push(req);
        self.publish();
    }

    /// Append a waiting request.
    pub fn push_waiting(&mut self, req: Arc<LockRequest>) {
        debug_assert_eq!(req.status(), RequestStatus::Waiting);
        self.waiters += 1;
        self.reqs.push(req);
        self.publish();
    }

    /// Transition a granted request (already in the queue) to Converting.
    pub fn begin_convert(&mut self, req: &LockRequest, target: LockMode) {
        req.begin_convert(target);
        self.waiters += 1;
        self.publish();
    }

    /// Abandon a conversion (victim path).
    pub fn cancel_convert(&mut self, req: &LockRequest) {
        debug_assert_eq!(req.status(), RequestStatus::Converting);
        req.cancel_convert();
        self.waiters -= 1;
        self.publish();
    }

    /// Unlink `req` from the queue, adjusting the summary. Returns true if
    /// it was present.
    pub fn unlink(&mut self, req: &Arc<LockRequest>) -> bool {
        let Some(pos) = self.reqs.iter().position(|r| Arc::ptr_eq(r, req)) else {
            return false;
        };
        let r = self.reqs.remove(pos);
        match r.status() {
            RequestStatus::Granted => {
                self.dec_granted(r.mode());
            }
            RequestStatus::Inherited => {
                self.dec_granted(r.mode());
                // Unlinking an Inherited request without going through
                // `invalidate_inherited` only happens on the owner's own
                // discard path (release-from-Inherited), which pairs with
                // the inc at inheritance time.
                self.word.dec_inherited();
            }
            RequestStatus::Converting => {
                self.dec_granted(r.mode());
                self.waiters -= 1;
            }
            RequestStatus::Waiting => {
                self.waiters -= 1;
            }
            // Invalid/Released requests were already uncounted when they
            // transitioned.
            RequestStatus::Invalid | RequestStatus::Released => {}
        }
        self.publish();
        true
    }

    fn dec_granted(&mut self, mode: LockMode) {
        let m = mode as usize;
        debug_assert!(self.granted_counts[m] > 0, "summary underflow for {mode}");
        self.granted_counts[m] -= 1;
    }

    /// Release a granted/inherited request: mark it, unlink it, and run a
    /// grant pass. Caller holds the latch.
    pub fn release(&mut self, req: &Arc<LockRequest>, stats: &LockStats) {
        debug_assert!(req.status().holds_lock());
        // Unlink first (status still counted), then mark released.
        let was_present = self.unlink(req);
        debug_assert!(was_present, "releasing a request not in the queue");
        req.mark_released();
        self.grant_pass(stats);
    }

    /// Figure 3's release traversal, extended with SLI invalidation:
    ///
    /// 1. Repeatedly grant any Converting request whose target mode is
    ///    compatible with all *other* holders ("Once all pending upgrades
    ///    have been satisfied ...").
    /// 2. Grant the contiguous FIFO prefix of compatible Waiting requests
    ///    ("... the next waiting (new) request can be granted (B) if
    ///    compatible ... All compatible requests directly after the first
    ///    (C) can also be granted").
    ///
    /// In both steps, if a candidate is blocked *only* by Inherited
    /// requests, those are invalidated (CAS, racing the owner's reclaim) and
    /// unlinked, and the candidate is granted.
    ///
    /// Returns the number of requests granted.
    pub fn grant_pass(&mut self, stats: &LockStats) -> u32 {
        let mut granted = 0;
        // Step 1: conversions, to fixpoint.
        loop {
            let mut progressed = false;
            let converting: Vec<Arc<LockRequest>> = self
                .reqs
                .iter()
                .filter(|r| r.status() == RequestStatus::Converting)
                .cloned()
                .collect();
            for req in converting {
                if self.try_admit(&req, req.convert_to(), stats) {
                    self.dec_granted(req.mode());
                    self.granted_counts[req.convert_to() as usize] += 1;
                    self.waiters -= 1;
                    self.publish();
                    req.grant();
                    granted += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        // Step 2: FIFO prefix of waiting requests. Pending conversions that
        // couldn't be satisfied above retain priority: a new waiter may not
        // barge past an upgrade whose target conflicts with it.
        while let Some(req) = self
            .reqs
            .iter()
            .find(|r| r.status() == RequestStatus::Waiting)
            .cloned()
        {
            let blocked_by_convert = self.reqs.iter().any(|r| {
                r.status() == RequestStatus::Converting
                    && !req.convert_to().compatible(r.convert_to())
            });
            if blocked_by_convert {
                break;
            }
            if self.try_admit(&req, req.convert_to(), stats) {
                self.granted_counts[req.convert_to() as usize] += 1;
                self.waiters -= 1;
                self.publish();
                req.grant();
                granted += 1;
            } else {
                break; // strict FIFO: stop at the first blocked waiter
            }
        }
        granted
    }

    /// Check whether `mode` can be admitted for `candidate`, invalidating
    /// inherited blockers if they are the only obstacle. Returns true when
    /// admissible (after any invalidations).
    fn try_admit(
        &mut self,
        candidate: &Arc<LockRequest>,
        mode: LockMode,
        stats: &LockStats,
    ) -> bool {
        // Fast-path holders are real holders that can never be
        // invalidated; while the word's WAIT flag is up (waiters exist),
        // their counters only decrease, so this check cannot race a new
        // fast grant.
        if self.word.fast_conflicts_with(mode) {
            return false;
        }
        if self.compatible_with_granted(mode, Some(candidate)) {
            return true;
        }
        // Find blockers; bail if any is a real (non-inherited) holder.
        let mut inherited_blockers = Vec::new();
        for r in &self.reqs {
            if Arc::ptr_eq(r, candidate) {
                continue;
            }
            let st = r.status();
            if st.holds_lock() && !mode.compatible(r.mode()) {
                if st == RequestStatus::Inherited {
                    inherited_blockers.push(Arc::clone(r));
                } else {
                    return false;
                }
            }
        }
        if inherited_blockers.is_empty() {
            // Summary says incompatible but no live blocker found — a racer
            // must have changed status; recompute conservatively.
            return self.compatible_with_granted(mode, Some(candidate));
        }
        // Invalidate them all; if any reclaim wins the race, give up.
        for b in &inherited_blockers {
            if self.invalidate_inherited(b) {
                stats.on_sli_invalidated(self.scope_id);
            } else {
                // Owner reclaimed concurrently: it is now a Granted blocker.
                return false;
            }
        }
        self.compatible_with_granted(mode, Some(candidate))
    }

    /// Invalidate one inherited request (CAS racing the owner's reclaim) and
    /// unlink it on success. Caller holds the latch and is responsible for
    /// any stats/grant-pass follow-up.
    pub fn invalidate_inherited(&mut self, req: &Arc<LockRequest>) -> bool {
        if !req.try_invalidate() {
            return false;
        }
        self.dec_granted(req.mode());
        self.word.dec_inherited();
        if let Some(pos) = self.reqs.iter().position(|r| Arc::ptr_eq(r, req)) {
            self.reqs.remove(pos);
        }
        self.publish();
        true
    }

    /// In-place upgrade of a granted request whose target mode is already
    /// compatible (no wait needed). Caller holds the latch and has verified
    /// compatibility — including claiming the grant word's queue-side flag
    /// for `target` so the upgrade cannot race a fast-path grant.
    pub fn swap_granted_mode(&mut self, req: &Arc<LockRequest>, target: LockMode) {
        debug_assert_eq!(req.status(), RequestStatus::Granted);
        self.dec_granted(req.mode());
        self.granted_counts[target as usize] += 1;
        req.set_granted_mode(target);
        self.publish();
    }

    /// Collect the agent slots that currently block `candidate`'s request
    /// for `mode`, for Dreadlocks digest propagation: conflicting holders,
    /// conflicting conversions (which have grant priority), and conflicting
    /// waiters queued ahead of the candidate. Conservative over-inclusion is
    /// fine (false positives only).
    ///
    /// Known limitation: grant-word fast-path holders carry no agent
    /// identity and are invisible here, so a deadlock cycle whose edge
    /// runs *only* through a fast-held lock publishes an empty digest and
    /// is resolved by the lock timeout instead of Dreadlocks detection
    /// (see README "grant word" section and the ROADMAP follow-up).
    pub fn collect_blockers(
        &self,
        candidate: &Arc<LockRequest>,
        mode: LockMode,
        out: &mut Vec<u32>,
    ) {
        let mut before_me = true;
        for r in &self.reqs {
            if Arc::ptr_eq(r, candidate) {
                before_me = false;
                continue;
            }
            let st = r.status();
            let blocks = match st {
                _ if st.holds_lock() && !mode.compatible(r.mode()) => true,
                RequestStatus::Converting if !mode.compatible(r.convert_to()) => true,
                RequestStatus::Waiting if before_me && !mode.compatible(r.convert_to()) => true,
                _ => false,
            };
            if blocks {
                out.push(r.agent());
            }
        }
    }

    /// True when some other agent's waiting or converting request here is
    /// blocked by `slot`: `slot` is among its [`LockQueue::collect_blockers`],
    /// or its target mode conflicts with `fast`, a grant-word hold `slot`
    /// has on this lock. `scratch` is overwritten.
    pub fn blocks_a_waiter(
        &self,
        slot: u32,
        fast: Option<LockMode>,
        scratch: &mut Vec<u32>,
    ) -> bool {
        self.reqs.iter().any(|r| {
            if r.agent() == slot
                || !matches!(
                    r.status(),
                    RequestStatus::Waiting | RequestStatus::Converting
                )
            {
                return false;
            }
            let want = r.convert_to();
            if fast.is_some_and(|m| !want.compatible(m)) {
                return true;
            }
            scratch.clear();
            self.collect_blockers(r, want, scratch);
            scratch.contains(&slot)
        })
    }

    /// Number of requests currently holding the lock.
    pub fn holders(&self) -> u32 {
        self.granted_counts.iter().sum()
    }

    /// The strongest currently granted mode (for diagnostics).
    pub fn granted_mode(&self) -> LockMode {
        let mut m = LockMode::NL;
        for (i, &c) in self.granted_counts.iter().enumerate() {
            if c > 0 {
                m = m.supremum(crate::mode::ALL_MODES[i]);
            }
        }
        m
    }

    /// Queue is completely empty (head removable).
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }
}

/// One lock's identity, hot tracker, grant word, cached policy
/// resolution, and latched queue.
pub struct LockHead {
    id: LockId,
    hot: HotTracker,
    /// Lock-free mirror of `queue.waiters`, read by SLI's criterion 4
    /// without taking the latch.
    waiters_mirror: AtomicU32,
    /// Best-effort identity of the most recent grant-word fast grantee
    /// (`agent_slot + 1`; 0 = none). Fast holds carry no `LockRequest`,
    /// so without this hint a deadlock cycle through a fast-held edge is
    /// invisible to Dreadlocks and resolves only by timeout.
    fast_hint: AtomicU32,
    /// The packed grant state fast-path acquirers CAS against; also
    /// referenced by `queue` so latched mutations keep it in sync.
    word: Arc<GrantWord>,
    /// The head's policy resolution, cached at creation (see
    /// `crate::PolicyMap::resolve`): the acquire/commit paths never
    /// consult the map again.
    policy: HeadPolicy,
    queue: Latched<LockQueue>,
}

impl LockHead {
    /// Fresh lock head for `id` in the default scope under the paper's
    /// policy (tests and fixtures; the lock manager resolves real heads
    /// through its `PolicyMap` via [`LockHead::new_scoped`]).
    pub fn new(id: LockId) -> Arc<Self> {
        LockHead::new_scoped(id, HeadPolicy::default_paper())
    }

    /// Fresh lock head for `id` with an explicit policy resolution.
    pub fn new_scoped(id: LockId, policy: HeadPolicy) -> Arc<Self> {
        let word = Arc::new(GrantWord::new());
        let scope_id = policy.scope_id();
        Arc::new(LockHead {
            id,
            hot: HotTracker::new(),
            waiters_mirror: AtomicU32::new(0),
            fast_hint: AtomicU32::new(0),
            word: Arc::clone(&word),
            policy,
            queue: Latched::new(Component::LockManager, LockQueue::new(word, scope_id)),
        })
    }

    /// The lock this head represents.
    pub fn id(&self) -> LockId {
        self.id
    }

    /// The head's cached policy resolution (scope id, policy pointer,
    /// adaptive promotion state).
    #[inline]
    pub fn policy(&self) -> &HeadPolicy {
        &self.policy
    }

    /// The head's policy-scope id (stat attribution).
    #[inline]
    pub fn scope_id(&self) -> u16 {
        self.policy.scope_id()
    }

    /// The head's grant word (latch-free fast path and diagnostics).
    pub fn grant_word(&self) -> &GrantWord {
        &self.word
    }

    /// Hot-lock tracker (criterion 2).
    pub fn hot(&self) -> &HotTracker {
        &self.hot
    }

    /// Lock-free view of the waiter count (criterion 4).
    pub fn waiters_hint(&self) -> u32 {
        // ordering: relaxed — an advisory mirror for the hot-lock
        // criterion; staleness only shifts a heuristic decision.
        self.waiters_mirror.load(Ordering::Relaxed)
    }

    /// Record `slot` as the most recent fast grantee (see `fast_hint`).
    #[inline]
    pub fn publish_fast_hint(&self, slot: u32) {
        // ordering: relaxed — an advisory hint; a stale or missing value
        // only adds or drops one conservative digest edge.
        self.fast_hint.store(slot + 1, Ordering::Relaxed);
    }

    /// Drop the hint if it still names `slot` (its fast hold ended).
    #[inline]
    pub fn clear_fast_hint(&self, slot: u32) {
        // ordering: relaxed advisory hint (see `publish_fast_hint`).
        let _ = self
            .fast_hint
            .compare_exchange(slot + 1, 0, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// The last known fast grantee's agent slot, if any.
    #[inline]
    pub fn fast_hint(&self) -> Option<u32> {
        // ordering: relaxed advisory hint (see `publish_fast_hint`).
        match self.fast_hint.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v - 1),
        }
    }

    /// Latch the queue, feeding the contention bit into the hot tracker.
    pub fn latch(&self) -> QueueGuard<'_> {
        let inner = self.queue.lock();
        self.hot.record(inner.was_contended());
        QueueGuard { head: self, inner }
    }

    /// Latch the queue on behalf of agent `me`'s acquire path, returning
    /// the raw [`AcquireSample`] *without* recording a heat sample: the
    /// lock manager feeds the sample through the active
    /// [`crate::LockPolicy::on_acquire`] and records the policy's verdict.
    ///
    /// `cross_agent_shared` is set when another agent actively holds a
    /// request on this lock. Raw latch collisions alone under-report heat
    /// here — this engine's head critical sections are tens of nanoseconds
    /// against multi-microsecond transactions, unlike Shore-MT where
    /// lock-manager latching dominates — while cross-agent sharing at
    /// acquire time is exactly the condition that makes a release +
    /// re-acquire pair recur, which is what criterion 2 exists to detect.
    /// [`crate::PaperSli`] combines both signals.
    ///
    /// Parked `Inherited` requests deliberately do not count as sharing:
    /// their owner is idle, and counting them would keep a lock hot (and
    /// therefore re-inherited) forever after real concurrency ends.
    pub fn latch_observe(&self, me: u32) -> (QueueGuard<'_>, AcquireSample) {
        let inner = self.queue.lock();
        // Fast-path holders never appear in `reqs`, but they are active
        // cross-agent sharers all the same (the sampling acquirer cannot
        // itself hold a fast entry here — that would have been a lock-cache
        // hit). Without this term the every-Nth sampling fall-through would
        // read hot grant-word heads as idle and SLI's heat signal would
        // starve.
        let shared = self.word.fast_total() > 0
            || inner.reqs.iter().any(|r| {
                r.agent() != me
                    && matches!(
                        r.status(),
                        RequestStatus::Granted | RequestStatus::Converting
                    )
            });
        let sample = AcquireSample {
            latch_contended: inner.was_contended(),
            cross_agent_shared: shared,
        };
        (QueueGuard { head: self, inner }, sample)
    }

    /// Latch the queue without recording a hot sample (used by maintenance
    /// paths — GC, zombie removal — whose acquisitions say nothing about
    /// demand for the lock).
    pub fn latch_untracked(&self) -> QueueGuard<'_> {
        let inner = self.queue.lock();
        QueueGuard { head: self, inner }
    }

    /// Try-lock variant of [`LockHead::latch_untracked`].
    pub fn try_latch_untracked(&self) -> Option<QueueGuard<'_>> {
        let inner = self.queue.try_lock()?;
        Some(QueueGuard { head: self, inner })
    }
}

impl std::fmt::Debug for LockHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockHead")
            .field("id", &self.id)
            .field("waiters", &self.waiters_hint())
            .finish_non_exhaustive()
    }
}

/// RAII guard over a latched [`LockQueue`] that refreshes the lock-free
/// waiter mirror on drop.
pub struct QueueGuard<'a> {
    head: &'a LockHead,
    inner: LatchedGuard<'a, LockQueue>,
}

impl QueueGuard<'_> {
    /// Whether acquiring the queue latch contended.
    pub fn was_contended(&self) -> bool {
        self.inner.was_contended()
    }
}

impl std::ops::Deref for QueueGuard<'_> {
    type Target = LockQueue;
    fn deref(&self) -> &LockQueue {
        &self.inner
    }
}

impl std::ops::DerefMut for QueueGuard<'_> {
    fn deref_mut(&mut self) -> &mut LockQueue {
        &mut self.inner
    }
}

impl Drop for QueueGuard<'_> {
    fn drop(&mut self) {
        // ordering: relaxed advisory mirror (see `waiters_hint`).
        self.head
            .waiters_mirror
            .store(self.inner.waiters, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::TableId;

    fn head() -> Arc<LockHead> {
        LockHead::new(LockId::Table(TableId(1)))
    }

    fn granted(agent: u32, txn: u64, mode: LockMode) -> Arc<LockRequest> {
        Arc::new(LockRequest::new_granted(
            LockId::Table(TableId(1)),
            agent,
            txn,
            mode,
        ))
    }

    fn waiting(agent: u32, txn: u64, mode: LockMode) -> Arc<LockRequest> {
        Arc::new(LockRequest::new_waiting(
            LockId::Table(TableId(1)),
            agent,
            txn,
            mode,
        ))
    }

    #[test]
    fn summary_tracks_grants_and_releases() {
        let h = head();
        let stats = LockStats::new();
        let r1 = granted(0, 1, LockMode::IS);
        let r2 = granted(1, 2, LockMode::IX);
        {
            let mut q = h.latch();
            q.push_granted(r1.clone());
            q.push_granted(r2.clone());
            assert_eq!(q.holders(), 2);
            assert_eq!(q.granted_mode(), LockMode::IX);
            q.release(&r1, &stats);
            assert_eq!(q.holders(), 1);
        }
        assert_eq!(r1.status(), RequestStatus::Released);
    }

    #[test]
    fn incompatible_waiter_blocks_until_release() {
        let h = head();
        let stats = LockStats::new();
        let s = granted(0, 1, LockMode::S);
        let x = waiting(1, 2, LockMode::X);
        let mut q = h.latch();
        q.push_granted(s.clone());
        assert!(!q.compatible_with_granted(LockMode::X, None));
        q.push_waiting(x.clone());
        assert_eq!(q.grant_pass(&stats), 0);
        assert_eq!(x.status(), RequestStatus::Waiting);
        q.release(&s, &stats);
        assert_eq!(x.status(), RequestStatus::Granted);
        assert_eq!(x.mode(), LockMode::X);
    }

    #[test]
    fn figure3_upgrades_granted_before_new_waiters() {
        // Queue: granted IS (upgrading to IX), granted S releasing, then a
        // waiting S. The IS=>IX upgrade must be satisfied first; the waiting
        // S is then *not* grantable (S vs IX conflict).
        let h = head();
        let stats = LockStats::new();
        let holder_s = granted(0, 1, LockMode::S);
        let upgrader = granted(1, 2, LockMode::IS);
        let waiter_s = waiting(2, 3, LockMode::S);
        let mut q = h.latch();
        q.push_granted(holder_s.clone());
        q.push_granted(upgrader.clone());
        q.begin_convert(&upgrader, LockMode::IX); // blocked by holder_s
        q.push_waiting(waiter_s.clone());
        assert_eq!(q.grant_pass(&stats), 0);
        q.release(&holder_s, &stats);
        assert_eq!(upgrader.status(), RequestStatus::Granted);
        assert_eq!(upgrader.mode(), LockMode::IX);
        assert_eq!(
            waiter_s.status(),
            RequestStatus::Waiting,
            "S must not barge past the IX upgrade"
        );
    }

    #[test]
    fn fifo_prefix_granting() {
        // Granted X releases; waiting queue: [S, IS, X, S]. The first two are
        // compatible and granted together, the X blocks, and the trailing S
        // must NOT barge past it.
        let h = head();
        let stats = LockStats::new();
        let x0 = granted(0, 1, LockMode::X);
        let w1 = waiting(1, 2, LockMode::S);
        let w2 = waiting(2, 3, LockMode::IS);
        let w3 = waiting(3, 4, LockMode::X);
        let w4 = waiting(4, 5, LockMode::S);
        let mut q = h.latch();
        q.push_granted(x0.clone());
        for w in [&w1, &w2, &w3, &w4] {
            q.push_waiting((*w).clone());
        }
        q.release(&x0, &stats);
        assert_eq!(w1.status(), RequestStatus::Granted);
        assert_eq!(w2.status(), RequestStatus::Granted);
        assert_eq!(w3.status(), RequestStatus::Waiting);
        assert_eq!(w4.status(), RequestStatus::Waiting, "no barging");
        assert_eq!(q.waiters, 2);
    }

    #[test]
    fn inherited_blocker_is_invalidated_for_a_waiter() {
        let h = head();
        let stats = LockStats::new();
        let inherited = granted(0, 1, LockMode::S);
        assert!(inherited.begin_inheritance());
        let x = waiting(1, 2, LockMode::X);
        let mut q = h.latch();
        q.push_granted_raw_for_test(inherited.clone());
        q.push_waiting(x.clone());
        let granted_n = q.grant_pass(&stats);
        assert_eq!(granted_n, 1);
        assert_eq!(inherited.status(), RequestStatus::Invalid);
        assert_eq!(x.status(), RequestStatus::Granted);
        assert!(q.reqs.iter().all(|r| !Arc::ptr_eq(r, &inherited)));
    }

    #[test]
    fn real_blocker_protects_inherited_neighbors() {
        // A granted S (real) plus an inherited S both conflict with X; the
        // real one cannot be invalidated, so neither should be touched.
        let h = head();
        let stats = LockStats::new();
        let real = granted(0, 1, LockMode::S);
        let inh = granted(1, 2, LockMode::S);
        assert!(inh.begin_inheritance());
        let x = waiting(2, 3, LockMode::X);
        let mut q = h.latch();
        q.push_granted(real.clone());
        q.push_granted_raw_for_test(inh.clone());
        q.push_waiting(x.clone());
        assert_eq!(q.grant_pass(&stats), 0);
        assert_eq!(inh.status(), RequestStatus::Inherited, "not invalidated");
        assert_eq!(x.status(), RequestStatus::Waiting);
    }

    #[test]
    fn waiter_mirror_updates_on_guard_drop() {
        let h = head();
        let w = waiting(0, 1, LockMode::X);
        let g0 = granted(1, 2, LockMode::S);
        {
            let mut q = h.latch();
            q.push_granted(g0);
            q.push_waiting(w);
        }
        assert_eq!(h.waiters_hint(), 1);
    }

    impl LockQueue {
        /// Test helper: push a request that is already Inherited.
        pub(crate) fn push_granted_raw_for_test(&mut self, req: Arc<LockRequest>) {
            assert!(req.status().holds_lock());
            if req.status() == RequestStatus::Inherited {
                self.word.inc_inherited();
            }
            self.granted_counts[req.mode() as usize] += 1;
            self.reqs.push(req);
            self.publish();
        }
    }
}
