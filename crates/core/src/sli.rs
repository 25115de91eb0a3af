//! Agent-side Speculative Lock Inheritance state.
//!
//! "During the lock release phase of transaction commit, the transaction's
//! agent thread identifies promising candidate locks and places them in a
//! thread-local lock list instead of releasing them. It then initializes the
//! next transaction's lock list with these previously acquired locks hoping
//! that the new transaction will use some of them." (Section 4)
//!
//! [`AgentSliState`] is that thread-local list. The inheritance decision
//! logic itself lives in [`crate::LockManager::end_txn`]; this module holds
//! the state and the criteria predicate so ablation experiments can probe it
//! directly.

use std::sync::Arc;

use crate::config::SliConfig;
use crate::head::LockHead;
use crate::id::LockId;
use crate::mode::LockMode;
use crate::request::LockRequest;
use crate::txn::QueuedEntry;

/// Default capacity of the per-agent [`LockRequest`] free pool (see
/// [`crate::LockManagerConfig::request_pool_cap`]).
pub const DEFAULT_REQUEST_POOL_CAP: usize = 64;

/// Capacity of the per-agent ancestor-head memo (database + table heads).
/// Small and scanned linearly: transactions touch a handful of tables.
const HEAD_MEMO_CAP: usize = 16;

/// Thread-local inherited-lock list for one agent thread, plus the agent's
/// [`LockRequest`] free pool.
///
/// The pool makes the steady-state acquire path allocation-free: released
/// requests whose `Arc` is provably unshared are parked here and recycled
/// by the next fresh acquire instead of `Arc::new` (the paper stresses the
/// fast path should not be "allocating requests", Section 4.1).
pub struct AgentSliState {
    slot: u32,
    pub(crate) inherited: Vec<QueuedEntry>,
    /// Recycled, unshared requests (capacity-capped).
    pool: Vec<Arc<LockRequest>>,
    pool_cap: usize,
    /// Reusable commit-path scratch for released requests awaiting
    /// recycling, so `end_txn` itself allocates nothing in steady state.
    pub(crate) release_scratch: Vec<Arc<LockRequest>>,
    /// Memoized database/table lock heads, kept across transactions so the
    /// steady-state hierarchy walk skips the hash table's bucket latch
    /// entirely. Those heads are never retired, so entries never go stale.
    head_memo: Vec<(LockId, Arc<LockHead>)>,
    /// Xorshift state driving the 1-in-N heat-sampling fall-through. A
    /// plain modulo counter resonates with fixed locks-per-transaction
    /// workloads (every txn would sample the *same* hierarchy position —
    /// e.g. always the record, never the database — and SLI's hot signal
    /// would never reach the ancestors); the PRNG decorrelates the sample
    /// position from the transaction shape.
    fastpath_rng: u32,
}

impl AgentSliState {
    /// State for agent `slot` with an empty inherited list and the default
    /// request-pool capacity.
    pub fn new(slot: u32) -> Self {
        Self::with_pool_cap(slot, DEFAULT_REQUEST_POOL_CAP)
    }

    /// State for agent `slot` with an explicit request-pool capacity
    /// (0 disables pooling).
    pub fn with_pool_cap(slot: u32, pool_cap: usize) -> Self {
        AgentSliState {
            slot,
            inherited: Vec::with_capacity(16),
            pool: Vec::with_capacity(pool_cap.min(16)),
            pool_cap,
            release_scratch: Vec::with_capacity(16),
            head_memo: Vec::with_capacity(HEAD_MEMO_CAP),
            // Knuth-hash the slot into a nonzero xorshift seed so agents
            // sample different phases.
            fastpath_rng: slot.wrapping_mul(2654435761).wrapping_add(1) | 1,
        }
    }

    /// Look up a memoized lock head, skipping the bucket-latch probe.
    pub(crate) fn memoized_head(&self, id: LockId) -> Option<&Arc<LockHead>> {
        self.head_memo
            .iter()
            .find(|(mid, _)| *mid == id)
            .map(|(_, h)| h)
    }

    /// Memoize a head the memo missed, evicting the oldest entry at
    /// capacity.
    pub(crate) fn memoize_head(&mut self, id: LockId, head: Arc<LockHead>) {
        if self.head_memo.len() >= HEAD_MEMO_CAP {
            self.head_memo.remove(0);
        }
        self.head_memo.push((id, head));
    }

    /// Drop every memoized head (agent retirement).
    pub(crate) fn clear_head_memo(&mut self) {
        self.head_memo.clear();
    }

    /// Number of memoized ancestor heads (diagnostics).
    pub fn memoized_heads(&self) -> usize {
        self.head_memo.len()
    }

    /// Roll the sampling PRNG; returns true (with probability ~1/`every`)
    /// when this acquire must fall through to the latched path for policy
    /// heat sampling (`every` = 0 disables sampling).
    pub(crate) fn fastpath_should_sample(&mut self, every: u32) -> bool {
        if every == 0 {
            return false;
        }
        // Xorshift32 (Marsaglia): three shifts, no multiplies.
        let mut x = self.fastpath_rng;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.fastpath_rng = x;
        x.is_multiple_of(every)
    }

    /// Number of requests currently parked in the free pool.
    pub fn pooled_count(&self) -> usize {
        self.pool.len()
    }

    /// Take a recycled request from the pool, if any.
    pub(crate) fn pool_get(&mut self) -> Option<Arc<LockRequest>> {
        self.pool.pop()
    }

    /// Offer a released request back to the pool. Accepts it only when the
    /// pool has room and the `Arc` is unshared (no queue, cache, or foreign
    /// reference survives), so a pooled request can never be observed by
    /// anyone but its next `reinit`. Returns whether the request was kept.
    pub(crate) fn pool_put(&mut self, mut req: Arc<LockRequest>) -> bool {
        debug_assert!(
            !req.status().holds_lock(),
            "pooling a request that still holds a lock"
        );
        if self.pool.len() >= self.pool_cap || Arc::get_mut(&mut req).is_none() {
            return false;
        }
        self.pool.push(req);
        true
    }

    /// The agent's slot (identity for deadlock digests).
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Number of requests currently parked on this agent.
    pub fn inherited_count(&self) -> usize {
        self.inherited.len()
    }

    /// Remove a specific request (it was reclaimed or invalidated).
    pub(crate) fn remove(&mut self, req: &Arc<LockRequest>) {
        if let Some(pos) = self.inherited.iter().position(|(r, _)| Arc::ptr_eq(r, req)) {
            self.inherited.swap_remove(pos);
        }
    }

    /// Iterate over currently inherited lock ids (diagnostics/tests).
    pub fn inherited_ids(&self) -> impl Iterator<Item = LockId> + '_ {
        self.inherited.iter().map(|(r, _)| r.lock_id())
    }
}

impl std::fmt::Debug for AgentSliState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentSliState")
            .field("slot", &self.slot)
            .field("inherited", &self.inherited.len())
            .finish()
    }
}

/// Evaluate the paper's five inheritance criteria (Section 4.2) for one
/// granted lock at commit time.
///
/// This is the reference predicate behind [`crate::PolicyKind::PaperSli`]; it stays a
/// free function so ablation fixtures can probe it directly and so the
/// policy implementations can be verified against it.
///
/// * `parent_inherited` — whether the lock's parent was selected for
///   inheritance in the same pass (`None` for the hierarchy root).
///
/// Criterion 2 (hotness) is evaluated against the lock head's contention
/// window; the remaining criteria are structural. Every criterion but 3
/// (a shared mode, which consistency needs) can be relaxed through
/// [`SliConfig`] for the ablation experiments.
pub fn is_inheritance_candidate(
    cfg: &SliConfig,
    id: LockId,
    mode: LockMode,
    head: &LockHead,
    parent_inherited: Option<bool>,
) -> bool {
    // 1. "The lock is page-level or higher in the hierarchy."
    if id.level() > cfg.min_level {
        return false;
    }
    // 2. "The lock is 'hot' (i.e. contention for the latch protecting it)."
    if !head.hot().is_hot(cfg.hot_threshold) {
        return false;
    }
    // 3. "The lock is held in a shared mode (e.g. S, IS, IX)."
    if !mode.is_shared_for_sli() {
        return false;
    }
    // 4. "No other transaction is waiting on the lock."
    if cfg.require_no_waiters && head.waiters_hint() > 0 {
        return false;
    }
    // 5. "The previous conditions also hold for the lock's parent, if any."
    if cfg.require_parent {
        if let Some(parent_ok) = parent_inherited {
            if !parent_ok {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::TableId;
    use crate::mode::LockMode;

    fn hot_head(id: LockId) -> Arc<LockHead> {
        let h = LockHead::new(id);
        for _ in 0..16 {
            h.hot().record(true);
        }
        h
    }

    fn cold_head(id: LockId) -> Arc<LockHead> {
        let h = LockHead::new(id);
        for _ in 0..16 {
            h.hot().record(false);
        }
        h
    }

    #[test]
    fn all_five_criteria_must_hold() {
        let cfg = SliConfig::default();
        let tid = LockId::Table(TableId(1));
        let hot = hot_head(tid);
        assert!(is_inheritance_candidate(
            &cfg,
            tid,
            LockMode::IS,
            &hot,
            Some(true)
        ));
        // 1. record-level fails
        let rid = LockId::Record(TableId(1), 0, 0);
        assert!(!is_inheritance_candidate(
            &cfg,
            rid,
            LockMode::S,
            &hot_head(rid),
            Some(true)
        ));
        // 2. cold fails
        assert!(!is_inheritance_candidate(
            &cfg,
            tid,
            LockMode::IS,
            &cold_head(tid),
            Some(true)
        ));
        // 3. exclusive mode fails
        assert!(!is_inheritance_candidate(
            &cfg,
            tid,
            LockMode::X,
            &hot,
            Some(true)
        ));
        assert!(!is_inheritance_candidate(
            &cfg,
            tid,
            LockMode::SIX,
            &hot,
            Some(true)
        ));
        // 5. parent not inherited fails
        assert!(!is_inheritance_candidate(
            &cfg,
            tid,
            LockMode::IS,
            &hot,
            Some(false)
        ));
        // root has no parent
        assert!(is_inheritance_candidate(
            &cfg,
            LockId::Database,
            LockMode::IS,
            &hot_head(LockId::Database),
            None
        ));
    }

    #[test]
    fn criterion_4_rejects_waiters() {
        let cfg = SliConfig::default();
        let tid = LockId::Table(TableId(2));
        let head = hot_head(tid);
        {
            let mut q = head.latch();
            let w = Arc::new(LockRequest::new_waiting(tid, 1, 9, LockMode::X));
            q.push_waiting(w);
        }
        assert!(head.waiters_hint() > 0);
        assert!(!is_inheritance_candidate(
            &cfg,
            tid,
            LockMode::IS,
            &head,
            Some(true)
        ));
    }

    #[test]
    fn ablation_toggles_relax_individual_criteria() {
        let tid = LockId::Table(TableId(1));
        let hot = hot_head(tid);
        let cfg = SliConfig {
            require_parent: false,
            ..SliConfig::default()
        };
        assert!(is_inheritance_candidate(
            &cfg,
            tid,
            LockMode::IS,
            &hot,
            Some(false)
        ));
        let cfg = SliConfig {
            min_level: crate::id::LockLevel::Record,
            ..SliConfig::default()
        };
        let rid = LockId::Record(TableId(1), 0, 0);
        assert!(is_inheritance_candidate(
            &cfg,
            rid,
            LockMode::S,
            &hot_head(rid),
            Some(true)
        ));
    }

    #[test]
    fn criterion_3_holds_with_every_other_criterion_relaxed() {
        let cfg = SliConfig {
            hot_threshold: 0.0,
            min_level: crate::id::LockLevel::Record,
            require_no_waiters: false,
            require_parent: false,
            hysteresis: 0,
        };
        let tid = LockId::Table(TableId(1));
        let hot = hot_head(tid);
        for mode in [LockMode::X, LockMode::SIX] {
            assert!(!is_inheritance_candidate(&cfg, tid, mode, &hot, None));
        }
        assert!(is_inheritance_candidate(
            &cfg,
            tid,
            LockMode::IX,
            &hot,
            None
        ));
    }

    #[test]
    fn agent_state_remove_by_identity() {
        let mut a = AgentSliState::new(3);
        let id = LockId::Table(TableId(1));
        let head = LockHead::new(id);
        let r1 = Arc::new(LockRequest::new_granted(id, 3, 1, LockMode::IS));
        let r2 = Arc::new(LockRequest::new_granted(
            LockId::Database,
            3,
            1,
            LockMode::IS,
        ));
        a.inherited.push((Arc::clone(&r1), Arc::clone(&head)));
        a.inherited
            .push((Arc::clone(&r2), LockHead::new(LockId::Database)));
        assert_eq!(a.inherited_count(), 2);
        a.remove(&r1);
        assert_eq!(a.inherited_count(), 1);
        assert_eq!(a.inherited_ids().next(), Some(LockId::Database));
        assert_eq!(a.slot(), 3);
    }
}
