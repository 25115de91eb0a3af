//! The database lock manager, with Speculative Lock Inheritance.
//!
//! The acquire path follows Section 3.2: ensure intention locks on
//! ancestors (automatically), then probe the hash table, latch the lock
//! head, and either grant immediately or enqueue and block. The release
//! path at commit runs SLI's candidate selection (Section 4.2) and either
//! passes locks to the agent's inherited list or releases them with a
//! Figure 3 grant pass.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sli_profiler::{Category, Component};

use crate::config::LockManagerConfig;
use crate::deadlock::DigestTable;
use crate::error::LockError;
use crate::head::LockHead;
use crate::htab::LockTable;
use crate::id::{LockId, LockLevel};
use crate::mode::LockMode;
use crate::policy::{keeps_unused, select_candidates, PolicyKind};
use crate::request::{LockRequest, RequestStatus};
use crate::sli::AgentSliState;
use crate::stats::{AgentStats, LockClass, LockStats};
use crate::txn::{Entry, TxnLockState};
use crate::word::FastAcquire;

/// Hash buckets in the lock table (a power of two).
const LOCK_TABLE_BUCKETS: usize = 4096;

/// How often a blocked thread wakes to run deadlock checks.
const DEADLOCK_POLL: Duration = Duration::from_micros(500);

/// The centralized lock manager.
pub struct LockManager {
    config: LockManagerConfig,
    table: LockTable,
    digests: DigestTable,
    stats: LockStats,
    next_txn: AtomicU64,
    next_agent: AtomicU32,
    /// Slots of retired agents, recycled by `register_agent`.
    free_slots: parking_lot::Mutex<Vec<u32>>,
}

impl LockManager {
    /// Create a lock manager.
    pub fn new(config: LockManagerConfig) -> Arc<Self> {
        let table = LockTable::new(LOCK_TABLE_BUCKETS);
        let digests = DigestTable::new(config.max_agents);
        let stats = LockStats::sharded(config.max_agents);
        Arc::new(LockManager {
            config,
            table,
            digests,
            stats,
            next_txn: AtomicU64::new(1),
            next_agent: AtomicU32::new(0),
            free_slots: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &LockManagerConfig {
        &self.config
    }

    /// The inheritance policy.
    pub fn policy(&self) -> PolicyKind {
        self.config.policy
    }

    /// Lock-manager counters, summed over all agents by
    /// [`LockStats::snapshot`].
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// See [`LockTable::quiescent_heads`] (diagnostics and tests).
    pub fn quiescent_heads(&self) -> Result<usize, LockId> {
        self.table.quiescent_heads()
    }

    /// Look up the lock head for `id`, if one exists (diagnostics, tests,
    /// and the harness's lock-census instrumentation).
    pub fn head(&self, id: LockId) -> Option<Arc<LockHead>> {
        self.table.get(id)
    }

    /// Allocate an agent slot (recycling retired ones). Each agent thread
    /// registers once and runs transactions serially.
    pub fn register_agent(&self) -> Result<AgentSliState, LockError> {
        if let Some(slot) = self.free_slots.lock().pop() {
            return Ok(AgentSliState::new(slot));
        }
        // ordering: relaxed — a pure id allocator; uniqueness comes from
        // the atomic RMW, not from memory ordering.
        let slot = self.next_agent.fetch_add(1, Ordering::Relaxed);
        if slot as usize >= self.config.max_agents {
            return Err(LockError::TooManyAgents {
                max: self.config.max_agents,
            });
        }
        Ok(AgentSliState::new(slot))
    }

    /// Raise the transaction-id floor so ids handed out from here on are
    /// at least `floor`. Recovery calls this after replaying a log so new
    /// transactions never reuse an id that appears in the durable prefix.
    pub fn advance_txn_floor(&self, floor: u64) {
        // ordering: relaxed — a pure id allocator (see `register_agent`).
        self.next_txn.fetch_max(floor, Ordering::Relaxed);
    }

    /// Start a transaction on `agent`, pre-populating its lock cache with
    /// the agent's inherited requests (the SLI hand-off).
    ///
    /// This is also where the paper's orphan rule is enforced eagerly: an
    /// inherited lock whose parent is no longer continuously inherited is
    /// invalidated *before any transaction tries to use it*.
    pub fn begin(&self, ts: &mut TxnLockState, agent: &mut AgentSliState) {
        // ordering: relaxed — a pure id allocator (see `register_agent`).
        let seq = self.next_txn.fetch_add(1, Ordering::Relaxed);
        ts.reset(seq);
        if agent.inherited.is_empty() {
            return;
        }
        let _sli = sli_profiler::enter(Category::Work(Component::Sli));
        let stats = self.stats.agent(agent.slot());
        // Validate coarse-to-fine so each child can consult its parent.
        agent.inherited.sort_by_key(|(r, _)| r.lock_id().level());
        let entries = std::mem::take(&mut agent.inherited);
        for (req, head) in entries {
            let id = req.lock_id();
            // The freshly reset cache holds exactly the hand-off entries
            // validated so far, parents first. A parent missing from it was
            // invalidated (now or earlier): the child is an orphan.
            let parent_ok = id.parent().is_none_or(|p| ts.cache.contains_key(&p));
            let st = req.status();
            if st == RequestStatus::Inherited && parent_ok {
                ts.cache
                    .insert(id, Entry::Queued(Arc::clone(&req), Arc::clone(&head)));
                agent.inherited.push((req, head));
            } else {
                if st == RequestStatus::Inherited {
                    // Orphan: invalidate before use.
                    {
                        let mut q = head.latch_untracked();
                        if q.invalidate_inherited(&req) {
                            stats.on_sli_invalidated();
                            q.grant_pass(&self.stats);
                        }
                    }
                    self.maybe_gc_head(&head);
                }
                // Invalid entries were already unlinked by their
                // invalidator; recycling the Arc completes the GC.
                drop(head);
                agent.pool_put(req);
            }
        }
    }

    /// Acquire `mode` on `id` for the transaction, taking intention locks on
    /// all ancestors automatically.
    pub fn lock(
        &self,
        ts: &mut TxnLockState,
        agent: &mut AgentSliState,
        id: LockId,
        mode: LockMode,
    ) -> Result<(), LockError> {
        if ts.aborted {
            return Err(LockError::TxnAborted);
        }
        let _work = sli_profiler::enter(Category::Work(Component::LockManager));
        let intent = mode.parent_intent();
        let (ancestors, n) = id.ancestors_top_down();
        for &aid in &ancestors[..n] {
            self.lock_one(ts, agent, aid, intent)?;
            // Coarse-grain short circuit: a strong ancestor covers the rest.
            if let Some(held) = ts.held_mode(aid) {
                if held.covers_child(mode) {
                    self.stats.agent(ts.agent_slot).on_coverage_hit();
                    return Ok(());
                }
            }
        }
        self.lock_one(ts, agent, id, mode)
    }

    /// Acquire exactly one lock (no hierarchy walk).
    fn lock_one(
        &self,
        ts: &mut TxnLockState,
        agent: &mut AgentSliState,
        id: LockId,
        mode: LockMode,
    ) -> Result<(), LockError> {
        // The grant-word experiment's metric: page-or-higher intention
        // acquisitions, split by whether they bypassed the head latch.
        let track = mode.is_intent() && id.level().is_page_or_higher();
        let stats = self.stats.agent(ts.agent_slot);
        // --- lock-cache fast paths -------------------------------------
        // A hit touches no reference count: the held heads are shared with
        // other agents, so cloning their `Arc`s would bounce cache lines.
        let entry = match ts.cache.get(&id) {
            None => return self.acquire_fresh(ts, agent, id, mode),
            Some(e) if e.held_by(ts.txn_seq).is_some_and(|m| m.implies(mode)) => {
                stats.on_cache_hit();
                return Ok(());
            }
            Some(e) => e.clone(),
        };
        match entry {
            Entry::Fast(held, head) => {
                // Upgrading a grant-word hold: materialize a queued
                // request at the held mode, then run the normal upgrade.
                let req = self.materialize_fast(ts, agent, id, held, &head);
                if track {
                    stats.on_ancestor_acquire(false);
                }
                return self.upgrade(ts, &req, &head, mode);
            }
            Entry::Queued(req, head) => match req.status() {
                RequestStatus::Granted | RequestStatus::Converting if req.txn() == ts.txn_seq => {
                    if track {
                        stats.on_ancestor_acquire(false);
                    }
                    return self.upgrade(ts, &req, &head, mode);
                }
                RequestStatus::Inherited => {
                    // The SLI fast path: a bare CAS, no latch, no allocation.
                    let _sli = sli_profiler::enter(Category::Work(Component::Sli));
                    if req.try_reclaim(ts.txn_seq) {
                        stats.on_sli_reclaimed();
                        agent.remove(&req);
                        ts.insert_owned(Arc::clone(&req), head);
                        drop(_sli);
                        if req.mode().implies(mode) {
                            if track {
                                stats.on_ancestor_acquire(true);
                            }
                            return Ok(());
                        }
                        if track {
                            stats.on_ancestor_acquire(false);
                        }
                        let Some(Entry::Queued(_, h)) = ts.cache.get(&id).cloned() else {
                            unreachable!("just inserted");
                        };
                        return self.upgrade(ts, &req, &h, mode);
                    }
                    // Lost the race: a conflicting transaction invalidated
                    // the inheritance. Recycle it and any orphaned
                    // children, then fall through to a normal request.
                    ts.cache.remove(&id);
                    agent.remove(&req);
                    self.invalidate_orphans(ts, agent, id);
                    agent.pool_put(req);
                }
                RequestStatus::Invalid => {
                    ts.cache.remove(&id);
                    agent.remove(&req);
                    self.invalidate_orphans(ts, agent, id);
                    agent.pool_put(req);
                }
                _ => {
                    // Stale entry (e.g. Released); drop it.
                    ts.cache.remove(&id);
                }
            },
        }
        self.acquire_fresh(ts, agent, id, mode)
    }

    /// Convert a grant-word fast-path hold into a conventional queued
    /// request (needed for upgrades and conversions, which only the
    /// latched path supports). The queued request is pushed *before* the
    /// fast counter is dropped, so the holder is momentarily
    /// double-counted — conservative — rather than momentarily invisible.
    fn materialize_fast(
        &self,
        ts: &mut TxnLockState,
        agent: &mut AgentSliState,
        id: LockId,
        held: LockMode,
        head: &Arc<LockHead>,
    ) -> Arc<LockRequest> {
        let req = self.make_request(agent, id, ts.txn_seq, held, true);
        {
            let mut q = head.latch_untracked();
            debug_assert!(!q.zombie, "a fast hold pins its head");
            q.push_granted(Arc::clone(&req));
        }
        let idx = held.fast_group_index().expect("fast holds are group modes");
        head.clear_fast_hint(ts.agent_slot);
        if head.grant_word().fast_release(idx) {
            self.stats.agent(ts.agent_slot).on_fastpath_slow_release();
            let mut q = head.latch_untracked();
            q.grant_pass(&self.stats);
        }
        ts.cache
            .insert(id, Entry::Queued(Arc::clone(&req), Arc::clone(head)));
        if let Some(e) = ts
            .requests
            .iter_mut()
            .find(|e| matches!(e, Entry::Fast(_, h) if h.id() == id))
        {
            *e = Entry::Queued(Arc::clone(&req), Arc::clone(head));
        }
        req
    }

    /// Build a request for a fresh acquisition, recycling one from the
    /// agent's free pool when possible — the steady-state acquire then
    /// performs zero heap allocations (the paper's fast path avoids
    /// "allocating requests", Section 4.1).
    fn make_request(
        &self,
        agent: &mut AgentSliState,
        id: LockId,
        txn: u64,
        mode: LockMode,
        granted: bool,
    ) -> Arc<LockRequest> {
        let status = if granted {
            RequestStatus::Granted
        } else {
            RequestStatus::Waiting
        };
        let held = if granted { mode } else { LockMode::NL };
        let stats = self.stats.agent(agent.slot());
        if let Some(mut req) = agent.pool_get() {
            // The pool only admits unshared Arcs, and nothing can clone a
            // pooled request, so exclusive access is guaranteed.
            Arc::get_mut(&mut req)
                .expect("pooled request is unshared")
                .reinit(id, agent.slot(), txn, held, mode, status);
            stats.on_request_pooled();
            return req;
        }
        stats.on_request_allocated();
        if granted {
            Arc::new(LockRequest::new_granted(id, agent.slot(), txn, mode))
        } else {
            Arc::new(LockRequest::new_waiting(id, agent.slot(), txn, mode))
        }
    }

    /// Invalidate any inherited cache entries whose parent `parent_id` is no
    /// longer continuously held, maintaining the paper's orphan rule: "Any
    /// inherited lock 'orphaned' when its parent is invalidated will also be
    /// invalidated before any transaction tries to use it."
    fn invalidate_orphans(
        &self,
        ts: &mut TxnLockState,
        agent: &mut AgentSliState,
        parent_id: LockId,
    ) {
        let orphans: Vec<LockId> = ts
            .cache
            .iter()
            .filter(|(cid, e)| {
                cid.parent() == Some(parent_id)
                    && matches!(e, Entry::Queued(req, _)
                        if req.status() == RequestStatus::Inherited)
            })
            .map(|(cid, _)| *cid)
            .collect();
        for oid in orphans {
            if let Some(Entry::Queued(req, head)) = ts.cache.remove(&oid) {
                {
                    let mut q = head.latch_untracked();
                    if q.invalidate_inherited(&req) {
                        self.stats.agent(ts.agent_slot).on_sli_invalidated();
                    }
                }
                agent.remove(&req);
                self.maybe_gc_head(&head);
                self.invalidate_orphans(ts, agent, oid);
                agent.pool_put(req);
            }
        }
    }

    /// Probe the hash table for `id`'s head, serving database/table levels
    /// from the agent's cross-transaction memo so the steady-state
    /// hierarchy walk skips the bucket latch entirely. Those heads are
    /// permanent (see [`LockManager::maybe_gc_head`]), so a memo entry
    /// never goes stale.
    fn probe_head(&self, agent: &mut AgentSliState, id: LockId) -> Arc<LockHead> {
        if id.level() > LockLevel::Table {
            return self.table.get_or_create(id);
        }
        if let Some(h) = agent.memoized_head(id) {
            debug_assert!(!h.grant_word().is_zombie(), "{id} heads never retire");
            self.stats.agent(agent.slot()).on_headcache_hit();
            return Arc::clone(h);
        }
        let head = self.table.get_or_create(id);
        self.stats.agent(agent.slot()).on_headcache_miss();
        agent.memoize_head(id, Arc::clone(&head));
        head
    }

    /// The normal acquire path: probe, then either a grant-word CAS (fast
    /// group modes, uncontended heads) or latch + grant-or-wait.
    fn acquire_fresh(
        &self,
        ts: &mut TxnLockState,
        agent: &mut AgentSliState,
        id: LockId,
        mode: LockMode,
    ) -> Result<(), LockError> {
        let stats = self.stats.agent(ts.agent_slot);
        stats.on_lock_request();
        let track = mode.is_intent() && id.level().is_page_or_higher();
        let fp = self.config.fastpath;
        // The fast path is attempted for group-compatible modes unless
        // this acquire is the agent's every-Nth heat-sampling fall-through
        // (heat sampling must keep seeing a fraction of the traffic — and,
        // under SLI, only latched acquires produce requests that can be
        // inherited).
        let mut try_fast = mode.fast_group_index().is_some();
        if try_fast && agent.fastpath_should_sample(fp.sample_every) {
            stats.on_fastpath_sampled();
            try_fast = false;
        }
        loop {
            let head = self.probe_head(agent, id);
            if try_fast {
                let idx = mode.fast_group_index().expect("checked above");
                match head.grant_word().try_fast_acquire(idx, fp.retry_budget) {
                    FastAcquire::Granted => {
                        // No latch, no LockRequest, no queue entry: the
                        // txn cache records a lightweight fast entry and
                        // release is a counter decrement.
                        stats.on_fastpath_granted();
                        head.publish_fast_hint(ts.agent_slot);
                        if track {
                            stats.on_ancestor_acquire(true);
                        }
                        ts.insert_fast(mode, head);
                        return Ok(());
                    }
                    FastAcquire::Zombie => continue, // raced with head removal; re-probe
                    FastAcquire::Conflict => {
                        stats.on_fastpath_fallback();
                        try_fast = false;
                    }
                    FastAcquire::Contended => {
                        stats.on_fastpath_retry_exhausted();
                        try_fast = false;
                    }
                }
            }
            let req;
            let must_wait;
            {
                let mut q = head.latch_observe(ts.agent_slot);
                if q.zombie {
                    continue; // raced with head removal; re-probe
                }
                if q.waiters == 0 && q.compatible_with_granted(mode, None) && q.claim_queued(mode) {
                    // Immediate grant (pool-recycled request: no alloc).
                    // `claim_queued` set the word's queue-side flag for
                    // `mode` in the same CAS that validated there is no
                    // conflicting fast-path holder, so no fast grant can
                    // interleave with this admission.
                    req = self.make_request(agent, id, ts.txn_seq, mode, true);
                    q.push_granted(Arc::clone(&req));
                    must_wait = false;
                } else {
                    // Raise the word's WAIT barrier *before* the grant
                    // pass scans: from here no new fast grant can slip in,
                    // so the scan's view of the fast counters is
                    // conservative (they only decrease), and a fast
                    // releaser that decrements after the barrier sees the
                    // flag and re-runs the grant pass itself — no lost
                    // wakeup, and no fast reader can barge past us.
                    q.begin_scan();
                    // Enqueue FIFO; the grant pass may still admit us (and
                    // will invalidate inherited blockers if they are the
                    // only obstacle).
                    req = self.make_request(agent, id, ts.txn_seq, mode, false);
                    q.push_waiting(Arc::clone(&req));
                    q.grant_pass(&self.stats);
                    must_wait = req.status() != RequestStatus::Granted;
                }
            }
            if must_wait {
                if let Err(e) = self.wait_for_grant(ts, &head, &req, mode, false) {
                    // The victim path unlinked the request from the queue;
                    // recycle it for the retry after abort.
                    agent.pool_put(req);
                    return Err(e);
                }
            }
            if track {
                stats.on_ancestor_acquire(false);
            }
            ts.insert_owned(req, head);
            return Ok(());
        }
    }

    /// Upgrade an existing granted request to `sup(current, mode)`.
    fn upgrade(
        &self,
        ts: &mut TxnLockState,
        req: &Arc<LockRequest>,
        head: &Arc<LockHead>,
        mode: LockMode,
    ) -> Result<(), LockError> {
        self.stats.agent(ts.agent_slot).on_upgrade();
        let must_wait;
        {
            let mut q = head.latch();
            debug_assert!(!q.zombie, "head cannot die while we hold a request");
            let target = req.mode().supremum(mode);
            if req.mode() == target {
                return Ok(());
            }
            // The in-place swap must claim the word's queue-side flag for
            // the target mode in one validated CAS, or a concurrent fast
            // grant could admit a mode incompatible with the upgrade.
            if q.compatible_with_granted(target, Some(req)) && q.claim_queued(target) {
                q.swap_granted_mode(req, target);
                return Ok(());
            }
            // Barrier before the conversion scan: freezes fast admissions
            // so the grant pass sees monotone-decreasing fast counters.
            q.begin_scan();
            q.begin_convert(req, target);
            // The grant pass handles inherited-only blockers.
            q.grant_pass(&self.stats);
            must_wait = req.status() != RequestStatus::Granted;
        }
        if must_wait {
            self.wait_for_grant(ts, head, req, mode, true)?;
        }
        Ok(())
    }

    /// Block until `req` is granted, polling for deadlocks. On error the
    /// request has been removed from the queue (or the conversion rolled
    /// back) and the transaction should abort.
    fn wait_for_grant(
        &self,
        ts: &TxnLockState,
        head: &Arc<LockHead>,
        req: &Arc<LockRequest>,
        mode: LockMode,
        is_convert: bool,
    ) -> Result<(), LockError> {
        let _lock_wait = sli_profiler::enter(Category::LockWait);
        let slot = ts.agent_slot;
        let stats = self.stats.agent(slot);
        stats.on_block();
        let deadline = Instant::now() + self.config.lock_timeout;
        let mut blockers: Vec<u32> = Vec::with_capacity(8);
        // One digest allocation per blocked wait, reused across polls.
        let mut digest = self.digests.make_set();
        loop {
            let st = req.wait_for_grant(DEADLOCK_POLL, deadline);
            if st == RequestStatus::Granted {
                self.digests.clear(slot);
                return Ok(());
            }
            let timed_out = Instant::now() >= deadline;
            let mut deadlocked = false;
            if !timed_out {
                // Poll: re-run the grant pass (a lock may have been
                // inherited after we enqueued; the pass invalidates such
                // blockers), then collect blockers for Dreadlocks.
                // Untracked: repeated polls by one blocked thread say
                // nothing new about demand and would flood the hot window
                // with cold samples on exactly the locks that have waiters.
                blockers.clear();
                {
                    let mut q = head.latch_untracked();
                    q.grant_pass(&self.stats);
                    if req.status() != RequestStatus::Granted {
                        q.collect_blockers(req, mode, &mut blockers);
                    }
                }
                if req.status() == RequestStatus::Granted {
                    self.digests.clear(slot);
                    return Ok(());
                }
                // Fast holders carry no queue entry, so the scan above
                // can't see them. If a conflicting fast hold exists, fold
                // in the grant word's last-grantee hint so a cycle through
                // a fast-held edge still closes (instead of resolving only
                // by timeout). Over-inclusion is conservative: a stale
                // hint can at worst abort one extra transaction.
                if head.grant_word().fast_conflicts_with(mode) {
                    if let Some(a) = head.fast_hint() {
                        if a != slot && !blockers.contains(&a) {
                            blockers.push(a);
                        }
                    }
                }
                deadlocked = self
                    .digests
                    .check_and_publish_with(slot, &blockers, &mut digest)
                    && self.blocks_a_waiter(ts, head, &mut blockers);
            }
            if timed_out || deadlocked {
                // Victim path: undo the enqueue (or conversion) unless a
                // grant slipped in while we decided.
                let granted_late;
                {
                    let mut q = head.latch_untracked();
                    granted_late = req.status() == RequestStatus::Granted;
                    if !granted_late {
                        if is_convert {
                            q.cancel_convert(req);
                        } else {
                            q.unlink(req);
                            req.mark_released();
                        }
                        q.grant_pass(&self.stats);
                    }
                }
                self.digests.clear(slot);
                if granted_late {
                    return Ok(());
                }
                self.maybe_gc_head(head);
                return if deadlocked {
                    stats.on_deadlock();
                    Err(LockError::Deadlock {
                        waiting_for: req.lock_id(),
                        mode,
                    })
                } else {
                    stats.on_timeout();
                    Err(LockError::Timeout {
                        waiting_for: req.lock_id(),
                        mode,
                    })
                };
            }
        }
    }

    /// Confirm a Dreadlocks hit before choosing this waiter as the victim.
    /// Digests are recomputed only on each waiter's poll, so a blocker's
    /// published digest can still name this agent for a hold it released
    /// before its current wait began (a reader that commits and re-queues
    /// behind a writer whose last poll saw its old S). A real cycle through
    /// this agent needs another agent blocked right now by one of its holds
    /// or by its own queued request; with none, the hit is stale.
    fn blocks_a_waiter(
        &self,
        ts: &TxnLockState,
        waiting_on: &Arc<LockHead>,
        scratch: &mut Vec<u32>,
    ) -> bool {
        let slot = ts.agent_slot;
        std::iter::once((waiting_on, None))
            .chain(ts.requests.iter().map(|e| match e {
                Entry::Queued(_, h) => (h, None),
                Entry::Fast(m, h) => (h, Some(*m)),
            }))
            .any(|(head, fast)| head.latch_untracked().blocks_a_waiter(slot, fast, scratch))
    }

    /// Finish a transaction: run SLI candidate selection (on commit) and
    /// release or inherit every lock. Also garbage-collects the agent's
    /// previous inherited list (unused / invalidated entries).
    pub fn end_txn(&self, ts: &mut TxnLockState, agent: &mut AgentSliState, commit: bool) {
        let _work = sli_profiler::enter(Category::Work(Component::LockManager));
        let stats = self.stats.agent(agent.slot());
        let sli_cfg = &self.config.sli;
        // Requests released during this pass, recycled into the agent's
        // free pool at the very end — only after `ts.cache` drops its
        // clones, or the exclusivity check would reject every one of them.
        // The buffer itself is agent-owned scratch so the commit path
        // allocates nothing in steady state.
        let mut released = std::mem::take(&mut agent.release_scratch);
        debug_assert!(released.is_empty());

        // Phase 1: resolve leftovers from the previous hand-off. Requests
        // reclaimed by this transaction were already removed; what remains
        // was never used ("inheritance fails harmlessly") or was
        // invalidated by a conflicting transaction.
        if !agent.inherited.is_empty() {
            let _sli = sli_profiler::enter(Category::Work(Component::Sli));
            let leftovers = std::mem::take(&mut agent.inherited);
            for (req, head) in leftovers {
                match req.status() {
                    RequestStatus::Invalid => {
                        // Already unlinked by the invalidator; recycle.
                        released.push(req);
                    }
                    RequestStatus::Inherited => {
                        // Keep the unused hand-off parked for another
                        // generation, or drop it.
                        // ordering: relaxed — only the owning agent reads
                        // and writes this GC counter.
                        let unused = req.unused_generations.load(Ordering::Relaxed);
                        let keep = commit && keeps_unused(sli_cfg, &head, unused as u32);
                        if keep {
                            // ordering: owner-only GC counter (see above).
                            req.unused_generations.store(unused + 1, Ordering::Relaxed);
                            agent.inherited.push((req, head));
                        } else {
                            self.discard_inherited(stats, &req, &head);
                            released.push(req);
                        }
                    }
                    other => debug_assert!(false, "inherited entry in impossible state {other:?}"),
                }
            }
        }

        // Phase 2: forward pass — SLI selects the inheritance candidates
        // over the held-lock list (acquisition order, so parents precede
        // children and criterion 5 can consult the parent's decision).
        // Grant-word holds are never candidates; the sampling fall-through
        // gives hot heads a steady trickle of queued (inheritable) requests,
        // and an inherited request leaves every other agent's compatible
        // acquire on the fast path.
        let decisions = if commit && self.config.policy.inherits() {
            let _sli = sli_profiler::enter(Category::Work(Component::Sli));
            select_candidates(sli_cfg, &ts.requests)
        } else {
            vec![false; ts.requests.len()]
        };
        // Census (Figure 8): classify what SLI could target. Aborted
        // transactions are excluded so high-abort workloads don't inflate
        // the per-commit denominators. The parent criterion is dynamic, so
        // the static classification treats it as satisfiable.
        if commit {
            for (e, &inherited) in ts.requests.iter().zip(&decisions) {
                self.record_census(stats, e.id(), e.mode(), e.head(), inherited);
            }
        }

        // Phase 3: reverse pass — youngest first, as Shore-MT does, so
        // children are released before their parents (a fast-path parent
        // must outlive its latched children for the same reason).
        let entries = std::mem::take(&mut ts.requests);
        for (i, entry) in entries.into_iter().enumerate().rev() {
            let (req, head) = match entry {
                Entry::Fast(mode, head) => {
                    self.release_fast(ts.agent_slot, mode, &head);
                    continue;
                }
                Entry::Queued(req, head) => (req, head),
            };
            // Selection only picks Granted requests, and only the owner
            // moves a Granted request, so the status CAS succeeds; the
            // request keeps counting as a granted holder on the queue, so
            // the grant word needs no update.
            if decisions[i] && req.begin_inheritance() {
                stats.on_sli_inherited();
                agent.inherited.push((req, head));
            } else {
                self.release_one(&req, &head);
                released.push(req);
            }
        }

        if commit {
            stats.on_commit();
        } else {
            stats.on_abort();
        }
        ts.cache.clear();
        ts.aborted = false;
        // Recycle: with the cache's clones dropped, each released request
        // is normally unshared again and feeds the next transaction's
        // allocation-free acquires (pool_put re-verifies exclusivity).
        for req in released.drain(..) {
            agent.pool_put(req);
        }
        agent.release_scratch = released;
    }

    /// Retire an agent: release everything still parked on it and recycle
    /// its slot. Must be called before the agent thread exits, or its
    /// inherited locks would linger until invalidated.
    pub fn retire_agent(&self, agent: &mut AgentSliState) {
        let stats = self.stats.agent(agent.slot());
        let leftovers = std::mem::take(&mut agent.inherited);
        for (req, head) in leftovers {
            if req.status() == RequestStatus::Inherited {
                self.discard_inherited(stats, &req, &head);
            }
        }
        agent.clear_head_memo();
        self.digests.clear(agent.slot());
        self.free_slots.lock().push(agent.slot());
    }

    fn record_census(
        &self,
        stats: &AgentStats,
        id: LockId,
        mode: LockMode,
        head: &LockHead,
        inherited: bool,
    ) {
        let sli_cfg = &self.config.sli;
        let hot = head.hot().is_hot(sli_cfg.hot_threshold);
        let class = if hot {
            let heritable = id.level() <= sli_cfg.min_level
                && mode.is_shared_for_sli()
                && head.waiters_hint() == 0;
            if heritable {
                LockClass::HotHeritable
            } else {
                LockClass::HotNonHeritable
            }
        } else if id.level() == LockLevel::Record {
            LockClass::ColdRow
        } else {
            LockClass::ColdHigh
        };
        if hot && !inherited && self.config.policy.inherits() {
            stats.on_sli_hot_not_inherited();
        }
        stats.on_census(class);
    }

    /// Release a grant-word fast-path hold: one counter decrement. If the
    /// WAIT flag was up at decrement time a waiter may have been blocked
    /// (in part) by this hold, so the releaser takes the latch and runs a
    /// grant pass — the slow half of the no-lost-wakeup protocol.
    fn release_fast(&self, slot: u32, mode: LockMode, head: &Arc<LockHead>) {
        let idx = mode.fast_group_index().expect("fast holds are group modes");
        head.clear_fast_hint(slot);
        if head.grant_word().fast_release(idx) {
            self.stats.agent(slot).on_fastpath_slow_release();
            let mut q = head.latch_untracked();
            q.grant_pass(&self.stats);
        }
        self.maybe_gc_head(head);
    }

    /// Release one granted request and maybe GC its head.
    fn release_one(&self, req: &Arc<LockRequest>, head: &Arc<LockHead>) {
        {
            let mut q = head.latch();
            if req.status().holds_lock() {
                q.release(req, &self.stats);
            }
        }
        self.maybe_gc_head(head);
    }

    /// Release an inherited-but-unused request ("In the worst case a
    /// transaction ... pays the cost of releasing the lock which the
    /// previous transaction avoided" — charged to SLI, not the lock
    /// manager).
    fn discard_inherited(&self, stats: &AgentStats, req: &Arc<LockRequest>, head: &Arc<LockHead>) {
        {
            // Untracked: dropping an unused hand-off is maintenance, not
            // demand — a cold sample here would cool the lock at the very
            // moment other agents' hysteresis decisions consult it.
            let mut q = head.latch_untracked();
            // Serialized with invalidators by the latch; our own reclaim
            // cannot race (we are the owning agent).
            if req.status() == RequestStatus::Inherited {
                q.release(req, &self.stats);
                stats.on_sli_discarded();
            }
        }
        self.maybe_gc_head(head);
    }

    /// Remove a record's lock head from the hash table if its queue
    /// drained. Page, table and database heads are permanent: every
    /// transaction re-requests them, so freeing one only re-allocates it
    /// (and resets its hot window) a moment later. Their number is bounded
    /// by heap pages, which are never deallocated, plus tables plus one.
    fn maybe_gc_head(&self, head: &Arc<LockHead>) {
        // Opportunistic: peek without latching; remove_if_empty re-checks
        // under both latches (and the grant word's retire CAS refuses
        // while fast-path holders exist).
        if head.id().level().is_page_or_higher() || head.grant_word().fast_total() > 0 {
            return;
        }
        let empty = {
            match head.try_latch_untracked() {
                Some(q) => q.is_empty() && !q.zombie,
                None => false,
            }
        };
        if empty {
            self.table.remove_if_empty(head);
        }
    }
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("live_heads", &self.table.len())
            .field("policy", &self.config.policy.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::TableId;
    use std::time::Duration;

    fn mgr(sli: bool) -> Arc<LockManager> {
        let kind = if sli {
            crate::PolicyKind::PaperSli
        } else {
            crate::PolicyKind::Baseline
        };
        let mut cfg = LockManagerConfig::with_policy(kind);
        cfg.lock_timeout = Duration::from_millis(500);
        LockManager::new(cfg)
    }

    /// Like [`mgr`], but every acquire is sampled onto the latched path:
    /// tests of the SLI hand-off and the request pool need every
    /// acquisition to be a *queued* request (fast-path holds carry no
    /// `LockRequest` and can neither be inherited nor pooled).
    fn mgr_latched(sli: bool) -> Arc<LockManager> {
        let kind = if sli {
            crate::PolicyKind::PaperSli
        } else {
            crate::PolicyKind::Baseline
        };
        let mut cfg = LockManagerConfig::with_policy(kind);
        cfg.lock_timeout = Duration::from_millis(500);
        cfg.fastpath = crate::config::FastPathConfig::disabled();
        LockManager::new(cfg)
    }

    /// Force a lock head hot by feeding its tracker contended samples.
    fn heat(m: &LockManager, id: LockId) {
        let head = m.table.get_or_create(id);
        for _ in 0..16 {
            head.hot().record(true);
        }
    }

    fn rec(t: u32, p: u32, s: u16) -> LockId {
        LockId::Record(TableId(t), p, s)
    }

    #[test]
    fn hierarchy_is_acquired_automatically() {
        let m = mgr(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 2, 3), LockMode::X)
            .unwrap();
        assert_eq!(ts.held_mode(LockId::Database), Some(LockMode::IX));
        assert_eq!(ts.held_mode(LockId::Table(TableId(1))), Some(LockMode::IX));
        assert_eq!(
            ts.held_mode(LockId::Page(TableId(1), 2)),
            Some(LockMode::IX)
        );
        assert_eq!(ts.held_mode(rec(1, 2, 3)), Some(LockMode::X));
        assert_eq!(ts.locks_held(), 4);
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(ts.locks_held(), 0);
        assert_eq!(
            m.quiescent_heads(),
            Ok(3),
            "record head GCed; db, table, page retained idle"
        );
    }

    #[test]
    fn page_head_is_retained_with_its_hot_window() {
        let m = mgr_latched(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        let page = LockId::Page(TableId(1), 0);
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        heat(&m, page);
        m.end_txn(&mut ts, &mut agent, true);
        let first = m.head(page).expect("page head retained after commit");
        let sli = &m.config().sli;
        assert!(first.hot().is_hot(sli.hot_threshold));
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 1), LockMode::S)
            .unwrap();
        m.end_txn(&mut ts, &mut agent, true);
        let second = m.head(page).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same head across txns");
        // One uncontended latched sample shifted in: still hot at the
        // default threshold.
        assert!(second.hot().is_hot(sli.hot_threshold));
        assert!(!second.grant_word().is_zombie());
        m.retire_agent(&mut agent);
    }

    #[test]
    fn record_head_is_zombied_and_unlinked_when_its_queue_drains() {
        let m = mgr(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        let id = rec(1, 0, 0);
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, id, LockMode::X).unwrap();
        let head = m.head(id).unwrap();
        m.end_txn(&mut ts, &mut agent, true);
        assert!(m.head(id).is_none(), "unlinked from its bucket");
        assert!(head.latch_untracked().zombie);
        assert!(head.grant_word().is_zombie());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, id, LockMode::X).unwrap();
        assert!(!Arc::ptr_eq(&head, &m.head(id).unwrap()), "fresh head");
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(m.quiescent_heads(), Ok(3));
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let m = mgr(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        let before = m.stats().snapshot();
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        let after = m.stats().snapshot();
        assert_eq!(after.lock_requests, before.lock_requests);
        assert!(after.cache_hits > before.cache_hits);
        m.end_txn(&mut ts, &mut agent, true);
    }

    #[test]
    fn coarse_lock_covers_children() {
        let m = mgr(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, LockId::Table(TableId(1)), LockMode::S)
            .unwrap();
        let before = ts.locks_held();
        m.lock(&mut ts, &mut agent, rec(1, 5, 5), LockMode::S)
            .unwrap();
        assert_eq!(ts.locks_held(), before, "covered: no new locks");
        assert!(m.stats().snapshot().coverage_hits >= 1);
        m.end_txn(&mut ts, &mut agent, true);
    }

    #[test]
    fn upgrade_s_then_x_same_record() {
        let m = mgr(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::X)
            .unwrap();
        assert_eq!(ts.held_mode(rec(1, 0, 0)), Some(LockMode::X));
        // Ancestors upgraded IS -> IX as well.
        assert_eq!(ts.held_mode(LockId::Table(TableId(1))), Some(LockMode::IX));
        m.end_txn(&mut ts, &mut agent, true);
    }

    #[test]
    fn conflicting_x_blocks_until_commit() {
        let m = mgr(false);
        let id = rec(1, 0, 0);
        let mut a1 = m.register_agent().unwrap();
        let mut ts1 = TxnLockState::new(a1.slot());
        m.begin(&mut ts1, &mut a1);
        m.lock(&mut ts1, &mut a1, id, LockMode::X).unwrap();

        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            let mut a2 = m2.register_agent().unwrap();
            let mut ts2 = TxnLockState::new(a2.slot());
            m2.begin(&mut ts2, &mut a2);
            let started = std::time::Instant::now();
            m2.lock(&mut ts2, &mut a2, rec(1, 0, 0), LockMode::X)
                .unwrap();
            let waited = started.elapsed();
            m2.end_txn(&mut ts2, &mut a2, true);
            waited
        });
        std::thread::sleep(Duration::from_millis(50));
        m.end_txn(&mut ts1, &mut a1, true);
        let waited = h.join().unwrap();
        assert!(waited >= Duration::from_millis(30), "waited {waited:?}");
    }

    #[test]
    fn sli_inherits_hot_high_level_locks() {
        let m = mgr_latched(true);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        // Make db/table/page hot before commit.
        heat(&m, LockId::Database);
        heat(&m, LockId::Table(TableId(1)));
        heat(&m, LockId::Page(TableId(1), 0));
        m.end_txn(&mut ts, &mut agent, true);
        // db, table, page inherited; record released (criterion 1).
        assert_eq!(agent.inherited_count(), 3);
        let snap = m.stats().snapshot();
        assert_eq!(snap.sli_inherited, 3);
        assert_eq!(snap.census_hot_heritable, 3);
        assert_eq!(snap.census_cold_row, 1);
    }

    #[test]
    fn sli_reclaim_avoids_lock_manager() {
        let m = mgr_latched(true);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        heat(&m, LockId::Database);
        heat(&m, LockId::Table(TableId(1)));
        heat(&m, LockId::Page(TableId(1), 0));
        m.end_txn(&mut ts, &mut agent, true);

        let before = m.stats().snapshot();
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 1), LockMode::S)
            .unwrap();
        let after = m.stats().snapshot();
        assert_eq!(after.sli_reclaimed - before.sli_reclaimed, 3);
        // Only the record itself went through the lock manager.
        assert_eq!(after.lock_requests - before.lock_requests, 1);
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(agent.inherited_count(), 3, "re-inherited");
    }

    #[test]
    fn unused_inherited_locks_are_discarded_at_next_commit() {
        let m = mgr_latched(true);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        heat(&m, LockId::Database);
        heat(&m, LockId::Table(TableId(1)));
        heat(&m, LockId::Page(TableId(1), 0));
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(agent.inherited_count(), 3);

        // Next transaction touches a different table entirely.
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(2, 0, 0), LockMode::S)
            .unwrap();
        m.end_txn(&mut ts, &mut agent, true);
        let snap = m.stats().snapshot();
        // db lock was reclaimed (same root); table/page of table 1 discarded.
        assert_eq!(snap.sli_discarded, 2);
        assert!(agent.inherited_ids().all(|id| match id {
            LockId::Table(t) => t == TableId(2),
            LockId::Page(t, _) => t == TableId(2),
            LockId::Database => true,
            _ => false,
        }));
    }

    #[test]
    fn conflicting_request_invalidates_inherited_lock() {
        let m = mgr_latched(true);
        // Agent 0 inherits an S lock on the table.
        let mut a0 = m.register_agent().unwrap();
        let mut ts0 = TxnLockState::new(a0.slot());
        m.begin(&mut ts0, &mut a0);
        m.lock(&mut ts0, &mut a0, LockId::Table(TableId(1)), LockMode::S)
            .unwrap();
        heat(&m, LockId::Database);
        heat(&m, LockId::Table(TableId(1)));
        m.end_txn(&mut ts0, &mut a0, true);
        assert_eq!(a0.inherited_count(), 2);

        // Agent 1 wants X on the table: the inherited S must be invalidated
        // without blocking.
        let mut a1 = m.register_agent().unwrap();
        let mut ts1 = TxnLockState::new(a1.slot());
        m.begin(&mut ts1, &mut a1);
        let t0 = std::time::Instant::now();
        m.lock(&mut ts1, &mut a1, LockId::Table(TableId(1)), LockMode::X)
            .unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "should not block"
        );
        let snap = m.stats().snapshot();
        assert!(snap.sli_invalidated >= 1);
        m.end_txn(&mut ts1, &mut a1, true);

        // Agent 0's next transaction finds the invalidated entry and falls
        // back to a fresh request.
        m.begin(&mut ts0, &mut a0);
        m.lock(&mut ts0, &mut a0, LockId::Table(TableId(1)), LockMode::S)
            .unwrap();
        assert_eq!(ts0.held_mode(LockId::Table(TableId(1))), Some(LockMode::S));
        m.end_txn(&mut ts0, &mut a0, true);
    }

    #[test]
    fn orphaned_children_are_invalidated_with_parent() {
        let m = mgr_latched(true);
        let mut a0 = m.register_agent().unwrap();
        let mut ts0 = TxnLockState::new(a0.slot());
        m.begin(&mut ts0, &mut a0);
        m.lock(&mut ts0, &mut a0, rec(1, 0, 0), LockMode::S)
            .unwrap();
        heat(&m, LockId::Database);
        heat(&m, LockId::Table(TableId(1)));
        heat(&m, LockId::Page(TableId(1), 0));
        m.end_txn(&mut ts0, &mut a0, true);
        assert_eq!(a0.inherited_count(), 3);

        // A conflicting X on the *table* invalidates the inherited table
        // lock (the page lock below it is now an orphan).
        let mut a1 = m.register_agent().unwrap();
        let mut ts1 = TxnLockState::new(a1.slot());
        m.begin(&mut ts1, &mut a1);
        m.lock(&mut ts1, &mut a1, LockId::Table(TableId(1)), LockMode::X)
            .unwrap();
        m.end_txn(&mut ts1, &mut a1, true);

        // Agent 0 re-reads the same record: the orphaned page inheritance
        // must NOT be reclaimed even though its status is still Inherited.
        m.begin(&mut ts0, &mut a0);
        m.lock(&mut ts0, &mut a0, rec(1, 0, 0), LockMode::S)
            .unwrap();
        assert_eq!(ts0.held_mode(rec(1, 0, 0)), Some(LockMode::S));
        m.end_txn(&mut ts0, &mut a0, true);
        // The page entry was invalidated as an orphan rather than reclaimed:
        let snap = m.stats().snapshot();
        assert!(snap.sli_invalidated >= 2, "table + orphaned page");
    }

    #[test]
    fn deadlock_is_detected_and_one_txn_aborts() {
        let m = mgr(false);
        let id_a = rec(1, 0, 0);
        let id_b = rec(1, 0, 1);
        let barrier = Arc::new(std::sync::Barrier::new(2));

        let spawn = |first: LockId, second: LockId| {
            let m = Arc::clone(&m);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut agent = m.register_agent().unwrap();
                let mut ts = TxnLockState::new(agent.slot());
                m.begin(&mut ts, &mut agent);
                m.lock(&mut ts, &mut agent, first, LockMode::X).unwrap();
                barrier.wait();
                let r = m.lock(&mut ts, &mut agent, second, LockMode::X);
                m.end_txn(&mut ts, &mut agent, r.is_ok());
                r
            })
        };
        let h1 = spawn(id_a, id_b);
        let h2 = spawn(id_b, id_a);
        let r1 = h1.join().unwrap();
        let r2 = h2.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "at least one victim: {r1:?} {r2:?}"
        );
        assert!(
            r1.is_ok() || r2.is_ok(),
            "at most one victim in a 2-cycle: {r1:?} {r2:?}"
        );
        let snap = m.stats().snapshot();
        assert!(snap.deadlocks >= 1 || snap.timeouts >= 1);
    }

    /// `lock_timeout` is the safety net behind Dreadlocks: a wait with no
    /// cycle (the holder is simply slow to commit) ends in a retryable
    /// `Timeout`, and the lock is grantable again once the holder commits.
    #[test]
    fn lock_timeout_fires_without_a_deadlock_cycle() {
        let m =
            LockManager::new(LockManagerConfig::default().lock_timeout(Duration::from_millis(100)));
        let id = rec(1, 0, 0);
        let mut holder = m.register_agent().unwrap();
        let mut held = TxnLockState::new(holder.slot());
        m.begin(&mut held, &mut holder);
        m.lock(&mut held, &mut holder, id, LockMode::X).unwrap();

        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        let err = m.lock(&mut ts, &mut agent, id, LockMode::X).unwrap_err();
        assert!(matches!(err, LockError::Timeout { .. }), "{err:?}");
        assert!(err.is_retryable());
        m.end_txn(&mut ts, &mut agent, false);
        let snap = m.stats().snapshot();
        assert_eq!((snap.timeouts, snap.deadlocks), (1, 0));

        m.end_txn(&mut held, &mut holder, true);
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, id, LockMode::X).unwrap();
        m.end_txn(&mut ts, &mut agent, true);
        m.retire_agent(&mut holder);
        m.retire_agent(&mut agent);
    }

    #[test]
    fn fast_held_cycle_is_detected_by_dreadlocks() {
        // A fast-holds S on `fast_id` (no queue entry, no LockRequest)
        // and waits for X on `slow_id`; B holds X on `slow_id` and waits
        // for X on `fast_id`. Without the grant word's fast-holder hint
        // this cycle has no digest edge naming A and resolves only by the
        // lock timeout — the generous timeout here would make the test
        // hang for 10 s and then fail the Deadlock match below.
        let mut cfg = LockManagerConfig::with_policy(crate::PolicyKind::Baseline);
        cfg.lock_timeout = Duration::from_secs(10);
        // Make the S acquire deterministically fast (no heat-sampling
        // fall-through to the latched path).
        cfg.fastpath.sample_every = 0;
        let m = LockManager::new(cfg);
        let fast_id = rec(1, 0, 0);
        let slow_id = rec(1, 0, 1);
        let barrier = Arc::new(std::sync::Barrier::new(2));

        let spawn = |first: LockId, first_mode: LockMode, second: LockId| {
            let m = Arc::clone(&m);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut agent = m.register_agent().unwrap();
                let mut ts = TxnLockState::new(agent.slot());
                m.begin(&mut ts, &mut agent);
                m.lock(&mut ts, &mut agent, first, first_mode).unwrap();
                barrier.wait();
                let r = m.lock(&mut ts, &mut agent, second, LockMode::X);
                m.end_txn(&mut ts, &mut agent, r.is_ok());
                r
            })
        };
        let a = spawn(fast_id, LockMode::S, slow_id);
        let b = spawn(slow_id, LockMode::X, fast_id);
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        let snap = m.stats().snapshot();
        assert!(
            snap.fastpath_granted >= 1,
            "precondition: the S hold must be a grant-word fast grant"
        );
        assert!(ra.is_err() || rb.is_err(), "cycle: {ra:?} {rb:?}");
        let failed = if ra.is_err() { &ra } else { &rb };
        assert!(
            matches!(failed, Err(LockError::Deadlock { .. })),
            "a fast-held cycle must resolve by detection, not timeout: {ra:?} {rb:?}"
        );
        assert_eq!(snap.timeouts, 0, "no blocked thread waited out the clock");
        assert!(snap.deadlocks >= 1);
    }

    #[test]
    fn abort_releases_everything_without_inheritance() {
        let m = mgr(true);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::X)
            .unwrap();
        heat(&m, LockId::Table(TableId(1)));
        m.end_txn(&mut ts, &mut agent, false);
        assert_eq!(agent.inherited_count(), 0);
        assert_eq!(m.quiescent_heads(), Ok(3));
        assert_eq!(m.stats().snapshot().aborts, 1);
    }

    #[test]
    fn retire_agent_releases_inherited_locks() {
        let m = mgr_latched(true);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        heat(&m, LockId::Database);
        heat(&m, LockId::Table(TableId(1)));
        heat(&m, LockId::Page(TableId(1), 0));
        m.end_txn(&mut ts, &mut agent, true);
        assert!(agent.inherited_count() > 0);
        m.retire_agent(&mut agent);
        assert_eq!(agent.inherited_count(), 0);
        assert_eq!(
            m.quiescent_heads(),
            Ok(3),
            "no inherited request left behind"
        );
    }

    #[test]
    fn sli_disabled_never_inherits() {
        let m = mgr(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        heat(&m, LockId::Database);
        heat(&m, LockId::Table(TableId(1)));
        heat(&m, LockId::Page(TableId(1), 0));
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(agent.inherited_count(), 0);
        assert_eq!(m.stats().snapshot().sli_inherited, 0);
    }

    #[test]
    fn warm_pool_makes_steady_state_acquires_allocation_free() {
        let m = mgr_latched(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        // Warm-up transaction: allocates one request per lock (db, table,
        // page, record); commit releases them into the agent's pool.
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        m.end_txn(&mut ts, &mut agent, true);
        let warm = m.stats().snapshot();
        assert_eq!(warm.requests_allocated, 4, "cold start allocates");
        assert_eq!(agent.pooled_count(), 4, "released requests pooled");
        // Steady state: every fresh acquire recycles from the pool.
        for _ in 0..100 {
            m.begin(&mut ts, &mut agent);
            m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
                .unwrap();
            m.end_txn(&mut ts, &mut agent, true);
        }
        let after = m.stats().snapshot();
        assert_eq!(
            after.requests_allocated, warm.requests_allocated,
            "steady-state uncontended acquire must not heap-allocate"
        );
        assert_eq!(
            after.requests_pooled - warm.requests_pooled,
            400,
            "4 locks x 100 transactions all served by the pool"
        );
        m.retire_agent(&mut agent);
    }

    #[test]
    fn pool_capacity_is_respected() {
        let m = mgr_latched(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        // db, table, page and 70 records: 73 queued requests released by
        // one commit, more than the pool holds.
        for s in 0..70 {
            m.lock(&mut ts, &mut agent, rec(1, 0, s), LockMode::S)
                .unwrap();
        }
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(agent.pooled_count(), 64, "pool capped below locks/txn");
        m.retire_agent(&mut agent);
    }

    #[test]
    fn fast_path_grants_whole_hierarchy_without_queue_entries() {
        let m = mgr(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        // db IS, table IS, page IS, record S: all group modes on fresh
        // heads — every one takes the grant-word CAS.
        assert_eq!(ts.locks_held(), 4);
        assert_eq!(ts.fast_locks_held(), 4);
        let snap = m.stats().snapshot();
        assert_eq!(snap.fastpath_granted, 4);
        assert_eq!(snap.requests_allocated, 0, "no LockRequest materialized");
        // The heads carry the counts, their queues stay empty.
        let head = m.head(LockId::Table(TableId(1))).unwrap();
        assert_eq!(head.grant_word().fast_counts(), [1, 0, 0]);
        assert!(head.latch_untracked().is_empty());
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(
            m.quiescent_heads(),
            Ok(3),
            "fast release GCs the record head"
        );
    }

    #[test]
    fn ancestor_bypass_metric_tracks_fast_and_latched_acquires() {
        let m = mgr(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        m.end_txn(&mut ts, &mut agent, true);
        let fast = m.stats().snapshot();
        assert_eq!(fast.ancestor_acquires, 3, "db, table, page intents");
        assert_eq!(fast.ancestor_bypassed, 3);
        assert!((fast.ancestor_bypass_rate() - 1.0).abs() < 1e-9);

        let m2 = mgr_latched(false);
        let mut agent = m2.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m2.begin(&mut ts, &mut agent);
        m2.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        m2.end_txn(&mut ts, &mut agent, true);
        let latched = m2.stats().snapshot();
        assert_eq!(latched.ancestor_acquires, 3);
        assert_eq!(latched.ancestor_bypassed, 0);
    }

    #[test]
    fn fast_entry_upgrade_materializes_a_queued_request() {
        let m = mgr(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        let t1 = LockId::Table(TableId(1));
        m.lock(&mut ts, &mut agent, t1, LockMode::S).unwrap();
        assert_eq!(ts.holds_fast(t1), Some(LockMode::S));
        // S + IX = SIX: the upgrade cannot stay latch-free.
        m.lock(&mut ts, &mut agent, t1, LockMode::IX).unwrap();
        assert_eq!(ts.held_mode(t1), Some(LockMode::SIX));
        assert_eq!(ts.holds_fast(t1), None, "materialized into the queue");
        let head = m.head(t1).unwrap();
        assert_eq!(head.grant_word().fast_total(), 0);
        assert_eq!(head.latch_untracked().granted_mode(), LockMode::SIX);
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(m.quiescent_heads(), Ok(2));
    }

    #[test]
    fn conflicting_x_waits_behind_fast_holder_and_is_woken_by_release() {
        let m = mgr(false);
        let id = rec(1, 0, 0);
        let mut a1 = m.register_agent().unwrap();
        let mut ts1 = TxnLockState::new(a1.slot());
        m.begin(&mut ts1, &mut a1);
        m.lock(&mut ts1, &mut a1, id, LockMode::S).unwrap();
        let head = m.head(id).unwrap();
        assert_eq!(ts1.holds_fast(id), Some(LockMode::S));

        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            let mut a2 = m2.register_agent().unwrap();
            let mut ts2 = TxnLockState::new(a2.slot());
            m2.begin(&mut ts2, &mut a2);
            m2.lock(&mut ts2, &mut a2, rec(1, 0, 0), LockMode::X)
                .unwrap();
            m2.end_txn(&mut ts2, &mut a2, true);
        });
        // Deterministic sync: the X request must actually enqueue behind
        // the fast hold (no fixed sleeps — loaded hosts make timing-based
        // thresholds flaky).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while head.waiters_hint() == 0 {
            assert!(std::time::Instant::now() < deadline, "X never blocked");
            std::thread::yield_now();
        }
        assert_eq!(
            head.grant_word().fast_counts(),
            [0, 0, 1],
            "the fast S hold is what blocks it"
        );
        // Commit releases the fast S hold; the releaser sees WAIT and
        // wakes the X waiter via a grant pass.
        m.end_txn(&mut ts1, &mut a1, true);
        h.join().unwrap();
        assert!(m.stats().snapshot().fastpath_slow_releases >= 1);
    }

    #[test]
    fn ancestor_head_memo_skips_the_bucket_latch() {
        let m = mgr(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        for _ in 0..3 {
            m.begin(&mut ts, &mut agent);
            m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
                .unwrap();
            m.end_txn(&mut ts, &mut agent, true);
        }
        let snap = m.stats().snapshot();
        // db + table probes: cold misses on the first txn, memo hits on
        // the next two (those heads are permanent).
        assert_eq!(agent.memoized_heads(), 2);
        assert_eq!(snap.headcache_misses, 2);
        assert_eq!(snap.headcache_hits, 4);
        m.retire_agent(&mut agent);
        assert_eq!(agent.memoized_heads(), 0);
    }

    #[test]
    fn memoized_head_survives_and_hits_when_head_stays_live() {
        // A second agent keeps the table head alive across the first
        // agent's transactions, so the memo actually hits.
        let m = mgr(false);
        let mut pin = m.register_agent().unwrap();
        let mut ts_pin = TxnLockState::new(pin.slot());
        m.begin(&mut ts_pin, &mut pin);
        m.lock(&mut ts_pin, &mut pin, rec(1, 9, 9), LockMode::S)
            .unwrap();

        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        for _ in 0..4 {
            m.begin(&mut ts, &mut agent);
            m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
                .unwrap();
            m.end_txn(&mut ts, &mut agent, true);
        }
        let snap = m.stats().snapshot();
        assert!(
            snap.headcache_hits >= 6,
            "db+table hits on warm txns, got {}",
            snap.headcache_hits
        );
        m.end_txn(&mut ts_pin, &mut pin, true);
    }

    #[test]
    fn sampling_fallthrough_feeds_sli_inheritance_with_fastpath_on() {
        // With the fast path enabled, SLI must still converge: every Nth
        // acquire goes latched, gets heat-sampled, and produces a queued
        // request the commit can inherit; the agent's next transaction
        // reclaims it from its lock cache instead of acquiring afresh.
        let mut cfg = LockManagerConfig::with_policy(crate::PolicyKind::PaperSli);
        cfg.fastpath.sample_every = 4;
        let m = LockManager::new(cfg);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        for i in 0..32u16 {
            m.begin(&mut ts, &mut agent);
            m.lock(&mut ts, &mut agent, rec(1, 0, i % 4), LockMode::S)
                .unwrap();
            // Keep the hierarchy artificially hot (a single agent cannot
            // generate cross-agent sharing).
            heat(&m, LockId::Database);
            heat(&m, LockId::Table(TableId(1)));
            heat(&m, LockId::Page(TableId(1), 0));
            m.end_txn(&mut ts, &mut agent, true);
        }
        let snap = m.stats().snapshot();
        assert!(snap.fastpath_sampled > 0, "sampling fall-through fired");
        assert!(
            snap.sli_inherited > 0,
            "sampled latched acquires must feed inheritance"
        );
        assert!(
            snap.sli_reclaimed > 0,
            "inherited entries must be reclaimed on later txns"
        );
        m.retire_agent(&mut agent);
    }

    #[test]
    fn disabled_config_samples_every_acquire_onto_the_latched_path() {
        let m = mgr_latched(false);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0, 0), LockMode::S)
            .unwrap();
        m.end_txn(&mut ts, &mut agent, true);
        let snap = m.stats().snapshot();
        assert_eq!(snap.fastpath_granted, 0);
        assert_eq!(snap.fastpath_sampled, 4, "one per group-mode acquire");
        assert_eq!(snap.requests_allocated, 4);
    }

    #[test]
    fn concurrent_mixed_workload_is_safe() {
        let m = mgr(true);
        let threads = 8;
        let txns = 200;
        let mut handles = Vec::new();
        for t in 0..threads {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut agent = m.register_agent().unwrap();
                let mut ts = TxnLockState::new(agent.slot());
                let mut committed = 0;
                for i in 0..txns {
                    m.begin(&mut ts, &mut agent);
                    let r1 = m.lock(&mut ts, &mut agent, rec(1, 0, (i % 16) as u16), LockMode::S);
                    let r2 = if i % 7 == 0 {
                        m.lock(
                            &mut ts,
                            &mut agent,
                            rec(1, 1, ((i + t) % 16) as u16),
                            LockMode::X,
                        )
                    } else {
                        Ok(())
                    };
                    let ok = r1.is_ok() && r2.is_ok();
                    m.end_txn(&mut ts, &mut agent, ok);
                    if ok {
                        committed += 1;
                    }
                }
                m.retire_agent(&mut agent);
                committed
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        let snap = m.stats().snapshot();
        assert_eq!(snap.commits, total);
        assert_eq!(m.quiescent_heads(), Ok(4), "db, table, two pages; no leaks");
    }

    #[test]
    fn two_phase_locking_preserves_exclusive_updates() {
        // Classic lost-update check: X locks serialize read-modify-write.
        let m = mgr(true);
        let value = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads = 8;
        let per = 250;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let m = Arc::clone(&m);
            let value = Arc::clone(&value);
            handles.push(std::thread::spawn(move || {
                let mut agent = m.register_agent().unwrap();
                let mut ts = TxnLockState::new(agent.slot());
                let mut done = 0;
                while done < per {
                    m.begin(&mut ts, &mut agent);
                    match m.lock(&mut ts, &mut agent, rec(9, 0, 0), LockMode::X) {
                        Ok(()) => {
                            let v = value.load(Ordering::Relaxed);
                            std::hint::spin_loop();
                            value.store(v + 1, Ordering::Relaxed);
                            m.end_txn(&mut ts, &mut agent, true);
                            done += 1;
                        }
                        Err(_) => {
                            m.end_txn(&mut ts, &mut agent, false);
                        }
                    }
                }
                m.retire_agent(&mut agent);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(value.load(Ordering::Relaxed), threads * per);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::id::TableId;

    fn rec(t: u32, s: u16) -> LockId {
        LockId::Record(TableId(t), 0, s)
    }

    fn heat(m: &LockManager, id: LockId) {
        let head = m.table.get_or_create(id);
        for _ in 0..16 {
            head.hot().record(true);
        }
    }

    #[test]
    fn hysteresis_keeps_unused_locks_for_extra_generations() {
        let mut cfg = LockManagerConfig::default();
        cfg.sli.hysteresis = 2;
        // Inheritance tests need queued acquisitions: every acquire
        // sampled onto the latched path.
        cfg.fastpath = crate::config::FastPathConfig::disabled();
        let m = LockManager::new(cfg);
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        // Inherit table 1's lock chain.
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0), LockMode::S).unwrap();
        heat(&m, LockId::Database);
        heat(&m, LockId::Table(TableId(1)));
        heat(&m, LockId::Page(TableId(1), 0));
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(agent.inherited_count(), 3);

        // Two transactions on a different table: the unused locks survive
        // (hysteresis 2), though the hot window must stay hot.
        for _ in 0..2 {
            heat(&m, LockId::Table(TableId(1)));
            heat(&m, LockId::Page(TableId(1), 0));
            m.begin(&mut ts, &mut agent);
            m.lock(&mut ts, &mut agent, rec(2, 0), LockMode::S).unwrap();
            heat(&m, LockId::Table(TableId(2)));
            heat(&m, LockId::Page(TableId(2), 0));
            m.end_txn(&mut ts, &mut agent, true);
            assert!(
                agent
                    .inherited_ids()
                    .any(|id| id == LockId::Table(TableId(1))),
                "table-1 lock dropped too early"
            );
        }
        // Third unused generation exceeds the hysteresis: dropped.
        heat(&m, LockId::Table(TableId(1)));
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(2, 1), LockMode::S).unwrap();
        m.end_txn(&mut ts, &mut agent, true);
        assert!(
            !agent
                .inherited_ids()
                .any(|id| id == LockId::Table(TableId(1))),
            "hysteresis must be bounded"
        );
        m.retire_agent(&mut agent);
    }

    #[test]
    fn max_inherited_per_txn_caps_the_hand_off() {
        let m = LockManager::new(LockManagerConfig {
            fastpath: crate::config::FastPathConfig::disabled(),
            ..LockManagerConfig::default()
        });
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        // Touch 70 pages of one table: candidates = db, table, 70 pages.
        for p in 0..70u32 {
            m.lock(
                &mut ts,
                &mut agent,
                LockId::Record(TableId(1), p, 0),
                LockMode::S,
            )
            .unwrap();
            heat(&m, LockId::Page(TableId(1), p));
        }
        heat(&m, LockId::Database);
        heat(&m, LockId::Table(TableId(1)));
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(agent.inherited_count(), 64, "cap respected");
        m.retire_agent(&mut agent);
    }

    #[test]
    fn six_mode_acquisition_and_release() {
        let m = LockManager::new(LockManagerConfig::with_policy(crate::PolicyKind::Baseline));
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        // S then IX on the same table -> SIX.
        m.lock(&mut ts, &mut agent, LockId::Table(TableId(1)), LockMode::S)
            .unwrap();
        m.lock(&mut ts, &mut agent, LockId::Table(TableId(1)), LockMode::IX)
            .unwrap();
        assert_eq!(ts.held_mode(LockId::Table(TableId(1))), Some(LockMode::SIX));
        // SIX covers child reads but not child writes.
        m.lock(&mut ts, &mut agent, rec(1, 3), LockMode::S).unwrap();
        assert_eq!(
            ts.held_mode(rec(1, 3)),
            None,
            "S-read under SIX is covered, no record lock taken"
        );
        m.lock(&mut ts, &mut agent, rec(1, 4), LockMode::X).unwrap();
        assert_eq!(ts.held_mode(rec(1, 4)), Some(LockMode::X));
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(m.quiescent_heads(), Ok(3));
        m.retire_agent(&mut agent);
    }

    #[test]
    fn aborts_do_not_record_census_passes() {
        let m = LockManager::new(LockManagerConfig::default());
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0), LockMode::X).unwrap();
        m.end_txn(&mut ts, &mut agent, false);
        let snap = m.stats().snapshot();
        assert_eq!(snap.aborts, 1);
        assert_eq!(
            snap.census_total, 0,
            "aborted locks must not inflate Figure 8 denominators"
        );
        m.begin(&mut ts, &mut agent);
        m.lock(&mut ts, &mut agent, rec(1, 0), LockMode::X).unwrap();
        m.end_txn(&mut ts, &mut agent, true);
        assert_eq!(m.stats().snapshot().census_total, 4, "commits still do");
        m.retire_agent(&mut agent);
    }

    /// Every counter of a snapshot, read off its `Debug` text (no field
    /// name holds a digit) so none can be forgotten.
    fn counters(s: &crate::LockStatsSnapshot) -> Vec<u64> {
        format!("{s:?}")
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|n| n.parse().ok())
            .collect()
    }

    /// Each agent bumps its own shard without an atomic RMW; nothing may be
    /// lost when agents run side by side, a snapshot taken mid-run must be
    /// field-wise monotone, and a slot that changes hands keeps its counts.
    #[test]
    fn sharded_stats_are_exact_monotone_and_survive_slot_reuse() {
        const AGENTS: u64 = 4;
        const GENERATIONS: u64 = 2;
        const TXNS: u64 = 500;
        const RECORDS: u64 = 4;
        let mut cfg = LockManagerConfig::with_policy(crate::PolicyKind::Baseline);
        // No heat-sampling fall-through and no CAS give-up: every fresh
        // acquire below is exactly one grant-word grant, whatever the
        // interleaving (the agents only ever take IS and S).
        cfg.fastpath.sample_every = 0;
        cfg.fastpath.retry_budget = u32::MAX;
        let m = LockManager::new(cfg);
        for _ in 0..GENERATIONS {
            let start = std::sync::Barrier::new(AGENTS as usize + 1);
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..AGENTS)
                    .map(|_| {
                        s.spawn(|| {
                            let mut agent = m.register_agent().unwrap();
                            // The second generation runs on the slots (and
                            // shards) the first retired.
                            assert!(u64::from(agent.slot()) < AGENTS);
                            let table = 1 + agent.slot();
                            let mut ts = TxnLockState::new(agent.slot());
                            start.wait();
                            for t in 0..TXNS {
                                m.begin(&mut ts, &mut agent);
                                for r in 0..RECORDS as u16 {
                                    m.lock(&mut ts, &mut agent, rec(table, r), LockMode::S)
                                        .unwrap();
                                }
                                m.lock(&mut ts, &mut agent, rec(table, 0), LockMode::S)
                                    .unwrap();
                                m.end_txn(&mut ts, &mut agent, t % 5 != 0);
                            }
                            m.retire_agent(&mut agent);
                        })
                    })
                    .collect();
                start.wait();
                let mut prev = m.stats().snapshot();
                while !workers.iter().all(|w| w.is_finished()) {
                    let next = m.stats().snapshot();
                    assert!(
                        counters(&prev)
                            .iter()
                            .zip(counters(&next))
                            .all(|(a, b)| *a <= b),
                        "a counter went backwards: {prev:?} then {next:?}"
                    );
                    prev = next;
                }
            });
        }
        let txns = AGENTS * GENERATIONS * TXNS;
        let commits = txns / 5 * 4;
        // Per transaction: database, table, page and RECORDS records are
        // fresh; every later `lock` re-walks three cached ancestors, and
        // the repeated record is a fourth hit.
        let fresh = 3 + RECORDS;
        let snap = m.stats().snapshot();
        assert_eq!(snap.commits, commits);
        assert_eq!(snap.aborts, txns - commits);
        assert_eq!(snap.lock_requests, txns * fresh);
        assert_eq!(snap.fastpath_granted, txns * fresh);
        assert_eq!(snap.cache_hits, txns * (3 * (RECORDS - 1) + 4));
        assert_eq!(snap.ancestor_acquires, txns * 3);
        assert_eq!(snap.ancestor_bypassed, txns * 3);
        // Only commits are censused, and nothing was ever latched, so
        // nothing is hot.
        assert_eq!(snap.census_total, commits * fresh);
        assert_eq!(snap.census_cold_row, commits * RECORDS);
        assert_eq!(snap.census_cold_high, commits * 3);
        assert_eq!(snap.hot_locks(), 0);
        assert_eq!(m.quiescent_heads(), Ok(1 + 2 * AGENTS as usize));
    }
}
