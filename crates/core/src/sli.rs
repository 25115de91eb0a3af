//! Speculative Lock Inheritance, in one place.
//!
//! "During the lock release phase of transaction commit, the transaction's
//! agent thread identifies promising candidate locks and places them in a
//! thread-local lock list instead of releasing them. It then initializes the
//! next transaction's lock list with these previously acquired locks hoping
//! that the new transaction will use some of them." (Section 4)
//!
//! [`AgentSliState`] is that thread-local list. [`Sli`] is every step that
//! touches it, and the lock manager's only way in: [`Sli::select`] and
//! [`Sli::park`] at commit, [`Sli::hand_off`] at begin, [`Sli::reclaim`]
//! on a cache hit, and [`Sli::settle`] for what the next transaction left
//! unused. An inherited lock is a queued request in state `Inherited`;
//! outside this module only the lock queue (whose grant pass invalidates
//! inherited blockers) and the manager's cache routing know that.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sli_profiler::{Category, Component};

use crate::config::{LockManagerConfig, SliConfig};
use crate::head::LockHead;
use crate::htab::LockTable;
use crate::id::{LockId, LockLevel};
use crate::mode::LockMode;
use crate::request::{LockRequest, RequestStatus};
use crate::stats::{AgentStats, LockClass, LockStats};
use crate::txn::{Entry, QueuedEntry, TxnLockState};

/// Capacity of the per-agent [`LockRequest`] free pool.
const REQUEST_POOL_CAP: usize = 64;

/// Capacity of the per-agent ancestor-head memo (database + table heads).
/// Small and scanned linearly: transactions touch a handful of tables.
const HEAD_MEMO_CAP: usize = 16;

/// Cap on how many locks a single commit may pass on. Bounds the size of
/// agent inherited lists in pathological workloads.
const MAX_INHERITED_PER_TXN: usize = 64;

/// Which lock policy the lock manager runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PolicyKind {
    /// The unmodified baseline lock manager: every acquire goes through the
    /// latch-protected release + re-acquire pair; nothing is ever
    /// inherited.
    Baseline,
    /// The paper's policy: Section 4.2's five criteria, with criterion 2
    /// fed by the combined latch-collision + cross-agent-sharing heat
    /// signal (`LockHead::latch_observe`, recorded under both policies so
    /// a baseline run still measures the Figure 8 census). The default.
    #[default]
    PaperSli,
}

impl PolicyKind {
    /// Both policies, baseline first.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::Baseline, PolicyKind::PaperSli];

    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "baseline",
            PolicyKind::PaperSli => "paper-sli",
        }
    }

    /// Whether this policy ever parks locks on agents.
    #[inline]
    pub fn inherits(self) -> bool {
        self == PolicyKind::PaperSli
    }
}

/// Thread-local inherited-lock list for one agent thread, plus the agent's
/// [`LockRequest`] free pool.
///
/// The pool makes the steady-state acquire path allocation-free: released
/// requests whose `Arc` is provably unshared are parked here and recycled
/// by the next fresh acquire instead of `Arc::new` (the paper stresses the
/// fast path should not be "allocating requests", Section 4.1).
pub struct AgentSliState {
    slot: u32,
    inherited: Vec<QueuedEntry>,
    /// Recycled, unshared requests (capacity-capped).
    pool: Vec<Arc<LockRequest>>,
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
    /// State for agent `slot` with an empty inherited list and an empty
    /// request pool.
    pub fn new(slot: u32) -> Self {
        AgentSliState {
            slot,
            inherited: Vec::with_capacity(16),
            pool: Vec::with_capacity(16),
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
        if self.pool.len() >= REQUEST_POOL_CAP || Arc::get_mut(&mut req).is_none() {
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
    fn remove(&mut self, req: &Arc<LockRequest>) {
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

/// The lock manager's view of SLI for one call: its policy and knobs, the
/// counters, and the table (for head GC).
pub(crate) struct Sli<'a> {
    policy: PolicyKind,
    cfg: &'a SliConfig,
    stats: &'a LockStats,
    table: &'a LockTable,
}

impl<'a> Sli<'a> {
    pub(crate) fn new(
        config: &'a LockManagerConfig,
        stats: &'a LockStats,
        table: &'a LockTable,
    ) -> Self {
        Sli {
            policy: config.policy,
            cfg: &config.sli,
            stats,
            table,
        }
    }

    /// Seed a fresh transaction's lock cache with the agent's parked
    /// requests. Validation runs coarse-to-fine and enforces the orphan
    /// rule eagerly: "Any inherited lock 'orphaned' when its parent is
    /// invalidated will also be invalidated before any transaction tries
    /// to use it."
    pub(crate) fn hand_off(&self, ts: &mut TxnLockState, agent: &mut AgentSliState) {
        if agent.inherited.is_empty() {
            return;
        }
        let _sli = sli_profiler::enter(Category::Work(Component::Sli));
        agent.inherited.sort_by_key(|(r, _)| r.lock_id().level());
        for (req, head) in std::mem::take(&mut agent.inherited) {
            let id = req.lock_id();
            // The freshly reset cache holds exactly the hand-off entries
            // validated so far, parents first. A parent missing from it was
            // invalidated (now or earlier): the child is an orphan.
            let parent_ok = id.parent().is_none_or(|p| ts.cache.contains_key(&p));
            if parent_ok && req.status() == RequestStatus::Inherited {
                ts.cache
                    .insert(id, Entry::Queued(Arc::clone(&req), Arc::clone(&head)));
                agent.inherited.push((req, head));
            } else {
                self.invalidate(agent, req, &head);
            }
        }
    }

    /// The SLI fast path: adopt a parked request for `ts` with one CAS —
    /// no latch, no allocation — and record it as owned. If a conflicting
    /// transaction invalidated it first, drop the cache entry, invalidate
    /// its orphaned children and recycle it; the caller acquires afresh.
    pub(crate) fn reclaim(
        &self,
        ts: &mut TxnLockState,
        agent: &mut AgentSliState,
        req: Arc<LockRequest>,
        head: Arc<LockHead>,
    ) -> Option<Arc<LockRequest>> {
        let _sli = sli_profiler::enter(Category::Work(Component::Sli));
        agent.remove(&req);
        if req.try_reclaim(ts.txn_seq) {
            self.stats.agent(ts.agent_slot).on_sli_reclaimed();
            ts.insert_owned(Arc::clone(&req), head);
            return Some(req);
        }
        let id = req.lock_id();
        ts.cache.remove(&id);
        self.invalidate(agent, req, &head);
        self.invalidate_orphans(ts, agent, id);
        None
    }

    /// Invalidate the parked children of `parent` still waiting in the
    /// cache, and theirs: the orphan rule once the transaction is running.
    fn invalidate_orphans(&self, ts: &mut TxnLockState, agent: &mut AgentSliState, parent: LockId) {
        let orphans: Vec<LockId> = ts
            .cache
            .iter()
            .filter(|(cid, e)| {
                cid.parent() == Some(parent)
                    && matches!(e, Entry::Queued(req, _)
                        if req.status() == RequestStatus::Inherited)
            })
            .map(|(cid, _)| *cid)
            .collect();
        for oid in orphans {
            if let Some(Entry::Queued(req, head)) = ts.cache.remove(&oid) {
                agent.remove(&req);
                self.invalidate(agent, req, &head);
                self.invalidate_orphans(ts, agent, oid);
            }
        }
    }

    /// Invalidate a parked request no transaction will reclaim, grant
    /// whoever it blocked, and recycle it. One a conflicting transaction
    /// already invalidated was unlinked by its invalidator: only recycled.
    fn invalidate(&self, agent: &mut AgentSliState, req: Arc<LockRequest>, head: &Arc<LockHead>) {
        if req.status() == RequestStatus::Inherited {
            let mut q = head.latch_untracked();
            if q.invalidate_inherited(&req) {
                self.stats.agent(agent.slot()).on_sli_invalidated();
                q.grant_pass(self.stats);
            }
        }
        self.table.gc_if_drained(head);
        agent.pool_put(req);
    }

    /// Commit-time selection over the held locks (acquisition order):
    /// one decision per lock, all false on abort or under `Baseline`.
    /// Committed locks are also classified for the Figure 8 census (what
    /// SLI could target); aborts are left out so high-abort workloads
    /// don't inflate its per-commit denominators. The parent criterion is
    /// dynamic, so the census treats it as satisfiable.
    pub(crate) fn select(&self, stats: &AgentStats, held: &[Entry], commit: bool) -> Vec<bool> {
        if !commit {
            return vec![false; held.len()];
        }
        let decisions = if self.policy.inherits() {
            let _sli = sli_profiler::enter(Category::Work(Component::Sli));
            select_candidates(self.cfg, held)
        } else {
            vec![false; held.len()]
        };
        for (e, &inherited) in held.iter().zip(&decisions) {
            let (id, head) = (e.id(), e.head());
            let hot = head.hot().is_hot(self.cfg.hot_threshold);
            let class = if !hot && id.level() == LockLevel::Record {
                LockClass::ColdRow
            } else if !hot {
                LockClass::ColdHigh
            } else if id.level() <= self.cfg.min_level
                && e.mode().is_shared_for_sli()
                && head.waiters_hint() == 0
            {
                LockClass::HotHeritable
            } else {
                LockClass::HotNonHeritable
            };
            if hot && !inherited && self.policy.inherits() {
                stats.on_sli_hot_not_inherited();
            }
            stats.on_census(class);
        }
        decisions
    }

    /// Park a selected request on the agent instead of releasing it.
    /// Selection only picks `Granted` requests and only the owner moves
    /// one, so the CAS succeeds; the request keeps counting as a granted
    /// holder on its queue, so the grant word needs no update. Returns
    /// the entry if it could not be parked.
    pub(crate) fn park(
        &self,
        agent: &mut AgentSliState,
        entry: QueuedEntry,
    ) -> Option<QueuedEntry> {
        if !entry.0.begin_inheritance() {
            return Some(entry);
        }
        self.stats.agent(agent.slot()).on_sli_inherited();
        agent.inherited.push(entry);
        None
    }

    /// Resolve the previous hand-off's leftovers: requests the transaction
    /// reclaimed are gone, the rest went unused ("inheritance fails
    /// harmlessly") or were invalidated. With `keep` (a commit) an unused
    /// lock stays parked while [`keeps_unused`]; otherwise it is released.
    /// Requests to recycle are pushed to `released`.
    pub(crate) fn settle(
        &self,
        agent: &mut AgentSliState,
        keep: bool,
        released: &mut Vec<Arc<LockRequest>>,
    ) {
        if agent.inherited.is_empty() {
            return;
        }
        let _sli = sli_profiler::enter(Category::Work(Component::Sli));
        let stats = self.stats.agent(agent.slot());
        for (req, head) in std::mem::take(&mut agent.inherited) {
            match req.status() {
                // Already unlinked by the invalidator.
                RequestStatus::Invalid => released.push(req),
                RequestStatus::Inherited => {
                    // ordering: relaxed — only the owning agent reads and
                    // writes this GC counter.
                    let unused = req.unused_generations.load(Ordering::Relaxed);
                    if keep && keeps_unused(self.cfg, &head, unused.into()) {
                        // ordering: owner-only GC counter (see above).
                        req.unused_generations.store(unused + 1, Ordering::Relaxed);
                        agent.inherited.push((req, head));
                    } else {
                        self.discard(stats, &req, &head);
                        released.push(req);
                    }
                }
                other => debug_assert!(false, "inherited entry in impossible state {other:?}"),
            }
        }
    }

    /// Release an inherited-but-unused request ("In the worst case a
    /// transaction ... pays the cost of releasing the lock which the
    /// previous transaction avoided" — charged to SLI, not the lock
    /// manager).
    fn discard(&self, stats: &AgentStats, req: &Arc<LockRequest>, head: &Arc<LockHead>) {
        {
            // Untracked: dropping an unused hand-off is maintenance, not
            // demand — a cold sample here would cool the lock at the very
            // moment other agents' hysteresis decisions consult it.
            let mut q = head.latch_untracked();
            // Serialized with invalidators by the latch; our own reclaim
            // cannot race (we are the owning agent).
            if req.status() == RequestStatus::Inherited {
                q.release(req, self.stats);
                stats.on_sli_discarded();
            }
        }
        self.table.gc_if_drained(head);
    }
}

/// The parents-first candidate walk (Section 4.2). Parents are decided
/// before children so criterion 5 can consult the parent's decision, and
/// [`MAX_INHERITED_PER_TXN`] caps the hand-off in acquisition order. Only
/// page-or-higher locks enter the decided index, which keeps the scan
/// short for thousand-lock transactions. Grant-word holds have no request
/// to park, and a `Converting` request cannot be passed on: only
/// `Granted` queued requests are candidates.
fn select_candidates(cfg: &SliConfig, held: &[Entry]) -> Vec<bool> {
    let mut decisions = vec![false; held.len()];
    let mut decided: Vec<(LockId, bool)> = Vec::with_capacity(held.len().min(64));
    let mut inherited_count = 0usize;
    for (i, e) in held.iter().enumerate() {
        let id = e.id();
        let parent_ok = id.parent().map(|p| {
            decided
                .iter()
                .find(|(did, _)| *did == p)
                .is_some_and(|(_, ok)| *ok)
        });
        let grantable =
            matches!(e, Entry::Queued(req, _) if req.status() == RequestStatus::Granted);
        let inherit = grantable
            && inherited_count < MAX_INHERITED_PER_TXN
            && is_inheritance_candidate(cfg, id, e.mode(), e.head(), parent_ok);
        decisions[i] = inherit;
        if id.level() < LockLevel::Record {
            decided.push((id, inherit));
        }
        if inherit {
            inherited_count += 1;
        }
    }
    decisions
}

/// Section 4.4: whether an unused hand-off (`unused_generations`
/// consecutive passes so far) stays parked — while still hot and within
/// [`SliConfig::hysteresis`].
fn keeps_unused(cfg: &SliConfig, head: &LockHead, unused_generations: u32) -> bool {
    unused_generations < cfg.hysteresis && head.hot().is_hot(cfg.hot_threshold)
}

/// The paper's five inheritance criteria (Section 4.2) for one granted
/// lock at commit. `parent_inherited` is whether the lock's parent was
/// selected in the same pass (`None` for the hierarchy root). Every
/// criterion but 3 (a shared mode, which consistency needs) can be
/// relaxed through [`SliConfig`] for the ablation experiments.
fn is_inheritance_candidate(
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
    !(cfg.require_parent && parent_inherited == Some(false))
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

    fn held(id: LockId, mode: LockMode, head: &Arc<LockHead>) -> Entry {
        Entry::Queued(
            Arc::new(LockRequest::new_granted(id, 0, 1, mode)),
            Arc::clone(head),
        )
    }

    #[test]
    fn kinds_round_trip() {
        assert_eq!(PolicyKind::default(), PolicyKind::PaperSli);
        assert_eq!(
            PolicyKind::ALL.map(PolicyKind::name),
            ["baseline", "paper-sli"]
        );
    }

    #[test]
    fn baseline_never_inherits() {
        assert!(!PolicyKind::Baseline.inherits());
        assert!(PolicyKind::PaperSli.inherits());
    }

    #[test]
    fn default_walk_respects_parent_order_and_cap() {
        let db = hot_head(LockId::Database);
        let t1 = LockId::Table(TableId(1));
        let th = hot_head(t1);
        // 70 hot pages: with the database and table locks that is 72
        // candidates, and the cap hands off the first 64 in acquisition
        // order.
        let pages: Vec<(LockId, Arc<LockHead>)> = (0..70u32)
            .map(|p| {
                let id = LockId::Page(TableId(1), p);
                (id, hot_head(id))
            })
            .collect();
        let mut locks = vec![
            held(LockId::Database, LockMode::IS, &db),
            held(t1, LockMode::IS, &th),
        ];
        for (id, h) in &pages {
            locks.push(held(*id, LockMode::S, h));
        }
        let d = select_candidates(&SliConfig::default(), &locks);
        assert_eq!(d.len(), 72);
        assert!(
            d[..MAX_INHERITED_PER_TXN].iter().all(|&i| i),
            "first 64 pass"
        );
        assert!(d[MAX_INHERITED_PER_TXN..].iter().all(|&i| !i), "cap at 64");

        // A cold parent vetoes its children (criterion 5) even when the
        // children are hot.
        let cold_table = cold_head(t1);
        let locks2 = vec![
            held(LockId::Database, LockMode::IS, &db),
            held(t1, LockMode::IS, &cold_table),
            held(pages[0].0, LockMode::S, &pages[0].1),
        ];
        let d2 = select_candidates(&SliConfig::default(), &locks2);
        assert_eq!(d2, vec![true, false, false]);

        // Grant-word holds carry no request to park: never candidates.
        let fast = vec![Entry::Fast(LockMode::IS, Arc::clone(&db))];
        assert_eq!(select_candidates(&SliConfig::default(), &fast), vec![false]);
    }

    #[test]
    fn paper_sli_heats_on_either_signal() {
        let t1 = LockId::Table(TableId(1));
        // A full window of samples per case: the ratio reads 0 until the
        // window fills.
        let observe_window = |head: &LockHead, me: u32| {
            for _ in 0..16 {
                drop(head.latch_observe(me));
            }
            head.hot().ratio()
        };
        // Alone on an uncontended head: cold samples.
        let head = LockHead::new(t1);
        assert_eq!(observe_window(&head, 0), 0.0);
        // Another agent holds a request: the cross-agent-sharing signal.
        head.latch_untracked()
            .push_granted(Arc::new(LockRequest::new_granted(t1, 1, 7, LockMode::IS)));
        assert_eq!(observe_window(&head, 0), 1.0);
        // Our own request is not sharing.
        assert_eq!(observe_window(&head, 1), 0.0);
    }

    #[test]
    fn discard_policies_follow_hysteresis() {
        let t1 = LockId::Table(TableId(1));
        let hot = hot_head(t1);
        let cold = cold_head(t1);
        let cfg = SliConfig {
            hysteresis: 2,
            ..SliConfig::default()
        };
        assert!(keeps_unused(&cfg, &hot, 1));
        assert!(!keeps_unused(&cfg, &hot, 2), "bounded");
        assert!(!keeps_unused(&cfg, &cold, 0), "cold drops");
        assert!(
            !keeps_unused(&SliConfig::default(), &hot, 0),
            "hysteresis 0 drops after one unused pass"
        );
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
