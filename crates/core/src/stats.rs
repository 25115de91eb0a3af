//! Lock manager counters backing Figures 8 and 9.
//!
//! Figure 8 is a census of the locks transactions acquire, classified along
//! the three axes SLI cares about (hot/cold, heritable/not, row/high-level);
//! Figure 9 partitions the *hot* locks by their SLI outcome (inherited and
//! used, inherited but discarded, invalidated, or never inherited).

use std::sync::atomic::{AtomicU64, Ordering};

/// Release-time classification of one lock for the Figure 8 census.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockClass {
    /// Hot and meets all static inheritance criteria — SLI's target.
    HotHeritable,
    /// Hot but fails some criterion (exclusive mode, waiters, row level...).
    HotNonHeritable,
    /// Cold row-level lock (numerous but harmless).
    ColdRow,
    /// Cold page-or-higher lock.
    ColdHigh,
}

/// Monotonic counters maintained by the lock manager, sharded so the
/// acquire path never executes an atomic read-modify-write for bookkeeping.
///
/// Each agent slot owns one shard from [`crate::LockManager::register_agent`]
/// to `retire_agent` and is its only writer, so its bumps are a plain load
/// and store. The slot — and the shard with it — is handed on through the
/// manager's free-slot mutex and never zeroed, so every counter stays
/// monotone across reuse. One more shard takes the bumps made with no agent
/// in hand (the queue-internal invalidations of a grant pass) by
/// `fetch_add`. [`LockStats::snapshot`] sums the shards; snapshots are only
/// approximately consistent across counters, which is fine for reporting.
#[derive(Debug)]
pub struct LockStats {
    /// One shard per agent slot.
    agents: Box<[AgentStats]>,
    /// Bumps made with no agent in hand.
    shared: AgentStats,
}

/// One shard of a [`LockStats`]: every counter, written only by the agent
/// that owns the shard's slot. Line-aligned so no two agents write the
/// same cache line; 256 B, so the default 256 agents cost 64 KiB.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct AgentStats {
    // Traffic.
    lock_requests: AtomicU64,
    cache_hits: AtomicU64,
    coverage_hits: AtomicU64,
    upgrades: AtomicU64,
    blocks: AtomicU64,
    deadlocks: AtomicU64,
    timeouts: AtomicU64,
    // Figure 8 census.
    census_total: AtomicU64,
    census_hot_heritable: AtomicU64,
    census_hot_non_heritable: AtomicU64,
    census_cold_row: AtomicU64,
    census_cold_high: AtomicU64,
    // Figure 9 outcomes.
    sli_inherited: AtomicU64,
    sli_reclaimed: AtomicU64,
    sli_invalidated: AtomicU64,
    sli_discarded: AtomicU64,
    sli_hot_not_inherited: AtomicU64,
    // Request free-pool effectiveness (the allocation-free acquire path).
    /// Fresh acquires served by recycling a pooled request (no heap
    /// allocation).
    requests_pooled: AtomicU64,
    /// Fresh acquires that had to heap-allocate a request (cold pool, pool
    /// exhausted, or pooling disabled).
    requests_allocated: AtomicU64,
    // Grant-word fast path (latch-free compatible acquisitions).
    /// Fresh acquires granted by a bare CAS on the grant word (no latch,
    /// no request, no queue entry).
    fastpath_granted: AtomicU64,
    /// Fast-eligible acquires that fell back to the latched path because a
    /// flag or conflicting holder blocked the word.
    fastpath_fallbacks: AtomicU64,
    /// Fast-eligible acquires that exhausted the CAS retry budget.
    fastpath_retry_exhausted: AtomicU64,
    /// Fast-eligible acquires deliberately routed through the latched path
    /// so policy heat sampling sees them (every Nth per agent).
    fastpath_sampled: AtomicU64,
    /// Fast releases that observed the WAIT flag and had to latch + run a
    /// grant pass (the no-lost-wakeup hand-off).
    fastpath_slow_releases: AtomicU64,
    // Per-agent ancestor-head memoization.
    /// Database/table head probes served from the agent's memo (bucket
    /// latch skipped).
    headcache_hits: AtomicU64,
    /// Database/table head probes that had to touch the hash table.
    headcache_misses: AtomicU64,
    // Ancestor-intention traffic, the metric behind the grant-word
    // experiment: page-or-higher IS/IX acquisitions, split by whether they
    // bypassed the head latch (grant-word CAS or SLI reclaim CAS).
    ancestor_acquires: AtomicU64,
    ancestor_bypassed: AtomicU64,
    // Transactions.
    commits: AtomicU64,
    aborts: AtomicU64,
}

/// Increment a counter of a shard whose slot the caller owns.
#[inline]
fn bump(counter: &AtomicU64) {
    // ordering: single writer — only the agent that owns the shard's slot
    // stores to it, and ownership moves through the manager's free-slot
    // mutex, so a plain load + store loses nothing. Readers (`snapshot`)
    // tolerate staleness and nothing is published through the counter.
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

macro_rules! bump {
    ($name:ident, $field:ident) => {
        #[doc = concat!("Increment the `", stringify!($field), "` counter.")]
        #[inline]
        pub(crate) fn $name(&self) {
            bump(&self.$field);
        }
    };
}

impl AgentStats {
    bump!(on_lock_request, lock_requests);
    bump!(on_cache_hit, cache_hits);
    bump!(on_coverage_hit, coverage_hits);
    bump!(on_upgrade, upgrades);
    bump!(on_block, blocks);
    bump!(on_deadlock, deadlocks);
    bump!(on_timeout, timeouts);
    bump!(on_sli_inherited, sli_inherited);
    bump!(on_sli_reclaimed, sli_reclaimed);
    bump!(on_sli_invalidated, sli_invalidated);
    bump!(on_sli_discarded, sli_discarded);
    bump!(on_sli_hot_not_inherited, sli_hot_not_inherited);
    bump!(on_request_pooled, requests_pooled);
    bump!(on_request_allocated, requests_allocated);
    bump!(on_fastpath_granted, fastpath_granted);
    bump!(on_fastpath_fallback, fastpath_fallbacks);
    bump!(on_fastpath_retry_exhausted, fastpath_retry_exhausted);
    bump!(on_fastpath_sampled, fastpath_sampled);
    bump!(on_fastpath_slow_release, fastpath_slow_releases);
    bump!(on_headcache_hit, headcache_hits);
    bump!(on_headcache_miss, headcache_misses);
    bump!(on_commit, commits);
    bump!(on_abort, aborts);

    /// Record one page-or-higher intention acquisition and whether it
    /// bypassed the head latch.
    #[inline]
    pub(crate) fn on_ancestor_acquire(&self, bypassed: bool) {
        bump(&self.ancestor_acquires);
        if bypassed {
            bump(&self.ancestor_bypassed);
        }
    }

    /// Record one lock in the Figure 8 census.
    #[inline]
    pub(crate) fn on_census(&self, class: LockClass) {
        bump(&self.census_total);
        bump(match class {
            LockClass::HotHeritable => &self.census_hot_heritable,
            LockClass::HotNonHeritable => &self.census_hot_non_heritable,
            LockClass::ColdRow => &self.census_cold_row,
            LockClass::ColdHigh => &self.census_cold_high,
        });
    }

    /// Add this shard's counters into `s`.
    fn add_to(&self, s: &mut LockStatsSnapshot) {
        fn load(counter: &AtomicU64) -> u64 {
            // ordering: the snapshot is advisory reporting; counters are
            // independent and a torn cross-counter view is acceptable
            // (each is individually monotone, so every sum over the shards
            // is too).
            counter.load(Ordering::Relaxed)
        }
        s.lock_requests += load(&self.lock_requests);
        s.cache_hits += load(&self.cache_hits);
        s.coverage_hits += load(&self.coverage_hits);
        s.upgrades += load(&self.upgrades);
        s.blocks += load(&self.blocks);
        s.deadlocks += load(&self.deadlocks);
        s.timeouts += load(&self.timeouts);
        s.census_total += load(&self.census_total);
        s.census_hot_heritable += load(&self.census_hot_heritable);
        s.census_hot_non_heritable += load(&self.census_hot_non_heritable);
        s.census_cold_row += load(&self.census_cold_row);
        s.census_cold_high += load(&self.census_cold_high);
        s.sli_inherited += load(&self.sli_inherited);
        s.sli_reclaimed += load(&self.sli_reclaimed);
        s.sli_invalidated += load(&self.sli_invalidated);
        s.sli_discarded += load(&self.sli_discarded);
        s.sli_hot_not_inherited += load(&self.sli_hot_not_inherited);
        s.requests_pooled += load(&self.requests_pooled);
        s.requests_allocated += load(&self.requests_allocated);
        s.fastpath_granted += load(&self.fastpath_granted);
        s.fastpath_fallbacks += load(&self.fastpath_fallbacks);
        s.fastpath_retry_exhausted += load(&self.fastpath_retry_exhausted);
        s.fastpath_sampled += load(&self.fastpath_sampled);
        s.fastpath_slow_releases += load(&self.fastpath_slow_releases);
        s.headcache_hits += load(&self.headcache_hits);
        s.headcache_misses += load(&self.headcache_misses);
        s.ancestor_acquires += load(&self.ancestor_acquires);
        s.ancestor_bypassed += load(&self.ancestor_bypassed);
        s.commits += load(&self.commits);
        s.aborts += load(&self.aborts);
    }
}

impl Default for LockStats {
    fn default() -> Self {
        Self::sharded(1)
    }
}

impl LockStats {
    /// Fresh zeroed counters for one agent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh zeroed counters with a private shard for each of `n_agents`
    /// agent slots.
    pub fn sharded(n_agents: usize) -> Self {
        LockStats {
            agents: (0..n_agents).map(|_| AgentStats::default()).collect(),
            shared: AgentStats::default(),
        }
    }

    /// The private shard of agent `slot`. Only the thread currently running
    /// that agent may bump through it.
    #[inline]
    pub(crate) fn agent(&self, slot: u32) -> &AgentStats {
        &self.agents[slot as usize]
    }

    /// Count an inherited request invalidated with no agent in hand (a
    /// grant pass runs on whichever thread released or enqueued).
    #[inline]
    pub fn on_sli_invalidated(&self) {
        // ordering: monotonic statistics counter with many writers; readers
        // tolerate staleness and no other memory is published through it.
        self.shared.sli_invalidated.fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot of all counters, summed over the shards.
    pub fn snapshot(&self) -> LockStatsSnapshot {
        let mut s = LockStatsSnapshot::default();
        for shard in self.agents.iter().chain([&self.shared]) {
            shard.add_to(&mut s);
        }
        s
    }
}

/// Point-in-time copy of [`LockStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct LockStatsSnapshot {
    pub lock_requests: u64,
    pub cache_hits: u64,
    pub coverage_hits: u64,
    pub upgrades: u64,
    pub blocks: u64,
    pub deadlocks: u64,
    pub timeouts: u64,
    pub census_total: u64,
    pub census_hot_heritable: u64,
    pub census_hot_non_heritable: u64,
    pub census_cold_row: u64,
    pub census_cold_high: u64,
    pub sli_inherited: u64,
    pub sli_reclaimed: u64,
    pub sli_invalidated: u64,
    pub sli_discarded: u64,
    pub sli_hot_not_inherited: u64,
    pub requests_pooled: u64,
    pub requests_allocated: u64,
    pub fastpath_granted: u64,
    pub fastpath_fallbacks: u64,
    pub fastpath_retry_exhausted: u64,
    pub fastpath_sampled: u64,
    pub fastpath_slow_releases: u64,
    pub headcache_hits: u64,
    pub headcache_misses: u64,
    pub ancestor_acquires: u64,
    pub ancestor_bypassed: u64,
    pub commits: u64,
    pub aborts: u64,
}

impl LockStatsSnapshot {
    /// Counter-wise difference `self - earlier` (for measurement windows).
    pub fn delta(&self, earlier: &LockStatsSnapshot) -> LockStatsSnapshot {
        LockStatsSnapshot {
            lock_requests: self.lock_requests - earlier.lock_requests,
            cache_hits: self.cache_hits - earlier.cache_hits,
            coverage_hits: self.coverage_hits - earlier.coverage_hits,
            upgrades: self.upgrades - earlier.upgrades,
            blocks: self.blocks - earlier.blocks,
            deadlocks: self.deadlocks - earlier.deadlocks,
            timeouts: self.timeouts - earlier.timeouts,
            census_total: self.census_total - earlier.census_total,
            census_hot_heritable: self.census_hot_heritable - earlier.census_hot_heritable,
            census_hot_non_heritable: self.census_hot_non_heritable
                - earlier.census_hot_non_heritable,
            census_cold_row: self.census_cold_row - earlier.census_cold_row,
            census_cold_high: self.census_cold_high - earlier.census_cold_high,
            sli_inherited: self.sli_inherited - earlier.sli_inherited,
            sli_reclaimed: self.sli_reclaimed - earlier.sli_reclaimed,
            sli_invalidated: self.sli_invalidated - earlier.sli_invalidated,
            sli_discarded: self.sli_discarded - earlier.sli_discarded,
            sli_hot_not_inherited: self.sli_hot_not_inherited - earlier.sli_hot_not_inherited,
            requests_pooled: self.requests_pooled - earlier.requests_pooled,
            requests_allocated: self.requests_allocated - earlier.requests_allocated,
            fastpath_granted: self.fastpath_granted - earlier.fastpath_granted,
            fastpath_fallbacks: self.fastpath_fallbacks - earlier.fastpath_fallbacks,
            fastpath_retry_exhausted: self.fastpath_retry_exhausted
                - earlier.fastpath_retry_exhausted,
            fastpath_sampled: self.fastpath_sampled - earlier.fastpath_sampled,
            fastpath_slow_releases: self.fastpath_slow_releases - earlier.fastpath_slow_releases,
            headcache_hits: self.headcache_hits - earlier.headcache_hits,
            headcache_misses: self.headcache_misses - earlier.headcache_misses,
            ancestor_acquires: self.ancestor_acquires - earlier.ancestor_acquires,
            ancestor_bypassed: self.ancestor_bypassed - earlier.ancestor_bypassed,
            commits: self.commits - earlier.commits,
            aborts: self.aborts - earlier.aborts,
        }
    }

    /// Average locks acquired per committed transaction (Figure 8's
    /// per-column annotation).
    pub fn avg_locks_per_txn(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.census_total as f64 / self.commits as f64
        }
    }

    /// Fraction of census locks in each class:
    /// `(hot_heritable, hot_non_heritable, cold_row, cold_high)`.
    pub fn census_fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.census_total.max(1) as f64;
        (
            self.census_hot_heritable as f64 / t,
            self.census_hot_non_heritable as f64 / t,
            self.census_cold_row as f64 / t,
            self.census_cold_high as f64 / t,
        )
    }

    /// Total hot locks observed (the Figure 9 denominator).
    pub fn hot_locks(&self) -> u64 {
        self.census_hot_heritable + self.census_hot_non_heritable
    }

    /// Fraction of page-or-higher intention acquisitions that bypassed the
    /// head latch (grant-word CAS or SLI reclaim CAS) — the grant-word
    /// experiment's headline metric. 0.0 when none were observed.
    pub fn ancestor_bypass_rate(&self) -> f64 {
        if self.ancestor_acquires == 0 {
            0.0
        } else {
            self.ancestor_bypassed as f64 / self.ancestor_acquires as f64
        }
    }

    /// Fraction of fast-path *attempts* (granted + fallbacks + retry
    /// exhaustion) that were granted by the CAS.
    pub fn fastpath_hit_rate(&self) -> f64 {
        let attempts =
            self.fastpath_granted + self.fastpath_fallbacks + self.fastpath_retry_exhausted;
        if attempts == 0 {
            0.0
        } else {
            self.fastpath_granted as f64 / attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_buckets_sum_to_total() {
        let s = LockStats::new();
        let a = s.agent(0);
        a.on_census(LockClass::HotHeritable);
        a.on_census(LockClass::HotHeritable);
        a.on_census(LockClass::ColdRow);
        a.on_census(LockClass::HotNonHeritable);
        a.on_census(LockClass::ColdHigh);
        let snap = s.snapshot();
        assert_eq!(snap.census_total, 5);
        assert_eq!(
            snap.census_hot_heritable
                + snap.census_hot_non_heritable
                + snap.census_cold_row
                + snap.census_cold_high,
            snap.census_total
        );
        assert_eq!(snap.hot_locks(), 3);
    }

    #[test]
    fn delta_subtracts_windows() {
        let s = LockStats::new();
        s.agent(0).on_lock_request();
        let a = s.snapshot();
        s.agent(0).on_lock_request();
        s.agent(0).on_commit();
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.lock_requests, 1);
        assert_eq!(d.commits, 1);
    }

    #[test]
    fn agentless_invalidation_counts_in_the_global_total() {
        let s = LockStats::new();
        let before = s.snapshot();
        // The agent-less bump lands in the same totals as the agent's.
        s.agent(0).on_sli_invalidated();
        s.on_sli_invalidated();
        let after = s.snapshot();
        assert_eq!(after.sli_invalidated, 2);
        assert_eq!(after.delta(&before).sli_invalidated, 2);
    }

    #[test]
    fn avg_locks_per_txn_guards_div_by_zero() {
        let snap = LockStatsSnapshot::default();
        assert_eq!(snap.avg_locks_per_txn(), 0.0);
    }

    #[test]
    fn census_fractions_sum_to_one() {
        let s = LockStats::new();
        for _ in 0..10 {
            s.agent(0).on_census(LockClass::ColdRow);
        }
        for _ in 0..30 {
            s.agent(0).on_census(LockClass::HotHeritable);
        }
        let (hh, hn, cr, ch) = s.snapshot().census_fractions();
        assert!((hh + hn + cr + ch - 1.0).abs() < 1e-9);
        assert!((hh - 0.75).abs() < 1e-9);
    }

    #[test]
    fn default_shape_fits_the_documented_budget() {
        use std::mem::{align_of, size_of};
        assert_eq!(align_of::<AgentStats>(), 64);
        let shard = size_of::<AgentStats>();
        assert_eq!(shard, 256);
        // 256 agents and the shared shard.
        assert!(257 * shard < 80 * 1024);
    }
}
