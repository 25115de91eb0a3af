//! Configuration for the lock manager and SLI.

use std::sync::Arc;
use std::time::Duration;

use crate::id::LockLevel;
use crate::policy::{LockPolicy, PolicyKind};
use crate::scope::PolicyMap;

/// Tuning knobs for Speculative Lock Inheritance.
///
/// The defaults implement exactly the paper's five criteria (Section 4.2);
/// the boolean overrides exist for the ablation experiments (`abl1` in
/// DESIGN.md) that disable one criterion at a time.
#[derive(Clone, Debug)]
pub struct SliConfig {
    /// Master switch. `false` gives the unmodified baseline lock manager.
    pub enabled: bool,
    /// Criterion 2: a lock is "hot" when at least this fraction of the most
    /// recent [`SliConfig::hot_window`] latch acquisitions on its lock head
    /// contended. The paper calls this "a tunable threshold".
    pub hot_threshold: f64,
    /// Size of the hot-tracking shift register, in acquisitions (max 16).
    pub hot_window: u32,
    /// Criterion 1: only inherit locks at this level or coarser.
    pub min_level: LockLevel,
    /// Criterion 3: require a shared mode (S/IS/IX). Disabling this is
    /// unsafe for consistency and exists only to demonstrate *why* the
    /// criterion exists; the ablation harness uses read-only workloads with
    /// it.
    pub require_shared_mode: bool,
    /// Criterion 4: skip inheritance when another transaction waits on the
    /// lock.
    pub require_no_waiters: bool,
    /// Criterion 5: only inherit when the parent lock is inherited too.
    pub require_parent: bool,
    /// Section 4.4 option 2: keep inheriting a lock for this many
    /// consecutive unused generations before giving up (0 = drop immediately
    /// after one unused pass, the paper's default "do nothing" behaviour).
    pub hysteresis: u32,
    /// Cap on how many locks a single commit may pass on. Bounds the size of
    /// agent inherited lists in pathological workloads.
    pub max_inherited_per_txn: usize,
}

impl Default for SliConfig {
    fn default() -> Self {
        SliConfig {
            enabled: true,
            hot_threshold: 0.25,
            hot_window: 16,
            min_level: LockLevel::Page,
            require_shared_mode: true,
            require_no_waiters: true,
            require_parent: true,
            hysteresis: 0,
            max_inherited_per_txn: 64,
        }
    }
}

impl SliConfig {
    /// A baseline configuration with SLI disabled.
    pub fn disabled() -> Self {
        SliConfig {
            enabled: false,
            ..SliConfig::default()
        }
    }
}

/// Tuning knobs for the grant-word fast path (latch-free compatible
/// acquisitions; see `crate::word` for the protocol).
#[derive(Clone, Copy, Debug)]
pub struct FastPathConfig {
    /// Master switch. `false` routes every fresh acquire through the
    /// latched queue path (the pre-grant-word behaviour) — the A/B lever
    /// for the `micro_lockmgr` and `grant-word` experiments.
    pub enabled: bool,
    /// CAS retries before a contended fast acquire falls back to the
    /// latched path. Defaults to the `SLI_FASTPATH_RETRY` environment
    /// variable, or 8.
    pub retry_budget: u32,
    /// Every Nth fast-path-eligible acquire per agent falls through to the
    /// latched path so the active [`LockPolicy`]'s `on_acquire` heat
    /// sampling still observes a fraction of the traffic (and, under SLI,
    /// produces a queued request that *can* be inherited). 0 disables
    /// sampling entirely (SLI's hot signal then starves on grant-word
    /// heads — only useful for baseline measurements).
    pub sample_every: u32,
}

impl Default for FastPathConfig {
    fn default() -> Self {
        FastPathConfig {
            enabled: true,
            retry_budget: env_knob("SLI_FASTPATH_RETRY", 8),
            sample_every: 64,
        }
    }
}

impl FastPathConfig {
    /// A configuration with the fast path disabled (pure latched paths).
    pub fn disabled() -> Self {
        FastPathConfig {
            enabled: false,
            ..FastPathConfig::default()
        }
    }
}

fn env_knob(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deadlock handling strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlockPolicy {
    /// Dreadlocks-style digest propagation (Shore-MT's approach): waiting
    /// threads publish the set of agents they transitively wait on; a thread
    /// that finds itself in its own digest aborts.
    Dreadlocks,
    /// Rely on lock timeouts only.
    TimeoutOnly,
}

/// Configuration for the lock manager.
///
/// The inheritance strategy is a scoped [`PolicyMap`]: a default
/// [`LockPolicy`] plus optional per-table and per-level overrides,
/// resolved once per lock head at creation. Construct a config with
/// [`LockManagerConfig::with_policy`] (a uniform map — the pre-map global
/// behaviour) and refine it with the builder methods
/// ([`LockManagerConfig::table_policy`], [`LockManagerConfig::level_policy`],
/// ...).
#[derive(Clone, Debug)]
pub struct LockManagerConfig {
    /// Number of hash buckets in the lock table (rounded up to a power of
    /// two).
    pub buckets: usize,
    /// Upper bound on concurrently registered agent threads (sizes the
    /// deadlock digest table and the per-agent `LockStats` shards, 384 B
    /// each with a single policy scope).
    pub max_agents: usize,
    /// Deadlock strategy.
    pub deadlock: DeadlockPolicy,
    /// Give up on a lock wait after this long.
    pub lock_timeout: Duration,
    /// How often a blocked thread wakes to run deadlock checks.
    pub deadlock_poll: Duration,
    /// SLI tuning knobs, consulted by the active policies.
    pub sli: SliConfig,
    /// The scoped policy map owning the SLI decision points (default scope
    /// plus per-table / per-level overrides).
    pub policies: PolicyMap,
    /// Capacity of each agent's [`LockRequest`] free pool (0 disables
    /// pooling). A warm pool makes the steady-state uncontended acquire
    /// path allocation-free.
    pub request_pool_cap: usize,
    /// Grant-word fast-path knobs (latch-free compatible acquisitions).
    pub fastpath: FastPathConfig,
}

impl Default for LockManagerConfig {
    fn default() -> Self {
        LockManagerConfig {
            buckets: 4096,
            max_agents: 256,
            deadlock: DeadlockPolicy::Dreadlocks,
            lock_timeout: Duration::from_secs(2),
            deadlock_poll: Duration::from_micros(500),
            sli: SliConfig::default(),
            policies: PolicyMap::default(),
            request_pool_cap: crate::sli::DEFAULT_REQUEST_POOL_CAP,
            fastpath: FastPathConfig::default(),
        }
    }
}

impl LockManagerConfig {
    /// Defaults with the given default-scope inheritance policy (a uniform
    /// map). Accepts either a [`PolicyKind`] or a custom
    /// `Arc<dyn LockPolicy>`:
    ///
    /// ```
    /// use sli_core::{LockManagerConfig, PolicyKind};
    /// let cfg = LockManagerConfig::with_policy(PolicyKind::Baseline);
    /// assert_eq!(cfg.policies.default_policy().name(), "baseline");
    /// ```
    pub fn with_policy(policy: impl Into<Arc<dyn LockPolicy>>) -> Self {
        LockManagerConfig {
            policies: PolicyMap::single(policy),
            ..LockManagerConfig::default()
        }
    }

    /// Builder: replace the default scope's policy.
    pub fn default_policy(mut self, policy: impl Into<Arc<dyn LockPolicy>>) -> Self {
        self.policies.set_default(policy);
        self
    }

    /// Builder: add a per-table policy override for the table named
    /// `table`. Effective once the name is bound to a
    /// [`crate::TableId`] (the engine binds at table creation via
    /// [`crate::LockManager::bind_table_policy`]).
    pub fn table_policy(mut self, table: &str, policy: impl Into<Arc<dyn LockPolicy>>) -> Self {
        self.policies.add_table_override(table, policy);
        self
    }

    /// Builder: add a per-level policy override. Note the criterion-5
    /// caveat on [`PolicyMap::add_level_override`]: an *inheriting*
    /// override below `Table` level only fires where its table ancestry
    /// also inherits.
    pub fn level_policy(
        mut self,
        level: LockLevel,
        policy: impl Into<Arc<dyn LockPolicy>>,
    ) -> Self {
        self.policies.add_level_override(level, policy);
        self
    }

    /// Builder: replace the SLI tuning knobs.
    pub fn sli(mut self, sli: SliConfig) -> Self {
        self.sli = sli;
        self
    }

    /// Builder: replace the lock-wait timeout.
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// Builder: replace the deadlock strategy.
    pub fn deadlock(mut self, deadlock: DeadlockPolicy) -> Self {
        self.deadlock = deadlock;
        self
    }

    /// The shipped [`PolicyKind`] matching the configured *default*
    /// policy's name, if it is one of the built-ins.
    pub fn policy_kind(&self) -> Option<PolicyKind> {
        PolicyKind::from_name(self.policies.default_policy().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_encode_paper_criteria() {
        let c = SliConfig::default();
        assert!(c.enabled);
        assert_eq!(c.min_level, LockLevel::Page);
        assert!(c.require_shared_mode);
        assert!(c.require_no_waiters);
        assert!(c.require_parent);
        assert_eq!(c.hysteresis, 0);
    }

    #[test]
    fn disabled_turns_off_only_the_master_switch() {
        let c = SliConfig::disabled();
        assert!(!c.enabled);
        assert!(c.require_parent);
    }

    #[test]
    fn default_policy_is_paper_sli() {
        let cfg = LockManagerConfig::default();
        assert_eq!(cfg.policies.default_policy().name(), "paper-sli");
        assert_eq!(cfg.policy_kind(), Some(PolicyKind::PaperSli));
        assert!(cfg.policies.is_uniform());
        assert!(cfg.sli.enabled);
    }

    #[test]
    fn with_policy_accepts_kinds_and_objects() {
        let a = LockManagerConfig::with_policy(PolicyKind::Baseline);
        assert!(!a.policies.default_policy().inherits());
        let b = LockManagerConfig::with_policy(PolicyKind::EagerRelease.build())
            .lock_timeout(Duration::from_millis(10))
            .deadlock(DeadlockPolicy::TimeoutOnly)
            .sli(SliConfig::disabled());
        assert!(b.policies.default_policy().early_release_shared());
        assert_eq!(b.lock_timeout, Duration::from_millis(10));
        assert_eq!(b.deadlock, DeadlockPolicy::TimeoutOnly);
        assert!(!b.sli.enabled);
    }

    #[test]
    fn scoped_builders_grow_the_map() {
        let cfg = LockManagerConfig::with_policy(PolicyKind::Baseline)
            .table_policy("hot", PolicyKind::AggressiveSli)
            .level_policy(LockLevel::Record, PolicyKind::PaperSli);
        // default + table:hot + the synthetic root scope + level:record.
        assert_eq!(cfg.policies.num_scopes(), 4);
        assert!(cfg.policies.any_inherits());
        assert_eq!(cfg.policy_kind(), Some(PolicyKind::Baseline));
    }
}
