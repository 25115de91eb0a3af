//! Configuration for the lock manager and SLI.

use std::time::Duration;

use crate::id::LockLevel;
use crate::sli::PolicyKind;

/// Tuning knobs for Speculative Lock Inheritance.
///
/// The defaults implement exactly the paper's five criteria (Section 4.2).
/// Every field is kept for the harness's `ablation-criteria` experiment,
/// which relaxes criteria 1, 2, 4 and 5 one at a time and tries
/// hysteresis, and `bimodal`, which sweeps hysteresis. Criterion 3 (a
/// shared mode) is always enforced, the hot window is the last 16
/// acquisitions, and `sli.rs` caps a commit's hand-off at 64 locks
/// (`MAX_INHERITED_PER_TXN`, not settable). SLI itself is switched off by
/// choosing [`PolicyKind::Baseline`], not here.
#[derive(Clone, Debug)]
pub struct SliConfig {
    /// Criterion 2: a lock is "hot" when at least this fraction of the 16
    /// most recent latch acquisitions on its lock head contended. The
    /// paper calls this "a tunable threshold".
    pub hot_threshold: f64,
    /// Criterion 1: only inherit locks at this level or coarser.
    pub min_level: LockLevel,
    /// Criterion 4: skip inheritance when another transaction waits on the
    /// lock.
    pub require_no_waiters: bool,
    /// Criterion 5: only inherit when the parent lock is inherited too.
    pub require_parent: bool,
    /// Section 4.4 option 2: keep inheriting a lock for this many
    /// consecutive unused generations before giving up (0 = drop immediately
    /// after one unused pass, the paper's default "do nothing" behaviour).
    pub hysteresis: u32,
}

impl Default for SliConfig {
    fn default() -> Self {
        SliConfig {
            hot_threshold: 0.25,
            min_level: LockLevel::Page,
            require_no_waiters: true,
            require_parent: true,
            hysteresis: 0,
        }
    }
}

/// Tuning knobs for the grant-word fast path (latch-free compatible
/// acquisitions; see `crate::word` for the protocol).
#[derive(Clone, Copy, Debug)]
pub struct FastPathConfig {
    /// CAS retries before a contended fast acquire falls back to the
    /// latched path (default 8).
    pub retry_budget: u32,
    /// Every Nth fast-path-eligible acquire per agent falls through to the
    /// latched path so the lock head's heat sampling still observes a
    /// fraction of the traffic (and, under SLI,
    /// produces a queued request that *can* be inherited). 0 disables
    /// sampling entirely (SLI's hot signal then starves on grant-word
    /// heads — only useful for baseline measurements).
    pub sample_every: u32,
}

impl Default for FastPathConfig {
    fn default() -> Self {
        FastPathConfig {
            retry_budget: 8,
            sample_every: 64,
        }
    }
}

impl FastPathConfig {
    /// Every group-mode acquire takes the latched path: sampling every
    /// acquire leaves none for the grant-word CAS, so each one queues a
    /// (poolable, inheritable) request and counts as `fastpath_sampled`.
    pub fn disabled() -> Self {
        FastPathConfig {
            sample_every: 1,
            ..FastPathConfig::default()
        }
    }
}

/// Configuration for the lock manager.
///
/// The inheritance strategy is one [`PolicyKind`] for every lock:
/// [`PolicyKind::PaperSli`] (the default) or [`PolicyKind::Baseline`].
///
/// Deadlocks are detected Dreadlocks-style (Shore-MT's approach): waiting
/// threads publish the set of agents they transitively wait on, and a
/// thread that finds itself in its own digest aborts. `lock_timeout` is
/// the safety net behind it. The lock table has 4096 buckets and a
/// blocked thread re-checks for deadlocks every 500 µs.
#[derive(Clone, Debug)]
pub struct LockManagerConfig {
    /// Upper bound on concurrently registered agent threads (sizes the
    /// deadlock digest table and the per-agent `LockStats` shards, 256 B
    /// each).
    pub max_agents: usize,
    /// Give up on a lock wait after this long.
    pub lock_timeout: Duration,
    /// SLI tuning knobs, consulted under [`PolicyKind::PaperSli`].
    pub sli: SliConfig,
    /// Whether commits pass hot locks on (SLI) or release everything.
    pub policy: PolicyKind,
    /// Grant-word fast-path knobs (latch-free compatible acquisitions).
    pub fastpath: FastPathConfig,
}

impl Default for LockManagerConfig {
    fn default() -> Self {
        LockManagerConfig {
            max_agents: 256,
            lock_timeout: Duration::from_secs(2),
            sli: SliConfig::default(),
            policy: PolicyKind::default(),
            fastpath: FastPathConfig::default(),
        }
    }
}

impl LockManagerConfig {
    /// Defaults with the given inheritance policy:
    ///
    /// ```
    /// use sli_core::{LockManagerConfig, PolicyKind};
    /// let cfg = LockManagerConfig::with_policy(PolicyKind::Baseline);
    /// assert!(!cfg.policy.inherits());
    /// ```
    pub fn with_policy(policy: PolicyKind) -> Self {
        LockManagerConfig {
            policy,
            ..LockManagerConfig::default()
        }
    }

    /// Builder: replace the lock-wait timeout.
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_encode_paper_criteria() {
        let c = SliConfig::default();
        assert_eq!(c.min_level, LockLevel::Page);
        assert!(c.require_no_waiters);
        assert!(c.require_parent);
        assert_eq!(c.hysteresis, 0);
    }

    #[test]
    fn default_policy_is_paper_sli() {
        let cfg = LockManagerConfig::default();
        assert_eq!(cfg.policy, PolicyKind::PaperSli);
        assert_eq!(cfg.policy.name(), "paper-sli");
    }

    #[test]
    fn with_policy_keeps_the_other_defaults() {
        let cfg = LockManagerConfig::with_policy(PolicyKind::Baseline)
            .lock_timeout(Duration::from_millis(10));
        assert_eq!(cfg.policy, PolicyKind::Baseline);
        assert_eq!(cfg.lock_timeout, Duration::from_millis(10));
        assert_eq!(cfg.max_agents, LockManagerConfig::default().max_agents);
    }
}
