//! Pluggable inheritance policies.
//!
//! The paper's core contribution is a *decision procedure*: at each commit,
//! which held locks does the agent thread pass to its next transaction
//! (Section 4.2), and which acquires count as evidence that a lock is hot?
//! [`LockPolicy`] turns that procedure into an object-safe trait with three
//! decision points, so ablations and related-work variants (early lock
//! release, aggressive over-inheritance) are one-file additions instead of
//! more boolean knobs threaded through the lock manager:
//!
//! 1. [`LockPolicy::on_acquire`] — what counts as a contended acquire; the
//!    returned bit is the heat sample recorded on the lock head.
//! 2. [`LockPolicy::select_candidates`] — which held locks are inheritance
//!    candidates at commit. The provided implementation performs the
//!    parents-first walk (criterion 5 needs the parent's decision) and the
//!    per-transaction cap, delegating the per-lock predicate to
//!    [`LockPolicy::is_candidate`].
//! 3. [`LockPolicy::on_discard`] — the fate of an inherited lock the next
//!    transaction did not use (keep parked for another generation, or drop).
//!
//! Five implementations ship with the crate: [`Baseline`], [`PaperSli`]
//! (the default; byte-for-byte the paper's five criteria), [`AggressiveSli`]
//! (inherit every held hierarchy lock), [`EagerRelease`] (drop S locks
//! at commit-LSN instead of inheriting — the ELR-style contrast point),
//! and [`AdaptivePolicy`] (per-head baseline↔SLI switching driven by the
//! observed collision/sharing rate with a hysteresis band).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::config::SliConfig;
use crate::head::LockHead;
use crate::id::{LockId, LockLevel};
use crate::mode::LockMode;
use crate::sli::is_inheritance_candidate;

/// What the lock manager observed while latching a lock head on the acquire
/// path. Policies turn this into the heat sample fed to the head's
/// [`crate::HotTracker`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AcquireSample {
    /// The head latch itself collided (Shore-MT's raw criterion-2 signal).
    pub latch_contended: bool,
    /// Another agent actively holds a request on this head — the
    /// cross-agent-sharing signal this reproduction added because its head
    /// critical sections are ~100x shorter relative to transactions than
    /// Shore-MT's (see `LockHead::latch_observe`).
    pub cross_agent_shared: bool,
}

/// Read-only view of one lock a committing transaction holds, in
/// acquisition order (parents precede children).
#[derive(Clone, Copy)]
pub struct HeldLock<'a> {
    /// The lock's identity.
    pub id: LockId,
    /// The mode the transaction holds it in.
    pub mode: LockMode,
    /// The lock head (heat window, waiter hint).
    pub head: &'a LockHead,
    /// Whether the request is in a state that permits inheritance
    /// (`Granted`; a `Converting` request cannot be passed on).
    pub grantable: bool,
}

impl std::fmt::Debug for HeldLock<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeldLock")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("grantable", &self.grantable)
            .finish_non_exhaustive()
    }
}

/// A concurrency-control policy owning the lock manager's three SLI
/// decision points. Object-safe; implementations must be stateless or
/// internally synchronized (`Send + Sync`) because one instance is shared
/// by every agent thread.
pub trait LockPolicy: Send + Sync + std::fmt::Debug {
    /// Short display name (reports, the policy-matrix experiment).
    fn name(&self) -> &'static str;

    /// Whether this policy ever parks locks on agents. `false` lets the
    /// lock manager skip candidate selection entirely at commit.
    fn inherits(&self) -> bool {
        true
    }

    /// Decision point 1: convert an acquire-time observation into the heat
    /// sample recorded on the lock head's contention window.
    fn on_acquire(&self, sample: &AcquireSample) -> bool;

    /// Per-lock inheritance predicate consulted by the default
    /// [`LockPolicy::select_candidates`] walk. `parent_inherited` is the
    /// decision already taken for the lock's parent (`None` at the
    /// hierarchy root).
    fn is_candidate(
        &self,
        cfg: &SliConfig,
        id: LockId,
        mode: LockMode,
        head: &LockHead,
        parent_inherited: Option<bool>,
    ) -> bool;

    /// Decision point 3: the fate of a previously inherited lock that the
    /// finishing transaction never reclaimed. Returns `true` to keep it
    /// parked for another generation (`unused_generations` consecutive
    /// passes so far), `false` to release it. Only consulted on commit;
    /// aborts always drop leftovers.
    fn on_discard(
        &self,
        cfg: &SliConfig,
        id: LockId,
        head: &LockHead,
        unused_generations: u32,
    ) -> bool;

    /// Whether record-level S locks should be dropped when the commit LSN
    /// is assigned, *before* the log flush (early lock release). Safe
    /// because the transaction is past its lock point and leaf read locks
    /// protect no uncommitted writes.
    fn early_release_shared(&self) -> bool {
        false
    }

    /// Hook invoked when an agent reclaims one of its own inherited
    /// requests (the SLI CAS fast path), *after* the reclaim's own
    /// inherited-counter decrement. Default no-op; [`AdaptivePolicy`]
    /// records a heat sample here so a head kept alive purely by one
    /// agent's reclaim loop cools down and demotes — without the hook,
    /// reclaims bypass the latched sampling entirely and a promoted
    /// head's contention window would stay frozen hot forever.
    fn on_reclaim(&self, head: &LockHead) {
        let _ = head;
    }

    /// Cumulative (promotions, demotions) for adaptive policies; `None`
    /// for policies without per-head mode switching.
    fn adaptive_counters(&self) -> Option<(u64, u64)> {
        None
    }

    /// Decision point 2: select the inheritance candidates among a
    /// committing transaction's held locks (acquisition order, parents
    /// first). Returns one decision per lock.
    ///
    /// The provided implementation runs the canonical
    /// [`parents_first_walk`] with [`LockPolicy::is_candidate`] as the
    /// per-lock predicate. Override only when the selection is not
    /// expressible as a per-lock predicate.
    fn select_candidates(&self, cfg: &SliConfig, locks: &[HeldLock<'_>]) -> Vec<bool> {
        if !self.inherits() {
            return vec![false; locks.len()];
        }
        parents_first_walk(cfg, locks, |l, parent_ok| {
            self.is_candidate(cfg, l.id, l.mode, l.head, parent_ok)
        })
    }
}

/// The canonical candidate-selection walk, shared by the trait's provided
/// [`LockPolicy::select_candidates`] and `PolicyMap`'s mixed-scope
/// selection: parents are decided before children so the per-lock
/// predicate can consult the parent's decision (criterion 5), and
/// [`SliConfig::max_inherited_per_txn`] caps the hand-off in acquisition
/// order. Only page-or-higher locks enter the decided index — keeping
/// records out keeps the scan short even for thousand-lock transactions.
pub(crate) fn parents_first_walk(
    cfg: &SliConfig,
    locks: &[HeldLock<'_>],
    mut is_candidate: impl FnMut(&HeldLock<'_>, Option<bool>) -> bool,
) -> Vec<bool> {
    let mut decisions = vec![false; locks.len()];
    let mut decided: Vec<(LockId, bool)> = Vec::with_capacity(locks.len().min(64));
    let mut inherited_count = 0usize;
    for (i, l) in locks.iter().enumerate() {
        let parent_ok = l.id.parent().map(|p| {
            decided
                .iter()
                .find(|(did, _)| *did == p)
                .map(|(_, ok)| *ok)
                .unwrap_or(false)
        });
        let inherit = l.grantable
            && inherited_count < cfg.max_inherited_per_txn
            && is_candidate(l, parent_ok);
        decisions[i] = inherit;
        if l.id.level() < LockLevel::Record {
            decided.push((l.id, inherit));
        }
        if inherit {
            inherited_count += 1;
        }
    }
    decisions
}

/// The unmodified baseline lock manager: every acquire goes through the
/// latch-protected release + re-acquire pair; nothing is ever inherited.
#[derive(Clone, Copy, Debug, Default)]
pub struct Baseline;

impl LockPolicy for Baseline {
    fn name(&self) -> &'static str {
        "baseline"
    }
    fn inherits(&self) -> bool {
        false
    }
    fn on_acquire(&self, sample: &AcquireSample) -> bool {
        // Keep recording the full popularity signal so the Figure 8 census
        // (which classifies what SLI *could* target) stays meaningful on a
        // baseline run.
        sample.latch_contended || sample.cross_agent_shared
    }
    fn is_candidate(
        &self,
        _cfg: &SliConfig,
        _id: LockId,
        _mode: LockMode,
        _head: &LockHead,
        _parent: Option<bool>,
    ) -> bool {
        false
    }
    fn on_discard(&self, _cfg: &SliConfig, _id: LockId, _head: &LockHead, _unused: u32) -> bool {
        false
    }
}

/// The paper's policy: Section 4.2's five criteria, with criterion 2 fed by
/// the combined latch-collision + cross-agent-sharing heat signal. This is
/// the default and is behavior-compatible with the pre-trait lock manager.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaperSli;

impl LockPolicy for PaperSli {
    fn name(&self) -> &'static str {
        "paper-sli"
    }
    fn on_acquire(&self, sample: &AcquireSample) -> bool {
        sample.latch_contended || sample.cross_agent_shared
    }
    fn is_candidate(
        &self,
        cfg: &SliConfig,
        id: LockId,
        mode: LockMode,
        head: &LockHead,
        parent_inherited: Option<bool>,
    ) -> bool {
        is_inheritance_candidate(cfg, id, mode, head, parent_inherited)
    }
    fn on_discard(&self, cfg: &SliConfig, _id: LockId, head: &LockHead, unused: u32) -> bool {
        unused < cfg.hysteresis && head.hot().is_hot(cfg.hot_threshold, cfg.hot_window)
    }
}

/// The over-inheritance foil: park *every* held page-or-higher lock on the
/// agent, hot or not, shared or not, waiters or not. Demonstrates why the
/// paper filters — invalidation traffic and bloated agent lists.
#[derive(Clone, Copy, Debug, Default)]
pub struct AggressiveSli;

impl LockPolicy for AggressiveSli {
    fn name(&self) -> &'static str {
        "aggressive"
    }
    fn on_acquire(&self, sample: &AcquireSample) -> bool {
        sample.latch_contended || sample.cross_agent_shared
    }
    fn is_candidate(
        &self,
        _cfg: &SliConfig,
        id: LockId,
        _mode: LockMode,
        _head: &LockHead,
        parent_inherited: Option<bool>,
    ) -> bool {
        // The parent check is kept only because an orphaned child would be
        // invalidated at the next begin() anyway; inheriting it would be
        // pure churn. Everything else is waved through.
        id.level().is_page_or_higher() && parent_inherited.unwrap_or(true)
    }
    fn on_discard(&self, cfg: &SliConfig, _id: LockId, _head: &LockHead, unused: u32) -> bool {
        // Keep for the configured hysteresis regardless of heat.
        unused < cfg.hysteresis
    }
}

/// The early-lock-release contrast point (Guo et al., "Releasing Locks As
/// Early As You Can", 2021): instead of carrying hot locks *forward* into
/// the next transaction, drop record-level S locks at commit-LSN
/// assignment, before the log flush — shrinking the read-lock hold time by
/// the flush latency rather than eliminating re-acquisition.
#[derive(Clone, Copy, Debug, Default)]
pub struct EagerRelease;

impl LockPolicy for EagerRelease {
    fn name(&self) -> &'static str {
        "eager-release"
    }
    fn inherits(&self) -> bool {
        false
    }
    fn on_acquire(&self, sample: &AcquireSample) -> bool {
        sample.latch_contended || sample.cross_agent_shared
    }
    fn is_candidate(
        &self,
        _cfg: &SliConfig,
        _id: LockId,
        _mode: LockMode,
        _head: &LockHead,
        _parent: Option<bool>,
    ) -> bool {
        false
    }
    fn on_discard(&self, _cfg: &SliConfig, _id: LockId, _head: &LockHead, _unused: u32) -> bool {
        false
    }
    fn early_release_shared(&self) -> bool {
        true
    }
}

/// The adaptive policy: per-head switching between baseline behaviour and
/// SLI, driven by the head's observed latch-collision/sharing rate with a
/// hysteresis band (the ROADMAP's "switches signals by observed collision
/// rate" item; cf. Pavlo et al., "On Predictive Modeling for Optimizing
/// Transaction Execution" — runtime-observed workload signals driving
/// concurrency-control choices automatically).
///
/// Every head starts in the *base* state and is **promoted** to inheriting
/// when the hot-window ratio reaches [`AdaptivePolicy::promote`]; a
/// promoted head is **demoted** only when the ratio falls to
/// [`AdaptivePolicy::demote`] or below (`demote < promote`, so heads
/// oscillating inside the band keep their state — no flapping). The
/// promotion flag lives on the head's [`crate::HeadPolicy`] (per-head
/// state, shared policy object); the promotion/demotion *counters* live
/// here and aggregate across all heads in the scope.
///
/// Demotion needs fresh observations, but once a head is promoted most
/// traffic arrives via the inherited-reclaim CAS, which bypasses the
/// latched heat sampling (the hot window freezes at its promoted value).
/// [`AdaptivePolicy::on_reclaim`] therefore reads a sharing hint off the
/// grant word on every reclaim — other agents' parked inherited entries
/// or live fast-path holds — and maintains a per-head **alone streak**:
/// sharing resets it, a lone reclaim extends it. A promoted head demotes
/// when the streak reaches [`AdaptivePolicy::demote_streak`] (no sharing
/// left to exploit) *or* its hot-window ratio decays to
/// [`AdaptivePolicy::demote`] or below. The streak makes demotion
/// deterministic for a lone reclaim loop while a single observed sharer
/// resets it, so heads under real contention essentially never flap
/// (`P(false demote) ≈ (1 - p_share)^streak`).
#[derive(Debug)]
pub struct AdaptivePolicy {
    /// Promote a head when its hot-window ratio reaches this value.
    promote: f64,
    /// Demote a promoted head when the ratio falls to this value or below.
    demote: f64,
    /// Demote a promoted head after this many consecutive reclaims that
    /// observed no other sharer.
    demote_streak: u32,
    /// Hot-window size in samples (max 16).
    window: u32,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy::with_band(0.5, 0.125)
    }
}

impl AdaptivePolicy {
    /// An adaptive policy with an explicit hysteresis band. Panics unless
    /// `0 <= demote < promote <= 1`.
    pub fn with_band(promote: f64, demote: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&promote) && (0.0..=1.0).contains(&demote) && demote < promote,
            "adaptive band requires 0 <= demote < promote <= 1 (got {demote}..{promote})"
        );
        AdaptivePolicy {
            promote,
            demote,
            demote_streak: 256,
            window: 16,
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    /// Builder: override the alone-streak demotion threshold.
    pub fn demote_streak(mut self, streak: u32) -> Self {
        self.demote_streak = streak.max(1);
        self
    }

    /// The promotion threshold.
    pub fn promote_threshold(&self) -> f64 {
        self.promote
    }

    /// The demotion threshold.
    pub fn demote_threshold(&self) -> f64 {
        self.demote
    }

    /// Evaluate the hysteresis band for `head`, flipping its promotion
    /// state when a threshold is crossed. Returns the (possibly updated)
    /// promotion state. Races between concurrent committers are harmless:
    /// both observed the same crossing and the counters are advisory.
    fn promoted(&self, head: &LockHead) -> bool {
        let hp = head.policy();
        let was = hp.adaptive_promoted();
        let now = if was {
            head.hot().ratio(self.window) > self.demote && hp.alone_streak() < self.demote_streak
        } else {
            head.hot().ratio(self.window) >= self.promote
        };
        if now != was {
            hp.set_adaptive_promoted(now);
            if now {
                hp.reset_alone_streak();
                // ordering: monotonic statistics counter.
                self.promotions.fetch_add(1, Ordering::Relaxed);
            } else {
                // ordering: monotonic statistics counter.
                self.demotions.fetch_add(1, Ordering::Relaxed);
            }
        }
        now
    }
}

impl LockPolicy for AdaptivePolicy {
    fn name(&self) -> &'static str {
        "adaptive"
    }
    fn on_acquire(&self, sample: &AcquireSample) -> bool {
        sample.latch_contended || sample.cross_agent_shared
    }
    fn is_candidate(
        &self,
        cfg: &SliConfig,
        id: LockId,
        mode: LockMode,
        head: &LockHead,
        parent_inherited: Option<bool>,
    ) -> bool {
        // The band *replaces* criterion 2: a promoted head inherits even
        // while its ratio sits below `cfg.hot_threshold` (that is the
        // hysteresis), so evaluate the remaining paper criteria with the
        // hot check disarmed — and evaluate them *first*, so the band and
        // its counters only ever run on heads SLI could actually target
        // (a contended row's X head, hot as it may be, never promotes).
        let relaxed = SliConfig {
            hot_threshold: 0.0,
            ..cfg.clone()
        };
        if !is_inheritance_candidate(&relaxed, id, mode, head, parent_inherited) {
            return false;
        }
        self.promoted(head)
    }
    fn on_discard(&self, cfg: &SliConfig, _id: LockId, head: &LockHead, unused: u32) -> bool {
        // Re-evaluating the band here is what demotes a head whose unused
        // hand-offs are the only traffic left.
        unused < cfg.hysteresis && self.promoted(head)
    }
    fn on_reclaim(&self, head: &LockHead) {
        // The reclaim path cannot latch the queue, but the grant word
        // still carries a sharing hint: other agents' parked inherited
        // entries (our own was already decremented) or live fast-path
        // holds mean the head is still worth inheriting; neither means
        // this reclaim ran alone, extending the demotion streak.
        let w = head.grant_word();
        head.policy()
            .record_reclaim(w.fast_total() > 0 || w.inherited_count() > 0);
    }
    fn adaptive_counters(&self) -> Option<(u64, u64)> {
        // ordering: advisory snapshot of independent counters.
        Some((
            self.promotions.load(Ordering::Relaxed),
            self.demotions.load(Ordering::Relaxed),
        ))
    }
}

/// The shipped policies, nameable without constructing trait objects —
/// used by configuration surfaces and the policy-matrix experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`Baseline`].
    Baseline,
    /// [`PaperSli`] (the default).
    PaperSli,
    /// [`AggressiveSli`].
    AggressiveSli,
    /// [`EagerRelease`].
    EagerRelease,
    /// [`AdaptivePolicy`] with the default hysteresis band. Note that each
    /// [`PolicyKind::build`] call constructs a fresh instance with its own
    /// promotion/demotion counters.
    Adaptive,
}

impl PolicyKind {
    /// Every shipped policy, in ablation-sweep order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Baseline,
        PolicyKind::PaperSli,
        PolicyKind::AggressiveSli,
        PolicyKind::EagerRelease,
        PolicyKind::Adaptive,
    ];

    /// Construct the policy object.
    pub fn build(self) -> Arc<dyn LockPolicy> {
        match self {
            PolicyKind::Baseline => Arc::new(Baseline),
            PolicyKind::PaperSli => Arc::new(PaperSli),
            PolicyKind::AggressiveSli => Arc::new(AggressiveSli),
            PolicyKind::EagerRelease => Arc::new(EagerRelease),
            PolicyKind::Adaptive => Arc::new(AdaptivePolicy::default()),
        }
    }

    /// The policy's display name (matches [`LockPolicy::name`]).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "baseline",
            PolicyKind::PaperSli => "paper-sli",
            PolicyKind::AggressiveSli => "aggressive",
            PolicyKind::EagerRelease => "eager-release",
            PolicyKind::Adaptive => "adaptive",
        }
    }

    /// Parse a display name back into a kind (CLI/env knobs).
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl From<PolicyKind> for Arc<dyn LockPolicy> {
    fn from(kind: PolicyKind) -> Self {
        kind.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::TableId;
    use crate::request::LockRequest;

    fn head_with(id: LockId, hot: bool, waiters: u32) -> Arc<LockHead> {
        let h = LockHead::new(id);
        for _ in 0..16 {
            h.hot().record(hot);
        }
        {
            let mut q = h.latch_untracked();
            for i in 0..waiters {
                q.push_waiting(Arc::new(LockRequest::new_waiting(
                    id,
                    200 + i,
                    900 + i as u64,
                    LockMode::X,
                )));
            }
        }
        h
    }

    fn held<'a>(id: LockId, mode: LockMode, head: &'a LockHead, grantable: bool) -> HeldLock<'a> {
        HeldLock {
            id,
            mode,
            head,
            grantable,
        }
    }

    #[test]
    fn trait_is_object_safe_and_kinds_round_trip() {
        for kind in PolicyKind::ALL {
            let p: Arc<dyn LockPolicy> = kind.build();
            assert_eq!(p.name(), kind.name());
            assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::from_name("nope"), None);
    }

    /// The satellite-mandated fixture: `PaperSli` must agree with the
    /// historical free function on every combination of level, mode, heat,
    /// waiters, parent decision, and config toggles.
    #[test]
    fn paper_sli_matches_legacy_predicate_on_fixture() {
        let configs = [
            SliConfig::default(),
            SliConfig {
                require_shared_mode: false,
                ..SliConfig::default()
            },
            SliConfig {
                require_no_waiters: false,
                ..SliConfig::default()
            },
            SliConfig {
                require_parent: false,
                ..SliConfig::default()
            },
            SliConfig {
                min_level: LockLevel::Record,
                ..SliConfig::default()
            },
            SliConfig {
                hot_threshold: 0.0,
                ..SliConfig::default()
            },
        ];
        let ids = [
            LockId::Database,
            LockId::Table(TableId(1)),
            LockId::Page(TableId(1), 0),
            LockId::Record(TableId(1), 0, 0),
        ];
        let modes = [
            LockMode::IS,
            LockMode::IX,
            LockMode::S,
            LockMode::SIX,
            LockMode::X,
        ];
        let policy = PaperSli;
        let mut checked = 0usize;
        for cfg in &configs {
            for id in ids {
                for mode in modes {
                    for hot in [false, true] {
                        for waiters in [0u32, 1] {
                            for parent in [None, Some(false), Some(true)] {
                                let head = head_with(id, hot, waiters);
                                assert_eq!(
                                    policy.is_candidate(cfg, id, mode, &head, parent),
                                    is_inheritance_candidate(cfg, id, mode, &head, parent),
                                    "divergence at {id} {mode} hot={hot} \
                                     waiters={waiters} parent={parent:?} cfg={cfg:?}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 6 * 4 * 5 * 2 * 2 * 3);
    }

    #[test]
    fn default_walk_respects_parent_order_and_cap() {
        let db = head_with(LockId::Database, true, 0);
        let t1 = LockId::Table(TableId(1));
        let th = head_with(t1, true, 0);
        let pages: Vec<(LockId, Arc<LockHead>)> = (0..4u32)
            .map(|p| {
                let id = LockId::Page(TableId(1), p);
                (id, head_with(id, true, 0))
            })
            .collect();
        let mut locks = vec![
            held(LockId::Database, LockMode::IS, &db, true),
            held(t1, LockMode::IS, &th, true),
        ];
        for (id, h) in &pages {
            locks.push(held(*id, LockMode::S, h, true));
        }
        let cfg = SliConfig {
            max_inherited_per_txn: 3,
            ..SliConfig::default()
        };
        let d = PaperSli.select_candidates(&cfg, &locks);
        assert_eq!(d, vec![true, true, true, false, false, false], "cap at 3");

        // A cold parent vetoes its children (criterion 5) even when the
        // children are hot.
        let cold_table = head_with(t1, false, 0);
        let locks2 = vec![
            held(LockId::Database, LockMode::IS, &db, true),
            held(t1, LockMode::IS, &cold_table, true),
            held(pages[0].0, LockMode::S, &pages[0].1, true),
        ];
        let d2 = PaperSli.select_candidates(&SliConfig::default(), &locks2);
        assert_eq!(d2, vec![true, false, false]);
    }

    #[test]
    fn baseline_and_eager_release_never_select() {
        let db = head_with(LockId::Database, true, 0);
        let locks = vec![held(LockId::Database, LockMode::IS, &db, true)];
        let cfg = SliConfig::default();
        for p in [&Baseline as &dyn LockPolicy, &EagerRelease] {
            assert!(!p.inherits());
            assert_eq!(p.select_candidates(&cfg, &locks), vec![false]);
        }
        assert!(EagerRelease.early_release_shared());
        assert!(!Baseline.early_release_shared());
    }

    #[test]
    fn aggressive_selects_cold_exclusive_high_level_locks() {
        let t1 = LockId::Table(TableId(1));
        let cold = head_with(t1, false, 1);
        let cfg = SliConfig::default();
        assert!(AggressiveSli.is_candidate(&cfg, t1, LockMode::X, &cold, Some(true)));
        assert!(!AggressiveSli.is_candidate(
            &cfg,
            LockId::Record(TableId(1), 0, 0),
            LockMode::S,
            &cold,
            Some(true)
        ));
        // Orphan-avoidance: a released parent still vetoes.
        assert!(!AggressiveSli.is_candidate(&cfg, t1, LockMode::S, &cold, Some(false)));
    }

    #[test]
    fn paper_sli_heats_on_either_signal() {
        let shared_only = AcquireSample {
            latch_contended: false,
            cross_agent_shared: true,
        };
        let collided = AcquireSample {
            latch_contended: true,
            cross_agent_shared: false,
        };
        assert!(PaperSli.on_acquire(&shared_only));
        assert!(PaperSli.on_acquire(&collided));
        assert!(!PaperSli.on_acquire(&AcquireSample::default()));
    }

    #[test]
    fn adaptive_promotes_and_demotes_across_the_band() {
        let policy = AdaptivePolicy::with_band(0.5, 0.25);
        let t1 = LockId::Table(TableId(1));
        let head = LockHead::new(t1);
        let cfg = SliConfig::default();

        // Cold head: not promoted, no candidate.
        for _ in 0..16 {
            head.hot().record(false);
        }
        assert!(!policy.is_candidate(&cfg, t1, LockMode::IS, &head, Some(true)));
        assert_eq!(policy.adaptive_counters(), Some((0, 0)));

        // Heat past the promote threshold: promoted, candidate.
        for _ in 0..16 {
            head.hot().record(true);
        }
        assert!(policy.is_candidate(&cfg, t1, LockMode::IS, &head, Some(true)));
        assert!(head.policy().adaptive_promoted());
        assert_eq!(policy.adaptive_counters(), Some((1, 0)));

        // Inside the band (ratio 0.5 > demote 0.25 but < promote after
        // cooling to 8/16): the promoted state sticks — hysteresis.
        for _ in 0..8 {
            head.hot().record(false);
        }
        assert!(policy.is_candidate(&cfg, t1, LockMode::IS, &head, Some(true)));
        assert_eq!(policy.adaptive_counters(), Some((1, 0)));

        // Cool below the demote threshold: demoted, no candidate.
        for _ in 0..14 {
            head.hot().record(false);
        }
        assert!(!policy.is_candidate(&cfg, t1, LockMode::IS, &head, Some(true)));
        assert!(!head.policy().adaptive_promoted());
        assert_eq!(policy.adaptive_counters(), Some((1, 1)));
    }

    #[test]
    fn adaptive_promoted_head_inherits_below_the_global_hot_threshold() {
        // The band replaces criterion 2: a promoted head stays a candidate
        // while its ratio sits between demote and hot_threshold.
        let policy = AdaptivePolicy::with_band(0.5, 0.125);
        let t1 = LockId::Table(TableId(1));
        let head = LockHead::new(t1);
        for _ in 0..16 {
            head.hot().record(true);
        }
        let cfg = SliConfig {
            hot_threshold: 0.9,
            ..SliConfig::default()
        };
        assert!(policy.is_candidate(&cfg, t1, LockMode::IS, &head, Some(true)));
        // Ratio 4/16 = 0.25: below PaperSli's 0.9 bar, above demote.
        for _ in 0..12 {
            head.hot().record(false);
        }
        assert!(
            policy.is_candidate(&cfg, t1, LockMode::IS, &head, Some(true)),
            "promoted head must ride through the band"
        );
        assert!(
            !PaperSli.is_candidate(&cfg, t1, LockMode::IS, &head, Some(true)),
            "paper-sli would already have dropped it"
        );
    }

    #[test]
    fn adaptive_lone_reclaim_streak_demotes_a_promoted_head() {
        let policy = AdaptivePolicy::default().demote_streak(8);
        let t1 = LockId::Table(TableId(1));
        let head = LockHead::new(t1);
        let cfg = SliConfig::default();
        for _ in 0..16 {
            head.hot().record(true);
        }
        assert!(policy.is_candidate(&cfg, t1, LockMode::IS, &head, Some(true)));

        // Lone reclaims (empty grant word: no fast holds, no parked
        // inherited entries) extend the streak...
        for _ in 0..7 {
            policy.on_reclaim(&head);
        }
        // ...a shared reclaim resets it...
        head.grant_word().inc_inherited();
        policy.on_reclaim(&head);
        assert_eq!(head.policy().alone_streak(), 0, "sharing resets");
        head.grant_word().dec_inherited();
        assert!(
            policy.is_candidate(&cfg, t1, LockMode::IS, &head, Some(true)),
            "still promoted: the streak never completed"
        );
        // ...and a full alone run demotes even though the (frozen) hot
        // window still reads 1.0.
        for _ in 0..8 {
            policy.on_reclaim(&head);
        }
        assert!(!policy.is_candidate(&cfg, t1, LockMode::IS, &head, Some(true)));
        assert_eq!(head.hot().ratio(16), 1.0, "window frozen hot");
        assert_eq!(policy.adaptive_counters(), Some((1, 1)));
        assert!(PaperSli.adaptive_counters().is_none());
    }

    #[test]
    fn discard_policies_follow_hysteresis() {
        let t1 = LockId::Table(TableId(1));
        let hot = head_with(t1, true, 0);
        let cold = head_with(t1, false, 0);
        let cfg = SliConfig {
            hysteresis: 2,
            ..SliConfig::default()
        };
        assert!(PaperSli.on_discard(&cfg, t1, &hot, 1));
        assert!(!PaperSli.on_discard(&cfg, t1, &hot, 2), "bounded");
        assert!(!PaperSli.on_discard(&cfg, t1, &cold, 0), "cold drops");
        assert!(
            AggressiveSli.on_discard(&cfg, t1, &cold, 1),
            "aggressive keeps cold locks within hysteresis"
        );
        assert!(!Baseline.on_discard(&cfg, t1, &hot, 0));
    }
}
