//! Scoped policy resolution: per-table and per-level [`LockPolicy`] scopes.
//!
//! The paper's SLI heuristic is a single global knob, but its own Section 6
//! observations (hot locks concentrate on a few table/database heads) argue
//! for scoping the decision. A [`PolicyMap`] carries one *default* scope
//! plus optional per-table and per-level overrides; every [`LockHead`]
//! resolves its scope **once, at head creation**, caching a
//! [`HeadPolicy`] (scope id + policy pointer) on the head itself. The hot
//! acquire/commit paths therefore pay zero extra lookups: the grant-word
//! fast path never consults a policy at all, and the latched paths chase
//! exactly the one pointer they already chased when the policy was global.
//!
//! Resolution is most-specific-wins: table override > level override >
//! default. A table override governs the table's whole subtree (its table,
//! page, and record heads). Table overrides are declared *by name* at
//! configuration time and bound to a [`TableId`] when the engine creates
//! the table (see `Database::create_table`), so the map can be built before
//! any catalog exists.
//!
//! ## The root rule
//!
//! The database lock is shared by every table, and the paper's criterion 5
//! (parents-first inheritance) means no table-scoped policy can ever
//! inherit if the root lock's scope never does. When the default scope
//! does not inherit but some override does (and no explicit
//! `Database`-level override is configured), the map therefore gives
//! [`LockId::Database`] a dedicated `root` scope governed by the first
//! inheriting override's policy — dedicated, so root-lock traffic shows
//! up under its own label in the per-scope stats instead of polluting
//! that table's counters. The database lock is always held in intention
//! mode and is the hottest, most-heritable lock in every workload the
//! paper measures, so routing it to an inheriting policy is exactly the
//! paper's global behaviour.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::id::{LockId, LockLevel, TableId};
use crate::policy::{LockPolicy, PaperSli};

/// Upper bound on the number of scopes a [`PolicyMap`] may hold (default +
/// overrides). Bounds the per-scope counter arrays in
/// [`crate::LockStats`].
pub const MAX_POLICY_SCOPES: usize = 16;

/// One named scope of a [`PolicyMap`]: a display name and the policy that
/// governs every lock head resolved into the scope.
#[derive(Clone, Debug)]
pub struct PolicyScope {
    name: String,
    policy: Arc<dyn LockPolicy>,
}

impl PolicyScope {
    /// The scope's display name (`default`, `table:tpcc_warehouse`,
    /// `level:record`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The policy governing the scope.
    pub fn policy(&self) -> &Arc<dyn LockPolicy> {
        &self.policy
    }

    /// The canonical display label, `name(policy)` — e.g.
    /// `table:tpcc_warehouse(aggressive)`. Used by `Database::scope_stats`
    /// and the harness' per-scope reporting, so the two never drift.
    pub fn label(&self) -> String {
        format!("{}({})", self.name, self.policy.name())
    }
}

/// A lock head's cached policy resolution: the scope index (for stat
/// attribution) and the policy pointer, plus the per-head promotion state
/// used by [`crate::AdaptivePolicy`]. Created once per head and immutable
/// except for the adaptive flag.
pub struct HeadPolicy {
    scope_id: u16,
    policy: Arc<dyn LockPolicy>,
    /// Per-head adaptive promotion state (0 = base, 1 = promoted). Owned
    /// here rather than on the policy object because policies are shared
    /// by every head in their scope while promotion is a per-head
    /// decision.
    promoted: AtomicU8,
    /// Consecutive reclaims of this head that observed no other sharer
    /// (no parked inherited entries, no fast holds). The adaptive
    /// demotion signal: sharing resets it, a long alone-run demotes.
    alone_streak: AtomicU32,
}

impl HeadPolicy {
    /// A resolution into scope `scope_id` governed by `policy`.
    pub fn new(scope_id: u16, policy: Arc<dyn LockPolicy>) -> Self {
        HeadPolicy {
            scope_id,
            policy,
            promoted: AtomicU8::new(0),
            alone_streak: AtomicU32::new(0),
        }
    }

    /// The default-scope resolution used by heads constructed outside a
    /// lock manager (tests, fixtures): scope 0, the paper's policy.
    pub fn default_paper() -> Self {
        HeadPolicy::new(0, Arc::new(PaperSli))
    }

    /// The scope index, for per-scope stat attribution.
    #[inline]
    pub fn scope_id(&self) -> u16 {
        self.scope_id
    }

    /// The policy governing this head.
    #[inline]
    pub fn policy(&self) -> &dyn LockPolicy {
        &*self.policy
    }

    /// The policy as an `Arc` (for callers that need to retain it).
    pub fn policy_arc(&self) -> &Arc<dyn LockPolicy> {
        &self.policy
    }

    /// Whether an adaptive policy has promoted this head to inheriting.
    #[inline]
    pub fn adaptive_promoted(&self) -> bool {
        // ordering: relaxed — the promotion flag is a heuristic hint; a
        // stale read just delays the policy flip by one decision.
        self.promoted.load(Ordering::Relaxed) != 0
    }

    /// Flip the head's adaptive promotion state. Racy flips by concurrent
    /// committers are harmless: both observed the same band crossing.
    #[inline]
    pub fn set_adaptive_promoted(&self, promoted: bool) {
        // ordering: relaxed heuristic flag (see `adaptive_promoted`).
        self.promoted.store(promoted as u8, Ordering::Relaxed);
    }

    /// Current alone-reclaim streak (adaptive demotion signal).
    #[inline]
    pub fn alone_streak(&self) -> u32 {
        // ordering: relaxed heuristic counter (see `adaptive_promoted`).
        self.alone_streak.load(Ordering::Relaxed)
    }

    /// Record one reclaim observation: sharing resets the streak, an
    /// alone reclaim extends it.
    #[inline]
    pub fn record_reclaim(&self, shared: bool) {
        // ordering: relaxed heuristic counter (see `adaptive_promoted`);
        // racing observers can at worst miscount the streak by one.
        if shared {
            self.alone_streak.store(0, Ordering::Relaxed);
        } else {
            self.alone_streak.fetch_add(1, Ordering::Relaxed); // ordering: see above.
        }
    }

    /// Reset the alone-reclaim streak (promotion starts a fresh run).
    #[inline]
    pub fn reset_alone_streak(&self) {
        // ordering: relaxed heuristic counter (see `adaptive_promoted`).
        self.alone_streak.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for HeadPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeadPolicy")
            .field("scope_id", &self.scope_id)
            .field("policy", &self.policy.name())
            .field("promoted", &self.adaptive_promoted())
            .finish()
    }
}

/// Scoped policy configuration: a default scope plus per-table and
/// per-level overrides, resolved once per lock head at creation.
///
/// Built through [`crate::LockManagerConfig`]'s (or the engine
/// `DatabaseConfig`'s) fluent builder methods; table overrides are named
/// and bound to concrete [`TableId`]s later via [`PolicyMap::bind_table`].
pub struct PolicyMap {
    /// `scopes[0]` is always the default scope.
    scopes: Vec<PolicyScope>,
    /// Per-level override: scope index by [`LockLevel`] (db, table, page,
    /// record).
    levels: [Option<u16>; 4],
    /// Named table overrides awaiting binding: scope index by table name.
    by_name: HashMap<String, u16>,
    /// Bound table overrides. Written once per `bind_table` (table
    /// creation, a cold path); read on head creation only — never on the
    /// acquire/commit hot paths, which use the head's cached resolution.
    tables: RwLock<HashMap<TableId, u16>>,
    /// Cached: any scope's policy inherits (gates commit-time selection).
    any_inherits: bool,
    /// Cached: any scope's policy early-releases shared locks.
    any_early_release: bool,
    /// Cached root-rule resolution for [`LockId::Database`].
    root_scope: u16,
    /// Index of the synthetic `root` scope, once the root rule has had to
    /// create one (it persists — possibly unused — if later mutations
    /// make the default scope inheriting again).
    root_synthetic: Option<u16>,
}

impl Default for PolicyMap {
    fn default() -> Self {
        PolicyMap::single(Arc::new(PaperSli) as Arc<dyn LockPolicy>)
    }
}

impl Clone for PolicyMap {
    fn clone(&self) -> Self {
        PolicyMap {
            scopes: self.scopes.clone(),
            levels: self.levels,
            by_name: self.by_name.clone(),
            tables: RwLock::new(self.tables.read().clone()),
            any_inherits: self.any_inherits,
            any_early_release: self.any_early_release,
            root_scope: self.root_scope,
            root_synthetic: self.root_synthetic,
        }
    }
}

impl std::fmt::Debug for PolicyMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let scopes: Vec<String> = self
            .scopes
            .iter()
            .map(|s| format!("{}={}", s.name, s.policy.name()))
            .collect();
        f.debug_struct("PolicyMap")
            .field("scopes", &scopes)
            .field("bound_tables", &self.tables.read().len())
            .finish()
    }
}

impl PolicyMap {
    /// A uniform map: one default scope governed by `policy`. Equivalent
    /// to the pre-map global `Arc<dyn LockPolicy>` configuration.
    pub fn single(policy: impl Into<Arc<dyn LockPolicy>>) -> Self {
        let mut map = PolicyMap {
            scopes: vec![PolicyScope {
                name: "default".to_string(),
                policy: policy.into(),
            }],
            levels: [None; 4],
            by_name: HashMap::new(),
            tables: RwLock::new(HashMap::new()),
            any_inherits: false,
            any_early_release: false,
            root_scope: 0,
            root_synthetic: None,
        };
        map.recompute();
        map
    }

    fn recompute(&mut self) {
        // Root rule: explicit Database-level override wins; otherwise the
        // default scope if it inherits (or no real scope does); otherwise
        // a dedicated `root` scope mirroring the first inheriting
        // override's policy, so root-lock traffic is attributed to its
        // own label rather than that table's counters. The donor search
        // skips the synthetic scope itself: a stale mirror must never
        // keep the root inheriting after its donor was replaced.
        let donor = self
            .scopes
            .iter()
            .enumerate()
            .find(|(i, s)| Some(*i as u16) != self.root_synthetic && s.policy.inherits())
            .map(|(_, s)| Arc::clone(&s.policy));
        let needs_synthetic = self.levels[level_index(LockLevel::Database)].is_none()
            && !self.scopes[0].policy.inherits()
            && donor.is_some();
        if !needs_synthetic {
            // Whenever the synthetic root is not the active resolution,
            // re-mirror it onto the default so a stale copy of a removed
            // override can never keep inheritance alive (or show a
            // phantom policy in scope listings).
            if let Some(idx) = self.root_synthetic {
                self.scopes[idx as usize].policy = Arc::clone(&self.scopes[0].policy);
            }
        }
        self.root_scope = if let Some(s) = self.levels[level_index(LockLevel::Database)] {
            s
        } else if !needs_synthetic {
            0
        } else {
            let donor = donor.expect("needs_synthetic implies a donor");
            match self.root_synthetic {
                Some(idx) => {
                    self.scopes[idx as usize].policy = donor;
                    idx
                }
                None => {
                    let idx = self.push_scope("root".to_string(), donor);
                    self.root_synthetic = Some(idx);
                    idx
                }
            }
        };
        // Flags last: they must reflect the settled scope policies
        // (including the synthetic root mirror).
        self.any_inherits = self.scopes.iter().any(|s| s.policy.inherits());
        self.any_early_release = self.scopes.iter().any(|s| s.policy.early_release_shared());
    }

    fn push_scope(&mut self, name: String, policy: Arc<dyn LockPolicy>) -> u16 {
        assert!(
            self.scopes.len() < MAX_POLICY_SCOPES,
            "a PolicyMap holds at most {MAX_POLICY_SCOPES} scopes"
        );
        self.scopes.push(PolicyScope { name, policy });
        (self.scopes.len() - 1) as u16
    }

    /// Replace the default scope's policy.
    pub fn set_default(&mut self, policy: impl Into<Arc<dyn LockPolicy>>) {
        self.scopes[0].policy = policy.into();
        self.recompute();
    }

    /// Add (or replace) a per-table override for the table named `table`.
    /// The scope becomes effective once the engine binds the name to a
    /// [`TableId`] via [`PolicyMap::bind_table`]; it governs the table's
    /// whole subtree (table, page, and record heads).
    pub fn add_table_override(&mut self, table: &str, policy: impl Into<Arc<dyn LockPolicy>>) {
        let policy = policy.into();
        if let Some(&idx) = self.by_name.get(table) {
            self.scopes[idx as usize].policy = policy;
        } else {
            let idx = self.push_scope(format!("table:{table}"), policy);
            self.by_name.insert(table.to_string(), idx);
        }
        self.recompute();
    }

    /// Add (or replace) a per-level override: every head at `level` that is
    /// not claimed by a table override resolves into this scope.
    ///
    /// Criterion 5 caveat: the root rule repairs the parents-first chain
    /// only at the *database* head, so an **inheriting** override at
    /// `Page`/`Record` level can only fire where its table ancestry also
    /// inherits — under a non-inheriting default (and no inheriting table
    /// override covering the table) such an override never inherits. A
    /// `Table`-level inheriting override works (its parent is the root),
    /// as do non-inheriting level overrides at any level (the policy-map
    /// tests pin `Record` to `Baseline`, for example).
    pub fn add_level_override(&mut self, level: LockLevel, policy: impl Into<Arc<dyn LockPolicy>>) {
        let policy = policy.into();
        let slot = level_index(level);
        if let Some(idx) = self.levels[slot] {
            self.scopes[idx as usize].policy = policy;
        } else {
            let idx = self.push_scope(format!("level:{}", level.name()), policy);
            self.levels[slot] = Some(idx);
        }
        self.recompute();
    }

    /// Bind a named table override to the concrete [`TableId`] the catalog
    /// assigned. Called by the engine at table creation — before any lock
    /// head for the table can exist. Returns whether a binding occurred.
    pub fn bind_table(&self, name: &str, table: TableId) -> bool {
        let Some(&idx) = self.by_name.get(name) else {
            return false;
        };
        self.tables.write().insert(table, idx);
        true
    }

    /// Resolve the scope governing `id`. Called once per lock-head
    /// creation; the result is cached on the head.
    pub fn resolve(&self, id: LockId) -> HeadPolicy {
        let scope = self.scope_for(id);
        HeadPolicy::new(scope, Arc::clone(&self.scopes[scope as usize].policy))
    }

    fn scope_for(&self, id: LockId) -> u16 {
        if self.scopes.len() == 1 {
            return 0;
        }
        if id == LockId::Database {
            return self.root_scope;
        }
        if let Some(t) = id.table() {
            if let Some(&s) = self.tables.read().get(&t) {
                return s;
            }
        }
        self.levels[level_index(id.level())].unwrap_or(0)
    }

    /// The default scope's policy.
    pub fn default_policy(&self) -> &Arc<dyn LockPolicy> {
        &self.scopes[0].policy
    }

    /// The policy of scope `idx`, if it exists.
    pub fn scope_policy(&self, idx: usize) -> Option<&Arc<dyn LockPolicy>> {
        self.scopes.get(idx).map(|s| &s.policy)
    }

    /// All scopes, in scope-id order (`[0]` is the default).
    pub fn scopes(&self) -> &[PolicyScope] {
        &self.scopes
    }

    /// Number of scopes (default + overrides).
    pub fn num_scopes(&self) -> usize {
        self.scopes.len()
    }

    /// Whether the map has a single scope (the pre-map global behaviour).
    pub fn is_uniform(&self) -> bool {
        self.scopes.len() == 1
    }

    /// Whether any scope's policy ever inherits (gates commit-time
    /// candidate selection).
    pub fn any_inherits(&self) -> bool {
        self.any_inherits
    }

    /// Whether any scope's policy early-releases shared locks (gates the
    /// pre-commit release pass).
    pub fn any_early_release(&self) -> bool {
        self.any_early_release
    }

    /// Decision point 2 over a scoped map: select the inheritance
    /// candidates among a committing transaction's held locks.
    ///
    /// A uniform map delegates to the policy's own
    /// [`LockPolicy::select_candidates`] (preserving custom walks). A mixed
    /// map runs the standard parents-first walk with the per-transaction
    /// cap, asking each lock's *head-resolved* policy for the per-lock
    /// predicate — custom selection overrides are not honored across mixed
    /// scopes.
    pub fn select_candidates(
        &self,
        cfg: &crate::SliConfig,
        locks: &[crate::policy::HeldLock<'_>],
    ) -> Vec<bool> {
        if self.is_uniform() {
            return self.scopes[0].policy.select_candidates(cfg, locks);
        }
        if !self.any_inherits {
            return vec![false; locks.len()];
        }
        crate::policy::parents_first_walk(cfg, locks, |l, parent_ok| {
            let pol = l.head.policy().policy();
            pol.inherits() && pol.is_candidate(cfg, l.id, l.mode, l.head, parent_ok)
        })
    }
}

#[inline]
fn level_index(level: LockLevel) -> usize {
    match level {
        LockLevel::Database => 0,
        LockLevel::Table => 1,
        LockLevel::Page => 2,
        LockLevel::Record => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AggressiveSli, Baseline, PolicyKind};

    fn tid(t: u32) -> TableId {
        TableId(t)
    }

    #[test]
    fn uniform_map_resolves_everything_to_scope_zero() {
        let map = PolicyMap::single(PolicyKind::PaperSli);
        for id in [
            LockId::Database,
            LockId::Table(tid(1)),
            LockId::Page(tid(1), 0),
            LockId::Record(tid(1), 0, 0),
        ] {
            let hp = map.resolve(id);
            assert_eq!(hp.scope_id(), 0);
            assert_eq!(hp.policy().name(), "paper-sli");
        }
        assert!(map.is_uniform());
        assert!(map.any_inherits());
        assert!(!map.any_early_release());
    }

    #[test]
    fn table_override_requires_binding_and_governs_the_subtree() {
        let mut map = PolicyMap::single(PolicyKind::Baseline);
        map.add_table_override("hot", PolicyKind::AggressiveSli);
        // Unbound: everything still resolves to the default.
        assert_eq!(map.resolve(LockId::Table(tid(3))).scope_id(), 0);
        assert!(map.bind_table("hot", tid(3)));
        assert!(!map.bind_table("missing", tid(4)));
        for id in [
            LockId::Table(tid(3)),
            LockId::Page(tid(3), 7),
            LockId::Record(tid(3), 7, 1),
        ] {
            let hp = map.resolve(id);
            assert_eq!(hp.scope_id(), 1, "{id}");
            assert_eq!(hp.policy().name(), "aggressive");
        }
        // Other tables stay in the default scope.
        assert_eq!(map.resolve(LockId::Table(tid(4))).scope_id(), 0);
        assert_eq!(map.resolve(LockId::Record(tid(4), 0, 0)).scope_id(), 0);
    }

    #[test]
    fn root_rule_routes_database_head_to_a_dedicated_inheriting_scope() {
        // Non-inheriting default + inheriting table override: the database
        // head must resolve to an inheriting policy or criterion 5 could
        // never fire for the override — and into its *own* `root` scope,
        // so root-lock stats never pollute the table's counters.
        let mut map = PolicyMap::single(PolicyKind::Baseline);
        map.add_table_override("hot", PolicyKind::AggressiveSli);
        map.bind_table("hot", tid(1));
        let root = map.resolve(LockId::Database);
        assert_eq!(root.policy().name(), "aggressive");
        assert_ne!(
            root.scope_id(),
            map.resolve(LockId::Table(tid(1))).scope_id(),
            "root-lock attribution must not land in the table scope"
        );
        assert_eq!(map.scopes()[root.scope_id() as usize].name(), "root");

        // Inheriting default: root stays in the default scope, no
        // synthetic scope appears.
        let mut map = PolicyMap::single(PolicyKind::PaperSli);
        map.add_table_override("hot", PolicyKind::AggressiveSli);
        assert_eq!(map.resolve(LockId::Database).scope_id(), 0);
        assert_eq!(map.num_scopes(), 2);

        // No scope inherits at all: default.
        let mut map = PolicyMap::single(PolicyKind::Baseline);
        map.add_table_override("cold", PolicyKind::EagerRelease);
        assert_eq!(map.resolve(LockId::Database).scope_id(), 0);

        // An explicit Database-level override always wins.
        let mut map = PolicyMap::single(PolicyKind::Baseline);
        map.add_table_override("hot", PolicyKind::AggressiveSli);
        map.add_level_override(LockLevel::Database, PolicyKind::Baseline);
        assert_eq!(map.resolve(LockId::Database).policy().name(), "baseline");

        // Replacing the only inheriting override neutralizes the stale
        // synthetic root: nothing inherits anymore.
        let mut map = PolicyMap::single(PolicyKind::Baseline);
        map.add_table_override("hot", PolicyKind::AggressiveSli);
        assert!(map.any_inherits());
        map.add_table_override("hot", PolicyKind::Baseline);
        assert!(!map.any_inherits(), "stale root mirror must not inherit");
        assert_eq!(map.resolve(LockId::Database).scope_id(), 0);

        // The same neutralization must hold when an explicit Database
        // override takes the root before the donor override is removed.
        let mut map = PolicyMap::single(PolicyKind::Baseline);
        map.add_table_override("hot", PolicyKind::AggressiveSli);
        map.add_level_override(LockLevel::Database, PolicyKind::Baseline);
        map.add_table_override("hot", PolicyKind::Baseline);
        assert!(
            !map.any_inherits(),
            "stale root mirror must not survive behind an explicit db override"
        );
    }

    #[test]
    fn level_override_yields_to_table_override() {
        let mut map = PolicyMap::single(PolicyKind::PaperSli);
        map.add_level_override(LockLevel::Record, PolicyKind::Baseline);
        map.add_table_override("hot", PolicyKind::AggressiveSli);
        map.bind_table("hot", tid(1));
        // Table override wins for its subtree...
        assert_eq!(
            map.resolve(LockId::Record(tid(1), 0, 0)).policy().name(),
            "aggressive"
        );
        // ...level override applies elsewhere.
        assert_eq!(
            map.resolve(LockId::Record(tid(2), 0, 0)).policy().name(),
            "baseline"
        );
        assert_eq!(map.resolve(LockId::Page(tid(2), 0)).scope_id(), 0);
    }

    #[test]
    fn flags_and_names_reflect_the_scopes() {
        let mut map = PolicyMap::single(PolicyKind::Baseline);
        assert!(!map.any_inherits());
        map.add_table_override("a", PolicyKind::AggressiveSli);
        map.add_level_override(LockLevel::Record, PolicyKind::EagerRelease);
        assert!(map.any_inherits());
        assert!(map.any_early_release());
        // default + table:a + the synthetic root + level:record.
        assert_eq!(map.num_scopes(), 4);
        let names: Vec<&str> = map.scopes().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["default", "table:a", "root", "level:record"]);
        // Replacing an existing override must not grow the scope list.
        map.add_table_override("a", PolicyKind::Baseline);
        assert_eq!(map.num_scopes(), 4);
        map.add_level_override(LockLevel::Record, PolicyKind::Baseline);
        assert_eq!(map.num_scopes(), 4);
        assert!(!map.any_early_release());
        assert!(!map.any_inherits());
    }

    #[test]
    fn clone_preserves_bindings_and_accepts_custom_policy_objects() {
        let mut map = PolicyMap::single(Arc::new(Baseline) as Arc<dyn crate::LockPolicy>);
        map.add_table_override("hot", Arc::new(AggressiveSli) as Arc<dyn crate::LockPolicy>);
        map.bind_table("hot", tid(9));
        let clone = map.clone();
        assert_eq!(clone.resolve(LockId::Table(tid(9))).scope_id(), 1);
        assert_eq!(clone.default_policy().name(), "baseline");
    }

    #[test]
    fn head_policy_promotion_flag_round_trips() {
        let hp = HeadPolicy::default_paper();
        assert!(!hp.adaptive_promoted());
        hp.set_adaptive_promoted(true);
        assert!(hp.adaptive_promoted());
        hp.set_adaptive_promoted(false);
        assert!(!hp.adaptive_promoted());
    }
}
