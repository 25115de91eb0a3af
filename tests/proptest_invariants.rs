//! Property-based tests over the core invariants.

use proptest::prelude::*;
use sli::core::{
    LockId, LockManager, LockManagerConfig, LockMode, PolicyKind, TableId, TxnLockState, ALL_MODES,
};
use sli::engine::{Database, DatabaseConfig};

fn arb_mode() -> impl Strategy<Value = LockMode> {
    prop::sample::select(ALL_MODES.to_vec())
}

fn arb_lock_id() -> impl Strategy<Value = LockId> {
    prop_oneof![
        Just(LockId::Database),
        (0u32..4).prop_map(|t| LockId::Table(TableId(t))),
        (0u32..4, 0u32..8).prop_map(|(t, p)| LockId::Page(TableId(t), p)),
        (0u32..4, 0u32..8, 0u16..16).prop_map(|(t, p, s)| LockId::Record(TableId(t), p, s)),
    ]
}

proptest! {
    /// Compatibility is symmetric, and strengthening a mode never makes it
    /// compatible with more holders (lattice monotonicity).
    #[test]
    fn mode_lattice_properties(a in arb_mode(), b in arb_mode(), c in arb_mode()) {
        prop_assert_eq!(a.compatible(b), b.compatible(a));
        prop_assert_eq!(a.supremum(b), b.supremum(a));
        prop_assert_eq!(a.supremum(a), a);
        // sup is an upper bound: anything compatible with sup(a,b) is
        // compatible with both a and b.
        let s = a.supremum(b);
        if c.compatible(s) {
            prop_assert!(c.compatible(a));
            prop_assert!(c.compatible(b));
        }
        // parent intents are intention modes.
        prop_assert!(matches!(
            a.parent_intent(),
            LockMode::NL | LockMode::IS | LockMode::IX
        ));
    }

    /// Any single-transaction sequence of lock requests succeeds (no
    /// self-deadlock), leaves the manager holding exactly the locks implied
    /// by the strongest request per object, and drains completely at
    /// commit (only idle page-or-higher heads remain).
    #[test]
    fn single_txn_schedules_never_self_deadlock(
        ops in prop::collection::vec((arb_lock_id(), arb_mode()), 1..40),
        policy in 0usize..PolicyKind::ALL.len(),
    ) {
        let m = LockManager::new(LockManagerConfig::with_policy(PolicyKind::ALL[policy]));
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        m.begin(&mut ts, &mut agent);
        for (id, mode) in &ops {
            if *mode == LockMode::NL {
                continue;
            }
            m.lock(&mut ts, &mut agent, *id, *mode).unwrap();
            // The transaction must now hold `mode` or stronger on `id`,
            // unless a coarser ancestor covers it.
            let held = ts.held_mode(*id);
            let covered = id
                .ancestors_top_down()
                .0
                .iter()
                .take(id.ancestors_top_down().1)
                .any(|a| {
                    ts.held_mode(*a)
                        .map(|am| am.covers_child(*mode))
                        .unwrap_or(false)
                });
            prop_assert!(
                covered || held.map(|h| h.implies(*mode)).unwrap_or(false),
                "{id:?} requested {mode:?}, held {held:?}, covered {covered}"
            );
        }
        m.end_txn(&mut ts, &mut agent, true);
        prop_assert_eq!(ts.locks_held(), 0);
        m.retire_agent(&mut agent);
        let heads = m.quiescent_heads();
        prop_assert!(heads.is_ok(), "record head leaked or retained head busy: {:?}", heads);
    }

    /// Consecutive transactions on one agent: regardless of the schedule
    /// and the inheritance policy, retiring the agent leaves no record
    /// head behind and every retained (page or higher) head idle.
    #[test]
    fn sequential_txns_never_leak_locks(
        txns in prop::collection::vec(
            prop::collection::vec((arb_lock_id(), arb_mode()), 1..10),
            1..8,
        ),
        policy in 0usize..PolicyKind::ALL.len(),
    ) {
        let m = LockManager::new(LockManagerConfig::with_policy(PolicyKind::ALL[policy]));
        let mut agent = m.register_agent().unwrap();
        let mut ts = TxnLockState::new(agent.slot());
        for (i, ops) in txns.iter().enumerate() {
            m.begin(&mut ts, &mut agent);
            for (id, mode) in ops {
                if *mode == LockMode::NL {
                    continue;
                }
                m.lock(&mut ts, &mut agent, *id, *mode).unwrap();
                // Heat whatever we touch so SLI has maximal opportunity to
                // misbehave.
                if let Some(h) = m.head(*id) {
                    for _ in 0..16 {
                        h.hot().record(true);
                    }
                }
            }
            // Alternate commit/abort.
            m.end_txn(&mut ts, &mut agent, i % 3 != 2);
        }
        m.retire_agent(&mut agent);
        prop_assert_eq!(agent.inherited_count(), 0);
        let heads = m.quiescent_heads();
        prop_assert!(heads.is_ok(), "record head leaked or retained head busy: {:?}", heads);
    }

    /// Request-pool safety: recycling released/invalidated requests through
    /// the per-agent free pool never resurrects a dead (`Released`/
    /// `Invalid`) request into a live lock queue. Two agents alternate
    /// transactions with everything heated, so the inherit → invalidate →
    /// recycle → reinit churn is maximal; every commit recycles its
    /// released requests through the pool.
    #[test]
    fn pooled_requests_never_resurrect_into_live_queues(
        txns in prop::collection::vec(
            prop::collection::vec((arb_lock_id(), arb_mode()), 1..8),
            2..10,
        ),
    ) {
        use sli::core::RequestStatus;
        let m = LockManager::new(LockManagerConfig::with_policy(PolicyKind::PaperSli));
        let mut agents: Vec<_> = (0..2)
            .map(|_| {
                let a = m.register_agent().unwrap();
                let ts = TxnLockState::new(a.slot());
                (a, ts)
            })
            .collect();
        // Every id any transaction touched (plus ancestors implicitly):
        // the audit universe for live lock heads.
        let mut touched: Vec<LockId> = vec![LockId::Database];
        for (i, ops) in txns.iter().enumerate() {
            let (agent, ts) = &mut agents[i % 2];
            m.begin(ts, agent);
            for (id, mode) in ops {
                if *mode == LockMode::NL {
                    continue;
                }
                m.lock(ts, agent, *id, *mode).unwrap();
                let (anc, n) = id.ancestors_top_down();
                for a in anc.iter().take(n).chain(std::iter::once(id)) {
                    if !touched.contains(a) {
                        touched.push(*a);
                    }
                    // Heat everything so inheritance (and therefore
                    // invalidation by the other agent) fires constantly.
                    if let Some(h) = m.head(*a) {
                        for _ in 0..16 {
                            h.hot().record(true);
                        }
                    }
                }
            }
            m.end_txn(ts, agent, true);
            // Audit: no live queue may contain a dead request — a recycled
            // (pooled + reinitialized) Arc must never still be linked.
            for id in &touched {
                if let Some(head) = m.head(*id) {
                    let q = head.latch_untracked();
                    for r in q.reqs.iter() {
                        let st = r.status();
                        prop_assert!(
                            st != RequestStatus::Released && st != RequestStatus::Invalid,
                            "dead request {st:?} for {:?} resurrected in {id:?}'s queue",
                            r.lock_id()
                        );
                    }
                }
            }
        }
        for (mut agent, _) in agents {
            m.retire_agent(&mut agent);
        }
        let heads = m.quiescent_heads();
        prop_assert!(heads.is_ok(), "record head leaked or retained head busy: {:?}", heads);
    }

    /// Rolling back a random batch of engine operations restores the exact
    /// pre-transaction state (undo correctness).
    #[test]
    fn rollback_restores_exact_state(
        seed_rows in prop::collection::vec((0u64..32, any::<u64>()), 1..16),
        ops in prop::collection::vec((0u8..3, 0u64..48, any::<u64>()), 1..24,),
    ) {
        let db = Database::open(DatabaseConfig::with_policy(sli::engine::PolicyKind::PaperSli));
        let t = db.create_table("t").unwrap();
        for (k, v) in &seed_rows {
            if db.peek(t, *k).is_none() {
                db.bulk_insert(t, *k, None, &v.to_le_bytes());
            }
        }
        let snapshot: Vec<(u64, Option<Vec<u8>>)> =
            (0..48).map(|k| (k, db.peek(t, k).map(|b| b.to_vec()))).collect();

        let s = db.session();
        let r: Result<(), sli::engine::TxnError> = s.run(|txn| {
            for (op, key, val) in &ops {
                match op {
                    0 => {
                        // upsert-ish: update if present, else insert
                        if txn.lookup(t, *key).is_some() {
                            txn.update_by_key(t, *key, |_| val.to_le_bytes().to_vec())?;
                        } else {
                            txn.insert(t, *key, &val.to_le_bytes())?;
                        }
                    }
                    1 => {
                        if txn.lookup(t, *key).is_some() {
                            txn.delete_by_key(t, *key, None)?;
                        }
                    }
                    _ => {
                        let _ = txn.lookup(t, *key).map(|rid| txn.read(t, rid));
                    }
                }
            }
            Err(txn.user_abort("always roll back"))
        });
        prop_assert!(r.is_err());
        let after: Vec<(u64, Option<Vec<u8>>)> =
            (0..48).map(|k| (k, db.peek(t, k).map(|b| b.to_vec()))).collect();
        prop_assert_eq!(snapshot, after, "rollback must be exact");
    }

    /// Hot tracker ratio is always within [0,1] and monotone in the number
    /// of contended samples within a full window.
    #[test]
    fn hot_tracker_ratio_bounds(samples in prop::collection::vec(any::<bool>(), 0..64)) {
        let t = sli::core::HotTracker::new();
        for s in &samples {
            t.record(*s);
        }
        let r = t.ratio();
        prop_assert!((0.0..=1.0).contains(&r));
        if samples.len() >= 16 {
            let recent: usize = samples[samples.len() - 16..]
                .iter()
                .filter(|b| **b)
                .count();
            prop_assert!((r - recent as f64 / 16.0).abs() < 1e-9);
        } else {
            prop_assert_eq!(r, 0.0);
        }
    }
}
