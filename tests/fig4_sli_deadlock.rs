//! Figure 4 as a test: SLI-induced deadlocks cannot happen.
//!
//! The paper's scenario: agents T1 and T2 both acquire L2 followed by L1
//! during normal execution — no deadlock is possible. With SLI, T1 may
//! *inherit* L1 from a previous transaction, effectively holding its locks
//! in reverse order. If inherited-but-unreclaimed locks could not be
//! invalidated, T1 and T2 could deadlock. The protocol avoids this: a
//! conflicting request invalidates the not-yet-used inheritance and
//! proceeds.

use std::sync::Arc;
use std::time::Duration;

use sli::core::{
    FastPathConfig, LockId, LockManager, LockManagerConfig, LockMode, PolicyKind, RequestStatus,
    TableId, TxnLockState,
};

const L1: LockId = LockId::Table(TableId(1));
const L2: LockId = LockId::Table(TableId(2));

#[test]
fn inherited_lock_is_invalidated_instead_of_deadlocking() {
    // A real deadlock would hit the timeout.
    let mut cfg =
        LockManagerConfig::with_policy(PolicyKind::PaperSli).lock_timeout(Duration::from_secs(10));
    // The scenario needs the setup acquisitions to be queued (inheritable),
    // not grant-word holds: every acquire sampled onto the latched path.
    cfg.fastpath = FastPathConfig::disabled();
    let m = LockManager::new(cfg);

    // --- set up: agent 1 inherits L1 (held in S mode) -------------------
    let mut a1 = m.register_agent().unwrap();
    let mut t1 = TxnLockState::new(a1.slot());
    m.begin(&mut t1, &mut a1);
    m.lock(&mut t1, &mut a1, L1, LockMode::S).unwrap();
    // Heat L1 and its parent so the commit passes them on.
    for id in [LockId::Database, L1] {
        let head = m.head(id).expect("held");
        for _ in 0..16 {
            head.hot().record(true);
        }
    }
    m.end_txn(&mut t1, &mut a1, true);
    assert!(
        a1.inherited_ids().any(|id| id == L1),
        "L1 must be inherited for the scenario"
    );

    // --- the Figure 4 race ----------------------------------------------
    // T1 (on agent 1) starts a transaction that will lock L2 then L1; it
    // *holds* the inherited L1 the whole time without having reclaimed it.
    m.begin(&mut t1, &mut a1);
    m.lock(&mut t1, &mut a1, L2, LockMode::S).unwrap();

    // T2 (agent 2) acquires L2 in a compatible mode, then needs L1
    // exclusively — which conflicts with agent 1's *inherited* S on L1.
    // Without invalidation this is the deadly embrace: T2 waits on T1's
    // inherited lock while T1 will next wait on... nothing, actually — but
    // if T2 blocked, and T1 then upgraded L2, we would have a cycle that
    // normal execution could never produce.
    let m2 = Arc::clone(&m);
    let t2_handle = std::thread::spawn(move || {
        let mut a2 = m2.register_agent().unwrap();
        let mut t2 = TxnLockState::new(a2.slot());
        m2.begin(&mut t2, &mut a2);
        m2.lock(&mut t2, &mut a2, L2, LockMode::IS).unwrap();
        let started = std::time::Instant::now();
        let r = m2.lock(&mut t2, &mut a2, L1, LockMode::X);
        let waited = started.elapsed();
        m2.end_txn(&mut t2, &mut a2, r.is_ok());
        (r, waited)
    });

    let (r, waited) = t2_handle.join().unwrap();
    assert!(r.is_ok(), "T2 must acquire L1: {r:?}");
    assert!(
        waited < Duration::from_millis(500),
        "T2 must not block on the inherited lock (waited {waited:?})"
    );

    // T1 now tries to use its inherited L1: the reclaim must fail (it was
    // invalidated) and fall back to a fresh request, acquired in natural
    // order — no deadlock, no error.
    m.lock(&mut t1, &mut a1, L1, LockMode::S).unwrap();
    m.end_txn(&mut t1, &mut a1, true);

    let stats = m.stats().snapshot();
    assert!(
        stats.sli_invalidated >= 1,
        "the inheritance was invalidated"
    );
    assert_eq!(stats.deadlocks, 0, "no deadlock may occur in this scenario");
}

#[test]
fn inherited_lock_is_invalidated_with_the_grant_word_in_play() {
    // The same Figure 4 scenario, but with the grant-word fast path
    // ENABLED: inheritance must arise organically through the sampling
    // fall-through, and the invalidating X must cut through while the
    // victim transaction holds a live *fast* (grant-word) S on L2.
    let mut cfg =
        LockManagerConfig::with_policy(PolicyKind::PaperSli).lock_timeout(Duration::from_secs(10));
    // Aggressive sampling so the latched (inheritable) acquisition of L1
    // shows up within a few transactions rather than ~64.
    cfg.fastpath.sample_every = 3;
    let m = LockManager::new(cfg);

    let mut a1 = m.register_agent().unwrap();
    let mut t1 = TxnLockState::new(a1.slot());
    // Loop S-on-L1 transactions (heating the hierarchy) until a sampled
    // latched acquire gets inherited at commit.
    let mut rounds = 0;
    while !a1.inherited_ids().any(|id| id == L1) {
        m.begin(&mut t1, &mut a1);
        m.lock(&mut t1, &mut a1, L1, LockMode::S).unwrap();
        for id in [LockId::Database, L1] {
            let head = m.head(id).expect("held");
            for _ in 0..16 {
                head.hot().record(true);
            }
        }
        m.end_txn(&mut t1, &mut a1, true);
        rounds += 1;
        assert!(rounds < 1_000, "sampling never produced an inheritable L1");
    }
    assert!(
        m.stats().snapshot().fastpath_granted > 0,
        "the fast path must have been exercised during setup"
    );

    // T1 opens a transaction holding a grant-word S on L2 (fresh head, no
    // flags: must go fast) while its inherited L1 is still parked.
    m.begin(&mut t1, &mut a1);
    m.lock(&mut t1, &mut a1, L2, LockMode::S).unwrap();
    assert_eq!(
        t1.holds_fast(L2),
        Some(LockMode::S),
        "L2 must be a live fast hold for this variant"
    );

    // T2 takes L2 compatibly, then X on L1: the inherited S is
    // invalidated, not waited on — with fast holds in play on L2.
    let m2 = Arc::clone(&m);
    let t2_handle = std::thread::spawn(move || {
        let mut a2 = m2.register_agent().unwrap();
        let mut t2 = TxnLockState::new(a2.slot());
        m2.begin(&mut t2, &mut a2);
        m2.lock(&mut t2, &mut a2, L2, LockMode::IS).unwrap();
        let started = std::time::Instant::now();
        let r = m2.lock(&mut t2, &mut a2, L1, LockMode::X);
        let waited = started.elapsed();
        m2.end_txn(&mut t2, &mut a2, r.is_ok());
        m2.retire_agent(&mut a2);
        (r, waited)
    });
    let (r, waited) = t2_handle.join().unwrap();
    assert!(r.is_ok(), "T2 must acquire L1: {r:?}");
    assert!(
        waited < Duration::from_millis(500),
        "T2 must not block on the inherited lock (waited {waited:?})"
    );

    // T1's next use of L1 falls back to a fresh request; no deadlock.
    m.lock(&mut t1, &mut a1, L1, LockMode::S).unwrap();
    m.end_txn(&mut t1, &mut a1, true);
    m.retire_agent(&mut a1);
    let stats = m.stats().snapshot();
    assert!(
        stats.sli_invalidated >= 1,
        "the inheritance was invalidated"
    );
    assert_eq!(stats.deadlocks, 0, "no deadlock may occur in this scenario");
}

#[test]
fn reclaimed_lock_behaves_like_a_normal_acquisition() {
    // Once reclaimed, the lock was "acquired in natural order": a later
    // conflicting request must WAIT (not invalidate).
    let mut cfg =
        LockManagerConfig::with_policy(PolicyKind::PaperSli).lock_timeout(Duration::from_secs(5));
    cfg.fastpath = FastPathConfig::disabled();
    let m = LockManager::new(cfg);

    let mut a1 = m.register_agent().unwrap();
    let mut t1 = TxnLockState::new(a1.slot());
    m.begin(&mut t1, &mut a1);
    m.lock(&mut t1, &mut a1, L1, LockMode::S).unwrap();
    for id in [LockId::Database, L1] {
        let head = m.head(id).expect("held");
        for _ in 0..16 {
            head.hot().record(true);
        }
    }
    m.end_txn(&mut t1, &mut a1, true);

    // Next transaction on agent 1 reclaims L1 (uses it immediately).
    m.begin(&mut t1, &mut a1);
    m.lock(&mut t1, &mut a1, L1, LockMode::S).unwrap();
    let head = m.head(L1).expect("exists");
    // The reclaim must have kept the same request (now Granted).
    let reclaimed = m.stats().snapshot().sli_reclaimed;
    assert!(reclaimed >= 1, "reclaim happened");

    // A conflicting X from agent 2 now must wait for T1's commit.
    let m2 = Arc::clone(&m);
    let blocker = std::thread::spawn(move || {
        let mut a2 = m2.register_agent().unwrap();
        let mut t2 = TxnLockState::new(a2.slot());
        m2.begin(&mut t2, &mut a2);
        let started = std::time::Instant::now();
        m2.lock(&mut t2, &mut a2, L1, LockMode::X).unwrap();
        let waited = started.elapsed();
        m2.end_txn(&mut t2, &mut a2, true);
        waited
    });
    while head.waiters_hint() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(40));
    m.end_txn(&mut t1, &mut a1, true);
    let waited = blocker.join().unwrap();
    assert!(
        waited >= Duration::from_millis(30),
        "X had to wait for the reclaimed S (waited {waited:?})"
    );
    // Sanity: L1's request from agent 1 ended Released or Inherited, never
    // silently lost.
    let snap = m.stats().snapshot();
    assert_eq!(snap.deadlocks, 0);
    let _ = RequestStatus::Granted;
}
