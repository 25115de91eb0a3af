//! A tour of the lock manager API itself — modes, hierarchy, upgrades,
//! deadlock detection, and the SLI lifecycle — without the engine on top.
//!
//! ```text
//! cargo run --release --example lock_manager_tour
//! ```

use std::sync::Arc;
use std::time::Duration;

use sli::core::{
    FastPathConfig, LockId, LockManager, LockManagerConfig, LockMode, PolicyKind, TableId,
    TxnLockState,
};

fn main() {
    println!("== 1. the mode lattice ==");
    for a in [
        LockMode::IS,
        LockMode::IX,
        LockMode::S,
        LockMode::SIX,
        LockMode::X,
    ] {
        let compat: Vec<String> = [
            LockMode::IS,
            LockMode::IX,
            LockMode::S,
            LockMode::SIX,
            LockMode::X,
        ]
        .iter()
        .filter(|b| a.compatible(**b))
        .map(|b| b.to_string())
        .collect();
        println!("  {a:>3} compatible with: {}", compat.join(" "));
    }
    println!("  sup(S, IX) = {}", LockMode::S.supremum(LockMode::IX));

    println!("\n== 2. automatic intention locks ==");
    // Every acquire sampled onto the latched path for this tour: sections
    // 3-4 narrate the SLI hand-off, which needs every acquisition to be a
    // queued (inheritable) request. Section 6 tours the fast path itself.
    let mut cfg = LockManagerConfig::with_policy(PolicyKind::PaperSli);
    cfg.fastpath = FastPathConfig::disabled();
    let m = LockManager::new(cfg);
    let mut agent = m.register_agent().unwrap();
    let mut ts = TxnLockState::new(agent.slot());
    m.begin(&mut ts, &mut agent);
    let record = LockId::Record(TableId(1), 7, 3);
    m.lock(&mut ts, &mut agent, record, LockMode::X).unwrap();
    for id in [
        LockId::Database,
        LockId::Table(TableId(1)),
        LockId::Page(TableId(1), 7),
        record,
    ] {
        println!("  {id}: held {:?}", ts.held_mode(id).unwrap());
    }

    println!("\n== 3. SLI lifecycle ==");
    // Heat the high-level locks (normally latch contention does this).
    for id in [
        LockId::Database,
        LockId::Table(TableId(1)),
        LockId::Page(TableId(1), 7),
    ] {
        let head = m.head(id).unwrap();
        for _ in 0..16 {
            head.hot().record(true);
        }
    }
    // X on the record is NOT heritable (criterion 3); downgrade scenario:
    // commit and watch the shared-mode ancestors pass to the agent.
    m.end_txn(&mut ts, &mut agent, true);
    println!(
        "  after commit, inherited: {:?}",
        agent.inherited_ids().collect::<Vec<_>>()
    );
    let before = m.stats().snapshot();
    m.begin(&mut ts, &mut agent);
    m.lock(
        &mut ts,
        &mut agent,
        LockId::Record(TableId(1), 7, 4),
        LockMode::S,
    )
    .unwrap();
    let after = m.stats().snapshot();
    println!(
        "  next txn: {} locks reclaimed via CAS, {} fresh lock-manager requests",
        after.sli_reclaimed - before.sli_reclaimed,
        after.lock_requests - before.lock_requests
    );
    m.end_txn(&mut ts, &mut agent, true);

    println!("\n== 4. invalidation by a conflicting transaction ==");
    // The agent still holds inherited locks; an X on the table from another
    // agent invalidates them in passing, without blocking.
    let m2 = Arc::clone(&m);
    let handle = std::thread::spawn(move || {
        let mut a2 = m2.register_agent().unwrap();
        let mut t2 = TxnLockState::new(a2.slot());
        m2.begin(&mut t2, &mut a2);
        let t0 = std::time::Instant::now();
        m2.lock(&mut t2, &mut a2, LockId::Table(TableId(1)), LockMode::X)
            .unwrap();
        let waited = t0.elapsed();
        m2.end_txn(&mut t2, &mut a2, true);
        waited
    });
    let waited = handle.join().unwrap();
    println!("  table X acquired in {waited:?} (inherited locks invalidated, not waited on)");
    println!(
        "  invalidations so far: {}",
        m.stats().snapshot().sli_invalidated
    );

    println!("\n== 5. deadlock detection (Dreadlocks) ==");
    let mcfg =
        LockManagerConfig::with_policy(PolicyKind::Baseline).lock_timeout(Duration::from_secs(2));
    let dm = LockManager::new(mcfg);
    let a = LockId::Record(TableId(9), 0, 0);
    let b = LockId::Record(TableId(9), 0, 1);
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let spawn = |first: LockId, second: LockId| {
        let dm = Arc::clone(&dm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let mut ag = dm.register_agent().unwrap();
            let mut tx = TxnLockState::new(ag.slot());
            dm.begin(&mut tx, &mut ag);
            dm.lock(&mut tx, &mut ag, first, LockMode::X).unwrap();
            barrier.wait();
            let r = dm.lock(&mut tx, &mut ag, second, LockMode::X);
            dm.end_txn(&mut tx, &mut ag, r.is_ok());
            r
        })
    };
    let h1 = spawn(a, b);
    let h2 = spawn(b, a);
    let (r1, r2) = (h1.join().unwrap(), h2.join().unwrap());
    println!("  txn1: {r1:?}");
    println!("  txn2: {r2:?}");
    println!("  exactly one victim: {}", (r1.is_err() ^ r2.is_err()));
    m.retire_agent(&mut agent);

    println!("\n== 6. the grant word: latch-free compatible acquisitions ==");
    // Default config: group-compatible fresh acquires (IS/IX on ancestors,
    // S on records) are granted by one CAS on the head's packed word — no
    // latch, no LockRequest, no queue entry.
    let fm = LockManager::new(LockManagerConfig::with_policy(PolicyKind::Baseline));
    let mut fa = fm.register_agent().unwrap();
    let mut fts = TxnLockState::new(fa.slot());
    fm.begin(&mut fts, &mut fa);
    fm.lock(
        &mut fts,
        &mut fa,
        LockId::Record(TableId(1), 0, 0),
        LockMode::S,
    )
    .unwrap();
    let table_head = fm.head(LockId::Table(TableId(1))).unwrap();
    println!(
        "  4-level hierarchy held, {} of {} via the grant word",
        fts.fast_locks_held(),
        fts.locks_held()
    );
    println!(
        "  table head word: {:?}",
        table_head.grant_word().snapshot()
    );
    println!(
        "  queue entries on the table head: {} (empty: the word carries the count)",
        table_head.latch_untracked().reqs.len()
    );
    fm.end_txn(&mut fts, &mut fa, true);
    let snap = fm.stats().snapshot();
    println!(
        "  stats: {} fast grants, {} fallbacks, {} allocations",
        snap.fastpath_granted, snap.fastpath_fallbacks, snap.requests_allocated
    );
    fm.retire_agent(&mut fa);
}
