//! Quickstart: open a database, run transactions, watch SLI work.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sli::engine::{Database, DatabaseConfig};

fn main() {
    // A database with Speculative Lock Inheritance enabled (the default
    // configuration; use `DatabaseConfig::with_policy(sli::engine::PolicyKind::Baseline)` for the unmodified
    // lock manager).
    let db = Database::open(DatabaseConfig::with_policy(
        sli::engine::PolicyKind::PaperSli,
    ));
    let accounts = db.create_table("accounts").expect("fresh database");

    // Load a few rows outside of any transaction.
    for id in 0..1000u64 {
        db.bulk_insert(accounts, id, None, &100u64.to_le_bytes());
    }

    // A session owns one lock-manager agent; SLI passes hot locks from each
    // committed transaction to the next one on the same session.
    let session = db.session();

    // Transfer 10 units from account 1 to account 2, transactionally.
    session
        .run(|txn| {
            txn.update_by_key(accounts, 1, |old| {
                let v = u64::from_le_bytes(old.try_into().unwrap());
                (v - 10).to_le_bytes().to_vec()
            })?;
            txn.update_by_key(accounts, 2, |old| {
                let v = u64::from_le_bytes(old.try_into().unwrap());
                (v + 10).to_le_bytes().to_vec()
            })?;
            Ok(())
        })
        .expect("transfer commits");

    let v1 = u64::from_le_bytes(db.peek(accounts, 1).unwrap()[..].try_into().unwrap());
    let v2 = u64::from_le_bytes(db.peek(accounts, 2).unwrap()[..].try_into().unwrap());
    println!("after transfer: account1={v1} account2={v2}");
    assert_eq!(v1 + v2, 200);

    // A failed transaction rolls back automatically.
    let result: Result<(), sli::engine::TxnError> = session.run(|txn| {
        txn.update_by_key(accounts, 1, |_| 0u64.to_le_bytes().to_vec())?;
        Err(txn.user_abort("changed my mind"))
    });
    assert!(result.is_err());
    let v1_after = u64::from_le_bytes(db.peek(accounts, 1).unwrap()[..].try_into().unwrap());
    assert_eq!(v1_after, v1, "rollback restored the balance");
    println!("rollback verified: account1 still {v1_after}");

    // Run a few hundred read transactions; under concurrent load the
    // database/table/page locks would heat up and start flowing from
    // transaction to transaction without touching the lock manager.
    for i in 0..300u64 {
        session
            .run(|txn| {
                txn.read_by_key(accounts, i % 1000)?;
                Ok(())
            })
            .unwrap();
    }
    let stats = db.lock_stats();
    println!(
        "lock manager: {} requests, {} cache hits, {} SLI reclaims, {} commits",
        stats.lock_requests, stats.cache_hits, stats.sli_reclaimed, stats.commits
    );
    println!(
        "inherited locks currently parked on this session: {}",
        session.inherited_locks()
    );
}
