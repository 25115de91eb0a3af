//! Cross-backend parity: the backend seam must not change
//! *what* the engine computes, only *how* concurrent transactions are
//! isolated.
//!
//! 1. A deterministic single-agent schedule of inserts, updates, deletes,
//!    and ordered scans produces bit-identical logical state
//!    (`Database::state_hash`) and identical scan output on the locked
//!    2PL backend and the MVCC backend.
//! 2. TPC-B-style concurrent transfers on MVCC preserve the conservation
//!    invariant (total balance constant) with validation losers retried —
//!    the `TxnError::Validation` retry contract actually converges.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use sli_engine::{BackendKind, Database, DatabaseConfig, TxnError};

fn open(kind: BackendKind) -> Arc<Database> {
    Database::open(DatabaseConfig::default().backend(kind))
}

/// The deterministic schedule: build a keyed+ordered table, rewrite part
/// of it, scan a range, delete a band, scan again. All inserts precede
/// all deletes so heap slot reuse cannot diverge between the eager
/// (locked) and deferred-to-quiesce (MVCC) reclamation paths.
fn run_schedule(db: &Arc<Database>) -> Vec<(u64, Vec<u8>)> {
    let t = db.create_table("parity").unwrap();
    let s = db.session();
    let mut scanned = Vec::new();

    // Seed rows, several per transaction.
    for chunk in 0..8u64 {
        s.run(|txn| {
            for i in 0..8u64 {
                let k = chunk * 8 + i;
                txn.insert_with_okey(t, k, Some(k), format!("seed-{k}").as_bytes())?;
            }
            Ok(())
        })
        .unwrap();
    }

    // Rewrite every third row; read-modify-write every seventh.
    s.run(|txn| {
        for k in (0..64u64).step_by(3) {
            txn.update_by_key(t, k, |_| format!("upd-{k}").into_bytes())?;
        }
        Ok(())
    })
    .unwrap();
    s.run(|txn| {
        for k in (0..64u64).step_by(7) {
            let before = txn.read_by_key(t, k)?;
            let mut next = before.to_vec();
            next.extend_from_slice(b"+rmw");
            txn.update_by_key(t, k, |_| next.clone())?;
        }
        Ok(())
    })
    .unwrap();

    // A read-only ordered scan between the write phases.
    s.run(|txn| {
        txn.scan_ordered(t, 10, 40, usize::MAX, |k, data| {
            scanned.push((k, data.to_vec()));
        })?;
        Ok(())
    })
    .unwrap();

    // Delete a band (mixed plain and previously-updated rows), plus a
    // rolled-back transaction that must leave no trace.
    s.run(|txn| {
        for k in 20..30u64 {
            txn.delete_by_key(t, k, Some(k))?;
        }
        Ok(())
    })
    .unwrap();
    let aborted: Result<(), TxnError> = s.run(|txn| {
        txn.update_by_key(t, 5, |_| b"dirty".to_vec())?;
        txn.delete_by_key(t, 6, Some(6))?;
        Err(txn.user_abort("parity: deliberate rollback"))
    });
    assert!(aborted.is_err());

    // Final scan over the deleted band's edges.
    s.run(|txn| {
        txn.scan_ordered(t, 15, 35, usize::MAX, |k, data| {
            scanned.push((k, data.to_vec()));
        })?;
        Ok(())
    })
    .unwrap();

    scanned
}

#[test]
fn deterministic_schedule_hashes_identically_across_backends() {
    let locked = open(BackendKind::Locked2pl);
    let mvcc = open(BackendKind::Mvcc);

    let scan_locked = run_schedule(&locked);
    let scan_mvcc = run_schedule(&mvcc);
    assert_eq!(scan_locked, scan_mvcc, "scan output diverged");

    // Collapse MVCC chains into the heap (applies deferred deletes) so
    // both databases expose their logical state the same way; quiesce is
    // a no-op on the locked backend.
    locked.quiesce();
    mvcc.quiesce();
    assert_eq!(
        locked.state_hash(),
        mvcc.state_hash(),
        "logical state diverged between Locked2pl and Mvcc"
    );
    assert_eq!(
        locked.record_count(locked.table_handle("parity").unwrap()),
        54
    );
    assert_eq!(mvcc.record_count(mvcc.table_handle("parity").unwrap()), 54);
}

#[test]
fn concurrent_transfers_preserve_balance_under_mvcc() {
    const ACCOUNTS: u64 = 8;
    const THREADS: usize = 4;
    const TRANSFERS: usize = 1_000;
    const OPENING: i64 = 1_000;

    let db = open(BackendKind::Mvcc);
    let t = db.create_table("acct").unwrap();
    for k in 0..ACCOUNTS {
        db.bulk_insert(t, k, None, &OPENING.to_le_bytes());
    }

    let retried = Arc::new(AtomicU64::new(0));
    // Released together: a thread spawned late would otherwise find the
    // others finished (a few hundred transfers take a millisecond in a
    // release build) and the run would see no conflict at all.
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for me in 0..THREADS {
            let db = Arc::clone(&db);
            let retried = Arc::clone(&retried);
            let start = &start;
            scope.spawn(move || {
                let s = db.session();
                start.wait();
                let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(me as u64 + 1);
                for i in 0..TRANSFERS {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let from = rng % ACCOUNTS;
                    let to = (from + 1 + (rng >> 16) % (ACCOUNTS - 1)) % ACCOUNTS;
                    let delta = (i as i64 % 17) + 1;
                    let mut attempts = 0u64;
                    s.run_with_retries(1_000, |txn| {
                        attempts += 1;
                        let debit =
                            i64::from_le_bytes(txn.read_by_key(t, from)?[..8].try_into().unwrap());
                        let credit =
                            i64::from_le_bytes(txn.read_by_key(t, to)?[..8].try_into().unwrap());
                        txn.update_by_key(t, from, |_| (debit - delta).to_le_bytes().to_vec())?;
                        txn.update_by_key(t, to, |_| (credit + delta).to_le_bytes().to_vec())?;
                        Ok(())
                    })
                    .expect("transfer must eventually commit");
                    retried.fetch_add(attempts - 1, Ordering::Relaxed);
                }
            });
        }
    });

    // Conservation: snapshot the bank in one transaction.
    let s = db.session();
    let total: i64 = s
        .run(|txn| {
            let mut sum = 0i64;
            for k in 0..ACCOUNTS {
                sum += i64::from_le_bytes(txn.read_by_key(t, k)?[..8].try_into().unwrap());
            }
            Ok(sum)
        })
        .unwrap();
    assert_eq!(total, OPENING * ACCOUNTS as i64, "balance not conserved");

    // The run really exercised the OCC abort/retry path: with 4 threads
    // hammering 8 rows, validation conflicts are certain.
    let stats = db.mvcc_stats().expect("mvcc backend exposes stats");
    assert!(
        stats.validation_aborts + stats.ww_conflicts > 0,
        "no conflicts at all — the test is not stressing validation"
    );
    assert_eq!(
        retried.load(Ordering::Relaxed),
        stats.validation_aborts + stats.ww_conflicts,
        "every retry corresponds to a recorded conflict"
    );

    // And the lock manager sat idle the whole time.
    let locks = db.lock_stats();
    assert_eq!(locks.lock_requests, 0, "MVCC run touched the lock manager");
}
