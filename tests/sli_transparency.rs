//! SLI transparency: enabling inheritance must not change any
//! application-visible behaviour — same results, same consistency, no
//! anomalies ("without changes to consistency or other application-visible
//! effects").

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sli::core::PolicyKind;
use sli::engine::{Database, DatabaseConfig, TxnError};
use sli::workloads::tpcb::TpcB;
use sli::workloads::Outcome;

/// A deterministic single-threaded TM1-style schedule: seeded interleaving
/// of reads and read-modify-writes over 500 keys. Returns every byte
/// observed by the reads, so two runs can be compared for transparency.
fn deterministic_schedule(config: DatabaseConfig) -> Vec<Vec<u8>> {
    let db = Database::open(config);
    let t = db.create_table("t").unwrap();
    for k in 0..500u64 {
        db.bulk_insert(t, k, None, &(k * 7).to_le_bytes());
    }
    let s = db.session();
    let mut rng = SmallRng::seed_from_u64(1234);
    let mut observed = Vec::new();
    for i in 0..2_000u64 {
        let k = rng.gen_range(0..500u64);
        if i % 5 == 0 {
            s.run(|txn| {
                txn.update_by_key(t, k, |old| {
                    let v = u64::from_le_bytes(old.try_into().unwrap());
                    (v + 1).to_le_bytes().to_vec()
                })
            })
            .unwrap();
        } else {
            let bytes = s
                .run(|txn| txn.read_by_key(t, k).map(|b| b.to_vec()))
                .unwrap();
            observed.push(bytes);
        }
    }
    observed
}

/// Run the same deterministic single-threaded TM1-style schedule against a
/// baseline and an SLI database; every read must return identical bytes.
#[test]
fn single_threaded_results_identical_with_and_without_sli() {
    assert_eq!(
        deterministic_schedule(DatabaseConfig::with_policy(
            sli::engine::PolicyKind::Baseline
        )),
        deterministic_schedule(DatabaseConfig::with_policy(
            sli::engine::PolicyKind::PaperSli
        ))
    );
}

/// The transparency invariant, parameterized over both policies:
/// inheritance may not change application-visible results relative to the
/// baseline.
#[test]
fn all_policies_produce_identical_committed_state() {
    let reference = deterministic_schedule(DatabaseConfig::with_policy(PolicyKind::Baseline));
    for kind in PolicyKind::ALL {
        if kind == PolicyKind::Baseline {
            continue; // it produced the reference
        }
        assert_eq!(
            deterministic_schedule(DatabaseConfig::with_policy(kind)),
            reference,
            "policy {} diverged from baseline",
            kind.name()
        );
    }
}

/// Money conservation under concurrency, parameterized over both policies:
/// TPC-B's branch/teller/account sums must agree no matter how locks are
/// inherited or invalidated.
#[test]
fn all_policies_preserve_tpcb_invariants_under_concurrency() {
    for kind in PolicyKind::ALL {
        let db = Database::open(DatabaseConfig::with_policy(kind));
        let bank = TpcB::load(&db, 4, 100);
        let threads = 4;
        let mut handles = Vec::new();
        for t in 0..threads {
            let db = Arc::clone(&db);
            let bank = Arc::clone(&bank);
            handles.push(std::thread::spawn(move || {
                let s = db.session();
                let mut rng = SmallRng::seed_from_u64(t);
                let mut commits = 0u64;
                for _ in 0..200 {
                    if bank.account_update(&s, &mut rng) == Outcome::Commit {
                        commits += 1;
                    }
                }
                commits
            }));
        }
        let commits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let (b, t, a) = bank.balance_sums(&db);
        assert_eq!(b, t, "{}: branch/teller invariant", kind.name());
        assert_eq!(b, a, "{}: branch/account invariant", kind.name());
        assert_eq!(
            db.record_count(db.table_handle("tpcb_history").unwrap()),
            commits,
            "{}: history rows == commits",
            kind.name()
        );
        if kind == PolicyKind::Baseline {
            assert_eq!(
                db.lock_stats().sli_inherited,
                0,
                "baseline must not inherit"
            );
        }
    }
}

/// The TPC-B money-conservation invariant must hold under heavy concurrency
/// with SLI enabled (two-phase locking is preserved through inheritance).
#[test]
fn tpcb_invariant_holds_under_concurrency_with_sli() {
    let db = Database::open(DatabaseConfig::with_policy(
        sli::engine::PolicyKind::PaperSli,
    ));
    let bank = TpcB::load(&db, 4, 200);
    let threads = 8;
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        let bank = Arc::clone(&bank);
        handles.push(std::thread::spawn(move || {
            let s = db.session();
            let mut rng = SmallRng::seed_from_u64(t);
            let mut commits = 0u64;
            for _ in 0..400 {
                if bank.account_update(&s, &mut rng) == Outcome::Commit {
                    commits += 1;
                }
            }
            commits
        }));
    }
    let commits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let (b, t, a) = bank.balance_sums(&db);
    assert_eq!(b, t, "branch/teller invariant");
    assert_eq!(b, a, "branch/account invariant");
    assert_eq!(
        db.record_count(db.table_handle("tpcb_history").unwrap()),
        commits
    );
    // And SLI must actually have been exercised for the test to mean
    // anything.
    let stats = db.lock_stats();
    assert!(
        stats.sli_inherited > 0,
        "workload never triggered inheritance; test is vacuous"
    );
}

/// A writer that conflicts with an *inherited* lock must see the post-commit
/// state of the inheriting chain, never a torn or stale read.
#[test]
fn conflicting_writer_sees_consistent_state() {
    let db = Database::open(DatabaseConfig::with_policy(
        sli::engine::PolicyKind::PaperSli,
    ));
    let t = db.create_table("counter").unwrap();
    db.bulk_insert(t, 1, None, &0u64.to_le_bytes());

    let readers: Vec<_> = (0..4)
        .map(|i| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let s = db.session();
                let mut last = 0u64;
                for _ in 0..2_000 {
                    let v = s
                        .run(|txn| {
                            let b = txn.read_by_key(t, 1)?;
                            Ok(u64::from_le_bytes(b[..].try_into().unwrap()))
                        })
                        .unwrap();
                    assert!(v >= last, "monotone counter went backwards");
                    last = v;
                }
                let _ = i;
                last
            })
        })
        .collect();

    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let s = db.session();
            for _ in 0..500 {
                s.run_with_retries(20, |txn| {
                    txn.update_by_key(t, 1, |old| {
                        let v = u64::from_le_bytes(old.try_into().unwrap());
                        (v + 1).to_le_bytes().to_vec()
                    })
                })
                .unwrap();
            }
        })
    };
    for r in readers {
        r.join().unwrap();
    }
    writer.join().unwrap();
    let v = u64::from_le_bytes(db.peek(t, 1).unwrap()[..].try_into().unwrap());
    assert_eq!(v, 500);
}

/// Retryable vs non-retryable classification is stable across the stack.
#[test]
fn error_taxonomy_round_trips() {
    let db = Database::open(DatabaseConfig::with_policy(
        sli::engine::PolicyKind::PaperSli,
    ));
    let t = db.create_table("t").unwrap();
    let s = db.session();
    let r = s.run(|txn| txn.read_by_key(t, 999).map(|_| ()));
    assert_eq!(r, Err(TxnError::NotFound));
    assert!(!TxnError::NotFound.is_retryable());
    assert!(!TxnError::UserAbort("x").is_retryable());
}
