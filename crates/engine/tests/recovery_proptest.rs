//! End-to-end recovery properties over arbitrary workloads and arbitrary
//! crash points: cut the durable log anywhere, recover, and
//!
//! 1. recovery never fails structurally and never replays past the cut,
//! 2. `recover(recover(log)) == recover(log)` — recovery is idempotent
//!    (the recovered log is a fixpoint: the second pass undoes nothing
//!    and produces an identical state hash),
//! 3. a full-length cut reproduces the crashed database's exact state.

use proptest::prelude::*;
use sli_engine::{Database, DatabaseConfig, DecodeEnd, TxnError};

/// One scripted transaction against a single-table database: a few
/// operations drawn from (insert, update, delete), then commit or
/// user-abort. Keys are drawn from a small space so transactions collide
/// and exercise slot reuse.
#[derive(Clone, Debug)]
struct Op {
    kind: u8,
    key: u64,
    val: u8,
}

fn arb_txn() -> impl Strategy<Value = (Vec<Op>, bool)> {
    (
        prop::collection::vec(
            (0u8..3, 0u64..24, 0u8..=255).prop_map(|(kind, key, val)| Op { kind, key, val }),
            1..6,
        ),
        prop::bool::ANY,
    )
}

/// Run the scripted transactions against a fresh durable database and
/// return it. Lock failures can't happen (single session); NotFound is
/// absorbed by mapping ops onto insert-or-update / delete-if-present.
fn build(txns: &[(Vec<Op>, bool)]) -> std::sync::Arc<Database> {
    let db = Database::open(DatabaseConfig::default().durable());
    let t = db.create_table("t").unwrap();
    for k in 0..8u64 {
        db.bulk_insert(t, k, Some(k), &[k as u8; 4]);
    }
    db.force_log().unwrap();
    let s = db.session();
    for (ops, commit) in txns {
        let ops = ops.clone();
        let commit = *commit;
        let _ = s.run(|txn| {
            for op in &ops {
                match op.kind {
                    0 => {
                        // Insert-or-update.
                        if txn.lookup(t, op.key).is_some() {
                            txn.update_by_key(t, op.key, |_| vec![op.val; 4])?;
                        } else {
                            txn.insert_with_okey(t, op.key, Some(op.key), &[op.val; 4])?;
                        }
                    }
                    1 => {
                        if txn.lookup(t, op.key).is_some() {
                            txn.update_by_key(t, op.key, |_| vec![op.val; 3])?;
                        }
                    }
                    _ => {
                        if txn.lookup(t, op.key).is_some() {
                            txn.delete_by_key(t, op.key, Some(op.key))?;
                        }
                    }
                }
            }
            if commit {
                Ok(())
            } else {
                Err(txn.user_abort("scripted rollback"))
            }
        });
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash anywhere: recovery succeeds, is idempotent, and a
    /// full-length log reproduces the crashed state exactly.
    #[test]
    fn recovery_is_idempotent_at_any_crash_point(
        txns in prop::collection::vec(arb_txn(), 1..8),
        cut_sel in 0u64..10_000,
    ) {
        let db = build(&txns);
        let log = db.durable_log();
        let cut = log.len() * cut_sel as usize / 10_000;

        let (rec1, rep1) = Database::recover(DatabaseConfig::default(), &log[..cut])
            .expect("recovery never fails structurally");
        prop_assert!(rep1.consumed <= cut);

        // Idempotence: recover the recovered log. Pure redo, same state.
        let log2 = rec1.durable_log();
        let (rec2, rep2) = Database::recover(DatabaseConfig::default(), &log2)
            .expect("recovered log recovers");
        prop_assert_eq!(rep2.undone, 0, "second recovery undoes nothing");
        prop_assert_eq!(rep2.end, DecodeEnd::Clean);
        prop_assert_eq!(rec2.state_hash(), rec1.state_hash(), "recover . recover == recover");

        // Full log: every session.run either committed (and was forced
        // durable) or rolled back with durable compensations before the
        // next txn started, so the whole-log recovery matches the live DB.
        if cut == log.len() {
            prop_assert_eq!(rep1.end, DecodeEnd::Clean);
            prop_assert_eq!(rec1.state_hash(), db.state_hash(), "full log reproduces the crash state");
        }
    }

    /// Workload invariant through recovery: the primary index and the heap
    /// agree — every recovered key reads back, and the record count matches
    /// the index size.
    #[test]
    fn recovered_indexes_agree_with_the_heap(
        txns in prop::collection::vec(arb_txn(), 1..6),
        cut_sel in 0u64..10_000,
    ) {
        let db = build(&txns);
        let log = db.durable_log();
        let cut = log.len() * cut_sel as usize / 10_000;
        let (rec, _) = Database::recover(DatabaseConfig::default(), &log[..cut]).unwrap();
        if let Some(t) = rec.table_handle("t") {
            let mut live = 0u64;
            for k in 0..200u64 {
                if rec.peek(t, k).is_some() {
                    live += 1;
                }
            }
            prop_assert_eq!(live, rec.record_count(t), "index and heap agree");
        }
    }
}

/// Deterministic corruption sweep rides along with the properties: any
/// single flipped bit in the log either truncates replay (never replays
/// the damaged record) or fails loudly — it never silently produces a
/// diverged state that a second recovery disagrees with.
#[test]
fn flipped_bits_never_replay_silently() {
    let db = build(&[(
        vec![
            Op {
                kind: 0,
                key: 3,
                val: 7,
            },
            Op {
                kind: 2,
                key: 1,
                val: 0,
            },
        ],
        true,
    )]);
    let log = db.durable_log();
    let mut state = 0x2545F4914F6CDD1Du64;
    for _ in 0..64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let idx = (state as usize >> 8) % log.len();
        let bit = (state as u8) & 7;
        let mut bad = log.clone();
        bad[idx] ^= 1 << bit;
        if let Ok((rec, rep)) = Database::recover(DatabaseConfig::default(), &bad) {
            assert_ne!(rep.end, DecodeEnd::Clean, "damage must be surfaced");
            assert!(rep.consumed < log.len());
            let (rec2, rep2) =
                Database::recover(DatabaseConfig::default(), &rec.durable_log()).unwrap();
            assert_eq!(rep2.undone, 0);
            assert_eq!(rec2.state_hash(), rec.state_hash());
        }
    }
    let _ = TxnError::NotFound; // exercise the re-export
}
