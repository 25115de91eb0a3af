//! Heavier cross-crate stress: many sessions, mixed workloads, SLI on,
//! verifying that the system stays consistent and leaks nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sli::engine::{Database, DatabaseConfig, TxnError};

/// Read a `SLI_STRESS_*` knob (CI dials stress duration down through
/// them). Panics, naming the variable and its value, when it is set but
/// not an unsigned integer.
fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).map_or(default, |v| {
        v.trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v:?} is not a valid number"))
    })
}

/// Readers, writers, inserters, and deleters all over the same small table:
/// the worst case for inheritance (constant invalidation traffic). The test
/// asserts freedom from panics/leaks and that the key set stays consistent
/// with the committed operation log.
#[test]
fn mixed_readers_writers_inserters_deleters() {
    let db =
        Database::open(DatabaseConfig::with_policy(sli::engine::PolicyKind::PaperSli).in_memory());
    let t = db.create_table("stress").unwrap();
    for k in 0..64u64 {
        db.bulk_insert(t, k, None, &k.to_le_bytes());
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    // Agent count knob: CI's oversubscription job sets this to 4× the
    // runner's cores so every latch wait can actually park.
    let agents = env_u64("SLI_STRESS_AGENTS", 8);
    // Net insert/delete balance per thread, to check record counts at end.
    for i in 0..agents {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let s = db.session();
            let mut rng = SmallRng::seed_from_u64(i);
            let mut net = 0i64;
            // Each thread owns a private key range for inserts/deletes so
            // the net count is exactly accountable.
            let base = 1_000 + i * 100_000;
            let mut next = base;
            while !stop.load(Ordering::Relaxed) {
                match rng.gen_range(0..10) {
                    0..=4 => {
                        // Read a shared row.
                        let k = rng.gen_range(0..64u64);
                        let _ = s.run(|txn| txn.read_by_key(t, k).map(|_| ()));
                    }
                    5..=6 => {
                        // Update a shared row (conflicts expected).
                        let k = rng.gen_range(0..64u64);
                        let r = s.run(|txn| {
                            txn.update_by_key(t, k, |old| {
                                let v = u64::from_le_bytes(old.try_into().unwrap());
                                (v + 1).to_le_bytes().to_vec()
                            })
                        });
                        match r {
                            Ok(()) | Err(TxnError::Lock(_)) => {}
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                    7..=8 => {
                        // Insert into the private range.
                        let k = next;
                        next += 1;
                        if s.run(|txn| txn.insert(t, k, b"new").map(|_| ())).is_ok() {
                            net += 1;
                        }
                    }
                    _ => {
                        // Delete the newest private row, if any.
                        if next > base {
                            let k = next - 1;
                            if s.run(|txn| txn.delete_by_key(t, k, None)).is_ok() {
                                net -= 1;
                                next -= 1;
                            }
                        }
                    }
                }
            }
            net
        }));
    }
    std::thread::sleep(Duration::from_millis(env_u64("SLI_STRESS_MS", 800)));
    stop.store(true, Ordering::Relaxed);
    let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(
        db.record_count(t) as i64,
        64 + net,
        "record count must equal seed + net committed inserts"
    );
    let stats = db.lock_stats();
    assert_eq!(stats.timeouts, 0, "no lock waits should time out");
}

/// Two databases with identical workloads, one baseline and one SLI: both
/// must end with identical committed effects given per-thread determinism
/// (each thread's operations are independent of interleaving).
#[test]
fn sli_and_baseline_converge_to_identical_state() {
    let run = |sli: bool| -> Vec<u64> {
        let config = if sli {
            DatabaseConfig::with_policy(sli::engine::PolicyKind::PaperSli).in_memory()
        } else {
            DatabaseConfig::with_policy(sli::engine::PolicyKind::Baseline).in_memory()
        };
        let db = Database::open(config);
        let t = db.create_table("conv").unwrap();
        for k in 0..256u64 {
            db.bulk_insert(t, k, None, &0u64.to_le_bytes());
        }
        let mut handles = Vec::new();
        for i in 0..6u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let s = db.session();
                let mut rng = SmallRng::seed_from_u64(i * 77);
                for _ in 0..env_u64("SLI_STRESS_TXNS", 500) {
                    // Each thread increments disjoint keys: commutative and
                    // conflict-free, so the final state is deterministic.
                    let k = i * 40 + rng.gen_range(0..40u64);
                    s.run_with_retries(50, |txn| {
                        txn.update_by_key(t, k, |old| {
                            let v = u64::from_le_bytes(old.try_into().unwrap());
                            (v + 1).to_le_bytes().to_vec()
                        })
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        (0..256u64)
            .map(|k| u64::from_le_bytes(db.peek(t, k).unwrap()[..].try_into().unwrap()))
            .collect()
    };
    assert_eq!(run(false), run(true));
}
