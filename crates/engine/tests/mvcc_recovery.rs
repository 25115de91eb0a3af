//! MVCC durability regression: transactions committed through the MVCC
//! backend ride the same WAL/group-commit pipeline as locked ones, so
//! they must survive crashes the same way — and the log itself must stay
//! backend-agnostic (a log written under MVCC recovers under 2PL and
//! vice versa).

use std::sync::Arc;

use sli_engine::{BackendKind, Database, DatabaseConfig, DecodeEnd};

fn durable_mvcc() -> Arc<Database> {
    Database::open(
        DatabaseConfig::default()
            .backend(BackendKind::Mvcc)
            .durable(),
    )
}

fn mvcc_cfg() -> DatabaseConfig {
    DatabaseConfig::default().backend(BackendKind::Mvcc)
}

/// Commit a few transactions (insert, update, delete) against `db`.
fn build(db: &Arc<Database>) {
    let t = db.create_table("t").unwrap();
    let s = db.session();
    s.run(|txn| {
        for k in 0..16u64 {
            txn.insert_with_okey(t, k, Some(k), format!("v{k}").as_bytes())?;
        }
        Ok(())
    })
    .unwrap();
    s.run(|txn| {
        txn.update_by_key(t, 3, |_| b"updated".to_vec())?;
        txn.delete_by_key(t, 7, Some(7))?;
        Ok(())
    })
    .unwrap();
}

#[test]
fn mvcc_commits_survive_a_clean_crash() {
    let db = durable_mvcc();
    build(&db);
    db.force_log().unwrap();
    db.quiesce();
    let before = db.state_hash();
    let log = db.durable_log();

    let (rec, report) = Database::recover(mvcc_cfg(), &log).expect("recovery succeeds");
    assert_eq!(report.end, DecodeEnd::Clean);
    assert_eq!(report.undone, 0, "all transactions committed");
    assert_eq!(rec.state_hash(), before, "MVCC-committed state survives");
    let t = rec.table_handle("t").unwrap();
    assert_eq!(&rec.peek(t, 3).unwrap()[..], b"updated");
    assert!(rec.peek(t, 7).is_none(), "committed delete survives");
}

#[test]
fn mvcc_recovered_database_accepts_new_transactions() {
    let db = durable_mvcc();
    build(&db);
    db.force_log().unwrap();
    let log = db.durable_log();

    // Recover *as MVCC*: the timestamp allocator must resume above every
    // replayed WAL txn id (`on_recovered`), so new snapshots see the
    // recovered state and new commits order after it.
    let (rec, _) = Database::recover(mvcc_cfg(), &log).unwrap();
    let t = rec.table_handle("t").unwrap();
    let s = rec.session();
    s.run(|txn| {
        assert_eq!(&txn.read_by_key(t, 3)?[..], b"updated");
        txn.update_by_key(t, 4, |_| b"post-recovery".to_vec())?;
        txn.insert_with_okey(t, 100, Some(100), b"new")?;
        Ok(())
    })
    .unwrap();
    rec.quiesce();
    assert_eq!(&rec.peek(t, 4).unwrap()[..], b"post-recovery");
    assert_eq!(&rec.peek(t, 100).unwrap()[..], b"new");
}

#[test]
fn torn_tail_drops_only_uncommitted_mvcc_work() {
    let db = durable_mvcc();
    build(&db);
    db.force_log().unwrap();
    let log = db.durable_log();

    // Tear the log mid-record at three different depths: recovery must
    // never fail, and whatever it recovers must itself be recoverable
    // (idempotent fixpoint), MVCC config throughout.
    for cut in [log.len() / 3, log.len() / 2, log.len() - 1] {
        let (rec, _) = Database::recover(mvcc_cfg(), &log[..cut])
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e:?}"));
        let log2 = rec.durable_log();
        let (rec2, rep2) = Database::recover(mvcc_cfg(), &log2).unwrap();
        assert_eq!(rep2.undone, 0, "second pass undoes nothing (cut {cut})");
        assert_eq!(rec2.state_hash(), rec.state_hash(), "fixpoint (cut {cut})");
    }
}

#[test]
fn the_log_is_backend_agnostic() {
    // Same schedule, one log per backend; each log recovers under *both*
    // backends to the same logical state.
    let mvcc = durable_mvcc();
    build(&mvcc);
    mvcc.force_log().unwrap();
    let locked = Database::open(DatabaseConfig::default().durable());
    build(&locked);
    locked.force_log().unwrap();

    let mut hashes = Vec::new();
    for log in [mvcc.durable_log(), locked.durable_log()] {
        for cfg in [mvcc_cfg(), DatabaseConfig::default()] {
            let (rec, report) = Database::recover(cfg, &log).unwrap();
            assert_eq!(report.end, DecodeEnd::Clean);
            hashes.push(rec.state_hash());
        }
    }
    assert!(
        hashes.windows(2).all(|w| w[0] == w[1]),
        "backend choice leaked into recovered state: {hashes:?}"
    );
}
