//! `Database::pool_stats` counts exactly one buffer-pool hit per row
//! access and never a miss or an eviction, on both backends. The
//! repository benchmark derives `storage.pool_hit_frac` and the row
//! accesses per transaction in `storage.est_ns_per_txn` from this counter.

use std::sync::Arc;

use sli_engine::{BackendKind, BufferPoolStats, Database, DatabaseConfig, Txn, TxnError};

/// Hits counted while `body` runs as one committed transaction; asserts
/// that it counted no miss and no eviction.
fn hits_during(db: &Arc<Database>, body: impl FnOnce(&mut Txn<'_>) -> Result<(), TxnError>) -> u64 {
    let before = db.pool_stats();
    db.session().run(body).unwrap();
    let after = db.pool_stats();
    assert_eq!((after.misses, after.evictions), (0, 0), "{after:?}");
    after.hits - before.hits
}

#[test]
fn each_row_access_counts_one_hit_on_both_backends() {
    for kind in [BackendKind::Locked2pl, BackendKind::Mvcc] {
        let db = Database::open(DatabaseConfig::default().backend(kind));
        let t = db.create_table("t").unwrap();
        for k in 0..10u64 {
            db.bulk_insert(t, k, Some(k), &k.to_le_bytes());
        }
        assert_eq!(
            db.pool_stats(),
            BufferPoolStats::default(),
            "{kind:?}: loading rows is not a row access"
        );

        let read = hits_during(&db, |txn| txn.read_by_key(t, 3).map(drop));
        assert_eq!(read, 1, "{kind:?}: read");

        let update = hits_during(&db, |txn| {
            let rid = txn.lookup(t, 4).ok_or(TxnError::NotFound)?;
            txn.update(t, rid, b"four")
        });
        assert_eq!(update, 1, "{kind:?}: update");

        // A read-modify-write touches the row twice: once to read it for
        // update, once to write it.
        let rmw = hits_during(&db, |txn| txn.update_by_key(t, 5, |b| b.to_vec()));
        assert_eq!(rmw, 2, "{kind:?}: read for update + update");

        let insert = hits_during(&db, |txn| {
            txn.insert_with_okey(t, 10, Some(10), b"ten").map(drop)
        });
        assert_eq!(insert, 1, "{kind:?}: insert");

        let mut visited = 0;
        let scan = hits_during(&db, |txn| {
            visited = txn.scan_ordered(t, 0, 10, 100, |_, _| {})?;
            Ok(())
        });
        assert_eq!(visited, 11, "{kind:?}: rows in the scanned range");
        assert_eq!(scan, 11, "{kind:?}: one hit per scanned row");

        let stats = db.pool_stats();
        assert_eq!(stats.hits, 1 + 1 + 2 + 1 + 11, "{kind:?}: {stats:?}");
        assert_eq!((stats.misses, stats.evictions), (0, 0), "{kind:?}");
    }
}
