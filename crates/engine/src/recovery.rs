//! Database-level crash recovery.
//!
//! [`Database::recover`] rebuilds a database from a log device's bytes
//! (as returned by [`Database::durable_log`] after a simulated crash):
//! the WAL tier's analysis/redo/undo pipeline (`sli_wal::recovery`)
//! replays the valid prefix into fresh heap pages and indexes, the
//! compensation records it emits for active losers are appended to the
//! recovered log, and a checkpoint seals it — so recovering the
//! recovered log again is pure redo and changes nothing.
//!
//! Everything here mutates pages *outside* any transaction: no locks are
//! taken and no new log records describe the mutations themselves (the
//! log being replayed already does). Each such mutation carries a
//! `// durability:` comment stating why it is safe.

use std::sync::Arc;

use bytes::Bytes;
use sli_storage::Rid;
use sli_wal::{
    analyze, replay, FaultPlan, LogManager, LogRecord, RecoveryError, RecoveryReport,
    RecoveryStorage,
};

use crate::db::{Database, DatabaseConfig};

/// Replay target over the engine's tables. Recovery runs single-threaded
/// before any session exists, so the shared-reference storage calls
/// (heap/index internals latch per page or shard) are uncontended.
struct EngineStorage<'a> {
    db: &'a Database,
}

impl RecoveryStorage for EngineStorage<'_> {
    fn create_table(&mut self, table: u32, name: &str) -> Result<(), RecoveryError> {
        // durability: catalog replay — ids are assigned in log order, so
        // the handle must come out equal to what the Create record says.
        let got = match self.db.create_table_inner(name, false) {
            Ok(handle) => handle.0,
            Err(_) => u32::MAX, // duplicate name: catalog diverged from the log
        };
        if got != table {
            return Err(RecoveryError::TableIdMismatch {
                expected: table,
                got,
            });
        }
        Ok(())
    }

    fn put(
        &mut self,
        table: u32,
        page: u32,
        slot: u16,
        key: u64,
        okey: Option<u64>,
        data: &Bytes,
    ) -> Result<(), RecoveryError> {
        let t = self
            .db
            .table_by_id(table)
            .ok_or(RecoveryError::UnknownTable { table })?;
        let rid = Rid::new(page, slot);
        // durability: redo of an Insert (or undo of a Delete) places the
        // record at the exact RID the log recorded; the page must exist
        // first, and overwriting an occupied slot keeps redo idempotent.
        t.heap.ensure_page(page);
        t.heap.restore(rid, data.clone());
        // durability: index entries are not logged separately — they are
        // derived here from the record's logged keys.
        t.index_insert(key, okey, rid);
        Ok(())
    }

    fn overwrite(
        &mut self,
        table: u32,
        page: u32,
        slot: u16,
        data: &Bytes,
    ) -> Result<(), RecoveryError> {
        let t = self
            .db
            .table_by_id(table)
            .ok_or(RecoveryError::UnknownTable { table })?;
        // durability: redo (or undo) of an Update rewrites bytes in
        // place; a missing record is a structural error because every
        // Update's target was durably inserted earlier in the log.
        t.heap
            .update(Rid::new(page, slot), data.clone())
            .map(|_| ())
            .ok_or(RecoveryError::MissingRecord { table, page, slot })
    }

    fn remove(
        &mut self,
        table: u32,
        page: u32,
        slot: u16,
        key: u64,
        okey: Option<u64>,
    ) -> Result<(), RecoveryError> {
        let t = self
            .db
            .table_by_id(table)
            .ok_or(RecoveryError::UnknownTable { table })?;
        // durability: redo of a Delete (or undo of an Insert); absence is
        // tolerated so replaying a partial compensation tail stays a
        // no-op.
        t.heap.delete(Rid::new(page, slot));
        t.index_remove(key, okey);
        Ok(())
    }
}

impl Database {
    /// Rebuild a database from a crashed log device.
    ///
    /// `log` is the device's surviving bytes — typically
    /// [`Database::durable_log`] of the crashed instance, possibly
    /// truncated or torn. The valid checksummed prefix is replayed
    /// (redo everything, undo active losers), compensation records and a
    /// checkpoint are appended and forced, and the transaction-id floor
    /// is advanced past every id the log used. The returned database is
    /// durable (retains its log) regardless of `config.log.retain`, and
    /// any fault plan in `config` is cleared.
    pub fn recover(
        config: DatabaseConfig,
        log: &[u8],
    ) -> Result<(Arc<Database>, RecoveryReport), RecoveryError> {
        let analysis = analyze(log);
        let mut config = config;
        config.log.retain = true;
        config.log.fault = FaultPlan::none();
        // Seed the new log manager with the *valid* prefix only: a torn
        // or corrupt tail is dropped here, exactly like an ARIES restart
        // truncating at the last whole record. New appends continue the
        // LSN sequence after the prefix.
        let log_mgr =
            LogManager::with_device(config.log.clone(), log[..analysis.consumed].to_vec());
        let db = Database::open_with_log(config, log_mgr);

        let mut clrs: Vec<LogRecord> = Vec::new();
        let report = {
            let mut storage = EngineStorage { db: &db };
            replay(&analysis, &mut storage, |rec| clrs.push(rec.clone()))?
        };
        // Append the undo pass's compensations (inverse records + one
        // Abort per active loser), then seal with a checkpoint carrying
        // the next fresh transaction id. After the force, this log is a
        // fixpoint: recovering it again is pure redo.
        for rec in clrs {
            db.log.append(rec);
        }
        let next_txn = analysis.max_txn + 1;
        db.log.append(LogRecord::checkpoint(next_txn));
        db.log.force()?;
        db.lockmgr.advance_txn_floor(next_txn);
        // The configured backend recovers too: a database reopened as MVCC
        // must allocate commit timestamps (= WAL txn ids) above everything
        // the replayed log used, no matter which backend wrote it.
        if let Some(store) = &db.mvcc {
            store.advance_ts_floor(next_txn);
        }
        Ok((db, report))
    }

    /// Order-insensitive digest of all user-visible state: catalog names,
    /// heap contents at their exact RIDs, and both indexes. Two databases
    /// with identical logical state hash equal regardless of internal
    /// iteration order. Verification paths only (latches everything,
    /// table by table).
    pub fn state_hash(&self) -> u64 {
        fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for (id, name) in self.table_names().iter().enumerate() {
            let t = self
                .table_by_id(id as u32)
                .expect("table_names ids are dense");
            acc = fnv(acc, name.as_bytes());
            // Heap scan visits pages and slots in order: fold sequentially.
            t.heap.scan(|rid, data| {
                acc = fnv(acc, &rid.page.to_le_bytes());
                acc = fnv(acc, &rid.slot.to_le_bytes());
                acc = fnv(acc, data);
            });
            // Hash-index iteration order is unspecified: combine entries
            // with a commutative fold so shard layout can't leak in.
            let mut unordered = 0u64;
            t.primary.for_each(|key, rid| {
                let mut e = fnv(0x9747_b28c_u64, &key.to_le_bytes());
                e = fnv(e, &rid.page.to_le_bytes());
                e = fnv(e, &rid.slot.to_le_bytes());
                unordered = unordered.wrapping_add(e);
            });
            acc = fnv(acc, &unordered.to_le_bytes());
            // Ordered index visits in key order: fold sequentially.
            t.ordered.for_each(|key, rid| {
                acc = fnv(acc, &key.to_le_bytes());
                acc = fnv(acc, &rid.page.to_le_bytes());
                acc = fnv(acc, &rid.slot.to_le_bytes());
            });
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxnError;
    use sli_wal::{DecodeEnd, WalError};

    fn durable_db() -> Arc<Database> {
        Database::open(DatabaseConfig::default().durable())
    }

    #[test]
    fn rebuilds_committed_state_from_the_log() {
        let db = durable_db();
        let t = db.create_table("t").unwrap();
        for k in 0..10u64 {
            db.bulk_insert(t, k, Some(k * 2), &k.to_le_bytes());
        }
        let s = db.session();
        s.run(|txn| {
            txn.update_by_key(t, 3, |_| b"updated".to_vec())?;
            txn.delete_by_key(t, 7, Some(14))?;
            txn.insert_with_okey(t, 100, Some(200), b"new")?;
            Ok(())
        })
        .unwrap();
        let before = db.state_hash();

        let (rec, report) = Database::recover(DatabaseConfig::default(), &db.durable_log())
            .expect("clean log recovers");
        assert_eq!(report.winners, 1);
        assert_eq!(report.undone, 0);
        assert_eq!(report.tables_created, 1);
        assert_eq!(report.end, DecodeEnd::Clean);
        assert_eq!(rec.state_hash(), before, "recovered state matches");
        assert_eq!(
            &rec.peek(rec.table_handle("t").unwrap(), 3).unwrap()[..],
            b"updated"
        );
        assert!(rec.peek(rec.table_handle("t").unwrap(), 7).is_none());
    }

    #[test]
    fn active_losers_are_undone_and_recovery_is_a_fixpoint() {
        let db = durable_db();
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, b"base");
        db.force_log().unwrap();
        // Hand-append an unterminated transaction: a winner's view of the
        // crash catching txn 42 mid-flight after its records were flushed.
        use sli_wal::LogRecord;
        db.log.append(LogRecord::begin(42));
        db.log
            .append(LogRecord::update(42, t.0, 0, 0, b"base", b"dirty"));
        db.log
            .append(LogRecord::insert(42, t.0, 0, 1, 99, None, b"phantom"));
        db.force_log().unwrap();

        let (rec, report) =
            Database::recover(DatabaseConfig::default(), &db.durable_log()).unwrap();
        assert_eq!(report.undone, 1);
        assert_eq!(report.undo_applied, 2);
        let rt = rec.table_handle("t").unwrap();
        assert_eq!(
            &rec.peek(rt, 1).unwrap()[..],
            b"base",
            "loser update undone"
        );
        assert!(rec.peek(rt, 99).is_none(), "loser insert removed");

        // Fixpoint: recovering the recovered log is pure redo.
        let log2 = rec.durable_log();
        let hash1 = rec.state_hash();
        let (rec2, report2) = Database::recover(DatabaseConfig::default(), &log2).unwrap();
        assert_eq!(report2.undone, 0);
        assert_eq!(report2.end, DecodeEnd::Clean);
        assert_eq!(rec2.state_hash(), hash1, "second recovery changes nothing");
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let db = durable_db();
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, b"kept");
        db.force_log().unwrap();
        let mut log = db.durable_log();
        let whole = log.len();
        // Append half a record's worth of garbage-free truncation: encode
        // a real record, then tear it.
        use bytes::BytesMut;
        use sli_wal::LogRecord;
        let mut extra = BytesMut::new();
        LogRecord::insert(sli_wal::LOADER_TXN, t.0, 0, 1, 2, None, b"torn-away").encode(&mut extra);
        log.extend_from_slice(&extra[..extra.len() - 3]);

        let (rec, report) = Database::recover(DatabaseConfig::default(), &log).unwrap();
        assert_eq!(report.consumed, whole);
        assert_eq!(report.end, DecodeEnd::Torn { missing: 3 });
        let rt = rec.table_handle("t").unwrap();
        assert!(rec.peek(rt, 1).is_some());
        assert!(rec.peek(rt, 2).is_none(), "torn record never replays");
        // The recovered log is clean: the tear was dropped at open.
        assert_eq!(
            sli_wal::LogRecord::decode_all(&rec.durable_log()).end,
            DecodeEnd::Clean
        );
    }

    #[test]
    fn checksum_corruption_stops_replay_at_the_damage() {
        let db = durable_db();
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, b"first");
        let mark = db.force_log().unwrap() as usize;
        db.bulk_insert(t, 2, None, b"second");
        db.force_log().unwrap();
        let mut log = db.durable_log();
        // Flip one bit inside the second batch.
        log[mark + 10] ^= 0x40;
        let (rec, report) = Database::recover(DatabaseConfig::default(), &log).unwrap();
        assert_eq!(report.end, DecodeEnd::Corrupt);
        assert_eq!(report.consumed, mark);
        let rt = rec.table_handle("t").unwrap();
        assert!(rec.peek(rt, 1).is_some());
        assert!(rec.peek(rt, 2).is_none(), "corrupt record never replays");
    }

    #[test]
    fn unacked_commit_after_failed_flush_is_decided_by_the_log() {
        // A commit whose flush failed was never acknowledged; whether it
        // survives depends only on what reached the device — here the
        // batch was dropped entirely, so recovery must undo or omit it.
        let mut cfg = DatabaseConfig::default().durable();
        cfg.log.fault = FaultPlan::fail_nth(2, 1_000_000);
        let db = Database::open(cfg);
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, b"base");
        db.force_log().unwrap(); // flush #1: base data is durable
        let s = db.session();
        let err = s
            .run(|txn| {
                txn.update_by_key(t, 1, |_| b"dirty".to_vec())?;
                Ok(())
            })
            .expect_err("flush #2 is rigged to fail");
        assert!(matches!(
            err,
            TxnError::Durability(WalError::FlushFailed { .. })
        ));

        let (rec, report) =
            Database::recover(DatabaseConfig::default(), &db.durable_log()).unwrap();
        // The whole batch (Begin/Update/Commit) was dropped: nothing of
        // the unacked transaction exists, base data is intact.
        assert_eq!(report.winners, 0);
        let rt = rec.table_handle("t").unwrap();
        assert_eq!(&rec.peek(rt, 1).unwrap()[..], b"base");
    }

    #[test]
    fn rollback_logs_exact_inverses_in_reverse_order() {
        use sli_wal::LogPayload;
        let db = durable_db();
        let t = db.create_table("t").unwrap();
        let r1 = db.bulk_insert(t, 1, Some(10), b"one");
        let r2 = db.bulk_insert(t, 2, Some(20), b"two");
        db.force_log().unwrap();
        let before = db.state_hash();
        let mark = db.durable_log().len();

        let (mut seq, mut r3) = (0, Rid::new(0, 0));
        let aborted = db.session().run(|txn| {
            seq = txn.seq();
            txn.update_by_key(t, 1, |_| b"one-a".to_vec())?;
            txn.update_by_key(t, 1, |_| b"one-b".to_vec())?;
            r3 = txn.insert_with_okey(t, 3, Some(30), b"three")?;
            txn.update_by_key(t, 3, |_| b"three-a".to_vec())?;
            txn.delete_by_key(t, 2, Some(20))?;
            Err::<(), _>(txn.user_abort("compensation check"))
        });
        assert_eq!(aborted, Err(TxnError::UserAbort("compensation check")));
        db.force_log().unwrap();
        assert_eq!(db.state_hash(), before, "rollback restored the state");

        let tid = t.0;
        let upd = |rid: Rid, from: &[u8], to: &[u8]| {
            LogRecord::update(seq, tid, rid.page, rid.slot, from, to)
        };
        let ins = |rid: Rid, key, data: &[u8]| {
            LogRecord::insert(seq, tid, rid.page, rid.slot, key, Some(key * 10), data)
        };
        let del = |rid: Rid, key, data: &[u8]| {
            LogRecord::delete(seq, tid, rid.page, rid.slot, key, Some(key * 10), data)
        };
        let forward = [
            upd(r1, b"one", b"one-a"),
            upd(r1, b"one-a", b"one-b"),
            ins(r3, 3, b"three"),
            upd(r3, b"three", b"three-a"),
            del(r2, 2, b"two"),
        ];
        let compensations = [
            ins(r2, 2, b"two"),
            upd(r3, b"three-a", b"three"),
            del(r3, 3, b"three"),
            upd(r1, b"one-b", b"one-a"),
            upd(r1, b"one-a", b"one"),
        ];
        let mut expected = vec![LogRecord::begin(seq)];
        expected.extend(forward.iter().cloned());
        expected.extend(compensations.iter().cloned());
        expected.push(LogRecord::abort(seq));
        let log = db.durable_log();
        assert_eq!(LogRecord::decode_all(&log[mark..]).records, expected);

        // Each compensation is the exact inverse of its forward record,
        // taken in reverse order.
        let invert = |rec: &LogRecord| {
            let payload = match rec.payload.clone() {
                LogPayload::Update {
                    table,
                    page,
                    slot,
                    before,
                    after,
                } => LogPayload::Update {
                    table,
                    page,
                    slot,
                    before: after,
                    after: before,
                },
                LogPayload::Insert {
                    table,
                    page,
                    slot,
                    key,
                    okey,
                    data,
                } => LogPayload::Delete {
                    table,
                    page,
                    slot,
                    key,
                    okey,
                    before: data,
                },
                LogPayload::Delete {
                    table,
                    page,
                    slot,
                    key,
                    okey,
                    before,
                } => LogPayload::Insert {
                    table,
                    page,
                    slot,
                    key,
                    okey,
                    data: before,
                },
                other => other,
            };
            LogRecord {
                txn: rec.txn,
                payload,
            }
        };
        for (comp, fwd) in compensations.iter().zip(forward.iter().rev()) {
            assert_eq!(*comp, invert(fwd));
        }

        let (rec, report) = Database::recover(DatabaseConfig::default(), &log).unwrap();
        assert_eq!(report.undone, 0, "the aborted txn is settled by redo");
        assert_eq!(
            rec.state_hash(),
            before,
            "recovery reproduces the pre-txn state"
        );
    }

    #[test]
    fn recovered_database_accepts_new_transactions_with_fresh_ids() {
        let db = durable_db();
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, b"v");
        let s = db.session();
        s.run(|txn| {
            txn.update_by_key(t, 1, |_| b"v2".to_vec())?;
            Ok(())
        })
        .unwrap();
        let (rec, report) =
            Database::recover(DatabaseConfig::default(), &db.durable_log()).unwrap();
        // New work on the recovered database, then recover *that* log:
        // the new transaction's id must not collide with a replayed one.
        let rt = rec.table_handle("t").unwrap();
        let s2 = rec.session();
        s2.run(|txn| {
            txn.update_by_key(rt, 1, |_| b"v3".to_vec())?;
            Ok(())
        })
        .unwrap();
        let (rec2, report2) =
            Database::recover(DatabaseConfig::default(), &rec.durable_log()).unwrap();
        assert!(report2.max_txn > report.max_txn, "txn floor advanced");
        assert_eq!(
            &rec2.peek(rec2.table_handle("t").unwrap(), 1).unwrap()[..],
            b"v3"
        );
    }
}
