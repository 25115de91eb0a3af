//! The MVCC backend: multiversion storage with optimistic
//! validate-at-commit execution (`sli-mvcc`, after Larson et al.). The
//! lock manager is never consulted.
//!
//! Reads resolve the version visible at the transaction's snapshot and
//! enter the read set; writes install provisional versions
//! (first-writer-wins) and join the write set. Commit validates the read
//! set, logs the write set, applies it to the heap and indexes, and only
//! then flips the provisionals to committed.

use std::sync::Arc;

use bytes::Bytes;
use sli_core::{AgentSliState, LockId, LockMode};
use sli_mvcc::{MvccStore, MvccTxn, ReadEntry, WriteError, WriteKind, WriteOp};
use sli_profiler::{Category, Component};
use sli_storage::Rid;
use sli_wal::LogRecord;

use crate::backend::{log_record, Backend};
use crate::db::{Database, TableData};
use crate::session::TxnError;

/// One session's MVCC state: its transaction scratch, reused across
/// transactions, and the database's shared store.
pub(crate) struct Mvcc {
    txn: MvccTxn,
    store: Arc<MvccStore>,
}

impl Mvcc {
    pub(crate) fn new(store: Arc<MvccStore>) -> Mvcc {
        Mvcc {
            txn: MvccTxn::new(),
            store,
        }
    }

    /// Drop every provisional version and reclaim the heap rows of own
    /// inserts (never published in an index, so never seen by anyone
    /// else). Nothing was logged.
    fn discard(&mut self, db: &Database) {
        self.store
            .discard(self.txn.written_rids(), self.txn.token());
        let _s = sli_profiler::enter(Category::Work(Component::Storage));
        for (tid, rid) in self.txn.inserted_rids() {
            if let Some(t) = db.table_by_id(tid) {
                t.heap.delete(rid);
            }
        }
    }
}

impl Backend for Mvcc {
    fn begin(&mut self, _db: &Database, agent: &mut AgentSliState) {
        let slot = agent.slot();
        let read_ts = self.store.begin(slot);
        self.txn.reset(read_ts, slot);
    }

    /// The snapshot timestamp: the commit timestamp, which becomes the
    /// WAL transaction id, is only allocated at commit.
    fn seq(&self) -> u64 {
        self.txn.read_ts
    }

    fn lock(
        &mut self,
        _db: &Database,
        _agent: &mut AgentSliState,
        _id: LockId,
        _mode: LockMode,
    ) -> Result<(), TxnError> {
        // Snapshot reads and provisional writes need no locks: a conflict
        // surfaces at the write or at commit-time validation.
        Ok(())
    }

    fn own_key(&self, table: u32, key: u64) -> Option<Option<Rid>> {
        self.txn.key_overlay.get(&(table, key)).copied()
    }

    fn read(&mut self, t: &TableData, table: u32, rid: Rid) -> Result<Option<Bytes>, TxnError> {
        if let Some(op) = self.txn.own_write(table, rid) {
            // Own provisional; no read-set entry needed — it blocks any
            // other writer from committing a newer version underneath us.
            return Ok(op.after.clone());
        }
        // Heap first, chain second: when no chain exists at probe time the
        // heap value IS the base version (chains are created before any
        // commit mutates the heap, and collapse only runs quiesced).
        let heap_base = {
            let _s = sli_profiler::enter(Category::Work(Component::Storage));
            t.heap.read(rid)
        };
        let obs = self
            .store
            .read(table, rid, self.txn.read_ts, self.txn.token(), heap_base);
        self.txn.reads.push(ReadEntry {
            table,
            rid,
            seen: obs.seen,
        });
        Ok(obs.data)
    }

    fn write(&mut self, _db: &Database, t: &TableData, mut op: WriteOp) -> Result<(), TxnError> {
        let (table, rid, token) = (op.table, op.rid, self.txn.token());
        if let WriteKind::Insert { key, .. } = op.kind {
            let data = op.after.clone().expect("insert has an after image");
            self.store.insert_provisional(table, rid, token, data);
            self.txn.key_overlay.insert((table, key), Some(rid));
        } else {
            if matches!(self.txn.own_write(table, rid), Some(own) if own.after.is_none()) {
                return Err(TxnError::NotFound); // writing over an own delete
            }
            let heap_base = {
                let _s = sli_profiler::enter(Category::Work(Component::Storage));
                t.heap.read(rid)
            };
            let read_ts = self.txn.read_ts;
            // The snapshot-visible pre-image.
            op.before = self
                .store
                .write(table, rid, read_ts, token, op.after.clone(), heap_base)
                .map_err(|e| match e {
                    WriteError::Conflict(why) => TxnError::Validation(why),
                    WriteError::NotFound => TxnError::NotFound,
                })?;
            if let WriteKind::Delete { key, .. } = op.kind {
                self.txn.key_overlay.insert((table, key), None);
            }
        }
        self.txn.push_write(op);
        Ok(())
    }

    fn commit(&mut self, db: &Database, _agent: &mut AgentSliState) -> Result<(), TxnError> {
        let (slot, token) = (self.txn.slot, self.txn.token());
        if self.txn.writes.is_empty() {
            // Read-only: the snapshot is trivially serializable at read_ts
            // — no validation, no logging, no flush wait.
            self.store.note_ro_commit();
            self.store.end(slot);
            return Ok(());
        }
        // Allocate the commit timestamp (which doubles as the WAL
        // transaction id) and enter the preparing state: readers at or
        // above `commit_ts` now wait for our outcome instead of resolving
        // an inconsistent cut.
        let commit_ts = self.store.prepare_commit(slot);
        if let Err(why) = self.store.validate(&self.txn.reads, token) {
            self.discard(db);
            self.store.finish_commit(slot);
            self.store.end(slot);
            self.store.note_validation_abort();
            return Err(TxnError::Validation(why));
        }
        // WAL first: Begin + one record per write op + Commit, all under
        // the commit timestamp. Same group-commit pipeline as the locked
        // backend.
        db.log.append(LogRecord::begin(commit_ts));
        for op in &self.txn.writes {
            db.log.append(log_record(commit_ts, op));
        }
        let lsn = db.log.append(LogRecord::commit(commit_ts));
        // Apply the heap/index effects in execution order while our
        // provisionals still stand: they exclude every other writer of
        // these records, so no later commit's heap value can land before
        // ours and the heap ends up holding the newest committed value
        // (what `Database::peek` reads and GC chain collapse relies on).
        // Readers resolve through the chains wherever one exists, so they
        // cannot see these heap writes before the flip.
        {
            let _s = sli_profiler::enter(Category::Work(Component::Storage));
            for op in &self.txn.writes {
                let Some(t) = db.table_by_id(op.table) else {
                    continue;
                };
                match op.kind {
                    WriteKind::Insert { key, okey } => t.index_insert(key, okey, op.rid),
                    WriteKind::Update => {
                        let after = op.after.clone().expect("update has an after image");
                        t.heap.update(op.rid, after);
                    }
                    // The heap row stays allocated until GC collapses the
                    // tombstone chain: freeing it now could let a
                    // concurrent insert reuse the RID while chains still
                    // reference it.
                    WriteKind::Delete { key, okey } => t.index_remove(key, okey),
                }
            }
        }
        // Flip the provisional versions to committed at commit_ts.
        self.store
            .install(self.txn.written_rids(), token, commit_ts);
        self.store.finish_commit(slot);
        self.store.end(slot);
        self.store.maybe_gc();
        // Park on the committer queue until a group-commit flush covers
        // our commit record — identical ack contract to the locked
        // backend.
        db.log.commit(commit_ts, lsn).map_err(TxnError::Durability)
    }

    fn rollback(&mut self, db: &Database, _agent: &mut AgentSliState) {
        self.discard(db);
        self.store.end(self.txn.slot);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::{BackendKind, Database, DatabaseConfig};

    const HOT_ROWS: u64 = 40;
    const COLD_ROWS: u64 = 200;
    const FAST_WRITERS: usize = 2;

    fn value(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[..8].try_into().unwrap())
    }

    fn bump(old: &[u8]) -> Vec<u8> {
        (value(old) + 1).to_le_bytes().to_vec()
    }

    /// A committer applies its heap writes while its provisionals still
    /// exclude every other writer of those rows, so a later commit's heap
    /// value never lands before an earlier one's. Per round, a slow
    /// writer bumps many cold rows and then that round's hot row, which
    /// its commit applies last; fast writers wait until the slow one holds
    /// the hot row, then bump it as soon as it lets go. Without the
    /// ordering, their commits land in the heap while the slow commit is
    /// still applying its cold rows, and its stale hot value lands last.
    #[test]
    fn heap_keeps_the_newest_commit_under_concurrent_writers() {
        let db = Database::open(DatabaseConfig::default().backend(BackendKind::Mvcc));
        let t = db.create_table("t").unwrap();
        for k in 0..HOT_ROWS + COLD_ROWS {
            db.bulk_insert(t, k, None, &0u64.to_le_bytes());
        }
        // Rounds whose hot row the slow writer has written.
        let held = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let s = db.session();
                for hot in 0..HOT_ROWS {
                    s.run_with_retries(usize::MAX, |txn| {
                        for cold in HOT_ROWS..HOT_ROWS + COLD_ROWS {
                            txn.update_by_key(t, cold, bump)?;
                        }
                        txn.update_by_key(t, hot, bump)?;
                        held.fetch_max(hot + 1, Ordering::SeqCst);
                        Ok(())
                    })
                    .unwrap();
                }
            });
            for _ in 0..FAST_WRITERS {
                scope.spawn(|| {
                    let s = db.session();
                    for hot in 0..HOT_ROWS {
                        while held.load(Ordering::SeqCst) <= hot {
                            std::thread::yield_now();
                        }
                        s.run_with_retries(usize::MAX, |txn| txn.update_by_key(t, hot, bump))
                            .unwrap();
                    }
                });
            }
        });
        let expected = 1 + FAST_WRITERS as u64;
        let s = db.session();
        for hot in 0..HOT_ROWS {
            let seen = s.run(|txn| Ok(value(&txn.read_by_key(t, hot)?))).unwrap();
            assert_eq!(seen, expected, "row {hot}: every commit counted once");
            let heap = value(&db.peek(t, hot).unwrap());
            assert_eq!(heap, seen, "row {hot}: the heap lost the newest commit");
        }
        db.quiesce();
        for hot in 0..HOT_ROWS {
            let heap = value(&db.peek(t, hot).unwrap());
            assert_eq!(heap, expected, "row {hot}: collapse kept a stale value");
        }
    }
}
