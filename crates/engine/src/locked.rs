//! The locked backend: hierarchical two-phase locking through the lock
//! manager, with SLI handing hot locks from one transaction to the next
//! (the paper's engine, and the default).
//!
//! Every row access first takes a record-level S or X lock (the lock
//! manager adds the intention locks on page, table and database). Writes
//! change the heap and indexes at once, are logged as they happen, and
//! stay in an undo log until the transaction ends; rollback applies and
//! logs their inverses in reverse order while every X lock is still held.

use bytes::Bytes;
use sli_core::{AgentSliState, LockId, LockMode, TxnLockState};
use sli_mvcc::{WriteKind, WriteOp};
use sli_profiler::{Category, Component};
use sli_storage::Rid;
use sli_wal::LogRecord;

use crate::backend::{inverse, log_record, Backend};
use crate::db::{Database, TableData};
use crate::session::TxnError;

/// One session's 2PL state.
pub(crate) struct Locked {
    ts: TxnLockState,
    /// The running transaction's writes, in execution order.
    undo: Vec<WriteOp>,
    /// Whether the running transaction has logged anything (its Begin
    /// record goes out with the first write).
    wrote: bool,
}

impl Locked {
    pub(crate) fn new(slot: u32) -> Locked {
        Locked {
            ts: TxnLockState::new(slot),
            undo: Vec::new(),
            wrote: false,
        }
    }

    fn log(&mut self, db: &Database, rec: LogRecord) {
        if !self.wrote {
            self.wrote = true;
            db.log.append(LogRecord::begin(self.ts.txn_seq()));
        }
        db.log.append(rec);
    }
}

impl Backend for Locked {
    fn begin(&mut self, db: &Database, agent: &mut AgentSliState) {
        db.lockmgr.begin(&mut self.ts, agent);
        self.undo.clear();
        self.wrote = false;
    }

    fn seq(&self) -> u64 {
        self.ts.txn_seq()
    }

    fn lock(
        &mut self,
        db: &Database,
        agent: &mut AgentSliState,
        id: LockId,
        mode: LockMode,
    ) -> Result<(), TxnError> {
        db.lockmgr.lock(&mut self.ts, agent, id, mode)?;
        Ok(())
    }

    fn own_key(&self, _table: u32, _key: u64) -> Option<Option<Rid>> {
        // Own writes go straight to the shared indexes.
        None
    }

    fn read(&mut self, t: &TableData, _table: u32, rid: Rid) -> Result<Option<Bytes>, TxnError> {
        // Under its S lock a record is either there or gone: never
        // merely invisible.
        let _s = sli_profiler::enter(Category::Work(Component::Storage));
        t.heap.read(rid).map(Some).ok_or(TxnError::NotFound)
    }

    fn write(&mut self, db: &Database, t: &TableData, mut op: WriteOp) -> Result<(), TxnError> {
        {
            let _s = sli_profiler::enter(Category::Work(Component::Storage));
            match op.kind {
                WriteKind::Update => {
                    let after = op.after.clone().expect("update has an after image");
                    op.before = Some(t.heap.update(op.rid, after).ok_or(TxnError::NotFound)?);
                }
                WriteKind::Insert { key, okey } => t.index_insert(key, okey, op.rid),
                WriteKind::Delete { key, okey } => {
                    op.before = Some(t.heap.delete(op.rid).ok_or(TxnError::NotFound)?);
                    t.index_remove(key, okey);
                }
            }
        }
        self.log(db, log_record(self.ts.txn_seq(), &op));
        self.undo.push(op);
        Ok(())
    }

    fn commit(&mut self, db: &Database, agent: &mut AgentSliState) -> Result<(), TxnError> {
        if !self.wrote {
            db.lockmgr.end_txn(&mut self.ts, agent, true);
            return Ok(());
        }
        let seq = self.ts.txn_seq();
        let lsn = db.log.append(LogRecord::commit(seq));
        let forced = db.log.commit(seq, lsn);
        // On a flush failure the in-memory effects are kept and the locks
        // released as committed: the Commit record is already in the log
        // stream, so rolling back here could contradict what a torn prefix
        // preserves. The caller simply never gets the ack — recovery
        // decides the transaction's fate from the durable prefix alone.
        db.lockmgr.end_txn(&mut self.ts, agent, true);
        forced.map_err(TxnError::Durability)
    }

    fn rollback(&mut self, db: &Database, agent: &mut AgentSliState) {
        let seq = self.ts.txn_seq();
        // Undo in reverse order while still holding all X locks. Every
        // undo appends a compensation record (the inverse operation, same
        // txn id) BEFORE the final Abort: if the Abort reaches the durable
        // log, recovery can restore this loser by pure redo; if the crash
        // lands mid-compensation, the undo pass reverses whatever made it
        // out (its operations are tolerant re-inverses). Each inverse's
        // `before` is what the heap holds at that point, because the later
        // writes to the record were undone first.
        for op in self.undo.drain(..).rev() {
            let _s = sli_profiler::enter(Category::Work(Component::Storage));
            let undo = inverse(op);
            let Some(t) = db.table_by_id(undo.table) else {
                continue;
            };
            let applied = match undo.kind {
                WriteKind::Update => {
                    let after = undo.after.clone().expect("update has an after image");
                    t.heap.update(undo.rid, after).is_some()
                }
                WriteKind::Insert { key, okey } => {
                    let after = undo.after.clone().expect("insert has an after image");
                    t.heap.restore(undo.rid, after);
                    t.index_insert(key, okey, undo.rid);
                    true
                }
                WriteKind::Delete { key, okey } => {
                    let gone = t.heap.delete(undo.rid).is_some();
                    t.index_remove(key, okey);
                    gone
                }
            };
            if applied {
                db.log.append(log_record(seq, &undo));
            }
        }
        if self.wrote {
            db.log.abort(seq);
        }
        db.lockmgr.end_txn(&mut self.ts, agent, false);
    }
}
