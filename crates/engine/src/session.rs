//! Sessions and transactions.
//!
//! A [`Session`] owns one lock-manager agent and one concurrency-backend
//! object (see `backend.rs`), both built when it opens. [`Txn`] is the
//! backend-agnostic shell every transaction runs through: it probes the
//! indexes, asks the backend for the lock or intent a row access needs,
//! charges the buffer-pool touch and synthetic row cost, and hands the
//! read or write itself to the backend — hierarchical two-phase locking
//! (the default) or the MVCC/optimistic engine from `sli-mvcc`. Workload
//! code is backend-agnostic as long as it retries retryable errors —
//! [`TxnError::Validation`] joins deadlock/timeout victims in that set.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use sli_core::{AgentSliState, LockError, LockId, LockMode};
use sli_mvcc::{WriteKind, WriteOp};
use sli_profiler::{Category, Component};
use sli_storage::Rid;
use sli_wal::WalError;

use crate::backend::Backend;
use crate::db::{Database, EngineError, TableHandle};
use crate::locked::Locked;
use crate::mvcc::Mvcc;

/// Why a transaction failed. Deadlocks, timeouts, and validation
/// conflicts are retryable; user aborts model the paper's NDBB-style
/// "failed due to invalid inputs" transactions, which roll back cleanly
/// and count as failures, not errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnError {
    /// Lock acquisition failed (deadlock victim or timeout).
    Lock(LockError),
    /// MVCC backend only: the transaction lost an optimistic conflict —
    /// first-writer-wins on a write-write collision, or commit-time
    /// backward validation found the read set stale. The transaction
    /// rolled back without logging anything; retry from the top.
    Validation(&'static str),
    /// Application-level validation failure; the transaction rolled back.
    UserAbort(&'static str),
    /// A key or RID was not found.
    NotFound,
    /// The commit-time log force failed (injected fsync failure or a
    /// poisoned device): the transaction was NOT acknowledged. Its
    /// effects may or may not survive a crash — recovery decides.
    Durability(WalError),
}

impl From<LockError> for TxnError {
    fn from(e: LockError) -> Self {
        TxnError::Lock(e)
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Lock(e) => write!(f, "lock error: {e}"),
            TxnError::Validation(why) => write!(f, "validation conflict: {why}"),
            TxnError::UserAbort(why) => write!(f, "user abort: {why}"),
            TxnError::NotFound => write!(f, "not found"),
            TxnError::Durability(e) => write!(f, "commit not durable: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl TxnError {
    /// True for failures worth retrying from the top (deadlock/timeout
    /// victims, optimistic validation conflicts). Durability failures
    /// are not retryable: the log device is gone.
    pub fn is_retryable(&self) -> bool {
        match self {
            TxnError::Lock(e) => e.is_retryable(),
            TxnError::Validation(_) => true,
            _ => false,
        }
    }
}

/// A worker thread's connection to the database: owns one lock-manager
/// agent (and with it the SLI inherited-lock list that carries locks from
/// one transaction to the next) and the backend object whose scratch its
/// transactions reuse.
pub struct Session {
    db: Arc<Database>,
    agent: RefCell<AgentSliState>,
    backend: RefCell<Box<dyn Backend>>,
}

impl Session {
    pub(crate) fn try_new(db: Arc<Database>) -> Result<Session, EngineError> {
        let agent = db.lockmgr.register_agent().map_err(|e| match e {
            LockError::TooManyAgents { max } => EngineError::TooManyAgents { max },
            other => unreachable!("register_agent returned {other:?}"),
        })?;
        let backend: Box<dyn Backend> = match &db.mvcc {
            Some(store) => Box::new(Mvcc::new(Arc::clone(store))),
            None => Box::new(Locked::new(agent.slot())),
        };
        Ok(Session {
            db,
            agent: RefCell::new(agent),
            backend: RefCell::new(backend),
        })
    }

    /// Run one transaction. On `Ok` the transaction commits (forcing the
    /// log if it wrote); on `Err` it rolls back (undoing writes, releasing
    /// locks or provisional versions, no inheritance).
    pub fn run<T>(
        &self,
        body: impl FnOnce(&mut Txn<'_>) -> Result<T, TxnError>,
    ) -> Result<T, TxnError> {
        let _app = sli_profiler::enter(Category::Work(Component::Application));
        let agent = &mut *self.agent.borrow_mut();
        let backend = &mut **self.backend.borrow_mut();
        {
            let _t = sli_profiler::enter(Category::Work(Component::TxnManager));
            backend.begin(&self.db, agent);
        }
        let mut txn = Txn {
            db: &self.db,
            agent,
            backend,
        };
        match body(&mut txn) {
            Ok(v) => txn.commit().map(|()| v),
            Err(e) => {
                txn.rollback();
                Err(e)
            }
        }
    }

    /// Run a transaction, retrying deadlock/timeout victims and
    /// validation conflicts up to `max_retries` times: three yields, then
    /// sleeps doubling from 2 µs to 1 ms between attempts. Non-retryable
    /// errors pass through.
    pub fn run_with_retries<T>(
        &self,
        max_retries: usize,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<T, TxnError>,
    ) -> Result<T, TxnError> {
        let mut attempts = 0;
        loop {
            match self.run(&mut body) {
                Err(e) if e.is_retryable() && attempts < max_retries => {
                    attempts += 1;
                    back_off(attempts);
                }
                other => return other,
            }
        }
    }

    /// The database this session talks to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Number of locks currently parked on this session's agent by SLI.
    pub fn inherited_locks(&self) -> usize {
        self.agent.borrow().inherited_count()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.db.lockmgr.retire_agent(self.agent.get_mut());
    }
}

/// Wait before retry number `retry`. An MVCC writer aborts at once when
/// it meets another transaction's uncommitted version, whose owner may be
/// parked on its log force or off its CPU: retrying at once loses to it
/// again, dozens of times in the microseconds it is away (a deadlock
/// victim's rival likewise needs time to finish). Three yields, then
/// sleeps doubling from 2 µs to 1 ms.
fn back_off(retry: usize) {
    if retry <= 3 {
        std::thread::yield_now();
    } else {
        // A pause, not a wait for another thread's signal: nothing is
        // expected to wake it, so no wakeup can be lost.
        // sli-lint: allow(sleep)
        std::thread::sleep(Duration::from_micros(1 << (retry - 3).min(10)));
    }
}

/// Synthetic per-row CPU cost (see `DatabaseConfig::row_work_ns`).
fn row_work(db: &Database) {
    let ns = db.row_work_ns;
    if ns == 0 {
        return;
    }
    let _s = sli_profiler::enter(Category::Work(Component::Storage));
    let t0 = std::time::Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// A running transaction. Under the locked backend, row operations take
/// hierarchical locks (record-level S/X with automatic intention locks
/// on page, table, and database) before touching storage. Under the
/// MVCC backend, reads resolve a snapshot-visible version into the read
/// set, writes install provisional versions, and commit validates the
/// read set before publishing — no lock-manager traffic at all.
pub struct Txn<'a> {
    db: &'a Arc<Database>,
    agent: &'a mut AgentSliState,
    backend: &'a mut dyn Backend,
}

impl Txn<'_> {
    /// Transaction sequence number. Locked backend: unique per
    /// database. MVCC: the snapshot timestamp (the commit timestamp —
    /// which becomes the WAL transaction id — is only allocated at
    /// commit).
    pub fn seq(&self) -> u64 {
        self.backend.seq()
    }

    /// Explicitly lock a whole table (e.g. `S` for a stable scan, `X` for
    /// bulk maintenance). No-op on the MVCC backend: scans read a
    /// consistent snapshot without locks.
    pub fn lock_table(&mut self, table: TableHandle, mode: LockMode) -> Result<(), TxnError> {
        let id = LockId::Table(table.table_id());
        self.backend.lock(self.db, self.agent, id, mode)
    }

    /// Index probe: key to RID. Locked backend: unlocked — the record
    /// lock (and the re-read through [`Txn::read`]) makes the access
    /// safe. MVCC: consults the transaction's own insert/delete overlay
    /// before the shared index.
    pub fn lookup(&mut self, table: TableHandle, key: u64) -> Option<Rid> {
        if let Some(own) = self.backend.own_key(table.0, key) {
            return own;
        }
        let _s = sli_profiler::enter(Category::Work(Component::Storage));
        self.db.table(table).primary.get(key)
    }

    /// Read a record by RID (S lock / snapshot-visible version).
    pub fn read(&mut self, table: TableHandle, rid: Rid) -> Result<Bytes, TxnError> {
        self.read_as(table, rid, LockMode::S)?
            .ok_or(TxnError::NotFound)
    }

    /// Read a record by primary key.
    pub fn read_by_key(&mut self, table: TableHandle, key: u64) -> Result<Bytes, TxnError> {
        let rid = self.lookup(table, key).ok_or(TxnError::NotFound)?;
        self.read(table, rid)
    }

    /// Read a record by RID for a later update. Locked backend: takes
    /// the X lock up front. MVCC: identical to [`Txn::read`] — the
    /// conflict surfaces at the write or at commit-time validation.
    pub fn read_for_update(&mut self, table: TableHandle, rid: Rid) -> Result<Bytes, TxnError> {
        self.read_as(table, rid, LockMode::X)?
            .ok_or(TxnError::NotFound)
    }

    /// Overwrite a record by RID (X lock / provisional version).
    pub fn update(&mut self, table: TableHandle, rid: Rid, data: &[u8]) -> Result<(), TxnError> {
        let after = Bytes::copy_from_slice(data);
        self.write(table, rid, WriteKind::Update, Some(after))
    }

    /// Read-modify-write by primary key.
    pub fn update_by_key(
        &mut self,
        table: TableHandle,
        key: u64,
        f: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Result<(), TxnError> {
        let rid = self.lookup(table, key).ok_or(TxnError::NotFound)?;
        let before = self.read_for_update(table, rid)?;
        let after = f(&before);
        self.update(table, rid, &after)
    }

    /// Insert a record with a primary key.
    pub fn insert(&mut self, table: TableHandle, key: u64, data: &[u8]) -> Result<Rid, TxnError> {
        self.insert_with_okey(table, key, None, data)
    }

    /// Insert a record with a primary key and an ordered secondary key.
    /// MVCC: the heap row is allocated now, but the index entries are
    /// published only at commit — the record stays invisible to every
    /// other transaction until then.
    pub fn insert_with_okey(
        &mut self,
        table: TableHandle,
        key: u64,
        ordered_key: Option<u64>,
        data: &[u8],
    ) -> Result<Rid, TxnError> {
        let after = Bytes::copy_from_slice(data);
        let rid = {
            let _s = sli_profiler::enter(Category::Work(Component::Storage));
            self.db.table(table).heap.insert(after.clone())
        };
        // The new record is X-locked *before* it is published in the
        // index, so no reader can see it until we commit.
        let kind = WriteKind::Insert {
            key,
            okey: ordered_key,
        };
        self.write(table, rid, kind, Some(after))?;
        Ok(rid)
    }

    /// Delete a record by primary key. MVCC: installs a provisional
    /// tombstone; the index entries are removed at commit and the heap
    /// row is reclaimed later by GC chain collapse (`Database::quiesce`).
    pub fn delete_by_key(
        &mut self,
        table: TableHandle,
        key: u64,
        ordered_key: Option<u64>,
    ) -> Result<(), TxnError> {
        let rid = self.lookup(table, key).ok_or(TxnError::NotFound)?;
        let kind = WriteKind::Delete {
            key,
            okey: ordered_key,
        };
        self.write(table, rid, kind, None)
    }

    /// Range-scan the ordered secondary index over `[lo, hi]`, up to
    /// `limit` records; returns the number visited. Locked backend:
    /// S-locks each visited record and fails with `NotFound` on one that
    /// vanished. MVCC: reads each record's snapshot-visible version
    /// without any locks, silently skipping records invisible to the
    /// snapshot (committed after it, or tombstoned before it). Own
    /// uncommitted inserts are not yet in the shared index and are not
    /// visited.
    pub fn scan_ordered(
        &mut self,
        table: TableHandle,
        lo: u64,
        hi: u64,
        limit: usize,
        mut visit: impl FnMut(u64, &[u8]),
    ) -> Result<usize, TxnError> {
        let hits = {
            let _s = sli_profiler::enter(Category::Work(Component::Storage));
            self.db.table(table).ordered.range(lo, hi, limit)
        };
        let mut n = 0;
        for (key, rid) in hits {
            if let Some(data) = self.read_as(table, rid, LockMode::S)? {
                visit(key, &data);
                n += 1;
            }
        }
        Ok(n)
    }

    /// Newest ordered-index entry in `[lo, hi]` (unlocked probe).
    pub fn ordered_last(&mut self, table: TableHandle, lo: u64, hi: u64) -> Option<(u64, Rid)> {
        let _s = sli_profiler::enter(Category::Work(Component::Storage));
        self.db.table(table).ordered.last_in(lo, hi)
    }

    /// Oldest ordered-index entry in `[lo, hi]` (unlocked probe).
    pub fn ordered_first(&mut self, table: TableHandle, lo: u64, hi: u64) -> Option<(u64, Rid)> {
        let _s = sli_profiler::enter(Category::Work(Component::Storage));
        self.db.table(table).ordered.first_in(lo, hi)
    }

    /// Abort with an application-level validation failure (the NDBB "failed
    /// transaction" outcome). Usage: `return Err(txn.user_abort("no such
    /// subscriber"))`.
    pub fn user_abort(&self, why: &'static str) -> TxnError {
        TxnError::UserAbort(why)
    }

    /// Take the record lock (or intent) `mode` on `rid`, then charge the
    /// row access every backend pays.
    fn touch(&mut self, table: TableHandle, rid: Rid, mode: LockMode) -> Result<(), TxnError> {
        let id = LockId::Record(table.table_id(), rid.page, rid.slot);
        self.backend.lock(self.db, self.agent, id, mode)?;
        self.db.pool.access();
        row_work(self.db);
        Ok(())
    }

    /// Read `rid` under `mode`; `Ok(None)` if it is invisible here.
    fn read_as(
        &mut self,
        table: TableHandle,
        rid: Rid,
        mode: LockMode,
    ) -> Result<Option<Bytes>, TxnError> {
        self.touch(table, rid, mode)?;
        self.backend.read(&self.db.table(table), table.0, rid)
    }

    /// X-lock and touch `rid`, then hand the write to the backend, which
    /// fills in its before image.
    fn write(
        &mut self,
        table: TableHandle,
        rid: Rid,
        kind: WriteKind,
        after: Option<Bytes>,
    ) -> Result<(), TxnError> {
        self.touch(table, rid, LockMode::X)?;
        let op = WriteOp {
            table: table.0,
            rid,
            kind,
            before: None,
            after,
        };
        self.backend.write(self.db, &self.db.table(table), op)
    }

    fn commit(self) -> Result<(), TxnError> {
        let _t = sli_profiler::enter(Category::Work(Component::TxnManager));
        self.backend.commit(self.db, self.agent)
    }

    fn rollback(self) {
        let _t = sli_profiler::enter(Category::Work(Component::TxnManager));
        self.backend.rollback(self.db, self.agent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::db::DatabaseConfig;

    fn db() -> Arc<Database> {
        Database::open(DatabaseConfig::with_policy(sli_core::PolicyKind::PaperSli))
    }

    fn mvcc_db() -> Arc<Database> {
        Database::open(DatabaseConfig::default().backend(BackendKind::Mvcc))
    }

    #[test]
    fn insert_read_update_delete_roundtrip() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            let s = db.session();
            s.run(|txn| {
                txn.insert(t, 1, b"one")?;
                assert_eq!(&txn.read_by_key(t, 1)?[..], b"one");
                txn.update_by_key(t, 1, |_| b"ONE".to_vec())?;
                assert_eq!(&txn.read_by_key(t, 1)?[..], b"ONE");
                txn.delete_by_key(t, 1, None)?;
                assert_eq!(txn.read_by_key(t, 1), Err(TxnError::NotFound));
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn user_abort_rolls_back_everything() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            let s = db.session();
            s.run(|txn| {
                txn.insert(t, 1, b"keep")?;
                Ok(())
            })
            .unwrap();

            let r: Result<(), TxnError> = s.run(|txn| {
                txn.update_by_key(t, 1, |_| b"dirty".to_vec())?;
                txn.insert(t, 2, b"phantom")?;
                txn.delete_by_key(t, 1, None)?;
                Err(txn.user_abort("validation failed"))
            });
            assert_eq!(r, Err(TxnError::UserAbort("validation failed")));
            // All three writes undone.
            db.quiesce();
            assert_eq!(&db.peek(t, 1).unwrap()[..], b"keep");
            assert!(db.peek(t, 2).is_none());
            assert_eq!(db.record_count(t), 1);
        }
    }

    #[test]
    fn commit_forces_the_log() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            let s = db.session();
            s.run(|txn| {
                txn.insert(t, 1, b"x")?;
                Ok(())
            })
            .unwrap();
            let stats = db.log_stats();
            assert!(stats.appends >= 2, "begin + insert + commit records");
            assert!(stats.flushes >= 1);
            assert!(db.log.durable_lsn() > 0);
        }
    }

    #[test]
    fn read_only_txns_skip_the_log() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            db.bulk_insert(t, 1, None, b"x");
            let s = db.session();
            s.run(|txn| {
                txn.read_by_key(t, 1)?;
                Ok(())
            })
            .unwrap();
            assert_eq!(db.log_stats().appends, 0);
            assert_eq!(db.log_stats().flushes, 0);
        }
    }

    #[test]
    fn scan_ordered_visits_range_in_order() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            for k in 0..20u64 {
                db.bulk_insert(t, k, Some(k * 10), &k.to_le_bytes());
            }
            let s = db.session();
            let mut seen = Vec::new();
            s.run(|txn| {
                txn.scan_ordered(t, 50, 120, 100, |k, _| seen.push(k))?;
                Ok(())
            })
            .unwrap();
            assert_eq!(seen, vec![50, 60, 70, 80, 90, 100, 110, 120]);
            seen.clear();
        }
    }

    #[test]
    fn conflicting_writers_serialize_without_lost_updates() {
        for db in [db(), mvcc_db()] {
            let t = db.create_table("t").unwrap();
            db.bulk_insert(t, 1, None, &0u64.to_le_bytes());
            let threads = 8;
            let per = 100;
            let mut handles = Vec::new();
            for _ in 0..threads {
                let db = Arc::clone(&db);
                handles.push(std::thread::spawn(move || {
                    let s = db.session();
                    for _ in 0..per {
                        s.run_with_retries(10_000, |txn| {
                            txn.update_by_key(t, 1, |old| {
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
            let v = u64::from_le_bytes(db.peek(t, 1).unwrap()[..].try_into().unwrap());
            assert_eq!(v, threads * per);
        }
    }

    #[test]
    fn sessions_inherit_locks_across_transactions() {
        // Inheritance needs queued acquisitions: grant-word fast path off.
        let mut cfg = DatabaseConfig::with_policy(sli_core::PolicyKind::PaperSli);
        cfg.lock.fastpath = sli_core::FastPathConfig::disabled();
        let db = Database::open(cfg);
        let t = db.create_table("t").unwrap();
        for k in 0..100u64 {
            db.bulk_insert(t, k, None, b"v");
        }
        let s = db.session();
        // Heat the high-level locks artificially while they are held (a
        // single-session test can't generate real latch contention); the
        // commit's candidate selection then sees them as hot.
        let db2 = Arc::clone(&db);
        s.run(|txn| {
            txn.read_by_key(t, 2)?;
            for id in [LockId::Database, LockId::Table(t.table_id())] {
                let head = db2.lockmgr.head(id).expect("lock held, head exists");
                for _ in 0..16 {
                    head.hot().record(true);
                }
            }
            Ok(())
        })
        .unwrap();
        assert!(
            s.inherited_locks() >= 2,
            "db and table locks should be inherited, got {}",
            s.inherited_locks()
        );
        let before = db.lock_stats();
        s.run(|txn| {
            txn.read_by_key(t, 3)?;
            Ok(())
        })
        .unwrap();
        let after = db.lock_stats();
        assert!(after.sli_reclaimed > before.sli_reclaimed);
    }

    #[test]
    fn mvcc_snapshot_reads_ignore_later_commits() {
        let db = mvcc_db();
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, b"old");
        let reader = db.session();
        let writer = db.session();
        // Interleave: the reader's snapshot is taken, then a writer
        // commits, then the reader re-reads — and must still see "old".
        let inner: Result<(), TxnError> = reader.run(|txn| {
            assert_eq!(&txn.read_by_key(t, 1)?[..], b"old");
            writer.run(|w| {
                w.update_by_key(t, 1, |_| b"new".to_vec())?;
                Ok(())
            })?;
            assert_eq!(
                &txn.read_by_key(t, 1)?[..],
                b"old",
                "snapshot must not see the later commit"
            );
            Ok(())
        });
        inner.unwrap();
        // A fresh snapshot sees the new value.
        reader
            .run(|txn| {
                assert_eq!(&txn.read_by_key(t, 1)?[..], b"new");
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn mvcc_stale_read_write_fails_validation() {
        let db = mvcc_db();
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, &0u64.to_le_bytes());
        db.bulk_insert(t, 2, None, &0u64.to_le_bytes());
        let a = db.session();
        let b = db.session();
        // a reads record 1 then writes record 2; b updates record 1 and
        // commits in between. a's backward validation must fail.
        let r: Result<(), TxnError> = a.run(|txn| {
            txn.read_by_key(t, 1)?;
            b.run(|w| {
                w.update_by_key(t, 1, |_| 7u64.to_le_bytes().to_vec())?;
                Ok(())
            })?;
            txn.update_by_key(t, 2, |_| 9u64.to_le_bytes().to_vec())?;
            Ok(())
        });
        assert!(
            matches!(r, Err(TxnError::Validation(_))),
            "expected a validation abort, got {r:?}"
        );
        assert!(r.unwrap_err().is_retryable());
        // The failed writer's provisional on record 2 is gone.
        assert_eq!(&db.peek(t, 2).unwrap()[..], &0u64.to_le_bytes());
        let stats = db.mvcc_stats().unwrap();
        assert!(stats.validation_aborts >= 1);
    }

    #[test]
    fn mvcc_never_touches_the_lock_manager() {
        let db = mvcc_db();
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 1, None, b"x");
        let s = db.session();
        s.run(|txn| {
            txn.lock_table(t, LockMode::S)?;
            txn.read_by_key(t, 1)?;
            txn.update_by_key(t, 1, |_| b"y".to_vec())?;
            Ok(())
        })
        .unwrap();
        let stats = db.lock_stats();
        assert_eq!(stats.lock_requests, 0, "no lock-manager traffic on mvcc");
        assert_eq!(stats.fastpath_granted, 0);
    }
}
