//! The concurrency-backend seam.
//!
//! A [`crate::Txn`] is a backend-agnostic shell: it does what every
//! backend shares (index probes, the buffer-pool touch, synthetic row
//! cost, `NotFound` mapping) and hands the concurrency-control steps to
//! its session's [`Backend`] object, built once when the session opens.
//! Each backend is one file: `locked.rs` is the paper's hierarchical
//! two-phase locking with SLI, `mvcc.rs` the multiversion/optimistic
//! engine from `sli-mvcc`.
//!
//! A row write has one description from start to end, `sli_mvcc::WriteOp`:
//! the locked backend's undo log and the MVCC write set both hold it,
//! [`log_record`] turns it into its WAL record, and [`inverse`] into the
//! compensation a locked rollback applies and logs.

use bytes::Bytes;
use sli_core::{AgentSliState, LockId, LockMode};
use sli_mvcc::{WriteKind, WriteOp};
use sli_storage::Rid;
use sli_wal::LogRecord;

use crate::db::{Database, TableData};
use crate::session::TxnError;

/// Which concurrency-control engine a database runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Hierarchical two-phase locking through the lock manager (the
    /// paper's engine; both lock policies apply). The default.
    #[default]
    Locked2pl,
    /// Multiversion storage with optimistic validate-at-commit
    /// execution (`sli-mvcc`). The lock manager is never consulted on
    /// this path.
    Mvcc,
}

impl BackendKind {
    /// Parse a knob value (`SLI_BACKEND`): `locked`/`2pl`/`locked2pl`
    /// or `mvcc`/`occ`.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "locked" | "2pl" | "locked2pl" | "locked-2pl" => Some(BackendKind::Locked2pl),
            "mvcc" | "occ" => Some(BackendKind::Mvcc),
            _ => None,
        }
    }

    /// Display name (`locked-2pl` / `mvcc`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Locked2pl => "locked-2pl",
            BackendKind::Mvcc => "mvcc",
        }
    }
}

/// One session's concurrency control: the per-transaction operations a
/// backend implements. The object lives as long as its session and
/// keeps its scratch (undo log, read/write sets) across transactions.
/// The lock-manager agent stays with the session — SLI parks locks on it
/// between transactions and both backends key their slot off it — and is
/// lent to the calls that need it.
pub(crate) trait Backend: Send {
    /// Start a transaction.
    fn begin(&mut self, db: &Database, agent: &mut AgentSliState);

    /// The running transaction's sequence number (see `Txn::seq`).
    fn seq(&self) -> u64;

    /// Take `id` in `mode` before the shell touches what it covers (a
    /// table, or a record about to be read or written).
    fn lock(
        &mut self,
        db: &Database,
        agent: &mut AgentSliState,
        id: LockId,
        mode: LockMode,
    ) -> Result<(), TxnError>;

    /// This transaction's own uncommitted mapping for `key`:
    /// `Some(Some(rid))` after an own insert, `Some(None)` after an own
    /// delete, `None` to consult the shared primary index.
    fn own_key(&self, table: u32, key: u64) -> Option<Option<Rid>>;

    /// Read `rid`. `Ok(None)`: the record exists but is invisible to this
    /// transaction, which a scan skips.
    fn read(&mut self, t: &TableData, table: u32, rid: Rid) -> Result<Option<Bytes>, TxnError>;

    /// Perform `op`, whose `before` image the backend fills in. For an
    /// insert the shell has already placed the heap row at `op.rid`.
    fn write(&mut self, db: &Database, t: &TableData, op: WriteOp) -> Result<(), TxnError>;

    /// Make the transaction durable and visible, then end it.
    fn commit(&mut self, db: &Database, agent: &mut AgentSliState) -> Result<(), TxnError>;

    /// Undo the transaction's writes, then end it.
    fn rollback(&mut self, db: &Database, agent: &mut AgentSliState);
}

/// The WAL record of `op` under transaction id `txn`.
pub(crate) fn log_record(txn: u64, op: &WriteOp) -> LogRecord {
    fn image(b: &Option<Bytes>) -> &[u8] {
        b.as_deref().expect("row write is missing an image")
    }
    let (before, after) = (&op.before, &op.after);
    let (table, page, slot) = (op.table, op.rid.page, op.rid.slot);
    match op.kind {
        WriteKind::Insert { key, okey } => {
            LogRecord::insert(txn, table, page, slot, key, okey, image(after))
        }
        WriteKind::Update => LogRecord::update(txn, table, page, slot, image(before), image(after)),
        WriteKind::Delete { key, okey } => {
            LogRecord::delete(txn, table, page, slot, key, okey, image(before))
        }
    }
}

/// The write that undoes `op`: images swapped, insert and delete
/// exchanged.
pub(crate) fn inverse(op: WriteOp) -> WriteOp {
    WriteOp {
        table: op.table,
        rid: op.rid,
        kind: match op.kind {
            WriteKind::Insert { key, okey } => WriteKind::Delete { key, okey },
            WriteKind::Update => WriteKind::Update,
            WriteKind::Delete { key, okey } => WriteKind::Insert { key, okey },
        },
        before: op.after,
        after: op.before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_knob_spellings() {
        assert_eq!(BackendKind::parse("mvcc"), Some(BackendKind::Mvcc));
        assert_eq!(BackendKind::parse("OCC"), Some(BackendKind::Mvcc));
        assert_eq!(BackendKind::parse("locked"), Some(BackendKind::Locked2pl));
        assert_eq!(BackendKind::parse("2pl"), Some(BackendKind::Locked2pl));
        assert_eq!(BackendKind::parse("nope"), None);
        assert_eq!(BackendKind::default(), BackendKind::Locked2pl);
        assert_eq!(BackendKind::Mvcc.name(), "mvcc");
    }
}
