//! Per-transaction MVCC scratch state.

use std::collections::HashMap;

use bytes::Bytes;
use sli_storage::Rid;

/// One read-set entry: which version of which record this transaction
/// observed. `seen` is the observed version's `begin` timestamp
/// (`sli_storage::BASE_TS` for a pre-chain heap read,
/// `sli_storage::NOTHING_SEEN` for "chain present, nothing visible").
/// Backward validation at commit recomputes the newest committed
/// identity and requires it to still equal `seen`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadEntry {
    /// Table id of the record read.
    pub table: u32,
    /// Record id read.
    pub rid: Rid,
    /// Identity of the version observed.
    pub seen: u64,
}

/// What kind of write a [`WriteOp`] is. Insert/Delete carry the index
/// keys so commit can publish/unpublish index entries and log complete
/// records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// A new record: heap row allocated at write time, index entries
    /// published at commit.
    Insert {
        /// Primary key.
        key: u64,
        /// Ordered secondary key, if any.
        okey: Option<u64>,
    },
    /// Overwrite of an existing record.
    Update,
    /// Delete of an existing record: index entries removed at commit,
    /// the heap row is reclaimed later by GC chain collapse (the RID
    /// must stay allocated while any chain references it).
    Delete {
        /// Primary key.
        key: u64,
        /// Ordered secondary key, if any.
        okey: Option<u64>,
    },
}

/// One row write, in execution order: the MVCC write set and the
/// engine's locked undo log both hold these, and each maps onto one WAL
/// record. `before`/`after` are the row images (`before` is `None` for
/// inserts, `after` is `None` for deletes).
#[derive(Clone, Debug)]
pub struct WriteOp {
    /// Table id written.
    pub table: u32,
    /// Record id written.
    pub rid: Rid,
    /// Operation kind (with index keys where needed).
    pub kind: WriteKind,
    /// Pre-image for the WAL record.
    pub before: Option<Bytes>,
    /// Post-image for the WAL record.
    pub after: Option<Bytes>,
}

/// One transaction's private MVCC state. Owned by the session and
/// reused across transactions (the vectors keep their capacity).
#[derive(Debug, Default)]
pub struct MvccTxn {
    /// Snapshot timestamp: this transaction sees exactly the versions
    /// committed at or before `read_ts`.
    pub read_ts: u64,
    /// The session's agent slot (indexes the store's snapshot and
    /// commit-preparation registries).
    pub slot: u32,
    /// Read set for backward validation.
    pub reads: Vec<ReadEntry>,
    /// Write set in execution order.
    pub writes: Vec<WriteOp>,
    /// Own-write overlay: rid → index of the *latest* write op for that
    /// rid, so the transaction reads its own uncommitted writes.
    pub own: HashMap<(u32, Rid), usize>,
    /// Own key overlay: primary key → `Some(rid)` for own uncommitted
    /// inserts, `None` for own uncommitted deletes. Consulted before
    /// the shared primary index so key lookups see own writes.
    pub key_overlay: HashMap<(u32, u64), Option<Rid>>,
}

impl MvccTxn {
    /// Fresh, inactive scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset for a new transaction at `read_ts` on agent `slot`.
    pub fn reset(&mut self, read_ts: u64, slot: u32) {
        self.read_ts = read_ts;
        self.slot = slot;
        self.reads.clear();
        self.writes.clear();
        self.own.clear();
        self.key_overlay.clear();
    }

    /// Provisional-version owner token: agent slot + 1, so 0 never
    /// collides with a real owner.
    pub fn token(&self) -> u64 {
        self.slot as u64 + 1
    }

    /// Record a write op and refresh the own-write overlay.
    pub fn push_write(&mut self, op: WriteOp) {
        self.own.insert((op.table, op.rid), self.writes.len());
        self.writes.push(op);
    }

    /// The latest own write for `rid`, if any.
    pub fn own_write(&self, table: u32, rid: Rid) -> Option<&WriteOp> {
        self.own.get(&(table, rid)).map(|&i| &self.writes[i])
    }

    /// RIDs this transaction holds provisional versions for (dedup'd
    /// via the own-write overlay).
    pub fn written_rids(&self) -> impl Iterator<Item = (u32, Rid)> + '_ {
        self.own.keys().copied()
    }

    /// RIDs whose heap rows this transaction allocated (any Insert op):
    /// on abort these must be deleted from the heap again.
    pub fn inserted_rids(&self) -> impl Iterator<Item = (u32, Rid)> + '_ {
        let mut seen = std::collections::HashSet::new();
        self.writes.iter().filter_map(move |w| {
            matches!(w.kind, WriteKind::Insert { .. })
                .then(|| (w.table, w.rid))
                .filter(|k| seen.insert(*k))
        })
    }
}
