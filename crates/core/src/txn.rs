//! Per-transaction lock state.
//!
//! Each transaction agent "maintains a private list of requests for all
//! locks it holds, in the order it acquired them" (Section 3.2), plus a
//! *lock cache* mapping lock ids to requests. SLI pre-populates the cache of
//! a new transaction with the agent's inherited requests, so that a
//! transaction "will find the request already in its cache" (Section 4.1).

use std::collections::HashMap;
use std::sync::Arc;

use crate::head::LockHead;
use crate::id::{BuildLockIdHasher, LockId};
use crate::mode::LockMode;
use crate::request::{LockRequest, RequestStatus};

/// A lock request together with its lock head, so release paths and SLI
/// never re-probe the hash table.
pub(crate) type QueuedEntry = (Arc<LockRequest>, Arc<LockHead>);

/// One lock a transaction holds: either a conventional queued request, or
/// a lightweight grant-word fast-path hold (a CASed counter on the head —
/// no `LockRequest`, no queue entry; release is a counter decrement).
#[derive(Clone)]
pub(crate) enum Entry {
    /// A request linked into the head's latched queue.
    Queued(Arc<LockRequest>, Arc<LockHead>),
    /// A latch-free grant-word hold in the given (group-compatible) mode.
    Fast(LockMode, Arc<LockHead>),
}

impl Entry {
    /// The lock head this entry holds.
    pub(crate) fn head(&self) -> &Arc<LockHead> {
        match self {
            Entry::Queued(_, h) | Entry::Fast(_, h) => h,
        }
    }

    /// The lock's identity.
    pub(crate) fn id(&self) -> LockId {
        match self {
            Entry::Queued(r, _) => r.lock_id(),
            Entry::Fast(_, h) => h.id(),
        }
    }

    /// The mode this entry currently holds (for queued entries, the
    /// request's granted mode).
    pub(crate) fn mode(&self) -> LockMode {
        match self {
            Entry::Queued(r, _) => r.mode(),
            Entry::Fast(m, _) => *m,
        }
    }

    /// The mode transaction `txn` holds through this entry, if it owns it.
    pub(crate) fn held_by(&self, txn: u64) -> Option<LockMode> {
        match self {
            Entry::Queued(req, _) => match req.status() {
                RequestStatus::Granted | RequestStatus::Converting if req.txn() == txn => {
                    Some(req.mode())
                }
                _ => None,
            },
            // Fast entries never outlive the transaction (the cache is
            // cleared at end_txn/reset), so presence implies ownership.
            Entry::Fast(mode, _) => Some(*mode),
        }
    }
}

/// Lock-management state of one running transaction.
pub struct TxnLockState {
    pub(crate) txn_seq: u64,
    pub(crate) agent_slot: u32,
    /// Private lock list, acquisition order (parents precede children).
    pub(crate) requests: Vec<Entry>,
    /// Lock cache: id -> request (owned this txn, or inherited candidates).
    pub(crate) cache: HashMap<LockId, Entry, BuildLockIdHasher>,
    pub(crate) aborted: bool,
}

impl TxnLockState {
    /// Fresh state for an agent; reuse across transactions via
    /// [`crate::LockManager::begin`].
    pub fn new(agent_slot: u32) -> Self {
        TxnLockState {
            txn_seq: 0,
            agent_slot,
            requests: Vec::with_capacity(16),
            cache: HashMap::with_capacity_and_hasher(32, BuildLockIdHasher::default()),
            aborted: false,
        }
    }

    /// This transaction's sequence number.
    pub fn txn_seq(&self) -> u64 {
        self.txn_seq
    }

    /// The owning agent's slot.
    pub fn agent_slot(&self) -> u32 {
        self.agent_slot
    }

    /// Whether the transaction has been marked aborted.
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }

    /// Number of locks currently held (granted to this transaction).
    pub fn locks_held(&self) -> usize {
        self.requests.len()
    }

    /// The mode in which this transaction holds `id`, if any.
    pub fn held_mode(&self, id: LockId) -> Option<LockMode> {
        self.cache.get(&id)?.held_by(self.txn_seq)
    }

    /// The mode of a grant-word fast-path hold on `id`, if that is how
    /// this transaction holds it (diagnostics and invariant tests).
    pub fn holds_fast(&self, id: LockId) -> Option<LockMode> {
        match self.cache.get(&id)? {
            Entry::Fast(mode, _) => Some(*mode),
            Entry::Queued(..) => None,
        }
    }

    /// Number of locks held via the grant-word fast path.
    pub fn fast_locks_held(&self) -> usize {
        self.requests
            .iter()
            .filter(|e| matches!(e, Entry::Fast(..)))
            .count()
    }

    /// Record a newly granted (or reclaimed) request.
    pub(crate) fn insert_owned(&mut self, req: Arc<LockRequest>, head: Arc<LockHead>) {
        self.cache.insert(
            req.lock_id(),
            Entry::Queued(Arc::clone(&req), Arc::clone(&head)),
        );
        self.requests.push(Entry::Queued(req, head));
    }

    /// Record a grant-word fast-path hold.
    pub(crate) fn insert_fast(&mut self, mode: LockMode, head: Arc<LockHead>) {
        self.cache
            .insert(head.id(), Entry::Fast(mode, Arc::clone(&head)));
        self.requests.push(Entry::Fast(mode, head));
    }

    /// Reset for a new transaction, keeping allocations.
    pub(crate) fn reset(&mut self, txn_seq: u64) {
        self.txn_seq = txn_seq;
        self.requests.clear();
        self.cache.clear();
        self.aborted = false;
    }
}

impl std::fmt::Debug for TxnLockState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnLockState")
            .field("txn_seq", &self.txn_seq)
            .field("agent_slot", &self.agent_slot)
            .field("locks_held", &self.requests.len())
            .field("aborted", &self.aborted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::TableId;

    #[test]
    fn held_mode_reflects_ownership() {
        let mut ts = TxnLockState::new(0);
        ts.reset(7);
        let id = LockId::Table(TableId(1));
        let head = LockHead::new(id);
        let req = Arc::new(LockRequest::new_granted(id, 0, 7, LockMode::IS));
        ts.insert_owned(req, head);
        assert_eq!(ts.held_mode(id), Some(LockMode::IS));
        assert_eq!(ts.held_mode(LockId::Database), None);
        assert_eq!(ts.locks_held(), 1);
    }

    #[test]
    fn held_mode_ignores_other_txns_requests() {
        let mut ts = TxnLockState::new(0);
        ts.reset(7);
        let id = LockId::Table(TableId(1));
        let head = LockHead::new(id);
        // Request owned by txn 3, e.g. a stale inherited entry.
        let req = Arc::new(LockRequest::new_granted(id, 0, 3, LockMode::IS));
        ts.cache.insert(id, Entry::Queued(req, head));
        assert_eq!(ts.held_mode(id), None);
    }

    #[test]
    fn cache_finds_ten_thousand_ids_of_every_level() {
        let mut ts = TxnLockState::new(0);
        ts.reset(1);
        let mut ids = vec![LockId::Database];
        for t in 0..10u32 {
            ids.push(LockId::Table(TableId(t)));
            for p in 0..40u32 {
                ids.push(LockId::Page(TableId(t), p));
                for r in 0..25u16 {
                    ids.push(LockId::Record(TableId(t), p, r));
                }
            }
        }
        assert!(ids.len() >= 10_000);
        for (i, &id) in ids.iter().enumerate() {
            let mode = if i % 2 == 0 {
                LockMode::S
            } else {
                LockMode::IX
            };
            ts.insert_fast(mode, LockHead::new(id));
        }
        assert_eq!(ts.cache.len(), ids.len(), "no two ids collapse");
        for (i, &id) in ids.iter().enumerate() {
            let mode = if i % 2 == 0 {
                LockMode::S
            } else {
                LockMode::IX
            };
            assert_eq!(ts.held_mode(id), Some(mode), "{id}");
            assert_eq!(ts.cache[&id].id(), id);
        }
        assert_eq!(ts.held_mode(LockId::Table(TableId(10))), None);
        assert_eq!(ts.held_mode(LockId::Record(TableId(0), 40, 0)), None);
    }

    #[test]
    fn reset_clears_state() {
        let mut ts = TxnLockState::new(2);
        ts.reset(1);
        let id = LockId::Database;
        let head = LockHead::new(id);
        let req = Arc::new(LockRequest::new_granted(id, 2, 1, LockMode::IS));
        ts.insert_owned(req, head);
        ts.aborted = true;
        ts.reset(2);
        assert_eq!(ts.txn_seq(), 2);
        assert_eq!(ts.locks_held(), 0);
        assert!(!ts.is_aborted());
        assert!(ts.cache.is_empty());
    }
}
