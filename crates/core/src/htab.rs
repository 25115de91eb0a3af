//! The lock manager's hash table of lock heads.
//!
//! "...the manager probes an internal hash table to find the desired lock
//! head" (Section 3.2). Buckets are individually latched (Shore-MT's
//! fine-grained synchronization); lock heads are reference counted. Page,
//! table and database heads stay in their bucket for the table's lifetime;
//! a record head is removed once its queue drains, using a `zombie` flag
//! to invalidate stale references held by concurrent probers.

use std::sync::Arc;

use sli_latch::Latched;
use sli_profiler::Component;

use crate::head::LockHead;
use crate::id::LockId;
use crate::word::GrantWordSnapshot;

struct Bucket {
    heads: Vec<Arc<LockHead>>,
}

/// Fixed-size, per-bucket-latched hash table mapping [`LockId`]s to
/// [`LockHead`]s.
pub struct LockTable {
    buckets: Box<[Latched<Bucket>]>,
    mask: u64,
}

impl LockTable {
    /// Create a table with at least `buckets` buckets (rounded up to a power
    /// of two).
    pub fn new(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(16);
        let buckets = (0..n)
            .map(|_| Latched::new(Component::LockManager, Bucket { heads: Vec::new() }))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LockTable {
            buckets,
            mask: (n - 1) as u64,
        }
    }

    #[inline]
    fn bucket(&self, id: LockId) -> &Latched<Bucket> {
        &self.buckets[(id.hash64() & self.mask) as usize]
    }

    /// Find the lock head for `id`, creating it if absent.
    ///
    /// A returned record head may race with [`LockTable::remove_if_empty`];
    /// callers must re-check `zombie` after latching the head's queue and
    /// retry the probe if set.
    ///
    /// The common hit path holds the bucket latch for a probe only; on a
    /// miss the `LockHead` is constructed (one heap allocation plus a
    /// grant-word allocation) *outside* the latch and inserted after a
    /// re-probe, so head construction never extends a bucket critical
    /// section. A racing creator wins harmlessly: the speculative
    /// allocation is dropped.
    pub fn get_or_create(&self, id: LockId) -> Arc<LockHead> {
        let bucket = self.bucket(id);
        {
            let b = bucket.lock();
            if let Some(h) = b.heads.iter().find(|h| h.id() == id) {
                return Arc::clone(h);
            }
        }
        let head = LockHead::new(id);
        let mut b = bucket.lock();
        if let Some(h) = b.heads.iter().find(|h| h.id() == id) {
            return Arc::clone(h); // lost the race; drop our allocation
        }
        b.heads.push(Arc::clone(&head));
        head
    }

    /// Find the lock head for `id` without creating it.
    pub fn get(&self, id: LockId) -> Option<Arc<LockHead>> {
        let b = self.bucket(id).lock();
        b.heads.iter().find(|h| h.id() == id).cloned()
    }

    /// Unlink `head` from its bucket if its queue is empty, marking it
    /// zombie so concurrent holders of the `Arc` retry their probe.
    /// Returns true if removed.
    pub fn remove_if_empty(&self, head: &Arc<LockHead>) -> bool {
        debug_assert!(
            !head.id().level().is_page_or_higher(),
            "only record heads retire"
        );
        let mut b = self.bucket(head.id()).lock();
        // Latch order: bucket -> head. Probers never hold the bucket latch
        // while latching a head, so this cannot deadlock.
        let mut q = head.latch_untracked();
        if !q.is_empty() || q.zombie {
            return false;
        }
        // The grant-word side of the handshake: retirement only succeeds
        // when no fast-path holder exists, via a CAS that linearizes
        // against fast-acquire increments. A fast acquirer that loses the
        // race observes the zombie flag and re-probes the table.
        if !head.grant_word().try_retire() {
            return false;
        }
        q.zombie = true;
        drop(q);
        let before = b.heads.len();
        b.heads.retain(|h| !Arc::ptr_eq(h, head));
        debug_assert_eq!(b.heads.len() + 1, before);
        true
    }

    /// Number of live lock heads (diagnostics; takes every bucket latch).
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.lock().heads.len()).sum()
    }

    /// True when no lock heads exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Head-leak check once no transaction or inherited lock is left: the
    /// number of retained heads if no record head remains and each is idle
    /// (empty queue, all-zero grant word), else the first offender.
    pub fn quiescent_heads(&self) -> Result<usize, LockId> {
        let mut n = 0;
        for bucket in self.buckets.iter() {
            for h in &bucket.lock().heads {
                let idle = h.latch_untracked().is_empty()
                    && h.grant_word().snapshot() == GrantWordSnapshot::default();
                if !idle || !h.id().level().is_page_or_higher() {
                    return Err(h.id());
                }
                n += 1;
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::TableId;
    use crate::mode::LockMode;
    use crate::request::LockRequest;
    use crate::stats::LockStats;

    #[test]
    fn get_or_create_is_idempotent() {
        let t = LockTable::new(64);
        let a = t.get_or_create(LockId::Table(TableId(1)));
        let b = t.get_or_create(LockId::Table(TableId(1)));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_ids_get_distinct_heads() {
        let t = LockTable::new(64);
        let a = t.get_or_create(LockId::Page(TableId(1), 0));
        let b = t.get_or_create(LockId::Page(TableId(1), 1));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn get_does_not_create() {
        let t = LockTable::new(64);
        assert!(t.get(LockId::Database).is_none());
        t.get_or_create(LockId::Database);
        assert!(t.get(LockId::Database).is_some());
    }

    #[test]
    fn empty_heads_are_removed_and_zombied() {
        let t = LockTable::new(64);
        let id = LockId::Record(TableId(9), 0, 0);
        let h = t.get_or_create(id);
        assert!(t.remove_if_empty(&h));
        assert_eq!(t.len(), 0);
        assert!(h.latch_untracked().zombie);
        // A new probe creates a fresh head.
        let h2 = t.get_or_create(id);
        assert!(!Arc::ptr_eq(&h, &h2));
    }

    #[test]
    fn nonempty_heads_are_not_removed() {
        let t = LockTable::new(64);
        let stats = LockStats::new();
        let id = LockId::Record(TableId(2), 0, 0);
        let h = t.get_or_create(id);
        let req = Arc::new(LockRequest::new_granted(id, 0, 1, LockMode::S));
        h.latch().push_granted(req.clone());
        assert!(!t.remove_if_empty(&h));
        assert_eq!(t.len(), 1);
        h.latch().release(&req, &stats);
        assert!(t.remove_if_empty(&h));
    }

    #[test]
    fn quiescent_heads_flags_records_and_busy_heads() {
        let t = LockTable::new(64);
        let stats = LockStats::new();
        assert_eq!(t.quiescent_heads(), Ok(0));
        let page = LockId::Page(TableId(1), 0);
        let h = t.get_or_create(page);
        t.get_or_create(LockId::Database);
        assert_eq!(t.quiescent_heads(), Ok(2));
        let req = Arc::new(LockRequest::new_granted(page, 0, 1, LockMode::IS));
        h.latch().push_granted(req.clone());
        assert_eq!(t.quiescent_heads(), Err(page), "a holder is not idle");
        h.latch().release(&req, &stats);
        assert_eq!(t.quiescent_heads(), Ok(2));
        let rec = LockId::Record(TableId(1), 0, 0);
        t.get_or_create(rec);
        assert_eq!(
            t.quiescent_heads(),
            Err(rec),
            "a record head outlived its queue"
        );
    }

    #[test]
    fn concurrent_probes_converge_on_one_head() {
        let t = Arc::new(LockTable::new(16));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut ptrs = Vec::new();
                for i in 0..100u32 {
                    ptrs.push(
                        Arc::as_ptr(&t.get_or_create(LockId::Page(TableId(1), i % 4))) as usize,
                    );
                }
                ptrs
            }));
        }
        let all: Vec<Vec<usize>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // For each of the 4 ids, every thread must have seen the same head.
        for k in 0..4 {
            let firsts: std::collections::HashSet<usize> = all.iter().map(|v| v[k]).collect();
            assert_eq!(firsts.len(), 1);
        }
        assert_eq!(t.len(), 4);
    }
}
