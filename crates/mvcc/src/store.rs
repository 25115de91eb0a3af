//! The shared MVCC store: timestamps, snapshots, version map, GC.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;
use sli_storage::{Observation, Provisional, Rid, VersionChain, BASE_TS, NOTHING_SEEN};

use crate::txn::ReadEntry;

/// Tuning for the MVCC store.
#[derive(Clone, Debug)]
pub struct MvccConfig {
    /// Shard count for the version map (rounded up to a power of two).
    pub shards: usize,
    /// Run a GC pass every this many writer commits.
    pub gc_every: u64,
}

impl Default for MvccConfig {
    fn default() -> Self {
        MvccConfig {
            shards: 64,
            gc_every: 128,
        }
    }
}

/// Why a provisional write could not be installed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteError {
    /// Another transaction holds a provisional version of this record,
    /// or committed a newer version after this snapshot
    /// (first-writer-wins / first-committer-wins).
    Conflict(&'static str),
    /// The record is not visible at this snapshot (deleted, or never
    /// existed).
    NotFound,
}

/// `preparing` sentinel: a commit timestamp is being allocated but is
/// not yet published. Readers treat it as "outcome unknown" and wait.
const PREPARE_PENDING: u64 = u64::MAX;

/// Counter snapshot of the MVCC store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MvccStats {
    /// Transactions begun (snapshots taken).
    pub begins: u64,
    /// Read-only commits (no validation needed).
    pub ro_commits: u64,
    /// Writer commits that passed validation.
    pub commits: u64,
    /// Commits aborted by backward validation (read-set invalidated).
    pub validation_aborts: u64,
    /// Writes aborted at install time (write-write conflicts).
    pub ww_conflicts: u64,
    /// Reads that waited for a preparing writer's outcome.
    pub read_waits: u64,
    /// Committed versions installed (provisionals flipped).
    pub versions_installed: u64,
    /// Shadowed versions dropped by watermark pruning.
    pub versions_pruned: u64,
    /// Chains collapsed back to bare heap records.
    pub chains_collapsed: u64,
    /// GC passes run.
    pub gc_runs: u64,
}

#[derive(Default)]
struct Counters {
    begins: AtomicU64,
    ro_commits: AtomicU64,
    commits: AtomicU64,
    validation_aborts: AtomicU64,
    ww_conflicts: AtomicU64,
    read_waits: AtomicU64,
    versions_installed: AtomicU64,
    versions_pruned: AtomicU64,
    chains_collapsed: AtomicU64,
    gc_runs: AtomicU64,
}

// ordering: pure stats counters — monotone, read only by snapshot().
const STAT: Ordering = Ordering::Relaxed;

type Shard = Mutex<HashMap<(u32, Rid), VersionChain>>;

/// The shared state of the MVCC backend for one database.
///
/// # Timestamp protocol
///
/// One global counter issues both snapshot and commit timestamps:
/// `read_ts` is a plain load, `commit_ts` is `fetch_add(1) + 1` — so a
/// commit timestamp is strictly greater than every snapshot taken
/// before it, and doubles as the transaction's WAL id (the counter
/// starts at 1, keeping ids clear of `LOADER_TXN = 0`).
///
/// # Why registration retries
///
/// `begin` publishes the snapshot into `active[slot]` and then
/// re-checks the counter: if it moved, a concurrent GC may have
/// computed a watermark from a registry that did not include us yet.
/// When the counter is unchanged, every committed version has `begin <=
/// counter == read_ts`, so the newest version of every chain — the one
/// pruning/collapse always keeps — is visible to us and the pass was
/// safe; otherwise we retry with a fresher snapshot.
///
/// # Why `preparing` exists
///
/// Between a writer's commit-timestamp allocation and the flip of its
/// provisional versions, a reader may start with `read_ts >=
/// commit_ts`; resolving "skip the provisional" there would give an
/// inconsistent cut (some of the writer's records flipped, some not).
/// The writer publishes `PREPARE_PENDING` *before* allocating, then the
/// real `commit_ts`; a reader that finds a foreign provisional whose
/// owner is preparing at or below its snapshot waits (bounded: the
/// window covers validation + in-memory log append, never the flush)
/// until the flip or the validation abort resolves it.
pub struct MvccStore {
    config: MvccConfig,
    /// Last issued timestamp.
    ts: AtomicU64,
    /// Per-agent-slot active snapshot (`read_ts`; 0 = idle).
    active: Box<[AtomicU64]>,
    /// Per-agent-slot commit preparation (`commit_ts`, `PREPARE_PENDING`
    /// while allocating; 0 = idle).
    preparing: Box<[AtomicU64]>,
    shards: Box<[Shard]>,
    writer_commits: AtomicU64,
    stats: Counters,
}

impl MvccStore {
    /// A store serving up to `max_agents` concurrent sessions.
    pub fn new(max_agents: usize, config: MvccConfig) -> Self {
        let shard_count = config.shards.next_power_of_two().max(1);
        MvccStore {
            config,
            ts: AtomicU64::new(1),
            active: (0..max_agents).map(|_| AtomicU64::new(0)).collect(),
            preparing: (0..max_agents).map(|_| AtomicU64::new(0)).collect(),
            shards: (0..shard_count)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            writer_commits: AtomicU64::new(0),
            stats: Counters::default(),
        }
    }

    fn shard(&self, table: u32, rid: Rid) -> &Shard {
        // Fibonacci hash over the rid words; shard count is a power of
        // two.
        let h = (table as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((rid.page as u64) << 16)
            .wrapping_add(rid.slot as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize & (self.shards.len() - 1)]
    }

    /// Advance the timestamp floor (recovery: past every WAL txn id).
    pub fn advance_ts_floor(&self, floor: u64) {
        self.ts.fetch_max(floor, Ordering::SeqCst);
    }

    /// Last issued timestamp (tests/diagnostics).
    pub fn current_ts(&self) -> u64 {
        self.ts.load(Ordering::SeqCst)
    }

    /// Take a snapshot and register it as active on `slot`.
    pub fn begin(&self, slot: u32) -> u64 {
        self.stats.begins.fetch_add(1, STAT);
        let a = &self.active[slot as usize];
        loop {
            let ts = self.ts.load(Ordering::SeqCst);
            a.store(ts, Ordering::SeqCst);
            if self.ts.load(Ordering::SeqCst) == ts {
                return ts;
            }
            // The counter moved while we registered: a concurrent GC
            // pass may have missed this snapshot. Retry (see type docs).
        }
    }

    /// Deregister `slot`'s snapshot.
    pub fn end(&self, slot: u32) {
        self.active[slot as usize].store(0, Ordering::SeqCst);
    }

    /// Allocate a commit timestamp for `slot`, leaving the slot in the
    /// preparing state until [`MvccStore::finish_commit`].
    pub fn prepare_commit(&self, slot: u32) -> u64 {
        let p = &self.preparing[slot as usize];
        p.store(PREPARE_PENDING, Ordering::SeqCst);
        let commit_ts = self.ts.fetch_add(1, Ordering::SeqCst) + 1;
        p.store(commit_ts, Ordering::SeqCst);
        commit_ts
    }

    /// Leave the preparing state (after the flip — or the discard, for
    /// a validation abort).
    pub fn finish_commit(&self, slot: u32) {
        self.preparing[slot as usize].store(0, Ordering::SeqCst);
    }

    /// Resolve a snapshot read of `(table, rid)`.
    ///
    /// `heap_base` is the record's *current heap bytes, read before this
    /// probe*: when no chain exists the heap value is by definition the
    /// base version (writers create the chain — seeding it with the base
    /// — before their commit ever mutates the heap, and chains collapse
    /// only while no snapshot is active). When a chain exists,
    /// resolution is entirely chain-internal and `heap_base` is ignored.
    pub fn read(
        &self,
        table: u32,
        rid: Rid,
        read_ts: u64,
        token: u64,
        heap_base: Option<Bytes>,
    ) -> Observation {
        loop {
            {
                let shard = self.shard(table, rid).lock();
                let Some(chain) = shard.get(&(table, rid)) else {
                    return Observation {
                        data: heap_base,
                        seen: BASE_TS,
                    };
                };
                match &chain.provisional {
                    Some(p) if p.owner == token => {
                        // Own uncommitted write (engine overlays usually
                        // catch this first): see own data, validate
                        // against the unchanged committed identity.
                        return Observation {
                            data: p.data.clone(),
                            seen: chain.newest_identity(),
                        };
                    }
                    Some(p) => {
                        let st = self.preparing[p.owner as usize - 1].load(Ordering::SeqCst);
                        let unresolved = st == PREPARE_PENDING || (st != 0 && st <= read_ts);
                        if !unresolved {
                            // Writer still active, or committing after
                            // this snapshot: its provisional is
                            // invisible either way.
                            return chain.visible_at(read_ts);
                        }
                        // Writer is committing at or below our
                        // snapshot: wait for the flip (or the abort) so
                        // the cut stays consistent.
                    }
                    None => return chain.visible_at(read_ts),
                }
            }
            self.stats.read_waits.fetch_add(1, STAT);
            std::thread::yield_now();
        }
    }

    /// Install a provisional update/delete (`data = None` deletes).
    /// Returns the snapshot-visible pre-image on success. First-writer-
    /// wins: a foreign provisional — or a committed version newer than
    /// `read_ts` — aborts this writer instead of queueing it.
    pub fn write(
        &self,
        table: u32,
        rid: Rid,
        read_ts: u64,
        token: u64,
        data: Option<Bytes>,
        heap_base: Option<Bytes>,
    ) -> Result<Option<Bytes>, WriteError> {
        let mut shard = self.shard(table, rid).lock();
        match shard.entry((table, rid)) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                let Some(before) = heap_base else {
                    return Err(WriteError::NotFound);
                };
                let mut chain = VersionChain::with_base(Some(before.clone()));
                chain.provisional = Some(Provisional { owner: token, data });
                slot.insert(chain);
                Ok(Some(before))
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let chain = slot.get_mut();
                if let Some(p) = &mut chain.provisional {
                    if p.owner != token {
                        self.stats.ww_conflicts.fetch_add(1, STAT);
                        return Err(WriteError::Conflict("first-writer-wins"));
                    }
                    let prior = std::mem::replace(&mut p.data, data);
                    return Ok(prior);
                }
                let newest = chain.newest_identity();
                if newest != NOTHING_SEEN && newest > read_ts {
                    self.stats.ww_conflicts.fetch_add(1, STAT);
                    return Err(WriteError::Conflict("first-committer-wins"));
                }
                let obs = chain.visible_at(read_ts);
                let Some(before) = obs.data else {
                    return Err(WriteError::NotFound);
                };
                chain.provisional = Some(Provisional { owner: token, data });
                Ok(Some(before))
            }
        }
    }

    /// Install the provisional version of a brand-new record (its heap
    /// row was just allocated; no index entry points at it yet, so no
    /// committed base exists).
    pub fn insert_provisional(&self, table: u32, rid: Rid, token: u64, data: Bytes) {
        let mut shard = self.shard(table, rid).lock();
        let prev = shard.insert(
            (table, rid),
            VersionChain {
                provisional: Some(Provisional {
                    owner: token,
                    data: Some(data),
                }),
                committed: Vec::new(),
            },
        );
        debug_assert!(prev.is_none(), "fresh rid already had a chain");
    }

    /// Backward validation: every read-set observation must still be
    /// the newest committed version (and no foreign writer may hold a
    /// provisional on a record we read). Runs while the slot is
    /// preparing, so no chain we check can be collapsed underneath us.
    pub fn validate(&self, reads: &[ReadEntry], token: u64) -> Result<(), &'static str> {
        for r in reads {
            let shard = self.shard(r.table, r.rid).lock();
            match shard.get(&(r.table, r.rid)) {
                None => {
                    // No chain now means no chain existed at read time
                    // (chains only collapse while nothing is active).
                    if r.seen != BASE_TS {
                        return Err("read version vanished");
                    }
                }
                Some(chain) => {
                    if matches!(&chain.provisional, Some(p) if p.owner != token) {
                        return Err("foreign provisional on read set");
                    }
                    if chain.newest_identity() != r.seen {
                        return Err("newer committed version");
                    }
                }
            }
        }
        Ok(())
    }

    /// Flip this transaction's provisional versions to `commit_ts`.
    pub fn install(&self, rids: impl Iterator<Item = (u32, Rid)>, token: u64, commit_ts: u64) {
        let mut flipped = 0u64;
        for (table, rid) in rids {
            let mut shard = self.shard(table, rid).lock();
            if let Some(chain) = shard.get_mut(&(table, rid)) {
                if chain.install(token, commit_ts) {
                    flipped += 1;
                }
            }
        }
        self.stats.versions_installed.fetch_add(flipped, STAT);
        self.stats.commits.fetch_add(1, STAT);
    }

    /// Drop this transaction's provisional versions (rollback or
    /// validation abort), removing chains that become empty.
    pub fn discard(&self, rids: impl Iterator<Item = (u32, Rid)>, token: u64) {
        for (table, rid) in rids {
            let mut shard = self.shard(table, rid).lock();
            if let Some(chain) = shard.get_mut(&(table, rid)) {
                if chain.discard(token) {
                    shard.remove(&(table, rid));
                }
            }
        }
    }

    /// Record a read-only commit.
    pub fn note_ro_commit(&self) {
        self.stats.ro_commits.fetch_add(1, STAT);
    }

    /// Record a validation abort.
    pub fn note_validation_abort(&self) {
        self.stats.validation_aborts.fetch_add(1, STAT);
    }

    /// The oldest active snapshot, or `None` when nothing is active.
    pub fn watermark(&self) -> Option<u64> {
        self.active
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .filter(|&ts| ts != 0)
            .min()
    }

    /// Online GC: prune committed versions shadowed by a newer version
    /// every active snapshot can already see (`begin <= watermark`; the
    /// current counter when nothing is active). Never removes whole
    /// chains, so it is safe concurrent with running transactions —
    /// a chain's `newest_identity` (what validation recomputes) is
    /// untouched.
    pub fn prune_pass(&self) {
        self.stats.gc_runs.fetch_add(1, STAT);
        let watermark = self
            .watermark()
            .unwrap_or_else(|| self.ts.load(Ordering::SeqCst));
        let mut pruned = 0u64;
        for shard in self.shards.iter() {
            let mut map = shard.lock();
            for chain in map.values_mut() {
                pruned += chain.prune(watermark) as u64;
            }
        }
        self.stats.versions_pruned.fetch_add(pruned, STAT);
    }

    /// Offline GC: with active snapshots, prune (as
    /// [`MvccStore::prune_pass`]); with none, collapse chains entirely —
    /// the heap already holds the newest committed value (commit
    /// applies heap effects before flipping its provisionals, so no
    /// older commit's heap write can land after a newer one) — invoking
    /// `on_collapse` for tombstone chains so the caller can reclaim
    /// the heap row.
    ///
    /// The collapse branch REQUIRES the caller to guarantee no
    /// transaction runs concurrently (the engine exposes it as
    /// `Database::quiesce`): an empty registry *now* does not preclude
    /// a registration a moment later, and collapsing a chain under a
    /// live validator could erase the identity (`seen != BASE_TS`) its
    /// backward validation needs to detect an anti-dependency. Online
    /// ticks therefore only ever prune.
    pub fn gc(&self, mut on_collapse: impl FnMut(u32, Rid)) {
        if self.watermark().is_some() {
            self.prune_pass();
            return;
        }
        self.stats.gc_runs.fetch_add(1, STAT);
        let mut collapsed = 0u64;
        for shard in self.shards.iter() {
            let mut map = shard.lock();
            map.retain(|&(table, rid), chain| {
                if !chain.collapsible() {
                    return true;
                }
                if chain.ends_in_tombstone() {
                    on_collapse(table, rid);
                }
                collapsed += 1;
                false
            });
        }
        self.stats.chains_collapsed.fetch_add(collapsed, STAT);
    }

    /// GC tick from a writer commit: runs an online prune pass every
    /// `MvccConfig::gc_every` commits.
    pub fn maybe_gc(&self) {
        let n = self.writer_commits.fetch_add(1, Ordering::SeqCst) + 1;
        if n.is_multiple_of(self.config.gc_every.max(1)) {
            self.prune_pass();
        }
    }

    /// Number of live version chains (tests/diagnostics).
    pub fn chain_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MvccStats {
        MvccStats {
            begins: self.stats.begins.load(STAT),
            ro_commits: self.stats.ro_commits.load(STAT),
            commits: self.stats.commits.load(STAT),
            validation_aborts: self.stats.validation_aborts.load(STAT),
            ww_conflicts: self.stats.ww_conflicts.load(STAT),
            read_waits: self.stats.read_waits.load(STAT),
            versions_installed: self.stats.versions_installed.load(STAT),
            versions_pruned: self.stats.versions_pruned.load(STAT),
            chains_collapsed: self.stats.chains_collapsed.load(STAT),
            gc_runs: self.stats.gc_runs.load(STAT),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    const R: Rid = Rid { page: 0, slot: 0 };

    #[test]
    fn snapshot_reads_see_base_then_committed_versions() {
        let store = MvccStore::new(4, MvccConfig::default());
        // No chain: heap value is the base.
        let t0 = store.begin(0);
        let obs = store.read(0, R, t0, 1, Some(b("base")));
        assert_eq!(obs.data.unwrap(), b("base"));
        assert_eq!(obs.seen, BASE_TS);

        // Writer on slot 1 updates and commits.
        let w = store.begin(1);
        store
            .write(0, R, w, 2, Some(b("v2")), Some(b("base")))
            .unwrap();
        let c = store.prepare_commit(1);
        store.validate(&[], 2).unwrap();
        store.install([(0, R)].into_iter(), 2, c);
        store.finish_commit(1);
        store.end(1);

        // The old snapshot still sees the base; a fresh one sees v2.
        let obs_old = store.read(0, R, t0, 1, Some(b("base")));
        assert_eq!(obs_old.data.unwrap(), b("base"));
        let t1 = store.begin(1);
        assert!(t1 >= c);
        let obs_new = store.read(0, R, t1, 2, Some(b("ignored")));
        assert_eq!(obs_new.data.unwrap(), b("v2"));
        assert_eq!(obs_new.seen, c);
    }

    #[test]
    fn first_writer_wins_rejects_the_second_writer() {
        let store = MvccStore::new(4, MvccConfig::default());
        let t1 = store.begin(0);
        let t2 = store.begin(1);
        store
            .write(0, R, t1, 1, Some(b("a")), Some(b("base")))
            .unwrap();
        assert_eq!(
            store.write(0, R, t2, 2, Some(b("b")), Some(b("base"))),
            Err(WriteError::Conflict("first-writer-wins"))
        );
        // After the first writer aborts, the second can write.
        store.discard([(0, R)].into_iter(), 1);
        store.end(0);
        assert!(store
            .write(0, R, t2, 2, Some(b("b")), Some(b("base")))
            .is_ok());
    }

    #[test]
    fn validation_catches_a_newer_committed_version() {
        let store = MvccStore::new(4, MvccConfig::default());
        let t1 = store.begin(0);
        let obs = store.read(0, R, t1, 1, Some(b("base")));
        let reads = [ReadEntry {
            table: 0,
            rid: R,
            seen: obs.seen,
        }];
        // A second transaction commits a new version of the same record.
        let t2 = store.begin(1);
        store
            .write(0, R, t2, 2, Some(b("x")), Some(b("base")))
            .unwrap();
        let c2 = store.prepare_commit(1);
        store.validate(&[], 2).unwrap();
        store.install([(0, R)].into_iter(), 2, c2);
        store.finish_commit(1);
        store.end(1);
        // The first transaction's read no longer validates.
        store.prepare_commit(0);
        assert!(store.validate(&reads, 1).is_err());
        store.finish_commit(0);
        store.end(0);
    }

    #[test]
    fn gc_prunes_shadowed_versions_and_collapses_when_idle() {
        let store = MvccStore::new(4, MvccConfig::default());
        for i in 0..3u64 {
            let ts = store.begin(0);
            store
                .write(0, R, ts, 1, Some(b(&format!("v{i}"))), Some(b("base")))
                .unwrap();
            let c = store.prepare_commit(0);
            store.validate(&[], 1).unwrap();
            store.install([(0, R)].into_iter(), 1, c);
            store.finish_commit(0);
            store.end(0);
        }
        // A live snapshot pins pruning at its watermark.
        let pin = store.begin(1);
        store.gc(|_, _| panic!("must not collapse with an active snapshot"));
        assert_eq!(store.chain_count(), 1);
        let obs = store.read(0, R, pin, 2, Some(b("ignored")));
        assert_eq!(obs.data.unwrap(), b("v2"), "newest survives pruning");
        store.end(1);
        // Idle: the chain collapses to the bare heap record.
        store.gc(|_, _| panic!("no tombstone here"));
        assert_eq!(store.chain_count(), 0);
        assert!(store.stats().chains_collapsed >= 1);
    }

    #[test]
    fn tombstone_collapse_reports_the_rid() {
        let store = MvccStore::new(4, MvccConfig::default());
        let ts = store.begin(0);
        store.write(0, R, ts, 1, None, Some(b("base"))).unwrap();
        let c = store.prepare_commit(0);
        store.validate(&[], 1).unwrap();
        store.install([(0, R)].into_iter(), 1, c);
        store.finish_commit(0);
        store.end(0);
        let mut dropped = Vec::new();
        store.gc(|t, r| dropped.push((t, r)));
        assert_eq!(dropped, vec![(0, R)]);
        assert_eq!(store.chain_count(), 0);
    }

    #[test]
    fn commit_ts_exceeds_every_prior_snapshot_and_the_floor() {
        let store = MvccStore::new(4, MvccConfig::default());
        let t = store.begin(0);
        store.advance_ts_floor(100);
        let c = store.prepare_commit(0);
        assert!(c > t);
        assert!(c > 100);
        store.finish_commit(0);
        store.end(0);
        assert!(store.begin(1) >= 100);
        store.end(1);
    }
}
