//! Dreadlocks-style deadlock detection.
//!
//! Shore-MT detects deadlocks with the *Dreadlocks* algorithm (Koskinen &
//! Herlihy): every waiting thread publishes a *digest* — the set of agents
//! it transitively waits on. A waiter recomputes its digest from its direct
//! blockers' digests on every poll; if its own identity ever appears, a
//! cycle exists and the waiter aborts as the victim. Digests may be stale or
//! conservative, which can only produce false positives. The lock manager
//! confirms a hit against the live queues before aborting (some other agent
//! must be blocked by the would-be victim right now), so a waiter that
//! nobody waits on is never aborted on a stale digest; the remaining rare
//! false positives are acceptable because victims simply retry.
//!
//! # Digest sizing and the folding regime
//!
//! Digest width is sized from `max_agents` at construction: a table built
//! for N agents uses `ceil(N/64)` 64-bit words (rounded up), so each agent
//! slot maps to its own bit and membership tests are exact. Only beyond
//! [`MAX_DIGEST_BITS`] do agent slots fold onto the digest modulo the bit
//! width again. Folding is *conservative*: two distinct agents sharing a
//! bit can make a waiter see "itself" in a digest it is not actually part
//! of, raising the false-positive abort rate (never false negatives — a
//! real cycle always colors its own bits). Oversubscribed harness runs
//! (agents ≫ cores) stay exact as long as `max_agents` ≤ 4096; a
//! `debug_assert` flags configurations that re-enter the folding regime.

use std::sync::atomic::{AtomicU64, Ordering};

/// Digest capacity cap: tables never allocate more than this many bits per
/// digest (64 words, 512 bytes). Beyond it, agent slots fold modulo the
/// width and false-positive aborts rise with the fold factor.
pub const MAX_DIGEST_BITS: usize = 4096;

/// A value-type bitset over agent slots, sized to match the
/// [`DigestTable`] that produced it (see [`DigestTable::make_set`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AgentSet {
    words: Vec<u64>,
}

impl AgentSet {
    /// The empty set over `bits` digest bits (rounded up to whole words).
    pub fn with_bits(bits: usize) -> Self {
        AgentSet {
            words: vec![0; bits.clamp(1, MAX_DIGEST_BITS).div_ceil(64)],
        }
    }

    #[inline]
    fn pos(&self, slot: u32) -> (usize, u64) {
        let bit = (slot as usize) % (self.words.len() * 64);
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Insert an agent.
    #[inline]
    pub fn insert(&mut self, slot: u32) {
        let (w, m) = self.pos(slot);
        self.words[w] |= m;
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, slot: u32) -> bool {
        let (w, m) = self.pos(slot);
        self.words[w] & m != 0
    }

    /// In-place union. Both sets must come from the same table width.
    #[inline]
    pub fn union_with(&mut self, other: &AgentSet) {
        debug_assert_eq!(self.words.len(), other.words.len(), "digest widths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Clear all bits, keeping the width (for digest reuse across polls).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// True when no agents are present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Slot stride in words: at least one full 64-byte cache line (8 words) of
/// padding between consecutive slots' used words, rounded to 128-byte
/// blocks. The allocation itself is only word-aligned, so a gap ≥ 8 words
/// is what actually guarantees no cache line straddles two slots — mere
/// rounding to 16 could leave a zero-word gap (e.g. `words == 16`) and
/// reintroduce the false sharing the old `#[repr(align(128))]` wrapper
/// prevented.
const fn stride_for(words: usize) -> usize {
    (words + 8).next_multiple_of(16)
}

/// Shared table of published digests, one slot per agent.
pub struct DigestTable {
    /// Digest width in words (`bits / 64`).
    words: usize,
    /// Digest width in bits; agent slots fold modulo this.
    bits: usize,
    /// Words between consecutive slots (padded, see [`stride_for`]).
    stride: usize,
    /// Number of agent slots.
    slots: usize,
    data: Box<[AtomicU64]>,
}

impl DigestTable {
    /// Create a table for up to `max_agents` slots. The digest width is
    /// sized from `max_agents`, so membership stays exact (no folding)
    /// while `max_agents <= MAX_DIGEST_BITS`.
    pub fn new(max_agents: usize) -> Self {
        debug_assert!(
            max_agents <= MAX_DIGEST_BITS,
            "max_agents {max_agents} exceeds {MAX_DIGEST_BITS} digest bits: \
             agent slots will fold and false-positive deadlock aborts rise"
        );
        let slots = max_agents.max(1);
        let bits = slots.clamp(1, MAX_DIGEST_BITS).next_multiple_of(64);
        let words = bits / 64;
        let stride = stride_for(words);
        let data = (0..slots * stride).map(|_| AtomicU64::new(0)).collect();
        DigestTable {
            words,
            bits,
            stride,
            slots,
            data,
        }
    }

    /// Digest width in bits. Agents beyond this fold (see module docs).
    pub fn digest_bits(&self) -> usize {
        self.bits
    }

    /// An empty [`AgentSet`] of this table's width.
    pub fn make_set(&self) -> AgentSet {
        AgentSet::with_bits(self.bits)
    }

    #[inline]
    fn slot(&self, agent: u32) -> &[AtomicU64] {
        let i = (agent as usize) % self.slots;
        &self.data[i * self.stride..i * self.stride + self.words]
    }

    /// Publish `digest` as agent `agent`'s transitive wait set.
    pub fn publish(&self, agent: u32, digest: &AgentSet) {
        debug_assert_eq!(digest.words.len(), self.words, "digest width");
        // ordering: release so a reader that sees the digest also sees the
        // wait-for edges recorded before publication; per-word tearing is
        // fine — Dreadlocks tolerates transient over/under-approximation.
        for (w, v) in self.slot(agent).iter().zip(&digest.words) {
            w.store(*v, Ordering::Release);
        }
    }

    /// Clear agent `agent`'s digest (it stopped waiting).
    pub fn clear(&self, agent: u32) {
        // ordering: release for symmetry with `publish`; clearing only ever
        // removes edges, which is always safe for cycle detection.
        for w in self.slot(agent) {
            w.store(0, Ordering::Release);
        }
    }

    /// Read agent `agent`'s current digest.
    pub fn read(&self, agent: u32) -> AgentSet {
        let mut out = self.make_set();
        // ordering: acquire pairs with `publish`'s release stores.
        for (o, w) in out.words.iter_mut().zip(self.slot(agent)) {
            *o = w.load(Ordering::Acquire);
        }
        out
    }

    /// Union agent `agent`'s published digest into `into` without
    /// allocating a fresh set.
    fn union_into(&self, agent: u32, into: &mut AgentSet) {
        // ordering: acquire pairs with `publish`'s release stores.
        for (o, w) in into.words.iter_mut().zip(self.slot(agent)) {
            *o |= w.load(Ordering::Acquire);
        }
    }

    /// One Dreadlocks step for agent `me`, blocked by `blockers`: compute
    /// the new digest (blockers plus their digests) and either detect a
    /// cycle (`true`: `me` appears in its own transitive wait set) or
    /// publish the digest and return `false`. `scratch` is a reusable set
    /// from [`DigestTable::make_set`]; it is overwritten.
    pub fn check_and_publish_with(
        &self,
        me: u32,
        blockers: &[u32],
        scratch: &mut AgentSet,
    ) -> bool {
        debug_assert_eq!(scratch.words.len(), self.words, "digest width");
        scratch.clear();
        for &b in blockers {
            if b == me {
                continue;
            }
            scratch.insert(b);
            self.union_into(b, scratch);
        }
        if scratch.contains(me) {
            self.clear(me);
            return true;
        }
        self.publish(me, scratch);
        false
    }

    /// Allocating convenience wrapper around
    /// [`DigestTable::check_and_publish_with`].
    pub fn check_and_publish(&self, me: u32, blockers: &[u32]) -> bool {
        let mut scratch = self.make_set();
        self.check_and_publish_with(me, blockers, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basics() {
        let mut s = AgentSet::with_bits(256);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(200);
        assert!(s.contains(3));
        assert!(s.contains(200));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn slots_beyond_width_fold() {
        let mut s = AgentSet::with_bits(256);
        s.insert(5);
        assert!(s.contains(5 + 256), "modulo folding");
    }

    #[test]
    fn digest_width_follows_max_agents() {
        assert_eq!(DigestTable::new(1).digest_bits(), 64);
        assert_eq!(DigestTable::new(64).digest_bits(), 64);
        assert_eq!(DigestTable::new(65).digest_bits(), 128);
        assert_eq!(DigestTable::new(256).digest_bits(), 256);
        // Oversubscription headroom: 1024 agents get exact membership.
        let t = DigestTable::new(1024);
        assert_eq!(t.digest_bits(), 1024);
        let mut s = t.make_set();
        s.insert(1000);
        assert!(s.contains(1000));
        assert!(!s.contains(1000 - 64), "no folding below the cap");
    }

    #[test]
    fn two_agent_cycle_is_detected() {
        // Agent 0 waits on 1; agent 1 waits on 0. Whoever polls second sees
        // itself in its own digest.
        let t = DigestTable::new(8);
        assert!(!t.check_and_publish(0, &[1])); // D[0] = {1}
        assert!(t.check_and_publish(1, &[0])); // D[1] = {0} ∪ D[0] = {0,1} ∋ 1
    }

    #[test]
    fn three_agent_cycle_is_detected_transitively() {
        // 0 -> 1 -> 2 -> 0. Digest propagation takes a bounded number of
        // poll rounds (diameter of the cycle); some agent must detect within
        // a few sweeps.
        let t = DigestTable::new(8);
        let edges = [(0u32, 1u32), (1, 2), (2, 0)];
        for round in 0..5 {
            for (me, blocker) in edges {
                if t.check_and_publish(me, &[blocker]) {
                    let _ = round;
                    return; // detected
                }
            }
        }
        panic!("cycle never detected");
    }

    #[test]
    fn wide_table_cycle_detection_past_256_agents() {
        // The old fixed 256-bit digest folded agents 300/556 onto the same
        // bits as 44/300; a construction-sized table keeps them distinct
        // and still finds the real cycle.
        let t = DigestTable::new(1024);
        assert!(!t.check_and_publish(300, &[900]));
        assert!(!t.check_and_publish(900, &[44]));
        // No false positive for an unrelated agent sharing no bits.
        assert!(!t.check_and_publish(556, &[1023]));
        // Close the real cycle 44 -> 300 -> 900 -> 44.
        let mut detected = false;
        for _ in 0..5 {
            detected = t.check_and_publish(44, &[300])
                || t.check_and_publish(300, &[900])
                || t.check_and_publish(900, &[44]);
            if detected {
                break;
            }
        }
        assert!(detected, "real cycle across wide slots must be found");
    }

    #[test]
    fn chains_without_cycles_pass() {
        let t = DigestTable::new(8);
        assert!(!t.check_and_publish(2, &[3]));
        assert!(!t.check_and_publish(1, &[2]));
        assert!(!t.check_and_publish(0, &[1]));
        // Re-polling stays clean.
        assert!(!t.check_and_publish(0, &[1]));
        assert!(!t.check_and_publish(1, &[2]));
    }

    #[test]
    fn clear_erases_stale_waits() {
        let t = DigestTable::new(8);
        assert!(!t.check_and_publish(0, &[1]));
        t.clear(0);
        assert!(t.read(0).is_empty());
        // Agent 1 waiting on 0 no longer inherits 0's stale digest.
        assert!(!t.check_and_publish(1, &[0]));
    }

    #[test]
    fn self_edges_are_ignored() {
        let t = DigestTable::new(8);
        // A blocker list containing myself (e.g. my own other request) must
        // not self-trigger.
        assert!(!t.check_and_publish(0, &[0]));
    }

    #[test]
    fn scratch_reuse_matches_allocating_path() {
        let t = DigestTable::new(32);
        let mut scratch = t.make_set();
        assert!(!t.check_and_publish_with(4, &[5, 6], &mut scratch));
        assert_eq!(t.read(4), {
            let mut s = t.make_set();
            s.insert(5);
            s.insert(6);
            s
        });
    }
}
