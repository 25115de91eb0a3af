//! The per-lock **grant word**: a single `AtomicU64` that lets perfectly
//! compatible fresh acquisitions (IS/IX on ancestors, S on read-hot rows)
//! be granted with one CAS — no head latch, no `LockRequest`, no queue
//! traversal. The design follows Larson et al. ("High-Performance
//! Concurrency Control Mechanisms for Main-Memory Databases"), which packs
//! lock state into an atomic word with per-mode counters so the common
//! compatible case never serializes on a latch.
//!
//! ## Bit layout
//!
//! ```text
//!    63     62     61     60     59    58..48   47..32  31..16  15..0
//! +------+------+------+------+------+--------+-------+-------+------+
//! |ZOMBIE| WAIT | EXCL | Q_S  | Q_IX | unused |  n_S  | n_IX  | n_IS |
//! +------+------+------+------+------+--------+-------+-------+------+
//! ```
//!
//! * `n_IS` / `n_IX` / `n_S` — counters of **fast-path** holders in the
//!   three group-compatible modes. Latched (queued) holders are *not*
//!   counted here; they are summarized by the flag bits instead.
//! * `Q_IX` / `Q_S` — the latched queue currently holds ≥1 granted IX / S
//!   request (blocks fast S / fast IX respectively). Queue IS holders
//!   conflict with no fast mode and need no flag. An SLI `Inherited`
//!   request counts as a granted holder of its mode here, so inheritance,
//!   reclaim and invalidation need no word operation of their own: the
//!   flags already refuse every fast grant an inherited lock conflicts
//!   with, and leave every compatible one on the CAS path.
//! * `EXCL` — the queue holds a SIX or X request (blocks every fast mode).
//! * `WAIT` — waiters or converters are present **or** a latched acquirer
//!   is mid-scan (the barrier, see below). Blocks every fast mode.
//! * `ZOMBIE` — the head was unlinked from its hash bucket; fast-path
//!   probers holding a stale `Arc` must re-probe.
//!
//! ## Protocol
//!
//! **Fast acquire** (no latch): CAS loop. Fail fast to the latched path if
//! any of `EXCL | WAIT | ZOMBIE` is set or a conflicting counter/flag is
//! nonzero (`S` vs `n_IX`/`Q_IX`, `IX` vs `n_S`/`Q_S`); otherwise CAS the
//! counter up. A bounded retry budget
//! (`FastPathConfig::retry_budget`) keeps pathological CAS storms off the
//! word.
//!
//! **Fast release** (no latch): unconditional counter decrement
//! (`fetch_sub`). The *returned* previous word tells the releaser whether
//! `WAIT` was set; if so it takes the latch and runs a grant pass. Because
//! the decrement and the flag live in the same word, a waiter that
//! published `WAIT` before the decrement is always seen, and a waiter that
//! published after it reads the already-decremented counters: **no lost
//! wakeup** either way.
//!
//! **Latched acquire barrier** (`begin_scan`): before a latched acquirer
//! scans the queue to decide grant-or-wait, it `fetch_or`s `WAIT` into the
//! word. From that point no new fast grant can slip in (they all observe
//! `WAIT`), and the fast counters it reads can only *decrease* — any
//! release it misses re-checks the queue itself via the release rule
//! above. This is what makes a queued writer impossible to starve: the
//! instant its barrier lands, the stream of fast readers is diverted to
//! the FIFO queue behind it. After the scan the queue state is
//! re-published truthfully (`WAIT` stays only while real waiters remain).
//!
//! **Compatible latched grant** (`claim_queued`): an immediately-grantable
//! latched acquirer (e.g. the heat-sampling fall-through) cannot use
//! check-then-set — a fast grant could interleave. It claims its queue
//! flag with a single validated CAS (`Q_S` set only while `n_IX == 0`,
//! etc.), mirroring the fast path's own rule, so the two sides can never
//! admit incompatible modes concurrently.
//!
//! **Zombie** (`try_retire`): setting `ZOMBIE` is a CAS that requires all
//! fast counters to be zero, so head removal cannot race a fast grant: the
//! CAS linearizes against the grant's counter increment on the same word.

// Under the `sli_check` feature the grant word runs on the model checker's
// shimmed atomic, turning every fast-path CAS / fetch_op into a schedule
// point so the WAIT-barrier and ZOMBIE protocols can be exhaustively
// checked (see `crates/check`). Production builds keep the plain std type.
#[cfg(feature = "sli_check")]
use sli_check::sync::{AtomicU64, Ordering};
#[cfg(not(feature = "sli_check"))]
use std::sync::atomic::{AtomicU64, Ordering};

use crate::mode::LockMode;

/// Counter shifts: 16-bit fields for the three group-compatible modes.
const IS_SHIFT: u32 = 0;
const IX_SHIFT: u32 = 16;
const S_SHIFT: u32 = 32;
const COUNTER_MASK: u64 = 0xFFFF;

/// Flag: the latched queue holds a granted IX request.
pub const FLAG_Q_IX: u64 = 1 << 59;
/// Flag: the latched queue holds a granted S request.
pub const FLAG_Q_S: u64 = 1 << 60;
/// Flag: the latched queue holds a SIX or X request.
pub const FLAG_EXCL: u64 = 1 << 61;
/// Flag: waiters/converters present, or a latched acquirer is mid-scan.
pub const FLAG_WAIT: u64 = 1 << 62;
/// Flag: the head was unlinked from its hash bucket.
pub const FLAG_ZOMBIE: u64 = 1 << 63;

/// Any condition that forces a fresh acquire onto the latched path
/// regardless of mode: exclusive holders, waiters, or a dead head.
const FALLBACK_MASK: u64 = FLAG_EXCL | FLAG_WAIT | FLAG_ZOMBIE;

/// The three fast (group-compatible) modes, index order matching the
/// counter fields.
pub const FAST_MODES: [LockMode; 3] = [LockMode::IS, LockMode::IX, LockMode::S];

#[inline]
fn shift(idx: usize) -> u32 {
    match idx {
        0 => IS_SHIFT,
        1 => IX_SHIFT,
        _ => S_SHIFT,
    }
}

#[inline]
fn count(word: u64, idx: usize) -> u64 {
    (word >> shift(idx)) & COUNTER_MASK
}

/// What blocks a fast acquire of each group mode, as a word mask:
/// conflicting fast counters plus the mirrored queue flag.
#[inline]
fn conflict_mask(idx: usize) -> u64 {
    match idx {
        // IS is compatible with every group mode.
        0 => 0,
        // IX conflicts with S holders (fast n_S or queued Q_S).
        1 => (COUNTER_MASK << S_SHIFT) | FLAG_Q_S,
        // S conflicts with IX holders (fast n_IX or queued Q_IX).
        _ => (COUNTER_MASK << IX_SHIFT) | FLAG_Q_IX,
    }
}

/// Outcome of a fast-path acquire attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastAcquire {
    /// Granted: the counter was CASed up; release with
    /// [`GrantWord::fast_release`].
    Granted,
    /// A flag or conflicting holder requires the latched path.
    Conflict,
    /// The head is a zombie; the caller must re-probe the hash table.
    Zombie,
    /// The CAS retry budget ran out under contention.
    Contended,
}

/// Decoded snapshot of a [`GrantWord`] (diagnostics and invariant tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GrantWordSnapshot {
    /// Fast-path holders per group mode `[IS, IX, S]`.
    pub fast: [u32; 3],
    /// Queue holds a granted IX request.
    pub queue_ix: bool,
    /// Queue holds a granted S request.
    pub queue_s: bool,
    /// Queue holds a SIX or X request.
    pub excl: bool,
    /// Waiters/converters present (or a latched scan in progress).
    pub wait: bool,
    /// Head unlinked from its bucket.
    pub zombie: bool,
}

impl GrantWordSnapshot {
    /// Total fast-path holders.
    pub fn fast_total(&self) -> u32 {
        self.fast.iter().sum()
    }
}

/// The packed atomic grant state of one lock head. See the module docs for
/// the layout and protocol.
#[derive(Debug, Default)]
pub struct GrantWord(AtomicU64);

impl GrantWord {
    /// Fresh word: no holders, no flags.
    pub fn new() -> Self {
        GrantWord(AtomicU64::new(0))
    }

    #[inline]
    fn load(&self) -> u64 {
        // ordering: acquire pairs with the AcqRel RMWs below so a decoded
        // snapshot observes everything published before the flags it sees.
        self.0.load(Ordering::Acquire)
    }

    /// Decode the current word.
    pub fn snapshot(&self) -> GrantWordSnapshot {
        let w = self.load();
        GrantWordSnapshot {
            fast: [count(w, 0) as u32, count(w, 1) as u32, count(w, 2) as u32],
            queue_ix: w & FLAG_Q_IX != 0,
            queue_s: w & FLAG_Q_S != 0,
            excl: w & FLAG_EXCL != 0,
            wait: w & FLAG_WAIT != 0,
            zombie: w & FLAG_ZOMBIE != 0,
        }
    }

    /// Current fast-path holder counts `[IS, IX, S]`.
    #[inline]
    pub fn fast_counts(&self) -> [u32; 3] {
        let w = self.load();
        [count(w, 0) as u32, count(w, 1) as u32, count(w, 2) as u32]
    }

    /// Total fast-path holders (all three counters).
    #[inline]
    pub fn fast_total(&self) -> u32 {
        let w = self.load();
        (count(w, 0) + count(w, 1) + count(w, 2)) as u32
    }

    /// Whether the head has been retired (fast probers must re-probe).
    #[inline]
    pub fn is_zombie(&self) -> bool {
        self.load() & FLAG_ZOMBIE != 0
    }

    /// Does any current fast-path holder conflict with `mode`? Used by the
    /// latched grant pass, where `FLAG_WAIT` guarantees the counters can
    /// only decrease while it scans.
    #[inline]
    pub fn fast_conflicts_with(&self, mode: LockMode) -> bool {
        let w = self.load();
        (0..3).any(|i| count(w, i) > 0 && !mode.compatible(FAST_MODES[i]))
    }

    // ---- the latch-free fast path ----------------------------------------

    /// Try to grant `mode` (which must be a fast group mode, see
    /// [`LockMode::fast_group_index`]) with a bare CAS. `retry_budget`
    /// bounds CAS retries under contention.
    #[inline]
    pub fn try_fast_acquire(&self, group_idx: usize, retry_budget: u32) -> FastAcquire {
        let inc = 1u64 << shift(group_idx);
        let blockers = FALLBACK_MASK | conflict_mask(group_idx);
        // ordering: relaxed — just a CAS seed; the CAS below synchronizes.
        let mut w = self.0.load(Ordering::Relaxed);
        let mut retries = 0;
        loop {
            if w & FLAG_ZOMBIE != 0 {
                return FastAcquire::Zombie;
            }
            if w & blockers != 0 {
                return FastAcquire::Conflict;
            }
            debug_assert!(count(w, group_idx) < COUNTER_MASK, "fast counter overflow");
            // ordering: AcqRel — success must happen-before a conflicting
            // latched claim, and acquire the writes behind the flags we
            // validated; acquire on failure reloads a coherent word.
            match self
                .0
                .compare_exchange_weak(w, w + inc, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return FastAcquire::Granted,
                Err(cur) => {
                    if retries >= retry_budget {
                        return FastAcquire::Contended;
                    }
                    retries += 1;
                    w = cur;
                }
            }
        }
    }

    /// Release a fast-path hold of the given group mode. Returns `true`
    /// when `FLAG_WAIT` was set at decrement time — the caller must then
    /// take the head latch and run a grant pass (the no-lost-wakeup rule).
    #[inline]
    pub fn fast_release(&self, group_idx: usize) -> bool {
        let dec = 1u64 << shift(group_idx);
        // ordering: AcqRel — release so our critical section happens-before
        // whoever observes the decrement; acquire so reading FLAG_WAIT also
        // reads the scanner's writes (the wakeup-obligation handoff).
        let prev = self.0.fetch_sub(dec, Ordering::AcqRel);
        debug_assert!(count(prev, group_idx) > 0, "fast counter underflow");
        prev & FLAG_WAIT != 0
    }

    // ---- latched-path synchronization ------------------------------------

    /// The barrier a latched acquirer raises before scanning the queue:
    /// sets `FLAG_WAIT`, after which the fast counters can only decrease.
    /// Pair with [`GrantWord::publish`], which drops the flag again unless
    /// real waiters remain. Caller holds the head latch.
    #[inline]
    pub fn begin_scan(&self) {
        // ordering: AcqRel — the barrier must be visible to every later
        // fast_release (no lost wakeup) and must observe prior releases so
        // the scan sees up-to-date fast counters.
        self.0.fetch_or(FLAG_WAIT, Ordering::AcqRel);
    }

    /// Atomically claim the queue-side flag for an immediately-grantable
    /// latched request of `mode`, validating that no conflicting fast
    /// holder exists in the same CAS. Returns `false` when a fast holder
    /// conflicts (the caller must fall back to the wait path). Caller
    /// holds the head latch and has already verified queue-side
    /// compatibility.
    pub fn claim_queued(&self, mode: LockMode) -> bool {
        let (need_zero, set): (u64, u64) = match mode {
            LockMode::IS => (0, 0),
            LockMode::IX => (COUNTER_MASK << S_SHIFT, FLAG_Q_IX),
            LockMode::S => (COUNTER_MASK << IX_SHIFT, FLAG_Q_S),
            // SIX tolerates fast IS holders (IS ∥ SIX); the EXCL flag it
            // raises is conservative and stops *new* fast grants of every
            // mode, but existing IS holders are compatible.
            LockMode::SIX => (
                (COUNTER_MASK << IX_SHIFT) | (COUNTER_MASK << S_SHIFT),
                FLAG_EXCL,
            ),
            LockMode::X => (
                (COUNTER_MASK << IS_SHIFT) | (COUNTER_MASK << IX_SHIFT) | (COUNTER_MASK << S_SHIFT),
                FLAG_EXCL,
            ),
            LockMode::NL => return true,
        };
        // ordering: AcqRel — the claim linearizes against fast-acquire
        // CASes: either we see their counter (and refuse) or they see our
        // flag (and conflict); acquire on failure for the retry load.
        self.0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                if w & need_zero != 0 {
                    None
                } else {
                    Some(w | set)
                }
            })
            .is_ok()
    }

    /// Re-publish the queue-derived flag bits from the authoritative
    /// latched summary (counts of granted modes and waiters), preserving
    /// the fast counters and `ZOMBIE`. Caller holds the head latch.
    pub fn publish(&self, queue_ix: bool, queue_s: bool, excl: bool, waiters: bool) {
        let mut set = 0u64;
        if queue_ix {
            set |= FLAG_Q_IX;
        }
        if queue_s {
            set |= FLAG_Q_S;
        }
        if excl {
            set |= FLAG_EXCL;
        }
        if waiters {
            set |= FLAG_WAIT;
        }
        let clear = FLAG_Q_IX | FLAG_Q_S | FLAG_EXCL | FLAG_WAIT;
        // ordering: AcqRel — publishing the new queue summary must
        // happen-after the grant pass's writes and be visible to the next
        // fast acquirer that reads the cleared flags.
        let _ = self
            .0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                Some((w & !clear) | set)
            });
    }

    // ---- retirement ------------------------------------------------------

    /// Mark the head zombie iff no fast-path holder exists. The CAS
    /// linearizes against fast-acquire increments, so removal can never
    /// race a fast grant. Caller holds the bucket and head latches and has
    /// verified the queue is empty. Returns whether the flag was set.
    pub fn try_retire(&self) -> bool {
        let fast =
            (COUNTER_MASK << IS_SHIFT) | (COUNTER_MASK << IX_SHIFT) | (COUNTER_MASK << S_SHIFT);
        // ordering: AcqRel — the ZOMBIE CAS linearizes against fast-acquire
        // increments (see doc comment); acquire on failure for the retry.
        self.0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                if w & (fast | FLAG_ZOMBIE) != 0 {
                    None
                } else {
                    Some(w | FLAG_ZOMBIE)
                }
            })
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_acquire_grants_compatible_modes() {
        let w = GrantWord::new();
        assert_eq!(w.try_fast_acquire(0, 4), FastAcquire::Granted); // IS
        assert_eq!(w.try_fast_acquire(1, 4), FastAcquire::Granted); // IX
        assert_eq!(w.fast_counts(), [1, 1, 0]);
        // S conflicts with the IX holder.
        assert_eq!(w.try_fast_acquire(2, 4), FastAcquire::Conflict);
        assert!(!w.fast_release(1));
        assert_eq!(w.try_fast_acquire(2, 4), FastAcquire::Granted);
        // And now IX conflicts with S.
        assert_eq!(w.try_fast_acquire(1, 4), FastAcquire::Conflict);
    }

    #[test]
    fn flags_force_fallback() {
        // Only EXCL, WAIT and ZOMBIE refuse every mode; the queue-holder
        // flags refuse only the fast modes they conflict with.
        assert_eq!(FALLBACK_MASK, FLAG_EXCL | FLAG_WAIT | FLAG_ZOMBIE);
        for (flag, refused) in [
            (FLAG_EXCL, FastAcquire::Conflict),
            (FLAG_WAIT, FastAcquire::Conflict),
            (FLAG_ZOMBIE, FastAcquire::Zombie),
        ] {
            let w = GrantWord::new();
            w.0.fetch_or(flag, Ordering::Relaxed);
            for idx in 0..3 {
                assert_eq!(
                    w.try_fast_acquire(idx, 4),
                    refused,
                    "{flag:#x} vs mode {idx}"
                );
            }
        }
        let w = GrantWord::new();
        w.publish(true, true, false, false);
        assert_eq!(w.try_fast_acquire(0, 4), FastAcquire::Granted);
    }

    #[test]
    fn queue_flags_block_conflicting_fast_modes_only() {
        let w = GrantWord::new();
        w.publish(true, false, false, false); // queue IX holder
        assert_eq!(w.try_fast_acquire(0, 4), FastAcquire::Granted); // IS ok
        assert_eq!(w.try_fast_acquire(1, 4), FastAcquire::Granted); // IX ok
        assert_eq!(w.try_fast_acquire(2, 4), FastAcquire::Conflict); // S blocked
    }

    #[test]
    fn release_reports_wait_flag() {
        let w = GrantWord::new();
        assert_eq!(w.try_fast_acquire(2, 4), FastAcquire::Granted);
        w.begin_scan();
        assert!(w.fast_release(2), "release under WAIT must signal");
    }

    #[test]
    fn claim_queued_validates_against_fast_holders() {
        let w = GrantWord::new();
        assert_eq!(w.try_fast_acquire(1, 4), FastAcquire::Granted); // fast IX
        assert!(!w.claim_queued(LockMode::S), "S vs fast IX");
        assert!(!w.claim_queued(LockMode::X), "X vs any fast holder");
        assert!(w.claim_queued(LockMode::IS));
        assert!(w.claim_queued(LockMode::IX));
        assert!(!w.fast_release(1));
        assert!(w.claim_queued(LockMode::S));
        assert!(w.snapshot().queue_s);
    }

    #[test]
    fn retire_requires_no_fast_holders() {
        let w = GrantWord::new();
        assert_eq!(w.try_fast_acquire(0, 4), FastAcquire::Granted);
        assert!(!w.try_retire());
        w.fast_release(0);
        assert!(w.try_retire());
        assert!(w.is_zombie());
        assert_eq!(w.try_fast_acquire(0, 4), FastAcquire::Zombie);
        assert!(!w.try_retire(), "already retired");
    }

    #[test]
    fn concurrent_cas_traffic_balances() {
        let w = std::sync::Arc::new(GrantWord::new());
        let mut handles = Vec::new();
        for t in 0..8usize {
            let w = std::sync::Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                let idx = t % 2; // IS and IX are mutually compatible
                let mut granted = 0u64;
                for _ in 0..20_000 {
                    if w.try_fast_acquire(idx, 64) == FastAcquire::Granted {
                        granted += 1;
                        w.fast_release(idx);
                    }
                }
                granted
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(w.fast_total(), 0);
        assert!(!w.snapshot().wait);
    }
}
