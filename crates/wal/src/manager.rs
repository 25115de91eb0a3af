//! The log manager: lock-free ring appends, pipelined group commit, a
//! parked committer queue, simulated flush latency, an optional retained
//! log device, and seeded fsync-failure injection.
//!
//! # Scalable front-end
//!
//! Appends reserve ring space with one atomic fetch-add and encode
//! outside any latch ([`crate::ring::LogRing`]). Commits enqueue on the
//! parked committer queue ([`crate::committers::CommitQueue`]) and sleep
//! until a flush covers their LSN. Physical flushes are serialized by one
//! mutex around the drain cursor + scratch batch, but **committers never
//! block on it**: they `try_lock` — whoever wins flushes inline (the
//! zero-latency fast path), everyone else parks. A dedicated flusher
//! thread picks up whatever an inline flush left behind and paces batches
//! with an adaptive window, so device latency overlaps with new appends.
//!
//! # Durability modes
//!
//! - **Ephemeral** (default, `retain = false`): flushed batches are
//!   dropped; the durable-LSN watermark is the whole durability contract.
//! - **Retained** (`retain = true`): flushed batches append to an
//!   in-process device buffer for `Database::recover` and crash torture.
//!
//! Fault injection ([`FaultPlan`]) models an `fsync` that fails part-way:
//! the failing flush writes only a prefix of its batch to the device, the
//! durable watermark does **not** advance, every parked committer wakes
//! with `Err`, and the log is poisoned. After a poison, drains *discard*
//! completed bytes (advancing the ring's space floor but never the
//! watermark) so appenders on the fixed ring cannot wedge against a dead
//! device.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::parking::{self, TOKEN_NORMAL};
use parking_lot::{Mutex, MutexGuard};
use sli_profiler::{Category, Component};

use crate::committers::{CommitQueue, WaitSlot};
use crate::record::{LogRecord, Lsn};
use crate::ring::{DrainCursor, LogRing, MAX_RING, MIN_RING};

/// Seeded fsync-failure plan: which flush fails and how much of its batch
/// still reaches the device before the failure. Default is no faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// 1-based index of the physical flush that fails, if any.
    pub fail_flush: Option<u64>,
    /// Bytes of the failing batch that never reach the device (a partial
    /// flush: the device keeps a torn prefix of the batch).
    pub drop_last: usize,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fail the `n`th flush (1-based), with the last `drop_last` bytes of
    /// that batch never reaching the device.
    pub fn fail_nth(n: u64, drop_last: usize) -> Self {
        FaultPlan {
            fail_flush: Some(n),
            drop_last,
        }
    }

    /// Derive a plan from a seed: fails one of the first few flushes and
    /// tears off a small suffix. Deterministic per seed.
    pub fn seeded(seed: u64) -> Self {
        // SplitMix64 step — cheap, stateless, good enough to spread crash
        // points across flush indices and tear lengths.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultPlan {
            fail_flush: Some(2 + (z % 7)),
            drop_last: ((z >> 16) % 48) as usize,
        }
    }

    /// Whether this plan injects anything.
    pub fn is_armed(&self) -> bool {
        self.fail_flush.is_some()
    }
}

/// Errors surfaced by a log force.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The injected fault fired on this flush: the batch (minus a torn
    /// suffix) may be on the device, but nothing was acknowledged.
    FlushFailed {
        /// Which physical flush failed (1-based).
        flush: u64,
        /// Bytes of the batch that never reached the device.
        dropped: usize,
    },
    /// A previous flush failed; the device is gone. All later forces
    /// fail until the log is recovered.
    Poisoned,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::FlushFailed { flush, dropped } => {
                write!(f, "log flush #{flush} failed ({dropped} bytes torn off)")
            }
            WalError::Poisoned => write!(f, "log device poisoned by an earlier flush failure"),
        }
    }
}

impl std::error::Error for WalError {}

/// Log manager configuration.
#[derive(Clone, Debug)]
pub struct LogConfig {
    /// Simulated device latency per flush. Zero models the paper's
    /// in-memory log device.
    pub flush_latency: Duration,
    /// Keep flushed bytes in an in-process device buffer so the log can
    /// be snapshotted and recovered from. Default off: the performance
    /// experiments only need the durable-LSN watermark.
    pub retain: bool,
    /// Injected fsync-failure plan (default: no faults).
    pub fault: FaultPlan,
    /// Log-ring capacity in bytes (rounded to a power of two and clamped
    /// to `[256, 256 MiB]`).
    pub ring_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            flush_latency: Duration::ZERO,
            retain: false,
            fault: FaultPlan::none(),
            ring_bytes: 1 << 20,
        }
    }
}

impl LogConfig {
    fn clamped_ring(&self) -> u64 {
        self.ring_bytes
            .next_power_of_two()
            .clamp(MIN_RING, MAX_RING)
    }
}

/// Monotonic log counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records appended.
    pub appends: u64,
    /// Commit forces requested.
    pub commits: u64,
    /// Physical flushes performed (group commit batches), including the
    /// one that failed, if any. Mean group size = `commits / flushes`.
    pub flushes: u64,
    /// Total bytes written.
    pub bytes: u64,
    /// Flushes that failed via the injected fault plan.
    pub flush_failures: u64,
    /// Parked committers acknowledged by a successful flush's wake pass
    /// (per-flush group membership of threads that actually waited).
    pub group_commits: u64,
    /// Largest single flushed batch, in bytes.
    pub max_batch_bytes: u64,
    /// Commit waits that actually parked (vs. riding a flush awake).
    pub commit_parks: u64,
    /// Appends that found the ring full and had to wait for a drain.
    pub reserve_waits: u64,
    /// Flushes run inline by a committer (the `try_lock` win) rather
    /// than by the dedicated flusher thread; a subset of `flushes`.
    pub steals: u64,
}

/// Flush-serialized state: the ring's one drain cursor and the reusable
/// batch scratch. Owning this mutex *is* the flusher role; committers
/// only ever `try_lock` it, so there is no convoy.
struct FlushState {
    cursor: DrainCursor,
    scratch: Vec<u8>,
}

struct LogInner {
    config: LogConfig,
    ring: LogRing,
    queue: CommitQueue,
    flush: Mutex<FlushState>,
    /// Flushed bytes, kept only when `config.retain`. Offset 0 of this
    /// vector is LSN 0, so `device.len()` tracks the durable watermark
    /// (plus any torn prefix a failed partial flush left).
    device: Mutex<Vec<u8>>,
    /// Dedicated-flusher doorbell and shutdown flag.
    work: AtomicBool,
    shutdown: AtomicBool,
    appends: AtomicU64,
    commits: AtomicU64,
    flushes: AtomicU64,
    bytes: AtomicU64,
    flush_failures: AtomicU64,
    group_commits: AtomicU64,
    max_batch_bytes: AtomicU64,
    reserve_waits: AtomicU64,
    steals: AtomicU64,
}

impl LogInner {
    /// Park address of the dedicated flusher's doorbell.
    fn flusher_addr(&self) -> usize {
        &self.work as *const AtomicBool as usize
    }

    /// Park address appenders wait on when the ring is full.
    fn space_addr(&self) -> usize {
        &self.shutdown as *const AtomicBool as usize
    }

    fn signal_flusher(&self) {
        // ordering: release pairs with the flusher's acquire swap — the
        // waiter/ring state that justified the doorbell is visible to it.
        self.work.store(true, Ordering::Release);
        parking::unpark_one(self.flusher_addr(), |_| TOKEN_NORMAL);
    }

    /// Write `bytes` into the log, waiting for ring space if needed.
    fn append_bytes(&self, bytes: &[u8]) -> Lsn {
        let res = self.ring.reserve(bytes.len());
        if !self.ring.writable(&res) {
            self.wait_for_space(&res);
        }
        self.ring.write(&res, bytes);
        self.ring.publish(&res);
        res.end
    }

    /// The ring is full: help or wait until a drain frees our range.
    /// Liveness: the earliest reservation is always writable after a full
    /// drain (its range fits the ring by construction), so space frees in
    /// reservation order as holes publish.
    fn wait_for_space(&self, res: &crate::ring::Reservation) {
        // ordering: monotonic statistics counter.
        self.reserve_waits.fetch_add(1, Ordering::Relaxed);
        loop {
            if self.ring.writable(res) {
                return;
            }
            self.signal_flusher();
            // Short safety deadline: the drain that frees us may have
            // completed between the check and the park.
            parking::park(
                self.space_addr(),
                || !self.ring.writable(res),
                || {},
                Some(Instant::now() + Duration::from_micros(500)),
            );
        }
    }

    /// Wait until `lsn` is durable (or the device dies). The committer
    /// half of group commit: try to flush inline, otherwise park.
    fn commit_wait(&self, lsn: Lsn) -> Result<(), WalError> {
        if let Some(out) = self.queue.outcome(lsn) {
            return out;
        }
        let slot = WaitSlot::new();
        self.queue.enqueue(lsn, &slot);
        // Safety net for a missed wake: long enough to never fire on a
        // healthy flush, short enough to unwedge a lost doorbell.
        let park_timeout = (self.config.flush_latency * 4).max(Duration::from_millis(10));
        loop {
            if let Some(out) = self.queue.outcome(lsn) {
                return out;
            }
            if let Some(st) = self.flush.try_lock() {
                // We are the flusher for this batch. The queue delivers
                // our own verdict via `outcome` on the next lap.
                let (_, _, batch) = self.run_flush(st);
                if batch > 0 {
                    // A win that finds the ring already drained wrote
                    // nothing and is no steal, so `steals <= flushes`.
                    // ordering: monotonic statistics counter.
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            // Someone else owns the device; ride their batch.
            self.queue
                .park(lsn, &slot, Some(Instant::now() + park_timeout));
        }
    }

    /// One flush cycle: drain + write + watermark under the flush lock,
    /// then (lock released) wake the committers the batch covered. When
    /// uncovered waiters remain, ring the dedicated flusher's doorbell.
    /// Returns the flush result, how many parked committers the wake pass
    /// covered, and the bytes of the batch the flush counted in `flushes`
    /// (0 for none).
    fn run_flush(&self, mut st: MutexGuard<'_, FlushState>) -> (Result<Lsn, WalError>, u64, u64) {
        let result = self.flush_locked(&mut st);
        let batch = st.scratch.len() as u64;
        drop(st);
        let (woken, remaining) = self.queue.wake();
        if result.is_ok() && batch > 0 {
            // ordering: monotonic statistics counter.
            self.group_commits.fetch_add(woken, Ordering::Relaxed);
        }
        if remaining {
            self.signal_flusher();
        }
        (result, woken, batch)
    }

    /// One physical flush. Caller holds the flush lock via `st`.
    fn flush_locked(&self, st: &mut FlushState) -> Result<Lsn, WalError> {
        st.scratch.clear();
        let upto = self.ring.drain(&mut st.cursor, &mut st.scratch);
        if !st.scratch.is_empty() {
            // The drain freed ring space: release any appender stuck in
            // `wait_for_space`.
            parking::unpark_all(self.space_addr());
        }
        if self.queue.is_poisoned() {
            // Discard-drain: the device is dead, so completed bytes are
            // dropped without advancing the watermark — the fixed ring
            // must keep freeing space or appenders would wedge forever.
            st.scratch.clear();
            return Err(WalError::Poisoned);
        }
        if st.scratch.is_empty() {
            return Ok(self.queue.durable());
        }
        // ordering: monotonic statistics counters.
        let flush_no = self.flushes.fetch_add(1, Ordering::Relaxed) + 1;
        self.bytes
            .fetch_add(st.scratch.len() as u64, Ordering::Relaxed); // ordering: see above.
                                                                    // ordering: relaxed max-update — advisory statistics.
        let _ = self
            .max_batch_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |m| {
                (m < st.scratch.len() as u64).then_some(st.scratch.len() as u64)
            });
        if !self.config.flush_latency.is_zero() {
            let _io = sli_profiler::enter(Category::IoWait);
            // Simulated log-device flush time for the paper's group-commit
            // model, not a wait on another thread. sli-lint: allow(sleep)
            std::thread::sleep(self.config.flush_latency);
        }
        if self.config.fault.fail_flush == Some(flush_no) {
            // Injected fsync failure: a prefix of the batch reaches the
            // device (a torn partial flush), the watermark stays put, and
            // the device is dead from here on. The drained suffix is lost
            // — just like bytes stranded in a failed controller.
            let keep = st.scratch.len().saturating_sub(self.config.fault.drop_last);
            if self.config.retain {
                self.device.lock().extend_from_slice(&st.scratch[..keep]);
            }
            // ordering: monotonic statistics counter.
            self.flush_failures.fetch_add(1, Ordering::Relaxed);
            let dropped = st.scratch.len() - keep;
            self.queue.poison(flush_no, dropped, upto);
            return Err(WalError::FlushFailed {
                flush: flush_no,
                dropped,
            });
        }
        if self.config.retain {
            self.device.lock().extend_from_slice(&st.scratch);
        }
        // In ephemeral mode the batch is simply dropped: the simulated
        // device has no persistent medium and the LSN watermark is the
        // durability contract.
        self.queue.advance(upto);
        Ok(upto)
    }
}

/// Upper bound of the flusher's adaptive batch window: how long the
/// dedicated flusher may wait for more committers to join a group before
/// issuing the fsync.
const MAX_BATCH_WINDOW: Duration = Duration::from_micros(200);

/// The dedicated flusher: sleeps on its doorbell, paces batches with an
/// adaptive window (double it when flushes go out with at most one
/// waiter, halve it when groups form on their own), and keeps flushing
/// while uncovered committers remain (`run_flush` re-rings the doorbell
/// for them).
fn flusher_main(inner: Arc<LogInner>) {
    let mut window = Duration::ZERO;
    'idle: loop {
        parking::park(
            inner.flusher_addr(),
            // ordering: acquire pairs with the release stores in
            // `signal_flusher` and `LogManager::drop`.
            || !inner.work.load(Ordering::Acquire) && !inner.shutdown.load(Ordering::Acquire),
            || {},
            Some(Instant::now() + Duration::from_millis(50)),
        );
        loop {
            // ordering: acquire — pairs with the release in `Drop`.
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            // ordering: AcqRel swap consumes the doorbell and observes
            // the waiter state stored before it was rung.
            if !inner.work.swap(false, Ordering::AcqRel) {
                continue 'idle;
            }
            let _work = sli_profiler::enter(Category::Work(Component::LogManager));
            if !window.is_zero() && !inner.queue.is_poisoned() {
                // Adaptive batch window: give committers racing toward
                // the queue a moment to join this group. Simulated
                // device pacing, not a wait on a specific thread.
                // sli-lint: allow(sleep)
                std::thread::sleep(window);
            }
            let Some(st) = inner.flush.try_lock() else {
                // An inline committer owns the device; it re-rings the
                // doorbell if its batch leaves waiters uncovered.
                continue 'idle;
            };
            let (result, woken, _) = inner.run_flush(st);
            if result.is_err() {
                continue 'idle;
            }
            // Tune the window toward "groups form, latency doesn't":
            // a lonely flush earns more batching, an oversized group
            // means the window is adding pure latency.
            if woken <= 1 {
                window = (window * 2)
                    .max(Duration::from_micros(25))
                    .min(MAX_BATCH_WINDOW);
            } else if woken >= 4 {
                window /= 2;
            }
            std::thread::yield_now();
        }
    }
}

/// The write-ahead log manager.
pub struct LogManager {
    inner: Arc<LogInner>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl LogManager {
    /// Create a log manager with an empty log.
    pub fn new(config: LogConfig) -> Self {
        Self::with_device(config, Vec::new())
    }

    /// Create a log manager whose device already holds `durable` bytes of
    /// log (a recovered prefix). The first new append lands at LSN
    /// `durable.len()`; the watermark starts there too.
    pub fn with_device(config: LogConfig, durable: Vec<u8>) -> Self {
        let base = durable.len() as Lsn;
        let ring = LogRing::new(config.clamped_ring(), base);
        let inner = Arc::new(LogInner {
            ring,
            queue: CommitQueue::new(base),
            flush: Mutex::new(FlushState {
                cursor: DrainCursor::new(base),
                scratch: Vec::with_capacity(1 << 16),
            }),
            device: Mutex::new(durable),
            work: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            appends: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            flush_failures: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            max_batch_bytes: AtomicU64::new(0),
            reserve_waits: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            config,
        });
        let flusher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("sli-log-flusher".into())
                .spawn(move || flusher_main(inner))
                .expect("spawn log flusher")
        };
        LogManager {
            inner,
            flusher: Some(flusher),
        }
    }

    /// Whether flushed bytes are retained (and thus recoverable).
    pub fn retains(&self) -> bool {
        self.inner.config.retain
    }

    /// Whether a flush failure has poisoned the device.
    pub fn is_poisoned(&self) -> bool {
        self.inner.queue.is_poisoned()
    }

    /// Snapshot of the durable byte stream (requires `retain`; empty
    /// otherwise). Includes any torn prefix a failed partial flush left
    /// behind — exactly what a post-crash scan would read.
    pub fn durable_snapshot(&self) -> Vec<u8> {
        self.inner.device.lock().clone()
    }

    /// Append a record to the log ring; returns the LSN to force for
    /// durability. Lock-free: one fetch-add claims the range, the record
    /// encodes into its slot, a release store publishes it.
    pub fn append(&self, rec: LogRecord) -> Lsn {
        let _work = sli_profiler::enter(Category::Work(Component::LogManager));
        // ordering: monotonic statistics counter; nothing is published
        // through it.
        self.inner.appends.fetch_add(1, Ordering::Relaxed);
        thread_local! {
            static ENCODE: std::cell::RefCell<bytes::BytesMut> =
                std::cell::RefCell::new(bytes::BytesMut::with_capacity(1 << 12));
        }
        ENCODE.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            rec.encode(&mut buf);
            self.inner.append_bytes(&buf)
        })
    }

    /// Force the log up to `lsn` (commit point for `_txn`). Group commit:
    /// enqueue on the committer queue, flush inline if the device is
    /// idle, otherwise park until a batch covers our LSN. Returns `Err`
    /// when the force could not make the record durable — the commit must
    /// NOT be acknowledged in that case.
    pub fn commit(&self, _txn: u64, lsn: Lsn) -> Result<(), WalError> {
        let _work = sli_profiler::enter(Category::Work(Component::LogManager));
        // ordering: monotonic statistics counter (see `append`).
        self.inner.commits.fetch_add(1, Ordering::Relaxed);
        self.inner.commit_wait(lsn)
    }

    /// Flush everything reserved so far regardless of commit LSNs,
    /// waiting out any in-flight appender holes. Returns the durable
    /// watermark after the flush. Used after bulk loads and at the end
    /// of recovery.
    pub fn force(&self) -> Result<Lsn, WalError> {
        let _work = sli_profiler::enter(Category::Work(Component::LogManager));
        let inner = &self.inner;
        let target = inner.ring.reserved_lsn();
        loop {
            let st = inner.flush.lock();
            inner.run_flush(st).0?;
            if inner.queue.durable() >= target {
                return Ok(inner.queue.durable());
            }
            // A reservation ahead of the watermark is still encoding
            // (a hole pinned the drain); give its thread a beat.
            std::thread::yield_now();
        }
    }

    /// Append an abort record (no force needed; aborts are lazy).
    pub fn abort(&self, txn: u64) {
        self.append(LogRecord::abort(txn));
    }

    /// Highest durable LSN. A plain atomic load.
    pub fn durable_lsn(&self) -> Lsn {
        self.inner.queue.durable()
    }

    /// LSN the next append will start at. A plain atomic load — safe for
    /// dashboards; never contends with appenders.
    pub fn next_lsn(&self) -> Lsn {
        self.inner.ring.reserved_lsn()
    }

    /// Bytes reserved but not yet drained to the device. Plain atomic
    /// loads (telemetry).
    pub fn pending_bytes(&self) -> usize {
        self.inner.ring.pending_bytes() as usize
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LogStats {
        // ordering: relaxed loads — the snapshot is advisory reporting and
        // each counter is independent.
        LogStats {
            appends: self.inner.appends.load(Ordering::Relaxed),
            commits: self.inner.commits.load(Ordering::Relaxed),
            flushes: self.inner.flushes.load(Ordering::Relaxed),
            bytes: self.inner.bytes.load(Ordering::Relaxed),
            flush_failures: self.inner.flush_failures.load(Ordering::Relaxed),
            group_commits: self.inner.group_commits.load(Ordering::Relaxed),
            max_batch_bytes: self.inner.max_batch_bytes.load(Ordering::Relaxed),
            commit_parks: self.inner.queue.parks(),
            reserve_waits: self.inner.reserve_waits.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
        }
    }
}

impl Drop for LogManager {
    fn drop(&mut self) {
        if let Some(h) = self.flusher.take() {
            // ordering: release pairs with the flusher's acquire loads.
            self.inner.shutdown.store(true, Ordering::Release);
            parking::unpark_all(self.inner.flusher_addr());
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogManager")
            .field("durable_lsn", &self.durable_lsn())
            .field("retain", &self.inner.config.retain)
            .field("poisoned", &self.is_poisoned())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retained() -> LogConfig {
        LogConfig {
            retain: true,
            ..LogConfig::default()
        }
    }

    #[test]
    fn commit_advances_durable_watermark() {
        let log = LogManager::new(LogConfig::default());
        let lsn = log.append(LogRecord::commit(1));
        assert_eq!(log.durable_lsn(), 0);
        log.commit(1, lsn).unwrap();
        assert_eq!(log.durable_lsn(), lsn);
    }

    #[test]
    fn redundant_commit_is_a_noop() {
        let log = LogManager::new(LogConfig::default());
        let lsn = log.append(LogRecord::commit(1));
        log.commit(1, lsn).unwrap();
        let flushes = log.stats().flushes;
        log.commit(1, lsn).unwrap();
        assert_eq!(log.stats().flushes, flushes);
    }

    #[test]
    fn abort_appends_without_forcing() {
        let log = LogManager::new(LogConfig::default());
        log.abort(3);
        assert_eq!(log.stats().appends, 1);
        assert_eq!(log.stats().flushes, 0);
        assert_eq!(log.durable_lsn(), 0);
    }

    #[test]
    fn flush_latency_is_respected() {
        let log = LogManager::new(LogConfig {
            flush_latency: Duration::from_millis(10),
            ..LogConfig::default()
        });
        let lsn = log.append(LogRecord::commit(1));
        let t0 = std::time::Instant::now();
        log.commit(1, lsn).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn retained_device_holds_exactly_the_flushed_bytes() {
        let log = LogManager::new(retained());
        let lsn = log.append(LogRecord::commit(1));
        assert!(log.durable_snapshot().is_empty(), "nothing flushed yet");
        log.commit(1, lsn).unwrap();
        let snap = log.durable_snapshot();
        assert_eq!(snap.len() as u64, lsn);
        let sum = LogRecord::decode_all(&snap);
        assert_eq!(sum.records, vec![LogRecord::commit(1)]);
    }

    #[test]
    fn ephemeral_mode_retains_nothing() {
        let log = LogManager::new(LogConfig::default());
        let lsn = log.append(LogRecord::commit(1));
        log.commit(1, lsn).unwrap();
        assert!(log.durable_snapshot().is_empty());
    }

    #[test]
    fn failed_flush_never_acknowledges_a_commit() {
        let log = LogManager::new(LogConfig {
            retain: true,
            fault: FaultPlan::fail_nth(1, 0),
            ..LogConfig::default()
        });
        let lsn = log.append(LogRecord::commit(7));
        let err = log.commit(7, lsn).unwrap_err();
        assert_eq!(
            err,
            WalError::FlushFailed {
                flush: 1,
                dropped: 0
            }
        );
        // The watermark did not move: the commit was not acknowledged.
        assert_eq!(log.durable_lsn(), 0);
        assert!(log.is_poisoned());
        assert_eq!(log.stats().flush_failures, 1);
        // Later commits fail too (device is gone).
        let lsn2 = log.append(LogRecord::commit(8));
        assert_eq!(log.commit(8, lsn2), Err(WalError::Poisoned));
        // But an LSN that was already durable stays acknowledged.
        assert_eq!(log.commit(9, 0), Ok(()));
    }

    #[test]
    fn partial_flush_leaves_a_torn_prefix_on_the_device() {
        let drop_last = 3;
        let log = LogManager::new(LogConfig {
            retain: true,
            fault: FaultPlan::fail_nth(1, drop_last),
            ..LogConfig::default()
        });
        let lsn = log.append(LogRecord::update(1, 2, 3, 4, b"before", b"after"));
        let err = log.force().unwrap_err();
        assert_eq!(
            err,
            WalError::FlushFailed {
                flush: 1,
                dropped: drop_last
            }
        );
        let snap = log.durable_snapshot();
        assert_eq!(snap.len() as u64, lsn - drop_last as u64);
        // The torn prefix decodes to zero records and a Torn end.
        let sum = LogRecord::decode_all(&snap);
        assert!(sum.records.is_empty());
        assert_eq!(
            sum.end,
            crate::record::DecodeEnd::Torn { missing: drop_last }
        );
    }

    #[test]
    fn force_flushes_without_a_commit_lsn() {
        let log = LogManager::new(retained());
        log.append(LogRecord::begin(1));
        let lsn = log.append(LogRecord::begin(2));
        assert_eq!(log.force().unwrap(), lsn);
        assert_eq!(log.durable_lsn(), lsn);
        // Idempotent when nothing is pending.
        assert_eq!(log.force().unwrap(), lsn);
        assert_eq!(log.stats().flushes, 1);
    }

    #[test]
    fn with_device_resumes_lsns_after_the_prefix() {
        let mut prefix = bytes::BytesMut::new();
        LogRecord::begin(1).encode(&mut prefix);
        LogRecord::commit(1).encode(&mut prefix);
        let base = prefix.len() as u64;
        let log = LogManager::with_device(retained(), prefix.to_vec());
        assert_eq!(log.durable_lsn(), base);
        let lsn = log.append(LogRecord::commit(2));
        assert!(lsn > base);
        log.commit(2, lsn).unwrap();
        let snap = log.durable_snapshot();
        assert_eq!(snap.len() as u64, lsn);
        let sum = LogRecord::decode_all(&snap);
        assert_eq!(
            sum.records,
            vec![
                LogRecord::begin(1),
                LogRecord::commit(1),
                LogRecord::commit(2)
            ]
        );
    }

    #[test]
    fn seeded_fault_plans_are_deterministic_and_distinct() {
        assert_eq!(FaultPlan::seeded(42), FaultPlan::seeded(42));
        let plans: Vec<FaultPlan> = (0..16).map(FaultPlan::seeded).collect();
        assert!(plans.iter().all(|p| p.is_armed()));
        assert!(
            plans.windows(2).any(|w| w[0] != w[1]),
            "seeds should spread crash points"
        );
        assert!(!FaultPlan::none().is_armed());
    }

    /// Satellite regression for the dead `flush_cv`: with a slow device
    /// and many concurrent committers, waiters must *park* on the
    /// committer queue (not spin or convoy on the flush mutex — which
    /// they never even touch except by `try_lock`), and groups must form.
    #[test]
    fn committers_park_instead_of_convoying_on_the_flush_mutex() {
        let log = Arc::new(LogManager::new(LogConfig {
            flush_latency: Duration::from_millis(2),
            ..LogConfig::default()
        }));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let c = log.append(LogRecord::commit(t * 100 + i));
                    log.commit(t * 100 + i, c).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = log.stats();
        assert!(
            stats.commit_parks > 0,
            "waiters should park on the committer queue: {stats:?}"
        );
        assert!(
            stats.flushes < stats.commits,
            "group commit should batch: {stats:?}"
        );
        assert!(
            stats.group_commits > 0,
            "wake passes should cover parked committers: {stats:?}"
        );
    }

    /// A committer that wins the flush `try_lock` just after another
    /// flush covered it drains nothing; that is not a steal. Counting the
    /// empty wins would push `steals` past `flushes`.
    #[test]
    fn steals_count_only_inline_flushes_that_wrote_a_batch() {
        const THREADS: u64 = 4;
        let log = LogManager::new(LogConfig::default());
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (log, start) = (&log, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..20_000 {
                        let txn = t * 1_000_000 + i;
                        let c = log.append(LogRecord::commit(txn));
                        log.commit(txn, c).unwrap();
                    }
                });
            }
        });
        let stats = log.stats();
        assert!(stats.steals > 0, "committers flush inline: {stats:?}");
        assert!(stats.steals <= stats.flushes, "{stats:?}");
    }

    /// A lone committer wins the flush `try_lock` and flushes inline (a
    /// steal); that path preserves the failure contract bit-for-bit.
    #[test]
    fn steal_mode_preserves_fault_semantics() {
        let log = LogManager::new(LogConfig {
            retain: true,
            fault: FaultPlan::fail_nth(1, 0),
            ..LogConfig::default()
        });
        let lsn = log.append(LogRecord::commit(7));
        assert_eq!(
            log.commit(7, lsn),
            Err(WalError::FlushFailed {
                flush: 1,
                dropped: 0
            })
        );
        assert!(log.is_poisoned());
        assert_eq!(log.durable_lsn(), 0);
        let stats = log.stats();
        assert_eq!(stats.steals, 1, "the committer flushed inline: {stats:?}");
        assert_eq!(stats.flushes, 1, "{stats:?}");
    }

    /// A ring smaller than the workload: appenders must backpressure on
    /// drains (reserve_waits) without deadlocking or losing bytes, even
    /// after the device poisons (discard-drain keeps space flowing).
    #[test]
    fn tiny_ring_backpressures_without_deadlock() {
        let log = LogManager::new(LogConfig {
            retain: true,
            ring_bytes: MIN_RING,
            ..LogConfig::default()
        });
        // Several rings' worth of appends with no commits: the only way
        // these complete is `wait_for_space` waking the flusher to drain.
        for i in 0..50u64 {
            log.append(LogRecord::update(i, 1, 0, 0, b"0123456789", b"abcdefghij"));
        }
        log.force().unwrap();
        let snap = log.durable_snapshot();
        let sum = LogRecord::decode_all(&snap);
        assert_eq!(sum.end, crate::record::DecodeEnd::Clean);
        assert_eq!(sum.records.len(), 50);
        assert!(
            log.stats().reserve_waits > 0,
            "a 256-byte ring must exert backpressure: {:?}",
            log.stats()
        );
    }

    /// Poisoned device + full ring: appends keep completing because the
    /// discard-drain frees space without ever advancing the watermark.
    #[test]
    fn poisoned_ring_discards_but_never_acknowledges() {
        let log = LogManager::new(LogConfig {
            retain: true,
            ring_bytes: MIN_RING,
            fault: FaultPlan::fail_nth(1, 2),
            ..LogConfig::default()
        });
        let lsn = log.append(LogRecord::commit(1));
        assert!(matches!(
            log.commit(1, lsn),
            Err(WalError::FlushFailed { .. })
        ));
        let device_after_failure = log.durable_snapshot().len();
        // Push several rings' worth of bytes through the dead log.
        let mut last = lsn;
        for i in 0..100u64 {
            last = log.append(LogRecord::update(2, 1, 0, 0, b"0123456789", b"abcdefghij"));
            let _ = i;
        }
        assert_eq!(log.force(), Err(WalError::Poisoned));
        assert!(last > lsn);
        assert_eq!(log.durable_lsn(), 0, "watermark frozen at the failure");
        assert_eq!(
            log.durable_snapshot().len(),
            device_after_failure,
            "no bytes reach a poisoned device"
        );
    }

    #[test]
    fn telemetry_reads_are_latch_free_and_track_appends() {
        let log = LogManager::new(LogConfig::default());
        assert_eq!(log.next_lsn(), 0);
        assert_eq!(log.pending_bytes(), 0);
        let lsn = log.append(LogRecord::begin(1));
        assert_eq!(log.next_lsn(), lsn);
        assert_eq!(log.pending_bytes() as u64, lsn);
        log.force().unwrap();
        assert_eq!(log.pending_bytes(), 0);
        assert_eq!(log.next_lsn(), lsn);
    }
}
