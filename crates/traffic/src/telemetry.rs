//! Windowed telemetry: per-second aggregation of throughput, abort
//! breakdown, and latency quantiles.
//!
//! Design: each worker owns a [`Recorder`] whose record path touches
//! only thread-local plain memory (counter bumps plus one histogram
//! increment — no allocation, no atomics, no locks). Cross-thread
//! merging happens once per window per recorder, when a recorder's
//! first sample of a new window flushes the completed accumulator into
//! the shared [`Telemetry`] under a short mutex. That keeps the hot
//! path clean while making sample conservation trivial to reason about:
//! every sample is in exactly one accumulator, and every accumulator is
//! merged exactly once (rollover, final flush on drop, or drain).
//!
//! A collector drains completed windows with [`Telemetry::drain_upto`];
//! anything merged *behind* the drain watermark (a worker that stalled
//! mid-window and flushed late) is folded into a `late` catch-all
//! aggregate instead of being dropped, so totals are conserved even
//! under pathological scheduling. The rollover test in
//! `tests/telemetry.rs` asserts exactly that invariant under concurrent
//! recorders.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::hist::Hist;

/// Outcome of one driven transaction, mirroring the workload crate's
/// accounting (kept local so the measurement substrate has no engine
/// dependency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed.
    Commit,
    /// Benchmark-expected user failure (counts as completed work).
    UserFail,
    /// System abort (deadlock/timeout victim).
    SysAbort,
}

/// One window's merged counters and latency histogram.
#[derive(Clone, Debug, Default)]
pub struct WindowCore {
    /// Committed transactions.
    pub commits: u64,
    /// Benchmark-expected user failures.
    pub user_fails: u64,
    /// System aborts (deadlock/timeout victims).
    pub sys_aborts: u64,
    /// Latency histogram over every completion in the window (ns).
    pub hist: Option<Hist>,
}

impl WindowCore {
    /// Completed attempts (commits + expected failures + system aborts).
    pub fn completions(&self) -> u64 {
        self.commits + self.user_fails + self.sys_aborts
    }

    /// Count one completion directly (a caller-owned aggregate that needs
    /// no windowing, e.g. a worker's whole measured phase).
    pub fn record(&mut self, outcome: TxnOutcome, latency_ns: u64) {
        match outcome {
            TxnOutcome::Commit => self.commits += 1,
            TxnOutcome::UserFail => self.user_fails += 1,
            TxnOutcome::SysAbort => self.sys_aborts += 1,
        }
        self.hist.get_or_insert_with(Hist::new).record(latency_ns);
    }

    fn merge_acc(&mut self, acc: &Acc) {
        self.commits += acc.commits;
        self.user_fails += acc.user_fails;
        self.sys_aborts += acc.sys_aborts;
        match &mut self.hist {
            Some(h) => h.merge(&acc.hist),
            None => self.hist = Some(acc.hist.clone()),
        }
    }
}

/// A recorder's thread-local accumulator for one window.
struct Acc {
    commits: u64,
    user_fails: u64,
    sys_aborts: u64,
    hist: Hist,
}

impl Acc {
    fn new() -> Self {
        Acc {
            commits: 0,
            user_fails: 0,
            sys_aborts: 0,
            hist: Hist::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.commits == 0 && self.user_fails == 0 && self.sys_aborts == 0
    }

    fn clear(&mut self) {
        self.commits = 0;
        self.user_fails = 0;
        self.sys_aborts = 0;
        self.hist.clear();
    }
}

struct Shared {
    /// Completed windows awaiting the collector, keyed by window id.
    windows: BTreeMap<u64, WindowCore>,
    /// Windows with id below this have been drained; merges landing
    /// behind it fold into `late`.
    drained_upto: u64,
    /// Catch-all for samples flushed behind the drain watermark.
    late: WindowCore,
}

/// The shared aggregation point. Create one per run, hand each worker a
/// [`Recorder`], and drain from the collector.
pub struct Telemetry {
    window_ns: u64,
    shared: Mutex<Shared>,
}

impl Telemetry {
    /// A telemetry hub with the given window length.
    pub fn new(window_ns: u64) -> Arc<Self> {
        assert!(window_ns > 0, "window length must be positive");
        Arc::new(Telemetry {
            window_ns,
            shared: Mutex::new(Shared {
                windows: BTreeMap::new(),
                drained_upto: 0,
                late: WindowCore::default(),
            }),
        })
    }

    /// Window length in ns.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// The window id containing time `now_ns`.
    pub fn window_of(&self, now_ns: u64) -> u64 {
        now_ns / self.window_ns
    }

    /// A new recorder bound to this hub. One per worker thread.
    pub fn recorder(self: &Arc<Self>) -> Recorder {
        Recorder {
            telemetry: Arc::clone(self),
            wid: 0,
            acc: Acc::new(),
        }
    }

    fn merge(&self, wid: u64, acc: &Acc) {
        let mut s = self.shared.lock().expect("telemetry mutex");
        if wid < s.drained_upto {
            s.late.merge_acc(acc);
        } else {
            s.windows.entry(wid).or_default().merge_acc(acc);
        }
    }

    /// Remove and return every completed window with id strictly below
    /// `upto`, in id order, advancing the drain watermark. Window ids
    /// with no samples are simply absent — the caller decides whether a
    /// gap means "idle second" (open loop) or "nothing measured yet".
    pub fn drain_upto(&self, upto: u64) -> Vec<(u64, WindowCore)> {
        let mut s = self.shared.lock().expect("telemetry mutex");
        let keep = s.windows.split_off(&upto);
        let drained = std::mem::replace(&mut s.windows, keep);
        s.drained_upto = s.drained_upto.max(upto);
        drained.into_iter().collect()
    }

    /// Drain every remaining window (call after all recorders have
    /// flushed/dropped) plus the late catch-all aggregate.
    pub fn drain_rest(&self) -> (Vec<(u64, WindowCore)>, WindowCore) {
        let mut s = self.shared.lock().expect("telemetry mutex");
        s.drained_upto = u64::MAX;
        let windows = std::mem::take(&mut s.windows).into_iter().collect();
        let late = std::mem::take(&mut s.late);
        (windows, late)
    }
}

/// Per-worker recording handle. The record path is allocation-free and
/// lock-free; the once-per-window rollover takes the hub mutex.
pub struct Recorder {
    telemetry: Arc<Telemetry>,
    wid: u64,
    acc: Acc,
}

impl Recorder {
    /// Record one completed transaction: `now_ns` places it in a window
    /// (time since the run epoch), `latency_ns` is its measured latency
    /// (for open loop: completion minus *scheduled arrival*, so queue
    /// wait is charged to the system — no coordinated omission).
    #[inline]
    pub fn record(&mut self, now_ns: u64, outcome: TxnOutcome, latency_ns: u64) {
        let wid = now_ns / self.telemetry.window_ns;
        if wid != self.wid {
            self.flush();
            self.wid = wid;
        }
        match outcome {
            TxnOutcome::Commit => self.acc.commits += 1,
            TxnOutcome::UserFail => self.acc.user_fails += 1,
            TxnOutcome::SysAbort => self.acc.sys_aborts += 1,
        }
        self.acc.hist.record(latency_ns);
    }

    /// Flush the current accumulator into the hub (no-op when empty).
    pub fn flush(&mut self) {
        if !self.acc.is_empty() {
            self.telemetry.merge(self.wid, &self.acc);
            self.acc.clear();
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollover_assigns_samples_to_their_windows() {
        let t = Telemetry::new(1000);
        let mut r = t.recorder();
        r.record(100, TxnOutcome::Commit, 10);
        r.record(900, TxnOutcome::UserFail, 20);
        r.record(1500, TxnOutcome::Commit, 30); // rolls window 0 out
        r.record(3200, TxnOutcome::SysAbort, 40); // rolls window 1 out
        drop(r); // flushes window 3
        let (windows, late) = t.drain_rest();
        let ids: Vec<u64> = windows.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 3]);
        assert_eq!(windows[0].1.commits, 1);
        assert_eq!(windows[0].1.user_fails, 1);
        assert_eq!(windows[1].1.commits, 1);
        assert_eq!(windows[2].1.sys_aborts, 1);
        assert_eq!(late.completions(), 0);
    }

    #[test]
    fn late_flush_is_conserved_not_dropped() {
        let t = Telemetry::new(1000);
        let mut r = t.recorder();
        r.record(500, TxnOutcome::Commit, 10);
        // Collector races ahead and drains through window 5.
        let drained = t.drain_upto(5);
        assert!(drained.is_empty(), "window 0 not yet flushed");
        // The stalled recorder finally flushes window 0 — behind the
        // watermark, so it lands in the late aggregate.
        drop(r);
        let (rest, late) = t.drain_rest();
        assert!(rest.is_empty());
        assert_eq!(late.commits, 1);
    }

    #[test]
    fn drain_upto_is_exclusive_and_ordered() {
        let t = Telemetry::new(10);
        let mut r = t.recorder();
        for w in 0..5u64 {
            r.record(w * 10 + 1, TxnOutcome::Commit, 1);
        }
        r.flush();
        let first = t.drain_upto(3);
        assert_eq!(
            first.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let (rest, late) = t.drain_rest();
        assert_eq!(
            rest.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(late.completions(), 0);
    }
}
