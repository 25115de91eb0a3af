//! Open-loop traffic driver: pacer → admission queue → worker pool →
//! windowed telemetry.
//!
//! Closed-loop drivers (N agents in a tight loop) let the system set
//! the pace: when the engine slows down, the offered load politely
//! slows with it, hiding the very overload a capacity study needs to
//! see. The open-loop driver inverts that: a **pacer** thread releases
//! arrivals on a fixed seeded schedule regardless of how the engine is
//! doing; arrivals land in a bounded [`AdmissionQueue`] drained by a
//! worker pool. When the engine keeps up, the queue stays shallow; when
//! it cannot, backlog grows and eventually arrivals are shed — both
//! measured per window, never hidden.
//!
//! Latency is measured from the *scheduled arrival time*, not from
//! dequeue, so queue wait is charged to the system (avoiding the
//! coordinated-omission trap where a stalled server pauses the clock).
//!
//! A run moves through three phases: **warm-up** (arrivals flow, windows
//! render, nothing counts), **measure** (arrivals count toward the
//! summary), and **drain** (the pacer stops, workers finish the queued
//! backlog, late completions still count). Soak mode is just a long
//! measure phase — the phase machinery is identical.
//!
//! An arrival belongs to the phase it was *scheduled* in, on both sides of
//! the ledger: `offered`/`shed` are booked by scheduled time, and so is
//! every completion — a warm-up arrival served after the boundary never
//! enters the summary, however late the workers run, so
//! `completions == offered - shed` holds exactly once the backlog drains.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use std::collections::BTreeMap;

use crate::artifact::{Summary, WindowStats};
use crate::dashboard::Dashboard;
use crate::hist::Hist;
use crate::queue::AdmissionQueue;
use crate::schedule::{ArrivalPattern, ArrivalSchedule};
use crate::telemetry::{Telemetry, TxnOutcome, WindowCore};

/// Run phase, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Arrivals flow but windows do not count toward the summary.
    Warmup,
    /// Windows accumulate into the summary.
    Measure,
    /// The pacer has stopped; workers drain the admitted backlog.
    Drain,
}

/// The workload an open-loop worker executes, one transaction per
/// admitted arrival. Implementations wrap an engine session; the driver
/// itself has no engine dependency.
pub trait OpenLoopWorkload: Sync {
    /// Per-worker state (an engine session plus its rng). Built inside
    /// the worker thread, so it need not be `Send`.
    type Worker;

    /// Build worker `worker_id`'s state. `seed` is already derived from
    /// the run seed and the worker id.
    fn make_worker(&self, worker_id: usize, seed: u64) -> Self::Worker;

    /// Execute one transaction and classify its outcome.
    fn run_one(&self, worker: &mut Self::Worker) -> TxnOutcome;
}

/// Configuration for one open-loop run.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Human label for banners and artifacts.
    pub label: String,
    /// Target mean arrival rate, per second.
    pub rate: f64,
    /// Arrival process shape.
    pub pattern: ArrivalPattern,
    /// Worker-pool size.
    pub workers: usize,
    /// Admission-queue bound (rounded up to a power of two).
    pub queue_cap: usize,
    /// Warm-up length (rounded up to whole windows).
    pub warmup: Duration,
    /// Measured length.
    pub measure: Duration,
    /// Telemetry window length, ms.
    pub window_ms: u64,
    /// Run seed (drives the schedule and, derived, each worker).
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            label: String::new(),
            rate: 1000.0,
            pattern: ArrivalPattern::Poisson,
            workers: 4,
            queue_cap: 4096,
            warmup: Duration::from_secs(1),
            measure: Duration::from_secs(5),
            window_ms: 1000,
            seed: 0x51AF_F1C0,
        }
    }
}

/// The result of one open-loop run.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Warm-up windows (rendered, not summarized).
    pub warmup_windows: Vec<WindowStats>,
    /// Measured + drain windows, contiguous from the measure boundary.
    pub windows: Vec<WindowStats>,
    /// Aggregate over every arrival scheduled in the measure phase.
    pub summary: Summary,
}

/// Pacer-side per-window offered/shed book. The pacer is the only
/// writer; it locks once per window rollover, the collector locks once
/// per drain.
struct OfferedBook {
    by_window: Mutex<BTreeMap<u64, (u64, u64)>>,
}

impl OfferedBook {
    fn new() -> Self {
        OfferedBook {
            by_window: Mutex::new(BTreeMap::new()),
        }
    }

    fn flush(&self, wid: u64, offered: u64, shed: u64) {
        if offered == 0 && shed == 0 {
            return;
        }
        let mut m = self.by_window.lock().expect("offered book");
        let e = m.entry(wid).or_insert((0, 0));
        e.0 += offered;
        e.1 += shed;
    }

    fn take(&self, wid: u64) -> (u64, u64) {
        self.by_window
            .lock()
            .expect("offered book")
            .remove(&wid)
            .unwrap_or((0, 0))
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Run one open-loop storm to completion and return its report. Pass a
/// [`Dashboard`] to render live; pass `None` for silent runs (tests).
pub fn run_traffic<W: OpenLoopWorkload>(
    workload: &W,
    cfg: &TrafficConfig,
    mut dash: Option<&mut Dashboard>,
) -> TrafficReport {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.window_ms > 0, "window must be positive");
    let window_ns = cfg.window_ms * 1_000_000;
    // Round warm-up to whole windows so the measure boundary is a
    // window boundary.
    let warmup_windows = (cfg.warmup.as_nanos() as u64).div_ceil(window_ns);
    let measure_start_ns = warmup_windows * window_ns;
    let horizon_ns = measure_start_ns + cfg.measure.as_nanos() as u64;

    let telemetry = Telemetry::new(window_ns);
    let queue = Arc::new(AdmissionQueue::new(cfg.queue_cap));
    let book = OfferedBook::new();
    // Exact count of arrivals scheduled inside the measured phase.
    let offered_measured = AtomicU64::new(0);
    let shed_measured = AtomicU64::new(0);
    let active_workers = AtomicUsize::new(cfg.workers);
    let epoch = Instant::now();

    if let Some(d) = dash.as_deref_mut() {
        d.phase(Phase::Warmup, &cfg.label);
    }

    let mut report = TrafficReport {
        warmup_windows: Vec::new(),
        windows: Vec::new(),
        summary: Summary::default(),
    };

    let measured = std::thread::scope(|s| {
        // --- pacer ---------------------------------------------------
        {
            let queue = Arc::clone(&queue);
            let book = &book;
            let offered_measured = &offered_measured;
            let shed_measured = &shed_measured;
            let mut sched = ArrivalSchedule::new(cfg.pattern, cfg.rate, cfg.seed);
            s.spawn(move || {
                let mut next = sched.next_arrival_ns();
                let (mut wid, mut offered, mut shed) = (0u64, 0u64, 0u64);
                'pace: loop {
                    let now = elapsed_ns(epoch);
                    // Release everything that is due. Timestamps stay
                    // exact even though the pacer wakes on a ~1ms grid:
                    // latency is measured from the scheduled time.
                    while next <= now {
                        if next >= horizon_ns {
                            break 'pace;
                        }
                        let w = next / window_ns;
                        if w != wid {
                            book.flush(wid, offered, shed);
                            (wid, offered, shed) = (w, 0, 0);
                        }
                        offered += 1;
                        let ok = queue.push_or_shed(next).is_ok();
                        if !ok {
                            shed += 1;
                        }
                        if next >= measure_start_ns {
                            // ordering: monotonic telemetry counters,
                            // read only after the scope joins.
                            offered_measured.fetch_add(1, Ordering::Relaxed);
                            if !ok {
                                // ordering: as above.
                                shed_measured.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        next = sched.next_arrival_ns();
                    }
                    if next >= horizon_ns {
                        break;
                    }
                    let gap_ns = (next - now).clamp(100_000, 1_000_000);
                    // sli-lint: allow(sleep) — pacing wait between arrivals
                    std::thread::sleep(Duration::from_nanos(gap_ns));
                }
                book.flush(wid, offered, shed);
                queue.close();
            });
        }

        // --- workers -------------------------------------------------
        let mut workers = Vec::with_capacity(cfg.workers);
        for worker_id in 0..cfg.workers {
            let queue = Arc::clone(&queue);
            let mut rec = telemetry.recorder();
            let active = &active_workers;
            let seed = cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(worker_id as u64);
            workers.push(s.spawn(move || {
                let mut worker = workload.make_worker(worker_id, seed);
                // This worker's share of the summary: every arrival
                // scheduled in the measure phase, whenever it completes.
                let mut measured = WindowCore::default();
                while let Some(scheduled_ns) = queue.pop_wait() {
                    let outcome = workload.run_one(&mut worker);
                    let now = elapsed_ns(epoch);
                    let latency = now.saturating_sub(scheduled_ns);
                    if scheduled_ns >= measure_start_ns {
                        measured.record(outcome, latency);
                        rec.record(now, outcome, latency);
                    } else {
                        // Windows show work as it completes, but a warm-up
                        // arrival served late stays a warm-up completion.
                        rec.record(now.min(measure_start_ns - 1), outcome, latency);
                    }
                }
                rec.flush();
                // ordering: Release pairs with the collector's Acquire
                // load so our final flush is visible before it observes
                // the pool as done.
                active.fetch_sub(1, Ordering::Release);
                measured
            }));
        }

        // --- collector (this thread) --------------------------------
        let mut next_wid = 0u64; // next window to emit
        let mut measure_announced = false;
        let mut drain_announced = false;
        loop {
            // ordering: Acquire pairs with each worker's Release
            // decrement; once this reads 0, every recorder flush is
            // visible and drain_rest sees all samples.
            let workers_done = active_workers.load(Ordering::Acquire) == 0;
            let now = elapsed_ns(epoch);
            // A window is safe to drain once real time is 25% past its
            // end — recorders flush on their first sample of the next
            // window, and the late catch-all conserves any stragglers.
            let drainable = now.saturating_sub(window_ns / 4) / window_ns;
            if drainable > next_wid || workers_done {
                let upto = if workers_done { u64::MAX } else { drainable };
                // Samples flushed behind the drain watermark miss their
                // window; the summary does not depend on windows.
                let drained = if workers_done {
                    telemetry.drain_rest().0
                } else {
                    telemetry.drain_upto(upto)
                };
                let mut cores: BTreeMap<u64, WindowCore> = drained.into_iter().collect();
                let last = cores.keys().next_back().copied().unwrap_or(next_wid);
                let end = if workers_done {
                    last.max(next_wid)
                } else {
                    upto.saturating_sub(1).max(next_wid)
                };
                for wid in next_wid..=end {
                    if workers_done && wid > last && cores.is_empty() {
                        break;
                    }
                    let core = cores.remove(&wid).unwrap_or_default();
                    let (offered, shed) = book.take(wid);
                    let stats = WindowStats::from_core(wid, &core, offered, shed, queue.depth());
                    if !measure_announced && wid >= warmup_windows {
                        measure_announced = true;
                        if let Some(d) = dash.as_deref_mut() {
                            d.phase(Phase::Measure, &cfg.label);
                        }
                    }
                    if let Some(d) = dash.as_deref_mut() {
                        d.window(&stats);
                    }
                    if wid >= warmup_windows {
                        report.windows.push(stats);
                    } else {
                        report.warmup_windows.push(stats);
                    }
                }
                next_wid = end + 1;
            }
            if workers_done {
                break;
            }
            if let Some(d) = dash.as_deref_mut() {
                // Announce the drain phase once the pacer's horizon has
                // passed and backlog remains.
                if now >= horizon_ns && queue.depth() > 0 && !drain_announced {
                    d.phase(Phase::Drain, &cfg.label);
                    drain_announced = true;
                }
            }
            // sli-lint: allow(sleep) — collector ticks on window edges
            std::thread::sleep(Duration::from_millis((cfg.window_ms / 4).max(5)));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("open-loop worker panicked"))
            .collect::<Vec<WindowCore>>()
    });

    // --- summary -----------------------------------------------------
    let s = &mut report.summary;
    let mut total_hist = Hist::new();
    for core in &measured {
        s.commits += core.commits;
        s.user_fails += core.user_fails;
        s.sys_aborts += core.sys_aborts;
        if let Some(h) = &core.hist {
            total_hist.merge(h);
        }
    }
    s.measure_secs = cfg.measure.as_secs_f64();
    // ordering: the scope has joined every thread; Relaxed reads see
    // the final counter values.
    s.offered = offered_measured.load(Ordering::Relaxed);
    // ordering: as above.
    s.shed = shed_measured.load(Ordering::Relaxed);
    s.offered_per_sec = s.offered as f64 / s.measure_secs.max(1e-9);
    s.commits_per_sec = s.commits as f64 / s.measure_secs.max(1e-9);
    s.attempts_per_sec = s.completions() as f64 / s.measure_secs.max(1e-9);
    s.final_depth = queue.depth();
    s.set_latency(&total_hist);
    if let Some(d) = dash {
        d.summary(s);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A no-op workload: every transaction commits instantly.
    struct Instant0;

    impl OpenLoopWorkload for Instant0 {
        type Worker = ();
        fn make_worker(&self, _id: usize, _seed: u64) {}
        fn run_one(&self, _w: &mut ()) -> TxnOutcome {
            TxnOutcome::Commit
        }
    }

    #[test]
    fn open_loop_conserves_admitted_arrivals() {
        let cfg = TrafficConfig {
            label: "test".into(),
            rate: 2000.0,
            pattern: ArrivalPattern::Constant,
            workers: 2,
            queue_cap: 1024,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(400),
            window_ms: 100,
            seed: 42,
        };
        let report = run_traffic(&Instant0, &cfg, None);
        let s = &report.summary;
        // Every admitted measured arrival completes (the workload is
        // instant), so completions == offered - shed exactly.
        assert_eq!(s.completions(), s.offered - s.shed, "conservation");
        assert_eq!(s.shed, 0, "no shedding at trivial service time");
        // 2000/s over 0.4s => ~800 arrivals; warm-up rounding can move
        // the boundary by one window either way.
        assert!(
            (600..=1000).contains(&s.offered),
            "offered {} out of range",
            s.offered
        );
        assert_eq!(s.final_depth, 0, "backlog drained");
        // The per-window series covers the measured phase.
        assert!(!report.windows.is_empty());
        let windows_total: u64 = report.windows.iter().map(|w| w.completions()).sum();
        assert!(windows_total <= s.completions());
    }

    /// Every transaction busy-waits, so one worker falls behind the pacer.
    struct Slow(Duration);

    impl OpenLoopWorkload for Slow {
        type Worker = ();
        fn make_worker(&self, _id: usize, _seed: u64) {}
        fn run_one(&self, _w: &mut ()) -> TxnOutcome {
            let t0 = Instant::now();
            while t0.elapsed() < self.0 {
                std::hint::spin_loop();
            }
            TxnOutcome::Commit
        }
    }

    #[test]
    fn warmup_backlog_served_after_the_boundary_stays_out_of_the_summary() {
        // 5000/s offered against ~2500/s of capacity: by the measure
        // boundary ~250 warm-up arrivals are still queued, and all of them
        // complete inside the measure phase.
        let cfg = TrafficConfig {
            label: "test".into(),
            rate: 5000.0,
            pattern: ArrivalPattern::Constant,
            workers: 1,
            queue_cap: 4096,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(200),
            window_ms: 100,
            seed: 7,
        };
        let report = run_traffic(&Slow(Duration::from_micros(400)), &cfg, None);
        let s = &report.summary;
        assert_eq!(s.shed, 0);
        assert_eq!(s.offered, 1000);
        assert_eq!(s.completions(), s.offered - s.shed, "conservation");
        assert_eq!(s.final_depth, 0, "backlog drained");
        // The warm-up stragglers are not in the measured windows either.
        let windows_total: u64 = report.windows.iter().map(|w| w.completions()).sum();
        assert!(windows_total <= s.completions());
        let warmup_total: u64 = report.warmup_windows.iter().map(|w| w.completions()).sum();
        assert!(warmup_total <= 500);
    }
}
