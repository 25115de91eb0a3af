//! The load driver: one worker pool fed by one of two arrival sources,
//! with windowed telemetry and one summary.
//!
//! A **closed** source is the paper's system of N agents (Section 5):
//! each worker schedules its next arrival the moment it goes idle, so
//! the engine sets the pace and the run answers "how fast can it go?".
//! An **open** source inverts that: a pacer thread releases arrivals on
//! a fixed seeded schedule regardless of how the engine is doing, into a
//! bounded [`AdmissionQueue`] the workers drain. When the engine keeps
//! up, the queue stays shallow; when it cannot, backlog grows and
//! eventually arrivals are shed — both measured per window, never
//! hidden.
//!
//! Latency is measured from the *scheduled arrival time*, not from
//! dequeue, so queue wait is charged to the system (avoiding the
//! coordinated-omission trap where a stalled server pauses the clock).
//! A closed arrival is scheduled when its worker picks it up, so its
//! latency is pure service time.
//!
//! A run moves through three phases: **warm-up** (arrivals flow, windows
//! render, nothing counts), **measure** (arrivals count toward the
//! summary), and **drain** (no new arrivals; workers finish what was
//! scheduled, and those late completions still count). Soak mode is just
//! a long measure phase — the phase machinery is identical.
//!
//! Both sources share one ledger. An arrival belongs to the phase it was
//! *scheduled* in: `offered`/`shed` are booked by scheduled time, and so
//! is every completion — a warm-up arrival served after the boundary
//! never enters the summary, however late the workers run, so
//! `completions == offered - shed` holds exactly once the backlog
//! drains. `attempts_per_sec` is the paper's accounting for both: commits
//! plus benchmark-expected user failures; system aborts are completions
//! but not completed work.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::artifact::{BenchArtifact, Summary, WindowStats};
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
    /// No new arrivals; workers finish what was already scheduled.
    Drain,
}

/// The work a driver worker executes, one transaction per arrival.
/// Implementations wrap an engine session; the driver itself has no
/// engine dependency. The three hooks let an implementation bracket
/// exactly the measured phase (profiler windows, counter snapshots).
pub trait Workload: Sync {
    /// Per-worker state (an engine session plus its rng). Built inside
    /// the worker thread, so it need not be `Send`.
    type Worker;

    /// Build worker `worker_id`'s state. `seed` is already derived from
    /// the run seed and the worker id.
    fn make_worker(&self, worker_id: usize, seed: u64) -> Self::Worker;

    /// Execute one transaction and classify its outcome.
    fn run_one(&self, worker: &mut Self::Worker) -> TxnOutcome;

    /// On the worker thread, just before its first measured arrival
    /// runs. Not called for a worker that serves no measured arrival.
    fn begin_measure(&self, _worker: &mut Self::Worker) {}

    /// On the worker thread, after its last arrival.
    fn retire(&self, _worker: Self::Worker) {}

    /// On the driving thread, once the run clock reaches the measure
    /// boundary ([`Phase::Measure`]) and once it reaches the horizon
    /// ([`Phase::Drain`]), in that order.
    fn phase(&self, _phase: Phase) {}
}

/// Where a run's arrivals come from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrivals {
    /// Each worker schedules its next arrival when it goes idle.
    Closed,
    /// A pacer releases a seeded schedule into an admission queue.
    Open {
        /// Target mean arrival rate, per second.
        rate: f64,
        /// Arrival process shape.
        pattern: ArrivalPattern,
        /// Admission-queue bound (rounded up to a power of two).
        queue_cap: usize,
    },
}

/// Configuration for one run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Arrival source.
    pub arrivals: Arrivals,
    /// Worker-pool size (the paper's agents for a closed source).
    pub workers: usize,
    /// Warm-up length (rounded up to whole windows).
    pub warmup: Duration,
    /// Measured length.
    pub measure: Duration,
    /// Run seed (drives the schedule and, derived, each worker).
    pub seed: u64,
}

impl LoadConfig {
    /// Telemetry window length: an eighth of the measured phase,
    /// clamped to [10 ms, 1 s] — smoke runs still get several windows,
    /// long runs get the canonical one-second grid.
    pub fn window_ns(&self) -> u64 {
        ((self.measure.as_nanos() as u64) / 8).clamp(10_000_000, 1_000_000_000)
    }
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The configuration that produced the run.
    pub config: LoadConfig,
    /// Warm-up windows (rendered, not summarized).
    pub warmup_windows: Vec<WindowStats>,
    /// Measured + drain windows, contiguous from the measure boundary.
    pub windows: Vec<WindowStats>,
    /// Aggregate over every arrival scheduled in the measure phase.
    pub summary: Summary,
}

impl LoadReport {
    /// Package this run as a benchmark artifact: the driver's own
    /// settings are appended to the caller's `config` pairs.
    pub fn artifact(
        &self,
        experiment: &str,
        workload: &str,
        mut config: Vec<(String, String)>,
    ) -> BenchArtifact {
        let c = &self.config;
        config.push(("workers".into(), c.workers.to_string()));
        config.push(("window_ms".into(), (c.window_ns() / 1_000_000).to_string()));
        config.push((
            "measure_secs".into(),
            format!("{:.1}", c.measure.as_secs_f64()),
        ));
        let mode = match c.arrivals {
            Arrivals::Closed => "closed-loop",
            Arrivals::Open {
                rate,
                pattern,
                queue_cap,
            } => {
                config.push(("rate".into(), format!("{rate:.0}")));
                config.push(("pattern".into(), pattern.describe()));
                config.push(("queue_cap".into(), queue_cap.to_string()));
                "open-loop"
            }
        };
        BenchArtifact {
            experiment: experiment.to_string(),
            workload: workload.to_string(),
            mode: mode.into(),
            config,
            windows: self.windows.clone(),
            summary: self.summary.clone(),
        }
    }
}

/// Per-window `(offered, shed)` book. Each booking thread (the pacer,
/// or every closed-loop worker) locks it once per window rollover; the
/// collector locks it once per drain.
type OfferedBook = Mutex<BTreeMap<u64, (u64, u64)>>;

/// One thread's offered/shed count for the window it is booking into.
#[derive(Default)]
struct Booking {
    wid: u64,
    offered: u64,
    shed: u64,
}

impl Booking {
    fn count(&mut self, book: &OfferedBook, wid: u64, shed: bool) {
        if wid != self.wid {
            self.flush(book);
            self.wid = wid;
        }
        self.offered += 1;
        self.shed += u64::from(shed);
    }

    fn flush(&mut self, book: &OfferedBook) {
        if self.offered == 0 {
            return;
        }
        let mut m = book.lock().expect("offered book");
        let e = m.entry(self.wid).or_insert((0, 0));
        e.0 += self.offered;
        e.1 += self.shed;
        (self.offered, self.shed) = (0, 0);
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Run `workload` under `cfg` to completion and return its report. Pass
/// a [`Dashboard`] to render live; pass `None` for silent runs.
pub fn run_load<W: Workload>(
    workload: &W,
    cfg: &LoadConfig,
    mut dash: Option<&mut Dashboard>,
) -> LoadReport {
    assert!(cfg.workers > 0, "need at least one worker");
    let window_ns = cfg.window_ns();
    // Round warm-up to whole windows so the measure boundary is a
    // window boundary.
    let warmup_windows = (cfg.warmup.as_nanos() as u64).div_ceil(window_ns);
    let measure_start_ns = warmup_windows * window_ns;
    let horizon_ns = measure_start_ns + cfg.measure.as_nanos() as u64;

    let telemetry = Telemetry::new(window_ns);
    let queue = match cfg.arrivals {
        Arrivals::Open { queue_cap, .. } => Some(AdmissionQueue::new(queue_cap)),
        Arrivals::Closed => None,
    };
    let queue = queue.as_ref();
    let book = &OfferedBook::default();
    let active_workers = AtomicUsize::new(cfg.workers);
    let epoch = Instant::now();

    if let Some(d) = dash.as_deref_mut() {
        d.phase(Phase::Warmup);
    }

    let mut report = LoadReport {
        config: cfg.clone(),
        warmup_windows: Vec::new(),
        windows: Vec::new(),
        summary: Summary::default(),
    };

    let (measured, paced, horizon_depth) = std::thread::scope(|s| {
        // --- pacer (open source) -------------------------------------
        // Returns the (offered, shed) count of measured arrivals.
        let pacer = match cfg.arrivals {
            Arrivals::Open { rate, pattern, .. } => {
                let queue = queue.expect("open source has a queue");
                let mut sched = ArrivalSchedule::new(pattern, rate, cfg.seed);
                Some(s.spawn(move || {
                    let mut booking = Booking::default();
                    let (mut offered, mut shed) = (0u64, 0u64);
                    let mut next = sched.next_arrival_ns();
                    while next < horizon_ns {
                        let now = elapsed_ns(epoch);
                        if next > now {
                            let gap_ns = (next - now).clamp(100_000, 1_000_000);
                            // sli-lint: allow(sleep) — pacing wait between arrivals
                            std::thread::sleep(Duration::from_nanos(gap_ns));
                            continue;
                        }
                        // Release everything that is due. Timestamps stay
                        // exact even though the pacer wakes on a ~1ms grid:
                        // latency is measured from the scheduled time.
                        let ok = queue.push_or_shed(next).is_ok();
                        booking.count(book, next / window_ns, !ok);
                        if next >= measure_start_ns {
                            offered += 1;
                            shed += u64::from(!ok);
                        }
                        next = sched.next_arrival_ns();
                    }
                    booking.flush(book);
                    queue.close();
                    (offered, shed)
                }))
            }
            Arrivals::Closed => None,
        };

        // --- workers -------------------------------------------------
        let mut workers = Vec::with_capacity(cfg.workers);
        for worker_id in 0..cfg.workers {
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
                let mut measuring = false;
                let mut booking = Booking::default();
                loop {
                    let scheduled_ns = match queue {
                        Some(q) => match q.pop_wait() {
                            Some(t) => t,
                            None => break,
                        },
                        None => {
                            // Closed source: the next arrival is now.
                            let now = elapsed_ns(epoch);
                            if now >= horizon_ns {
                                break;
                            }
                            booking.count(book, now / window_ns, false);
                            now
                        }
                    };
                    let in_measure = scheduled_ns >= measure_start_ns;
                    if in_measure && !measuring {
                        measuring = true;
                        workload.begin_measure(&mut worker);
                    }
                    let outcome = workload.run_one(&mut worker);
                    let now = elapsed_ns(epoch);
                    let latency = now.saturating_sub(scheduled_ns);
                    if in_measure {
                        measured.record(outcome, latency);
                        rec.record(now, outcome, latency);
                    } else {
                        // Windows show work as it completes, but a warm-up
                        // arrival served late stays a warm-up completion.
                        rec.record(now.min(measure_start_ns - 1), outcome, latency);
                    }
                }
                booking.flush(book);
                rec.flush();
                workload.retire(worker);
                // ordering: Release pairs with the collector's Acquire
                // load so our final flush is visible before it observes
                // the pool as done.
                active.fetch_sub(1, Ordering::Release);
                measured
            }));
        }

        // --- collector (this thread) --------------------------------
        let mut next_wid = 0u64; // next window to emit
        let boundaries = [
            (measure_start_ns, Phase::Measure),
            (horizon_ns, Phase::Drain),
        ];
        let mut hooked = 0; // boundaries whose hook has run
                            // Admission backlog when the clock crossed the horizon; the
                            // workers drain the queue before they exit, so it is sampled here.
        let mut horizon_depth = 0;
        let mut measure_announced = false;
        let mut drain_announced = false;
        loop {
            // ordering: Acquire pairs with each worker's Release
            // decrement; once this reads 0, every recorder flush is
            // visible and drain_rest sees all samples.
            let workers_done = active_workers.load(Ordering::Acquire) == 0;
            let now = elapsed_ns(epoch);
            // Workers finish only after the last arrival, so a finished
            // pool has crossed both boundaries even if the clock has not.
            while let Some(&(at, phase)) = boundaries.get(hooked) {
                if now < at && !workers_done {
                    break;
                }
                if phase == Phase::Drain {
                    horizon_depth = depth_of(queue);
                }
                workload.phase(phase);
                hooked += 1;
            }
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
                let depth = depth_of(queue);
                for wid in next_wid..=end {
                    if workers_done && wid > last && cores.is_empty() {
                        break;
                    }
                    let core = cores.remove(&wid).unwrap_or_default();
                    let (offered, shed) = book
                        .lock()
                        .expect("offered book")
                        .remove(&wid)
                        .unwrap_or_default();
                    let stats = WindowStats::from_core(wid, &core, offered, shed, depth);
                    if !measure_announced && wid >= warmup_windows {
                        measure_announced = true;
                        if let Some(d) = dash.as_deref_mut() {
                            d.phase(Phase::Measure);
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
            // Announce the drain phase once the horizon has passed and
            // backlog remains.
            if let Some(d) = dash.as_deref_mut() {
                if now >= horizon_ns && depth_of(queue) > 0 && !drain_announced {
                    d.phase(Phase::Drain);
                    drain_announced = true;
                }
            }
            // Tick a few times per window, waking on time for a hook.
            let to_hook = boundaries.get(hooked).map_or(u64::MAX, |b| b.0 - now);
            let tick = (window_ns / 4).max(5_000_000).min(to_hook.max(50_000));
            // sli-lint: allow(sleep) — collector ticks on window edges
            std::thread::sleep(Duration::from_nanos(tick));
        }
        let measured: Vec<WindowCore> = workers
            .into_iter()
            .map(|w| w.join().expect("load worker panicked"))
            .collect();
        let paced = pacer.map(|p| p.join().expect("pacer panicked"));
        (measured, paced, horizon_depth)
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
    // A closed source admits every arrival it schedules.
    (s.offered, s.shed) = paced.unwrap_or((s.completions(), 0));
    s.measure_secs = cfg.measure.as_secs_f64();
    let secs = s.measure_secs.max(1e-9);
    s.offered_per_sec = s.offered as f64 / secs;
    s.commits_per_sec = s.commits as f64 / secs;
    s.attempts_per_sec = (s.commits + s.user_fails) as f64 / secs;
    s.final_depth = horizon_depth;
    s.set_latency(&total_hist);
    if let Some(d) = dash {
        d.summary(s);
    }
    report
}

fn depth_of(queue: Option<&AdmissionQueue>) -> u64 {
    queue.map_or(0, AdmissionQueue::depth)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A no-op workload: every transaction commits instantly.
    struct Instant0;

    impl Workload for Instant0 {
        type Worker = ();
        fn make_worker(&self, _id: usize, _seed: u64) {}
        fn run_one(&self, _w: &mut ()) -> TxnOutcome {
            TxnOutcome::Commit
        }
    }

    fn open(rate: f64, queue_cap: usize) -> Arrivals {
        Arrivals::Open {
            rate,
            pattern: ArrivalPattern::Constant,
            queue_cap,
        }
    }

    #[test]
    fn open_loop_conserves_admitted_arrivals() {
        let cfg = LoadConfig {
            arrivals: open(2000.0, 1024),
            workers: 2,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(400),
            seed: 42,
        };
        let report = run_load(&Instant0, &cfg, None);
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
        assert!(
            s.final_depth < 1024 / 2,
            "no divergence: depth {}",
            s.final_depth
        );
        // The per-window series covers the measured phase.
        assert!(!report.windows.is_empty());
        let windows_total: u64 = report.windows.iter().map(|w| w.completions()).sum();
        assert!(windows_total <= s.completions());
    }

    /// Every transaction busy-waits, so one worker falls behind the pacer.
    struct Slow(Duration);

    impl Workload for Slow {
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
        let cfg = LoadConfig {
            arrivals: open(5000.0, 4096),
            workers: 1,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(200),
            seed: 7,
        };
        let report = run_load(&Slow(Duration::from_micros(400)), &cfg, None);
        let s = &report.summary;
        assert_eq!(s.shed, 0);
        assert_eq!(s.offered, 1000);
        assert_eq!(s.completions(), s.offered - s.shed, "backlog drained");
        // The warm-up stragglers are not in the measured windows either.
        let windows_total: u64 = report.windows.iter().map(|w| w.completions()).sum();
        assert!(windows_total <= s.completions());
        let warmup_total: u64 = report.warmup_windows.iter().map(|w| w.completions()).sum();
        assert!(warmup_total <= 500);
    }

    #[test]
    fn final_depth_is_the_backlog_at_the_horizon() {
        // 5000/s offered against ~2500/s of capacity into a 256-slot
        // queue: the queue is full when arrivals stop, and the worker
        // drains it before the run returns.
        let cfg = LoadConfig {
            arrivals: open(5000.0, 256),
            workers: 1,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(200),
            seed: 7,
        };
        let s = run_load(&Slow(Duration::from_micros(400)), &cfg, None).summary;
        assert!(s.shed > 0, "overloaded queue sheds");
        assert!(s.final_depth > 0, "backlog at the horizon: {s:?}");
        assert_eq!(s.completions(), s.offered - s.shed, "backlog drained");
    }

    /// Every fourth arrival a worker serves is a system abort, every
    /// fourth (offset by one) a user failure; the rest commit.
    struct AbortShare;

    impl Workload for AbortShare {
        type Worker = u64;
        fn make_worker(&self, _id: usize, _seed: u64) -> u64 {
            0
        }
        fn run_one(&self, n: &mut u64) -> TxnOutcome {
            *n += 1;
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(20) {
                std::hint::spin_loop();
            }
            match *n % 4 {
                0 => TxnOutcome::SysAbort,
                1 => TxnOutcome::UserFail,
                _ => TxnOutcome::Commit,
            }
        }
    }

    #[test]
    fn attempts_count_commits_and_user_fails_from_either_source() {
        for arrivals in [Arrivals::Closed, open(2000.0, 4096)] {
            let cfg = LoadConfig {
                arrivals,
                workers: 2,
                warmup: Duration::from_millis(50),
                measure: Duration::from_millis(200),
                seed: 3,
            };
            let s = run_load(&AbortShare, &cfg, None).summary;
            assert!(s.sys_aborts > 0 && s.user_fails > 0, "{arrivals:?}: {s:?}");
            let secs = cfg.measure.as_secs_f64();
            let paper = (s.commits + s.user_fails) as f64 / secs;
            assert!(
                (s.attempts_per_sec - paper).abs() < 1e-6,
                "{arrivals:?}: attempts/s {} is not (commits + user fails)/s {paper}",
                s.attempts_per_sec
            );
            assert!(s.attempts_per_sec < s.completions() as f64 / secs);
            assert_eq!(s.completions(), s.offered - s.shed, "{arrivals:?}");
        }
    }

    /// A closed-loop workload that counts, per worker, the outcomes it
    /// produced before and after its `begin_measure` hook, and records
    /// the phase hooks it saw.
    #[derive(Default)]
    struct Counted {
        /// Per retired worker: (warm-up outcomes, measured outcomes).
        retired: Mutex<Vec<(WindowCore, WindowCore)>>,
        phases: Mutex<Vec<Phase>>,
    }

    struct CountedWorker {
        n: u64,
        measuring: bool,
        warmup: WindowCore,
        measured: WindowCore,
    }

    impl Workload for Counted {
        type Worker = CountedWorker;
        fn make_worker(&self, _id: usize, _seed: u64) -> CountedWorker {
            CountedWorker {
                n: 0,
                measuring: false,
                warmup: WindowCore::default(),
                measured: WindowCore::default(),
            }
        }
        fn run_one(&self, w: &mut CountedWorker) -> TxnOutcome {
            w.n += 1;
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(50) {
                std::hint::spin_loop();
            }
            let outcome = match w.n % 5 {
                0 => TxnOutcome::SysAbort,
                1 => TxnOutcome::UserFail,
                _ => TxnOutcome::Commit,
            };
            let side = if w.measuring {
                &mut w.measured
            } else {
                &mut w.warmup
            };
            side.record(outcome, 1);
            outcome
        }
        fn begin_measure(&self, w: &mut CountedWorker) {
            assert!(!w.measuring, "begin_measure runs once per worker");
            w.measuring = true;
        }
        fn retire(&self, w: CountedWorker) {
            self.retired.lock().unwrap().push((w.warmup, w.measured));
        }
        fn phase(&self, phase: Phase) {
            self.phases.lock().unwrap().push(phase);
        }
    }

    #[test]
    fn closed_source_summary_is_exactly_the_workers_measured_outcomes() {
        let cfg = LoadConfig {
            arrivals: Arrivals::Closed,
            workers: 3,
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(120),
            seed: 11,
        };
        let workload = Counted::default();
        let report = run_load(&workload, &cfg, None);
        let s = &report.summary;
        let retired = workload.retired.into_inner().unwrap();
        assert_eq!(retired.len(), 3, "every worker retired");
        let mut warm = WindowCore::default();
        let mut meas = WindowCore::default();
        for (w, m) in &retired {
            for (sum, part) in [(&mut warm, w), (&mut meas, m)] {
                sum.commits += part.commits;
                sum.user_fails += part.user_fails;
                sum.sys_aborts += part.sys_aborts;
            }
        }
        // Warm-up arrivals ran but stayed out of the summary.
        assert!(warm.completions() > 0, "warm-up ran");
        assert_eq!(
            (s.commits, s.user_fails, s.sys_aborts),
            (meas.commits, meas.user_fails, meas.sys_aborts),
            "summary == sum of the workers' measured outcomes"
        );
        assert!(s.commits > 0 && s.user_fails > 0 && s.sys_aborts > 0);
        // A closed source admits every arrival it schedules.
        assert_eq!(s.offered, s.completions());
        assert_eq!(
            (s.shed, s.final_depth),
            (0, 0),
            "a closed source has no queue"
        );
        let windows_total: u64 = report.windows.iter().map(|w| w.completions()).sum();
        assert!(windows_total <= s.completions());
        // Each phase hook fires once, in order.
        assert_eq!(
            workload.phases.into_inner().unwrap(),
            [Phase::Measure, Phase::Drain]
        );
        // Closed-loop latency is service time: at least the 50 us spin.
        assert!(s.p50_ns >= 50_000, "p50 {} ns", s.p50_ns);
        // Windows are numbered from the run epoch; the measured ones start
        // at the rounded warm-up boundary.
        let first = report.windows.first().expect("measured windows").index;
        assert_eq!(first, 30_000_000u64.div_ceil(cfg.window_ns()));
    }
}
