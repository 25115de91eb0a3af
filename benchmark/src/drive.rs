//! The benchmark's own load drivers: worker threads, clocks, the open-loop
//! pacer. One call drives one warm-up + one measured phase.

use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sli_engine::{BufferPoolStats, Database, LockStatsSnapshot, LogStats, MvccStats, Session};
use sli_latch::ParkingStats;
use sli_traffic::AdmissionQueue;
use sli_workloads::{MixedWorkload, Outcome};

use crate::hist::Hist;
use crate::procfs::{self, ThreadCpu};
use crate::sched::PoissonSchedule;
use crate::span::{self, SpanLog};
use crate::workload::{Drive, Lifetime, Loaded, QUEUE_CAP};

/// The open loop's pacer and workers wait by yielding in a loop, and sleep
/// only when nothing is due for this long. A sleeping thread lets its vCPU
/// halt, and on a virtual machine the wake-up then costs a trip through the
/// hypervisor whose length depends on the host's other tenants: with
/// `thread::sleep` / `pop_wait` alone the median TPC-C latency was mostly
/// wake-up time and swung 2x with the host's mood.
const POLL_NS: u64 = 2_000_000;

/// How often one transaction is submitted before the agent gives it up. A
/// deadlock victim or validation loser wins a later submission; only a
/// poisoned log device aborts this many in a row.
const MAX_SUBMISSIONS: u64 = 64;

/// Wait before the submission that follows `aborts` aborted ones. The MVCC
/// backend aborts a writer at once when it meets another transaction's
/// uncommitted version, and the owner of that version may be parked on its
/// log force or have lost its vCPU: resubmitting at once loses to it again,
/// dozens of times in the microseconds it is away. Three yields, then sleeps
/// doubling from 2 us to 1 ms (~50 ms in all before the agent gives up).
fn back_off(aborts: u64) {
    if aborts <= 3 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(1 << (aborts - 3).min(10)));
    }
}

#[derive(Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub measure: Duration,
    pub seed: u64,
    pub trace: bool,
    pub limit_us: f64,
}

/// Public engine counters, snapshotted at the edges of the measured window.
pub struct Counters {
    pub lock: LockStatsSnapshot,
    pub log: LogStats,
    pub mvcc: MvccStats,
    pub pool: BufferPoolStats,
    pub park: ParkingStats,
}

impl Counters {
    pub fn snapshot(db: &Database) -> Counters {
        Counters {
            lock: db.lock_stats(),
            log: db.log_stats(),
            mvcc: db.mvcc_stats().unwrap_or_default(),
            pool: db.pool_stats(),
            park: sli_latch::parking_stats(),
        }
    }
}

/// What one load thread saw in the measured phase (plus, in `life`, over
/// every phase).
pub struct ThreadStats {
    /// Latency of the transactions completed, from when they became due to
    /// the return of the submission that completed them.
    lat: Hist,
    within_limit: u64,
    /// Submissions the system aborted: deadlock victims, lock timeouts, MVCC
    /// validation losers. Each is a failed attempt of its own; the agent then
    /// submits the same transaction again.
    aborts: u64,
    /// Transactions given up after [`MAX_SUBMISSIONS`] aborts.
    abandoned: u64,
    /// Open loop: CPU this worker burned polling an empty queue.
    idle_cpu_ns: u64,
    pub life: Lifetime,
    /// Traced runs: service latency per mix entry.
    pub by_entry: Vec<Hist>,
    /// Traced open-loop runs: scheduled arrival -> a worker picks it up.
    pub queue_wait: Hist,
    /// Traced runs: service time (`workloads.run_one`).
    pub service: Hist,
    pub spans: SpanLog,
}

impl ThreadStats {
    fn new(entries: usize) -> ThreadStats {
        ThreadStats {
            lat: Hist::new(),
            within_limit: 0,
            aborts: 0,
            abandoned: 0,
            idle_cpu_ns: 0,
            life: Lifetime {
                commits_by_entry: vec![0; entries],
                user_fails: 0,
            },
            by_entry: vec![Hist::new(); entries],
            queue_wait: Hist::new(),
            service: Hist::new(),
            spans: SpanLog::default(),
        }
    }
}

#[derive(Default)]
pub struct PacerStats {
    pub offered: u64,
    /// Arrivals the full queue refused.
    pub shed: u64,
    pub depth_max: u64,
    /// Actual release time minus scheduled time.
    pub lag: Hist,
    /// CPU the pacer thread burned over the measured phase.
    cpu_ns: u64,
}

pub struct Measured {
    pub threads: Vec<ThreadStats>,
    pub measure_s: f64,
    /// Process CPU seconds over the measured phase.
    cpu_s: f64,
    pub before: Counters,
    pub after: Counters,
    pub pacer: Option<PacerStats>,
}

/// Times relative to the drive's epoch, in ns.
#[derive(Clone, Copy)]
struct Timeline {
    epoch: Instant,
    measure_start: u64,
    end: u64,
}

impl Timeline {
    fn new(plan: &Plan, epoch: Instant) -> Timeline {
        let measure_start = plan.warmup.as_nanos() as u64;
        Timeline {
            epoch,
            measure_start,
            end: measure_start + plan.measure.as_nanos() as u64,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether `t` falls in the measured phase.
    #[inline]
    fn measured(&self, t: u64) -> bool {
        (self.measure_start..self.end).contains(&t)
    }

    fn sleep_until(&self, t: u64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

struct Worker<'a> {
    mix: &'a MixedWorkload,
    session: Session,
    rng: SmallRng,
    tl: Timeline,
    trace: bool,
    limit_ns: u64,
    txn_seq: u64,
    stats: ThreadStats,
}

impl<'a> Worker<'a> {
    fn new(
        mix: &'a MixedWorkload,
        session: Session,
        plan: &Plan,
        tl: Timeline,
        thread: usize,
    ) -> Self {
        Worker {
            mix,
            session,
            rng: SmallRng::seed_from_u64(
                plan.seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            tl,
            trace: plan.trace,
            limit_ns: (plan.limit_us * 1e3) as u64,
            txn_seq: (thread as u64) << 48,
            stats: ThreadStats::new(mix.len()),
        }
    }

    /// Run one transaction that became due at `due`: its scheduled arrival
    /// in the open loop (`by_arrival`, accounted to the measured phase if
    /// `due` is in it), the moment the agent turned to it in the closed loop
    /// (accounted if it completes in it).
    #[inline]
    fn one(&mut self, due: u64, by_arrival: bool) {
        let idx = self.mix.pick(&mut self.rng);
        // Service starts after the queue wait and the pick. The untraced
        // closed loop has no use for that instant and skips the clock read.
        let start = if by_arrival || self.trace {
            self.tl.now()
        } else {
            due
        };
        // Every submission draws the transaction's parameters from the same
        // generator state, so a resubmission is the same transaction.
        let mut aborts = 0;
        let outcome = loop {
            let mut rng = self.rng.clone();
            let outcome = self.mix.run_at(idx, &self.session, &mut rng);
            if outcome == Outcome::SysAbort {
                aborts += 1;
                if aborts < MAX_SUBMISSIONS {
                    back_off(aborts);
                    continue;
                }
            }
            self.rng = rng;
            break outcome;
        };
        let done = self.tl.now();
        let s = &mut self.stats;
        match outcome {
            Outcome::Commit => s.life.commits_by_entry[idx] += 1,
            Outcome::UserFail => s.life.user_fails += 1,
            Outcome::SysAbort => {}
        }
        if !self.tl.measured(if by_arrival { due } else { done }) {
            return;
        }
        s.aborts += aborts;
        if outcome == Outcome::SysAbort {
            s.abandoned += 1;
            return;
        }
        let latency = done - due;
        s.within_limit += u64::from(latency <= self.limit_ns);
        s.lat.record(latency);
        if self.trace {
            s.by_entry[idx].record(done - start);
            s.service.record(done - start);
            self.txn_seq += 1;
            let run_one = (span::RUN_ONE, start, done);
            if by_arrival {
                s.queue_wait.record(start - due);
                s.spans.txn(
                    self.txn_seq,
                    due,
                    done,
                    &[(span::QUEUE_WAIT, due, start), run_one],
                );
            } else {
                s.spans.txn(self.txn_seq, due, done, &[run_one]);
            }
        }
    }

    /// The open loop: drain the admission queue until it is closed and
    /// empty, polling (see [`POLL_NS`]) while it is empty. The CPU burned
    /// between two transactions is the benchmark's, not the engine's, and is
    /// read off the thread's own CPU clock so that `cpu_us_per_txn` can
    /// leave it out.
    fn drain(&mut self, queue: &AdmissionQueue) {
        let cpu = ThreadCpu::open();
        loop {
            let (idle_from, idle_cpu_from) = (self.tl.now(), cpu.ns());
            let due = loop {
                if let Some(due) = queue.try_pop() {
                    break Some(due);
                }
                if self.tl.now() - idle_from > POLL_NS {
                    break queue.pop_wait();
                }
                std::thread::yield_now();
            };
            let Some(due) = due else {
                return; // closed and drained
            };
            if self.tl.measured(idle_from) {
                self.stats.idle_cpu_ns += cpu.ns() - idle_cpu_from;
            }
            self.one(due, true);
        }
    }
}

fn pace(tl: Timeline, rate_per_s: f64, seed: u64, queue: &AdmissionQueue) -> PacerStats {
    let mut sched = PoissonSchedule::new(rate_per_s, seed);
    let mut stats = PacerStats::default();
    let cpu = ThreadCpu::open();
    // Set at the first arrival of the measured phase (a gap, ~1/rate, late).
    let mut cpu_from = None;
    loop {
        let due = sched.next_arrival_ns();
        if due >= tl.end {
            break;
        }
        let measured = tl.measured(due);
        if measured && cpu_from.is_none() {
            cpu_from = Some(cpu.ns());
        }
        loop {
            let now = tl.now();
            if now >= due {
                break;
            }
            if due - now > POLL_NS {
                std::thread::sleep(Duration::from_nanos(due - now - POLL_NS));
            } else {
                std::thread::yield_now();
            }
        }
        let released = tl.now();
        let admitted = queue.push_or_shed(due).is_ok();
        if measured {
            stats.offered += 1;
            stats.shed += u64::from(!admitted);
            stats.lag.record(released - due);
            stats.depth_max = stats.depth_max.max(queue.depth());
        }
    }
    queue.close();
    stats.cpu_ns = cpu_from.map_or(0, |from| cpu.ns() - from);
    stats
}

/// Drive `loaded` through one warm-up + measured phase.
pub fn drive(loaded: &Loaded, mode: Drive, workers: usize, plan: &Plan) -> Measured {
    assert!(workers > 0);
    let barrier = Barrier::new(workers + 1 + usize::from(mode != Drive::Closed));
    let queue = Arc::new(AdmissionQueue::new(QUEUE_CAP));
    // Set between the two barrier waits, once every thread holds its session,
    // so thread start-up is not charged to the warm-up and all threads share
    // one clock.
    let epoch = OnceLock::new();
    let timeline = || {
        barrier.wait();
        barrier.wait();
        Timeline::new(
            plan,
            *epoch.get().expect("epoch is set between the barriers"),
        )
    };

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for thread in 0..workers {
            let (timeline, queue) = (&timeline, Arc::clone(&queue));
            handles.push(s.spawn(move || {
                let session = loaded.db.session();
                let tl = timeline();
                let mut w = Worker::new(&loaded.mix, session, plan, tl, thread);
                match mode {
                    Drive::Closed => loop {
                        let due = tl.now();
                        if due >= tl.end {
                            break;
                        }
                        w.one(due, false);
                    },
                    Drive::Open { .. } => w.drain(&queue),
                }
                w.stats
            }));
        }
        let pacer = match mode {
            Drive::Closed => None,
            Drive::Open { rate_per_s } => {
                let (timeline, queue) = (&timeline, Arc::clone(&queue));
                Some(s.spawn(move || pace(timeline(), rate_per_s, plan.seed, &queue)))
            }
        };

        barrier.wait();
        epoch.set(Instant::now()).expect("epoch set once");
        barrier.wait();
        let tl = Timeline::new(plan, *epoch.get().expect("just set"));
        tl.sleep_until(tl.measure_start);
        let before = Counters::snapshot(&loaded.db);
        let cpu_from = procfs::process_cpu_s();
        tl.sleep_until(tl.end);
        let cpu_s = procfs::process_cpu_s() - cpu_from;
        // Open loop: the last arrivals complete during the drain, so the
        // counters close after the join.
        let pacer = pacer.map(|h| h.join().expect("pacer panicked"));
        let threads: Vec<ThreadStats> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        Measured {
            threads,
            measure_s: plan.measure.as_secs_f64(),
            cpu_s,
            before,
            after: Counters::snapshot(&loaded.db),
            pacer,
        }
    })
}

/// The `q`-quantiles of `values` (linear interpolation between closest
/// ranks); zeros when empty.
pub fn quantiles<const N: usize>(values: &[f64], qs: [f64; N]) -> [f64; N] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return [0.0; N];
    }
    qs.map(|q| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    })
}

/// The end-to-end view of a measured phase. Every value is taken over the
/// whole phase: a stall that hits one second in five moves them all.
pub struct Summary {
    /// Attempts: submissions (completed or aborted) plus arrivals shed.
    pub attempted: u64,
    pub completed: u64,
    /// Operations: transactions offered, each counted once however often it
    /// was submitted.
    pub ops: u64,
    /// Operations never completed: abandoned or shed. 0 on a healthy run.
    pub ops_failed: u64,
    pub txn_per_s: f64,
    pub lat_p50_us: f64,
    pub lat_p95_us: f64,
    pub within_limit_frac: f64,
    pub fail_frac: f64,
    pub cpu_us_per_txn: f64,
    pub life: Lifetime,
}

/// The end-to-end view of the measured phases of `rounds`, pooled.
pub fn summarize(rounds: &[Measured]) -> Summary {
    let threads = || rounds.iter().flat_map(|m| &m.threads);
    let pacers = || rounds.iter().filter_map(|m| m.pacer.as_ref());
    let mut lat = Hist::new();
    let mut life = Lifetime::default();
    for t in threads() {
        lat.merge(&t.lat);
        life.add(&t.life);
    }
    let sum = |f: fn(&ThreadStats) -> u64| threads().map(f).sum::<u64>();
    let shed = pacers().map(|p| p.shed).sum::<u64>();
    let completed = lat.len();
    let failed = sum(|t| t.aborts) + shed;
    let attempted = completed + failed;
    let ops_failed = sum(|t| t.abandoned) + shed;
    // CPU of the engine's work: the process's, minus what the pacer thread
    // and the workers' queue polling burned.
    let bench_cpu_ns = sum(|t| t.idle_cpu_ns) + pacers().map(|p| p.cpu_ns).sum::<u64>();
    let cpu_s = rounds.iter().map(|m| m.cpu_s).sum::<f64>() - bench_cpu_ns as f64 / 1e9;
    let measure_s = rounds.iter().map(|m| m.measure_s).sum::<f64>();
    let per = |count: u64| count as f64 / attempted.max(1) as f64;
    Summary {
        attempted,
        completed,
        ops: completed + ops_failed,
        ops_failed,
        txn_per_s: completed as f64 / measure_s,
        lat_p50_us: lat.quantile(0.50) / 1e3,
        lat_p95_us: lat.quantile(0.95) / 1e3,
        within_limit_frac: per(sum(|t| t.within_limit)),
        fail_frac: per(failed),
        cpu_us_per_txn: cpu_s * 1e6 / completed.max(1) as f64,
        life,
    }
}

impl Measured {
    /// One histogram over all threads.
    pub fn merged(&self, pick: impl Fn(&ThreadStats) -> &Hist) -> Hist {
        let mut out = Hist::new();
        for t in &self.threads {
            out.merge(pick(t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    use rand::Rng;
    use sli_engine::{BackendKind, PolicyKind};
    use sli_workloads::mix::MixEntry;

    use super::*;
    use crate::workload::db_config;

    /// Summary and parameter draws of `ops` operations of a one-entry mix
    /// whose submissions commit when `commits(submission number)` says so.
    fn run_flaky(ops: usize, commits: fn(u64) -> bool) -> (Summary, Vec<u64>) {
        let db = Database::open(db_config(BackendKind::Locked2pl, PolicyKind::Baseline));
        let draws = Arc::new(Mutex::new(Vec::new()));
        let (seen, calls) = (Arc::clone(&draws), AtomicU64::new(0));
        let entry = MixEntry {
            name: "flaky",
            weight: 1.0,
            run: Box::new(move |_, rng| {
                seen.lock().unwrap().push(rng.gen::<u64>());
                if commits(calls.fetch_add(1, Ordering::Relaxed)) {
                    Outcome::Commit
                } else {
                    Outcome::SysAbort
                }
            }),
        };
        let mix = MixedWorkload::new("m", vec![entry]);
        let plan = Plan {
            warmup: Duration::ZERO,
            measure: Duration::from_secs(3600),
            seed: 1,
            trace: false,
            limit_us: 1e9,
        };
        let tl = Timeline::new(&plan, Instant::now());
        let mut w = Worker::new(&mix, db.session(), &plan, tl, 0);
        for _ in 0..ops {
            w.one(tl.now(), false);
        }
        let measured = Measured {
            threads: vec![w.stats],
            measure_s: 1.0,
            cpu_s: 0.0,
            before: Counters::snapshot(&db),
            after: Counters::snapshot(&db),
            pacer: None,
        };
        let draws = draws.lock().unwrap().clone();
        (summarize(&[measured]), draws)
    }

    #[test]
    fn an_aborted_submission_is_a_failed_attempt_of_the_same_operation() {
        // Every third submission commits.
        let (s, draws) = run_flaky(4, |call| call % 3 == 2);
        assert_eq!(
            (s.ops, s.ops_failed, s.completed, s.attempted),
            (4, 0, 4, 12)
        );
        assert!((s.fail_frac - 8.0 / 12.0).abs() < 1e-12);
        assert!((s.within_limit_frac - 4.0 / 12.0).abs() < 1e-12);
        // A resubmission has the parameters of the submission it repeats;
        // the next operation has others.
        for op in draws.chunks(3) {
            assert_eq!([op[0], op[0]], [op[1], op[2]]);
        }
        assert_ne!(draws[0], draws[3]);
    }

    #[test]
    fn an_operation_that_never_completes_is_given_up_and_fails() {
        let (s, draws) = run_flaky(1, |_| false);
        assert_eq!(draws.len() as u64, MAX_SUBMISSIONS);
        assert_eq!(
            (s.ops, s.ops_failed, s.completed, s.attempted),
            (1, 1, 0, MAX_SUBMISSIONS)
        );
        assert_eq!(s.fail_frac, 1.0);
    }

    #[test]
    fn quantiles_interpolate_between_closest_ranks() {
        let q = [0.25, 0.5, 0.75];
        assert_eq!(quantiles(&[5.0, 1.0, 3.0, 2.0, 4.0], q), [2.0, 3.0, 4.0]);
        assert_eq!(quantiles(&[1.0, 2.0], q), [1.25, 1.5, 1.75]);
        assert_eq!(quantiles(&[7.0], q), [7.0; 3]);
        assert_eq!(quantiles(&[], q), [0.0; 3]);
    }
}
