//! Closed-loop workload driver with profiler collection.
//!
//! Since the traffic subsystem landed, the closed-loop driver is a thin
//! front-end over the same windowed-telemetry and artifact layer the
//! open-loop driver uses (`sli_traffic`): each agent records every
//! measured completion into a per-thread [`sli_traffic::Recorder`], so
//! a closed-loop run yields the same per-window trajectory
//! (throughput, abort breakdown, latency quantiles) and can emit the
//! same `BENCH_*.json` artifact as an open-loop storm. The legacy
//! aggregate counters (profiler tallies, lock-manager and parking
//! deltas) ride alongside unchanged.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sli_engine::Database;
use sli_profiler::{Report, Tally};
use sli_traffic::{BenchArtifact, Hist, Summary, Telemetry, TxnOutcome, WindowStats};
use sli_workloads::{MixedWorkload, Outcome};

/// Phases broadcast from the coordinator to the agents.
const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_STOP: u8 = 2;

/// One measurement run's parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of agent threads (the paper's "hardware contexts utilized").
    pub agents: usize,
    /// Warmup before the measurement window.
    pub warmup: Duration,
    /// Measurement window length.
    pub measure: Duration,
    /// RNG seed base (each agent derives its own stream).
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            agents: 4,
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(400),
            seed: 0xC0FFEE,
        }
    }
}

impl RunConfig {
    /// Telemetry window length for this run: an eighth of the measured
    /// phase, clamped to [10ms, 1s] — smoke runs still get several
    /// windows, long runs get the canonical one-second grid.
    fn window_ns(&self) -> u64 {
        ((self.measure.as_nanos() as u64) / 8).clamp(10_000_000, 1_000_000_000)
    }
}

/// Collected results of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Committed transactions per second in the window.
    pub commits_per_sec: f64,
    /// Completed attempts per second (commits + benchmark-expected
    /// failures; the paper's NDBB failure transactions count as completed
    /// work).
    pub attempts_per_sec: f64,
    /// Committed transactions in the window.
    pub commits: u64,
    /// Benchmark-expected user failures.
    pub user_fails: u64,
    /// Deadlock/timeout victims (not retried by the driver).
    pub sys_aborts: u64,
    /// Aggregated profiler breakdown for the window.
    pub report: Report,
    /// Lock-manager counter delta over the window.
    pub lock_delta: sli_engine::LockStatsSnapshot,
    /// Latch-parking counter delta over the window (process-global:
    /// park/unpark/spin traffic from every latch in the engine).
    pub park_delta: sli_latch::ParkingStats,
    /// Agents used.
    pub agents: usize,
    /// Per-window trajectory over the measured phase (same shape the
    /// open-loop driver produces; `offered`/`shed`/`depth` are zero for
    /// a closed loop).
    pub windows: Vec<WindowStats>,
    /// Whole-run summary with latency quantiles, mirroring the counter
    /// fields above.
    pub summary: Summary,
}

impl RunResult {
    /// The paper's Figure 1 series: (lockmgr work, lockmgr contention) as
    /// fractions of cpu time.
    pub fn lockmgr_fractions(&self) -> (f64, f64) {
        self.report.lockmgr_overhead_and_contention()
    }

    /// Package this run as a benchmark artifact (closed-loop mode).
    /// Callers append run-specific config pairs and `.emit(dir)` it.
    pub fn bench_artifact(
        &self,
        experiment: &str,
        workload: &str,
        mut config: Vec<(String, String)>,
    ) -> BenchArtifact {
        config.push(("agents".into(), self.agents.to_string()));
        BenchArtifact {
            experiment: experiment.to_string(),
            workload: workload.to_string(),
            mode: "closed-loop".into(),
            config,
            windows: self.windows.clone(),
            summary: self.summary.clone(),
        }
    }
}

struct AgentOutcome {
    commits: u64,
    user_fails: u64,
    sys_aborts: u64,
    tally: Tally,
}

fn txn_outcome(o: Outcome) -> TxnOutcome {
    match o {
        Outcome::Commit => TxnOutcome::Commit,
        Outcome::UserFail => TxnOutcome::UserFail,
        Outcome::SysAbort => TxnOutcome::SysAbort,
    }
}

/// Run `mix` against `db` under `cfg` and collect throughput + breakdowns.
pub fn run_workload(db: &Arc<Database>, mix: &MixedWorkload, cfg: &RunConfig) -> RunResult {
    let phase = Arc::new(AtomicU8::new(PHASE_WARMUP));
    let start_barrier = Arc::new(Barrier::new(cfg.agents + 1));
    let telemetry = Telemetry::new(cfg.window_ns());
    let epoch = Instant::now();

    let (results, wall, measure_start_ns, lock_delta, park_delta) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.agents);
        for a in 0..cfg.agents {
            let phase = Arc::clone(&phase);
            let barrier = Arc::clone(&start_barrier);
            let mut rec = telemetry.recorder();
            let seed = cfg.seed ^ (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            handles.push(scope.spawn(move || {
                let session = db.session();
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut commits = 0u64;
                let mut user_fails = 0u64;
                let mut sys_aborts = 0u64;
                barrier.wait();
                let mut measuring = false;
                loop {
                    match phase.load(Ordering::Acquire) {
                        PHASE_STOP => break,
                        PHASE_MEASURE if !measuring => {
                            // Entered the window: reset local accounting.
                            measuring = true;
                            commits = 0;
                            user_fails = 0;
                            sys_aborts = 0;
                            sli_profiler::reset();
                        }
                        _ => {}
                    }
                    let t0 = Instant::now();
                    let outcome = mix.run_one(&session, &mut rng).1;
                    if measuring {
                        // Closed-loop latency is pure service time (no
                        // admission queue to wait in).
                        rec.record(
                            epoch.elapsed().as_nanos() as u64,
                            txn_outcome(outcome),
                            t0.elapsed().as_nanos() as u64,
                        );
                    }
                    match outcome {
                        Outcome::Commit => commits += 1,
                        Outcome::UserFail => user_fails += 1,
                        Outcome::SysAbort => sys_aborts += 1,
                    }
                }
                rec.flush();
                let tally = sli_profiler::take_tally();
                AgentOutcome {
                    commits,
                    user_fails,
                    sys_aborts,
                    tally,
                }
            }));
        }
        start_barrier.wait();
        std::thread::sleep(cfg.warmup);
        let measure_start_ns = epoch.elapsed().as_nanos() as u64;
        phase.store(PHASE_MEASURE, Ordering::Release);
        let lock_before = db.lock_stats();
        let park_before = sli_latch::parking_stats();
        let t0 = Instant::now();
        std::thread::sleep(cfg.measure);
        let wall = t0.elapsed();
        let lock_after = db.lock_stats();
        let park_after = sli_latch::parking_stats();
        phase.store(PHASE_STOP, Ordering::Release);
        let outcomes: Vec<AgentOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("agent"))
            .collect();
        (
            outcomes,
            wall,
            measure_start_ns,
            lock_after.delta(&lock_before),
            park_after.delta(&park_before),
        )
    });

    let commits: u64 = results.iter().map(|r| r.commits).sum();
    let user_fails: u64 = results.iter().map(|r| r.user_fails).sum();
    let sys_aborts: u64 = results.iter().map(|r| r.sys_aborts).sum();
    let secs = wall.as_secs_f64();
    let report = Report::from_tallies(
        results.iter().map(|r| &r.tally),
        wall.as_nanos() as u64,
        cfg.agents,
    );

    // Windowed trajectory: every sample was recorded during the
    // measured phase, so rebase window ids to the measure boundary.
    let window_ns = telemetry.window_ns();
    let base_wid = measure_start_ns / window_ns;
    let (cores, late) = telemetry.drain_rest();
    let mut total_hist = Hist::new();
    let mut windows = Vec::with_capacity(cores.len());
    for (wid, core) in &cores {
        if let Some(h) = &core.hist {
            total_hist.merge(h);
        }
        windows.push(WindowStats::from_core(
            wid.saturating_sub(base_wid),
            core,
            0,
            0,
            0,
        ));
    }
    if let Some(h) = &late.hist {
        total_hist.merge(h);
    }

    let mut summary = Summary {
        measure_secs: secs,
        commits,
        user_fails,
        sys_aborts,
        commits_per_sec: commits as f64 / secs,
        attempts_per_sec: (commits + user_fails) as f64 / secs,
        ..Summary::default()
    };
    summary.set_latency(&total_hist);

    RunResult {
        commits_per_sec: commits as f64 / secs,
        attempts_per_sec: (commits + user_fails) as f64 / secs,
        commits,
        user_fails,
        sys_aborts,
        report,
        lock_delta,
        park_delta,
        agents: cfg.agents,
        windows,
        summary,
    }
}

/// Structured output of an agent sweep: one run result per agent count.
#[derive(Debug)]
pub struct Sweep {
    /// Steps in ladder order.
    pub steps: Vec<RunResult>,
}

impl Sweep {
    /// The step with the highest attempts/sec (the paper's "peak
    /// throughput" point).
    pub fn peak(&self) -> &RunResult {
        self.steps
            .iter()
            .max_by(|a, b| {
                a.attempts_per_sec
                    .partial_cmp(&b.attempts_per_sec)
                    .expect("throughputs are finite")
            })
            .expect("non-empty sweep")
    }
}

/// Sweep agent counts and return the structured per-step results.
pub fn sweep_agents(
    db: &Arc<Database>,
    mix: &MixedWorkload,
    counts: &[usize],
    cfg: &RunConfig,
) -> Sweep {
    Sweep {
        steps: counts
            .iter()
            .map(|&agents| {
                let cfg = RunConfig {
                    agents,
                    ..cfg.clone()
                };
                run_workload(db, mix, &cfg)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_engine::DatabaseConfig;
    use sli_workloads::tm1::Tm1;

    #[test]
    fn driver_measures_throughput_and_breakdown() {
        let db = sli_engine::Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::PaperSli,
        ));
        let tm1 = Tm1::load(&db, 1000, 1);
        let mix = tm1.ndbb_mix();
        let cfg = RunConfig {
            agents: 2,
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(100),
            seed: 1,
        };
        let r = run_workload(&db, &mix, &cfg);
        assert!(r.commits > 0, "some transactions must commit");
        assert!(r.attempts_per_sec > r.commits_per_sec * 0.99);
        assert!(r.report.tally.total() > 0, "profiler captured something");
        assert!(r.lock_delta.commits > 0);
        // Two agents for 100ms: potential = 200ms of cpu time.
        assert!(r.report.potential() >= 150_000_000);
        // The run now carries a windowed trajectory and a latency
        // summary consistent with the counters.
        assert!(!r.windows.is_empty(), "telemetry produced windows");
        assert_eq!(r.summary.commits, r.commits);
        assert!(r.summary.p50_ns > 0, "latency quantiles populated");
        assert!(r.summary.p99_ns >= r.summary.p50_ns);
        let window_total: u64 = r.windows.iter().map(|w| w.completions()).sum();
        assert!(window_total > 0);
        assert!(window_total <= r.commits + r.user_fails + r.sys_aborts);
    }

    #[test]
    fn sweep_and_peak() {
        let db = sli_engine::Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::Baseline,
        ));
        let tm1 = Tm1::load(&db, 500, 2);
        let mix = tm1.single(sli_workloads::tm1::Tm1Txn::GetSubscriberData);
        let cfg = RunConfig {
            agents: 1,
            warmup: Duration::from_millis(10),
            measure: Duration::from_millis(50),
            seed: 3,
        };
        let sweep = sweep_agents(&db, &mix, &[1, 2], &cfg);
        assert_eq!(sweep.steps.len(), 2);
        let p = sweep.peak();
        assert!(sweep
            .steps
            .iter()
            .all(|s| p.attempts_per_sec >= s.attempts_per_sec));
        assert_eq!(sweep.steps[0].agents, 1);
        assert_eq!(sweep.steps[1].agents, 2);
    }

    #[test]
    fn closed_loop_run_emits_a_valid_artifact_shape() {
        let db = sli_engine::Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::Baseline,
        ));
        let tm1 = Tm1::load(&db, 200, 1);
        let mix = tm1.ndbb_mix();
        let cfg = RunConfig {
            agents: 1,
            warmup: Duration::from_millis(10),
            measure: Duration::from_millis(60),
            seed: 5,
        };
        let r = run_workload(&db, &mix, &cfg);
        let art = r.bench_artifact(
            "unit",
            "tm1-ndbb",
            vec![("policy".into(), "baseline".into())],
        );
        let doc = art.to_json();
        let v = sli_traffic::json::parse(&doc).expect("artifact is valid JSON");
        assert_eq!(v.get("mode").unwrap().as_str(), Some("closed-loop"));
        assert!(v.get("windows").unwrap().as_arr().is_some());
        assert_eq!(
            v.get("summary").unwrap().get("commits").unwrap().as_num(),
            Some(r.commits as f64)
        );
    }
}
