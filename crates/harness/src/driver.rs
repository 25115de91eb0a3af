//! The engine bracket around `sli_traffic`'s load driver.
//!
//! [`sli_traffic::run_load`] owns the only worker loop, for the paper's
//! closed system of N agents and for open-loop storms alike: arrival
//! sources, phases, windowed telemetry and the [`Summary`]. This module
//! adds what needs the engine: an adapter that runs a [`MixedWorkload`]
//! on one session per worker, a profiler window per worker over exactly
//! its measured arrivals, and lock-manager and latch-parking deltas
//! around the measured phase. Every harness number, closed or open loop,
//! is therefore an armed number.
//!
//! [`Summary`]: sli_traffic::Summary

use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sli_engine::{Database, LockStatsSnapshot, Session};
use sli_latch::ParkingStats;
use sli_profiler::{Report, Tally};
use sli_traffic::{
    run_load, BenchArtifact, Dashboard, LoadConfig, LoadReport, Phase, TxnOutcome, Workload,
};
use sli_workloads::{MixedWorkload, Outcome};

use crate::setup::Knobs;

/// Collected results of one run.
#[derive(Debug)]
pub struct RunResult {
    /// The driver's report: configuration, windows and summary.
    pub load: LoadReport,
    /// Aggregated profiler breakdown over the measured arrivals.
    pub report: Report,
    /// Lock-manager counter delta over the measured phase.
    pub lock_delta: LockStatsSnapshot,
    /// Latch-parking counter delta over the measured phase
    /// (process-global: park/unpark/spin traffic from every latch in the
    /// engine).
    pub park_delta: ParkingStats,
}

impl RunResult {
    /// The paper's Figure 1 series: (lockmgr work, lockmgr contention) as
    /// fractions of cpu time.
    pub fn lockmgr_fractions(&self) -> (f64, f64) {
        self.report.lockmgr_overhead_and_contention()
    }

    /// Package this run as a benchmark artifact. Its config pairs are
    /// the caller's `config`, then every harness knob under its `SLI_*`
    /// name, then the driver's own settings. Callers `.emit(dir)` it.
    pub fn bench_artifact(
        &self,
        experiment: &str,
        workload: &str,
        knobs: &Knobs,
        mut config: Vec<(String, String)>,
    ) -> BenchArtifact {
        config.extend(knobs.config_pairs());
        self.load.artifact(experiment, workload, config)
    }
}

/// Drives a [`MixedWorkload`] from the load driver's worker pool: the
/// harness's one mapping of [`Outcome`] to [`TxnOutcome`].
struct EngineWorkload<'a> {
    db: &'a Arc<Database>,
    mix: &'a MixedWorkload,
    /// One profiler tally per worker.
    tallies: Mutex<Vec<Tally>>,
    /// Counter snapshots at the measure boundary and at the horizon.
    snapshots: Mutex<Vec<(LockStatsSnapshot, ParkingStats)>>,
}

impl Workload for EngineWorkload<'_> {
    type Worker = (Session, SmallRng);

    fn make_worker(&self, _worker_id: usize, seed: u64) -> Self::Worker {
        (self.db.session(), SmallRng::seed_from_u64(seed))
    }

    fn run_one(&self, (session, rng): &mut Self::Worker) -> TxnOutcome {
        match self.mix.run_one(session, rng).1 {
            Outcome::Commit => TxnOutcome::Commit,
            Outcome::UserFail => TxnOutcome::UserFail,
            Outcome::SysAbort => TxnOutcome::SysAbort,
        }
    }

    fn begin_measure(&self, _worker: &mut Self::Worker) {
        sli_profiler::reset();
    }

    fn retire(&self, _worker: Self::Worker) {
        // Empty for a worker that never opened its window: scopes on a
        // disarmed thread record nothing.
        let tally = sli_profiler::take_tally();
        self.tallies.lock().expect("tallies").push(tally);
    }

    fn phase(&self, _phase: Phase) {
        let snap = (self.db.lock_stats(), sli_latch::parking_stats());
        self.snapshots.lock().expect("snapshots").push(snap);
    }
}

/// Run `mix` against `db` under `cfg` — closed loop or open loop — and
/// collect the summary plus the engine-side breakdowns. Pass a
/// [`Dashboard`] to render the windows live.
pub fn run_workload(
    db: &Arc<Database>,
    mix: &MixedWorkload,
    cfg: &LoadConfig,
    dash: Option<&mut Dashboard>,
) -> RunResult {
    let engine = EngineWorkload {
        db,
        mix,
        tallies: Mutex::new(Vec::new()),
        snapshots: Mutex::new(Vec::new()),
    };
    let load = run_load(&engine, cfg, dash);
    let tallies = engine.tallies.into_inner().expect("tallies");
    let snapshots = engine.snapshots.into_inner().expect("snapshots");
    let [(lock_before, park_before), (lock_after, park_after)] = &snapshots[..] else {
        unreachable!("the driver calls the phase hook exactly twice");
    };
    RunResult {
        report: Report::from_tallies(&tallies, cfg.measure.as_nanos() as u64, cfg.workers),
        lock_delta: lock_after.delta(lock_before),
        park_delta: park_after.delta(park_before),
        load,
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
                a.load
                    .summary
                    .attempts_per_sec
                    .partial_cmp(&b.load.summary.attempts_per_sec)
                    .expect("throughputs are finite")
            })
            .expect("non-empty sweep")
    }
}

/// Sweep worker counts over `cfg` and return the structured per-step
/// results.
pub fn sweep_agents(
    db: &Arc<Database>,
    mix: &MixedWorkload,
    counts: &[usize],
    cfg: &LoadConfig,
) -> Sweep {
    Sweep {
        steps: counts
            .iter()
            .map(|&workers| {
                let cfg = LoadConfig {
                    workers,
                    ..cfg.clone()
                };
                run_workload(db, mix, &cfg, None)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::KNOB_HELP;
    use sli_engine::DatabaseConfig;
    use sli_traffic::{ArrivalPattern, Arrivals};
    use sli_workloads::tm1::Tm1;
    use std::time::Duration;

    fn closed(workers: usize, warmup_ms: u64, measure_ms: u64, seed: u64) -> LoadConfig {
        LoadConfig {
            arrivals: Arrivals::Closed,
            workers,
            warmup: Duration::from_millis(warmup_ms),
            measure: Duration::from_millis(measure_ms),
            seed,
        }
    }

    #[test]
    fn driver_measures_throughput_and_breakdown() {
        let db = sli_engine::Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::PaperSli,
        ));
        let tm1 = Tm1::load(&db, 1000, 1);
        let mix = tm1.ndbb_mix();
        let r = run_workload(&db, &mix, &closed(2, 30, 100, 1), None);
        let s = &r.load.summary;
        assert!(s.commits > 0, "some transactions must commit");
        assert!(s.attempts_per_sec > s.commits_per_sec * 0.99);
        assert!(r.report.tally.total() > 0, "profiler captured something");
        assert!(r.lock_delta.commits > 0);
        // Two agents for 100ms: potential = 200ms of cpu time.
        assert!(r.report.potential() >= 150_000_000);
        // The run carries a windowed trajectory and a latency summary
        // consistent with the counters.
        assert!(!r.load.windows.is_empty(), "telemetry produced windows");
        assert!(s.p50_ns > 0, "latency quantiles populated");
        assert!(s.p99_ns >= s.p50_ns);
        let window_total: u64 = r.load.windows.iter().map(|w| w.completions()).sum();
        assert!(window_total > 0);
        assert!(window_total <= s.completions());
        // The paper's accounting: commits + user fails, not sys aborts.
        let secs = s.measure_secs;
        assert!((s.attempts_per_sec - (s.commits + s.user_fails) as f64 / secs).abs() < 1e-6);
    }

    #[test]
    fn sweep_and_peak() {
        let db = sli_engine::Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::Baseline,
        ));
        let tm1 = Tm1::load(&db, 500, 2);
        let mix = tm1.single(sli_workloads::tm1::Tm1Txn::GetSubscriberData);
        let sweep = sweep_agents(&db, &mix, &[1, 2], &closed(1, 10, 50, 3));
        assert_eq!(sweep.steps.len(), 2);
        let p = sweep.peak();
        assert!(sweep
            .steps
            .iter()
            .all(|s| p.load.summary.attempts_per_sec >= s.load.summary.attempts_per_sec));
        assert_eq!(sweep.steps[0].load.config.workers, 1);
        assert_eq!(sweep.steps[1].load.config.workers, 2);
    }

    #[test]
    fn closed_loop_run_emits_a_valid_artifact_shape() {
        let db = sli_engine::Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::Baseline,
        ));
        let tm1 = Tm1::load(&db, 200, 1);
        let mix = tm1.ndbb_mix();
        let r = run_workload(&db, &mix, &closed(1, 10, 60, 5), None);
        let art = r.bench_artifact(
            "unit",
            "tm1-ndbb",
            &Knobs::smoke(),
            vec![("policy".into(), "baseline".into())],
        );
        let doc = art.to_json();
        let v = sli_traffic::json::parse(&doc).expect("artifact is valid JSON");
        assert_eq!(v.get("mode").unwrap().as_str(), Some("closed-loop"));
        assert!(v.get("windows").unwrap().as_arr().is_some());
        assert_eq!(
            v.get("summary").unwrap().get("commits").unwrap().as_num(),
            Some(r.load.summary.commits as f64)
        );
    }

    #[test]
    fn both_loops_arm_the_profiler_and_print_every_knob() {
        let knobs = Knobs::smoke();
        let db = sli_engine::Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::PaperSli,
        ));
        let tm1 = Tm1::load(&db, 500, 1);
        let mix = tm1.ndbb_mix();
        let open = LoadConfig {
            arrivals: Arrivals::Open {
                rate: 2000.0,
                pattern: ArrivalPattern::Constant,
                queue_cap: 1024,
            },
            ..closed(2, 20, 100, 9)
        };
        for (cfg, mode) in [(closed(2, 20, 100, 9), "closed-loop"), (open, "open-loop")] {
            let r = run_workload(&db, &mix, &cfg, None);
            assert!(r.load.summary.commits > 0, "{mode}: commits");
            assert!(r.report.tally.total() > 0, "{mode}: profiler armed");
            assert!(r.lock_delta.commits > 0, "{mode}: lock delta bracketed");
            let doc = r.bench_artifact("unit", mode, &knobs, Vec::new()).to_json();
            let v = sli_traffic::json::parse(&doc).expect("artifact is valid JSON");
            assert_eq!(v.get("mode").unwrap().as_str(), Some(mode));
            let config = v.get("config").unwrap();
            for name in KNOB_HELP
                .lines()
                .filter_map(|l| l.split_whitespace().next())
            {
                assert!(config.get(name).is_some(), "{mode} artifact lacks {name}");
            }
        }
    }
}
