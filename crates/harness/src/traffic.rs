//! The open-loop `traffic` experiment: rate ladders against the engine.
//!
//! Closed-loop sweeps (the `fig*` experiments) measure *capacity* — how
//! fast N looping agents can go. This experiment measures *behaviour
//! under offered load*: a seeded arrival schedule fires transactions at
//! the engine at a fixed rate whether or not it keeps up, and the
//! per-window telemetry shows what gives way first — latency, backlog,
//! or (once the admission queue fills) shed arrivals.
//!
//! The ladder climbs fractions of a measured closed-loop capacity
//! estimate — measured by the same driver, with the same profiler window
//! and the same `attempts_per_sec` as the storms, so rung and capacity
//! share one ruler; the **knee** is the first rung where the run diverges
//! (shedding, a backlog that never drains, or achieved throughput
//! falling well short of offered). Comparing the Baseline and PaperSli
//! knees turns the paper's "SLI raises peak throughput" claim into a
//! "SLI sustains a higher offered rate" claim, which is the form an
//! operator actually cares about.
//!
//! The environment knobs (`SLI_TRAFFIC_RATE`, `SLI_TRAFFIC_PATTERN`,
//! `SLI_TRAFFIC_SOAK_SECS`, `SLI_TRAFFIC_WORKERS`) are read into
//! [`TrafficKnobs`] by [`Knobs::from_lookup`](crate::setup::Knobs::from_lookup).

use std::time::Duration;

use sli_traffic::{ArrivalPattern, Arrivals, Dashboard, LoadConfig};

use crate::driver::{run_workload, RunResult};
use crate::setup::{tpcb_workload, tpcc_workloads, Knobs, LoadedWorkload};

/// Open-loop settings, part of [`Knobs`].
#[derive(Clone, Debug)]
pub struct TrafficKnobs {
    /// Fixed rate override (`SLI_TRAFFIC_RATE`), else the capacity ladder.
    pub rate: Option<f64>,
    /// Arrival pattern (`SLI_TRAFFIC_PATTERN`).
    pub pattern: ArrivalPattern,
    /// Fixed measure-phase length (`SLI_TRAFFIC_SOAK_SECS`), for a soak
    /// run; `None` measures [`Knobs::measure`], floored at 2 s (see
    /// [`Knobs::traffic_measure`]).
    pub soak: Option<Duration>,
    /// Admission-queue bound (4096).
    pub queue_cap: usize,
    /// Worker-pool size (`SLI_TRAFFIC_WORKERS`).
    pub workers: usize,
}

/// One rung of the traffic ladder.
#[derive(Clone, Debug)]
pub struct TrafficRow {
    /// Workload label.
    pub workload: &'static str,
    /// Lock policy label (`baseline` / `paper-sli`).
    pub policy: &'static str,
    /// Offered arrival rate, per second.
    pub offered_rate: f64,
    /// Achieved completion rate, per second.
    pub achieved_rate: f64,
    /// Arrivals shed in the measured phase.
    pub shed: u64,
    /// Admission-queue depth at the end of the measured phase.
    pub final_depth: u64,
    /// p95 latency (from scheduled arrival), ns.
    pub p95_ns: u64,
    /// p99 latency (from scheduled arrival), ns.
    pub p99_ns: u64,
    /// Whether this rung diverged (the knee criterion).
    pub diverged: bool,
}

/// The knee criterion: a rung diverges when arrivals are shed, when the
/// backlog at the end of the measured phase exceeds half the queue
/// bound (it would have diverged with any finite queue), or when
/// achieved throughput falls more than 10% short of offered.
pub fn diverged(summary: &sli_traffic::Summary, queue_cap: usize) -> bool {
    summary.shed > 0
        || summary.final_depth as usize > queue_cap / 2
        || summary.attempts_per_sec < 0.9 * summary.offered_per_sec
}

/// Run one open-loop storm against a loaded workload, after a warm-up
/// of `knobs.warmup`, and emit its artifact into `knobs.bench_dir`.
/// Public so the smoke test and the experiment share a path.
pub fn storm(
    w: &LoadedWorkload,
    policy: &'static str,
    knobs: &Knobs,
    rate: f64,
    live: bool,
) -> RunResult {
    let t = &knobs.traffic;
    let cfg = LoadConfig {
        arrivals: Arrivals::Open {
            rate,
            pattern: t.pattern,
            queue_cap: t.queue_cap,
        },
        workers: t.workers,
        warmup: knobs.warmup,
        measure: knobs.traffic_measure(),
        seed: 0x51AF_F1C0,
    };
    let mut dash = Dashboard::new(format!(
        "{} [{policy}] @{rate:.0}/s {}",
        w.label,
        t.pattern.name()
    ));
    let log_before = w.db.log_stats();
    let r = run_workload(&w.db, &w.mix, &cfg, live.then_some(&mut dash));
    // Group-commit telemetry for the storm: how well the log front-end
    // batched this rung's committers.
    let log_after = w.db.log_stats();
    let commits = log_after.commits - log_before.commits;
    let flushes = log_after.flushes - log_before.flushes;
    let group = if flushes > 0 {
        commits as f64 / flushes as f64
    } else {
        0.0
    };
    println!(
        "   log: {commits} commits / {flushes} flushes (group {group:.1}), {} parks, {} steals",
        log_after.commit_parks - log_before.commit_parks,
        log_after.steals - log_before.steals,
    );
    let artifact = r.bench_artifact(
        "traffic",
        &format!("{}-{policy}-r{rate:.0}", w.label),
        knobs,
        vec![
            ("policy".into(), policy.into()),
            ("log_commits".into(), commits.to_string()),
            ("log_flushes".into(), flushes.to_string()),
            ("log_group_mean".into(), format!("{group:.2}")),
        ],
    );
    if let Some(path) = artifact.emit(knobs.bench_dir.as_deref()) {
        println!("artifact: {}", path.display());
    }
    r
}

/// The `traffic` experiment: calibrate capacity closed-loop, then climb
/// an offered-rate ladder open-loop, Baseline vs PaperSli, on TPC-B and
/// the TPC-C small mix. Reports the knee where backlog diverges.
pub fn traffic(knobs: &Knobs) -> Vec<TrafficRow> {
    let t = &knobs.traffic;
    println!(
        "\n== Traffic: open-loop rate ladder ({} pattern, {} workers, queue {}) ==",
        t.pattern.name(),
        t.workers,
        t.queue_cap
    );
    let mut rows = Vec::new();
    for (label, sli, policy) in [
        ("TPC-B", false, "baseline"),
        ("TPC-B", true, "paper-sli"),
        ("TPCC-Small", false, "baseline"),
        ("TPCC-Small", true, "paper-sli"),
    ] {
        let w = if label == "TPC-B" {
            tpcb_workload(knobs, sli)
        } else {
            let mut v = tpcc_workloads(knobs, sli, &["SmallMix"]);
            let mut lw = v.remove(0);
            lw.label = "TPCC-Small";
            lw
        };
        // Capacity estimate: a short closed loop at the worker count the
        // open loop will use, counted the way the knee counts.
        let cal = run_workload(&w.db, &w.mix, &knobs.closed_loop(t.workers), None);
        let capacity = cal.load.summary.attempts_per_sec;
        println!(
            "\n-- {label} [{policy}]: closed-loop capacity ≈ {capacity:.0}/s with {} workers --",
            t.workers
        );
        let ladder: Vec<f64> = match t.rate {
            Some(r) => vec![r],
            None => [0.5, 0.8, 1.0, 1.2]
                .iter()
                .map(|f| (f * capacity).max(1.0))
                .collect(),
        };
        let mut knee: Option<f64> = None;
        for rate in ladder {
            let r = storm(&w, policy, knobs, rate, true);
            let s = &r.load.summary;
            let div = diverged(s, t.queue_cap);
            if div && knee.is_none() {
                knee = Some(rate);
            }
            rows.push(TrafficRow {
                workload: w.label,
                policy,
                offered_rate: s.offered_per_sec,
                achieved_rate: s.attempts_per_sec,
                shed: s.shed,
                final_depth: s.final_depth,
                p95_ns: s.p95_ns,
                p99_ns: s.p99_ns,
                diverged: div,
            });
        }
        match knee {
            Some(r) => println!(
                ">> {label} [{policy}]: knee at {r:.0}/s offered ({:.0}% of closed-loop capacity)",
                r / capacity * 100.0
            ),
            None => println!(">> {label} [{policy}]: no divergence up to the top of the ladder"),
        }
    }
    println!(
        "\n{:>12} {:>10} {:>10} {:>10} {:>7} {:>7} {:>9} {:>9} {:>6}",
        "workload", "policy", "offered/s", "achieved/s", "shed", "depth", "p95us", "p99us", "knee"
    );
    for r in &rows {
        println!(
            "{:>12} {:>10} {:>10.0} {:>10.0} {:>7} {:>7} {:>9.1} {:>9.1} {:>6}",
            r.workload,
            r.policy,
            r.offered_rate,
            r.achieved_rate,
            r.shed,
            r.final_depth,
            r.p95_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            if r.diverged { "yes" } else { "" }
        );
    }
    rows
}
