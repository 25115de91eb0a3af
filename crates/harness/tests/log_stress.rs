//! Log-stress gate: the scalable log front-end must *group* commits
//! under open-loop TPC-B traffic without giving anything back — zero
//! shed arrivals, and an open-loop commit p95 no worse than the
//! closed-loop baseline measured on the same database (closed-loop
//! committers saturate every flush, so their p95 is the convoying
//! worst case the ring was built to beat).
//!
//! The device simulates a 1 ms fsync so the group-commit pipeline is
//! real: at the calibrated rate, several committers ride each flush
//! (mean group size > 1) and they wait *parked*, not spinning on the
//! flush mutex.

use sli_engine::Database;
use sli_harness::driver::{run_workload, RunConfig};
use sli_harness::setup::{db_config, LoadedWorkload};
use sli_harness::traffic::{storm, TrafficKnobs};
use sli_harness::Knobs;
use sli_traffic::ArrivalPattern;
use sli_workloads::tpcb::TpcB;

use std::time::Duration;

const WORKERS: usize = 8;
const FSYNC: Duration = Duration::from_millis(1);

#[test]
fn open_loop_tpcb_groups_commits_without_shedding() {
    // Emit artifacts into a scratch dir.
    let dir = std::env::temp_dir().join(format!("sli-log-stress-{}", std::process::id()));
    let mut knobs = Knobs {
        warmup: Duration::from_millis(300),
        bench_dir: Some(dir),
        ..Knobs::smoke()
    };
    let mut cfg = db_config(&knobs, false);
    cfg.log.flush_latency = FSYNC;
    let db = Database::open(cfg);
    let tpcb = TpcB::load(&db, knobs.tpcb_branches, knobs.tpcb_accounts);
    let w = LoadedWorkload {
        label: "TPC-B",
        db,
        mix: tpcb.workload(),
    };

    // Closed-loop baseline: WORKERS looping committers on the same slow
    // device. This measures the knee-side worst case — every commit
    // competes for every flush — and calibrates capacity for the storm.
    let cal = run_workload(
        &w.db,
        &w.mix,
        &RunConfig {
            agents: WORKERS,
            warmup: Duration::from_millis(200),
            measure: Duration::from_secs(1),
            seed: 0xCA11B,
        },
    );
    let capacity = cal.attempts_per_sec;
    let closed_p95 = cal.summary.p95_ns;
    assert!(capacity > 0.0 && closed_p95 > 0, "calibration ran");

    // Open-loop storm at the highest ladder rung below the knee (the
    // traffic ladder diverges at ~1.0x closed-loop capacity).
    let rate = (0.6 * capacity).max(50.0);
    knobs.traffic = TrafficKnobs {
        rate: Some(rate),
        pattern: ArrivalPattern::Constant,
        soak: Some(Duration::from_secs(2)),
        queue_cap: 4096,
        workers: WORKERS,
        window_ms: 250,
    };
    let before = w.db.log_stats();
    let report = storm(&w, "baseline", &knobs, rate, false);
    let after = w.db.log_stats();
    let s = &report.summary;

    // Nothing given back: the front-end absorbed the offered rate.
    assert_eq!(s.shed, 0, "shed arrivals at {rate:.0}/s");
    assert!(
        s.final_depth < knobs.traffic.queue_cap as u64 / 2,
        "backlog {} diverging",
        s.final_depth
    );

    // The pipeline actually grouped: several commits per physical fsync.
    let commits = after.commits - before.commits;
    let flushes = after.flushes - before.flushes;
    assert!(flushes > 0, "no flushes during the storm");
    let group = commits as f64 / flushes as f64;
    assert!(
        group > 1.0,
        "mean group size {group:.2} ({commits} commits / {flushes} flushes)"
    );

    // Committers waited parked on the queue, not spinning on a latch.
    assert!(
        after.commit_parks > before.commit_parks,
        "no committer ever parked"
    );

    // Open-loop commit p95 (measured from scheduled arrival, so it
    // includes queueing) stays under the closed-loop baseline: the
    // parked queue + pipelined flusher must not cost latency relative
    // to saturated convoying. Generous 1.5x margin for CI jitter.
    assert!(
        (s.p95_ns as f64) < 1.5 * closed_p95 as f64,
        "open-loop p95 {:.1}us vs closed-loop {:.1}us",
        s.p95_ns as f64 / 1e3,
        closed_p95 as f64 / 1e3
    );
}
