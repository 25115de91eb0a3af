//! Open-loop smoke: a short real-engine storm must sustain its
//! configured arrival rate with bounded backlog, and the emitted
//! `BENCH_*.json` artifact must parse with every required key.
//!
//! Rates and tolerances are sized for a 1-core CI container: TPC-B
//! transactions cost tens of microseconds here, so 400/s is far below
//! capacity and the assertions are about *correct accounting*, not
//! about squeezing the engine.

use std::path::Path;
use std::time::Duration;

use sli_harness::traffic::{storm, TrafficKnobs};
use sli_harness::Knobs;
use sli_traffic::{json, ArrivalPattern};

/// Smoke knobs: a 2 s constant-rate storm after a 500 ms warm-up,
/// emitting its artifact into `dir`.
fn smoke_knobs(dir: &Path) -> Knobs {
    Knobs {
        warmup: Duration::from_millis(500),
        traffic: TrafficKnobs {
            rate: None,
            pattern: ArrivalPattern::Constant,
            soak: Some(Duration::from_secs(2)),
            queue_cap: 1024,
            workers: 2,
        },
        bench_dir: Some(dir.to_path_buf()),
        ..Knobs::smoke()
    }
}

#[test]
fn storm_sustains_configured_rate_and_emits_valid_artifact() {
    const RATE: f64 = 400.0;
    // Emit into a scratch dir so the artifact path is exercised
    // end-to-end.
    let dir = std::env::temp_dir().join(format!("sli-bench-smoke-{}", std::process::id()));
    let knobs = smoke_knobs(&dir);
    let w = sli_harness::setup::tpcb_workload(&knobs, false);

    let r = storm(&w, "baseline", &knobs, RATE, false);
    let report = &r.load;
    let s = &report.summary;

    // Offered load matches the schedule: constant pattern, 2s measure.
    let expected = RATE * s.measure_secs;
    assert!(
        (s.offered as f64 - expected).abs() <= expected * 0.05 + 2.0,
        "offered {} vs expected {expected}",
        s.offered
    );
    assert!(
        (s.offered_per_sec - RATE).abs() <= RATE * 0.05,
        "offered rate {} vs configured {RATE}",
        s.offered_per_sec
    );

    // Far below capacity: nothing shed, a small backlog when arrivals
    // stop, and every measured arrival completes (the summary counts an
    // arrival in the phase it was scheduled in, so this is exact).
    assert_eq!(s.shed, 0, "no shedding at 400/s");
    assert!(
        (s.final_depth as usize) < knobs.traffic.queue_cap / 2,
        "no divergence: depth {} at the horizon",
        s.final_depth
    );
    assert_eq!(s.completions(), s.offered, "backlog drained");

    // Latency quantiles are populated and ordered.
    assert!(s.p50_ns > 0);
    assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns);

    // Windows cover the measured phase.
    assert!(
        report.windows.len() as u64 >= 2_000_000_000 / report.config.window_ns(),
        "expected full window coverage, got {}",
        report.windows.len()
    );

    // The artifact landed on disk and is valid JSON with the required keys.
    let path = dir.join("BENCH_traffic_tpc-b-baseline-r400.json");
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("artifact {} missing: {e}", path.display()));
    let v = json::parse(&doc).expect("artifact parses as JSON");
    for key in [
        "schema",
        "experiment",
        "workload",
        "mode",
        "config",
        "windows",
        "summary",
    ] {
        assert!(v.get(key).is_some(), "artifact missing key {key:?}");
    }
    assert_eq!(v.get("schema").unwrap().as_str(), Some("sli-bench/v1"));
    assert_eq!(v.get("mode").unwrap().as_str(), Some("open-loop"));
    let summary = v.get("summary").unwrap();
    for key in [
        "measure_secs",
        "commits",
        "user_fails",
        "sys_aborts",
        "commits_per_sec",
        "attempts_per_sec",
        "offered",
        "offered_per_sec",
        "shed",
        "final_depth",
        "p50_ns",
        "p95_ns",
        "p99_ns",
        "max_ns",
        "mean_ns",
    ] {
        assert!(summary.get(key).is_some(), "summary missing key {key:?}");
    }
    // The emitted summary matches the in-memory report.
    assert_eq!(
        summary.get("commits").unwrap().as_num(),
        Some(s.commits as f64)
    );
    assert_eq!(
        summary.get("offered").unwrap().as_num(),
        Some(s.offered as f64)
    );
    let windows = v.get("windows").unwrap().as_arr().unwrap();
    assert_eq!(windows.len(), report.windows.len());
    let win_commits: f64 = windows
        .iter()
        .map(|w| w.get("commits").unwrap().as_num().unwrap())
        .sum();
    assert!(win_commits > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}
