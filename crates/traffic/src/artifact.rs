//! Machine-readable benchmark artifacts: `BENCH_<experiment>_<workload>.json`.
//!
//! Every run — open-loop traffic storm or closed-loop agent sweep —
//! funnels through the same [`BenchArtifact`] shape: the configuration
//! that produced the run, the per-window time series, and a summary
//! that matches the printed report. Artifacts make a run's *trajectory*
//! inspectable after the fact (did backlog diverge gradually or fall
//! off a cliff? was p99 noisy or flat?), not just its endpoint.
//!
//! The caller names the output directory ([`BenchArtifact::emit`]); this
//! crate reads no environment. The harness takes it from its
//! `SLI_BENCH_DIR` knob, default `bench-artifacts/`, so `cargo run -p
//! sli-harness -- traffic` always leaves artifacts behind.

use std::path::{Path, PathBuf};

use crate::hist::Hist;
use crate::json::JsonWriter;
use crate::telemetry::WindowCore;

/// One window of a run's time series, flattened for reporting.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Window id (seconds from the run epoch for 1s windows).
    pub index: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Benchmark-expected user failures.
    pub user_fails: u64,
    /// System aborts (deadlock/timeout victims).
    pub sys_aborts: u64,
    /// Arrivals scheduled into this window.
    pub offered: u64,
    /// Arrivals shed in this window (queue full).
    pub shed: u64,
    /// Admission-queue depth sampled at window end.
    pub depth: u64,
    /// Latency quantiles over the window's completions, ns.
    pub p50_ns: u64,
    /// 95th percentile latency, ns.
    pub p95_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// Exact maximum latency, ns.
    pub max_ns: u64,
    /// Exact mean latency, ns.
    pub mean_ns: f64,
}

impl WindowStats {
    /// Flatten a merged [`WindowCore`] plus driver-side gauges.
    pub fn from_core(index: u64, core: &WindowCore, offered: u64, shed: u64, depth: u64) -> Self {
        let (p50, p95, p99, max, mean) = match &core.hist {
            Some(h) => (
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max(),
                h.mean(),
            ),
            None => (0, 0, 0, 0, 0.0),
        };
        WindowStats {
            index,
            commits: core.commits,
            user_fails: core.user_fails,
            sys_aborts: core.sys_aborts,
            offered,
            shed,
            depth,
            p50_ns: p50,
            p95_ns: p95,
            p99_ns: p99,
            max_ns: max,
            mean_ns: mean,
        }
    }

    /// Completed attempts in this window.
    pub fn completions(&self) -> u64 {
        self.commits + self.user_fails + self.sys_aborts
    }
}

/// Whole-run summary, mirroring what the console report prints.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Measured-phase wall time, seconds.
    pub measure_secs: f64,
    /// Total commits in the measured phase.
    pub commits: u64,
    /// Total benchmark-expected user failures.
    pub user_fails: u64,
    /// Total system aborts.
    pub sys_aborts: u64,
    /// Commits per second over the measured phase.
    pub commits_per_sec: f64,
    /// Completed work per second over the measured phase: commits plus
    /// benchmark-expected user failures (the paper's accounting; system
    /// aborts are not completed work).
    pub attempts_per_sec: f64,
    /// Arrivals scheduled during the measured phase (a closed loop
    /// admits every one, so there it equals `completions()`).
    pub offered: u64,
    /// Offered arrival rate per second.
    pub offered_per_sec: f64,
    /// Arrivals shed during the measured phase.
    pub shed: u64,
    /// Admission-queue depth at the end of the measured phase.
    pub final_depth: u64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 95th percentile latency, ns.
    pub p95_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// Exact maximum latency, ns.
    pub max_ns: u64,
    /// Exact mean latency, ns.
    pub mean_ns: f64,
}

impl Summary {
    /// Completed attempts (commits + user fails + sys aborts).
    pub fn completions(&self) -> u64 {
        self.commits + self.user_fails + self.sys_aborts
    }

    /// Fill the latency fields from the run's merged histogram; an empty
    /// histogram leaves them zero.
    pub fn set_latency(&mut self, hist: &Hist) {
        if hist.is_empty() {
            return;
        }
        self.p50_ns = hist.quantile(0.50);
        self.p95_ns = hist.quantile(0.95);
        self.p99_ns = hist.quantile(0.99);
        self.max_ns = hist.max();
        self.mean_ns = hist.mean();
    }
}

/// A complete benchmark artifact, serialized as one JSON document.
#[derive(Clone, Debug)]
pub struct BenchArtifact {
    /// Experiment name (first filename component).
    pub experiment: String,
    /// Workload label (second filename component).
    pub workload: String,
    /// `"open-loop"` or `"closed-loop"`.
    pub mode: String,
    /// Free-form configuration pairs (policy, rate, agents, seed, ...).
    pub config: Vec<(String, String)>,
    /// Per-window time series, in window order.
    pub windows: Vec<WindowStats>,
    /// Whole-run summary.
    pub summary: Summary,
}

impl BenchArtifact {
    /// Serialize to a JSON document (always available, even when
    /// emission is disabled — tests validate through this).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .kv_str("schema", "sli-bench/v1")
            .kv_str("experiment", &self.experiment)
            .kv_str("workload", &self.workload)
            .kv_str("mode", &self.mode);
        w.key("config").begin_object();
        for (k, v) in &self.config {
            w.kv_str(k, v);
        }
        w.end_object();
        w.key("windows").begin_array();
        for win in &self.windows {
            w.begin_object()
                .kv_uint("index", win.index)
                .kv_uint("commits", win.commits)
                .kv_uint("user_fails", win.user_fails)
                .kv_uint("sys_aborts", win.sys_aborts)
                .kv_uint("offered", win.offered)
                .kv_uint("shed", win.shed)
                .kv_uint("depth", win.depth)
                .kv_uint("p50_ns", win.p50_ns)
                .kv_uint("p95_ns", win.p95_ns)
                .kv_uint("p99_ns", win.p99_ns)
                .kv_uint("max_ns", win.max_ns)
                .kv_float("mean_ns", win.mean_ns)
                .end_object();
        }
        w.end_array();
        let s = &self.summary;
        w.key("summary")
            .begin_object()
            .kv_float("measure_secs", s.measure_secs)
            .kv_uint("commits", s.commits)
            .kv_uint("user_fails", s.user_fails)
            .kv_uint("sys_aborts", s.sys_aborts)
            .kv_float("commits_per_sec", s.commits_per_sec)
            .kv_float("attempts_per_sec", s.attempts_per_sec)
            .kv_uint("offered", s.offered)
            .kv_float("offered_per_sec", s.offered_per_sec)
            .kv_uint("shed", s.shed)
            .kv_uint("final_depth", s.final_depth)
            .kv_uint("p50_ns", s.p50_ns)
            .kv_uint("p95_ns", s.p95_ns)
            .kv_uint("p99_ns", s.p99_ns)
            .kv_uint("max_ns", s.max_ns)
            .kv_float("mean_ns", s.mean_ns)
            .end_object();
        w.end_object();
        w.finish()
    }

    /// The artifact's filename: `BENCH_<experiment>_<workload>.json`
    /// with both components slugified.
    pub fn filename(&self) -> String {
        format!(
            "BENCH_{}_{}.json",
            slug(&self.experiment),
            slug(&self.workload)
        )
    }

    /// Write the artifact into `dir`, creating it if needed. Returns the
    /// written path, or `None` when `dir` is `None` (emission disabled).
    /// IO errors are reported to stderr, not fatal — a full disk should
    /// not kill a finished benchmark.
    pub fn emit(&self, dir: Option<&Path>) -> Option<PathBuf> {
        let dir = dir?;
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("sli-traffic: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(self.filename());
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("sli-traffic: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// Lowercase, and map anything outside `[a-z0-9._-]` to `-`, squeezing
/// runs so labels like "TPC-B (branches=4)" make portable filenames.
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_dash = false;
    for c in s.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() || c == '.' || c == '_' {
            out.push(c);
            last_dash = false;
        } else if !last_dash && !out.is_empty() {
            out.push('-');
            last_dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> BenchArtifact {
        BenchArtifact {
            experiment: "traffic".into(),
            workload: "TPC-B (branches=4)".into(),
            mode: "open-loop".into(),
            config: vec![
                ("policy".into(), "paper-sli".into()),
                ("rate".into(), "2000".into()),
            ],
            windows: vec![WindowStats {
                index: 0,
                commits: 10,
                user_fails: 1,
                sys_aborts: 2,
                offered: 14,
                shed: 1,
                depth: 3,
                p50_ns: 1000,
                p95_ns: 2000,
                p99_ns: 3000,
                max_ns: 3500,
                mean_ns: 1200.5,
            }],
            summary: Summary {
                measure_secs: 1.0,
                commits: 10,
                user_fails: 1,
                sys_aborts: 2,
                commits_per_sec: 10.0,
                attempts_per_sec: 13.0,
                offered: 14,
                offered_per_sec: 14.0,
                shed: 1,
                final_depth: 3,
                p50_ns: 1000,
                p95_ns: 2000,
                p99_ns: 3000,
                max_ns: 3500,
                mean_ns: 1200.5,
            },
        }
    }

    #[test]
    fn artifact_round_trips_through_the_parser() {
        let doc = sample().to_json();
        let v = json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("sli-bench/v1"));
        assert_eq!(v.get("mode").unwrap().as_str(), Some("open-loop"));
        let windows = v.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].get("commits").unwrap().as_num(), Some(10.0));
        let summary = v.get("summary").unwrap();
        assert_eq!(
            summary.get("attempts_per_sec").unwrap().as_num(),
            Some(13.0)
        );
        assert_eq!(
            v.get("config").unwrap().get("policy").unwrap().as_str(),
            Some("paper-sli")
        );
    }

    #[test]
    fn filename_is_slugged() {
        assert_eq!(sample().filename(), "BENCH_traffic_tpc-b-branches-4.json");
    }

    #[test]
    fn slug_squeezes_and_trims() {
        assert_eq!(slug("TPC-C  3x3 (mix)"), "tpc-c-3x3-mix");
        assert_eq!(slug("plain_label.v2"), "plain_label.v2");
    }
}
