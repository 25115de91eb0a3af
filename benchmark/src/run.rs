//! One benchmark run = one process: a measured run (`--trace 0`, the
//! end-to-end metrics) or a traced run (`--trace 1`, the per-layer ones).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sli_engine::{BackendKind, PolicyKind};
use sli_traffic::json::JsonWriter;

use crate::drive::{drive, quantiles, summarize, Measured, Plan};
use crate::hist::Hist;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::{
    load_threads, nproc, Drive, Lifetime, Loaded, Spec, FASTPATH_RETRY, ROW_WORK_NS,
};
use crate::{probes, procfs, trace};

/// A measured run is this many rounds, each a fresh database, fresh threads,
/// a warm-up and an equal share of `--seconds`. The end-to-end metrics pool
/// the rounds; `setup_s` is the median of their set-ups.
const ROUNDS: u32 = 10;
/// Warm-up of each round of a measured run. Like the other warm-ups it does
/// not shrink with `--seconds`: for its first tens of milliseconds a round's
/// fresh threads share vCPUs, and an open-loop pacer measured then lags.
const ROUND_WARMUP: Duration = Duration::from_millis(500);
/// Warm-up before the untraced phase of a traced run.
const WARMUP: Duration = Duration::from_secs(3);
/// The open-loop run is invalid, not slow, when the pacer's p95 lag exceeds
/// this share of the mean inter-arrival gap.
const MAX_PACER_LAG: f64 = 0.1;

pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind `value`.
    pub n: u64,
}

/// What a run reports.
pub struct Outcome {
    pub failures: Vec<String>,
    /// Operations: transactions offered, each counted once however often a
    /// system abort had it resubmitted. (`fail_frac` counts the submissions.)
    pub attempted: u64,
    /// Operations never completed: shed, or given up.
    pub failed: u64,
    /// In catalog order.
    pub metrics: Vec<Metric>,
}

fn plan(args: &Args, warmup: Duration, measure: Duration, trace: bool) -> Plan {
    Plan {
        warmup,
        measure,
        seed: args.seed,
        trace,
        limit_us: args.spec.limit_us,
    }
}

/// The pacer's lag over every round of a run, pooled.
fn pacer_failures(rounds: &[Measured], spec: &Spec, out: &mut Vec<String>) {
    let Drive::Open { rate_per_s } = spec.drive else {
        return;
    };
    let mut lag = Hist::new();
    for p in rounds.iter().filter_map(|m| m.pacer.as_ref()) {
        lag.merge(&p.lag);
    }
    let (lag_us, gap_us) = (lag.quantile(0.95) / 1e3, 1e6 / rate_per_s);
    if lag_us > MAX_PACER_LAG * gap_us {
        out.push(format!(
            "invalid run: pacer lag p95 {lag_us:.1} us exceeds {MAX_PACER_LAG} of the {gap_us:.1} us mean gap"
        ));
    }
}

fn measured(args: &Args) -> Outcome {
    let spec = args.spec;
    let measure = Duration::from_secs(args.seconds) / ROUNDS;
    let (mut setup_s, mut rounds, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..u64::from(ROUNDS) {
        let t = Instant::now();
        let loaded = spec.setup();
        setup_s.push(t.elapsed().as_secs_f64());
        let mut p = plan(args, ROUND_WARMUP, measure, false);
        p.seed = args
            .seed
            .wrapping_add(round.wrapping_mul(0xA24B_AED4_963E_E407));
        let m = drive(&loaded, spec.drive, spec.workers(), &p);
        let life = summarize(std::slice::from_ref(&m)).life;
        failures.extend(loaded.check(&life));
        rounds.push(m);
    }
    pacer_failures(&rounds, spec, &mut failures);
    let sum = summarize(&rounds);
    let [setup_s] = quantiles(&setup_s, [0.5]);
    let peak_rss_mb = procfs::peak_rss_mib();

    let value_n = |name: &str| match name {
        "setup_s" => (setup_s, u64::from(ROUNDS)),
        "txn_per_s" => (sum.txn_per_s, sum.completed),
        "lat_p50_us" => (sum.lat_p50_us, sum.completed),
        "lat_p95_us" => (sum.lat_p95_us, sum.completed),
        "within_limit_frac" => (sum.within_limit_frac, sum.attempted),
        "fail_frac" => (sum.fail_frac, sum.attempted),
        "cpu_us_per_txn" => (sum.cpu_us_per_txn, sum.completed),
        "peak_rss_mb" => (peak_rss_mb, 1),
        other => unreachable!("{other} is not in the catalog"),
    };
    Outcome {
        failures,
        attempted: sum.ops,
        failed: sum.ops_failed,
        metrics: END_TO_END
            .iter()
            .map(|e| {
                let (value, n) = value_n(e.name);
                Metric {
                    name: e.name,
                    unit: e.unit,
                    value,
                    n,
                }
            })
            .collect(),
    }
}

fn traced(args: &Args) -> Outcome {
    let spec = args.spec;
    let total = Duration::from_secs(args.seconds);
    let loaded = spec.setup();

    let untraced = drive(
        &loaded,
        spec.drive,
        spec.workers(),
        &plan(args, WARMUP, total / 4, false),
    );
    let traced = drive(
        &loaded,
        spec.drive,
        spec.workers(),
        &plan(args, Duration::from_millis(500), total * 2 / 5, true),
    );
    let collapsed = |db: &sli_engine::Database| db.mvcc_stats().map_or(0, |s| s.chains_collapsed);
    let chains_before = collapsed(&loaded.db);
    loaded.db.quiesce();
    let chains_at_end = collapsed(&loaded.db) - chains_before;

    let (sum_u, sum_t) = (
        summarize(std::slice::from_ref(&untraced)),
        summarize(std::slice::from_ref(&traced)),
    );
    let mut life = Lifetime::default();
    life.add(&sum_u.life);
    life.add(&sum_t.life);
    let mut failures = loaded.check(&life);
    pacer_failures(std::slice::from_ref(&traced), spec, &mut failures);

    // core.sli_gain: the same mix and data, closed loop, PaperSli over
    // Baseline. The lock policy is irrelevant on the MVCC backend.
    let gain_plan = plan(args, Duration::from_secs(1), total * 3 / 20, false);
    let closed_tps =
        |l: &Loaded| summarize(&[drive(l, Drive::Closed, spec.workers(), &gain_plan)]).txn_per_s;
    let sli_gain = if spec.backend == BackendKind::Locked2pl {
        closed_tps(&loaded) / closed_tps(&spec.setup_with_policy(PolicyKind::Baseline))
    } else {
        0.0
    };
    let probes = probes::run();
    failures.extend(probes.failures.iter().cloned());

    let inputs = trace::Inputs {
        spec,
        loaded: &loaded,
        untraced: &sum_u,
        traced: &traced,
        traced_sum: &sum_t,
        probes: &probes,
        sli_gain,
        chains_at_end,
    };
    let values = trace::derive(&inputs);
    let file = out_dir().join(format!("trace_{}.json", spec.name));
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&file, format!("{}\n", trace::trace_file(&inputs, &values))))
    {
        failures.push(format!("write {}: {e}", file.display()));
    }
    Outcome {
        failures,
        attempted: sum_t.ops,
        failed: sum_t.ops_failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name,
                unit,
                value: values[name],
                n: sum_t.completed,
            })
            .collect(),
    }
}

/// `benchmark/out`, beside the sources this binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Host properties a result depends on, as the members of a JSON object;
/// `compare` refuses to cross them.
pub fn write_host(w: &mut JsonWriter) {
    w.kv_uint("nproc", nproc() as u64)
        .kv_uint("load_threads", load_threads() as u64)
        .kv_uint("row_work_ns", ROW_WORK_NS)
        .kv_uint("fastpath_retry", u64::from(FASTPATH_RETRY));
}

/// Run once and print the result: one line per metric (`workload name unit
/// value n`), the `#record` line the suite collects, and last the driver's
/// JSON object. Returns whether every correctness check passed.
pub fn run(args: &Args) -> bool {
    let out = if args.trace {
        traced(args)
    } else {
        measured(args)
    };
    for f in &out.failures {
        eprintln!("FAIL {}: {f}", args.spec.name);
    }
    for m in &out.metrics {
        println!(
            "{} {} {} {} {}",
            args.spec.name, m.name, m.unit, m.value, m.n
        );
    }
    let correct = out.failures.is_empty();

    let mut record = JsonWriter::new();
    record
        .begin_object()
        .kv_str("workload", args.spec.name)
        .key("trace")
        .boolean(args.trace)
        .kv_uint("seed", args.seed)
        .kv_uint("seconds", args.seconds)
        .kv_float("limit_us", args.spec.limit_us)
        .key("correct")
        .boolean(correct)
        .key("failures")
        .begin_array();
    for f in &out.failures {
        record.string(f);
    }
    record
        .end_array()
        .kv_uint("attempted", out.attempted)
        .kv_uint("failed", out.failed)
        .key("metrics")
        .begin_object();
    for m in &out.metrics {
        record
            .key(m.name)
            .begin_object()
            .kv_float("value", m.value)
            .kv_str("unit", m.unit)
            .kv_uint("n", m.n)
            .end_object();
    }
    record.end_object().end_object();
    println!("#record {}", record.finish());

    let mut line = JsonWriter::new();
    line.begin_object()
        .key("correct")
        .boolean(correct)
        .kv_uint("attempted", out.attempted)
        .kv_uint("failed", out.failed)
        .key("metrics")
        .begin_object();
    for m in &out.metrics {
        // A measured run's metrics go to the driver under its view of them.
        let view = match END_TO_END.iter().find(|e| !args.trace && e.name == m.name) {
            Some(e) => e.driver_view(m.value).map(|(name, _, value)| (name, value)),
            None => Some((m.name, m.value)),
        };
        let Some((name, value)) = view else {
            continue;
        };
        line.key(name)
            .begin_object()
            .kv_float("value", value)
            .kv_str("unit", m.unit)
            .end_object();
    }
    line.end_object().end_object();
    println!("{}", line.finish());
    correct
}
