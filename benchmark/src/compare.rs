//! The suite that produces a result file by running every workload in its
//! own process, and `compare`, which holds two result files against the
//! per-metric bounds.

use std::process::Command;

use sli_traffic::json::{parse, JsonWriter, Value};

use crate::drive::quantiles;
use crate::metrics::{Better, Bound, EndToEnd, END_TO_END, RUN_SECONDS};
use crate::run::{out_dir, write_host};
use crate::workload::SPECS;

/// Measured seconds of a `--smoke` run: quick, and stamped non-comparable.
const SMOKE_SECONDS: u64 = 2;
/// Measured runs per workload in one set, on consecutive seeds. A set's
/// value of a metric is the median of its runs and its spread the distance
/// between their quartiles (of five runs: the second and the fourth, so one
/// run caught by a slow spell of the host moves neither). On a shared host
/// single runs differ by more than some bounds, and only repeats tell a slow
/// host from a slow engine.
const REPEATS: u64 = 5;

/// Run one workload once in a process of its own (so CPU time and peak RSS
/// are per run) and return the record it prints.
fn one_run(workload: &str, trace: bool, seed: u64, seconds: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(&exe)
        .args(["--workload", workload])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let record = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#record "))
        .ok_or_else(|| format!("{workload} --trace {trace} printed no record"))?;
    parse(record).map_err(|(at, what)| format!("{workload}: record: {what} at byte {at}"))
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, key| v.get(key))?.as_num()
}

fn is_true(v: Option<&Value>) -> bool {
    matches!(v, Some(Value::Bool(true)))
}

/// Copy a parsed value into a document being written.
fn write_value(w: &mut JsonWriter, v: &Value) {
    match v {
        // The writer has no `null` of its own; it spells a non-finite float so.
        Value::Null => w.float(f64::NAN),
        Value::Bool(b) => w.boolean(*b),
        Value::Num(n) => w.float(*n),
        Value::Str(s) => w.string(s),
        Value::Arr(items) => {
            w.begin_array();
            for item in items {
                write_value(w, item);
            }
            w.end_array()
        }
        Value::Obj(members) => {
            w.begin_object();
            for (k, item) in members {
                write_value(w.key(k), item);
            }
            w.end_object()
        }
    };
}

/// The runs behind one result document: per workload its measured runs,
/// then its traced run.
#[derive(Clone, Default)]
struct Set {
    measured: Vec<Vec<Value>>,
    traced: Vec<Value>,
}

/// Produce `sets` result documents: [`REPEATS`] measured runs of every
/// workload (one, for a smoke result) and one traced run of each per set. The sets take turns run by
/// run, so a slow spell of the host falls on all of them alike; they use the
/// same seeds. Every metric is printed as `workload name unit value n`.
/// Returns each document with whether all its runs were correct.
pub fn suite(smoke: bool, seed: u64, sets: usize) -> Result<Vec<(String, bool)>, String> {
    let (seconds, repeats) = if smoke {
        (SMOKE_SECONDS, 1)
    } else {
        (RUN_SECONDS, REPEATS)
    };
    let mut collected = vec![Set::default(); sets];
    for spec in &SPECS {
        for set in &mut collected {
            set.measured.push(Vec::new());
        }
        for i in 0..repeats {
            for set in &mut collected {
                let run = one_run(spec.name, false, seed.wrapping_add(i), seconds)?;
                set.measured.last_mut().expect("just pushed").push(run);
            }
        }
    }
    for spec in &SPECS {
        for set in &mut collected {
            set.traced.push(one_run(spec.name, true, seed, seconds)?);
        }
    }
    collected
        .iter()
        .map(|set| document(set, smoke, seed, seconds, repeats))
        .collect()
}

fn document(
    set: &Set,
    smoke: bool,
    seed: u64,
    seconds: u64,
    repeats: u64,
) -> Result<(String, bool), String> {
    let mut all_correct = true;
    let mut w = JsonWriter::new();
    w.begin_object()
        .kv_str("schema", "sli-benchmark/v2")
        // This benchmark measures; it claims no gain.
        .key("claim")
        .float(f64::NAN)
        .key("comparable")
        .boolean(!smoke)
        .key("host")
        .begin_object();
    write_host(&mut w);
    w.end_object()
        .kv_uint("seconds", seconds)
        .kv_uint("seed", seed)
        .kv_uint("repeats", repeats)
        .key("runs")
        .begin_array();

    for (spec, runs) in SPECS.iter().zip(&set.measured) {
        let correct = runs.iter().all(|r| is_true(r.get("correct")));
        all_correct &= correct;
        let total = |key: &str| runs.iter().filter_map(|r| num(r, &[key])).sum::<f64>() as u64;
        w.begin_object()
            .kv_str("workload", spec.name)
            .key("trace")
            .boolean(false)
            .kv_float("limit_us", spec.limit_us)
            .key("correct")
            .boolean(correct)
            .kv_uint("attempted", total("attempted"))
            .kv_uint("failed", total("failed"))
            .key("metrics")
            .begin_object();
        for m in &END_TO_END {
            let field = |f: &str| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| {
                        num(r, &["metrics", m.name, f]).ok_or_else(|| {
                            format!("{}: a run reports no {}.{f}", spec.name, m.name)
                        })
                    })
                    .collect()
            };
            let values = field("value")?;
            let n = field("n")?.iter().sum::<f64>() as u64;
            let [q1, median, q3] = quantiles(&values, [0.25, 0.5, 0.75]);
            println!("{} {} {} {median} {n}", spec.name, m.name, m.unit);
            w.key(m.name)
                .begin_object()
                .kv_float("value", median)
                .kv_str("unit", m.unit)
                .kv_uint("n", n)
                .kv_float("iqr", q3 - q1)
                .key("runs")
                .begin_array();
            for v in values {
                w.float(v);
            }
            w.end_array().end_object();
        }
        w.end_object().end_object();
    }
    for (spec, run) in SPECS.iter().zip(&set.traced) {
        all_correct &= is_true(run.get("correct"));
        if let Some(Value::Obj(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                println!(
                    "{} {name} {} {} {}",
                    spec.name,
                    m.get("unit").and_then(Value::as_str).unwrap_or("?"),
                    num(m, &["value"]).unwrap_or(f64::NAN),
                    num(m, &["n"]).unwrap_or(0.0)
                );
            }
        }
        write_value(&mut w, run);
    }
    w.end_array().end_object();
    Ok((w.finish(), all_correct))
}

pub fn write_result(doc: &str, file: &str) -> Result<(), String> {
    let path = out_dir().join(file);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The runs behind either value spread wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

/// Classify `candidate` against `baseline` for a metric with `bound`; `iqr`
/// is the wider of the two sets' run-to-run interquartile ranges.
pub fn verdict(better: Better, bound: Bound, baseline: f64, candidate: f64, iqr: f64) -> Verdict {
    let scale = bound.scale(baseline);
    let worse_by = match better {
        Better::Lower => (candidate - baseline) / scale,
        Better::Higher => (baseline - candidate) / scale,
    };
    if iqr / scale > bound.size() {
        Verdict::Unresolved
    } else if worse_by > bound.size() {
        Verdict::Worse
    } else if worse_by < -bound.size() {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static EndToEnd,
    pub baseline: f64,
    pub candidate: f64,
    pub verdict: Verdict,
}

fn measured_runs(doc: &Value) -> impl Iterator<Item = &Value> {
    doc.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| matches!(r.get("trace"), Some(Value::Bool(false))))
}

/// Compare two result documents row by row (workload x end-to-end metric).
/// Refuses documents that are not comparable with each other.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    for (doc, which) in [(a, "baseline"), (b, "candidate")] {
        if !is_true(doc.get("comparable")) {
            return Err(format!(
                "the {which} is a smoke result, stamped non-comparable"
            ));
        }
    }
    for key in ["host", "seconds", "repeats"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "{key} differs: {:?} vs {:?}",
                a.get(key),
                b.get(key)
            ));
        }
    }
    let mut rows = Vec::new();
    for run_a in measured_runs(a) {
        let workload = run_a.get("workload").and_then(Value::as_str).unwrap_or("?");
        let run_b = measured_runs(b)
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
            .ok_or_else(|| format!("the candidate has no measured run of {workload}"))?;
        for m in &END_TO_END {
            let field = |run: &Value, f: &str| {
                num(run, &["metrics", m.name, f])
                    .ok_or_else(|| format!("{workload}: no {}.{f}", m.name))
            };
            let (va, vb) = (field(run_a, "value")?, field(run_b, "value")?);
            let iqr = field(run_a, "iqr")?.max(field(run_b, "iqr")?);
            rows.push(Row {
                workload: workload.to_string(),
                metric: m,
                baseline: va,
                candidate: vb,
                verdict: verdict(m.better, m.bound, va, vb, iqr),
            });
        }
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "baseline", "candidate", "change"
    );
    for r in rows {
        let diff = r.candidate - r.baseline;
        let change = match r.metric.bound {
            Bound::Rel(_) => format!("{:+.2}%", 100.0 * diff / r.baseline.abs()),
            Bound::Abs(_) => format!("{diff:+.5}"),
        };
        println!(
            "{:<20} {:<18} {:>14.4} {:>14.4} {:>9}  {:?}",
            r.workload, r.metric.name, r.baseline, r.candidate, change, r.verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        use Bound::{Abs, Rel};
        use Verdict::{Better as Improved, Unresolved, WithinBound, Worse};
        assert_eq!(verdict(Lower, Rel(0.10), 100.0, 105.0, 1.0), WithinBound);
        assert_eq!(verdict(Lower, Rel(0.10), 100.0, 115.0, 1.0), Worse);
        assert_eq!(verdict(Lower, Rel(0.10), 100.0, 80.0, 1.0), Improved);
        assert_eq!(verdict(Higher, Rel(0.10), 100.0, 80.0, 1.0), Worse);
        assert_eq!(verdict(Higher, Rel(0.10), 100.0, 115.0, 1.0), Improved);
        assert_eq!(verdict(Higher, Rel(0.10), 100.0, 80.0, 20.0), Unresolved);
        // An absolute bound works from a baseline of 0.
        assert_eq!(verdict(Lower, Abs(0.005), 0.0, 0.004, 0.0), WithinBound);
        assert_eq!(verdict(Lower, Abs(0.005), 0.0, 0.006, 0.0), Worse);
        assert_eq!(verdict(Higher, Abs(0.01), 0.999, 0.98, 0.001), Worse);
        assert_eq!(verdict(Lower, Abs(0.005), 0.001, 0.002, 0.006), Unresolved);
    }

    fn doc(seconds: u64, comparable: bool, p50: f64) -> Value {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("comparable")
            .boolean(comparable)
            .key("host")
            .begin_object();
        write_host(&mut w);
        w.end_object()
            .kv_uint("seconds", seconds)
            .kv_uint("repeats", REPEATS)
            .key("runs")
            .begin_array()
            .begin_object()
            .kv_str("workload", "w")
            .key("trace")
            .boolean(false)
            .key("metrics")
            .begin_object();
        for m in &END_TO_END {
            let value = if m.name == "lat_p50_us" { p50 } else { 1.0 };
            w.key(m.name)
                .begin_object()
                .kv_float("value", value)
                .kv_float("iqr", 0.0)
                .end_object();
        }
        w.end_object().end_object().end_array().end_object();
        parse(&w.finish()).expect("the writer writes JSON")
    }

    #[test]
    fn compare_flags_the_regressed_row_and_refuses_mismatches() {
        let rows = compare(&doc(20, true, 10.0), &doc(20, true, 15.0)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        for r in &rows {
            let want = if r.metric.name == "lat_p50_us" {
                Verdict::Worse
            } else {
                Verdict::WithinBound
            };
            assert_eq!(r.verdict, want, "{}", r.metric.name);
        }
        assert!(compare(&doc(20, true, 1.0), &doc(10, true, 1.0)).is_err());
        assert!(compare(&doc(2, false, 1.0), &doc(2, false, 1.0)).is_err());
    }

    #[test]
    fn parsed_values_are_written_back_unchanged() {
        let text = r#"{"a":[1,2.5,"x\ny",true,null],"b":{"c":-3}}"#;
        let v = parse(text).unwrap();
        let mut w = JsonWriter::new();
        write_value(&mut w, &v);
        assert_eq!(w.finish(), text);
    }
}
