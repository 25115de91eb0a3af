//! The repo benchmark. See README.md beside this crate.

mod compare;
mod drive;
mod hist;
mod metrics;
mod probes;
mod procfs;
mod run;
mod sched;
mod span;
mod trace;
mod workload;

use std::process::ExitCode;

use compare::Verdict;
use sli_traffic::json::Value;

const USAGE: &str = "\
usage: sli-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
       sli-benchmark [--smoke] [--seed <n>]          every workload -> out/result.json
       sli-benchmark trace <workload> [--seed <n>]   one traced run
       sli-benchmark compare <a.json> <b.json>       apply the per-metric bounds
       sli-benchmark selfcheck [--smoke]             two result sets, run by run in turn, must agree
       sli-benchmark manifest                        print BENCHMARK.json";

/// Default `--seed`: the arrival schedule and the per-thread transaction
/// streams derive from it.
const DEFAULT_SEED: u64 = 0xC0FFEE;

struct Flags {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => f.workload = Some(value("a workload name")?),
            "--seed" => {
                f.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                f.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&f.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                f.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--smoke" => f.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(arg.clone()),
        }
    }
    Ok(f)
}

fn one_run(f: &Flags, name: &str) -> Result<bool, String> {
    let spec = workload::spec(name).ok_or_else(|| {
        let names: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    Ok(run::run(&run::Args {
        spec,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
    }))
}

fn parse_json(what: &str, text: &str) -> Result<Value, String> {
    sli_traffic::json::parse(text).map_err(|(at, e)| format!("{what}: {e} at byte {at}"))
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_json(path, &text)
}

/// Print the rows and their tally; whether every row is resolved and none
/// is worse.
fn report(rows: &[compare::Row]) -> bool {
    compare::print_rows(rows);
    println!(
        "{} better, {} within bound, {} worse, {} unresolved",
        count(rows, Verdict::Better),
        count(rows, Verdict::WithinBound),
        count(rows, Verdict::Worse),
        count(rows, Verdict::Unresolved)
    );
    count(rows, Verdict::Worse) + count(rows, Verdict::Unresolved) == 0
}

fn count(rows: &[compare::Row], v: Verdict) -> usize {
    rows.iter().filter(|r| r.verdict == v).count()
}

fn dispatch(mut f: Flags) -> Result<bool, String> {
    if let Some(name) = f.workload.clone() {
        return one_run(&f, &name);
    }
    let positional: Vec<&str> = f.positional.iter().map(String::as_str).collect();
    match positional[..] {
        [] => {
            let sets = compare::suite(f.smoke, f.seed, 1)?;
            let (doc, correct) = &sets[0];
            compare::write_result(doc, "result.json")?;
            Ok(*correct)
        }
        ["trace", name] => {
            f.trace = true;
            one_run(&f, name)
        }
        ["compare", a, b] => Ok(report(&compare::compare(&read_json(a)?, &read_json(b)?)?)),
        ["selfcheck"] => {
            let sets = compare::suite(f.smoke, f.seed, 2)?;
            let [(a, correct_a), (b, correct_b)] = &sets[..] else {
                unreachable!("asked for two sets");
            };
            compare::write_result(a, "selfcheck_a.json")?;
            compare::write_result(b, "selfcheck_b.json")?;
            if f.smoke {
                // Smoke results are not comparable; the check is only that
                // both sets ran and were correct.
                return Ok(*correct_a && *correct_b);
            }
            let rows = compare::compare(
                &parse_json("selfcheck_a.json", a)?,
                &parse_json("selfcheck_b.json", b)?,
            )?;
            // Two sets from the same code must not differ by more than a
            // bound in either direction.
            let agree = report(&rows) && count(&rows, Verdict::Better) == 0;
            Ok(*correct_a && *correct_b && agree)
        }
        ["manifest"] => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
