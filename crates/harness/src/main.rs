//! Command-line entry point: regenerate any figure of the paper.
//!
//! ```text
//! sli-harness <experiment> [...]
//! ```
//!
//! `sli-harness --help` lists the experiments ([`sli_harness::EXPERIMENTS`])
//! and the `SLI_*` environment knobs ([`sli_harness::setup::KNOB_HELP`]).

use sli_harness::setup::KNOB_HELP;
use sli_harness::{Experiment, Knobs, EXPERIMENTS};

fn usage() -> String {
    let mut out = String::from("usage: sli-harness <experiment> [...]\nexperiments:\n");
    for e in EXPERIMENTS {
        for (i, line) in e.about.lines().enumerate() {
            let name = if i == 0 { e.name } else { "" };
            out += &format!("  {name:<18} {line}\n");
        }
    }
    out += &format!(
        "  {:<18} everything above, in order\n\nenvironment:\n",
        "all"
    );
    for line in KNOB_HELP.lines() {
        out += &format!("  {line}\n");
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let mut plan: Vec<&Experiment> = Vec::new();
    for name in &args {
        match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => plan.push(e),
            None if name == "all" => plan.extend(EXPERIMENTS),
            None => {
                eprint!("unknown experiment {name:?}\n{}", usage());
                std::process::exit(2);
            }
        }
    }
    let knobs = Knobs::from_env();
    eprintln!(
        "scale: tm1={} tpcb={}x{} tpcc W={} agents<={} window={}ms",
        knobs.tm1_subscribers,
        knobs.tpcb_branches,
        knobs.tpcb_accounts,
        knobs.tpcc.warehouses,
        knobs.max_agents,
        knobs.measure.as_millis()
    );
    for e in plan {
        if !(e.run)(&knobs) {
            std::process::exit(1);
        }
    }
}
