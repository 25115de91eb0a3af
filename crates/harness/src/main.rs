//! Command-line entry point: regenerate any figure of the paper.
//!
//! ```text
//! sli-harness <experiment> [...]
//!   experiments: fig1 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//!                ablation-criteria bimodal roving-hotspot latch-scaling
//!                grant-word backend-matrix traffic crash-torture all
//! ```
//!
//! Scale with environment variables (see `sli-harness --help` or the crate
//! docs): `SLI_MEASURE_MS`, `SLI_WARMUP_MS`, `SLI_MAX_AGENTS`,
//! `SLI_TM1_SUBS`, `SLI_TPCB_BRANCHES`, `SLI_TPCC_WAREHOUSES`, ...

use sli_harness::figures;
use sli_harness::ExperimentScale;

const HELP: &str = "usage: sli-harness <experiment> [...]
experiments:
  fig1               lock manager overhead vs load (NDBB mix, baseline)
  fig5               profiler work-accounting demonstration
  fig6               execution-time breakdown at peak, baseline
  fig7               throughput vs utilization as load varies
  fig8               lock census (hot/heritable/row classification)
  fig9               SLI outcomes for hot locks
  fig10              execution-time breakdown at full load with SLI
  fig11              throughput improvement due to SLI
  ablation-criteria  Section 4.2 criteria ablation
  bimodal            Section 4.4 bimodal workload
  roving-hotspot     Section 4.4 roving hotspot
  latch-scaling      oversubscription sweep: agents at 1x-8x cores, parking counters
  grant-word         latch-free compatible acquisitions: fast-path counters on TPC-B
  backend-matrix     concurrency backends: 2PL (sli/baseline) vs MVCC on TPC-B,
                     TPC-C Payment, and a reader-heavy TPC-B analytic mix;
                     MVCC cells stat-asserted to issue zero lock requests
  traffic            open-loop rate ladder: arrival-driven load, windowed telemetry,
                     BENCH_*.json artifacts, knee where backlog diverges
  crash-torture      seeded crash points (kill/tear/fsync-fail) on TPC-B + TPC-C:
                     recover, check invariants + redo idempotence; nonzero exit
                     on any violation
  all                everything above, in order

environment: SLI_MEASURE_MS (400) SLI_WARMUP_MS (200) SLI_MAX_AGENTS (nproc)
             SLI_TM1_SUBS (100000) SLI_TPCB_BRANCHES (100) SLI_TPCB_ACCOUNTS (1000)
             SLI_TPCC_WAREHOUSES (24) SLI_TPCC_CUSTOMERS (300) SLI_TPCC_ITEMS (5000)
             SLI_TRAFFIC_RATE (capacity ladder) SLI_TRAFFIC_PATTERN (poisson)
             SLI_TRAFFIC_SOAK_SECS (0) SLI_TRAFFIC_QUEUE (4096)
             SLI_TRAFFIC_WORKERS (min(4,nproc)) SLI_TRAFFIC_WINDOW_MS (500)
             SLI_BENCH_DIR (bench-artifacts; empty or 0 disables artifacts)
             SLI_TORTURE_POINTS (60/workload) SLI_TORTURE_AGENTS (3)
             SLI_TORTURE_TXNS (30) SLI_TORTURE_SEED (0xC0FFEE)
             SLI_BACKEND (locked; locked|2pl|mvcc|occ — concurrency backend)
             SLI_MVCC_GC_EVERY (128; writer commits between GC prune passes)";

fn run_one(name: &str, scale: &ExperimentScale) -> bool {
    match name {
        "fig1" => {
            figures::fig1(scale);
        }
        "fig5" => {
            figures::fig5(scale);
        }
        "fig6" => {
            figures::fig6(scale);
        }
        "fig7" => {
            figures::fig7(scale);
        }
        "fig8" => {
            figures::fig8(scale);
        }
        "fig9" => {
            figures::fig9(scale);
        }
        "fig10" => {
            figures::fig10(scale);
        }
        "fig11" => {
            figures::fig11(scale);
        }
        "ablation-criteria" => {
            figures::ablation_criteria(scale);
        }
        "bimodal" => {
            figures::bimodal(scale);
        }
        "roving-hotspot" => {
            figures::roving_hotspot(scale);
        }
        "latch-scaling" => {
            figures::latch_scaling(scale);
        }
        "grant-word" => {
            figures::grant_word(scale);
        }
        "backend-matrix" => {
            sli_harness::backend_matrix::backend_matrix(scale);
        }
        "traffic" => {
            sli_harness::traffic::traffic(scale);
        }
        "crash-torture" => {
            let total = sli_harness::torture::crash_torture();
            if total.violations > 0 {
                eprintln!("crash-torture: {} violations", total.violations);
                std::process::exit(1);
            }
        }
        "all" => {
            for exp in [
                "fig1",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "ablation-criteria",
                "bimodal",
                "roving-hotspot",
                "latch-scaling",
                "grant-word",
                "backend-matrix",
                "traffic",
                "crash-torture",
            ] {
                run_one(exp, scale);
            }
        }
        _ => return false,
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    // `cargo run -p sli-harness -- <experiment>` always leaves
    // machine-readable artifacts behind unless explicitly disabled
    // (SLI_BENCH_DIR="" or "0"). Tests and library users stay clean:
    // the default only applies to this binary.
    if std::env::var_os("SLI_BENCH_DIR").is_none() {
        std::env::set_var("SLI_BENCH_DIR", "bench-artifacts");
    }
    let scale = ExperimentScale::from_env();
    eprintln!(
        "scale: tm1={} tpcb={}x{} tpcc W={} agents<={} window={}ms",
        scale.tm1_subscribers,
        scale.tpcb_branches,
        scale.tpcb_accounts,
        scale.tpcc.warehouses,
        scale.max_agents,
        scale.measure.as_millis()
    );
    for name in &args {
        if !run_one(name, &scale) {
            eprintln!("unknown experiment {name:?}\n{HELP}");
            std::process::exit(2);
        }
    }
}
