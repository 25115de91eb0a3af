//! Diagnostic: NewOrder baseline vs SLI at fixed agent count, reporting
//! sys-aborts and SLI counters to explain Figure 11 outliers.
use sli_harness::driver::{run_workload, RunConfig};
use sli_harness::setup::{tpcc_workloads, Knobs};
use std::time::Duration;

fn main() {
    let knobs = Knobs {
        measure: Duration::from_millis(800),
        warmup: Duration::from_millis(300),
        ..Knobs::from_env()
    };
    for sli in [false, true] {
        for w in tpcc_workloads(&knobs, sli, &["NewOrder", "Delivery", "StockLevel"]) {
            let cfg = RunConfig {
                agents: knobs.max_agents,
                warmup: knobs.warmup,
                measure: knobs.measure,
                seed: 5,
            };
            let r = run_workload(&w.db, &w.mix, &cfg);
            let d = &r.lock_delta;
            println!(
                "{:>10} sli={} attempts/s={:>8.0} commits={:>6} sysaborts={:>5} reclaims/txn={:.2} discards/txn={:.3} invalid/txn={:.3} deadlocks={} timeouts={} lm-cont={:.1}% lockwait={:.1}%",
                w.label, sli as u8, r.attempts_per_sec, r.commits, r.sys_aborts,
                d.sli_reclaimed as f64 / d.commits.max(1) as f64,
                d.sli_discarded as f64 / d.commits.max(1) as f64,
                d.sli_invalidated as f64 / d.commits.max(1) as f64,
                d.deadlocks, d.timeouts,
                r.report.contention_fraction(sli_profiler::Component::LockManager) * 100.0,
                r.report.tally.lock_wait() as f64 / r.report.tally.cpu_time() as f64 * 100.0,
            );
        }
    }
}
