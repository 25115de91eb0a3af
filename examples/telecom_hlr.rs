//! Telecom scenario: the workload the paper's introduction motivates.
//!
//! A Home Location Register (NDBB/TM1) serving very short transactions with
//! stringent latency requirements. This example loads the TM1 schema and
//! drives the full NDBB mix from many concurrent sessions, first on the
//! baseline lock manager, then with SLI — printing the throughput and the
//! fraction of CPU time burned contending in the lock manager.
//!
//! ```text
//! cargo run --release --example telecom_hlr
//! ```

use std::sync::Arc;
use std::time::Duration;

use sli::engine::{Database, DatabaseConfig};
use sli::harness::driver::run_workload;
use sli::traffic::{Arrivals, LoadConfig};
use sli::workloads::tm1::Tm1;

fn drive(label: &str, config: DatabaseConfig, agents: usize) {
    let db = Database::open(config);
    let tm1 = Tm1::load(&db, 50_000, 7);
    let mix = tm1.ndbb_mix();
    let cfg = LoadConfig {
        arrivals: Arrivals::Closed,
        workers: agents,
        warmup: Duration::from_millis(200),
        measure: Duration::from_millis(500),
        seed: 1,
    };
    let r = run_workload(&db, &mix, &cfg, None);
    let s = &r.load.summary;
    let (lm_work, lm_cont) = r.lockmgr_fractions();
    println!(
        "{label:>9}: {:>9.0} txn/s  (commit rate {:.1}%, lockmgr work {:.1}%, lockmgr contention {:.1}%)",
        s.attempts_per_sec,
        100.0 * s.commits as f64 / (s.commits + s.user_fails).max(1) as f64,
        lm_work * 100.0,
        lm_cont * 100.0,
    );
}

fn main() {
    let agents = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    println!("NDBB mix, {agents} concurrent sessions, 50k subscribers\n");
    let mut baseline = DatabaseConfig::with_policy(sli::engine::PolicyKind::Baseline);
    baseline.row_work_ns = 800;
    let mut sli = DatabaseConfig::with_policy(sli::engine::PolicyKind::PaperSli);
    sli.row_work_ns = 800;
    drive("baseline", baseline, agents);
    drive("SLI", sli, agents);
    let _ = Arc::new(());
    println!("\nSLI passes the hot database/table/page intent locks from");
    println!("transaction to transaction, so agents stop queueing on the");
    println!("lock heads' latches — the contention column collapses.");
}
