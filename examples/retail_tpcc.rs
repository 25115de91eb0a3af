//! Retail scenario: the TPC-C "small mix" the paper analyzes.
//!
//! Payment, New Order, and Order Status at 46.7/48.9/4.3 % — the three
//! short transactions that make up 92 % of the TPC-C workload and are the
//! ones exposed to lock-manager contention. Runs the mix on all cores and
//! prints per-transaction-type outcome counts plus SLI effectiveness.
//!
//! ```text
//! cargo run --release --example retail_tpcc
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sli::engine::{Database, DatabaseConfig};
use sli::workloads::tpcc::{TpcC, TpcCScale};
use sli::workloads::Outcome;

fn main() {
    let mut config = DatabaseConfig::with_policy(sli::engine::PolicyKind::PaperSli);
    config.row_work_ns = 500;
    let db = Database::open(config);
    let scale = TpcCScale {
        warehouses: 8,
        customers_per_district: 300,
        items: 2_000,
        initial_orders_per_district: 100,
    };
    let t0 = Instant::now();
    let tpcc = TpcC::load(&db, scale, 99);
    println!(
        "TPC-C loaded in {:?}: {} warehouses, {} items",
        t0.elapsed(),
        scale.warehouses,
        scale.items
    );

    let mix = Arc::new(tpcc.small_mix());
    let names = mix.transaction_names();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        let mix = Arc::clone(&mix);
        handles.push(std::thread::spawn(move || {
            let session = db.session();
            let mut rng = SmallRng::seed_from_u64(t as u64);
            let mut counts = vec![[0u64; 3]; mix.len()]; // commit/fail/abort
            while Instant::now() < deadline {
                let (idx, outcome) = mix.run_one(&session, &mut rng);
                let slot = match outcome {
                    Outcome::Commit => 0,
                    Outcome::UserFail => 1,
                    Outcome::SysAbort => 2,
                };
                counts[idx][slot] += 1;
            }
            counts
        }));
    }
    let mut totals = vec![[0u64; 3]; names.len()];
    for h in handles {
        for (i, c) in h.join().unwrap().into_iter().enumerate() {
            for k in 0..3 {
                totals[i][k] += c[k];
            }
        }
    }
    println!(
        "\n{:>12} {:>10} {:>10} {:>10}",
        "txn", "commits", "fails", "aborts"
    );
    for (name, c) in names.iter().zip(&totals) {
        println!("{:>12} {:>10} {:>10} {:>10}", name, c[0], c[1], c[2]);
    }
    let stats = db.lock_stats();
    println!(
        "\nSLI: {} locks inherited, {} reclaimed (used), {} discarded, {} invalidated",
        stats.sli_inherited, stats.sli_reclaimed, stats.sli_discarded, stats.sli_invalidated
    );
    let grand: u64 = totals.iter().map(|c| c[0]).sum();
    println!("total committed: {grand} in 2s across {threads} sessions");
}
