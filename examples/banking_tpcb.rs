//! Banking scenario: TPC-B deposits/withdrawals with an auditable invariant.
//!
//! Every transaction moves the same delta through account, teller, and
//! branch; the sums of the three balance columns must therefore stay equal
//! no matter how many concurrent sessions hammer the bank — with or without
//! SLI. This example runs a concurrent burst and then audits the books.
//!
//! ```text
//! cargo run --release --example banking_tpcb
//! ```

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sli::engine::{Database, DatabaseConfig};
use sli::workloads::tpcb::TpcB;
use sli::workloads::Outcome;

fn main() {
    let mut config = DatabaseConfig::with_policy(sli::engine::PolicyKind::PaperSli);
    config.row_work_ns = 500;
    let db = Database::open(config);
    let bank = TpcB::load(&db, 16, 1_000);
    println!(
        "bank loaded: {} branches, {} tellers, {} accounts",
        bank.branches,
        bank.branches * sli::workloads::tpcb::TELLERS_PER_BRANCH,
        bank.branches * bank.accounts_per_branch
    );

    let threads = 8;
    let per_thread = 2_000;
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        let bank = Arc::clone(&bank);
        handles.push(std::thread::spawn(move || {
            let session = db.session();
            let mut rng = SmallRng::seed_from_u64(t as u64);
            let mut commits = 0u64;
            let mut aborts = 0u64;
            for _ in 0..per_thread {
                match bank.account_update(&session, &mut rng) {
                    Outcome::Commit => commits += 1,
                    Outcome::SysAbort => aborts += 1,
                    Outcome::UserFail => unreachable!("TPC-B has no user failures"),
                }
            }
            (commits, aborts)
        }));
    }
    let mut commits = 0;
    let mut aborts = 0;
    for h in handles {
        let (c, a) = h.join().unwrap();
        commits += c;
        aborts += a;
    }
    println!("{commits} deposits/withdrawals committed ({aborts} deadlock victims not retried)");

    let (branch_sum, teller_sum, account_sum) = bank.balance_sums(&db);
    println!("audit: branches={branch_sum} tellers={teller_sum} accounts={account_sum}");
    assert_eq!(branch_sum, teller_sum, "branch vs teller books diverged!");
    assert_eq!(branch_sum, account_sum, "branch vs account books diverged!");
    println!("books balance. SLI stats: {:?}", db.lock_stats());
}
