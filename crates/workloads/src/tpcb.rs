//! TPC-B: the classic database stress test.
//!
//! One transaction type — a customer deposit/withdrawal — touching all four
//! tables: update the account balance, the teller balance, and the branch
//! balance, then append a history row. The branch row is the natural
//! contention point; the paper runs 1000 branches ("simulating a balanced
//! workload"). The scale factors here are configurable; defaults are sized
//! for a 24-vCPU container (see DESIGN.md's substitution table).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use sli_engine::{Database, LockMode, Session, TableHandle};

use crate::encode::*;
use crate::mix::{MixEntry, MixedWorkload, Outcome};

/// Tellers per branch (TPC-B spec).
pub const TELLERS_PER_BRANCH: u64 = 10;

/// Record length for branch/teller/account rows (100-byte rows per spec).
const ROW_LEN: usize = 100;
/// History rows are 50 bytes per spec.
const HISTORY_LEN: usize = 50;

/// Balance field offset (after the id).
const BALANCE_OFF: usize = 8;

/// A loaded TPC-B database.
pub struct TpcB {
    /// Number of branches (scale factor).
    pub branches: u64,
    /// Accounts per branch (spec: 100,000; scaled down by default to fit
    /// containerized runs — the lock footprint per transaction is
    /// unchanged).
    pub accounts_per_branch: u64,
    branch: TableHandle,
    teller: TableHandle,
    account: TableHandle,
    history: TableHandle,
    history_seq: std::sync::atomic::AtomicU64,
}

fn balance_row(id: u64, len: usize) -> Vec<u8> {
    let mut row = vec![0u8; len];
    put_u64(&mut row, 0, id);
    put_i64(&mut row, BALANCE_OFF, 0);
    put_filler(&mut row, 16, len - 16, id);
    row
}

impl TpcB {
    /// Create and load the four tables.
    pub fn load(db: &Arc<Database>, branches: u64, accounts_per_branch: u64) -> Arc<TpcB> {
        let t = TpcB {
            branches,
            accounts_per_branch,
            branch: db.create_table("tpcb_branch").expect("fresh db"),
            teller: db.create_table("tpcb_teller").expect("fresh db"),
            account: db.create_table("tpcb_account").expect("fresh db"),
            history: db.create_table("tpcb_history").expect("fresh db"),
            history_seq: std::sync::atomic::AtomicU64::new(0),
        };
        for b in 1..=branches {
            // Branch and teller rows carry their id as the ordered
            // secondary key so the branchAudit scan can range over them.
            db.bulk_insert(t.branch, b, Some(b), &balance_row(b, ROW_LEN));
            for tl in 0..TELLERS_PER_BRANCH {
                let tid = (b - 1) * TELLERS_PER_BRANCH + tl + 1;
                db.bulk_insert(t.teller, tid, Some(tid), &balance_row(tid, ROW_LEN));
            }
            for a in 0..accounts_per_branch {
                let aid = (b - 1) * accounts_per_branch + a + 1;
                db.bulk_insert(t.account, aid, None, &balance_row(aid, ROW_LEN));
            }
        }
        Arc::new(t)
    }

    /// The account-update transaction: the whole benchmark.
    pub fn account_update(&self, s: &Session, rng: &mut SmallRng) -> Outcome {
        let branch = rng.gen_range(1..=self.branches);
        let teller = (branch - 1) * TELLERS_PER_BRANCH + rng.gen_range(1..=TELLERS_PER_BRANCH);
        // 85 % of accounts belong to the teller's branch, 15 % are remote
        // (spec behaviour; keeps branch rows hot but not serial).
        let account_branch = if rng.gen_bool(0.85) || self.branches == 1 {
            branch
        } else {
            loop {
                let other = rng.gen_range(1..=self.branches);
                if other != branch {
                    break other;
                }
            }
        };
        let account = (account_branch - 1) * self.accounts_per_branch
            + rng.gen_range(1..=self.accounts_per_branch);
        let delta = rng.gen_range(-99_999i64..=99_999);
        // ordering: relaxed — a pure id allocator; uniqueness comes from
        // the atomic RMW.
        let hid = self
            .history_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        Outcome::from_result(s.run(|txn| {
            let mut new_balance = 0i64;
            txn.update_by_key(self.account, account, |old| {
                let mut row = old.to_vec();
                new_balance = get_i64(&row, BALANCE_OFF) + delta;
                put_i64(&mut row, BALANCE_OFF, new_balance);
                row
            })?;
            txn.update_by_key(self.teller, teller, |old| {
                let mut row = old.to_vec();
                let v = get_i64(&row, BALANCE_OFF) + delta;
                put_i64(&mut row, BALANCE_OFF, v);
                row
            })?;
            txn.update_by_key(self.branch, branch, |old| {
                let mut row = old.to_vec();
                let v = get_i64(&row, BALANCE_OFF) + delta;
                put_i64(&mut row, BALANCE_OFF, v);
                row
            })?;
            let mut h = vec![0u8; HISTORY_LEN];
            put_u64(&mut h, 0, account);
            put_u64(&mut h, 8, teller);
            put_u64(&mut h, 16, branch);
            put_i64(&mut h, 24, delta);
            put_i64(&mut h, 32, new_balance);
            put_filler(&mut h, 40, HISTORY_LEN - 40, hid);
            txn.insert(self.history, hid, &h)?;
            Ok(())
        }))
    }

    /// TPC-B as a drivable workload.
    pub fn workload(self: &Arc<Self>) -> MixedWorkload {
        let me = Arc::clone(self);
        MixedWorkload::new(
            "TPC-B",
            vec![MixEntry {
                name: "accountUpdate",
                weight: 1.0,
                run: Box::new(move |s, rng| me.account_update(s, rng)),
            }],
        )
    }

    /// The branch-audit transaction: a long read-only analytic scan over
    /// every branch and teller balance that asserts the conservation
    /// invariant *within one transaction* — sum(branch balances) ==
    /// sum(teller balances). Any concurrency control that gives the
    /// reader a consistent view (2PL via blocking/deadlock-retry, MVCC
    /// via snapshots) commits it; an inconsistent cut rolls back as
    /// `UserAbort("snapshot-inconsistent")`, which the harness counts as
    /// a failure — making this transaction an online isolation check.
    ///
    /// Under 2PL the scans run beneath covering table `S` locks, taken in
    /// the order `account_update` reaches the two tables: one queued wait
    /// per table behind the writers in flight, instead of 2 + 20 x branches
    /// record locks each of which can close a deadlock cycle with a writer
    /// (the audit then loses nearly every retry). No-op under MVCC.
    pub fn branch_audit(&self, s: &Session) -> Outcome {
        let branches = self.branches;
        let tellers = branches * TELLERS_PER_BRANCH;
        Outcome::from_result(s.run(|txn| {
            txn.lock_table(self.teller, LockMode::S)?;
            txn.lock_table(self.branch, LockMode::S)?;
            let mut bb = 0i64;
            txn.scan_ordered(self.branch, 1, branches, branches as usize, |_, row| {
                bb += get_i64(row, BALANCE_OFF);
            })?;
            let mut tb = 0i64;
            txn.scan_ordered(self.teller, 1, tellers, tellers as usize, |_, row| {
                tb += get_i64(row, BALANCE_OFF);
            })?;
            if bb != tb {
                return Err(txn.user_abort("snapshot-inconsistent"));
            }
            Ok(())
        }))
    }

    /// Reader-heavy analytic mix: mostly account updates with a steady
    /// stream of long branch-audit scans riding along. On the locked
    /// backend every audit S-locks the whole branch and teller tables
    /// (stalling every writer while it scans); on the MVCC backend it
    /// reads a snapshot and acquires no locks at all — exactly the
    /// contrast the `backend-matrix` experiment measures.
    pub fn analytic_workload(self: &Arc<Self>) -> MixedWorkload {
        let upd = Arc::clone(self);
        let aud = Arc::clone(self);
        MixedWorkload::new(
            "TPC-B analytic",
            vec![
                MixEntry {
                    name: "accountUpdate",
                    weight: 0.85,
                    run: Box::new(move |s, rng| upd.account_update(s, rng)),
                },
                MixEntry {
                    name: "branchAudit",
                    weight: 0.15,
                    run: Box::new(move |s, _| aud.branch_audit(s)),
                },
            ],
        )
    }

    /// Verify the TPC-B conservation invariant on a database that may not
    /// be the one this instance was loaded into — tables are resolved by
    /// name, so a *recovered* database checks too. Returns the history
    /// row count (each committed transaction appended exactly one) for
    /// the caller to compare against its durable-winner count. An `Err`
    /// describes the violated invariant.
    pub fn check_recovered(
        db: &Arc<Database>,
        branches: u64,
        accounts_per_branch: u64,
    ) -> Result<u64, String> {
        let resolve = |name: &str| {
            db.table_handle(name)
                .ok_or_else(|| format!("table {name} missing after recovery"))
        };
        let branch = resolve("tpcb_branch")?;
        let teller = resolve("tpcb_teller")?;
        let account = resolve("tpcb_account")?;
        let history = resolve("tpcb_history")?;
        let sum = |table: TableHandle, count: u64, what: &str| -> Result<i64, String> {
            let mut acc = 0i64;
            for id in 1..=count {
                let row = db
                    .peek(table, id)
                    .ok_or_else(|| format!("{what} row {id} missing after recovery"))?;
                acc += get_i64(&row, BALANCE_OFF);
            }
            Ok(acc)
        };
        let bb = sum(branch, branches, "branch")?;
        let tb = sum(teller, branches * TELLERS_PER_BRANCH, "teller")?;
        let ab = sum(account, branches * accounts_per_branch, "account")?;
        if bb != tb {
            return Err(format!(
                "balance sums diverge: branches {bb} vs tellers {tb}"
            ));
        }
        if bb != ab {
            return Err(format!(
                "balance sums diverge: branches {bb} vs accounts {ab}"
            ));
        }
        Ok(db.record_count(history))
    }

    /// Sum of all branch balances (invariant: equals sum of teller
    /// balances and sum of account balances).
    pub fn balance_sums(&self, db: &Arc<Database>) -> (i64, i64, i64) {
        let sum = |table: TableHandle, count: u64| -> i64 {
            (1..=count)
                .map(|id| get_i64(&db.peek(table, id).expect("row exists"), BALANCE_OFF))
                .sum()
        };
        (
            sum(self.branch, self.branches),
            sum(self.teller, self.branches * TELLERS_PER_BRANCH),
            sum(self.account, self.branches * self.accounts_per_branch),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sli_engine::DatabaseConfig;

    #[test]
    fn load_counts() {
        let db = Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::PaperSli,
        ));
        let b = TpcB::load(&db, 4, 100);
        assert_eq!(db.record_count(db.table_handle("tpcb_branch").unwrap()), 4);
        assert_eq!(db.record_count(db.table_handle("tpcb_teller").unwrap()), 40);
        assert_eq!(
            db.record_count(db.table_handle("tpcb_account").unwrap()),
            400
        );
        let (bb, tb, ab) = b.balance_sums(&db);
        assert_eq!((bb, tb, ab), (0, 0, 0));
    }

    #[test]
    fn single_threaded_transactions_preserve_the_invariant() {
        let db = Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::PaperSli,
        ));
        let b = TpcB::load(&db, 2, 50);
        let s = db.session();
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..300 {
            assert_eq!(b.account_update(&s, &mut rng), Outcome::Commit);
        }
        let (bb, tb, ab) = b.balance_sums(&db);
        assert_eq!(bb, tb, "branch vs teller sums");
        assert_eq!(bb, ab, "branch vs account sums");
        assert_eq!(
            db.record_count(db.table_handle("tpcb_history").unwrap()),
            300
        );
    }

    #[test]
    fn concurrent_transactions_preserve_the_invariant() {
        let db = Database::open(DatabaseConfig::with_policy(
            sli_engine::PolicyKind::PaperSli,
        ));
        let b = TpcB::load(&db, 2, 50);
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let db = Arc::clone(&db);
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let s = db.session();
                let mut rng = SmallRng::seed_from_u64(t);
                let mut commits = 0;
                for _ in 0..150 {
                    match b.account_update(&s, &mut rng) {
                        Outcome::Commit => commits += 1,
                        Outcome::SysAbort => {} // deadlock victim: fine
                        Outcome::UserFail => panic!("TPC-B never user-fails"),
                    }
                }
                commits
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let (bb, tb, ab) = b.balance_sums(&db);
        assert_eq!(bb, tb);
        assert_eq!(bb, ab);
        assert_eq!(
            db.record_count(db.table_handle("tpcb_history").unwrap()),
            total
        );
    }

    #[test]
    fn branch_audit_sees_consistent_snapshots_under_concurrent_updates() {
        use sli_engine::BackendKind;
        for backend in [BackendKind::Locked2pl, BackendKind::Mvcc] {
            let db = Database::open(DatabaseConfig::default().backend(backend));
            let b = TpcB::load(&db, 2, 50);
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let mut writers = Vec::new();
            for t in 0..4u64 {
                let db = Arc::clone(&db);
                let b = Arc::clone(&b);
                let stop = Arc::clone(&stop);
                writers.push(std::thread::spawn(move || {
                    let s = db.session();
                    let mut rng = SmallRng::seed_from_u64(t);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        b.account_update(&s, &mut rng);
                    }
                }));
            }
            let s = db.session();
            let mut audits = 0;
            let mut retries = 0;
            while audits < 30 {
                match b.branch_audit(&s) {
                    Outcome::Commit => audits += 1,
                    Outcome::SysAbort => retries += 1, // victim/validation loser
                    Outcome::UserFail => {
                        panic!("audit observed an inconsistent cut on {backend:?}")
                    }
                }
                assert!(retries < 100_000, "audit never commits on {backend:?}");
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            for w in writers {
                w.join().unwrap();
            }
            let (bb, tb, _) = b.balance_sums(&db);
            assert_eq!(bb, tb);
        }
    }
}
