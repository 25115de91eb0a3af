//! The four workloads: what each loads, how it is driven, and how its
//! final state is checked. Every parameter is a constant of this file; no
//! environment variable changes a run.

use std::sync::Arc;

use sli_core::LockManagerConfig;
use sli_engine::{BackendKind, Database, DatabaseConfig, PolicyKind};
use sli_workloads::tm1::Tm1;
use sli_workloads::tpcb::TpcB;
use sli_workloads::tpcc::{TpcC, TpcCScale};
use sli_workloads::MixedWorkload;

/// Synthetic per-row CPU cost; part of the host fingerprint, never an
/// environment knob (the harness default, see EXPERIMENTS.md "calibration").
pub const ROW_WORK_NS: u64 = 800;
/// CAS retries of the lock manager's grant-word fast path; part of the host
/// fingerprint. The engine's default for it is the one setting of the
/// configurations used here that reads the environment (`SLI_FASTPATH_RETRY`),
/// so the benchmark overwrites it with the value that default has when the
/// variable is unset.
pub const FASTPATH_RETRY: u32 = 8;
/// Dataset load seed. Fixed: `--seed` varies the offered transactions, not
/// the data they run against.
const LOAD_SEED: u64 = 42;

const TM1_SUBSCRIBERS: u64 = 100_000;
const TPCB_BRANCHES: u64 = 100;
const TPCB_ACCOUNTS: u64 = 1_000;
const TPCC_SCALE: TpcCScale = TpcCScale {
    warehouses: 4,
    customers_per_district: 300,
    items: 5_000,
    initial_orders_per_district: 150,
};
/// Admission-queue bound of the open loop.
pub const QUEUE_CAP: usize = 4096;

/// Load threads: `min(nproc, 4)`.
pub fn load_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[derive(Clone, Copy, PartialEq)]
pub enum Drive {
    /// `load_threads()` agents, each sending its next transaction when the
    /// previous one returns.
    Closed,
    /// One pacer releasing seeded Poisson arrivals at `rate_per_s` into an
    /// admission queue drained by `max(1, load_threads() - 1)` workers. The
    /// rate is frozen (provenance in README.md): a faster engine must not get
    /// a harder test.
    Open { rate_per_s: f64 },
}

#[derive(Clone, Copy, PartialEq)]
enum Dataset {
    Tm1,
    TpcB { analytic: bool },
    TpcC,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: BackendKind,
    pub drive: Drive,
    /// Latency limit of `within_limit_frac`: 4 x the seed's median
    /// `lat_p95_us`, rounded and frozen (provenance in README.md).
    pub limit_us: f64,
    dataset: Dataset,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tm1-ndbb-closed",
        why: "TM1 NDBB mix, 100k subscribers, 2PL+PaperSli, closed loop: ~3us read-mostly txns, lock manager and profiler scopes dominate, 80% skip the log, mvcc/traffic idle",
        backend: BackendKind::Locked2pl,
        drive: Drive::Closed,
        limit_us: 46.0,
        dataset: Dataset::Tm1,
    },
    Spec {
        name: "tpcb-closed",
        why: "TPC-B account_update 100x1000, 2PL+PaperSli, closed loop: write-only, every txn appends ~5 log records and forces a commit, so wal and engine commit do the most work; bypasses mvcc/traffic",
        backend: BackendKind::Locked2pl,
        drive: Drive::Closed,
        limit_us: 200.0,
        dataset: Dataset::TpcB { analytic: false },
    },
    Spec {
        name: "tpcb-analytic-mvcc",
        why: "TPC-B 85% updates + 15% 1100-row audit scans on the MVCC backend, closed loop: long snapshot scans beside writers; all concurrency control in mvcc, the lock manager must do nothing",
        backend: BackendKind::Mvcc,
        drive: Drive::Closed,
        limit_us: 7700.0,
        dataset: Dataset::TpcB { analytic: true },
    },
    Spec {
        name: "tpcc-open",
        why: "TPC-C small mix W=4, 2PL+PaperSli, open loop: seeded Poisson arrivals at a frozen 3000/s through the admission queue, latency from scheduled arrival; inserts, index scans, largest lock footprints",
        backend: BackendKind::Locked2pl,
        drive: Drive::Open { rate_per_s: 3000.0 },
        limit_us: 1600.0,
        dataset: Dataset::TpcC,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

enum Data {
    Tm1(Arc<Tm1>),
    TpcB(Arc<TpcB>),
    TpcC,
}

/// A loaded database with the mix to drive against it.
pub struct Loaded {
    pub db: Arc<Database>,
    pub mix: MixedWorkload,
    data: Data,
}

/// What the driver saw over the whole life of a [`Loaded`] database (every
/// phase, not just the measured window), for the conservation checks.
#[derive(Clone, Default)]
pub struct Lifetime {
    /// Acknowledged commits per mix entry.
    pub commits_by_entry: Vec<u64>,
    pub user_fails: u64,
}

impl Lifetime {
    pub fn add(&mut self, other: &Lifetime) {
        self.user_fails += other.user_fails;
        if self.commits_by_entry.len() < other.commits_by_entry.len() {
            self.commits_by_entry
                .resize(other.commits_by_entry.len(), 0);
        }
        for (a, b) in self
            .commits_by_entry
            .iter_mut()
            .zip(&other.commits_by_entry)
        {
            *a += b;
        }
    }
}

pub fn lock_config(policy: PolicyKind) -> LockManagerConfig {
    let mut cfg = LockManagerConfig::with_policy(policy);
    cfg.fastpath.retry_budget = FASTPATH_RETRY;
    cfg
}

pub fn db_config(backend: BackendKind, policy: PolicyKind) -> DatabaseConfig {
    let mut cfg = DatabaseConfig::default().in_memory().backend(backend);
    cfg.lock = lock_config(policy);
    cfg.row_work_ns = ROW_WORK_NS;
    cfg
}

impl Spec {
    /// `Database::open` + dataset load + mix construction: what `setup_s`
    /// times.
    pub fn setup(&self) -> Loaded {
        self.setup_with_policy(PolicyKind::PaperSli)
    }

    /// As [`Spec::setup`] under another lock policy (`core.sli_gain`).
    pub fn setup_with_policy(&self, policy: PolicyKind) -> Loaded {
        let db = Database::open(db_config(self.backend, policy));
        let (mix, data) = match self.dataset {
            Dataset::Tm1 => {
                let tm1 = Tm1::load(&db, TM1_SUBSCRIBERS, LOAD_SEED);
                (tm1.ndbb_mix(), Data::Tm1(tm1))
            }
            Dataset::TpcB { analytic } => {
                let b = TpcB::load(&db, TPCB_BRANCHES, TPCB_ACCOUNTS);
                let mix = if analytic {
                    b.analytic_workload()
                } else {
                    b.workload()
                };
                (mix, Data::TpcB(b))
            }
            Dataset::TpcC => (
                TpcC::load(&db, TPCC_SCALE, LOAD_SEED).small_mix(),
                Data::TpcC,
            ),
        };
        Loaded { db, mix, data }
    }

    /// Number of threads that run transactions.
    pub fn workers(&self) -> usize {
        match self.drive {
            Drive::Closed => load_threads(),
            Drive::Open { .. } => load_threads().saturating_sub(1).max(1),
        }
    }
}

impl Loaded {
    /// Check the final state against what the driver was acknowledged.
    /// Call with no transaction running. Returns every violated invariant.
    pub fn check(&self, life: &Lifetime) -> Vec<String> {
        let mut bad = Vec::new();
        // Collapse MVCC version chains so `peek` reads committed state.
        self.db.quiesce();
        match &self.data {
            Data::Tm1(tm1) => {
                // No NDBB transaction adds or removes a subscriber, and the
                // mix's spec-expected failures are a fixed share of it.
                let subs = self.db.record_count(tm1.subscriber_table());
                if subs != tm1.subscribers {
                    bad.push(format!(
                        "tm1: {subs} subscribers, loaded {}",
                        tm1.subscribers
                    ));
                }
                let commits: u64 = life.commits_by_entry.iter().sum();
                let total = (commits + life.user_fails).max(1);
                let fail = life.user_fails as f64 / total as f64;
                if !(0.15..=0.35).contains(&fail) {
                    bad.push(format!(
                        "tm1: user-fail share {fail:.3} outside [0.15, 0.35]"
                    ));
                }
            }
            Data::TpcB(b) => {
                let (bb, tb, ab) = b.balance_sums(&self.db);
                if bb != tb || bb != ab {
                    bad.push(format!("tpcb: balance sums diverge: {bb} / {tb} / {ab}"));
                }
                // The only user failure in TPC-B is the audit's
                // `snapshot-inconsistent` abort.
                if life.user_fails != 0 {
                    bad.push(format!(
                        "tpcb: {} snapshot-inconsistent audits",
                        life.user_fails
                    ));
                }
                // Every acknowledged account update appended exactly one
                // history row (entry 0 of both TPC-B mixes; audits append none).
                let history = self
                    .db
                    .table_handle("tpcb_history")
                    .map_or(0, |t| self.db.record_count(t));
                if history != life.commits_by_entry[0] {
                    bad.push(format!(
                        "tpcb: {history} history rows != {} acknowledged updates",
                        life.commits_by_entry[0]
                    ));
                }
                if self.db.backend_kind() == BackendKind::Mvcc {
                    let locks = self.db.lock_stats();
                    if locks.lock_requests + locks.fastpath_granted + locks.cache_hits != 0 {
                        bad.push(format!(
                            "mvcc run touched the lock manager: {} requests",
                            locks.lock_requests
                        ));
                    }
                }
            }
            Data::TpcC => {
                if let Err(e) = TpcC::check_recovered(&self.db, TPCC_SCALE) {
                    bad.push(format!("tpcc: {e}"));
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_sli_variable_reaches_a_configuration() {
        // The only test that touches this variable; the others overwrite
        // whatever they read of it.
        std::env::set_var("SLI_FASTPATH_RETRY", "1");
        let cfg = db_config(BackendKind::Locked2pl, PolicyKind::PaperSli);
        assert_eq!(cfg.lock.fastpath.retry_budget, FASTPATH_RETRY);
        assert_eq!(
            lock_config(PolicyKind::Baseline).fastpath.retry_budget,
            FASTPATH_RETRY
        );
        std::env::remove_var("SLI_FASTPATH_RETRY");
        let unset = LockManagerConfig::with_policy(PolicyKind::PaperSli);
        assert_eq!(unset.fastpath.retry_budget, FASTPATH_RETRY);
    }
}
