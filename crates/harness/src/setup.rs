//! Dataset construction and experiment scaling.

use std::sync::Arc;
use std::time::Duration;

use sli_engine::{BackendKind, Database, DatabaseConfig, LogConfig};
use sli_workloads::tm1::{Tm1, Tm1Txn};
use sli_workloads::tpcb::TpcB;
use sli_workloads::tpcc::{TpcC, TpcCScale, TpcCTxn};
use sli_workloads::MixedWorkload;

/// Read a `u64` environment knob. Panics, naming the variable and its
/// value, when it is set but not an unsigned integer: a typo such as
/// `SLI_LOG_RING=1M` must fail the run, not silently measure the default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    env_num(name).unwrap_or(default)
}

/// Parse a numeric environment knob; `None` when unset. Panics when set
/// but unparsable (see [`env_u64`]).
pub(crate) fn env_num<T: std::str::FromStr>(name: &str) -> Option<T> {
    let v = std::env::var(name).ok()?;
    Some(
        v.trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v:?} is not a valid number")),
    )
}

/// Apply the log front-end knobs on top of `log`: `SLI_LOG_RING` (ring
/// bytes) and `SLI_LOG_BATCH_US` (the flusher's batch-window cap in µs),
/// so experiments can sweep the ring without recompiling.
pub(crate) fn env_log(mut log: LogConfig) -> LogConfig {
    if let Some(n) = env_num("SLI_LOG_RING") {
        log.ring_bytes = n;
    }
    if let Some(us) = env_num("SLI_LOG_BATCH_US") {
        log.batch_window = Duration::from_micros(us);
    }
    log
}

/// Global scaling for experiments, from environment variables.
#[derive(Clone, Debug)]
pub struct ExperimentScale {
    /// TM1 subscribers.
    pub tm1_subscribers: u64,
    /// TPC-B branches.
    pub tpcb_branches: u64,
    /// TPC-B accounts per branch.
    pub tpcb_accounts: u64,
    /// TPC-C scale.
    pub tpcc: TpcCScale,
    /// Warmup per measurement point.
    pub warmup: Duration,
    /// Measurement window per point.
    pub measure: Duration,
    /// Largest agent count to sweep.
    pub max_agents: usize,
}

impl ExperimentScale {
    /// Scale from `SLI_*` environment variables; an unset knob keeps the
    /// default written next to it.
    pub fn from_env() -> Self {
        let max_agents = env_u64(
            "SLI_MAX_AGENTS",
            std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(8),
        ) as usize;
        ExperimentScale {
            tm1_subscribers: env_u64("SLI_TM1_SUBS", 100_000),
            tpcb_branches: env_u64("SLI_TPCB_BRANCHES", 100),
            tpcb_accounts: env_u64("SLI_TPCB_ACCOUNTS", 1_000),
            tpcc: TpcCScale {
                warehouses: env_u64("SLI_TPCC_WAREHOUSES", 24),
                customers_per_district: env_u64("SLI_TPCC_CUSTOMERS", 300),
                items: env_u64("SLI_TPCC_ITEMS", 5_000),
                initial_orders_per_district: env_u64("SLI_TPCC_ORDERS", 150),
            },
            warmup: Duration::from_millis(env_u64("SLI_WARMUP_MS", 200)),
            measure: Duration::from_millis(env_u64("SLI_MEASURE_MS", 400)),
            max_agents,
        }
    }

    /// A miniature scale for tests.
    pub fn smoke() -> Self {
        ExperimentScale {
            tm1_subscribers: 1_000,
            tpcb_branches: 4,
            tpcb_accounts: 100,
            tpcc: TpcCScale::tiny(),
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(60),
            max_agents: 4,
        }
    }

    /// The agent counts swept by load-varying figures: powers of two up to
    /// `max_agents`, always including `max_agents` itself.
    pub fn agent_ladder(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut n = 1;
        while n < self.max_agents {
            out.push(n);
            n *= 2;
        }
        out.push(self.max_agents);
        out.dedup();
        out
    }

    /// A compressed ladder for the expensive many-workload figures.
    pub fn short_ladder(&self) -> Vec<usize> {
        let m = self.max_agents;
        let mut v = vec![1, (m / 4).max(1), (m / 2).max(1), m];
        v.dedup();
        v
    }
}

/// A named, loaded workload ready to drive: `(label, database, mix)`.
pub struct LoadedWorkload {
    /// Display label (column name in the figures).
    pub label: &'static str,
    /// The loaded database.
    pub db: Arc<Database>,
    /// The transaction mix to drive.
    pub mix: MixedWorkload,
}

/// Database config for a given SLI setting, always in-memory (the paper
/// decouples I/O from the lock-manager experiments).
/// `SLI_ROW_WORK_NS` (default 800) calibrates the synthetic per-row CPU
/// cost so the baseline lock-manager share lands in the paper's band.
pub fn db_config(sli: bool) -> DatabaseConfig {
    db_config_for(if sli {
        sli_engine::PolicyKind::PaperSli
    } else {
        sli_engine::PolicyKind::Baseline
    })
}

/// Database config for an arbitrary inheritance policy, always in-memory,
/// with the same `SLI_ROW_WORK_NS` calibration as [`db_config`]. The
/// policy-matrix experiment sweeps this over [`sli_engine::PolicyKind::ALL`].
pub fn db_config_for(policy: sli_engine::PolicyKind) -> DatabaseConfig {
    let mut cfg = DatabaseConfig::with_policy(policy).in_memory();
    cfg.row_work_ns = env_u64("SLI_ROW_WORK_NS", 800);
    cfg.log = env_log(cfg.log);
    // Concurrency backend (`SLI_BACKEND`: `locked`/`2pl` or `mvcc`) and
    // MVCC GC cadence (`SLI_MVCC_GC_EVERY`).
    cfg.backend = env_backend();
    cfg.mvcc.gc_every = env_u64("SLI_MVCC_GC_EVERY", cfg.mvcc.gc_every);
    cfg
}

/// The `SLI_BACKEND` knob (default: the locked backend). Panics on an
/// unknown spelling so experiment drivers fail loudly, not silently on
/// the wrong engine.
pub fn env_backend() -> BackendKind {
    match std::env::var("SLI_BACKEND") {
        Ok(v) => BackendKind::parse(&v)
            .unwrap_or_else(|| panic!("SLI_BACKEND={v:?} (expected locked|2pl|mvcc|occ)")),
        Err(_) => BackendKind::default(),
    }
}

/// Database config for an explicit backend choice (the `backend-matrix`
/// experiment sweeps this): policy applies to the locked backend; on
/// MVCC the lock manager sits idle and the policy is irrelevant.
pub fn db_config_backend(policy: sli_engine::PolicyKind, backend: BackendKind) -> DatabaseConfig {
    let mut cfg = db_config_for(policy);
    cfg.backend = backend;
    cfg
}

/// Load a TM1 database and return the requested workloads built on it.
pub fn tm1_workloads(
    scale: &ExperimentScale,
    sli: bool,
    which: &[&'static str],
) -> Vec<LoadedWorkload> {
    let db = Database::open(db_config(sli));
    let tm1 = Tm1::load(&db, scale.tm1_subscribers, 42);
    which
        .iter()
        .map(|&label| {
            let mix = match label {
                "getSub" => tm1.single(Tm1Txn::GetSubscriberData),
                "getDest" => tm1.single(Tm1Txn::GetNewDestination),
                "getAccess" => tm1.single(Tm1Txn::GetAccessData),
                "updateSub" => tm1.single(Tm1Txn::UpdateSubscriberData),
                "updateLoc" => tm1.single(Tm1Txn::UpdateLocation),
                "ForwardMix" => tm1.forward_mix(),
                "NDBB-Mix" => tm1.ndbb_mix(),
                other => panic!("unknown TM1 workload {other}"),
            };
            LoadedWorkload {
                label,
                db: Arc::clone(&db),
                mix,
            }
        })
        .collect()
}

/// Load a TPC-B database and return its single workload.
pub fn tpcb_workload(scale: &ExperimentScale, sli: bool) -> LoadedWorkload {
    let db = Database::open(db_config(sli));
    let tpcb = TpcB::load(&db, scale.tpcb_branches, scale.tpcb_accounts);
    LoadedWorkload {
        label: "TPC-B",
        db,
        mix: tpcb.workload(),
    }
}

/// Load a TPC-C database and return the requested workloads built on it.
pub fn tpcc_workloads(
    scale: &ExperimentScale,
    sli: bool,
    which: &[&'static str],
) -> Vec<LoadedWorkload> {
    let db = Database::open(db_config(sli));
    let tpcc = TpcC::load(&db, scale.tpcc, 42);
    which
        .iter()
        .map(|&label| {
            let mix = match label {
                "Payment" => tpcc.single(TpcCTxn::Payment),
                "NewOrder" => tpcc.single(TpcCTxn::NewOrder),
                "OrderStatus" => tpcc.single(TpcCTxn::OrderStatus),
                // Pure Delivery drains the new_order backlog within a
                // measurement window at this engine's speeds (the paper's
                // 300-warehouse backlog lasted its whole run), after which
                // it degenerates into empty index probes. Pair it with a
                // NewOrder feeder so the measured steady state actually
                // delivers orders. See EXPERIMENTS.md.
                "Delivery" => sli_workloads::MixedWorkload::merged(
                    "Delivery(+feed)",
                    vec![
                        (0.5, tpcc.single(TpcCTxn::Delivery)),
                        (0.5, tpcc.single(TpcCTxn::NewOrder)),
                    ],
                ),
                "StockLevel" => tpcc.single(TpcCTxn::StockLevel),
                "SmallMix" => tpcc.small_mix(),
                "TPCC-Mix" => tpcc.full_mix(),
                other => panic!("unknown TPC-C workload {other}"),
            };
            LoadedWorkload {
                label,
                db: Arc::clone(&db),
                mix,
            }
        })
        .collect()
}

/// The canonical column set of the breakdown figures (6, 8, 9, 10, 11):
/// the five individually-evaluated NDBB transactions, the two NDBB mixes,
/// TPC-B, the five TPC-C transactions, and the two TPC-C mixes.
pub fn all_breakdown_workloads(scale: &ExperimentScale, sli: bool) -> Vec<LoadedWorkload> {
    let mut v = tm1_workloads(
        scale,
        sli,
        &[
            "getSub",
            "getDest",
            "getAccess",
            "updateSub",
            "updateLoc",
            "ForwardMix",
            "NDBB-Mix",
        ],
    );
    v.push(tpcb_workload(scale, sli));
    v.extend(tpcc_workloads(
        scale,
        sli,
        &[
            "Payment",
            "NewOrder",
            "OrderStatus",
            "Delivery",
            "StockLevel",
            "SmallMix",
            "TPCC-Mix",
        ],
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_are_monotone_and_bounded() {
        let mut s = ExperimentScale::smoke();
        s.max_agents = 24;
        let ladder = s.agent_ladder();
        assert_eq!(ladder.first(), Some(&1));
        assert_eq!(ladder.last(), Some(&24));
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        let short = s.short_ladder();
        assert!(short.len() <= 4);
        assert_eq!(short.last(), Some(&24));
    }

    #[test]
    fn numeric_knobs_parse_or_fall_back() {
        std::env::set_var("ENV_U64_TEST_SET", " 42 ");
        assert_eq!(env_u64("ENV_U64_TEST_SET", 7), 42);
        assert_eq!(env_u64("ENV_U64_TEST_UNSET", 7), 7);
    }

    #[test]
    #[should_panic(expected = "ENV_U64_TEST_BAD=\"1.5e3\" is not a valid number")]
    fn malformed_numeric_knob_panics_with_name_and_value() {
        std::env::set_var("ENV_U64_TEST_BAD", "1.5e3");
        env_u64("ENV_U64_TEST_BAD", 400);
    }

    #[test]
    fn workload_catalog_loads_at_smoke_scale() {
        let s = ExperimentScale::smoke();
        let all = all_breakdown_workloads(&s, true);
        assert_eq!(all.len(), 15);
        let labels: Vec<_> = all.iter().map(|w| w.label).collect();
        assert!(labels.contains(&"NDBB-Mix"));
        assert!(labels.contains(&"TPC-B"));
        assert!(labels.contains(&"SmallMix"));
    }
}
