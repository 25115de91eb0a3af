//! The harness's front door: every experiment input, read once into
//! [`Knobs`], plus dataset construction on top of it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sli_engine::{BackendKind, Database, DatabaseConfig, PolicyKind};
use sli_traffic::ArrivalPattern;
use sli_workloads::tm1::{Tm1, Tm1Txn};
use sli_workloads::tpcb::TpcB;
use sli_workloads::tpcc::{TpcC, TpcCScale, TpcCTxn};
use sli_workloads::MixedWorkload;

use crate::traffic::TrafficKnobs;

/// The `--help` block of the harness's environment knobs: name, default,
/// meaning. [`Knobs::from_lookup`] asks for exactly the names listed here,
/// and setting any of them to its listed default changes nothing (tests
/// hold the two together).
pub const KNOB_HELP: &str = "\
SLI_MEASURE_MS         400              measurement window per point
SLI_WARMUP_MS          200              warmup before each window
SLI_MAX_AGENTS         nproc            largest agent count swept (>= 1)
SLI_TM1_SUBS           100000           TM1 subscribers
SLI_TPCB_BRANCHES      100              TPC-B branches
SLI_TPCC_WAREHOUSES    24               TPC-C warehouses
SLI_ROW_WORK_NS        800              synthetic per-row CPU cost
SLI_BACKEND            locked           locked|2pl|mvcc|occ concurrency backend
SLI_TRAFFIC_RATE       0                fixed open-loop arrival rate/s (0: ladder)
SLI_TRAFFIC_PATTERN    poisson          constant|poisson|bursty[:on_ms:off_ms]
SLI_TRAFFIC_SOAK_SECS  0                open-loop measure length (soak when > 0)
SLI_TRAFFIC_WORKERS    min(4,nproc)     open-loop worker pool (>= 1)
SLI_TORTURE_POINTS     60               crash points per torture workload
SLI_BENCH_DIR          bench-artifacts  artifact dir; empty or 0 disables";

/// Parse a numeric knob value; `None` when unset. Panics, naming the
/// variable and its value, when it is set but unparsable: a typo such as
/// `SLI_MEASURE_MS=1s` must fail the run, not silently measure the
/// default.
fn parse_num<T: std::str::FromStr>(name: &str, value: Option<String>) -> Option<T> {
    let v = value?;
    Some(
        v.trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v:?} is not a valid number")),
    )
}

/// Every input of the harness: dataset scale, measurement windows, the
/// engine under test, the open-loop and crash-torture settings, and the
/// artifact directory. Built once ([`Knobs::from_env`] in the binary,
/// [`Knobs::smoke`] in tests) and passed by reference to every
/// experiment.
#[derive(Clone, Debug)]
pub struct Knobs {
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
    /// Largest agent count to sweep (at least 1).
    pub max_agents: usize,
    /// Synthetic per-row CPU cost, ns: calibrates the baseline
    /// lock-manager share into the paper's band (EXPERIMENTS.md).
    pub row_work_ns: u64,
    /// Concurrency backend every experiment database opens with.
    pub backend: BackendKind,
    /// Open-loop (`traffic`) settings.
    pub traffic: TrafficKnobs,
    /// Crash points per workload in `crash-torture`.
    pub torture_points: u64,
    /// Artifact output directory; `None` disables `BENCH_*.json` emission.
    pub bench_dir: Option<PathBuf>,
}

impl Knobs {
    /// Knobs from the process environment (see [`KNOB_HELP`]): the
    /// harness library's one environment read.
    pub fn from_env() -> Self {
        // The experiment driver's front door. sli-lint: allow(env)
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// Knobs from any name-to-value lookup; an unset name keeps the
    /// default listed in [`KNOB_HELP`]. Panics, naming the variable and
    /// its value, on a malformed or degenerate setting.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let num = |name: &str, default: u64| parse_num(name, lookup(name)).unwrap_or(default);
        let at_least_one = |name: &str, default: u64| {
            let n = num(name, default);
            assert!(n >= 1, "{name}={n} must be at least 1");
            n as usize
        };
        let cores = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(8);
        let backend = lookup("SLI_BACKEND").map_or(BackendKind::default(), |v| {
            BackendKind::parse(&v)
                .unwrap_or_else(|| panic!("SLI_BACKEND={v:?} (expected locked|2pl|mvcc|occ)"))
        });
        let pattern = lookup("SLI_TRAFFIC_PATTERN").map_or(ArrivalPattern::Poisson, |v| {
            ArrivalPattern::parse(&v).unwrap_or_else(|| {
                panic!(
                    "SLI_TRAFFIC_PATTERN={v:?} (expected constant|poisson|bursty[:on_ms:off_ms])"
                )
            })
        });
        Knobs {
            tm1_subscribers: num("SLI_TM1_SUBS", 100_000),
            tpcb_branches: num("SLI_TPCB_BRANCHES", 100),
            tpcb_accounts: 1_000,
            tpcc: TpcCScale {
                warehouses: num("SLI_TPCC_WAREHOUSES", 24),
                customers_per_district: 300,
                items: 5_000,
                initial_orders_per_district: 150,
            },
            warmup: Duration::from_millis(num("SLI_WARMUP_MS", 200)),
            measure: Duration::from_millis(num("SLI_MEASURE_MS", 400)),
            max_agents: at_least_one("SLI_MAX_AGENTS", cores),
            row_work_ns: num("SLI_ROW_WORK_NS", 800),
            backend,
            traffic: TrafficKnobs {
                rate: parse_num("SLI_TRAFFIC_RATE", lookup("SLI_TRAFFIC_RATE"))
                    .filter(|r: &f64| *r > 0.0),
                pattern,
                soak: Some(Duration::from_secs(num("SLI_TRAFFIC_SOAK_SECS", 0)))
                    .filter(|d| !d.is_zero()),
                queue_cap: 4096,
                workers: at_least_one("SLI_TRAFFIC_WORKERS", cores.min(4)),
                window_ms: 500,
            },
            torture_points: num("SLI_TORTURE_POINTS", 60),
            bench_dir: match lookup("SLI_BENCH_DIR") {
                None => Some(PathBuf::from("bench-artifacts")),
                Some(v) if v.is_empty() || v == "0" => None,
                Some(v) => Some(PathBuf::from(v)),
            },
        }
    }

    /// A miniature scale for tests, emitting no artifacts.
    pub fn smoke() -> Self {
        Knobs {
            tm1_subscribers: 1_000,
            tpcb_branches: 4,
            tpcb_accounts: 100,
            tpcc: TpcCScale::tiny(),
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(60),
            max_agents: 4,
            bench_dir: None,
            ..Knobs::from_lookup(|_| None)
        }
    }

    /// The open-loop measure phase: the soak length when one is set, else
    /// the closed-loop window. Open-loop windows need a few seconds to
    /// mean anything, so the floor is 2 s even when that window is tiny.
    pub fn traffic_measure(&self) -> Duration {
        self.traffic
            .soak
            .unwrap_or(self.measure.max(Duration::from_secs(2)))
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
pub fn db_config(knobs: &Knobs, sli: bool) -> DatabaseConfig {
    db_config_for(
        knobs,
        if sli {
            PolicyKind::PaperSli
        } else {
            PolicyKind::Baseline
        },
    )
}

/// Database config for an explicit lock policy: in-memory, with the
/// knobs' row-work calibration and concurrency backend.
pub fn db_config_for(knobs: &Knobs, policy: PolicyKind) -> DatabaseConfig {
    let mut cfg = DatabaseConfig::with_policy(policy).in_memory();
    cfg.row_work_ns = knobs.row_work_ns;
    cfg.backend = knobs.backend;
    cfg
}

/// Load a TM1 database and return the requested workloads built on it.
pub fn tm1_workloads(knobs: &Knobs, sli: bool, which: &[&'static str]) -> Vec<LoadedWorkload> {
    let db = Database::open(db_config(knobs, sli));
    let tm1 = Tm1::load(&db, knobs.tm1_subscribers, 42);
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
pub fn tpcb_workload(knobs: &Knobs, sli: bool) -> LoadedWorkload {
    let db = Database::open(db_config(knobs, sli));
    let tpcb = TpcB::load(&db, knobs.tpcb_branches, knobs.tpcb_accounts);
    LoadedWorkload {
        label: "TPC-B",
        db,
        mix: tpcb.workload(),
    }
}

/// Load a TPC-C database and return the requested workloads built on it.
pub fn tpcc_workloads(knobs: &Knobs, sli: bool, which: &[&'static str]) -> Vec<LoadedWorkload> {
    let db = Database::open(db_config(knobs, sli));
    let tpcc = TpcC::load(&db, knobs.tpcc, 42);
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
pub fn all_breakdown_workloads(knobs: &Knobs, sli: bool) -> Vec<LoadedWorkload> {
    let mut v = tm1_workloads(
        knobs,
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
    v.push(tpcb_workload(knobs, sli));
    v.extend(tpcc_workloads(
        knobs,
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
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    /// A lookup over fixed `(name, value)` pairs; every other name is unset.
    fn lookup(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |name| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        }
    }

    #[test]
    fn ladders_are_monotone_and_bounded() {
        let mut s = Knobs::smoke();
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
        let set = Knobs::from_lookup(lookup(&[("SLI_MEASURE_MS", " 42 ")]));
        assert_eq!(set.measure, Duration::from_millis(42));
        let unset = Knobs::from_lookup(lookup(&[]));
        assert_eq!(unset.measure, Duration::from_millis(400));
        assert_eq!(unset.bench_dir, Some(PathBuf::from("bench-artifacts")));
        let off = Knobs::from_lookup(lookup(&[("SLI_BENCH_DIR", "0")]));
        assert_eq!(off.bench_dir, None);
    }

    #[test]
    fn traffic_measure_follows_measure_unless_soaking() {
        let k = Knobs {
            measure: Duration::from_secs(5),
            ..Knobs::from_lookup(lookup(&[]))
        };
        assert_eq!(k.traffic_measure(), Duration::from_secs(5));
        assert_eq!(Knobs::smoke().traffic_measure(), Duration::from_secs(2));
        let soak = Knobs {
            measure: Duration::from_secs(5),
            ..Knobs::from_lookup(lookup(&[("SLI_TRAFFIC_SOAK_SECS", "30")]))
        };
        assert_eq!(soak.traffic_measure(), Duration::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "SLI_MEASURE_MS=\"1.5e3\" is not a valid number")]
    fn malformed_numeric_knob_panics_with_name_and_value() {
        Knobs::from_lookup(lookup(&[("SLI_MEASURE_MS", "1.5e3")]));
    }

    #[test]
    #[should_panic(expected = "SLI_TRAFFIC_PATTERN=\"bursty:200ms:300\"")]
    fn malformed_traffic_pattern_panics_with_name_and_value() {
        Knobs::from_lookup(lookup(&[("SLI_TRAFFIC_PATTERN", "bursty:200ms:300")]));
    }

    #[test]
    #[should_panic(expected = "SLI_MAX_AGENTS=0 must be at least 1")]
    fn zero_max_agents_panics_with_name_and_value() {
        Knobs::from_lookup(lookup(&[("SLI_MAX_AGENTS", "0")]));
    }

    #[test]
    #[should_panic(expected = "SLI_TRAFFIC_WORKERS=0 must be at least 1")]
    fn zero_traffic_workers_panics_with_name_and_value() {
        Knobs::from_lookup(lookup(&[("SLI_TRAFFIC_WORKERS", "0")]));
    }

    #[test]
    fn well_formed_traffic_pattern_parses() {
        let k = Knobs::from_lookup(lookup(&[("SLI_TRAFFIC_PATTERN", "bursty:200:300")]));
        assert_eq!(
            k.traffic.pattern,
            ArrivalPattern::Bursty {
                on_ms: 200,
                off_ms: 300
            }
        );
    }

    #[test]
    fn from_lookup_reads_exactly_the_harness_knob_names() {
        let asked = RefCell::new(BTreeSet::new());
        Knobs::from_lookup(|name| {
            asked.borrow_mut().insert(name.to_string());
            None
        });
        let listed: BTreeSet<String> = KNOB_HELP
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .map(str::to_string)
            .collect();
        assert_eq!(KNOB_HELP.lines().count(), 14);
        assert_eq!(listed.len(), 14, "KNOB_HELP lists a name twice");
        assert_eq!(asked.into_inner(), listed);
    }

    #[test]
    fn knob_help_states_each_default() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8);
        let unset = format!("{:?}", Knobs::from_lookup(lookup(&[])));
        for line in KNOB_HELP.lines() {
            let mut cols = line.split_whitespace();
            let (name, default) = (cols.next().unwrap(), cols.next().unwrap());
            let value = match default {
                "nproc" => cores.to_string(),
                "min(4,nproc)" => cores.min(4).to_string(),
                v => v.to_string(),
            };
            let set = format!("{:?}", Knobs::from_lookup(lookup(&[(name, &value)])));
            assert_eq!(set, unset, "{name}: --help gives its default as {default}");
        }
    }

    #[test]
    fn workload_catalog_loads_at_smoke_scale() {
        let s = Knobs::smoke();
        let all = all_breakdown_workloads(&s, true);
        assert_eq!(all.len(), 15);
        let labels: Vec<_> = all.iter().map(|w| w.label).collect();
        assert!(labels.contains(&"NDBB-Mix"));
        assert!(labels.contains(&"TPC-B"));
        assert!(labels.contains(&"SmallMix"));
    }
}
