//! Crash-torture: seeded fault injection over TPC-B and TPC-C.
//!
//! Each *crash point* loads a durable database, runs a few agent threads
//! of the workload, then kills it in one of four flavors:
//!
//! - **kill** — truncate the durable log at a random *record boundary*
//!   (a clean crash between two flushes);
//! - **tear** — truncate at a random *byte* (a crash mid-write, leaving
//!   a torn final record);
//! - **fsync** — arm a seeded [`FaultPlan`]: one flush fails partway
//!   through and poisons the device, so some commits are never
//!   acknowledged;
//! - **live** — snapshot the device *mid-run*, while appenders hold
//!   reserved-but-unpublished ring reservations and committers are
//!   parked on in-flight flushes, then cut the snapshot at a random
//!   byte. This is the ring-aware crash: holes must have pinned the
//!   flush boundary, so the snapshot can never contain a half-encoded
//!   record.
//!
//! The fsync and live flavors run with a non-zero simulated flush
//!   latency so the group-commit pipeline is actually populated —
//!   committers are *parked* at the moment the failure (or snapshot)
//!   lands, not racing through empty flushes.
//!
//! The survivor bytes are recovered ([`Database::recover`]) and checked:
//!
//! 1. workload invariants hold (TPC-B balance conservation with history
//!    count == durable winners; TPC-C money conservation + order/line
//!    structural integrity);
//! 2. in the fsync flavor, every *acknowledged* commit is durable
//!    (winners >= acks — an ack the log lost would be a lie);
//! 3. recovery is idempotent: recovering the recovered log undoes
//!    nothing, ends clean, and leaves an identical state hash.
//!
//! Every violation is counted and printed; [`crash_torture`] returns the
//! totals so the binary (and CI) can gate on zero.
//!
//! Scale: [`Knobs::torture_points`] (`SLI_TORTURE_POINTS` crash points per
//! workload, default 60), each driving 3 agents x 30 transactions. The
//! run is seeded with a fixed `0xC0FFEE`, and
//! the engine under test is [`Knobs::backend`], so `SLI_BACKEND=mvcc`
//! tortures the validate-at-commit path against the same crash matrix.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sli_engine::{BackendKind, Database, DatabaseConfig, FaultPlan, PolicyKind};
use sli_wal::LogRecord;
use sli_workloads::mix::{MixedWorkload, Outcome};
use sli_workloads::tpcb::TpcB;
use sli_workloads::tpcc::{TpcC, TpcCScale};

use crate::setup::Knobs;

/// Seed of the whole torture matrix; every crash point derives its own.
const TORTURE_SEED: u64 = 0xC0_FFEE;

/// Agent threads per crash point.
const TORTURE_AGENTS: u64 = 3;

/// Transactions per agent per crash point.
const TORTURE_TXNS: u64 = 30;

/// How one crash point kills the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashFlavor {
    /// Truncate the log at a random record boundary.
    Kill,
    /// Truncate the log at a random byte (torn final record).
    Tear,
    /// Seeded fsync failure: a flush drops bytes and poisons the device.
    Fsync,
    /// Snapshot the device mid-run (ring holes + parked committers in
    /// flight), then cut the snapshot at a random byte.
    Live,
}

impl CrashFlavor {
    fn of(i: u64) -> CrashFlavor {
        match i % 4 {
            0 => CrashFlavor::Kill,
            1 => CrashFlavor::Tear,
            2 => CrashFlavor::Fsync,
            _ => CrashFlavor::Live,
        }
    }

    fn name(self) -> &'static str {
        match self {
            CrashFlavor::Kill => "kill",
            CrashFlavor::Tear => "tear",
            CrashFlavor::Fsync => "fsync",
            CrashFlavor::Live => "live",
        }
    }
}

/// Torture-run totals, for gating.
#[derive(Clone, Copy, Debug, Default)]
pub struct TortureSummary {
    /// Crash points executed.
    pub points: u64,
    /// Invariant violations observed (must be zero).
    pub violations: u64,
    /// Transactions acknowledged as committed across all points.
    pub acked: u64,
    /// Durable winner transactions recovered across all points.
    pub winners: u64,
    /// Active losers the undo pass reversed across all points.
    pub undone: u64,
}

struct Point {
    workload: &'static str,
    flavor: CrashFlavor,
    policy: PolicyKind,
    seed: u64,
}

fn durable_config(
    backend: BackendKind,
    policy: PolicyKind,
    fault: FaultPlan,
    flush_latency: std::time::Duration,
) -> DatabaseConfig {
    let mut cfg = DatabaseConfig::with_policy(policy).durable();
    cfg.log.fault = fault;
    cfg.log.flush_latency = flush_latency;
    cfg.backend = backend;
    cfg
}

/// Recovery-side config: same backend as the crashed instance, so the
/// recovered database accepts new transactions on the engine under test.
fn recovery_config(backend: BackendKind) -> DatabaseConfig {
    DatabaseConfig::default().backend(backend)
}

/// Drive `agents` threads of `mix` for `txns` transactions each and
/// return the number of acknowledged *write* commits. Read-only
/// transactions (TPC-C OrderStatus/StockLevel) commit without touching
/// the log, so they can never show up as durable winners and must not
/// count toward the acknowledgement-honesty check.
///
/// With `snapshot_after = Some(n)`, the device is additionally
/// snapshotted once `n` transactions have completed *while the agents
/// keep running* — the live-crash capture: ring reservations are
/// unpublished, committers are parked mid-flush, and the snapshot must
/// still be a record-boundary-clean prefix.
fn drive(
    db: &Arc<Database>,
    mix: Arc<MixedWorkload>,
    agents: u64,
    txns: u64,
    seed: u64,
    snapshot_after: Option<u64>,
) -> (u64, Option<Vec<u8>>) {
    let read_only: Vec<bool> = mix
        .transaction_names()
        .iter()
        .map(|n| matches!(*n, "OrderStatus" | "StockLevel"))
        .collect();
    let read_only = Arc::new(read_only);
    let done = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut handles = Vec::new();
    for a in 0..agents {
        let db = Arc::clone(db);
        let mix = Arc::clone(&mix);
        let read_only = Arc::clone(&read_only);
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            let s = db.session();
            let mut rng = SmallRng::seed_from_u64(seed ^ (a.wrapping_mul(0x9E37_79B9)));
            let mut acked = 0u64;
            for _ in 0..txns {
                let (idx, outcome) = mix.run_one(&s, &mut rng);
                if outcome == Outcome::Commit && !read_only[idx] {
                    acked += 1;
                }
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            acked
        }));
    }
    let snapshot = snapshot_after.map(|n| {
        while done.load(std::sync::atomic::Ordering::Relaxed) < n {
            std::thread::yield_now();
        }
        db.durable_log()
    });
    let acked = handles.into_iter().map(|h| h.join().unwrap()).sum();
    (acked, snapshot)
}

/// Pick where to cut the device bytes for a crash flavor. `floor` is the
/// durably-forced load prefix — the crash never predates the base data,
/// matching a deployment that checkpoints after loading.
fn cut_for(flavor: CrashFlavor, log: &[u8], floor: usize, rng: &mut SmallRng) -> usize {
    match flavor {
        CrashFlavor::Kill => {
            let boundaries: Vec<usize> = LogRecord::boundaries(log)
                .into_iter()
                .filter(|&b| b >= floor)
                .collect();
            boundaries[rng.gen_range(0..boundaries.len())]
        }
        CrashFlavor::Tear => rng.gen_range(floor..=log.len()),
        // The injected flush failure already left the device torn (or
        // short); the "crash" takes the whole device as-is.
        CrashFlavor::Fsync => log.len(),
        // The mid-run snapshot is the crash image; cut it anywhere past
        // the load prefix (the device may also tear mid-write).
        CrashFlavor::Live => rng.gen_range(floor..=log.len()),
    }
}

fn run_point(point: &Point, knobs: &Knobs) -> Result<TortureSummary, String> {
    let mut rng = SmallRng::seed_from_u64(point.seed);
    let fault = match point.flavor {
        CrashFlavor::Fsync => {
            // Fail a flush after the workload has started committing:
            // the load itself forces once, so flush 2.. lands mid-run.
            FaultPlan::fail_nth(2 + rng.gen_range(0..16u64), rng.gen_range(0..48usize))
        }
        _ => FaultPlan::none(),
    };
    // Fsync and live points simulate a slow device so the group-commit
    // pipeline fills up: the failure (or snapshot) lands while
    // committers are parked on in-flight flushes, not between them.
    let latency = match point.flavor {
        CrashFlavor::Fsync | CrashFlavor::Live => std::time::Duration::from_micros(200),
        _ => std::time::Duration::ZERO,
    };
    let db = Database::open(durable_config(knobs.backend, point.policy, fault, latency));

    // Load the workload small enough that a point stays well under a
    // second but large enough for real page/lock populations.
    let (mix, tpcb_scale): (Arc<MixedWorkload>, Option<(u64, u64)>) = match point.workload {
        "tpcb" => {
            let b = TpcB::load(&db, 2, 40);
            (Arc::new(b.workload()), Some((2, 40)))
        }
        _ => {
            let c = TpcC::load(&db, TpcCScale::tiny(), point.seed);
            (Arc::new(c.small_mix()), None)
        }
    };
    db.force_log()
        .map_err(|e| format!("load force failed: {e}"))?;
    let floor = db.durable_log().len();

    // Live points capture the device while roughly half the workload is
    // still in flight; the other flavors crash after the run.
    let snapshot_after = match point.flavor {
        CrashFlavor::Live => Some((TORTURE_AGENTS * TORTURE_TXNS) / 2),
        _ => None,
    };
    let (acked, live_snap) = drive(
        &db,
        mix,
        TORTURE_AGENTS,
        TORTURE_TXNS,
        point.seed ^ 0xDEAD_BEEF,
        snapshot_after,
    );

    // Crash: take the device bytes and cut them per flavor.
    let log = match live_snap {
        Some(snap) => snap,
        None => db.durable_log(),
    };
    let cut = cut_for(point.flavor, &log, floor, &mut rng);
    drop(db);

    let (rec, report) = Database::recover(recovery_config(knobs.backend), &log[..cut])
        .map_err(|e| format!("recovery failed: {e}"))?;

    // The ring's hole discipline means a crash can tear at most the
    // final record: the survivor bytes decode Clean or Torn, never
    // Corrupt, in every flavor (a Corrupt end would mean a flush wrote
    // a half-encoded or reordered record).
    if report.end == sli_engine::DecodeEnd::Corrupt {
        return Err("recovered log decoded as Corrupt".to_string());
    }

    // Workload invariants on the recovered database.
    match tpcb_scale {
        Some((branches, accounts)) => {
            let history = TpcB::check_recovered(&rec, branches, accounts)?;
            if history != report.winners {
                return Err(format!(
                    "history rows {history} != durable winners {}",
                    report.winners
                ));
            }
        }
        None => TpcC::check_recovered(&rec, TpcCScale::tiny())?,
    }

    // Acknowledgement honesty: with the full device (fsync flavor), every
    // acked commit must have survived. (Kill/tear cuts may legitimately
    // drop acked commits — those crashes lose the tail of the device.)
    if point.flavor == CrashFlavor::Fsync && report.winners < acked {
        return Err(format!(
            "acked {acked} commits but only {} are durable",
            report.winners
        ));
    }

    // Idempotence: recovering the recovered log is a no-op.
    let log2 = rec.durable_log();
    let hash1 = rec.state_hash();
    let (rec2, report2) = Database::recover(recovery_config(knobs.backend), &log2)
        .map_err(|e| format!("second recovery failed: {e}"))?;
    if report2.undone != 0 {
        return Err(format!("second recovery undid {} txns", report2.undone));
    }
    if report2.end != sli_engine::DecodeEnd::Clean {
        return Err(format!("recovered log not clean: {:?}", report2.end));
    }
    if rec2.state_hash() != hash1 {
        return Err("second recovery changed the state hash".to_string());
    }

    Ok(TortureSummary {
        points: 1,
        violations: 0,
        acked,
        winners: report.winners,
        undone: report.undone,
    })
}

/// Run the full torture matrix and print one row per crash point group.
/// Returns the totals; callers gate on `violations == 0`.
pub fn crash_torture(knobs: &Knobs) -> TortureSummary {
    let points = knobs.torture_points;
    let seed = TORTURE_SEED;

    println!(
        "crash-torture: {points} points x {{tpcb, tpcc}} ({TORTURE_AGENTS} agents x {TORTURE_TXNS} txns, seed {seed:#x})"
    );
    println!(
        "{:<6} {:<7} {:>7} {:>9} {:>9} {:>8} {:>11}",
        "wload", "flavor", "points", "acked", "winners", "undone", "violations"
    );

    let mut total = TortureSummary::default();
    for workload in ["tpcb", "tpcc"] {
        let mut by_flavor: Vec<(CrashFlavor, TortureSummary)> = vec![
            (CrashFlavor::Kill, TortureSummary::default()),
            (CrashFlavor::Tear, TortureSummary::default()),
            (CrashFlavor::Fsync, TortureSummary::default()),
            (CrashFlavor::Live, TortureSummary::default()),
        ];
        for i in 0..points {
            let point = Point {
                workload,
                flavor: CrashFlavor::of(i),
                // Alternate lock policies so recovery sees the logs of
                // both.
                policy: if i % 2 == 0 {
                    PolicyKind::Baseline
                } else {
                    PolicyKind::PaperSli
                },
                seed: seed
                    ^ (i.wrapping_mul(0x517C_C1B7_2722_0A95))
                    ^ ((workload.len() as u64) << 56),
            };
            let slot = by_flavor
                .iter_mut()
                .find(|(f, _)| *f == point.flavor)
                .map(|(_, s)| s)
                .expect("flavor slot exists");
            match run_point(&point, knobs) {
                Ok(s) => {
                    slot.points += s.points;
                    slot.acked += s.acked;
                    slot.winners += s.winners;
                    slot.undone += s.undone;
                }
                Err(why) => {
                    slot.points += 1;
                    slot.violations += 1;
                    println!(
                        "VIOLATION [{workload}/{} seed {:#x}]: {why}",
                        point.flavor.name(),
                        point.seed
                    );
                }
            }
        }
        for (flavor, s) in &by_flavor {
            println!(
                "{:<6} {:<7} {:>7} {:>9} {:>9} {:>8} {:>11}",
                workload,
                flavor.name(),
                s.points,
                s.acked,
                s.winners,
                s.undone,
                s.violations
            );
            total.points += s.points;
            total.violations += s.violations;
            total.acked += s.acked;
            total.winners += s.winners;
            total.undone += s.undone;
        }
    }
    println!(
        "total: {} points, {} violations",
        total.points, total.violations
    );
    total
}
