//! The backend-matrix experiment: one workload set, every concurrency
//! backend.
//!
//! The paper attacks lock-manager overhead while *keeping* 2PL; the MVCC
//! backend is the other end of that design axis — no lock manager at all,
//! snapshot reads plus validate-at-commit writes. This experiment runs the
//! same three workloads on three engines and puts the trade side by side:
//!
//! - **TPC-B** — the write-hot stress case: every transaction updates the
//!   branch row, so MVCC pays first-writer-wins aborts where 2PL pays
//!   blocking;
//! - **TPC-C Payment** — the paper's hot-ancestor workload, where SLI
//!   earns its keep;
//! - **TPC-B analytic** — a reader-heavy mix (85% account updates, 15%
//!   whole-bank audit scans) where snapshot isolation shines: the audit
//!   never blocks writers and never deadlocks.
//!
//! Backends: `Locked2pl` with the paper's SLI policy, `Locked2pl`
//! baseline, and `Mvcc`. Every MVCC run is stat-asserted to have touched
//! the lock manager **zero** times (no requests, no grant-word fast-path
//! grants) — the whole point of the seam is that the alternative backend
//! really does bypass the subsystem under study.

use std::sync::Arc;

use sli_engine::{BackendKind, Database, MvccStats, PolicyKind};
use sli_workloads::tpcb::TpcB;
use sli_workloads::tpcc::{TpcC, TpcCTxn};
use sli_workloads::MixedWorkload;

use crate::driver::run_workload;
use crate::setup::{db_config_for, Knobs};

/// One cell of the backend matrix: one workload on one backend at one
/// agent count.
#[derive(Clone, Debug)]
pub struct BackendMatrixRow {
    /// Workload label.
    pub workload: &'static str,
    /// Backend variant label (`locked-sli`, `locked-base`, `mvcc`).
    pub variant: &'static str,
    /// Agent threads offered.
    pub agents: usize,
    /// Attempts per second.
    pub throughput: f64,
    /// Committed transactions in the window.
    pub commits: u64,
    /// System aborts in the window (deadlock victims on the locked
    /// backend, validation losers on MVCC).
    pub sys_aborts: u64,
    /// Lock-manager requests during the window (must be 0 on MVCC).
    pub lock_requests: u64,
    /// Grant-word fast-path grants during the window (must be 0 on MVCC).
    pub fastpath_granted: u64,
    /// MVCC validation aborts during the window (0 on locked backends).
    pub validation_aborts: u64,
    /// MVCC first-writer-wins conflicts during the window.
    pub ww_conflicts: u64,
    /// MVCC reader waits on pending committers during the window.
    pub read_waits: u64,
    /// MVCC shadowed versions pruned by online GC during the window.
    pub versions_pruned: u64,
}

/// The three engine variants of the matrix, in display order.
const VARIANTS: [(&str, PolicyKind, BackendKind); 3] = [
    ("locked-sli", PolicyKind::PaperSli, BackendKind::Locked2pl),
    ("locked-base", PolicyKind::Baseline, BackendKind::Locked2pl),
    // The policy is irrelevant on MVCC: the lock manager sits idle
    // (stat-asserted below).
    ("mvcc", PolicyKind::Baseline, BackendKind::Mvcc),
];

const WORKLOADS: [&str; 3] = ["TPC-B", "Payment", "TPC-B-analytic"];

fn load_mix(workload: &'static str, db: &Arc<Database>, knobs: &Knobs) -> MixedWorkload {
    match workload {
        "TPC-B" => TpcB::load(db, knobs.tpcb_branches, knobs.tpcb_accounts).workload(),
        "Payment" => TpcC::load(db, knobs.tpcc, 42).single(TpcCTxn::Payment),
        "TPC-B-analytic" => {
            TpcB::load(db, knobs.tpcb_branches, knobs.tpcb_accounts).analytic_workload()
        }
        other => panic!("unknown backend-matrix workload {other}"),
    }
}

fn mvcc_delta(after: &MvccStats, before: &MvccStats) -> MvccStats {
    MvccStats {
        begins: after.begins - before.begins,
        ro_commits: after.ro_commits - before.ro_commits,
        commits: after.commits - before.commits,
        validation_aborts: after.validation_aborts - before.validation_aborts,
        ww_conflicts: after.ww_conflicts - before.ww_conflicts,
        read_waits: after.read_waits - before.read_waits,
        versions_installed: after.versions_installed - before.versions_installed,
        versions_pruned: after.versions_pruned - before.versions_pruned,
        chains_collapsed: after.chains_collapsed - before.chains_collapsed,
        gc_runs: after.gc_runs - before.gc_runs,
    }
}

/// The backend matrix: three workloads x three engine variants x the
/// short agent ladder, with a `BENCH_*.json` artifact per cell. Panics if
/// any MVCC window records a single lock-manager acquisition.
pub fn backend_matrix(knobs: &Knobs) -> Vec<BackendMatrixRow> {
    println!("\n== Backend matrix: 2PL (sli/baseline) vs MVCC ==");
    println!(
        "{:>15} {:>12} {:>7} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "workload",
        "backend",
        "agents",
        "attempts/s",
        "commits",
        "sysabort",
        "lockreq",
        "val-abrt",
        "ww-conf",
        "rd-wait"
    );
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for (variant, policy, backend) in VARIANTS {
            let mut db_cfg = db_config_for(knobs, policy);
            db_cfg.backend = backend;
            let db = Database::open(db_cfg);
            let mix = load_mix(workload, &db, knobs);
            for agents in knobs.short_ladder() {
                let mvcc_before = db.mvcc_stats().unwrap_or_default();
                let r = run_workload(&db, &mix, &knobs.closed_loop(agents), None);
                let mv = mvcc_delta(&db.mvcc_stats().unwrap_or_default(), &mvcc_before);
                r.bench_artifact(
                    "backend-matrix",
                    &format!("{workload}-{variant}-a{agents}"),
                    knobs,
                    vec![
                        ("backend".into(), db.backend_name().into()),
                        ("policy".into(), policy.name().into()),
                        ("validation_aborts".into(), mv.validation_aborts.to_string()),
                        ("ww_conflicts".into(), mv.ww_conflicts.to_string()),
                        ("read_waits".into(), mv.read_waits.to_string()),
                    ],
                )
                .emit(knobs.bench_dir.as_deref());
                if backend == BackendKind::Mvcc {
                    // The seam's whole claim: MVCC runs never enter the
                    // lock manager, neither the latched path nor the
                    // grant-word fast path.
                    assert_eq!(
                        r.lock_delta.lock_requests, 0,
                        "MVCC window issued lock-manager requests ({workload}, {agents} agents)"
                    );
                    assert_eq!(
                        r.lock_delta.fastpath_granted, 0,
                        "MVCC window took grant-word grants ({workload}, {agents} agents)"
                    );
                }
                let row = BackendMatrixRow {
                    workload,
                    variant,
                    agents,
                    throughput: r.load.summary.attempts_per_sec,
                    commits: r.load.summary.commits,
                    sys_aborts: r.load.summary.sys_aborts,
                    lock_requests: r.lock_delta.lock_requests,
                    fastpath_granted: r.lock_delta.fastpath_granted,
                    validation_aborts: mv.validation_aborts,
                    ww_conflicts: mv.ww_conflicts,
                    read_waits: mv.read_waits,
                    versions_pruned: mv.versions_pruned,
                };
                println!(
                    "{:>15} {:>12} {:>7} {:>12.0} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
                    row.workload,
                    row.variant,
                    row.agents,
                    row.throughput,
                    row.commits,
                    row.sys_aborts,
                    row.lock_requests,
                    row.validation_aborts,
                    row.ww_conflicts,
                    row.read_waits
                );
                rows.push(row);
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI smoke: the full matrix runs, MVCC cells never touch the
    /// lock manager (the experiment itself panics otherwise), both
    /// engine families commit work, and the locked cells never record
    /// MVCC activity.
    #[test]
    fn backend_matrix_runs_at_smoke_scale() {
        let knobs = Knobs::smoke();
        let rows = backend_matrix(&knobs);
        let ladder = knobs.short_ladder().len();
        assert_eq!(
            rows.len(),
            WORKLOADS.len() * VARIANTS.len() * ladder,
            "workloads x variants x ladder"
        );
        for r in &rows {
            assert!(r.commits > 0, "every cell commits: {r:?}");
            match r.variant {
                "mvcc" => {
                    assert_eq!(r.lock_requests, 0, "{r:?}");
                    assert_eq!(r.fastpath_granted, 0, "{r:?}");
                }
                _ => {
                    assert_eq!(r.validation_aborts, 0, "{r:?}");
                    assert_eq!(r.ww_conflicts, 0, "{r:?}");
                }
            }
        }
        // Pooled per locked variant: the lock manager did real work.
        // (Per-cell would be too strict — a smoke-sized window on the
        // audit-heavy mix can elapse entirely inside blocked waits, with
        // every fresh acquire landing outside it.)
        for variant in ["locked-sli", "locked-base"] {
            let req: u64 = rows
                .iter()
                .filter(|r| r.variant == variant)
                .map(|r| r.lock_requests)
                .sum();
            assert!(req > 0, "{variant} cells never used the lock manager");
        }
        // Write-hot TPC-B under concurrency must exercise the OCC abort
        // path somewhere in the ladder (smoke tops out at 4 agents on a
        // 4-branch bank: conflicts are guaranteed).
        let occ_aborts: u64 = rows
            .iter()
            .filter(|r| r.variant == "mvcc" && r.workload == "TPC-B" && r.agents > 1)
            .map(|r| r.validation_aborts + r.ww_conflicts)
            .sum();
        assert!(occ_aborts > 0, "concurrent TPC-B on MVCC never conflicted");
    }
}
