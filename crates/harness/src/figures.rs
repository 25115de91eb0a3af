//! Per-figure experiment drivers.
//!
//! Every public function regenerates one figure (or ablation) of the paper,
//! prints its series as a text table, and returns the structured rows so
//! tests and benches can assert on shapes. Paper-vs-measured comparisons
//! live in EXPERIMENTS.md.

use std::sync::Arc;
use std::time::Duration;

use sli_engine::Database;
use sli_profiler::{Category, Component};
use sli_workloads::tm1::Tm1;
use sli_workloads::tpcb::TpcB;
use sli_workloads::MixedWorkload;

use crate::driver::{run_workload, sweep_agents, RunResult};
use crate::setup::{
    all_breakdown_workloads, db_config, tm1_workloads, tpcb_workload, tpcc_workloads, Knobs,
    LoadedWorkload,
};

fn pct(x: f64) -> f64 {
    (x * 1000.0).round() / 10.0
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// One point of Figure 1: lock-manager overhead and contention vs load.
#[derive(Clone, Debug)]
pub struct Fig1Row {
    /// Agent threads offered.
    pub agents: usize,
    /// Attempts per second.
    pub throughput: f64,
    /// % of cpu time spent on useful lock-manager work.
    pub lockmgr_work_pct: f64,
    /// % of cpu time wasted contending in the lock manager.
    pub lockmgr_contention_pct: f64,
    /// Busy fraction of the machine.
    pub utilization_pct: f64,
}

/// Figure 1: "Lock manager overhead as system load increases" — NDBB mix,
/// baseline lock manager, load swept from near-idle to saturated.
pub fn fig1(knobs: &Knobs) -> Vec<Fig1Row> {
    let w = &tm1_workloads(knobs, false, &["NDBB-Mix"])[0];
    println!("\n== Figure 1: lock manager overhead vs load (NDBB mix, baseline) ==");
    println!(
        "{:>7} {:>12} {:>10} {:>12} {:>8}",
        "agents", "attempts/s", "lm-work%", "lm-contend%", "util%"
    );
    let mut rows = Vec::new();
    for agents in knobs.agent_ladder() {
        let r = run_workload(&w.db, &w.mix, &knobs.closed_loop(agents), None);
        let (work, cont) = r.lockmgr_fractions();
        let row = Fig1Row {
            agents,
            throughput: r.load.summary.attempts_per_sec,
            lockmgr_work_pct: pct(work),
            lockmgr_contention_pct: pct(cont),
            utilization_pct: pct(r.report.utilization()),
        };
        println!(
            "{:>7} {:>12.0} {:>10.1} {:>12.1} {:>8.1}",
            row.agents,
            row.throughput,
            row.lockmgr_work_pct,
            row.lockmgr_contention_pct,
            row.utilization_pct
        );
        rows.push(row);
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// Per-thread accounting of the Figure 5 demonstration.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Thread role.
    pub role: &'static str,
    /// Attributed busy (work + contention) fraction of the window.
    pub busy_pct: f64,
    /// Contention share of the window.
    pub contention_pct: f64,
}

/// Figure 5: the profiler-accounting demonstration — five threads over one
/// window: one fully busy, two serializing on a latch, two mostly asleep.
/// Shows that the profiler measures *work*, not time, and separates useless
/// (contention) work.
pub fn fig5(knobs: &Knobs) -> Vec<Fig5Row> {
    use sli_latch::Latch;
    let window = knobs.measure.max(Duration::from_millis(100));
    let latch = Arc::new(Latch::new(Component::Other));
    let mut rows = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        // One busy thread.
        handles.push((
            "busy",
            s.spawn({
                let w = window;
                move || {
                    sli_profiler::reset();
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < w {
                        let _g = sli_profiler::enter(Category::Work(Component::Application));
                        std::hint::spin_loop();
                    }
                    sli_profiler::take_tally()
                }
            }),
        ));
        // Two serializing threads: hold the latch for 1ms at a time.
        for _ in 0..2 {
            let latch = Arc::clone(&latch);
            let w = window;
            handles.push((
                "serialized",
                s.spawn(move || {
                    sli_profiler::reset();
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < w {
                        let _work = sli_profiler::enter(Category::Work(Component::Application));
                        let _g = latch.acquire();
                        let h0 = std::time::Instant::now();
                        while h0.elapsed() < Duration::from_micros(900) {
                            std::hint::spin_loop();
                        }
                    }
                    sli_profiler::take_tally()
                }),
            ));
        }
        // Two daemon threads: mostly asleep.
        for _ in 0..2 {
            let w = window;
            handles.push((
                "daemon",
                s.spawn(move || {
                    sli_profiler::reset();
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < w {
                        {
                            let _g = sli_profiler::enter(Category::Work(Component::Other));
                            let h0 = std::time::Instant::now();
                            while h0.elapsed() < Duration::from_micros(50) {
                                std::hint::spin_loop();
                            }
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    sli_profiler::take_tally()
                }),
            ));
        }
        println!("\n== Figure 5: profiler work accounting (5 threads, one window) ==");
        println!("{:>12} {:>8} {:>12}", "role", "busy%", "contention%");
        for (role, h) in handles {
            let tally = h.join().expect("fig5 thread");
            let busy =
                (tally.total_work() + tally.total_contention()) as f64 / window.as_nanos() as f64;
            let cont = tally.total_contention() as f64 / window.as_nanos() as f64;
            let row = Fig5Row {
                role,
                busy_pct: pct(busy),
                contention_pct: pct(cont),
            };
            println!(
                "{:>12} {:>8.1} {:>12.1}",
                row.role, row.busy_pct, row.contention_pct
            );
            rows.push(row);
        }
    });
    rows
}

// ---------------------------------------------------------------------------
// Figures 6 and 10: execution-time breakdowns
// ---------------------------------------------------------------------------

/// One column of a Figure 6/10-style breakdown.
#[derive(Clone, Debug)]
pub struct BreakdownRow {
    /// Workload label.
    pub label: &'static str,
    /// Agents at the measured point ("hardware contexts utilized").
    pub agents: usize,
    /// Attempts/sec at that point.
    pub throughput: f64,
    /// % cpu time: useful work outside the lock manager.
    pub work_other_pct: f64,
    /// % cpu time: useful work inside the lock manager.
    pub work_lockmgr_pct: f64,
    /// % cpu time: contention inside the lock manager.
    pub cont_lockmgr_pct: f64,
    /// % cpu time: contention outside the lock manager.
    pub cont_other_pct: f64,
    /// % cpu time: SLI bookkeeping (reclaim, candidate selection, discards).
    pub sli_pct: f64,
}

fn breakdown_row(label: &'static str, r: &RunResult) -> BreakdownRow {
    let (wo, wl, cl, co) = r.report.four_way_split();
    let sli = r.report.work_fraction(Component::Sli);
    BreakdownRow {
        label,
        agents: r.load.config.workers,
        throughput: r.load.summary.attempts_per_sec,
        work_other_pct: pct(wo - sli),
        work_lockmgr_pct: pct(wl),
        cont_lockmgr_pct: pct(cl),
        cont_other_pct: pct(co),
        sli_pct: pct(sli),
    }
}

fn print_breakdown_header(title: &str) {
    println!("\n== {title} ==");
    println!(
        "{:>12} {:>7} {:>12} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "workload", "agents", "attempts/s", "work", "lm-work", "lm-cont", "cont", "sli"
    );
}

fn print_breakdown_row(row: &BreakdownRow) {
    println!(
        "{:>12} {:>7} {:>12.0} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>6.1}%",
        row.label,
        row.agents,
        row.throughput,
        row.work_other_pct,
        row.work_lockmgr_pct,
        row.cont_lockmgr_pct,
        row.cont_other_pct,
        row.sli_pct
    );
}

fn breakdown_at_peak(w: &LoadedWorkload, knobs: &Knobs) -> BreakdownRow {
    let sweep = sweep_agents(&w.db, &w.mix, &knobs.short_ladder(), &knobs.closed_loop(1));
    breakdown_row(w.label, sweep.peak())
}

/// Figure 6: execution-time breakdown at peak throughput, baseline system.
pub fn fig6(knobs: &Knobs) -> Vec<BreakdownRow> {
    print_breakdown_header("Figure 6: breakdown at peak, baseline (SLI off)");
    all_breakdown_workloads(knobs, false)
        .iter()
        .map(|w| {
            let row = breakdown_at_peak(w, knobs);
            print_breakdown_row(&row);
            row
        })
        .collect()
}

/// Figure 10: execution-time breakdown on a fully loaded system with SLI.
pub fn fig10(knobs: &Knobs) -> Vec<BreakdownRow> {
    print_breakdown_header("Figure 10: breakdown at full load, SLI enabled");
    all_breakdown_workloads(knobs, true)
        .iter()
        .map(|w| {
            let r = run_workload(&w.db, &w.mix, &knobs.closed_loop(knobs.max_agents), None);
            let row = breakdown_row(w.label, &r);
            print_breakdown_row(&row);
            row
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// One point of a Figure 7 load curve.
#[derive(Clone, Debug)]
pub struct Fig7Point {
    /// Agents offered.
    pub agents: usize,
    /// Machine utilization %.
    pub utilization_pct: f64,
    /// Attempts per second.
    pub throughput: f64,
}

/// Figure 7: throughput vs utilization as load varies, baseline — NDBB mix,
/// TPC-B, and TPC-C Payment.
pub fn fig7(knobs: &Knobs) -> Vec<(&'static str, Vec<Fig7Point>)> {
    let mut workloads = tm1_workloads(knobs, false, &["NDBB-Mix"]);
    workloads.push(tpcb_workload(knobs, false));
    workloads.extend(tpcc_workloads(knobs, false, &["Payment"]));
    println!("\n== Figure 7: throughput vs load, baseline ==");
    let mut out = Vec::new();
    for w in &workloads {
        println!("-- {} --", w.label);
        println!("{:>7} {:>8} {:>12}", "agents", "util%", "attempts/s");
        let mut curve = Vec::new();
        for agents in knobs.agent_ladder() {
            let r = run_workload(&w.db, &w.mix, &knobs.closed_loop(agents), None);
            let p = Fig7Point {
                agents,
                utilization_pct: pct(r.report.utilization()),
                throughput: r.load.summary.attempts_per_sec,
            };
            println!(
                "{:>7} {:>8.1} {:>12.0}",
                p.agents, p.utilization_pct, p.throughput
            );
            curve.push(p);
        }
        out.push((w.label, curve));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// One column of Figure 8: the lock census.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Workload label.
    pub label: &'static str,
    /// Average locks acquired per transaction (the number printed above
    /// each bar in the paper).
    pub avg_locks_per_txn: f64,
    /// % of locks that are hot and heritable (SLI's target).
    pub hot_heritable_pct: f64,
    /// % hot but non-heritable.
    pub hot_non_heritable_pct: f64,
    /// % cold row-level.
    pub cold_row_pct: f64,
    /// % cold page-or-higher.
    pub cold_high_pct: f64,
}

/// Figure 8: breakdown of SLI-related characteristics of the locks each
/// transaction acquires (baseline system under full load, census counters).
pub fn fig8(knobs: &Knobs) -> Vec<Fig8Row> {
    println!("\n== Figure 8: lock census under load (baseline) ==");
    println!(
        "{:>12} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "workload", "locks/txn", "hot+her", "hot-her", "cold-row", "cold-hi"
    );
    all_breakdown_workloads(knobs, false)
        .iter()
        .map(|w| {
            let r = run_workload(&w.db, &w.mix, &knobs.closed_loop(knobs.max_agents), None);
            let (hh, hn, cr, ch) = r.lock_delta.census_fractions();
            let row = Fig8Row {
                label: w.label,
                avg_locks_per_txn: r.lock_delta.avg_locks_per_txn(),
                hot_heritable_pct: pct(hh),
                hot_non_heritable_pct: pct(hn),
                cold_row_pct: pct(cr),
                cold_high_pct: pct(ch),
            };
            println!(
                "{:>12} {:>10.1} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                row.label,
                row.avg_locks_per_txn,
                row.hot_heritable_pct,
                row.hot_non_heritable_pct,
                row.cold_row_pct,
                row.cold_high_pct
            );
            row
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// One column of Figure 9: outcomes for SLI-candidate locks.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// Workload label.
    pub label: &'static str,
    /// Hot locks observed per committed transaction.
    pub hot_locks_per_txn: f64,
    /// % of hot locks inherited and then used (reclaimed).
    pub used_pct: f64,
    /// % inherited but discarded unused at the next commit.
    pub discarded_pct: f64,
    /// % invalidated by conflicting transactions (or orphaned).
    pub invalidated_pct: f64,
    /// % hot but never inherited (failed criteria 1/3/4/5).
    pub not_inherited_pct: f64,
}

/// Figure 9: breakdown of outcomes for locks SLI could pass between
/// transactions (SLI enabled, full load).
pub fn fig9(knobs: &Knobs) -> Vec<Fig9Row> {
    println!("\n== Figure 9: SLI outcomes for hot locks (SLI on) ==");
    println!(
        "{:>12} {:>9} {:>8} {:>10} {:>12} {:>13}",
        "workload", "hot/txn", "used", "discarded", "invalidated", "not-inherited"
    );
    all_breakdown_workloads(knobs, true)
        .iter()
        .map(|w| {
            let r = run_workload(&w.db, &w.mix, &knobs.closed_loop(knobs.max_agents), None);
            let d = &r.lock_delta;
            let hot = d.hot_locks().max(1) as f64;
            let row = Fig9Row {
                label: w.label,
                hot_locks_per_txn: d.hot_locks() as f64 / d.commits.max(1) as f64,
                used_pct: pct(d.sli_reclaimed as f64 / hot),
                discarded_pct: pct(d.sli_discarded as f64 / hot),
                invalidated_pct: pct(d.sli_invalidated as f64 / hot),
                not_inherited_pct: pct(d.sli_hot_not_inherited as f64 / hot),
            };
            println!(
                "{:>12} {:>9.2} {:>7.1}% {:>9.1}% {:>11.1}% {:>12.1}%",
                row.label,
                row.hot_locks_per_txn,
                row.used_pct,
                row.discarded_pct,
                row.invalidated_pct,
                row.not_inherited_pct
            );
            row
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------------

/// One column of Figure 11: SLI speedup.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Workload label.
    pub label: &'static str,
    /// Baseline peak attempts/sec.
    pub baseline: f64,
    /// SLI peak attempts/sec.
    pub sli: f64,
    /// Speedup percentage (`(sli/baseline - 1) * 100`).
    pub speedup_pct: f64,
}

/// Figure 11: performance improvement due to SLI — peak throughput of the
/// baseline vs the SLI system for every workload.
pub fn fig11(knobs: &Knobs) -> Vec<Fig11Row> {
    println!("\n== Figure 11: throughput improvement due to SLI ==");
    println!(
        "{:>12} {:>14} {:>14} {:>9}",
        "workload", "baseline/s", "sli/s", "speedup"
    );
    let base = all_breakdown_workloads(knobs, false);
    let with = all_breakdown_workloads(knobs, true);
    base.iter()
        .zip(with.iter())
        .map(|(b, s)| {
            debug_assert_eq!(b.label, s.label);
            let rb = sweep_agents(&b.db, &b.mix, &knobs.short_ladder(), &knobs.closed_loop(1));
            let rs = sweep_agents(&s.db, &s.mix, &knobs.short_ladder(), &knobs.closed_loop(1));
            let pb = rb.peak().load.summary.attempts_per_sec;
            let ps = rs.peak().load.summary.attempts_per_sec;
            let row = Fig11Row {
                label: b.label,
                baseline: pb,
                sli: ps,
                speedup_pct: ((ps / pb) - 1.0) * 100.0,
            };
            println!(
                "{:>12} {:>14.0} {:>14.0} {:>8.1}%",
                row.label, row.baseline, row.sli, row.speedup_pct
            );
            row
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ablations (Sections 4.2 and 4.4)
// ---------------------------------------------------------------------------

/// One ablation variant's measurements.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub variant: &'static str,
    /// Attempts per second at full load.
    pub throughput: f64,
    /// Transactions committed in the measurement window.
    pub commits: u64,
    /// Reclaims per committed transaction.
    pub reclaims_per_txn: f64,
    /// Invalidations per committed transaction.
    pub invalidations_per_txn: f64,
    /// % cpu time contending in the lock manager.
    pub lockmgr_contention_pct: f64,
}

fn ablation_run(
    knobs: &Knobs,
    variant: &'static str,
    policy: sli_engine::PolicyKind,
    cfg_fn: impl FnOnce(&mut sli_engine::SliConfig),
) -> AblationRow {
    let mut db_cfg = crate::setup::db_config_for(knobs, policy);
    cfg_fn(&mut db_cfg.lock.sli);
    let db = Database::open(db_cfg);
    let tm1 = Tm1::load(&db, knobs.tm1_subscribers, 42);
    let mix = tm1.ndbb_mix();
    let r = run_workload(&db, &mix, &knobs.closed_loop(knobs.max_agents), None);
    let d = &r.lock_delta;
    AblationRow {
        variant,
        throughput: r.load.summary.attempts_per_sec,
        commits: d.commits,
        reclaims_per_txn: d.sli_reclaimed as f64 / d.commits.max(1) as f64,
        invalidations_per_txn: d.sli_invalidated as f64 / d.commits.max(1) as f64,
        lockmgr_contention_pct: pct(r.report.contention_fraction(Component::LockManager)),
    }
}

/// Section 4.2 ablation: disable each inheritance criterion in turn and
/// measure the NDBB mix at full load.
pub fn ablation_criteria(knobs: &Knobs) -> Vec<AblationRow> {
    println!("\n== Ablation: SLI inheritance criteria (NDBB mix, full load) ==");
    println!(
        "{:>18} {:>12} {:>12} {:>14} {:>10}",
        "variant", "attempts/s", "reclaims/txn", "invalid/txn", "lm-cont%"
    );
    use sli_engine::PolicyKind::{Baseline, PaperSli};
    let rows = vec![
        ablation_run(knobs, "full-sli", PaperSli, |_| {}),
        ablation_run(knobs, "sli-off", Baseline, |_| {}),
        ablation_run(knobs, "no-hot-filter", PaperSli, |c| c.hot_threshold = 0.0),
        ablation_run(knobs, "inherit-rows", PaperSli, |c| {
            c.min_level = sli_engine::LockLevel::Record
        }),
        ablation_run(knobs, "ignore-waiters", PaperSli, |c| {
            c.require_no_waiters = false
        }),
        ablation_run(knobs, "ignore-parent", PaperSli, |c| {
            c.require_parent = false
        }),
        ablation_run(knobs, "hysteresis-3", PaperSli, |c| c.hysteresis = 3),
    ];
    for row in &rows {
        println!(
            "{:>18} {:>12.0} {:>12.2} {:>14.3} {:>10.1}",
            row.variant,
            row.throughput,
            row.reclaims_per_txn,
            row.invalidations_per_txn,
            row.lockmgr_contention_pct
        );
    }
    rows
}

/// Section 4.4: the *bimodal workload* — TM1 reads and TPC-B writes with
/// disjoint lock sets sharing the same agents, with and without hysteresis.
pub fn bimodal(knobs: &Knobs) -> Vec<AblationRow> {
    println!("\n== Section 4.4: bimodal workload (TM1 reads + TPC-B writes) ==");
    println!(
        "{:>18} {:>12} {:>12} {:>14} {:>10}",
        "variant", "attempts/s", "reclaims/txn", "discards/txn", "lm-cont%"
    );
    let mut rows = Vec::new();
    for (variant, hysteresis, sli) in [
        ("baseline", 0u32, false),
        ("sli-h0", 0, true),
        ("sli-h2", 2, true),
    ] {
        let mut db_cfg = db_config(knobs, sli);
        db_cfg.lock.sli.hysteresis = hysteresis;
        let db = Database::open(db_cfg);
        let tm1 = Tm1::load(&db, knobs.tm1_subscribers, 42);
        let tpcb = TpcB::load(&db, knobs.tpcb_branches, knobs.tpcb_accounts);
        let mix = MixedWorkload::merged(
            "bimodal",
            vec![(0.5, tm1.ndbb_mix()), (0.5, tpcb.workload())],
        );
        let r = run_workload(&db, &mix, &knobs.closed_loop(knobs.max_agents), None);
        let d = &r.lock_delta;
        let row = AblationRow {
            variant,
            throughput: r.load.summary.attempts_per_sec,
            commits: d.commits,
            reclaims_per_txn: d.sli_reclaimed as f64 / d.commits.max(1) as f64,
            invalidations_per_txn: d.sli_discarded as f64 / d.commits.max(1) as f64,
            lockmgr_contention_pct: pct(r.report.contention_fraction(Component::LockManager)),
        };
        println!(
            "{:>18} {:>12.0} {:>12.2} {:>14.3} {:>10.1}",
            row.variant,
            row.throughput,
            row.reclaims_per_txn,
            row.invalidations_per_txn,
            row.lockmgr_contention_pct
        );
        rows.push(row);
    }
    rows
}

/// Section 4.4: the *roving hotspot* — an append-only history table whose
/// hot page moves as pages fill; SLI must keep up without polluting agent
/// lists.
pub fn roving_hotspot(knobs: &Knobs) -> Vec<AblationRow> {
    use rand::Rng;
    println!("\n== Section 4.4: roving hotspot (append-heavy history table) ==");
    println!(
        "{:>18} {:>12} {:>12} {:>14} {:>10}",
        "variant", "attempts/s", "reclaims/txn", "invalid/txn", "lm-cont%"
    );
    let mut rows = Vec::new();
    for (variant, sli) in [("baseline", false), ("sli", true)] {
        let db = Database::open(db_config(knobs, sli));
        let history = db.create_table("history").expect("fresh db");
        let seq = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mix = MixedWorkload::new(
            "append",
            vec![sli_workloads::mix::MixEntry {
                name: "append",
                weight: 1.0,
                run: Box::new({
                    let seq = Arc::clone(&seq);
                    move |s, rng| {
                        let key = seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                        let val: u64 = rng.gen();
                        sli_workloads::Outcome::from_result(s.run(|txn| {
                            txn.insert(history, key, &val.to_le_bytes())?;
                            Ok(())
                        }))
                    }
                }),
            }],
        );
        let r = run_workload(&db, &mix, &knobs.closed_loop(knobs.max_agents), None);
        let d = &r.lock_delta;
        let row = AblationRow {
            variant,
            throughput: r.load.summary.attempts_per_sec,
            commits: d.commits,
            reclaims_per_txn: d.sli_reclaimed as f64 / d.commits.max(1) as f64,
            invalidations_per_txn: d.sli_invalidated as f64 / d.commits.max(1) as f64,
            lockmgr_contention_pct: pct(r.report.contention_fraction(Component::LockManager)),
        };
        println!(
            "{:>18} {:>12.0} {:>12.2} {:>14.3} {:>10.1}",
            row.variant,
            row.throughput,
            row.reclaims_per_txn,
            row.invalidations_per_txn,
            row.lockmgr_contention_pct
        );
        rows.push(row);
    }
    rows
}

// ---------------------------------------------------------------------------
// Grant word (latch-free compatible acquisitions on TPC-B)
// ---------------------------------------------------------------------------

/// One cell of the grant-word experiment: one policy at one agent count.
#[derive(Clone, Debug)]
pub struct GrantWordRow {
    /// Policy name.
    pub policy: &'static str,
    /// Agent threads.
    pub agents: usize,
    /// Attempts per second.
    pub throughput: f64,
    /// Fresh acquires granted by the grant-word CAS.
    pub fast_granted: u64,
    /// Fast-eligible acquires that fell back to the latched path.
    pub fast_fallbacks: u64,
    /// Every-Nth heat-sampling fall-throughs.
    pub fast_sampled: u64,
    /// SLI reclaims (the other latch-bypassing acquisition).
    pub reclaimed: u64,
    /// Page-or-higher intention acquisitions observed.
    pub ancestor_acquires: u64,
    /// ...of which bypassed the head latch (grant-word or reclaim CAS).
    pub ancestor_bypassed: u64,
    /// `ancestor_bypassed / ancestor_acquires`.
    pub bypass_rate: f64,
    /// Database/table head probes served from the agent memo.
    pub headcache_hits: u64,
}

/// The grant-word experiment: Baseline and PaperSli on TPC-B across the
/// agent ladder, reporting the fast-path counters and the fraction of
/// ancestor intention acquisitions that bypass the head latch. Steady
/// state should put that fraction above 90% for both policies — for the
/// baseline via the grant-word CAS alone, for paper-sli via grant word +
/// reclaim. An inherited request blocks only the fast modes it conflicts
/// with, so paper-sli falls back to the head latch no more than baseline.
pub fn grant_word(knobs: &Knobs) -> Vec<GrantWordRow> {
    use sli_engine::PolicyKind;
    println!("\n== Grant word: latch-free compatible acquisitions (TPC-B) ==");
    println!(
        "{:>10} {:>7} {:>12} {:>10} {:>9} {:>8} {:>10} {:>10} {:>8} {:>9}",
        "policy",
        "agents",
        "attempts/s",
        "fast",
        "fallback",
        "sampled",
        "reclaimed",
        "ancestors",
        "bypass%",
        "memo-hit"
    );
    let mut rows = Vec::new();
    for kind in [PolicyKind::Baseline, PolicyKind::PaperSli] {
        let db = Database::open(crate::setup::db_config_for(knobs, kind));
        let tpcb = TpcB::load(&db, knobs.tpcb_branches, knobs.tpcb_accounts);
        let mix = tpcb.workload();
        for agents in knobs.short_ladder() {
            let r = run_workload(&db, &mix, &knobs.closed_loop(agents), None);
            let d = &r.lock_delta;
            let row = GrantWordRow {
                policy: kind.name(),
                agents,
                throughput: r.load.summary.attempts_per_sec,
                fast_granted: d.fastpath_granted,
                fast_fallbacks: d.fastpath_fallbacks,
                fast_sampled: d.fastpath_sampled,
                reclaimed: d.sli_reclaimed,
                ancestor_acquires: d.ancestor_acquires,
                ancestor_bypassed: d.ancestor_bypassed,
                bypass_rate: d.ancestor_bypass_rate(),
                headcache_hits: d.headcache_hits,
            };
            println!(
                "{:>10} {:>7} {:>12.0} {:>10} {:>9} {:>8} {:>10} {:>10} {:>8.1} {:>9}",
                row.policy,
                row.agents,
                row.throughput,
                row.fast_granted,
                row.fast_fallbacks,
                row.fast_sampled,
                row.reclaimed,
                row.ancestor_acquires,
                row.bypass_rate * 100.0,
                row.headcache_hits
            );
            rows.push(row);
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Latch scaling (oversubscription: agents past core count)
// ---------------------------------------------------------------------------

/// One cell of the latch-scaling experiment: one policy at one
/// oversubscription multiple.
#[derive(Clone, Debug)]
pub struct LatchScalingRow {
    /// Policy display name.
    pub policy: &'static str,
    /// Agent threads offered (`multiple` × available cores).
    pub agents: usize,
    /// Oversubscription multiple (agents / cores).
    pub multiple: usize,
    /// Attempts per second.
    pub throughput: f64,
    /// Threads parked on a latch wait queue during the window.
    pub parks: u64,
    /// Directed wakeups issued by releasing threads.
    pub unparks: u64,
    /// Adaptive-spin iterations burned by contended latch acquires.
    pub spins: u64,
    /// Fresh acquires served by the per-agent request pool (no alloc).
    pub requests_pooled: u64,
    /// Fresh acquires that heap-allocated a request.
    pub requests_allocated: u64,
    /// % cpu time contending in the lock manager.
    pub lockmgr_contention_pct: f64,
}

/// The oversubscription sweep: agents at 1×–8× the core count, `PaperSli`
/// vs `Baseline`, on the TM1 NDBB mix. With the old spin-then-sleep latch
/// backoff, throughput fell off a cliff past 1× cores (every contended
/// latch wait degenerated into 50 µs timed-sleep polling); with queued
/// parking the curve should stay flat or degrade gently, with `parks`
/// tracking `unparks` (waiters woken directly by releasers) and
/// `requests_pooled` dwarfing `requests_allocated` once pools are warm.
pub fn latch_scaling(knobs: &Knobs) -> Vec<LatchScalingRow> {
    use sli_engine::PolicyKind;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\n== Latch scaling: agents past core count ({cores} cores, NDBB mix) ==");
    println!(
        "{:>10} {:>4} {:>7} {:>12} {:>9} {:>9} {:>10} {:>9} {:>9} {:>9}",
        "policy",
        "x",
        "agents",
        "attempts/s",
        "parks",
        "unparks",
        "spins",
        "pooled",
        "alloc'd",
        "lm-cont%"
    );
    let mut rows = Vec::new();
    for kind in [PolicyKind::Baseline, PolicyKind::PaperSli] {
        let mut cfg = crate::setup::db_config_for(knobs, kind);
        // The whole point is exceeding the core count; give the lock
        // manager agent headroom beyond the default.
        cfg.lock.max_agents = cfg.lock.max_agents.max(8 * cores + 8);
        let db = Database::open(cfg);
        let tm1 = Tm1::load(&db, knobs.tm1_subscribers, 42);
        let mix = tm1.ndbb_mix();
        for multiple in [1usize, 2, 4, 8] {
            let agents = multiple * cores;
            let r = run_workload(&db, &mix, &knobs.closed_loop(agents), None);
            r.bench_artifact(
                "latch-scaling",
                &format!("ndbb-{}-x{multiple}", kind.name()),
                knobs,
                vec![("policy".into(), kind.name().into())],
            )
            .emit(knobs.bench_dir.as_deref());
            let d = &r.lock_delta;
            let p = &r.park_delta;
            let row = LatchScalingRow {
                policy: kind.name(),
                agents,
                multiple,
                throughput: r.load.summary.attempts_per_sec,
                parks: p.parks,
                unparks: p.unparks,
                spins: p.spins,
                requests_pooled: d.requests_pooled,
                requests_allocated: d.requests_allocated,
                lockmgr_contention_pct: pct(r.report.contention_fraction(Component::LockManager)),
            };
            println!(
                "{:>10} {:>4} {:>7} {:>12.0} {:>9} {:>9} {:>10} {:>9} {:>9} {:>9.1}",
                row.policy,
                row.multiple,
                row.agents,
                row.throughput,
                row.parks,
                row.unparks,
                row.spins,
                row.requests_pooled,
                row.requests_allocated,
                row.lockmgr_contention_pct
            );
            rows.push(row);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_runs_at_smoke_scale() {
        let knobs = Knobs::smoke();
        let rows = fig1(&knobs);
        assert_eq!(rows.len(), knobs.agent_ladder().len());
        for r in &rows {
            assert!(r.throughput > 0.0);
            assert!(r.lockmgr_work_pct >= 0.0);
        }
    }

    #[test]
    fn fig9_fractions_are_bounded() {
        let knobs = Knobs::smoke();
        let rows = fig9(&knobs);
        for r in rows {
            assert!(r.used_pct >= 0.0 && r.used_pct <= 110.0, "{r:?}");
            assert!(r.invalidated_pct >= 0.0, "{r:?}");
        }
    }

    #[test]
    fn grant_word_runs_at_smoke_scale() {
        let knobs = Knobs::smoke();
        let rows = grant_word(&knobs);
        let ladder = knobs.short_ladder().len();
        assert_eq!(rows.len(), 2 * ladder, "two policies x agent ladder");
        for r in &rows {
            assert!(r.throughput > 0.0, "{r:?}");
            assert!(r.ancestor_acquires > 0, "{r:?}");
        }
        // The acceptance bar: in steady state, >90% of ancestor intention
        // acquisitions bypass the head latch. The first ladder step is
        // cold-ish even after warmup, so assert on the final
        // (highest-agent, warmest) step per policy — and also on the
        // pooled whole-run rate, which must clear the bar comfortably.
        for policy in ["baseline", "paper-sli"] {
            let last = rows
                .iter()
                .rev()
                .find(|r| r.policy == policy)
                .expect("policy rows");
            assert!(
                last.bypass_rate > 0.9,
                "{policy}: steady-state ancestor bypass {:.3} <= 0.9 ({last:?})",
                last.bypass_rate
            );
            let (byp, tot) = rows
                .iter()
                .filter(|r| r.policy == policy)
                .fold((0u64, 0u64), |(b, t), r| {
                    (b + r.ancestor_bypassed, t + r.ancestor_acquires)
                });
            assert!(
                byp as f64 / tot.max(1) as f64 > 0.9,
                "{policy}: pooled ancestor bypass {byp}/{tot} <= 0.9"
            );
        }
        // The baseline bypass must come from the grant word itself.
        let base_fast: u64 = rows
            .iter()
            .filter(|r| r.policy == "baseline")
            .map(|r| r.fast_granted)
            .sum();
        assert!(base_fast > 0, "baseline must use the grant word");
        // SLI must not push other agents' compatible acquires off the
        // word: an inherited request only blocks the modes it conflicts
        // with, exactly as a granted one does.
        let (base, sli) = rows.split_at(ladder);
        for (b, s) in base.iter().zip(sli) {
            assert_eq!(
                (b.policy, s.policy, b.agents),
                ("baseline", "paper-sli", s.agents)
            );
            assert!(
                s.fast_fallbacks <= b.fast_fallbacks,
                "{} agents: paper-sli fell back {} times, baseline {}",
                s.agents,
                s.fast_fallbacks,
                b.fast_fallbacks
            );
        }
    }

    #[test]
    fn latch_scaling_runs_at_smoke_scale() {
        let knobs = Knobs::smoke();
        let rows = latch_scaling(&knobs);
        assert_eq!(rows.len(), 2 * 4, "two policies x four multiples");
        for r in &rows {
            assert!(r.throughput > 0.0, "{r:?}");
            assert!(r.agents == r.multiple * rows[0].agents, "ladder shape");
        }
        // Warm request pools: the steady state must be dominated by
        // recycled requests, not allocations.
        let pooled: u64 = rows.iter().map(|r| r.requests_pooled).sum();
        let allocated: u64 = rows.iter().map(|r| r.requests_allocated).sum();
        assert!(
            pooled > allocated,
            "pooled={pooled} allocated={allocated}: pool not working"
        );
    }

    /// Every variant ran and committed work; the SLI-off variant reclaimed
    /// nothing.
    fn assert_ablation_rows(rows: &[AblationRow], variants: &[&str], sli_off: &str) {
        let labels: Vec<&str> = rows.iter().map(|r| r.variant).collect();
        assert_eq!(labels, variants);
        for r in rows {
            assert!(r.throughput > 0.0 && r.commits > 0, "{r:?}");
        }
        let off = rows.iter().find(|r| r.variant == sli_off).unwrap();
        assert_eq!(off.reclaims_per_txn, 0.0, "{off:?}");
    }

    #[test]
    fn ablation_criteria_runs_at_smoke_scale() {
        let rows = ablation_criteria(&Knobs::smoke());
        assert_ablation_rows(
            &rows,
            &[
                "full-sli",
                "sli-off",
                "no-hot-filter",
                "inherit-rows",
                "ignore-waiters",
                "ignore-parent",
                "hysteresis-3",
            ],
            "sli-off",
        );
    }

    #[test]
    fn bimodal_runs_at_smoke_scale() {
        let rows = bimodal(&Knobs::smoke());
        assert_ablation_rows(&rows, &["baseline", "sli-h0", "sli-h2"], "baseline");
    }

    #[test]
    fn fig11_produces_positive_throughputs() {
        let knobs = Knobs::smoke();
        let rows = fig11(&knobs);
        assert_eq!(rows.len(), 15);
        for r in rows {
            assert!(r.baseline > 0.0);
            assert!(r.sli > 0.0);
        }
    }
}
