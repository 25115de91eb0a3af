//! # sli-harness — experiment drivers for every figure in the paper
//!
//! The harness mirrors the paper's methodology (Section 5): a closed system
//! of N agent threads running transactions back-to-back against a loaded
//! database, a warmup phase, then a timed measurement window during which
//! per-thread profiler tallies, lock-manager counters, and
//! committed-transaction counts are collected. Every run — that closed
//! loop, and the open-loop storms of the `traffic` experiment — goes
//! through [`run_workload`], the engine bracket around the one load
//! driver, `sli_traffic::run_load`: same phase rule, same profiler
//! window, same `attempts_per_sec` (commits + user fails), and one
//! artifact constructor ([`RunResult::bench_artifact`]) that prints every
//! knob.
//!
//! Each `fig*` function regenerates one figure's series and prints it as a
//! fixed-width table; `EXPERIMENTS.md` records paper-vs-measured shapes.
//! [`EXPERIMENTS`] lists every runnable experiment, and every experiment
//! takes its inputs from one [`Knobs`] value, read once from the `SLI_*`
//! environment variables in [`setup::KNOB_HELP`].

#![warn(missing_docs)]

pub mod backend_matrix;
pub mod driver;
pub mod figures;
pub mod setup;
pub mod torture;
pub mod traffic;

pub use backend_matrix::{backend_matrix, BackendMatrixRow};
pub use driver::{run_workload, sweep_agents, RunResult, Sweep};
pub use setup::Knobs;
pub use torture::{crash_torture, CrashFlavor, TortureSummary};
pub use traffic::{TrafficKnobs, TrafficRow};

/// One runnable experiment of the `sli-harness` binary.
pub struct Experiment {
    /// Command-line name.
    pub name: &'static str,
    /// `--help` description; continuation lines are newline-separated.
    pub about: &'static str,
    /// Run it and print its table; `false` when one of its gates failed.
    pub run: fn(&Knobs) -> bool,
}

/// The verdict of an experiment with no gate: it passes once it has
/// printed its table.
fn ungated<T>(_rows: T) -> bool {
    true
}

/// Every experiment, in the order `sli-harness all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1",
        about: "lock manager overhead vs load (NDBB mix, baseline)",
        run: |k| ungated(figures::fig1(k)),
    },
    Experiment {
        name: "fig5",
        about: "profiler work-accounting demonstration",
        run: |k| ungated(figures::fig5(k)),
    },
    Experiment {
        name: "fig6",
        about: "execution-time breakdown at peak, baseline",
        run: |k| ungated(figures::fig6(k)),
    },
    Experiment {
        name: "fig7",
        about: "throughput vs utilization as load varies",
        run: |k| ungated(figures::fig7(k)),
    },
    Experiment {
        name: "fig8",
        about: "lock census (hot/heritable/row classification)",
        run: |k| ungated(figures::fig8(k)),
    },
    Experiment {
        name: "fig9",
        about: "SLI outcomes for hot locks",
        run: |k| ungated(figures::fig9(k)),
    },
    Experiment {
        name: "fig10",
        about: "execution-time breakdown at full load with SLI",
        run: |k| ungated(figures::fig10(k)),
    },
    Experiment {
        name: "fig11",
        about: "throughput improvement due to SLI",
        run: |k| ungated(figures::fig11(k)),
    },
    Experiment {
        name: "ablation-criteria",
        about: "Section 4.2 criteria ablation",
        run: |k| ungated(figures::ablation_criteria(k)),
    },
    Experiment {
        name: "bimodal",
        about: "Section 4.4 bimodal workload",
        run: |k| ungated(figures::bimodal(k)),
    },
    Experiment {
        name: "roving-hotspot",
        about: "Section 4.4 roving hotspot",
        run: |k| ungated(figures::roving_hotspot(k)),
    },
    Experiment {
        name: "latch-scaling",
        about: "oversubscription sweep: agents at 1x-8x cores, parking counters",
        run: |k| ungated(figures::latch_scaling(k)),
    },
    Experiment {
        name: "grant-word",
        about: "latch-free compatible acquisitions: fast-path counters on TPC-B",
        run: |k| ungated(figures::grant_word(k)),
    },
    Experiment {
        name: "backend-matrix",
        about: "concurrency backends: 2PL (sli/baseline) vs MVCC on TPC-B,\n\
                TPC-C Payment, and a reader-heavy TPC-B analytic mix;\n\
                MVCC cells stat-asserted to issue zero lock requests",
        run: |k| ungated(backend_matrix(k)),
    },
    Experiment {
        name: "traffic",
        about: "open-loop rate ladder: arrival-driven load, windowed telemetry,\n\
                BENCH_*.json artifacts, knee where backlog diverges",
        run: |k| ungated(traffic::traffic(k)),
    },
    Experiment {
        name: "crash-torture",
        about: "seeded crash points (kill/tear/fsync-fail) on TPC-B + TPC-C:\n\
                recover, check invariants + redo idempotence; nonzero exit\n\
                on any violation",
        run: |k| {
            let total = crash_torture(k);
            if total.violations > 0 {
                eprintln!("crash-torture: {} violations", total.violations);
            }
            total.violations == 0
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_table_keeps_the_all_order() {
        let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "fig1",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "ablation-criteria",
                "bimodal",
                "roving-hotspot",
                "latch-scaling",
                "grant-word",
                "backend-matrix",
                "traffic",
                "crash-torture",
            ]
        );
    }
}
