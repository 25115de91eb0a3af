//! Live per-window console dashboard.
//!
//! One line per telemetry window: throughput, abort breakdown, backlog,
//! and latency quantiles. When stdout is a terminal the line is
//! colorized with ANSI SGR (backlog pressure in yellow, shedding in
//! red) and a phase banner separates warm-up from the measured region;
//! when redirected the same content is emitted as plain text, so logs
//! diff cleanly. The dashboard never buffers state — it renders what
//! the collector hands it, window by window, which is what makes it
//! safe to tee into CI logs.

use std::io::{IsTerminal, Write};

use crate::artifact::{Summary, WindowStats};
use crate::driver::Phase;

/// Per-window console renderer for one labelled run.
pub struct Dashboard {
    label: String,
    color: bool,
    header_printed: bool,
}

const RESET: &str = "\x1b[0m";
const BOLD: &str = "\x1b[1m";
const DIM: &str = "\x1b[2m";
const YELLOW: &str = "\x1b[33m";
const RED: &str = "\x1b[31m";
const GREEN: &str = "\x1b[32m";

impl Dashboard {
    /// A dashboard for the run named `label` (shown in phase banners)
    /// that colorizes iff stdout is a terminal.
    pub fn new(label: impl Into<String>) -> Self {
        Dashboard {
            label: label.into(),
            color: std::io::stdout().is_terminal(),
            header_printed: false,
        }
    }

    fn paint(&self, code: &str, text: &str) -> String {
        if self.color {
            format!("{code}{text}{RESET}")
        } else {
            text.to_string()
        }
    }

    /// Announce a phase transition.
    pub fn phase(&mut self, phase: Phase) {
        let name = match phase {
            Phase::Warmup => "warm-up",
            Phase::Measure => "measure",
            Phase::Drain => "drain",
        };
        println!(
            "{}",
            self.paint(BOLD, &format!("── {name}: {} ──", self.label))
        );
        self.header_printed = false;
    }

    /// Render one completed window.
    pub fn window(&mut self, w: &WindowStats) {
        if !self.header_printed {
            println!(
                "{}",
                self.paint(
                    DIM,
                    &format!(
                        "{:>4}  {:>8} {:>8} {:>6} {:>6}  {:>6} {:>6}  {:>8} {:>8} {:>8}",
                        "sec",
                        "offered",
                        "done",
                        "ufail",
                        "abort",
                        "shed",
                        "depth",
                        "p50us",
                        "p95us",
                        "p99us"
                    )
                )
            );
            self.header_printed = true;
        }
        let line = format!(
            "{:>4}  {:>8} {:>8} {:>6} {:>6}  {:>6} {:>6}  {:>8.1} {:>8.1} {:>8.1}",
            w.index,
            w.offered,
            w.completions(),
            w.user_fails,
            w.sys_aborts,
            w.shed,
            w.depth,
            w.p50_ns as f64 / 1_000.0,
            w.p95_ns as f64 / 1_000.0,
            w.p99_ns as f64 / 1_000.0,
        );
        let line = if w.shed > 0 {
            self.paint(RED, &line)
        } else if w.depth > 0 && w.depth >= w.completions().max(1) {
            // Backlog exceeding one window of service: pressure.
            self.paint(YELLOW, &line)
        } else {
            line
        };
        println!("{line}");
        let _ = std::io::stdout().flush();
    }

    /// Render the end-of-run summary block.
    pub fn summary(&mut self, s: &Summary) {
        let head = self.paint(BOLD, "summary");
        let rate = format!(
            "  {:.0}/s achieved vs {:.0}/s offered  ({} commits, {} ufail, {} abort over {:.1}s)",
            s.attempts_per_sec,
            s.offered_per_sec,
            s.commits,
            s.user_fails,
            s.sys_aborts,
            s.measure_secs,
        );
        let lat = format!(
            "  latency us: p50 {:.1}  p95 {:.1}  p99 {:.1}  max {:.1}  mean {:.1}",
            s.p50_ns as f64 / 1e3,
            s.p95_ns as f64 / 1e3,
            s.p99_ns as f64 / 1e3,
            s.max_ns as f64 / 1e3,
            s.mean_ns / 1e3,
        );
        let pressure = if s.shed > 0 {
            self.paint(
                RED,
                &format!(
                    "  OVERLOAD: shed {}  final backlog {}",
                    s.shed, s.final_depth
                ),
            )
        } else if s.final_depth > 0 {
            self.paint(YELLOW, &format!("  final backlog {}", s.final_depth))
        } else {
            self.paint(GREEN, "  backlog drained")
        };
        println!("{head}\n{rate}\n{lat}\n{pressure}");
        let _ = std::io::stdout().flush();
    }
}
