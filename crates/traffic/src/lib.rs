//! The load driver and windowed telemetry for the SLI benchmark
//! harness.
//!
//! A closed loop (N agents looping as fast as the engine lets them)
//! answers "how fast can the engine go?" — but it cannot answer "what
//! happens at a *fixed* offered load the users chose?", because a
//! slowing engine silently throttles its own load. This crate drives
//! both from one worker loop with two arrival sources, one phase rule
//! and one summary:
//!
//! * [`schedule`] — seeded arrival schedules (constant / Poisson /
//!   bursty on-off) producing deterministic absolute arrival times;
//! * [`queue`] — a bounded lock-free MPMC admission queue whose
//!   backlog and shed counts *are* the overload signal;
//! * [`telemetry`] — per-window aggregation (throughput, abort
//!   breakdown, latency histogram) with an allocation-free record path;
//! * [`hist`] — the HdrHistogram-style log-bucketed latency histogram
//!   behind the quantiles;
//! * [`driver`] — [`run_load`]: the closed or open (pacer) arrival
//!   source, worker pool and collector, with warm-up, measure, drain,
//!   and soak phases;
//! * [`dashboard`] — a live per-window ANSI console renderer;
//! * [`artifact`] + [`json`] — `BENCH_<experiment>_<workload>.json`
//!   emission (hand-rolled writer, no serde) shared by open- and
//!   closed-loop runs.
//!
//! The crate is deliberately engine-free: the harness implements
//! [`Workload`] over its engine sessions.

pub mod artifact;
pub mod dashboard;
pub mod driver;
pub mod hist;
pub mod json;
pub mod queue;
pub mod schedule;
pub mod telemetry;

pub use artifact::{BenchArtifact, Summary, WindowStats};
pub use dashboard::Dashboard;
pub use driver::{run_load, Arrivals, LoadConfig, LoadReport, Phase, Workload};
pub use hist::Hist;
pub use queue::AdmissionQueue;
pub use schedule::{ArrivalPattern, ArrivalSchedule};
pub use telemetry::{Recorder, Telemetry, TxnOutcome, WindowCore};
