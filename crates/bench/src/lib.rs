//! # sli-bench — benchmark targets for the SLI reproduction.
//!
//! This crate hosts its benchmarks in `benches/`:
//!
//! * Criterion microbenchmarks of the lock manager's hot paths
//!   (`micro_lockmgr`): acquire/release round trips, the SLI reclaim CAS
//!   versus a full lock-manager acquire, hash-table probes, and latch
//!   acquisition; plus `micro_substrates` and the `micro_wal` log
//!   committer sweep.
//! * `figures` (`harness = false`) regenerates every evaluation figure of
//!   the paper at a bench-friendly scale, printing the same series the
//!   paper plots. Scale through the harness's `SLI_*` environment knobs.
