//! # sli-bench — benchmark targets for the SLI reproduction.
//!
//! This crate hosts its benchmarks in `benches/`:
//!
//! * Criterion microbenchmarks of the lock manager's hot paths
//!   (`micro_lockmgr`): acquire/release round trips, the SLI reclaim CAS
//!   versus a full lock-manager acquire, hash-table probes, and latch
//!   acquisition; plus `micro_substrates` and the `micro_wal` log
//!   committer sweep.
//!
//! The paper's figures are regenerated by the `sli-harness` binary
//! (`sli-harness all`), not by a bench target.
