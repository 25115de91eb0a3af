//! # sli-mvcc — multiversion / optimistic concurrency control
//!
//! The second concurrency backend behind the engine's backend seam (the
//! engine's `mvcc.rs` implements its `Backend` trait over this crate):
//! versioned records layered over `HeapTable` Rids with validate-at-commit
//! optimistic execution, after Larson et al., *High-Performance
//! Concurrency Control Mechanisms for Main-Memory Databases* (arXiv
//! 1201.0228).
//!
//! Division of labor:
//!
//! - `sli-storage::VersionChain` is the pure per-record data structure
//!   (committed versions newest-first + one provisional slot).
//! - [`MvccStore`] (this crate) owns everything shared: the global
//!   timestamp allocator, the active-snapshot registry whose minimum is
//!   the GC watermark, the sharded `(table, rid) → chain` map, the
//!   commit-preparation table that closes the allocate-to-flip
//!   visibility race, and the watermark-driven garbage collector.
//! - [`MvccTxn`] is one transaction's private scratch: its snapshot
//!   timestamp, read set (version identities for backward validation),
//!   write set ([`WriteOp`]s — the engine's one row-write format, which
//!   its locked backend's undo log shares), and the overlays that make
//!   its own uncommitted writes visible to itself.
//!
//! The engine (`sli-engine`) wires these under its `Txn` API: reads
//! resolve a snapshot-visible version and enter the read set, writes
//! install provisional versions (first-writer-wins), and commit runs
//! backward validation, logs the write set through the shared WAL
//! group-commit pipeline, applies it to the heap, and only then flips
//! the provisionals to the commit timestamp.

#![warn(missing_docs)]

mod store;
mod txn;

pub use store::{MvccConfig, MvccStats, MvccStore, WriteError};
pub use txn::{MvccTxn, ReadEntry, WriteKind, WriteOp};
