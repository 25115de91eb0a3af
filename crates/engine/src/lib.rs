//! # sli-engine — the database engine facade
//!
//! Ties the substrates together into a usable engine: a [`Database`] owns
//! the lock manager (with SLI), the WAL, the buffer-pool simulator, and the
//! heap tables with their indexes. Worker threads open a [`Session`] each
//! (one lock-manager *agent*) and run transactions as closures:
//!
//! ```
//! use sli_engine::{Database, DatabaseConfig};
//!
//! let db = Database::open(DatabaseConfig::default());
//! let t = db.create_table("accounts").unwrap();
//! let session = db.session();
//! session.run(|txn| {
//!     txn.insert(t, 42, b"hello")?;
//!     let v = txn.read_by_key(t, 42)?;
//!     assert_eq!(&v[..], b"hello");
//!     Ok(())
//! }).unwrap();
//! ```
//!
//! Transactions are hard-coded against this API exactly like the paper's
//! setup: "the database metadata and back-end processing are schema-agnostic
//! and general purpose, but the transaction code is schema-aware",
//! equivalent to statically compiled stored procedures.

#![warn(missing_docs)]

mod backend;
mod db;
mod locked;
mod mvcc;
mod recovery;
mod session;

pub use backend::BackendKind;
pub use db::{Database, DatabaseConfig, EngineError, TableHandle};
pub use session::{Session, Txn, TxnError};

// Re-exports so workloads and the harness can name substrate types without
// depending on every crate directly.
pub use bytes::Bytes;
pub use sli_core::{
    LockId, LockLevel, LockManagerConfig, LockMode, LockStatsSnapshot, PolicyKind, SliConfig,
    TableId,
};
pub use sli_mvcc::MvccStats;
pub use sli_storage::{BufferPoolStats, Rid};
pub use sli_wal::{
    DecodeEnd, FaultPlan, LogConfig, LogStats, RecoveryError, RecoveryReport, WalError,
};
