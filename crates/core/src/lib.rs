//! # sli-core — hierarchical lock manager with Speculative Lock Inheritance
//!
//! This crate is the primary contribution of the reproduced paper:
//! a Shore-MT-style centralized database lock manager (hierarchical modes,
//! latched lock heads with FIFO request queues, upgrades, Dreadlocks
//! deadlock detection) extended with **Speculative Lock Inheritance**
//! (Johnson, Pandis, Ailamaki — VLDB 2009).
//!
//! SLI lets a committing transaction pass hot, shared-mode, high-level locks
//! directly to the next transaction on the same agent thread, replacing a
//! release + re-acquire pair of latch-protected lock-manager calls with a
//! single atomic compare-and-swap. This decouples the number of
//! simultaneous requests for popular locks from the number of threads in
//! the system.
//!
//! ## Example
//!
//! ```
//! use sli_core::{LockManager, LockManagerConfig, LockId, LockMode, TableId, TxnLockState};
//!
//! // The default config runs the paper's policy; pick any other with
//! // `LockManagerConfig::with_policy(PolicyKind::...)`.
//! let mgr = LockManager::new(LockManagerConfig::default());
//! let mut agent = mgr.register_agent().unwrap();
//! let mut ts = TxnLockState::new(agent.slot());
//!
//! mgr.begin(&mut ts, &mut agent);
//! mgr.lock(&mut ts, &mut agent, LockId::Record(TableId(1), 0, 3), LockMode::S)
//!     .unwrap();
//! // Intention locks on the record's ancestors were taken automatically:
//! assert_eq!(ts.held_mode(LockId::Table(TableId(1))), Some(LockMode::IS));
//! mgr.end_txn(&mut ts, &mut agent, true);
//! ```

#![warn(missing_docs)]

mod config;
mod deadlock;
mod error;
mod head;
mod hot;
mod htab;
mod id;
mod manager;
mod mode;
mod request;
mod sli;
mod stats;
mod txn;
mod word;

pub use config::{FastPathConfig, LockManagerConfig, SliConfig};
pub use deadlock::{AgentSet, DigestTable, MAX_DIGEST_BITS};
pub use error::LockError;
pub use head::{LockHead, LockQueue, QueueGuard};
pub use hot::HotTracker;
pub use htab::LockTable;
pub use id::{LockId, LockLevel, TableId};
pub use manager::LockManager;
pub use mode::{LockMode, ALL_MODES, NUM_MODES};
pub use request::{LockRequest, RequestStatus};
pub use sli::{AgentSliState, PolicyKind};
pub use stats::{LockClass, LockStats, LockStatsSnapshot};
pub use txn::TxnLockState;
pub use word::{FastAcquire, GrantWord, GrantWordSnapshot, FAST_MODES};
