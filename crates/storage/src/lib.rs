//! # sli-storage — heap tables, indexes, and version chains
//!
//! The storage substrate underneath the SLI engine: slotted pages grouped
//! into heap tables, sharded hash primary indexes plus ordered secondary
//! indexes, MVCC version chains, and a [`BufferPool`] that counts row
//! accesses.
//!
//! The paper stores its database on an in-memory filesystem (Section 5.2).
//! Every configuration this reproduction measures is main-memory too, so
//! every page is resident and every access a buffer-pool hit.

mod bufferpool;
mod heap;
mod index;
mod page;
mod version;

pub use bufferpool::{BufferPool, BufferPoolStats};
pub use heap::HeapTable;
pub use index::{HashIndex, OrderedIndex};
pub use page::{Rid, SlottedPage, SLOTS_PER_PAGE};
pub use version::{Observation, Provisional, Version, VersionChain, BASE_TS, NOTHING_SEEN};
