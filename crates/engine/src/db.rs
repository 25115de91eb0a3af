//! The database: catalog, tables, and shared services.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use sli_core::{LockManager, LockManagerConfig, LockStatsSnapshot, PolicyKind, TableId};
use sli_mvcc::{MvccConfig, MvccStats, MvccStore, WriteKind, WriteOp};
use sli_storage::{
    BufferPool, BufferPoolConfig, BufferPoolStats, HashIndex, HeapTable, OrderedIndex, Rid,
};
use sli_wal::{LogConfig, LogManager, LogRecord, LogStats, Lsn, WalError, LOADER_TXN};

use crate::backend::{log_record, BackendKind};
use crate::session::Session;

/// Engine-level errors (catalog misuse, capacity; transaction errors are
/// [`crate::TxnError`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A table with this name already exists.
    DuplicateTable(String),
    /// Opening another session would exceed
    /// `LockManagerConfig::max_agents`.
    TooManyAgents {
        /// The configured agent capacity.
        max: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DuplicateTable(name) => write!(f, "table {name:?} already exists"),
            EngineError::TooManyAgents { max } => write!(
                f,
                "agent capacity exceeded ({max}); raise LockManagerConfig::max_agents"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Configuration for a [`Database`], built fluently.
///
/// On the locked backend the lock policy is [`PolicyKind::PaperSli`] (the
/// default) or [`PolicyKind::Baseline`]:
///
/// ```
/// use sli_engine::{DatabaseConfig, PolicyKind};
///
/// let cfg = DatabaseConfig::with_policy(PolicyKind::Baseline).in_memory();
/// assert!(!cfg.lock.policy.inherits());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DatabaseConfig {
    /// Lock manager + SLI settings (including the lock policy).
    pub lock: LockManagerConfig,
    /// WAL settings.
    pub log: LogConfig,
    /// Buffer-pool residency simulation.
    pub pool: BufferPoolConfig,
    /// Synthetic per-row-access CPU cost in nanoseconds, charged to the
    /// storage component. Stands in for the heavier per-row path of the
    /// original engine (B-tree descent, slot directory, page pin/unpin)
    /// that this reproduction's flat heap tables don't pay, and calibrates
    /// the baseline lock-manager share into the paper's 10-25 % band
    /// (see EXPERIMENTS.md "calibration").
    pub row_work_ns: u64,
    /// Which concurrency-control engine to run transactions on
    /// (default: the hierarchical lock manager).
    pub backend: BackendKind,
    /// MVCC store tuning (only used when `backend` is
    /// [`BackendKind::Mvcc`]).
    pub mvcc: MvccConfig,
}

impl DatabaseConfig {
    /// Engine with the given lock policy, everything else default.
    pub fn with_policy(policy: PolicyKind) -> Self {
        DatabaseConfig {
            lock: LockManagerConfig::with_policy(policy),
            ..Default::default()
        }
    }

    /// In-memory setup: no I/O penalties anywhere (the paper's NDBB
    /// configuration). Resets the log config — call [`Self::durable`]
    /// *after* this when combining the two.
    pub fn in_memory(mut self) -> Self {
        self.pool = BufferPoolConfig::all_in_memory();
        self.log = LogConfig::default();
        self
    }

    /// Builder: select the concurrency backend (see [`BackendKind`]).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Builder: retain the log's durable bytes in a simulated device so
    /// the database can be recovered from them (see
    /// [`Database::recover`]). Off by default — retention copies every
    /// flushed batch, which perf experiments don't want to pay.
    pub fn durable(mut self) -> Self {
        self.log.retain = true;
        self
    }
}

/// One table's storage: heap plus primary hash index plus ordered secondary
/// index.
pub(crate) struct TableData {
    pub(crate) name: String,
    pub(crate) heap: HeapTable,
    pub(crate) primary: HashIndex,
    pub(crate) ordered: OrderedIndex,
}

impl TableData {
    /// Publish `rid` under its primary key and, if it has one, its
    /// ordered key.
    pub(crate) fn index_insert(&self, key: u64, okey: Option<u64>, rid: Rid) {
        self.primary.insert(key, rid);
        if let Some(ok) = okey {
            self.ordered.insert(ok, rid);
        }
    }

    /// Withdraw a record's primary key and, if it has one, its ordered
    /// key.
    pub(crate) fn index_remove(&self, key: u64, okey: Option<u64>) {
        self.primary.remove(key);
        if let Some(ok) = okey {
            self.ordered.remove(ok);
        }
    }
}

/// Opaque, copyable reference to a table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TableHandle(pub(crate) u32);

impl TableHandle {
    /// The lock-hierarchy id of this table.
    pub fn table_id(self) -> TableId {
        TableId(self.0)
    }
}

/// A database instance.
pub struct Database {
    pub(crate) lockmgr: Arc<LockManager>,
    pub(crate) log: Arc<LogManager>,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) row_work_ns: u64,
    /// The MVCC backend's shared store; `None` on the locked backend.
    pub(crate) mvcc: Option<Arc<MvccStore>>,
    catalog: RwLock<HashMap<String, TableHandle>>,
    tables: RwLock<Vec<Arc<TableData>>>,
}

impl Database {
    /// Open a fresh database.
    pub fn open(config: DatabaseConfig) -> Arc<Database> {
        let log = LogManager::new(config.log.clone());
        Self::open_with_log(config, log)
    }

    /// Open around an existing log manager (recovery hands in one seeded
    /// with the surviving device bytes so new appends continue the LSN
    /// sequence past the old tail).
    pub(crate) fn open_with_log(config: DatabaseConfig, log: LogManager) -> Arc<Database> {
        let mvcc = (config.backend == BackendKind::Mvcc)
            .then(|| Arc::new(MvccStore::new(config.lock.max_agents, config.mvcc)));
        Arc::new(Database {
            lockmgr: LockManager::new(config.lock),
            log: Arc::new(log),
            pool: Arc::new(BufferPool::new(config.pool)),
            row_work_ns: config.row_work_ns,
            mvcc,
            catalog: RwLock::new(HashMap::new()),
            tables: RwLock::new(Vec::new()),
        })
    }

    /// Create a table; fails if the name is taken.
    pub fn create_table(&self, name: &str) -> Result<TableHandle, EngineError> {
        self.create_table_inner(name, true)
    }

    /// `log = false` is the recovery path: the Create record being
    /// replayed is already in the log, so re-appending it would double it.
    pub(crate) fn create_table_inner(
        &self,
        name: &str,
        log: bool,
    ) -> Result<TableHandle, EngineError> {
        let mut catalog = self.catalog.write();
        if catalog.contains_key(name) {
            return Err(EngineError::DuplicateTable(name.to_string()));
        }
        let mut tables = self.tables.write();
        let handle = TableHandle(tables.len() as u32);
        tables.push(Arc::new(TableData {
            name: name.to_string(),
            heap: HeapTable::new(),
            primary: HashIndex::new(),
            ordered: OrderedIndex::new(),
        }));
        catalog.insert(name.to_string(), handle);
        if log && self.log.retains() {
            self.log.append(LogRecord::create(handle.0, name));
        }
        Ok(handle)
    }

    /// Look up a table by name.
    pub fn table_handle(&self, name: &str) -> Option<TableHandle> {
        self.catalog.read().get(name).copied()
    }

    /// Names of all tables, in creation order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().iter().map(|t| t.name.clone()).collect()
    }

    pub(crate) fn table(&self, h: TableHandle) -> Arc<TableData> {
        Arc::clone(&self.tables.read()[h.0 as usize])
    }

    /// Table storage by raw id (recovery replay path).
    pub(crate) fn table_by_id(&self, id: u32) -> Option<Arc<TableData>> {
        self.tables.read().get(id as usize).map(Arc::clone)
    }

    /// Open a session (allocates a lock-manager agent). One per worker
    /// thread. Panics when the agent capacity is exceeded; use
    /// [`Database::try_session`] to handle that case.
    pub fn session(self: &Arc<Self>) -> Session {
        self.try_session()
            .expect("agent capacity exceeded; raise LockManagerConfig::max_agents")
    }

    /// Open a session, returning an error instead of panicking when
    /// `LockManagerConfig::max_agents` is exceeded.
    pub fn try_session(self: &Arc<Self>) -> Result<Session, EngineError> {
        Session::try_new(Arc::clone(self))
    }

    /// Non-transactional bulk load: insert directly into heap and indexes,
    /// bypassing locks. For dataset loaders only. On a durable database
    /// (see [`DatabaseConfig::durable`]) each row is logged under the
    /// loader pseudo-transaction so recovery can rebuild the base data.
    pub fn bulk_insert(
        &self,
        table: TableHandle,
        key: u64,
        ordered_key: Option<u64>,
        data: &[u8],
    ) -> Rid {
        let t = self.table(table);
        let bytes = Bytes::copy_from_slice(data);
        let rid = t.heap.insert(bytes.clone());
        t.index_insert(key, ordered_key, rid);
        self.pool.prewarm(table.0, rid.page);
        if self.log.retains() {
            let kind = WriteKind::Insert {
                key,
                okey: ordered_key,
            };
            let op = WriteOp {
                table: table.0,
                rid,
                kind,
                before: None,
                after: Some(bytes),
            };
            self.log.append(log_record(LOADER_TXN, &op));
        }
        rid
    }

    /// Direct read bypassing locks (verification/debug only).
    pub fn peek(&self, table: TableHandle, key: u64) -> Option<Bytes> {
        let t = self.table(table);
        let rid = t.primary.get(key)?;
        t.heap.read(rid)
    }

    /// Number of live records in a table.
    pub fn record_count(&self, table: TableHandle) -> u64 {
        self.table(table).heap.record_count() as u64
    }

    /// The lock manager (for stats and advanced use).
    pub fn lock_manager(&self) -> &Arc<LockManager> {
        &self.lockmgr
    }

    /// Which concurrency backend this database runs on.
    pub fn backend_kind(&self) -> BackendKind {
        match self.mvcc {
            Some(_) => BackendKind::Mvcc,
            None => BackendKind::Locked2pl,
        }
    }

    /// Display name of the concurrency backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend_kind().name()
    }

    /// Settle backend background state while no transaction is running.
    /// On the MVCC backend this runs a full GC pass: version chains
    /// collapse back into bare heap records and tombstoned rows release
    /// their heap slots. Callers MUST guarantee no concurrent
    /// transactions (see `sli_mvcc::MvccStore::gc`); use it before
    /// whole-database comparisons like [`Database::state_hash`]. A no-op
    /// on the locked backend.
    pub fn quiesce(&self) {
        // A full pass with no snapshot active collapses every chain;
        // tombstoned chains release their (deferred) heap rows here.
        if let Some(store) = &self.mvcc {
            store.gc(|table, rid| {
                if let Some(t) = self.table_by_id(table) {
                    t.heap.delete(rid);
                }
            });
        }
    }

    /// MVCC store counters (`None` on the locked backend).
    pub fn mvcc_stats(&self) -> Option<MvccStats> {
        self.mvcc.as_ref().map(|s| s.stats())
    }

    /// Display name of the lock policy.
    pub fn policy_name(&self) -> &'static str {
        self.lockmgr.policy().name()
    }

    /// Lock-manager counter snapshot.
    pub fn lock_stats(&self) -> LockStatsSnapshot {
        self.lockmgr.stats().snapshot()
    }

    /// WAL counter snapshot.
    pub fn log_stats(&self) -> LogStats {
        self.log.stats()
    }

    /// Force everything appended so far to the (simulated) log device.
    /// Loaders call this so the base data is durable before a crash is
    /// injected; see [`DatabaseConfig::durable`].
    pub fn force_log(&self) -> Result<Lsn, WalError> {
        self.log.force()
    }

    /// Copy of the log device's durable bytes (including any torn tail
    /// left by an injected flush failure). Empty unless the database was
    /// opened with [`DatabaseConfig::durable`].
    pub fn durable_log(&self) -> Vec<u8> {
        self.log.durable_snapshot()
    }

    /// Buffer-pool counter snapshot.
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.pool.stats()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.read().len())
            .field("lockmgr", &self.lockmgr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_create_and_lookup() {
        let db = Database::open(DatabaseConfig::default());
        let t1 = db.create_table("a").unwrap();
        let t2 = db.create_table("b").unwrap();
        assert_ne!(t1, t2);
        assert_eq!(db.table_handle("a"), Some(t1));
        assert_eq!(db.table_handle("c"), None);
        assert_eq!(db.table_names(), vec!["a", "b"]);
        assert_eq!(
            db.create_table("a"),
            Err(EngineError::DuplicateTable("a".into()))
        );
    }

    #[test]
    fn bulk_insert_and_peek() {
        let db = Database::open(DatabaseConfig::default());
        let t = db.create_table("t").unwrap();
        db.bulk_insert(t, 7, None, b"payload");
        assert_eq!(&db.peek(t, 7).unwrap()[..], b"payload");
        assert_eq!(db.record_count(t), 1);
        assert!(db.peek(t, 8).is_none());
    }

    #[test]
    fn try_session_reports_capacity_exceeded_instead_of_panicking() {
        let mut cfg = DatabaseConfig::default();
        cfg.lock.max_agents = 2;
        let db = Database::open(cfg);
        let _s1 = db.try_session().expect("slot 0 fits");
        let _s2 = db.try_session().expect("slot 1 fits");
        match db.try_session() {
            Err(EngineError::TooManyAgents { max }) => assert_eq!(max, 2),
            Err(other) => panic!("expected TooManyAgents, got {other:?}"),
            Ok(_) => panic!("expected TooManyAgents, got a session"),
        }
        // Dropping a session recycles its agent slot.
        drop(_s1);
        let _s3 = db.try_session().expect("recycled slot fits");
        assert!(db.try_session().is_err());
    }
}
