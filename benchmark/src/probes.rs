//! Single-threaded, fixed-count probes that time calls into each layer's
//! public API from outside. The operation counts are constants, so the
//! engine counters a probe moves repeat exactly; only the times vary.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sli_core::{LockId, LockManager, LockMode, PolicyKind, TableId, TxnLockState};
use sli_engine::{BackendKind, Database};
use sli_latch::{Latch, Latched};
use sli_mvcc::{MvccConfig, MvccStore, MvccTxn, ReadEntry};
use sli_profiler::{Category, Component};
use sli_storage::{HashIndex, HeapTable, OrderedIndex, Provisional, Rid, VersionChain, BASE_TS};
use sli_traffic::AdmissionQueue;
use sli_wal::{LogConfig, LogManager, LogRecord};
use sli_workloads::tpcb::TpcB;
use sli_workloads::Outcome;

use crate::drive::quantiles;
use crate::metrics::per_layer_name;
use crate::workload::{db_config, lock_config, nproc};

/// Each timing is the median of this many repetitions of the probe's batch.
const REPS: usize = 5;
const ROWS: u64 = 8_192;
const ROW_LEN: usize = 100;
/// `engine.recover_mb_per_s` replays a retained log of this many TPC-B
/// transactions.
const RECOVER_TXNS: u64 = 20_000;
const RECOVER_BRANCHES: u64 = 4;
const RECOVER_ACCOUNTS: u64 = 100;

/// Probe results by metric name, plus the per-operation costs the
/// `est_ns_per_txn` estimates multiply counters with.
pub struct Probes {
    pub metrics: BTreeMap<&'static str, f64>,
    /// `core.acquire_release_ns` per fresh lock request it makes.
    pub core_ns_per_request: f64,
    /// `core.reacquire_cached_ns` per lock-cache hit it makes.
    pub core_ns_per_cache_hit: f64,
    /// Violated invariants of the recovery probe.
    pub failures: Vec<String>,
}

fn median(v: Vec<f64>) -> f64 {
    quantiles(&v, [0.5])[0]
}

/// Median ns per operation over [`REPS`] runs of `batch`, which performs
/// `ops` operations.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                batch();
                t.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect(),
    )
}

fn row(fill: u8) -> Bytes {
    Bytes::copy_from_slice(&[fill; ROW_LEN])
}

fn rid_of(i: u64) -> Rid {
    Rid::new((i / 64) as u32, (i % 64) as u16)
}

fn core(p: &mut Probes) {
    const N: u64 = 20_000;
    let mgr = LockManager::new(lock_config(PolicyKind::PaperSli));
    let mut agent = mgr.register_agent().expect("fresh manager has agent slots");
    let mut ts = TxnLockState::new(agent.slot());
    let record = |i: u64| LockId::Record(TableId(1), (i % 256) as u32, (i % 64) as u16);

    let before = mgr.stats().snapshot();
    let acquire = ns_per_op(N, || {
        for i in 0..N {
            mgr.begin(&mut ts, &mut agent);
            mgr.lock(&mut ts, &mut agent, record(i), LockMode::X)
                .expect("uncontended");
            mgr.end_txn(&mut ts, &mut agent, true);
        }
    });
    let d = mgr.stats().snapshot().delta(&before);
    p.metrics.insert("core.acquire_release_ns", acquire);
    p.core_ns_per_request = acquire * (REPS as u64 * N) as f64 / d.lock_requests.max(1) as f64;

    mgr.begin(&mut ts, &mut agent);
    mgr.lock(&mut ts, &mut agent, record(0), LockMode::X)
        .expect("uncontended");
    let before = mgr.stats().snapshot();
    let reacquire = ns_per_op(N, || {
        for _ in 0..N {
            mgr.lock(&mut ts, &mut agent, record(0), LockMode::X)
                .expect("already held");
        }
    });
    let d = mgr.stats().snapshot().delta(&before);
    mgr.end_txn(&mut ts, &mut agent, true);
    mgr.retire_agent(&mut agent);
    p.metrics.insert("core.reacquire_cached_ns", reacquire);
    p.core_ns_per_cache_hit =
        reacquire * (REPS as u64 * N) as f64 / (d.cache_hits + d.coverage_hits).max(1) as f64;
}

fn latch(p: &mut Probes) {
    const N: u64 = 200_000;
    let l = Latch::new(Component::LockManager);
    p.metrics.insert(
        "latch.acquire_ns",
        ns_per_op(N, || {
            for _ in 0..N {
                drop(black_box(l.acquire()));
            }
        }),
    );

    // Two threads pass a counter back and forth through one latch; a
    // hand-off is one acquisition that finds the counter on its parity.
    const ROUNDS: u64 = 20_000;
    let cell = Latched::new(Component::LockManager, 0u64);
    let turns = |parity: u64| {
        let mut done = 0;
        while done < ROUNDS {
            let mut g = cell.lock();
            if *g % 2 == parity {
                *g += 1;
                done += 1;
            } else {
                drop(g);
                if nproc() > 1 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    };
    p.metrics.insert(
        "latch.handoff_ns",
        ns_per_op(2 * ROUNDS, || {
            std::thread::scope(|s| {
                s.spawn(|| turns(1));
                turns(0);
            })
        }),
    );
}

fn storage(p: &mut Probes) {
    const N: u64 = 200_000;
    let heap = HeapTable::new();
    let hash = HashIndex::new();
    let ordered = OrderedIndex::new();
    for k in 0..ROWS {
        let rid = heap.insert(row(k as u8));
        hash.insert(k, rid);
        ordered.insert(k, rid);
    }
    // A multiplicative stride visits rows in a fixed, cache-unfriendly order.
    let key = |i: u64| i.wrapping_mul(2_654_435_761) % ROWS;
    p.metrics.insert(
        "storage.heap_read_ns",
        ns_per_op(N, || {
            for i in 0..N {
                black_box(heap.read(rid_of(key(i))));
            }
        }),
    );
    let after = row(7);
    p.metrics.insert(
        "storage.heap_update_ns",
        ns_per_op(N, || {
            for i in 0..N {
                black_box(heap.update(rid_of(key(i)), after.clone()));
            }
        }),
    );
    p.metrics.insert(
        "storage.hash_get_ns",
        ns_per_op(N, || {
            for i in 0..N {
                black_box(hash.get(key(i)));
            }
        }),
    );
    const RANGE: u64 = 1_000;
    const SCANS: u64 = 200;
    p.metrics.insert(
        "storage.ordered_range_ns_per_row",
        ns_per_op(SCANS * RANGE, || {
            for i in 0..SCANS {
                let lo = key(i) % (ROWS - RANGE);
                black_box(ordered.range(lo, lo + RANGE - 1, RANGE as usize));
            }
        }),
    );
    // Chain length 4: the base plus three installed versions; a snapshot at
    // the base timestamp walks all of them.
    let mut chain = VersionChain::with_base(Some(row(0)));
    for ts in 1..=3u64 {
        chain.provisional = Some(Provisional {
            owner: 1,
            data: Some(row(ts as u8)),
        });
        assert!(chain.install(1, ts * 10));
    }
    assert_eq!(chain.committed.len(), 4);
    p.metrics.insert(
        "storage.version_visible_ns",
        ns_per_op(N, || {
            for _ in 0..N {
                black_box(black_box(&chain).visible_at(BASE_TS));
            }
        }),
    );
}

fn wal(p: &mut Probes) {
    const TXNS: u64 = 2_000;
    const UPDATES: u32 = 4;
    let log = LogManager::new(LogConfig::default());
    let (before, after) = ([1u8; ROW_LEN], [2u8; ROW_LEN]);
    let (mut append, mut commit) = (Vec::new(), Vec::new());
    for rep in 0..REPS as u64 {
        let (mut append_ns, mut commit_ns) = (0u128, 0u128);
        for txn in rep * TXNS..(rep + 1) * TXNS {
            let t0 = Instant::now();
            log.append(LogRecord::begin(txn));
            for k in 0..UPDATES {
                log.append(LogRecord::update(txn, 1, k, 0, &before, &after));
            }
            let lsn = log.append(LogRecord::commit(txn));
            let t1 = Instant::now();
            log.commit(txn, lsn).expect("no fault plan is armed");
            commit_ns += t1.elapsed().as_nanos();
            append_ns += (t1 - t0).as_nanos();
        }
        append.push(append_ns as f64 / (TXNS * (u64::from(UPDATES) + 2)) as f64);
        commit.push(commit_ns as f64 / TXNS as f64);
    }
    p.metrics.insert("wal.append_ns", median(append));
    p.metrics.insert("wal.commit_ns", median(commit));
}

fn mvcc(p: &mut Probes) {
    const N: u64 = 50_000;
    const CHAINS: u64 = 1_024;
    const TABLE: u32 = 1;
    let store = MvccStore::new(4, MvccConfig::default());
    let mut txn = MvccTxn::new();
    let base = row(0);
    let after = row(9);
    // One writer commit as the engine runs it, minus the log.
    p.metrics.insert(
        "mvcc.write_install_ns",
        ns_per_op(N, || {
            for i in 0..N {
                let rid = rid_of(i % CHAINS);
                let read_ts = store.begin(0);
                txn.reset(read_ts, 0);
                store
                    .write(
                        TABLE,
                        rid,
                        read_ts,
                        txn.token(),
                        Some(after.clone()),
                        Some(base.clone()),
                    )
                    .expect("single writer never conflicts");
                let commit_ts = store.prepare_commit(0);
                store.install(std::iter::once((TABLE, rid)), txn.token(), commit_ts);
                store.finish_commit(0);
                store.end(0);
                store.maybe_gc();
            }
        }),
    );
    let read_ts = store.begin(0);
    txn.reset(read_ts, 0);
    p.metrics.insert(
        "mvcc.read_ns",
        ns_per_op(N, || {
            for i in 0..N {
                black_box(store.read(
                    TABLE,
                    rid_of(i % CHAINS),
                    read_ts,
                    txn.token(),
                    Some(base.clone()),
                ));
            }
        }),
    );
    let reads: Vec<ReadEntry> = (0..CHAINS)
        .map(|i| ReadEntry {
            table: TABLE,
            rid: rid_of(i),
            seen: store
                .read(TABLE, rid_of(i), read_ts, txn.token(), Some(base.clone()))
                .seen,
        })
        .collect();
    const PASSES: u64 = 50;
    p.metrics.insert(
        "mvcc.validate_ns_per_read",
        ns_per_op(PASSES * CHAINS, || {
            for _ in 0..PASSES {
                store
                    .validate(&reads, txn.token())
                    .expect("nothing committed since the reads");
            }
        }),
    );
    store.end(0);
}

/// Benchmark-owned transaction bodies over the public `Txn` API, timing
/// every `txn.*` call and the commit tail (closure return -> `run` return).
fn engine(p: &mut Probes, backend: BackendKind, suffix: &str) {
    const TXNS: u64 = 2_000;
    const OPS: u64 = 4;
    let db = Database::open(db_config(backend, PolicyKind::PaperSli));
    let t = db.create_table("probe").expect("fresh db");
    for k in 0..ROWS {
        db.bulk_insert(t, k, Some(k), &[k as u8; ROW_LEN]);
    }
    let s = db.session();
    let key = |i: u64| i.wrapping_mul(2_654_435_761) % ROWS;
    let [empty, read, update, insert, scan, tail] = [
        "empty_txn_ns",
        "read_by_key_ns",
        "update_by_key_ns",
        "insert_ns",
        "scan_ns_per_row",
        "commit_tail_ns",
    ]
    .map(|op| per_layer_name(&format!("engine.{op}.{suffix}")).expect("in the catalog"));

    p.metrics.insert(
        empty,
        ns_per_op(TXNS, || {
            for _ in 0..TXNS {
                s.run(|_| Ok(())).expect("empty txn commits");
            }
        }),
    );

    // `per_call(body)`: median over REPS of the mean time of one `body` call,
    // run OPS times inside each of TXNS transactions.
    let mut next_key = ROWS;
    let per_call = |body: &mut dyn FnMut(&mut sli_engine::Txn<'_>, u64)| {
        median(
            (0..REPS as u64)
                .map(|rep| {
                    let mut ns = 0u128;
                    for i in 0..TXNS {
                        s.run(|txn| {
                            for j in 0..OPS {
                                let t0 = Instant::now();
                                body(txn, (rep * TXNS + i) * OPS + j);
                                ns += t0.elapsed().as_nanos();
                            }
                            Ok(())
                        })
                        .expect("probe txn commits");
                    }
                    ns as f64 / (TXNS * OPS) as f64
                })
                .collect(),
        )
    };
    p.metrics.insert(
        read,
        per_call(&mut |txn, i| {
            black_box(txn.read_by_key(t, key(i)).expect("loaded key"));
        }),
    );
    p.metrics.insert(
        update,
        per_call(&mut |txn, i| {
            txn.update_by_key(t, key(i), |old| old.to_vec())
                .expect("loaded key");
        }),
    );
    p.metrics.insert(
        insert,
        per_call(&mut |txn, _| {
            next_key += 1;
            txn.insert(t, next_key, &[1u8; ROW_LEN]).expect("fresh key");
        }),
    );

    const RANGE: u64 = 1_000;
    const SCANS: u64 = 100;
    p.metrics.insert(
        scan,
        ns_per_op(SCANS * RANGE, || {
            for i in 0..SCANS {
                let lo = key(i) % (ROWS - RANGE);
                let rows = s
                    .run(|txn| {
                        txn.scan_ordered(t, lo, lo + RANGE - 1, RANGE as usize, |_, r| {
                            black_box(r);
                        })
                    })
                    .expect("scan commits");
                assert_eq!(rows as u64, RANGE);
            }
        }),
    );

    // Commit tail of a one-update transaction: log force + lock release (or
    // validate + install), everything `Session::run` does after the body.
    let returned = Cell::new(Instant::now());
    p.metrics.insert(
        tail,
        median(
            (0..REPS as u64)
                .map(|rep| {
                    let mut ns = 0u128;
                    for i in 0..TXNS {
                        s.run(|txn| {
                            txn.update_by_key(t, key(rep * TXNS + i), |old| old.to_vec())?;
                            returned.set(Instant::now());
                            Ok(())
                        })
                        .expect("probe txn commits");
                        ns += returned.get().elapsed().as_nanos();
                    }
                    ns as f64 / TXNS as f64
                })
                .collect(),
        ),
    );
}

fn recover(p: &mut Probes) {
    let cfg = db_config(BackendKind::Locked2pl, PolicyKind::PaperSli).durable();
    let db = Database::open(cfg.clone());
    let b = TpcB::load(&db, RECOVER_BRANCHES, RECOVER_ACCOUNTS);
    let s = db.session();
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..RECOVER_TXNS {
        if b.account_update(&s, &mut rng) != Outcome::Commit {
            p.failures
                .push("recovery probe: a single-threaded TPC-B update did not commit".into());
        }
    }
    if let Err(e) = db.force_log() {
        p.failures.push(format!("recovery probe: force_log: {e}"));
    }
    let log = db.durable_log();
    let t0 = Instant::now();
    let recovered = Database::recover(cfg, &log);
    let secs = t0.elapsed().as_secs_f64();
    p.metrics
        .insert("engine.recover_mb_per_s", log.len() as f64 / 1e6 / secs);
    match recovered {
        Err(e) => p.failures.push(format!("recovery probe: {e}")),
        Ok((db2, _)) => match TpcB::check_recovered(&db2, RECOVER_BRANCHES, RECOVER_ACCOUNTS) {
            Ok(RECOVER_TXNS) => {}
            Ok(n) => p.failures.push(format!(
                "recovery probe: {n} history rows after recovering {RECOVER_TXNS} commits"
            )),
            Err(e) => p.failures.push(format!("recovery probe: {e}")),
        },
    }
}

fn traffic_and_profiler(p: &mut Probes) {
    const N: u64 = 200_000;
    let q = AdmissionQueue::new(4096);
    p.metrics.insert(
        "traffic.push_pop_ns",
        ns_per_op(N, || {
            for i in 0..N {
                q.push_or_shed(i).expect("queue never fills");
                black_box(q.try_pop());
            }
        }),
    );
    p.metrics.insert(
        "profiler.enter_ns",
        ns_per_op(N, || {
            for _ in 0..N {
                drop(black_box(sli_profiler::enter(Category::Work(
                    Component::Storage,
                ))));
            }
        }),
    );
}

/// Run every probe.
pub fn run() -> Probes {
    let mut p = Probes {
        metrics: BTreeMap::new(),
        core_ns_per_request: 0.0,
        core_ns_per_cache_hit: 0.0,
        failures: Vec::new(),
    };
    core(&mut p);
    latch(&mut p);
    storage(&mut p);
    wal(&mut p);
    mvcc(&mut p);
    engine(&mut p, BackendKind::Locked2pl, "locked");
    engine(&mut p, BackendKind::Mvcc, "mvcc");
    recover(&mut p);
    traffic_and_profiler(&mut p);
    p
}
