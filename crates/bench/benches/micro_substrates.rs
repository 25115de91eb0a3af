//! Criterion microbenchmarks of the substrate crates: latches, log buffer,
//! heap pages, indexes, and the engine's end-to-end row operations.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sli_engine::{Database, DatabaseConfig};
use sli_profiler::Component;

fn bench_latch(c: &mut Criterion) {
    let latch = sli_latch::Latch::new(Component::Other);
    c.bench_function("latch/uncontended_acquire_release", |b| {
        b.iter(|| {
            let g = latch.acquire();
            criterion::black_box(g.was_contended());
        })
    });
    let cell = sli_latch::Latched::new(Component::Other, 0u64);
    c.bench_function("latch/latched_cell_increment", |b| {
        b.iter(|| {
            *cell.lock() += 1;
        })
    });
}

/// A scope costs one thread-local flag test outside a `reset()` ..
/// `take_tally()` window (what the engine pays as a library) and two clock
/// reads plus the stack push/pop inside one (what every harness figure
/// pays, since its workers measure inside a window).
fn bench_profiler(c: &mut Criterion) {
    use sli_profiler::{enter, Category};
    let scope = || {
        drop(criterion::black_box(enter(Category::Work(
            Component::LockManager,
        ))))
    };
    let _ = sli_profiler::take_tally();
    c.bench_function("profiler/enter_exit_inert", |b| b.iter(scope));
    sli_profiler::reset();
    c.bench_function("profiler/enter_exit_armed", |b| b.iter(scope));
    let _ = sli_profiler::take_tally();
}

fn bench_wal(c: &mut Criterion) {
    let log = sli_wal::LogManager::new(sli_wal::LogConfig::default());
    c.bench_function("wal/append_update_record", |b| {
        b.iter(|| {
            log.append(sli_wal::LogRecord::update(
                1,
                2,
                3,
                4,
                b"0123456789abcdef",
                b"fedcba9876543210",
            ))
        })
    });
}

fn bench_storage(c: &mut Criterion) {
    let heap = sli_storage::HeapTable::new();
    let mut rids = Vec::new();
    for i in 0..10_000u64 {
        rids.push(heap.insert(bytes::Bytes::copy_from_slice(&i.to_le_bytes())));
    }
    let mut rng = SmallRng::seed_from_u64(5);
    c.bench_function("storage/heap_read", |b| {
        b.iter(|| {
            let rid = rids[rng.gen_range(0..rids.len())];
            criterion::black_box(heap.read(rid))
        })
    });

    let idx = sli_storage::HashIndex::new();
    for (i, rid) in rids.iter().enumerate() {
        idx.insert(i as u64, *rid);
    }
    c.bench_function("storage/hash_index_probe", |b| {
        b.iter(|| criterion::black_box(idx.get(rng.gen_range(0..10_000))))
    });

    let ord = sli_storage::OrderedIndex::new();
    for (i, rid) in rids.iter().enumerate() {
        ord.insert(i as u64, *rid);
    }
    c.bench_function("storage/ordered_range_20", |b| {
        b.iter(|| {
            let lo = rng.gen_range(0..9_980u64);
            criterion::black_box(ord.range(lo, lo + 19, 20))
        })
    });
}

fn bench_engine_ops(c: &mut Criterion) {
    let db = Database::open(DatabaseConfig::with_policy(
        sli_engine::PolicyKind::PaperSli,
    ));
    let t = db.create_table("bench").unwrap();
    for k in 0..10_000u64 {
        db.bulk_insert(t, k, None, &k.to_le_bytes());
    }
    let s = db.session();
    let mut rng = SmallRng::seed_from_u64(9);
    c.bench_function("engine/read_txn", |b| {
        b.iter(|| {
            let k = rng.gen_range(0..10_000u64);
            s.run(|txn| txn.read_by_key(t, k).map(|_| ())).unwrap()
        })
    });
    c.bench_function("engine/update_txn", |b| {
        b.iter(|| {
            let k = rng.gen_range(0..10_000u64);
            s.run(|txn| {
                txn.update_by_key(t, k, |old| {
                    let v = u64::from_le_bytes(old.try_into().unwrap());
                    (v + 1).to_le_bytes().to_vec()
                })
            })
            .unwrap()
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_latch, bench_profiler, bench_wal, bench_storage, bench_engine_ops
);
criterion_main!(benches);
