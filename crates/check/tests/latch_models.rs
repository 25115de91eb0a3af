//! Exhaustive interleaving models of the latch substrate (`sli-latch`'s
//! `Latch` and `RwLatch`, which sit on the vendored parking_lot raw
//! locks). Under the `sli_check` feature the raw locks' state words, the
//! parker, and the park/unpark calls all run on the checker facade, so
//! these models exercise the full production slow path: CAS the PARKED
//! bit, enqueue on the bucket, validate, sleep, and the unlock-side
//! handoff.
//!
//! The `sli_check` build of the raw locks has a zero spin budget, so
//! contended paths park immediately instead of burning schedule points in
//! the adaptive spin loop.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sli_check::{sync::AtomicBool, thread, Builder};
use sli_latch::{Latch, RwLatch};
use sli_profiler::Component;

/// Mutual exclusion through the full contended path: with a zero spin
/// budget both threads race straight into PARKED-bit CAS, bucket enqueue
/// and handoff. The critical-section flag would trip if any interleaving
/// ever admitted two holders.
#[test]
fn latch_mutual_exclusion_through_the_parked_path() {
    let report = Builder::new().check(|| {
        let latch = Arc::new(Latch::new(Component::LockManager));
        let in_cs = Arc::new(AtomicBool::new(false));

        let spawn_holder = |latch: &Arc<Latch>, in_cs: &Arc<AtomicBool>| {
            let latch = Arc::clone(latch);
            let in_cs = Arc::clone(in_cs);
            thread::spawn(move || {
                let _g = latch.acquire();
                assert!(
                    !in_cs.swap(true, Ordering::SeqCst),
                    "two threads inside the latch"
                );
                in_cs.store(false, Ordering::SeqCst);
            })
        };
        let t1 = spawn_holder(&latch, &in_cs);
        let t2 = spawn_holder(&latch, &in_cs);
        t1.join().unwrap();
        t2.join().unwrap();
    });
    println!(
        "latch_mutual_exclusion_through_the_parked_path: {} executions, {} states, {} pruned, {:?}",
        report.executions, report.states, report.pruned, report.elapsed
    );
    assert!(report.passed(), "failure: {:?}", report.failure);
    assert!(report.executions > 1, "model explored only one schedule");
}

/// Reader/writer exclusion on `RwLatch`: a writer may never observe a
/// reader inside, and vice versa. The reader threads also check shared
/// admission is possible (no schedule needs to serialize two readers, but
/// none may corrupt the tracking counters either).
#[test]
fn rwlatch_readers_exclude_the_writer() {
    let report = Builder::new().check(|| {
        let latch = Arc::new(RwLatch::new(Component::LockManager));
        let writer_in = Arc::new(AtomicBool::new(false));
        let reader_in = Arc::new(AtomicBool::new(false));

        let reader = {
            let latch = Arc::clone(&latch);
            let writer_in = Arc::clone(&writer_in);
            let reader_in = Arc::clone(&reader_in);
            thread::spawn(move || {
                let _g = latch.read();
                reader_in.store(true, Ordering::SeqCst);
                assert!(
                    !writer_in.load(Ordering::SeqCst),
                    "reader admitted while a writer holds the latch"
                );
                reader_in.store(false, Ordering::SeqCst);
            })
        };
        let writer = {
            let latch = Arc::clone(&latch);
            let writer_in = Arc::clone(&writer_in);
            let reader_in = Arc::clone(&reader_in);
            thread::spawn(move || {
                let _g = latch.write();
                writer_in.store(true, Ordering::SeqCst);
                assert!(
                    !reader_in.load(Ordering::SeqCst),
                    "writer admitted while a reader holds the latch"
                );
                writer_in.store(false, Ordering::SeqCst);
            })
        };
        reader.join().unwrap();
        writer.join().unwrap();
    });
    println!(
        "rwlatch_readers_exclude_the_writer: {} executions, {} states, {} pruned, {:?}",
        report.executions, report.states, report.pruned, report.elapsed
    );
    assert!(report.passed(), "failure: {:?}", report.failure);
    assert!(report.executions > 1, "model explored only one schedule");
}

/// Writer handoff / anti-starvation shape: with the writer-pending flag
/// raised, an exclusive unlock wakes the next writer rather than the
/// reader crowd, and every thread still terminates in every schedule
/// (the model's deadlock detector is the liveness check — a dropped
/// handoff wake would strand the second writer forever).
#[test]
fn rwlatch_writer_handoff_terminates_in_all_schedules() {
    let report = Builder::new().check(|| {
        let latch = Arc::new(RwLatch::new(Component::LockManager));

        let w1 = {
            let latch = Arc::clone(&latch);
            thread::spawn(move || {
                let _g = latch.write();
            })
        };
        let w2 = {
            let latch = Arc::clone(&latch);
            thread::spawn(move || {
                let _g = latch.write();
            })
        };
        let r = {
            let latch = Arc::clone(&latch);
            thread::spawn(move || {
                let _g = latch.read();
            })
        };
        w1.join().unwrap();
        w2.join().unwrap();
        r.join().unwrap();
    });
    println!(
        "rwlatch_writer_handoff_terminates_in_all_schedules: {} executions, {} states, {} pruned, {:?}",
        report.executions, report.states, report.pruned, report.elapsed
    );
    assert!(report.passed(), "failure: {:?}", report.failure);
}
