//! Exhaustive interleaving models of the scalable log front-end
//! (`sli_wal::ring` + `sli_wal::committers`): the lock-free reserve /
//! publish / drain protocol and the parked committer queue. The
//! `sli_check` feature swaps the ring's position/sequence words and the
//! queue's watermark atomics for the checker's schedule-aware versions,
//! and routes the committers' park/unpark through the shimmed parking
//! lot, so the exact races the production fast path relies on — a drain
//! racing a publish, a wake racing a park — are fully explored.
//!
//! Park deadlines are `None` throughout: a lost wakeup surfaces as a
//! model deadlock instead of hiding behind the production safety
//! timeout.

use std::sync::Arc;

use sli_check::{thread, Builder};
use sli_wal::{CommitQueue, DrainCursor, LogRing, WaitSlot, WalError};

/// A reserved-but-unpublished record is a hole that pins the drain
/// boundary: with reservation 1 left open and reservation 2 racing its
/// publish against the drain scan, no schedule may let the scan cross
/// the hole — the drain returns the base watermark and copies nothing,
/// in every interleaving.
#[test]
fn drain_never_crosses_a_hole() {
    let report = Builder::new().check(|| {
        let ring = Arc::new(LogRing::new(256, 0));
        let r1 = ring.reserve(17); // the hole: never published
        let r2 = ring.reserve(17);

        let publisher = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                ring.write(&r2, &[2u8; 17]);
                ring.publish(&r2);
            })
        };

        let mut cur = DrainCursor::new(0);
        let mut out = Vec::new();
        let upto = ring.drain(&mut cur, &mut out);
        assert_eq!(upto, 0, "drain crossed the unpublished hole at {:?}", r1);
        assert!(out.is_empty(), "bytes copied out past a hole");

        publisher.join().unwrap();
        // Plugging the hole releases the whole prefix.
        ring.write(&r1, &[1u8; 17]);
        ring.publish(&r1);
        assert_eq!(ring.drain(&mut cur, &mut out), r2.end);
        assert_eq!(out[..17], [1u8; 17]);
        assert_eq!(out[17..], [2u8; 17]);
    });
    println!(
        "drain_never_crosses_a_hole: {} executions, {} states, {} pruned, {:?}",
        report.executions, report.states, report.pruned, report.elapsed
    );
    assert!(report.passed(), "failure: {:?}", report.failure);
    assert!(report.executions > 1, "model explored only one schedule");
}

/// Two appenders race reserve/write/publish while the main thread drains
/// mid-flight and again after both finish: in every schedule the drained
/// bytes are exactly the two records laid end-to-end in reservation
/// order — no tearing, interleaving, or reordering — and the mid-flight
/// drain only ever saw a prefix of that serial stream.
#[test]
fn racing_publishes_drain_as_the_serial_stream() {
    let report = Builder::new().check(|| {
        let ring = Arc::new(LogRing::new(256, 0));

        let appender = |fill: u8| {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                let r = ring.reserve(17);
                assert!(ring.writable(&r), "256-byte ring fits both records");
                ring.write(&r, &[fill; 17]);
                ring.publish(&r);
                r.start
            })
        };
        let a = appender(0xAA);
        let b = appender(0xBB);

        let mut cur = DrainCursor::new(0);
        let mut out = Vec::new();
        // Mid-flight drain: races both publishes; may see 0, 1, or 2
        // records but never a torn one.
        let mid = ring.drain(&mut cur, &mut out);
        assert!(
            mid.is_multiple_of(17),
            "drain stopped inside a record: {mid}"
        );

        let (start_a, start_b) = (a.join().unwrap(), b.join().unwrap());
        ring.drain(&mut cur, &mut out);

        // Serial equivalence: bytes sit whole at their reserved offsets.
        let mut expect = [[0u8; 17]; 2];
        expect[(start_a / 17) as usize] = [0xAA; 17];
        expect[(start_b / 17) as usize] = [0xBB; 17];
        assert_eq!(out.len(), 34);
        assert_eq!(out[..17], expect[0]);
        assert_eq!(out[17..], expect[1]);
    });
    println!(
        "racing_publishes_drain_as_the_serial_stream: {} executions, {} states, {} pruned, {:?}",
        report.executions, report.states, report.pruned, report.elapsed
    );
    assert!(report.passed(), "failure: {:?}", report.failure);
    assert!(report.executions > 1, "model explored only one schedule");
}

/// The commit-queue handshake: a committer that found no outcome
/// enqueues and parks; the flusher publishes the watermark (release) and
/// then sweeps the queue. In no interleaving may the wakeup fall into
/// the window between the committer's outcome check and its sleep — the
/// park deadline is `None`, so a lost wakeup is a model deadlock.
#[test]
fn no_lost_wakeup_between_advance_and_park() {
    let report = Builder::new().check(|| {
        let q = Arc::new(CommitQueue::new(0));

        let committer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let slot = WaitSlot::new();
                q.enqueue(10, &slot);
                loop {
                    if let Some(out) = q.outcome(10) {
                        return out;
                    }
                    q.park(10, &slot, None);
                }
            })
        };

        // The flusher's durable-publish + wake, racing the park above.
        q.advance(10);
        q.wake();
        assert_eq!(committer.join().unwrap(), Ok(()));
    });
    println!(
        "no_lost_wakeup_between_advance_and_park: {} executions, {} states, {} pruned, {:?}",
        report.executions, report.states, report.pruned, report.elapsed
    );
    assert!(report.passed(), "failure: {:?}", report.failure);
    assert!(report.executions > 1, "model explored only one schedule");
}

/// A poisoned device must deliver an error to **every** parked
/// committer: one inside the failed batch (gets the original
/// `FlushFailed`) and one past it (gets `Poisoned`). No schedule may
/// leave either asleep or hand either an `Ok`.
#[test]
fn poison_wakes_every_parked_committer() {
    let report = Builder::new().check(|| {
        let q = Arc::new(CommitQueue::new(0));

        let committer = |lsn: u64| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let slot = WaitSlot::new();
                q.enqueue(lsn, &slot);
                loop {
                    if let Some(out) = q.outcome(lsn) {
                        return out;
                    }
                    q.park(lsn, &slot, None);
                }
            })
        };
        let in_batch = committer(10);
        let after = committer(20);

        // The failing flush: record the failure, then sweep everyone.
        q.poison(1, 5, 15);
        q.wake();

        assert_eq!(
            in_batch.join().unwrap(),
            Err(WalError::FlushFailed {
                flush: 1,
                dropped: 5
            }),
            "batch member lost its original error"
        );
        assert_eq!(after.join().unwrap(), Err(WalError::Poisoned));
    });
    println!(
        "poison_wakes_every_parked_committer: {} executions, {} states, {} pruned, {:?}",
        report.executions, report.states, report.pruned, report.elapsed
    );
    assert!(report.passed(), "failure: {:?}", report.failure);
    assert!(report.executions > 1, "model explored only one schedule");
}
