//! Exhaustive interleaving models of SLI's inheritance hand-off
//! (`sli_core::LockRequest`), run on the sli-check scheduler. The
//! `sli_check` feature on `sli-core` routes the request's status atomics
//! and the grant word's `AtomicU64` through the shimmed facade, so every
//! status CAS and every word operation below is a schedule point.
//!
//! Two obligations are modelled, each over ALL schedules up to the
//! preemption bound (`SLI_CHECK_PREEMPTIONS`, default 2):
//!
//! 1. **One winner**: the owner's reclaim CAS and a conflicting
//!    transaction's invalidation CAS race on one `Inherited` request;
//!    exactly one of them moves it out of `Inherited`.
//! 2. **Inheritance needs no word operation**: a queued IX holder that is
//!    inherited and then reclaimed keeps its queue flag on the grant word
//!    throughout, so a racing fast S acquire is refused at every step.

use std::sync::Arc;

use sli_check::{thread, Builder};
use sli_core::{FastAcquire, GrantWord, LockId, LockMode, LockRequest, RequestStatus, TableId};

/// Group-mode index of S (see `sli_core::word::FAST_MODES`).
const S: usize = 2;

fn table_request(mode: LockMode) -> LockRequest {
    LockRequest::new_granted(LockId::Table(TableId(1)), 0, 1, mode)
}

#[test]
fn reclaim_and_invalidate_have_exactly_one_winner() {
    let report = Builder::new().check(|| {
        let req = Arc::new(table_request(LockMode::IX));
        assert!(req.begin_inheritance());

        let invalidator = {
            let req = Arc::clone(&req);
            thread::spawn(move || req.try_invalidate())
        };
        let reclaimed = req.try_reclaim(2);
        let invalidated = invalidator.join().unwrap();

        assert!(
            reclaimed ^ invalidated,
            "reclaimed={reclaimed} invalidated={invalidated}: exactly one CAS must win"
        );
        let expected = if reclaimed {
            RequestStatus::Granted
        } else {
            RequestStatus::Invalid
        };
        assert_eq!(req.status(), expected);
        if reclaimed {
            assert_eq!(req.txn(), 2, "the reclaiming transaction owns the request");
        }
    });
    println!(
        "reclaim_and_invalidate_have_exactly_one_winner: {} executions, {} states, {} pruned, {:?}",
        report.executions, report.states, report.pruned, report.elapsed
    );
    assert!(report.passed(), "failure: {:?}", report.failure);
    assert!(report.executions > 1, "model explored only one schedule");
}

#[test]
fn inherited_queue_holder_keeps_refusing_a_fast_conflict() {
    let report = Builder::new().check(|| {
        let word = Arc::new(GrantWord::new());
        let req = Arc::new(table_request(LockMode::IX));

        let reader = {
            let word = Arc::clone(&word);
            thread::spawn(move || word.try_fast_acquire(S, 4) == FastAcquire::Granted)
        };

        // The owner: a latched IX grant, then commit-time inheritance and
        // the next transaction's reclaim, touching only the request.
        let claimed = word.claim_queued(LockMode::IX);
        if claimed {
            assert!(req.begin_inheritance());
            assert!(word.snapshot().queue_ix, "inherited IX lost its queue flag");
            assert!(req.try_reclaim(2));
            assert!(word.snapshot().queue_ix, "reclaimed IX lost its queue flag");
        }

        // Neither side releases, so both succeeding means IX and S were
        // held together.
        let read = reader.join().unwrap();
        assert!(
            !(claimed && read),
            "queued IX (inherited then reclaimed) and fast S were both granted"
        );
    });
    println!(
        "inherited_queue_holder_keeps_refusing_a_fast_conflict: {} executions, {} states, \
         {} pruned, {:?}",
        report.executions, report.states, report.pruned, report.elapsed
    );
    assert!(report.passed(), "failure: {:?}", report.failure);
    assert!(report.executions > 1, "model explored only one schedule");
}
