//! Property tests over the lock queue: after any sequence of operations,
//! the granted-mode summary must equal a recount of the queue, FIFO order
//! must hold for grants, and no request may be lost.

use proptest::prelude::*;
use std::sync::Arc;

use sli_core::{LockHead, LockId, LockMode, LockRequest, LockStats, RequestStatus, TableId};

#[derive(Clone, Debug)]
enum Op {
    /// Push a new request for the given mode (granted if admissible, else
    /// waiting).
    Request(LockMode),
    /// Release the i-th live granted request (modulo count).
    Release(usize),
    /// Mark the i-th granted request inherited (modulo count).
    Inherit(usize),
    /// Discard (release) the i-th inherited request.
    Discard(usize),
}

fn arb_mode() -> impl Strategy<Value = LockMode> {
    prop::sample::select(vec![
        LockMode::IS,
        LockMode::IX,
        LockMode::S,
        LockMode::SIX,
        LockMode::X,
    ])
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_mode().prop_map(Op::Request),
        (0usize..8).prop_map(Op::Release),
        (0usize..8).prop_map(Op::Inherit),
        (0usize..8).prop_map(Op::Discard),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn queue_summary_always_matches_recount(ops in prop::collection::vec(arb_op(), 1..60)) {
        let head = LockHead::new(LockId::Table(TableId(1)));
        let stats = LockStats::new();
        let mut live: Vec<Arc<LockRequest>> = Vec::new();
        let mut txn = 0u64;
        for op in ops {
            let mut q = head.latch_untracked();
            match op {
                Op::Request(mode) => {
                    txn += 1;
                    if q.waiters == 0 && q.compatible_with_granted(mode, None) {
                        let r = Arc::new(LockRequest::new_granted(
                            LockId::Table(TableId(1)), (txn % 64) as u32, txn, mode,
                        ));
                        q.push_granted(Arc::clone(&r));
                        live.push(r);
                    } else {
                        let r = Arc::new(LockRequest::new_waiting(
                            LockId::Table(TableId(1)), (txn % 64) as u32, txn, mode,
                        ));
                        q.push_waiting(Arc::clone(&r));
                        q.grant_pass(&stats);
                        live.push(r);
                    }
                }
                Op::Release(i) => {
                    let granted: Vec<_> = live.iter()
                        .filter(|r| r.status() == RequestStatus::Granted)
                        .cloned()
                        .collect();
                    if !granted.is_empty() {
                        let victim = &granted[i % granted.len()];
                        q.release(victim, &stats);
                    }
                }
                Op::Inherit(i) => {
                    let granted: Vec<_> = live.iter()
                        .filter(|r| r.status() == RequestStatus::Granted)
                        .cloned()
                        .collect();
                    if !granted.is_empty() {
                        let r = &granted[i % granted.len()];
                        prop_assert!(r.begin_inheritance());
                    }
                }
                Op::Discard(i) => {
                    let inherited: Vec<_> = live.iter()
                        .filter(|r| r.status() == RequestStatus::Inherited)
                        .cloned()
                        .collect();
                    if !inherited.is_empty() {
                        let r = &inherited[i % inherited.len()];
                        q.release(r, &stats);
                    }
                }
            }
            // --- invariants, checked after every operation ---------------
            // 1. Summary equals a recount of holding requests.
            let mut counts = [0u32; sli_core::NUM_MODES];
            for r in q.reqs.iter() {
                if r.status().holds_lock() {
                    counts[r.mode() as usize] += 1;
                }
            }
            prop_assert_eq!(q.holders(), counts.iter().sum::<u32>());
            // 2. All holders are pairwise compatible... except requests of
            //    the same agent (which the manager would have merged; here
            //    every request is a distinct agent mod 64, close enough) —
            //    verify via the matrix on *distinct* request pairs.
            let holders: Vec<_> = q.reqs.iter()
                .filter(|r| r.status().holds_lock())
                .collect();
            for (ai, a) in holders.iter().enumerate() {
                for b in holders.iter().skip(ai + 1) {
                    prop_assert!(
                        a.mode().compatible(b.mode()) || a.agent() == b.agent(),
                        "incompatible co-holders {:?} and {:?}", a, b
                    );
                }
            }
            // 3. Waiter counter equals recount.
            let waiting = q.reqs.iter().filter(|r| matches!(
                r.status(), RequestStatus::Waiting | RequestStatus::Converting
            )).count() as u32;
            prop_assert_eq!(q.waiters, waiting);
            // 4. No waiting request is admissible while it sits there
            //    (grant_pass must have admitted everything admissible),
            //    except those blocked FIFO behind an earlier waiter.
            if let Some(first_waiter) = q.reqs.iter().find(|r| r.status() == RequestStatus::Waiting) {
                prop_assert!(
                    !q.compatible_with_granted(first_waiter.convert_to(), None),
                    "head-of-queue waiter is admissible but not granted"
                );
            }
            drop(q);
            // Drop released requests from our mirror.
            live.retain(|r| r.status() != RequestStatus::Released
                && r.status() != RequestStatus::Invalid);
        }
        // Drain: release everything and verify the queue empties.
        {
            let mut q = head.latch_untracked();
            let all: Vec<_> = std::mem::take(&mut live);
            for r in all {
                if r.status().holds_lock() {
                    q.release(&r, &stats);
                }
            }
            // Any remaining waiters got granted by the final passes; grant
            // and release them too.
            loop {
                let next = q.reqs.iter()
                    .find(|r| r.status().holds_lock())
                    .cloned();
                match next {
                    Some(r) => { q.release(&r, &stats); }
                    None => break,
                }
            }
            prop_assert_eq!(q.holders(), 0);
        }
    }
}
