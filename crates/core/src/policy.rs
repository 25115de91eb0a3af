//! The two lock policies: the unmodified baseline and the paper's SLI.
//!
//! The paper's core contribution is a *decision procedure*: at each commit,
//! which held locks does the agent thread pass to its next transaction
//! (Section 4.2), and what happens to a passed lock the next transaction
//! did not use (Section 4.4)? [`PolicyKind`] names whether that procedure
//! runs at all; the procedure itself is two functions:
//!
//! 1. [`select_candidates`] — the parents-first walk over a committing
//!    transaction's held locks, applying the five criteria of
//!    [`crate::is_inheritance_candidate`] and the per-transaction cap.
//! 2. [`keeps_unused`] — whether an inherited lock nobody reclaimed stays
//!    parked for another generation (bounded hysteresis on a hot lock).
//!
//! The heat signal that feeds criterion 2 is policy-independent: every
//! latched acquire records latch collisions and cross-agent sharing on the
//! lock head (see `LockHead::latch_observe`), so a baseline run still
//! measures what SLI *could* target (the Figure 8 census).

use crate::config::SliConfig;
use crate::head::LockHead;
use crate::id::{LockId, LockLevel};
use crate::request::RequestStatus;
use crate::sli::is_inheritance_candidate;
use crate::txn::Entry;

/// Which lock policy the lock manager runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PolicyKind {
    /// The unmodified baseline lock manager: every acquire goes through the
    /// latch-protected release + re-acquire pair; nothing is ever
    /// inherited.
    Baseline,
    /// The paper's policy: Section 4.2's five criteria, with criterion 2
    /// fed by the combined latch-collision + cross-agent-sharing heat
    /// signal. The default.
    #[default]
    PaperSli,
}

impl PolicyKind {
    /// Both policies, baseline first.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::Baseline, PolicyKind::PaperSli];

    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "baseline",
            PolicyKind::PaperSli => "paper-sli",
        }
    }

    /// Whether this policy ever parks locks on agents.
    #[inline]
    pub fn inherits(self) -> bool {
        self == PolicyKind::PaperSli
    }
}

/// Select the inheritance candidates among a committing transaction's held
/// locks (acquisition order, so parents precede children). Returns one
/// decision per lock.
///
/// Parents are decided before children so criterion 5 can consult the
/// parent's decision, and [`SliConfig::max_inherited_per_txn`] caps the
/// hand-off in acquisition order. Only page-or-higher locks enter the
/// decided index — keeping records out keeps the scan short even for
/// thousand-lock transactions. Grant-word holds have no `LockRequest` to
/// park on the agent, so they are never candidates; a queued request must
/// be `Granted` (a `Converting` one cannot be passed on).
pub(crate) fn select_candidates(cfg: &SliConfig, held: &[Entry]) -> Vec<bool> {
    let mut decisions = vec![false; held.len()];
    let mut decided: Vec<(LockId, bool)> = Vec::with_capacity(held.len().min(64));
    let mut inherited_count = 0usize;
    for (i, e) in held.iter().enumerate() {
        let id = e.id();
        let parent_ok = id.parent().map(|p| {
            decided
                .iter()
                .find(|(did, _)| *did == p)
                .is_some_and(|(_, ok)| *ok)
        });
        let grantable =
            matches!(e, Entry::Queued(req, _) if req.status() == RequestStatus::Granted);
        let inherit = grantable
            && inherited_count < cfg.max_inherited_per_txn
            && is_inheritance_candidate(cfg, id, e.mode(), e.head(), parent_ok);
        decisions[i] = inherit;
        if id.level() < LockLevel::Record {
            decided.push((id, inherit));
        }
        if inherit {
            inherited_count += 1;
        }
    }
    decisions
}

/// The fate of a previously inherited lock that the finishing transaction
/// never reclaimed (`unused_generations` consecutive passes so far): keep
/// it parked while it is still hot and within [`SliConfig::hysteresis`],
/// otherwise release it. Only consulted on commit; aborts always drop
/// leftovers.
pub(crate) fn keeps_unused(cfg: &SliConfig, head: &LockHead, unused_generations: u32) -> bool {
    unused_generations < cfg.hysteresis && head.hot().is_hot(cfg.hot_threshold, cfg.hot_window)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::id::TableId;
    use crate::mode::LockMode;
    use crate::request::LockRequest;

    fn head_with(id: LockId, hot: bool) -> Arc<LockHead> {
        let h = LockHead::new(id);
        for _ in 0..16 {
            h.hot().record(hot);
        }
        h
    }

    fn held(id: LockId, mode: LockMode, head: &Arc<LockHead>) -> Entry {
        Entry::Queued(
            Arc::new(LockRequest::new_granted(id, 0, 1, mode)),
            Arc::clone(head),
        )
    }

    #[test]
    fn kinds_round_trip() {
        assert_eq!(PolicyKind::default(), PolicyKind::PaperSli);
        assert_eq!(
            PolicyKind::ALL.map(PolicyKind::name),
            ["baseline", "paper-sli"]
        );
    }

    #[test]
    fn baseline_never_inherits() {
        assert!(!PolicyKind::Baseline.inherits());
        assert!(PolicyKind::PaperSli.inherits());
    }

    #[test]
    fn default_walk_respects_parent_order_and_cap() {
        let db = head_with(LockId::Database, true);
        let t1 = LockId::Table(TableId(1));
        let th = head_with(t1, true);
        let pages: Vec<(LockId, Arc<LockHead>)> = (0..4u32)
            .map(|p| {
                let id = LockId::Page(TableId(1), p);
                (id, head_with(id, true))
            })
            .collect();
        let mut locks = vec![
            held(LockId::Database, LockMode::IS, &db),
            held(t1, LockMode::IS, &th),
        ];
        for (id, h) in &pages {
            locks.push(held(*id, LockMode::S, h));
        }
        let cfg = SliConfig {
            max_inherited_per_txn: 3,
            ..SliConfig::default()
        };
        let d = select_candidates(&cfg, &locks);
        assert_eq!(d, vec![true, true, true, false, false, false], "cap at 3");

        // A cold parent vetoes its children (criterion 5) even when the
        // children are hot.
        let cold_table = head_with(t1, false);
        let locks2 = vec![
            held(LockId::Database, LockMode::IS, &db),
            held(t1, LockMode::IS, &cold_table),
            held(pages[0].0, LockMode::S, &pages[0].1),
        ];
        let d2 = select_candidates(&SliConfig::default(), &locks2);
        assert_eq!(d2, vec![true, false, false]);

        // Grant-word holds carry no request to park: never candidates.
        let fast = vec![Entry::Fast(LockMode::IS, Arc::clone(&db))];
        assert_eq!(select_candidates(&SliConfig::default(), &fast), vec![false]);
    }

    #[test]
    fn paper_sli_heats_on_either_signal() {
        let t1 = LockId::Table(TableId(1));
        // Alone on an uncontended head: a cold sample.
        let head = LockHead::new(t1);
        drop(head.latch_observe(0));
        assert_eq!(head.hot().ratio(1), 0.0);
        // Another agent holds a request: the cross-agent-sharing signal.
        head.latch_untracked()
            .push_granted(Arc::new(LockRequest::new_granted(t1, 1, 7, LockMode::IS)));
        drop(head.latch_observe(0));
        assert_eq!(head.hot().ratio(1), 1.0);
        // Our own request is not sharing.
        drop(head.latch_observe(1));
        assert_eq!(head.hot().ratio(1), 0.0);
    }

    #[test]
    fn discard_policies_follow_hysteresis() {
        let t1 = LockId::Table(TableId(1));
        let hot = head_with(t1, true);
        let cold = head_with(t1, false);
        let cfg = SliConfig {
            hysteresis: 2,
            ..SliConfig::default()
        };
        assert!(keeps_unused(&cfg, &hot, 1));
        assert!(!keeps_unused(&cfg, &hot, 2), "bounded");
        assert!(!keeps_unused(&cfg, &cold, 0), "cold drops");
        assert!(
            !keeps_unused(&SliConfig::default(), &hot, 0),
            "hysteresis 0 drops after one unused pass"
        );
    }
}
