//! # sli-wal — write-ahead log manager
//!
//! A Shore-MT-style log with a scalable front-end: transactions reserve
//! space in a lock-free ring ([`LogRing`]) with one atomic fetch-add,
//! encode outside any latch, and force the log up to their commit LSN by
//! parking on the committer queue ([`CommitQueue`]) until a pipelined
//! group-commit flush covers them.
//!
//! The log exists for two reasons in this reproduction:
//!
//! 1. realism of the execution-time breakdowns (the paper's Figures 6/10
//!    contain a log-manager component), and
//! 2. exercising a second classic contention point (the commit-time log
//!    force) so SLI's effect is measured against a system with the usual
//!    moving parts.
//!
//! Durability itself is simulated: flushing "to disk" advances the durable
//! LSN after an optional configurable latency, mirroring the paper's
//! in-memory filesystem with an artificial I/O penalty. Setting
//! [`LogConfig::retain`] keeps the flushed byte stream in an in-process
//! device so the log can be snapshotted, torn, corrupted, and replayed by
//! the [`recovery`] pipeline; [`FaultPlan`] injects fsync failures.

pub mod committers;
mod manager;
mod record;
pub mod recovery;
pub mod ring;

pub use committers::{CommitQueue, WaitSlot};
pub use manager::{FaultPlan, LogConfig, LogManager, LogStats, WalError};
pub use record::{
    DecodeEnd, DecodeError, DecodeSummary, LogPayload, LogRecord, Lsn, FRAME_HEADER, LOADER_TXN,
    MAX_RECORD_LEN,
};
pub use recovery::{analyze, replay, LogAnalysis, RecoveryError, RecoveryReport, RecoveryStorage};
pub use ring::{DrainCursor, LogRing, Reservation};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn end_to_end_append_and_commit() {
        let log = LogManager::new(LogConfig::default());
        let lsn1 = log.append(LogRecord::update(1, 7, 3, 5, b"old", b"new"));
        let lsn2 = log.append(LogRecord::commit(1));
        assert!(lsn2 > lsn1);
        log.commit(1, lsn2).unwrap();
        assert!(log.durable_lsn() >= lsn2);
    }

    #[test]
    fn group_commit_makes_all_waiters_durable() {
        let log = Arc::new(LogManager::new(LogConfig {
            flush_latency: std::time::Duration::from_millis(2),
            ..LogConfig::default()
        }));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    let lsn = log.append(LogRecord::update(t, 1, 0, 0, b"a", b"b"));
                    let c = log.append(LogRecord::commit(t * 1000 + i));
                    log.commit(t * 1000 + i, c).unwrap();
                    assert!(log.durable_lsn() >= lsn);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = log.stats();
        assert_eq!(stats.commits, 160);
        // Group commit: far fewer flushes than commits.
        assert!(
            stats.flushes < stats.commits,
            "flushes {} vs commits {}",
            stats.flushes,
            stats.commits
        );
    }
}
