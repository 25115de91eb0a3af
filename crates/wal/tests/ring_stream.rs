//! Ring-protocol property: concurrent reserve / encode / publish / drain
//! interleavings produce **exactly the byte stream a serial append
//! would** — the fetch-add hands out the serial order, publication holes
//! only delay (never reorder or tear) the drain, and backpressure on a
//! tiny ring loses nothing.
//!
//! The property would fail for: overlapping reservations, a drain
//! crossing a hole, a stale sequence slot read as published, or a writer
//! overwriting undrained bytes.

use std::sync::Arc;

use proptest::prelude::*;
use sli_wal::{DecodeEnd, LogConfig, LogManager, LogRecord};

/// One thread's scripted appends: payload sizes drive record lengths
/// (and thus where ring wraps and slot boundaries land).
fn arb_script() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..200, 1..30)
}

fn run_streams(ring_bytes: u64, scripts: Vec<Vec<u8>>, commit_every: usize) {
    let log = Arc::new(LogManager::new(LogConfig {
        retain: true,
        ring_bytes,
        ..LogConfig::default()
    }));
    let mut handles = Vec::new();
    for (t, script) in scripts.iter().cloned().enumerate() {
        let log = Arc::clone(&log);
        handles.push(std::thread::spawn(move || {
            let mut lsns = Vec::new();
            for (i, size) in script.iter().enumerate() {
                let txn = 1 + t as u64 * 1000 + i as u64;
                let img = vec![t as u8; *size as usize];
                let lsn = log.append(LogRecord::update(txn, t as u32, i as u32, 0, &img, &img));
                if commit_every > 0 && i % commit_every == 0 {
                    let c = log.append(LogRecord::commit(txn));
                    log.commit(txn, c).unwrap();
                    lsns.push(c);
                } else {
                    lsns.push(lsn);
                }
            }
            lsns
        }));
    }
    let per_thread: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    log.force().unwrap();

    let snap = log.durable_snapshot();
    let sum = LogRecord::decode_all(&snap);
    // Byte-exactness: the device is a gap-free, CRC-clean stream whose
    // length equals everything reserved.
    assert_eq!(sum.end, DecodeEnd::Clean);
    assert_eq!(snap.len() as u64, log.next_lsn());
    assert_eq!(sum.consumed, snap.len());

    // Serial equivalence: re-encoding the decoded records reproduces the
    // device bytes exactly (no torn, reordered, or interleaved record
    // internals — each record sits whole at its reserved offset).
    let mut replay = bytes::BytesMut::with_capacity(snap.len());
    for rec in &sum.records {
        rec.encode(&mut replay);
    }
    assert_eq!(&replay[..], &snap[..]);

    // Per-thread program order: each thread's records appear in its
    // append order (LSN order is the serial order).
    for (t, lsns) in per_thread.iter().enumerate() {
        assert!(
            lsns.windows(2).all(|w| w[0] < w[1]),
            "thread {t} LSNs out of order"
        );
    }
    let expected: usize = scripts.iter().map(|s| s.len()).sum::<usize>()
        + per_thread
            .iter()
            .enumerate()
            .map(|(t, _)| {
                if commit_every > 0 {
                    scripts[t].len().div_ceil(commit_every)
                } else {
                    0
                }
            })
            .sum::<usize>();
    assert_eq!(sum.records.len(), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Appends + periodic parked commits on a wrap-heavy 4 KiB ring.
    #[test]
    fn concurrent_interleavings_reproduce_the_serial_stream(
        scripts in prop::collection::vec(arb_script(), 2..5),
        commit_every in 1usize..5,
    ) {
        run_streams(4096, scripts, commit_every);
    }

    /// Same property on a 1 KiB ring, where appenders spend much of the
    /// run waiting on the flusher for space.
    #[test]
    fn tiny_ring_reproduces_the_serial_stream(
        scripts in prop::collection::vec(arb_script(), 2..4),
        commit_every in 1usize..4,
    ) {
        run_streams(1024, scripts, commit_every);
    }
}
