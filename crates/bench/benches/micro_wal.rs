//! Committer-count sweep of the log front-end: the lock-free ring +
//! parked committer queue ([`sli_wal::LogManager`]) at 1x / 2x / 4x the
//! core count of committer threads over a simulated 50 us fsync.
//!
//! Reported per cell: append p50 (the reservation fast path), commit
//! p95 (append commit record + wait for durability), and the mean
//! group-commit size (commits per physical flush). Numbers land in
//! EXPERIMENTS.md.
//!
//! Knobs: `SLI_MICRO_WAL_COMMITS` (commits per thread, default 300),
//! `SLI_MICRO_WAL_FSYNC_US` (simulated device latency, default 50).

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::SampleStats;
use sli_harness::env_u64;
use sli_wal::{LogConfig, LogManager, LogRecord};

struct Cell {
    append_p50_ns: f64,
    commit_p95_ns: f64,
    /// Mean commits per physical flush.
    group: f64,
    wall: Duration,
}

/// Drive `threads` committers, each appending one update + one commit
/// record then waiting for durability, `commits_per_thread` times.
fn drive(fsync: Duration, threads: usize, commits_per_thread: u64) -> Cell {
    let log = Arc::new(LogManager::new(LogConfig {
        flush_latency: fsync,
        ..LogConfig::default()
    }));
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads as u64 {
        let log = Arc::clone(&log);
        handles.push(std::thread::spawn(move || {
            let mut appends = Vec::with_capacity(commits_per_thread as usize);
            let mut commits = Vec::with_capacity(commits_per_thread as usize);
            let img = [t as u8; 48];
            for i in 0..commits_per_thread {
                let a0 = Instant::now();
                log.append(LogRecord::update(t + 1, 1, i as u32, 0, &img, &img));
                appends.push(a0.elapsed());
                let c0 = Instant::now();
                let txn = t * 1_000_000 + i + 1;
                let lsn = log.append(LogRecord::commit(txn));
                log.commit(txn, lsn).expect("no faults armed");
                commits.push(c0.elapsed());
            }
            (appends, commits)
        }));
    }
    let mut appends = Vec::new();
    let mut commits = Vec::new();
    for h in handles {
        let (a, c) = h.join().unwrap();
        appends.extend(a);
        commits.extend(c);
    }
    let wall = started.elapsed();
    let s = log.stats();
    Cell {
        append_p50_ns: SampleStats::from_samples(&appends).expect("samples").p50,
        commit_p95_ns: SampleStats::from_samples(&commits).expect("samples").p95,
        group: s.commits as f64 / s.flushes.max(1) as f64,
        wall,
    }
}

fn main() {
    let commits_per_thread = env_u64("SLI_MICRO_WAL_COMMITS", 300);
    let fsync = Duration::from_micros(env_u64("SLI_MICRO_WAL_FSYNC_US", 50));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!(
        "micro_wal: {} commits/thread, {} us simulated fsync, {} cores",
        commits_per_thread,
        fsync.as_micros(),
        cores
    );
    println!(
        "{:>8} {:>12} {:>12} {:>8} {:>9}",
        "threads", "append p50", "commit p95", "group", "wall ms"
    );

    for mult in [1usize, 2, 4] {
        let threads = cores * mult;
        let cell = drive(fsync, threads, commits_per_thread);
        println!(
            "{:>8} {:>10.1}us {:>10.1}us {:>8.1} {:>9.1}",
            threads,
            cell.append_p50_ns / 1e3,
            cell.commit_p95_ns / 1e3,
            cell.group,
            cell.wall.as_secs_f64() * 1e3
        );
    }
}
