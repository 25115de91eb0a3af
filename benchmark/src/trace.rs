//! The traced run's per-layer metrics, derived purely from outside the
//! engine: public counter deltas over the traced window, benchmark spans,
//! and probe timings. `est_ns_per_txn` = (operations per transaction from
//! the counters) x (ns per operation from the probes) — an estimate, and
//! named as one.

use std::collections::BTreeMap;

use sli_traffic::json::JsonWriter;

use crate::drive::{Measured, Summary};
use crate::metrics::{per_layer_name, PER_LAYER};
use crate::probes::Probes;
use crate::span;
use crate::workload::{Loaded, Spec, ROW_WORK_NS};

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub struct Inputs<'a> {
    pub spec: &'a Spec,
    pub loaded: &'a Loaded,
    /// The same code path with spans off, run just before the traced window.
    pub untraced: &'a Summary,
    pub traced: &'a Measured,
    pub traced_sum: &'a Summary,
    pub probes: &'a Probes,
    /// `txn_per_s` under PaperSli over Baseline (0 on the MVCC backend).
    pub sli_gain: f64,
    /// Version chains alive when the traced window closed.
    pub chains_at_end: u64,
}

/// Every [`PER_LAYER`] metric by name.
pub fn derive(i: &Inputs<'_>) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = i.probes.metrics.clone();
    let sum = i.traced_sum;
    let txns = sum.completed as f64;
    let per_txn = |count: u64| ratio(count as f64, txns);
    let per_ktxn = |count: u64| 1e3 * ratio(count as f64, txns);

    // core
    let lock = i.traced.after.lock.delta(&i.traced.before.lock);
    let cached = lock.cache_hits + lock.coverage_hits;
    m.insert("core.lock_requests_per_txn", per_txn(lock.lock_requests));
    m.insert(
        "core.cache_hit_frac",
        ratio(
            cached as f64,
            (cached + lock.lock_requests + lock.sli_reclaimed) as f64,
        ),
    );
    m.insert(
        "core.fastpath_frac",
        ratio(lock.fastpath_granted as f64, lock.lock_requests as f64),
    );
    m.insert("core.sli_inherited_per_txn", per_txn(lock.sli_inherited));
    m.insert(
        "core.sli_reclaim_frac",
        ratio(lock.sli_reclaimed as f64, lock.sli_inherited as f64),
    );
    m.insert(
        "core.sli_invalidated_per_txn",
        per_txn(lock.sli_invalidated),
    );
    m.insert("core.blocks_per_ktxn", per_ktxn(lock.blocks));
    m.insert("core.deadlocks_per_ktxn", per_ktxn(lock.deadlocks));
    let core_est = per_txn(lock.lock_requests) * i.probes.core_ns_per_request
        + per_txn(cached) * i.probes.core_ns_per_cache_hit;
    m.insert("core.est_ns_per_txn", core_est);
    m.insert("core.sli_gain", i.sli_gain);

    // latch
    let park = i.traced.after.park.delta(&i.traced.before.park);
    m.insert("latch.parks_per_ktxn", per_ktxn(park.parks));
    m.insert("latch.spins_per_txn", per_txn(park.spins));

    // wal
    let (l0, l1) = (&i.traced.before.log, &i.traced.after.log);
    let appends = l1.appends - l0.appends;
    let commits = l1.commits - l0.commits;
    let flushes = l1.flushes - l0.flushes;
    m.insert("wal.appends_per_txn", per_txn(appends));
    m.insert("wal.bytes_per_txn", per_txn(l1.bytes - l0.bytes));
    m.insert("wal.txn_per_flush", ratio(commits as f64, flushes as f64));
    m.insert(
        "wal.commit_parks_frac",
        ratio((l1.commit_parks - l0.commit_parks) as f64, commits as f64),
    );
    m.insert(
        "wal.inline_flush_frac",
        ratio((l1.steals - l0.steals) as f64, flushes as f64),
    );
    m.insert(
        "wal.reserve_waits_per_ktxn",
        per_ktxn(l1.reserve_waits - l0.reserve_waits),
    );
    let wal_est = per_txn(appends) * m["wal.append_ns"] + per_txn(commits) * m["wal.commit_ns"];
    m.insert("wal.est_ns_per_txn", wal_est);

    // storage. Every row access goes through the pool; a writing transaction
    // logs Begin + Commit around one record per row it changed.
    let (p0, p1) = (&i.traced.before.pool, &i.traced.after.pool);
    let accesses = (p1.hits - p0.hits) + (p1.misses - p0.misses);
    let row_writes = appends.saturating_sub(2 * commits);
    m.insert(
        "storage.pool_hit_frac",
        ratio((p1.hits - p0.hits) as f64, accesses as f64),
    );
    let storage_est = per_txn(accesses)
        * (ROW_WORK_NS as f64 + m["storage.hash_get_ns"] + m["storage.heap_read_ns"])
        + per_txn(row_writes) * m["storage.heap_update_ns"];
    m.insert("storage.est_ns_per_txn", storage_est);

    // mvcc
    let (v0, v1) = (&i.traced.before.mvcc, &i.traced.after.mvcc);
    let installed = v1.versions_installed - v0.versions_installed;
    m.insert(
        "mvcc.validation_aborts_per_ktxn",
        per_ktxn(v1.validation_aborts - v0.validation_aborts),
    );
    m.insert(
        "mvcc.ww_conflicts_per_ktxn",
        per_ktxn(v1.ww_conflicts - v0.ww_conflicts),
    );
    m.insert(
        "mvcc.read_waits_per_ktxn",
        per_ktxn(v1.read_waits - v0.read_waits),
    );
    m.insert(
        "mvcc.pruned_over_installed",
        ratio(
            (v1.versions_pruned - v0.versions_pruned) as f64,
            installed as f64,
        ),
    );
    m.insert(
        "mvcc.gc_runs_per_s",
        ratio((v1.gc_runs - v0.gc_runs) as f64, i.traced.measure_s),
    );
    m.insert("mvcc.chain_count_end", i.chains_at_end as f64);
    let on_mvcc = v1.begins > v0.begins;
    let mvcc_est = if on_mvcc {
        per_txn(accesses) * (m["mvcc.read_ns"] + m["mvcc.validate_ns_per_read"])
            + per_txn(installed) * m["mvcc.write_install_ns"]
    } else {
        0.0
    };
    m.insert("mvcc.est_ns_per_txn", mvcc_est);

    // workloads, engine
    for (idx, name) in i.loaded.mix.transaction_names().into_iter().enumerate() {
        let h = i.traced.merged(|t| &t.by_entry[idx]);
        for (q, suffix) in [(0.50, "p50_us"), (0.95, "p95_us")] {
            // TM1's seven transactions are not in the catalog.
            if let Some(key) = per_layer_name(&format!("workloads.{name}.{suffix}")) {
                m.insert(key, h.quantile(q) / 1e3);
            }
        }
    }
    let service = i.traced.merged(|t| &t.service);
    m.insert(
        "engine.unattributed_frac",
        1.0 - ratio(core_est + wal_est + storage_est + mvcc_est, service.mean()),
    );

    // traffic
    if let Some(p) = &i.traced.pacer {
        let wait = i.traced.merged(|t| &t.queue_wait);
        m.insert("traffic.queue_wait_p50_us", wait.quantile(0.50) / 1e3);
        m.insert("traffic.queue_wait_p95_us", wait.quantile(0.95) / 1e3);
        m.insert("traffic.depth_max", p.depth_max as f64);
        m.insert("traffic.shed_frac", ratio(p.shed as f64, p.offered as f64));
        m.insert(
            "traffic.achieved_over_offered",
            ratio(txns, p.offered as f64),
        );
        m.insert("traffic.pacer_lag_p95_us", p.lag.quantile(0.95) / 1e3);
    }

    // the benchmark itself
    m.insert(
        "bench.trace_overhead_frac",
        1.0 - ratio(sum.txn_per_s, i.untraced.txn_per_s),
    );
    m.insert("lat_p95_us", i.untraced.lat_p95_us);

    // A layer the workload bypasses reads 0.
    for (name, _, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    m
}

/// The trace file: per-name span totals, the per-layer metrics derived from
/// the run, and the kept raw spans.
pub fn trace_file(i: &Inputs<'_>, metrics: &BTreeMap<&'static str, f64>) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .kv_str("workload", i.spec.name)
        .key("span_totals")
        .begin_object();
    for (name, t) in span::merge_totals(i.traced.threads.iter().map(|t| &t.spans)) {
        w.key(name)
            .begin_object()
            .kv_uint("count", t.count)
            .kv_uint("total_ns", t.total_ns)
            .kv_uint("self_ns", t.self_ns)
            .end_object();
    }
    w.end_object().key("per_layer").begin_object();
    for (name, value) in metrics {
        w.kv_float(name, *value);
    }
    w.end_object().key("spans").begin_array();
    for (n, t) in i.traced.threads.iter().enumerate() {
        t.spans.write_kept(&mut w, n);
    }
    w.end_array().end_object();
    w.finish()
}
