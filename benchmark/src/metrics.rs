//! The metric catalog: every name the benchmark reports, with unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` is this
//! file rendered (`sli-benchmark manifest`); a unit test keeps them equal.

use sli_traffic::json::JsonWriter;

use crate::workload::SPECS;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How much worse a metric may get before it is a regression.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Bound {
    /// A share of the baseline's value.
    Rel(f64),
    /// A difference in the metric's own unit: for fractions that sit at 0 or
    /// 1, where a share of the baseline means nothing.
    Abs(f64),
}

impl Bound {
    pub fn size(self) -> f64 {
        match self {
            Bound::Rel(b) | Bound::Abs(b) => b,
        }
    }

    /// What a difference from `baseline` is divided by before it is held
    /// against [`Bound::size`].
    pub fn scale(self, baseline: f64) -> f64 {
        match self {
            Bound::Rel(_) => baseline.abs(),
            Bound::Abs(_) => 1.0,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

use Better::{Higher, Lower};
use Bound::{Abs, Rel};

/// The issue's eight end-to-end metrics. The bounds of the timing metrics
/// cover the typical ten-seed spread of the noisiest workload plus the drift
/// of this host between sweeps; README.md has both, and why `setup_s` has
/// the largest.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: Rel(0.25),
    },
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: Higher,
        bound: Rel(0.20),
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Lower,
        bound: Rel(0.20),
    },
    EndToEnd {
        name: "lat_p95_us",
        unit: "us",
        better: Lower,
        bound: Rel(0.20),
    },
    EndToEnd {
        name: "within_limit_frac",
        unit: "fraction",
        better: Higher,
        bound: Abs(0.01),
    },
    EndToEnd {
        name: "fail_frac",
        unit: "fraction",
        better: Lower,
        bound: Abs(0.005),
    },
    EndToEnd {
        name: "cpu_us_per_txn",
        unit: "us",
        better: Lower,
        bound: Rel(0.20),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: Rel(0.15),
    },
];

impl EndToEnd {
    /// The metric as the benchmark driver sees it (`BENCHMARK.json` and the
    /// last line of a run): `(name, better, value)`, or `None` if the driver
    /// does not gate it.
    ///
    /// The driver knows only bounds that are a share of the baseline and
    /// wants metrics that are never 0, so `fail_frac`, which reads 0 on a
    /// healthy run, goes to it as its complement `success_frac`; next to 1 a
    /// share and a difference are the same size, so the two `Abs` bounds
    /// carry over as they are.
    ///
    /// `lat_p95_us` is demoted: by the issue's rule (`max(15 %, 2 x the
    /// ten-seed interquartile spread)`, demote above 20 %) it would need
    /// 20.2 % on `tpcc-open` (README.md). The driver gets it as a per-layer
    /// metric of the traced run; the tail stays gated through
    /// `within_limit_frac`.
    pub fn driver_view(&self, value: f64) -> Option<(&'static str, Better, f64)> {
        match self.name {
            "lat_p95_us" => None,
            "fail_frac" => Some(("success_frac", Higher, 1.0 - value)),
            name => Some((name, self.better, value)),
        }
    }
}

/// Per-layer metrics of the traced run: `(name, unit, better)`. The prefix
/// before the first dot is the crate the metric belongs to. A metric of a
/// layer the workload bypasses reads 0. `lat_p95_us` is the demoted
/// end-to-end metric, taken over the traced run's untraced phase.
pub const PER_LAYER: [(&str, &str, Better); 76] = [
    ("lat_p95_us", "us", Lower),
    ("core.lock_requests_per_txn", "count", Lower),
    ("core.cache_hit_frac", "fraction", Higher),
    ("core.fastpath_frac", "fraction", Higher),
    ("core.sli_inherited_per_txn", "count", Higher),
    ("core.sli_reclaim_frac", "fraction", Higher),
    ("core.sli_invalidated_per_txn", "count", Lower),
    ("core.blocks_per_ktxn", "count", Lower),
    ("core.deadlocks_per_ktxn", "count", Lower),
    ("core.acquire_release_ns", "ns", Lower),
    ("core.reacquire_cached_ns", "ns", Lower),
    ("core.est_ns_per_txn", "ns", Lower),
    ("core.sli_gain", "ratio", Higher),
    ("latch.parks_per_ktxn", "count", Lower),
    ("latch.spins_per_txn", "count", Lower),
    ("latch.acquire_ns", "ns", Lower),
    ("latch.handoff_ns", "ns", Lower),
    ("storage.heap_read_ns", "ns", Lower),
    ("storage.heap_update_ns", "ns", Lower),
    ("storage.hash_get_ns", "ns", Lower),
    ("storage.ordered_range_ns_per_row", "ns", Lower),
    ("storage.version_visible_ns", "ns", Lower),
    ("storage.pool_hit_frac", "fraction", Higher),
    ("storage.est_ns_per_txn", "ns", Lower),
    ("wal.appends_per_txn", "count", Lower),
    ("wal.bytes_per_txn", "count", Lower),
    ("wal.txn_per_flush", "count", Higher),
    ("wal.commit_parks_frac", "fraction", Lower),
    ("wal.inline_flush_frac", "fraction", Higher),
    ("wal.reserve_waits_per_ktxn", "count", Lower),
    ("wal.append_ns", "ns", Lower),
    ("wal.commit_ns", "ns", Lower),
    ("wal.est_ns_per_txn", "ns", Lower),
    ("mvcc.validation_aborts_per_ktxn", "count", Lower),
    ("mvcc.ww_conflicts_per_ktxn", "count", Lower),
    ("mvcc.read_waits_per_ktxn", "count", Lower),
    ("mvcc.pruned_over_installed", "fraction", Higher),
    ("mvcc.gc_runs_per_s", "1/s", Lower),
    ("mvcc.chain_count_end", "count", Lower),
    ("mvcc.read_ns", "ns", Lower),
    ("mvcc.write_install_ns", "ns", Lower),
    ("mvcc.validate_ns_per_read", "ns", Lower),
    ("mvcc.est_ns_per_txn", "ns", Lower),
    ("engine.empty_txn_ns.locked", "ns", Lower),
    ("engine.read_by_key_ns.locked", "ns", Lower),
    ("engine.update_by_key_ns.locked", "ns", Lower),
    ("engine.insert_ns.locked", "ns", Lower),
    ("engine.scan_ns_per_row.locked", "ns", Lower),
    ("engine.commit_tail_ns.locked", "ns", Lower),
    ("engine.empty_txn_ns.mvcc", "ns", Lower),
    ("engine.read_by_key_ns.mvcc", "ns", Lower),
    ("engine.update_by_key_ns.mvcc", "ns", Lower),
    ("engine.insert_ns.mvcc", "ns", Lower),
    ("engine.scan_ns_per_row.mvcc", "ns", Lower),
    ("engine.commit_tail_ns.mvcc", "ns", Lower),
    ("engine.recover_mb_per_s", "MB/s", Higher),
    ("engine.unattributed_frac", "fraction", Lower),
    ("traffic.queue_wait_p50_us", "us", Lower),
    ("traffic.queue_wait_p95_us", "us", Lower),
    ("traffic.depth_max", "count", Lower),
    ("traffic.shed_frac", "fraction", Lower),
    ("traffic.achieved_over_offered", "ratio", Higher),
    ("traffic.pacer_lag_p95_us", "us", Lower),
    ("traffic.push_pop_ns", "ns", Lower),
    ("workloads.accountUpdate.p50_us", "us", Lower),
    ("workloads.accountUpdate.p95_us", "us", Lower),
    ("workloads.branchAudit.p50_us", "us", Lower),
    ("workloads.branchAudit.p95_us", "us", Lower),
    ("workloads.Payment.p50_us", "us", Lower),
    ("workloads.Payment.p95_us", "us", Lower),
    ("workloads.NewOrder.p50_us", "us", Lower),
    ("workloads.NewOrder.p95_us", "us", Lower),
    ("workloads.OrderStatus.p50_us", "us", Lower),
    ("workloads.OrderStatus.p95_us", "us", Lower),
    ("profiler.enter_ns", "ns", Lower),
    ("bench.trace_overhead_frac", "fraction", Lower),
];

/// The catalog's `'static` spelling of a per-layer metric name built at
/// run time (`engine.<op>.<backend>`, `workloads.<txn>.<quantile>`).
pub fn per_layer_name(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|&(n, _, _)| n).find(|n| *n == name)
}

/// Measured seconds of one run (`--seconds` of the driver's command line).
/// The issue asks for 30 s; the driver's budget of 4 + 22 x 4 runs inside
/// 3420 s leaves room for 20.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, rendered from the catalog.
pub fn manifest() -> String {
    fn item(fields: &[(&str, &str)], bound: Option<f64>) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for (k, v) in fields {
            w.kv_str(k, v);
        }
        if let Some(b) = bound {
            w.kv_float("bound", b);
        }
        w.end_object();
        format!("    {}", w.finish())
    }
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| item(&[("name", s.name), ("why", s.why)], None))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .filter_map(|m| {
            let (name, better, _) = m.driver_view(0.0)?;
            Some(item(
                &[("name", name), ("unit", m.unit), ("better", better.name())],
                Some(m.bound.size()),
            ))
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            item(
                &[("name", name), ("unit", unit), ("better", better.name())],
                None,
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_rendered_catalog() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `sli-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_manifest_meets_the_drivers_limits() {
        let m = sli_traffic::json::parse(&manifest()).expect("manifest is JSON");
        assert!(manifest().len() <= 64 * 1024);
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for s in &SPECS {
            assert!(name_ok(s.name) && names.insert(s.name), "{}", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        for e in &END_TO_END {
            let Some((name, _, _)) = e.driver_view(0.0) else {
                continue;
            };
            assert!(
                name_ok(name) && unit_ok(e.unit) && names.insert(name),
                "{name}"
            );
            assert!(e.bound.size() > 0.0 && e.bound.size() <= 0.25);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(
                name_ok(name) && unit_ok(unit) && names.insert(name),
                "{name}"
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        let cmd = m.get("command").and_then(|c| c.as_arr());
        assert!(cmd.is_some_and(|c| c.len() <= 32));
    }
}
