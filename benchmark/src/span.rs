//! In-memory spans recorded by the benchmark around its calls into the
//! engine (in-program tracing is a later issue).
//!
//! Every transaction of a traced window is one root span `txn` with the
//! children `traffic.queue_wait` (open loop only) and `workloads.run_one`.
//! Per-name totals are kept for all of them; the raw spans of the first
//! [`KEEP_TXNS`] transactions per thread are kept for the trace file.

use std::collections::BTreeMap;

use sli_traffic::json::JsonWriter;

pub const ROOT: &str = "txn";
pub const QUEUE_WAIT: &str = "traffic.queue_wait";
pub const RUN_ONE: &str = "workloads.run_one";

/// Raw spans are kept for this many transactions per thread; at TM1 speeds
/// keeping all of them would cost hundreds of MiB.
const KEEP_TXNS: usize = 2_000;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Spans of one transaction share this.
    pub txn: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Length of the part of `[start, end)` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut total, mut cursor) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its child spans cover (overlapping children count
/// once, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let cov = kids
                .get_mut(&s.id)
                .map_or(0, |k| covered(s.start_ns, s.end_ns, k));
            dur - cov
        })
        .collect()
}

#[derive(Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One thread's span recorder.
#[derive(Default)]
pub struct SpanLog {
    kept: Vec<Span>,
    kept_txns: usize,
    totals: BTreeMap<&'static str, NameTotals>,
}

impl SpanLog {
    /// Record one transaction: the root `[start, end)` and its children.
    pub fn txn(&mut self, txn: u64, start: u64, end: u64, children: &[(&'static str, u64, u64)]) {
        let mut ivals = [(0u64, 0u64); 2];
        let ivals = &mut ivals[..children.len()];
        for (slot, &(name, s, e)) in ivals.iter_mut().zip(children) {
            *slot = (s, e);
            let t = self.totals.entry(name).or_default();
            t.count += 1;
            t.total_ns += e - s;
            t.self_ns += e - s; // leaves: no children of their own
        }
        let root = self.totals.entry(ROOT).or_default();
        root.count += 1;
        root.total_ns += end - start;
        root.self_ns += (end - start) - covered(start, end, ivals);
        if self.kept_txns < KEEP_TXNS {
            self.kept_txns += 1;
            let id = self.kept.len() as u32;
            self.kept.push(Span {
                id,
                parent: NO_PARENT,
                name: ROOT,
                txn,
                start_ns: start,
                end_ns: end,
            });
            for (i, &(name, s, e)) in children.iter().enumerate() {
                self.kept.push(Span {
                    id: id + 1 + i as u32,
                    parent: id,
                    name,
                    txn,
                    start_ns: s,
                    end_ns: e,
                });
            }
        }
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, NameTotals> {
        &self.totals
    }

    /// Write the kept raw spans as JSON objects (`thread` tags their
    /// origin; span ids are per thread; a root span has no `parent`).
    pub fn write_kept(&self, w: &mut JsonWriter, thread: usize) {
        for (s, self_ns) in self.kept.iter().zip(self_times(&self.kept)) {
            w.begin_object()
                .kv_uint("thread", thread as u64)
                .kv_uint("id", u64::from(s.id));
            if s.parent != NO_PARENT {
                w.kv_uint("parent", u64::from(s.parent));
            }
            w.kv_str("name", s.name)
                .kv_uint("txn", s.txn)
                .kv_uint("start_ns", s.start_ns)
                .kv_uint("end_ns", s.end_ns)
                .kv_uint("self_ns", self_ns)
                .end_object();
        }
    }
}

/// Sum per-name totals over threads.
pub fn merge_totals<'a>(
    logs: impl Iterator<Item = &'a SpanLog>,
) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for log in logs {
        for (name, t) in log.totals() {
            let o = out.entry(name).or_default();
            o.count += t.count;
            o.total_ns += t.total_ns;
            o.self_ns += t.self_ns;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            txn: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 30, 60),  // overlaps span 1: 10..60 counts once
            span(3, 0, 90, 130), // clipped to the parent's end
            span(4, 2, 35, 45),
        ];
        // root: 100 - (50 + 10); span 2: 30 - 10; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![40, 30, 20, 40, 10]);
    }

    #[test]
    fn log_totals_agree_with_self_times_of_the_kept_spans() {
        let mut log = SpanLog::default();
        log.txn(1, 0, 100, &[(QUEUE_WAIT, 0, 30), (RUN_ONE, 30, 95)]);
        log.txn(2, 200, 260, &[(RUN_ONE, 210, 260)]);
        let t = log.totals();
        assert_eq!(t[ROOT].count, 2);
        assert_eq!(t[ROOT].total_ns, 160);
        assert_eq!(t[ROOT].self_ns, 5 + 10);
        assert_eq!(t[RUN_ONE].total_ns, 65 + 50);
        assert_eq!(t[QUEUE_WAIT].self_ns, 30);
        let selfs = self_times(&log.kept);
        let root_self: u64 = log
            .kept
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == ROOT)
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(root_self, t[ROOT].self_ns);
        let mut w = JsonWriter::new();
        w.begin_array();
        log.write_kept(&mut w, 0);
        w.end_array();
        let spans = sli_traffic::json::parse(&w.finish()).expect("spans are JSON");
        assert_eq!(spans.as_arr().map(<[_]>::len), Some(5));
    }
}
