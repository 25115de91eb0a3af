//! Benchmark-owned log-linear latency histogram.
//!
//! Values below 2^SUB_BITS are counted exactly; above that every octave
//! is split into 2^SUB_BITS equal buckets, so a bucket is at most 1/128
//! of its lower bound wide and reporting its midpoint is off by at most
//! 0.4 % — inside the 1 % the benchmark promises (`sli_traffic::Hist`
//! is 3.1 % and is deliberately not reused).

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped to 2^MAX_EXP ns (~73 min), which bounds the table.
const MAX_EXP: u32 = 42;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS) as usize + 1) << SUB_BITS;

/// Counts of nanosecond samples in log-linear buckets.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn index_of(v: u64) -> usize {
    let v = v.min((1 << MAX_EXP) - 1);
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = e - SUB_BITS;
    let octave = (shift + 1) as usize;
    (octave << SUB_BITS) + ((v >> shift) - SUB) as usize
}

/// Midpoint of bucket `idx`.
fn value_of(idx: usize) -> f64 {
    if idx < SUB as usize {
        return idx as f64;
    }
    let shift = (idx >> SUB_BITS) as u32 - 1;
    let lo = (SUB + (idx as u64 & (SUB - 1))) << shift;
    lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index_of(ns)] += 1;
        self.n += 1;
        self.sum += ns;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile in ns (nearest-rank over bucket midpoints); 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return value_of(idx);
            }
        }
        unreachable!("rank <= n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn buckets_round_trip_within_one_percent() {
        for v in
            (0..4096u64).chain((12..MAX_EXP).flat_map(|e| [1 << e, (1 << e) + 12345, (3 << e) / 2]))
        {
            let mid = value_of(index_of(v));
            let err = (mid - v as f64).abs() / (v.max(1) as f64);
            assert!(err <= 0.01, "v={v} mid={mid} err={err}");
        }
        assert!(index_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_match_sorted_samples_within_one_percent() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut h = Hist::new();
        // Log-uniform over 100 ns .. 100 ms: the range transaction
        // latencies actually span.
        let mut samples: Vec<u64> = (0..200_000)
            .map(|_| (100.0 * 10f64.powf(rng.gen::<f64>() * 6.0)) as u64)
            .collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let exact = samples[((q * samples.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact <= 0.01,
                "q={q} exact={exact} got={got}"
            );
        }
        assert_eq!(h.len(), 200_000);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::new(), Hist::new());
        a.record(1_000);
        b.record(3_000);
        b.record(5_000);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert!((a.quantile(0.5) - 3_000.0).abs() / 3_000.0 <= 0.01);
        assert!((a.mean() - 3_000.0).abs() < 1.0);
    }
}
