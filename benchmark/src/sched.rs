//! Seeded Poisson arrival schedule for the open-loop workload.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Absolute arrival times (ns since the run's epoch) with exponential
/// gaps of mean `1 / rate_per_s`. The same seed yields the same times.
pub struct PoissonSchedule {
    rng: SmallRng,
    mean_gap_ns: f64,
    next_ns: f64,
}

impl PoissonSchedule {
    pub fn new(rate_per_s: f64, seed: u64) -> PoissonSchedule {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        let mut s = PoissonSchedule {
            rng: SmallRng::seed_from_u64(seed),
            mean_gap_ns: 1e9 / rate_per_s,
            next_ns: 0.0,
        };
        s.advance();
        s
    }

    fn advance(&mut self) {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1] so ln is finite.
        let u: f64 = self.rng.gen();
        self.next_ns += -(1.0 - u).ln() * self.mean_gap_ns;
    }

    /// The next arrival time; each call consumes one arrival.
    pub fn next_arrival_ns(&mut self) -> u64 {
        let t = self.next_ns as u64;
        self.advance();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(rate: f64, seed: u64, n: usize) -> Vec<u8> {
        let mut s = PoissonSchedule::new(rate, seed);
        (0..n)
            .flat_map(|_| s.next_arrival_ns().to_le_bytes())
            .collect()
    }

    #[test]
    fn schedule_is_byte_identical_per_seed_and_differs_across_seeds() {
        assert_eq!(bytes(6000.0, 1, 10_000), bytes(6000.0, 1, 10_000));
        assert_ne!(bytes(6000.0, 1, 10_000), bytes(6000.0, 2, 10_000));
    }

    #[test]
    fn schedule_is_monotone_with_the_requested_mean_rate() {
        let mut s = PoissonSchedule::new(5000.0, 42);
        let times: Vec<u64> = (0..100_000).map(|_| s.next_arrival_ns()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let rate = times.len() as f64 / (*times.last().unwrap() as f64 / 1e9);
        assert!((rate - 5000.0).abs() / 5000.0 < 0.02, "rate {rate}");
    }
}
