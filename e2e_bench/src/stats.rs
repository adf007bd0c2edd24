//! Summary statistics and operation accounting.
//!
//! Timings are reported as a median plus the highest percentile that has
//! at least [`TAIL_MIN_BEYOND`] samples beyond it. A failed or refused
//! operation is recorded as an infinite latency, so it misses every
//! latency limit instead of silently dropping out of the sample.

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(p/100 · n)` (1-based). `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps float error (99.9 / 100 · 10⁴ = 9990.000…02) from
    // pushing an exact rank up by one.
    Some(((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n))
}

/// Median (nearest rank) of an unsorted sample; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 50.0)
}

/// The highest percentile at most `max_pct` that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value. `None` when the
/// sample is too small for even the median to qualify.
pub fn tail(samples: &[f64], max_pct: f64) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= max_pct)
        .find_map(|p| {
            let rank = nearest_rank(n, p)?;
            (n - rank >= TAIL_MIN_BEYOND).then(|| (p, sorted[rank - 1]))
        })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Mean of a sample; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Operations sent, succeeded and failed in one phase, plus their
/// latencies (milliseconds; `f64::INFINITY` for a failure).
#[derive(Debug, Clone, Default)]
pub struct Ops {
    /// Operations attempted.
    pub sent: u64,
    /// Operations that returned successfully.
    pub succeeded: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// One latency per attempted operation.
    pub latencies_ms: Vec<f64>,
}

impl Ops {
    /// Accounts one operation that took `ms` and ended in `result`.
    pub fn record<T, E>(&mut self, result: &Result<T, E>, ms: f64) {
        self.sent += 1;
        if result.is_ok() {
            self.succeeded += 1;
            self.latencies_ms.push(ms);
        } else {
            self.failed += 1;
            self.latencies_ms.push(f64::INFINITY);
        }
    }

    /// Folds another phase's operations into this one.
    pub fn absorb(&mut self, other: &Ops) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.latencies_ms.extend_from_slice(&other.latencies_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_p99_only_with_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly 10 beyond it.
        assert_eq!(tail(&ramp(1000), 99.0), Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9 beyond, so the helper steps down.
        assert_eq!(tail(&ramp(999), 99.0), Some((98.0, 980.0)));
        // 10_000 samples support p99.9, but the cap keeps it at p99.
        assert_eq!(tail(&ramp(10_000), 99.0), Some((99.0, 9900.0)));
        assert_eq!(tail(&ramp(10_000), 100.0), Some((99.9, 9990.0)));
    }

    #[test]
    fn tail_falls_back_to_median_and_then_gives_up() {
        assert_eq!(tail(&ramp(20), 99.0), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut shuffled = ramp(1000);
        shuffled.reverse();
        assert_eq!(tail(&shuffled, 99.0), Some((99.0, 990.0)));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn refused_ops_count_as_failed_and_miss_every_limit() {
        use duo_serve::ServeError;
        let mut ops = Ops::default();
        ops.record(&Ok::<(), ServeError>(()), 2.0);
        ops.record(&Err::<(), _>(ServeError::Overloaded { queue_cap: 64 }), 0.1);
        assert_eq!((ops.sent, ops.succeeded, ops.failed), (2, 1, 1));
        // The refusal took 0.1 ms but counts as infinitely late.
        assert_eq!(ops.latencies_ms[1], f64::INFINITY);
        assert_eq!(
            percentile(&sorted(&ops.latencies_ms), 100.0),
            Some(f64::INFINITY)
        );
    }
}
