//! Order statistics for timing samples: medians, quartiles (the same
//! definition as Python's `statistics.quantiles(values, n=4)`, so the
//! benchmark's own spread check agrees with the driver's), nearest-rank
//! percentiles, and the rule for which percentile a sample count supports.

/// Sorts samples ascending. Timing samples are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// The median of `values` (mean of the two middle samples for even counts).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The three quartile cut points of `values`, by the exclusive method
/// (`statistics.quantiles(values, n=4)`): with `m = n + 1`, cut `i` sits at
/// position `i * m / 4` and interpolates linearly between its neighbours.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        cuts[slot] = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread the acceptance rule bounds.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// One-based nearest rank of the `q` percentile among `count` samples. The
/// small epsilon keeps products such as `0.95 * 200` from rounding up a rank
/// through floating-point error.
fn nearest_rank(count: usize, q: f64) -> usize {
    ((q * count as f64 - 1e-9).ceil() as usize).clamp(1, count.max(1))
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Number of samples strictly beyond the nearest-rank `q` percentile.
pub fn samples_beyond(count: usize, q: f64) -> usize {
    count.saturating_sub(nearest_rank(count, q))
}

/// The highest of the reportable percentiles (p50, p90, p95, p99, p99.9)
/// that still has at least `min_beyond` samples beyond it — a tail
/// percentile read off fewer samples than that is one or two outliers, not
/// a property of the system. `None` when even the median is that thin.
pub fn highest_supported_percentile(count: usize, min_beyond: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.50]
        .into_iter()
        .find(|&q| count > 0 && samples_beyond(count, q) >= min_beyond)
}

/// One closed-loop round trip: when the request was sent (seconds since the
/// connection's timed region began) and how long the reply took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTrip {
    /// Send time, seconds since the timed region began.
    pub sent_s: f64,
    /// Request sent to reply read, milliseconds.
    pub latency_ms: f64,
}

/// What one connection's closed loop looked like at its median pace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pace {
    /// Replies per second.
    pub rate_per_s: f64,
    /// Median round trip, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile round trip, milliseconds.
    pub p95_ms: f64,
}

/// Summarises closed-loop connections chunk by chunk: each connection's
/// round trips (in send order) are cut into `chunks` runs of equal count,
/// each run yields its reply rate, p50 and p95, and the result is the median
/// of each over all runs of all connections. A run is the serving workloads'
/// "repetition": on a box whose speed drifts for seconds at a time, the
/// median run describes the system, where a percentile over all samples
/// describes the worst stretch. `rate_per_s` is per connection.
pub fn median_pace(connections: &[&[RoundTrip]], chunks: usize) -> Pace {
    let (mut rates, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
    for samples in connections {
        assert!(
            chunks >= 1 && samples.len() >= chunks,
            "too few samples to chunk"
        );
        for chunk in samples.chunks_exact(samples.len() / chunks).take(chunks) {
            let first = chunk.first().expect("chunks are non-empty");
            let last = chunk.last().expect("chunks are non-empty");
            let duration_s = last.sent_s + last.latency_ms / 1e3 - first.sent_s;
            rates.push(chunk.len() as f64 / duration_s);
            let mut latencies: Vec<f64> = chunk.iter().map(|s| s.latency_ms).collect();
            sort(&mut latencies);
            p50s.push(percentile(&latencies, 0.50));
            p95s.push(percentile(&latencies, 0.95));
        }
    }
    Pace {
        rate_per_s: median(&rates),
        p50_ms: median(&p50s),
        p95_ms: median(&p95s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_pace_ignores_a_slow_stretch() {
        // Three chunks of four back-to-back 1 ms round trips; the middle
        // chunk runs ten times slower.
        let mut samples = Vec::new();
        let mut clock = 0.0;
        for chunk in 0..3 {
            let latency_ms = if chunk == 1 { 10.0 } else { 1.0 };
            for _ in 0..4 {
                samples.push(RoundTrip {
                    sent_s: clock,
                    latency_ms,
                });
                clock += latency_ms / 1e3;
            }
        }
        let pace = median_pace(&[&samples], 3);
        assert!((pace.rate_per_s - 1000.0).abs() < 1e-6);
        assert_eq!((pace.p50_ms, pace.p95_ms), (1.0, 1.0));
        // One chunk over everything sees the slow stretch.
        let whole = median_pace(&[&samples], 1);
        // Two connections pool their chunks.
        assert_eq!(median_pace(&[&samples, &samples], 3), pace);
        assert!((whole.rate_per_s - 250.0).abs() < 1e-6);
        assert_eq!(whole.p95_ms, 10.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // Two samples extrapolate past both ends, as Python does:
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.50), 50.0);
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&[42.0], 0.95), 42.0);
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(16_000, 0.95), 800);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        // 100 samples: 5 beyond p95, 10 beyond p90.
        assert_eq!(highest_supported_percentile(100, 10), Some(0.90));
        // 200 samples: exactly 10 beyond p95, 2 beyond p99.
        assert_eq!(highest_supported_percentile(200, 10), Some(0.95));
        // 1,000 samples: exactly 10 beyond p99, 1 beyond p99.9.
        assert_eq!(highest_supported_percentile(1_000, 10), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000, 10), Some(0.999));
        // 20 samples leave ten beyond the median and nothing higher.
        assert_eq!(highest_supported_percentile(20, 10), Some(0.50));
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(highest_supported_percentile(0, 10), None);
    }
}
