//! Summary statistics over repeated trials.

use serde::{Deserialize, Serialize};

/// Streaming summary of a sample: count, mean, variance (Welford), extremes.
///
/// # Example
///
/// ```
/// use geogossip_analysis::Summary;
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.std_dev() - 2.138089935299395).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN (a NaN observation would silently poison every
    /// downstream statistic).
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "summary observations must not be NaN");
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean (0 for an empty summary). An infinite observation makes
    /// the mean infinite, as a plain sum would (NaN if both signs occur);
    /// Welford's update alone reads `∞ − ∞ = NaN` once a finite observation
    /// follows an infinite one.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else if self.min.is_infinite() || self.max.is_infinite() {
            // Every observation lies in [min, max], so the sum is infinite,
            // with the sign(s) of min + max.
            self.min + self.max
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+∞` for an empty summary).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` for an empty summary).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Normal-approximation confidence interval around the mean at the given
    /// z-score (1.96 ≈ 95%).
    pub fn confidence_interval(&self, z: f64) -> ConfidenceInterval {
        let half = z * self.standard_error();
        ConfidenceInterval {
            lower: self.mean() - half,
            upper: self.mean() + half,
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

/// A symmetric confidence interval around a mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Lower end of the interval.
    pub lower: f64,
    /// Upper end of the interval.
    pub upper: f64,
}

impl ConfidenceInterval {
    /// Whether `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }

    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample by linear interpolation between
/// order statistics. Returns `None` for an empty sample.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or the data contains NaN.
///
/// # Example
///
/// ```
/// use geogossip_analysis::stats::quantile;
/// let data = vec![1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&data, 0.5), Some(2.5));
/// assert_eq!(quantile(&data, 1.0), Some(4.0));
/// ```
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if data.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("quantile data must not contain NaN")
    });
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median of a sample (`None` for an empty sample).
pub fn median(data: &[f64]) -> Option<f64> {
    quantile(data, 0.5)
}

/// Streaming quantile estimator (the P² algorithm of Jain & Chlamtac, 1985).
///
/// Tracks a single `q`-quantile in `O(1)` memory: five markers whose heights
/// are nudged toward their ideal positions with a piecewise-parabolic update
/// on every observation. The sweep lab uses it for per-cell medians and p95s
/// over trials without buffering whole sweeps.
///
/// Up to five observations the estimate is **exact** (the observations are
/// simply kept and interpolated like [`quantile`]); beyond that it is an
/// approximation whose error vanishes as the sample grows.
///
/// # Example
///
/// ```
/// use geogossip_analysis::stats::P2Quantile;
/// let mut med = P2Quantile::new(0.5);
/// for v in [5.0, 1.0, 3.0] {
///     med.push(v);
/// }
/// assert_eq!(med.value(), Some(3.0)); // exact while the sample is small
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct P2Quantile {
    q: f64,
    count: u64,
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    initial: [f64; 5],
}

impl P2Quantile {
    /// Creates an estimator for the `q`-quantile.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1` (the extremes are tracked exactly by
    /// [`Summary::min`]/[`Summary::max`]; P² needs an interior quantile).
    pub fn new(q: f64) -> Self {
        assert!(
            q > 0.0 && q < 1.0,
            "P² tracks interior quantiles (0 < q < 1), got {q}"
        );
        P2Quantile {
            q,
            count: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            initial: [0.0; 5],
        }
    }

    /// The quantile this estimator tracks.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "quantile observations must not be NaN");
        if self.count < 5 {
            self.initial[self.count as usize] = value;
            self.count += 1;
            if self.count == 5 {
                let mut sorted = self.initial;
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected above"));
                self.heights = sorted;
            }
            return;
        }
        self.count += 1;

        // Locate the cell of the new observation, absorbing it into the
        // extreme markers when it falls outside the current range.
        let k = if value < self.heights[0] {
            self.heights[0] = value;
            0
        } else if value >= self.heights[4] {
            self.heights[4] = value;
            3
        } else {
            // heights[k] <= value < heights[k+1] for some k in 0..=3.
            (0..4)
                .rev()
                .find(|&i| self.heights[i] <= value)
                .expect("value is within [heights[0], heights[4])")
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Nudge the three interior markers toward their desired positions.
        for i in 1..4 {
            let gap = self.desired[i] - self.positions[i];
            let room_right = self.positions[i + 1] - self.positions[i] > 1.0;
            let room_left = self.positions[i - 1] - self.positions[i] < -1.0;
            if (gap >= 1.0 && room_right) || (gap <= -1.0 && room_left) {
                let d = gap.signum();
                let parabolic = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    /// The piecewise-parabolic (P²) height update for marker `i` moved by
    /// `d ∈ {−1, +1}`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.heights, &self.positions);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// The linear fallback height update when the parabola would leave the
    /// bracket.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.heights, &self.positions);
        let j = (i as f64 + d) as usize;
        q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
    }

    /// The current estimate, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count <= 5 {
            return quantile(&self.initial[..self.count as usize], self.q);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.standard_error(), 0.0);
    }

    #[test]
    fn summary_matches_textbook_values() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0, 5.0].iter().copied().collect();
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.variance() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn confidence_interval_contains_true_mean_of_constant_data() {
        let s: Summary = std::iter::repeat_n(7.0, 50).collect();
        let ci = s.confidence_interval(1.96);
        assert!(ci.contains(7.0));
        assert!(ci.width() < 1e-12);
    }

    #[test]
    fn an_infinite_observation_makes_the_mean_infinite() {
        for values in [[f64::INFINITY, 0.01], [0.01, f64::INFINITY]] {
            let s: Summary = values.iter().copied().collect();
            assert_eq!(s.mean(), f64::INFINITY, "{values:?}");
        }
        let s: Summary = [f64::NEG_INFINITY, 1.0].iter().copied().collect();
        assert_eq!(s.mean(), f64::NEG_INFINITY);
        let s: Summary = [f64::INFINITY, f64::NEG_INFINITY].iter().copied().collect();
        assert!(s.mean().is_nan());
    }

    #[test]
    fn extend_accumulates() {
        let mut s = Summary::new();
        s.extend([1.0, 3.0]);
        s.extend([5.0]);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let data = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&data, 0.0), Some(10.0));
        assert_eq!(quantile(&data, 0.25), Some(20.0));
        assert_eq!(median(&data), Some(30.0));
        assert_eq!(quantile(&data, 1.0), Some(50.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        let data = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&data), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_observations_rejected() {
        let mut s = Summary::new();
        s.push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_range_checked() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn p2_is_exact_on_small_inputs() {
        // Up to five observations the estimator keeps the sample and must
        // agree bit-for-bit with the exact interpolated quantile.
        let data = [7.0, 2.0, 9.0, 4.0, 5.5];
        for &q in &[0.25, 0.5, 0.9, 0.95] {
            let mut est = P2Quantile::new(q);
            assert_eq!(est.value(), None);
            for (i, &v) in data.iter().enumerate() {
                est.push(v);
                let exact = quantile(&data[..=i], q).unwrap();
                assert_eq!(
                    est.value(),
                    Some(exact),
                    "q={q} after {} observations",
                    i + 1
                );
            }
            assert_eq!(est.count(), 5);
            assert_eq!(est.quantile(), q);
        }
    }

    #[test]
    fn p2_median_tracks_exact_median_on_uniform_stream() {
        // Deterministic low-discrepancy stream in (0, 1): the true median is
        // 0.5 and P² must land close to the exact sample median.
        let mut est = P2Quantile::new(0.5);
        let mut data = Vec::new();
        let mut x = 0.0f64;
        for _ in 0..500 {
            x = (x + 0.618_033_988_749_895) % 1.0;
            est.push(x);
            data.push(x);
        }
        let exact = median(&data).unwrap();
        let approx = est.value().unwrap();
        assert!(
            (approx - exact).abs() < 0.02,
            "P² median {approx} vs exact {exact}"
        );
    }

    #[test]
    fn p2_p95_tracks_exact_p95() {
        // A skewed deterministic stream (squares of a low-discrepancy
        // sequence) exercises the parabolic and linear update paths.
        let mut est = P2Quantile::new(0.95);
        let mut data = Vec::new();
        let mut x = 0.0f64;
        for _ in 0..2000 {
            x = (x + 0.618_033_988_749_895) % 1.0;
            let v = x * x * 100.0;
            est.push(v);
            data.push(v);
        }
        let exact = quantile(&data, 0.95).unwrap();
        let approx = est.value().unwrap();
        assert!(
            (approx - exact).abs() / exact < 0.05,
            "P² p95 {approx} vs exact {exact}"
        );
    }

    #[test]
    fn p2_handles_sorted_and_constant_streams() {
        let mut up = P2Quantile::new(0.5);
        for i in 0..100 {
            up.push(i as f64);
        }
        let v = up.value().unwrap();
        assert!((v - 49.5).abs() < 3.0, "sorted-stream median drifted: {v}");

        let mut flat = P2Quantile::new(0.9);
        for _ in 0..50 {
            flat.push(4.25);
        }
        assert_eq!(flat.value(), Some(4.25));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn p2_rejects_nan() {
        P2Quantile::new(0.5).push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "interior quantiles")]
    fn p2_rejects_extreme_quantiles() {
        let _ = P2Quantile::new(1.0);
    }
}
