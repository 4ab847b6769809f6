//! Sensor value vectors and error metrics.
//!
//! A gossip protocol's entire job is to move the value vector `x(t)` towards
//! the constant vector `x̄·1` while conserving the sum. [`GossipState`] holds
//! the vector together with the quantities needed to measure progress:
//! the initial deviation norm `‖x(0) − x̄·1‖` and the (invariant) mean.
//! [`InitialCondition`] generates the initial vectors used across the
//! experiments.

use serde::{Deserialize, Serialize};

/// Initial value assignments used by the experiments.
///
/// The definition moved to [`geogossip_sim::field`] with the scenario API so
/// the runner can materialise fields below the protocol layer; this re-export
/// keeps the historical `geogossip_core::state::InitialCondition` path
/// working.
pub use geogossip_sim::field::InitialCondition;

/// The values held by all sensors, plus the bookkeeping needed to measure
/// convergence.
///
/// The *relative error* tracked throughout the workspace is
/// `‖x(t) − x̄·1‖₂ / ‖x(0) − x̄·1‖₂`, i.e. the paper's `‖x(t)‖/‖x(0)‖` after the
/// usual centering (the paper assumes `∑x_i = 0` w.l.o.g.; centering performs
/// that reduction explicitly).
///
/// # Incremental error tracking
///
/// The centered squared norm `Σ (x_i − x̄)²` is maintained **incrementally**:
/// every [`GossipState::set`] folds `new² − old²` (in centered coordinates)
/// into a cached accumulator, so [`GossipState::deviation`] and
/// [`GossipState::relative_error`] are `O(1)` and the simulation engine can
/// check convergence on every tick instead of every `n` ticks. Floating-point
/// drift is bounded by exact recomputation: alongside the accumulator the
/// state tracks a running bound on the rounding error absorbed so far, and
/// recomputes the norm from scratch whenever the cached value is no longer
/// guaranteed accurate to ~`1e-10` relative (and unconditionally every
/// `REFRESH_EVERY` updates). Because each exact recomputation resets the drift
/// bound, recomputations are logarithmically rare along a converging
/// trajectory and the amortised cost per update stays `O(1)`.
///
/// # Example
///
/// ```
/// use geogossip_core::GossipState;
/// let mut s = GossipState::new(vec![1.0, 0.0, 0.0, 0.0]);
/// assert!((s.mean() - 0.25).abs() < 1e-12);
/// assert!((s.relative_error() - 1.0).abs() < 1e-12);
/// // Perfectly averaging every entry drives the error to zero.
/// for i in 0..4 { s.set(i, 0.25); }
/// assert!(s.relative_error() < 1e-12);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GossipState {
    values: Vec<f64>,
    mean: f64,
    initial_deviation: f64,
    /// Cached `Σ (x_i − x̄)²`, updated incrementally by [`GossipState::set`].
    sum_sq: std::cell::Cell<f64>,
    /// Running upper bound on the rounding error accumulated in `sum_sq`
    /// since the last exact recomputation.
    drift_bound: std::cell::Cell<f64>,
    /// Set when the periodic refresh trips: the cache is rebuilt exactly
    /// before the next read.
    stale: std::cell::Cell<bool>,
    /// Incremental updates applied since the last exact recomputation.
    updates_since_refresh: std::cell::Cell<u32>,
}

/// Exact recomputation is forced after this many incremental updates even if
/// the drift bound still looks safe (belt-and-braces against pathological
/// cancellation the bound model misses).
const REFRESH_EVERY: u32 = 1 << 20;

/// The cached squared norm is recomputed once it is within this factor of the
/// accumulated drift bound, i.e. whenever its guaranteed relative accuracy
/// degrades past ~1e-10. Each recomputation resets the bound, so refreshes
/// are rare (the norm must shrink ten orders of magnitude to trigger again).
const DRIFT_GUARD: f64 = 1e10;

impl GossipState {
    /// Wraps an initial value vector.
    ///
    /// An all-equal (or empty) initial vector has zero deviation; its relative
    /// error is defined as 0 so already-converged states report convergence.
    pub fn new(values: Vec<f64>) -> Self {
        let n = values.len();
        let mean = if n == 0 {
            0.0
        } else {
            values.iter().sum::<f64>() / n as f64
        };
        let sum_sq = centered_sum_sq(&values, mean);
        GossipState {
            initial_deviation: sum_sq.sqrt(),
            values,
            mean,
            sum_sq: std::cell::Cell::new(sum_sq),
            drift_bound: std::cell::Cell::new(f64::EPSILON * sum_sq),
            stale: std::cell::Cell::new(false),
            updates_since_refresh: std::cell::Cell::new(0),
        }
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the state holds no sensors.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The current value vector.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value held by sensor `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Overwrites the value held by sensor `i`, folding the change into the
    /// incrementally maintained centered squared norm in `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, value: f64) {
        let old = self.values[i];
        self.values[i] = value;
        if self.stale.get() {
            return;
        }
        let old_c = old - self.mean;
        let new_c = value - self.mean;
        let old_sq = old_c * old_c;
        let new_sq = new_c * new_c;
        let sum = self.sum_sq.get() + (new_sq - old_sq);
        self.sum_sq.set(sum);
        // Each of the two squarings, the subtraction, and the accumulation
        // contributes at most one ulp of its operand's magnitude.
        self.drift_bound
            .set(self.drift_bound.get() + f64::EPSILON * (new_sq + old_sq + sum.abs()));
        let updates = self.updates_since_refresh.get() + 1;
        self.updates_since_refresh.set(updates);
        if updates >= REFRESH_EVERY {
            self.stale.set(true);
        }
    }

    /// The average of the initial values (which every sensor should converge
    /// to). The mean is fixed at construction time: protocols are expected to
    /// conserve it, and [`GossipState::mass_drift`] measures how well they did.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// `‖x(0) − x̄·1‖₂`, the denominator of the relative error.
    pub fn initial_deviation(&self) -> f64 {
        self.initial_deviation
    }

    /// `‖x(t) − x̄·1‖₂` for the current values.
    ///
    /// `O(1)`: reads the incrementally maintained squared norm, recomputing it
    /// exactly first when the cache is stale or its drift bound says the
    /// cached value may have lost more than ~10 digits (see the type-level
    /// docs).
    pub fn deviation(&self) -> f64 {
        self.deviation_sq().sqrt()
    }

    /// `Σ (x_i − x̄)²` — the centered **squared** norm `‖x(t) − x̄·1‖₂²`,
    /// without the final square root.
    ///
    /// Applies exactly the same stale/drift refresh discipline as
    /// [`GossipState::deviation`] (of which it is the pre-sqrt value), so the
    /// engine's squared-domain stop check observes the identical cache
    /// trajectory as the sqrt-based path and per-tick convergence checks cost
    /// no sqrt at all.
    ///
    /// A NaN norm (a value that is NaN, or an overflow that left `∞ − ∞` in
    /// the cache) reads `+∞`, so a run that blew up never counts as
    /// converged.
    pub fn deviation_sq(&self) -> f64 {
        let sum = self.sum_sq.get();
        if self.stale.get() || sum < self.drift_bound.get() * DRIFT_GUARD {
            self.refresh_deviation();
        }
        let sum = self.sum_sq.get();
        if sum.is_nan() {
            f64::INFINITY
        } else {
            sum.max(0.0)
        }
    }

    /// Recomputes the cached centered squared norm from scratch and resets the
    /// drift bookkeeping.
    fn refresh_deviation(&self) {
        let sum = centered_sum_sq(&self.values, self.mean);
        self.sum_sq.set(sum);
        self.drift_bound.set(f64::EPSILON * sum);
        self.stale.set(false);
        self.updates_since_refresh.set(0);
    }

    /// The relative ℓ₂ error `‖x(t) − x̄·1‖ / ‖x(0) − x̄·1‖`.
    ///
    /// States that started with zero deviation report 0.
    pub fn relative_error(&self) -> f64 {
        if self.initial_deviation == 0.0 {
            0.0
        } else {
            self.deviation() / self.initial_deviation
        }
    }

    /// Absolute drift of the value sum relative to the initial sum, normalised
    /// by `n`: `|mean(x(t)) − mean(x(0))|`.
    ///
    /// Exact conservation gives 0; floating-point rounding gives values on the
    /// order of machine epsilon. Affine updates *do* conserve the sum
    /// analytically, and tests use this to confirm the implementation does
    /// too.
    pub fn mass_drift(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let current = self.values.iter().sum::<f64>() / self.values.len() as f64;
        (current - self.mean).abs()
    }

    /// Maximum absolute deviation of any single sensor from the target mean.
    pub fn max_deviation(&self) -> f64 {
        self.values
            .iter()
            .map(|v| (v - self.mean).abs())
            .fold(0.0, f64::max)
    }
}

/// Semantic equality: two states are equal when their observable content
/// (values, mean, initial deviation) matches; cache bookkeeping is excluded.
impl PartialEq for GossipState {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
            && self.mean == other.mean
            && self.initial_deviation == other.initial_deviation
    }
}

/// `Σ (x_i − m)²` — the exact centered squared norm.
fn centered_sum_sq(values: &[f64], m: f64) -> f64 {
    values
        .iter()
        .map(|v| {
            let d = v - m;
            d * d
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn spike_initial_condition() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let v = InitialCondition::Spike.generate(5, &mut rng);
        assert_eq!(v, vec![1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn ramp_is_monotone_and_normalised() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let v = InitialCondition::Ramp.generate(11, &mut rng);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[10], 1.0);
        assert!(v.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn bimodal_sums_to_zero_for_even_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let v = InitialCondition::Bimodal.generate(10, &mut rng);
        assert_eq!(v.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn uniform_values_are_in_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let v = InitialCondition::Uniform.generate(100, &mut rng);
        assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn degenerate_sizes_are_handled() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for cond in InitialCondition::all() {
            assert!(cond.generate(0, &mut rng).is_empty());
            assert_eq!(cond.generate(1, &mut rng).len(), 1);
        }
    }

    #[test]
    fn relative_error_starts_at_one_and_reaches_zero() {
        let mut s = GossipState::new(vec![2.0, 0.0]);
        assert!((s.relative_error() - 1.0).abs() < 1e-12);
        s.set(0, 1.0);
        s.set(1, 1.0);
        assert!(s.relative_error() < 1e-12);
        assert!(s.mass_drift() < 1e-12);
    }

    #[test]
    fn constant_vector_reports_zero_error() {
        let s = GossipState::new(vec![3.5; 8]);
        assert_eq!(s.relative_error(), 0.0);
        assert_eq!(s.deviation(), 0.0);
        assert_eq!(s.deviation_sq(), 0.0);
    }

    #[test]
    fn deviation_is_the_square_root_of_deviation_sq() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut s = GossipState::new(InitialCondition::Uniform.generate(64, &mut rng));
        for step in 0..5_000u32 {
            let i = rng.gen_range(0..64usize);
            let j = (i + 1 + rng.gen_range(0..63usize)) % 64;
            let (a, b) = crate::update::convex_average(s.value(i), s.value(j));
            s.set(i, a);
            s.set(j, b);
            if step % 500 == 0 {
                assert_eq!(s.deviation().to_bits(), s.deviation_sq().sqrt().to_bits());
            }
        }
    }

    #[test]
    fn empty_state_is_converged() {
        let s = GossipState::new(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.relative_error(), 0.0);
        assert_eq!(s.mass_drift(), 0.0);
    }

    #[test]
    fn mass_drift_detects_violations() {
        let mut s = GossipState::new(vec![1.0, 0.0]);
        s.set(0, 5.0); // breaks conservation
        assert!(s.mass_drift() > 1.0);
    }

    #[test]
    fn max_deviation_tracks_worst_sensor() {
        let s = GossipState::new(vec![0.0, 0.0, 4.0, 0.0]);
        assert!((s.max_deviation() - 3.0).abs() < 1e-12);
    }

    /// The exact centered norm of the current values, bypassing the cache.
    fn exact_relative_error(s: &GossipState) -> f64 {
        let dev = centered_sum_sq(s.values(), s.mean()).sqrt();
        if s.initial_deviation() == 0.0 {
            0.0
        } else {
            dev / s.initial_deviation()
        }
    }

    #[test]
    fn incremental_error_matches_recomputation_over_1e5_exchanges() {
        // 10^5 random pairwise exchanges (mostly contracting convex averages,
        // with occasional non-convex affine kicks that inflate the norm): the
        // incrementally maintained relative error must track a from-scratch
        // recomputation to within 1e-9 at every checkpoint.
        use crate::update::{affine_exchange, convex_average, AffineCoefficient};
        let n = 256;
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut s = GossipState::new(InitialCondition::Uniform.generate(n, &mut rng));
        for step in 0..100_000u32 {
            let i = rng.gen_range(0..n);
            let j = loop {
                let c = rng.gen_range(0..n);
                if c != i {
                    break c;
                }
            };
            let (a, b) = if step % 997 == 0 {
                // Occasional Ω(√n)-scale affine kick, as leader exchanges do.
                affine_exchange(s.value(i), s.value(j), AffineCoefficient::new(6.4))
            } else {
                convex_average(s.value(i), s.value(j))
            };
            s.set(i, a);
            s.set(j, b);
            if step % 10_000 == 0 {
                let incremental = s.relative_error();
                let exact = exact_relative_error(&s);
                assert!(
                    (incremental - exact).abs() <= 1e-9 * exact.max(1.0),
                    "step {step}: incremental {incremental} vs exact {exact}"
                );
            }
        }
        let incremental = s.relative_error();
        let exact = exact_relative_error(&s);
        assert!(
            (incremental - exact).abs() <= 1e-9 * exact.max(1.0),
            "final: incremental {incremental} vs exact {exact}"
        );
    }

    #[test]
    fn incremental_error_survives_deep_convergence() {
        // Pure convex averaging drives the norm down through many orders of
        // magnitude; the drift guard must keep the O(1) estimate honest the
        // whole way (this is where naive incremental tracking loses to
        // catastrophic cancellation).
        let n = 64;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut s = GossipState::new(InitialCondition::Bimodal.generate(n, &mut rng));
        for _ in 0..200_000u32 {
            let i = rng.gen_range(0..n);
            let j = (i + 1 + rng.gen_range(0..n - 1)) % n;
            let (a, b) = crate::update::convex_average(s.value(i), s.value(j));
            s.set(i, a);
            s.set(j, b);
        }
        let incremental = s.relative_error();
        let exact = exact_relative_error(&s);
        assert!(
            exact < 1e-6,
            "test should reach deep convergence, got {exact}"
        );
        assert!(
            (incremental - exact).abs() <= 1e-9 * exact.max(1e-30) + 1e-15,
            "incremental {incremental} vs exact {exact}"
        );
    }

    /// An overflow leaves `∞ − ∞` (NaN) in the cached norm, and a NaN value
    /// does too: both read as an infinite error, never as 0.
    #[test]
    fn a_nan_norm_reads_as_an_infinite_error() {
        let mut overflowed = GossipState::new(vec![1.0, 0.0]);
        overflowed.set(0, f64::INFINITY);
        overflowed.set(0, 0.0);
        assert_eq!(overflowed.relative_error(), f64::INFINITY);
        assert_eq!(overflowed.deviation_sq(), f64::INFINITY);

        let mut nan = GossipState::new(vec![1.0, 0.0]);
        nan.set(0, f64::NAN);
        assert_eq!(nan.relative_error(), f64::INFINITY);
        assert_eq!(nan.deviation_sq(), f64::INFINITY);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(InitialCondition::Spike.to_string(), "spike");
        assert_eq!(InitialCondition::Bimodal.to_string(), "bimodal");
    }
}
