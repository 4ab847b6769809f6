//! The paper's literal scheduling formulas (Section 4.1).
//!
//! The asynchronous protocol needs three cascades of parameters:
//!
//! * accuracy per level: `ε_0 = ε`, `ε_{r+1} = ε_r / (25·n^{7/2 + a})`;
//! * failure probability per level: `δ_0 = δ`, `δ_{r+1} = δ_r / n^{2 a r}`;
//! * latency per level: `time(n, ℓ−1, ε_{ℓ−1}, δ_{ℓ−1}) =
//!   ((log(n/ε_{ℓ−1}))·log(1/δ_{ℓ−1}))^{16}` and, going up,
//!   `time(n, r−1, ·) = time(n, r, ·)·n^a·((log(n_r/ε_r))·log(1/δ_r))^{16}`.
//!
//! These constants exist to make the union bounds of Section 5/6 go through —
//! they are wildly conservative (the exponent 16 alone makes them astronomical
//! for any real `n`), which is why the runnable state machine uses the
//! *practical* schedule derived in
//! [`state_machine::ScheduleParams::practical`](crate::affine::state_machine::ScheduleParams::practical).
//! This module keeps the literal formulas so the experiments can tabulate how
//! far the practical schedule deviates from them (and so a reader can check
//! our reading of the paper against the text).

use serde::{Deserialize, Serialize};

/// The paper's parameter cascade for a given network size, target accuracy,
/// failure probability and constant `a`.
///
/// # Example
///
/// ```
/// use geogossip_core::affine::PaperSchedule;
/// let sched = PaperSchedule::new(1024, 3, 1e-3, 1e-2, 1.0);
/// // Accuracy targets shrink (fast!) as we go down the hierarchy.
/// assert!(sched.epsilon_at(1) < sched.epsilon_at(0));
/// // Latencies shrink as we go down (deeper squares average faster).
/// assert!(sched.latency_at(1) < sched.latency_at(0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperSchedule {
    n: usize,
    levels: usize,
    a: f64,
    epsilons: Vec<f64>,
    deltas: Vec<f64>,
    latencies: Vec<f64>,
}

impl PaperSchedule {
    /// Builds the cascade for `n` sensors, a hierarchy of `levels` levels
    /// (`ℓ` in the paper), top-level accuracy `epsilon`, failure probability
    /// `delta` and the paper's constant `a`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `levels == 0`, or `epsilon`/`delta` are not in
    /// `(0, 1)`.
    pub fn new(n: usize, levels: usize, epsilon: f64, delta: f64, a: f64) -> Self {
        assert!(n > 0, "schedule needs at least one sensor");
        assert!(levels > 0, "schedule needs at least one level");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let n_f = n as f64;

        // ε_{r+1} = ε_r / (25 n^{7/2 + a}),   δ_{r+1} = δ_r / n^{2 a r}.
        let mut epsilons = vec![epsilon];
        let mut deltas = vec![delta];
        for r in 0..levels.saturating_sub(1) {
            let eps_next = epsilons[r] / (25.0 * n_f.powf(3.5 + a));
            let delta_next = deltas[r] / n_f.powf(2.0 * a * (r as f64).max(1.0));
            epsilons.push(eps_next);
            deltas.push(delta_next);
        }

        // Latency at the deepest level, then multiply going up.
        // time(n, ℓ−1) = ((log(n/ε_{ℓ−1}))·log(1/δ_{ℓ−1}))^{16}
        // time(n, r−1) = time(n, r)·n^a·((log(n_r/ε_r))·log(1/δ_r))^{16}
        let deepest = levels - 1;
        let mut latencies = vec![0.0; levels];
        latencies[deepest] =
            (((n_f / epsilons[deepest]).ln()) * (1.0 / deltas[deepest]).ln()).powi(16);
        for r in (0..deepest).rev() {
            let factor = n_f.powf(a)
                * (((n_f / epsilons[r + 1]).ln()) * (1.0 / deltas[r + 1]).ln()).powi(16);
            latencies[r] = latencies[r + 1] * factor;
        }

        PaperSchedule {
            n,
            levels,
            a,
            epsilons,
            deltas,
            latencies,
        }
    }

    /// Number of sensors the schedule was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of hierarchy levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The paper's constant `a`.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Accuracy target `ε_r` for depth `r` (0 = whole square).
    ///
    /// # Panics
    ///
    /// Panics if `depth >= levels`.
    pub fn epsilon_at(&self, depth: usize) -> f64 {
        self.epsilons[depth]
    }

    /// Failure probability `δ_r` for depth `r`.
    ///
    /// # Panics
    ///
    /// Panics if `depth >= levels`.
    pub fn delta_at(&self, depth: usize) -> f64 {
        self.deltas[depth]
    }

    /// Latency (expected number of own clock ticks a depth-`r` square stays
    /// active for its internal averaging), `time(n, r, ε_r, δ_r)`.
    ///
    /// # Panics
    ///
    /// Panics if `depth >= levels`.
    pub fn latency_at(&self, depth: usize) -> f64 {
        self.latencies[depth]
    }

    /// The paper's long-range activation probability for a depth-`r` leader on
    /// each of its own clock ticks: `n^{-a}·time(n, r, ε_r, δ_r)^{-1}`
    /// (Section 4.2, step 1(b)).
    ///
    /// # Panics
    ///
    /// Panics if `depth >= levels`.
    pub fn far_probability_at(&self, depth: usize) -> f64 {
        (self.n as f64).powf(-self.a) / self.latencies[depth]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_shrinks_epsilon_and_delta() {
        let s = PaperSchedule::new(256, 3, 1e-2, 1e-2, 1.0);
        assert!(s.epsilon_at(1) < s.epsilon_at(0));
        assert!(s.epsilon_at(2) < s.epsilon_at(1));
        assert!(s.delta_at(2) < s.delta_at(0));
    }

    #[test]
    fn latency_grows_towards_the_root() {
        let s = PaperSchedule::new(256, 3, 1e-2, 1e-2, 1.0);
        assert!(s.latency_at(0) > s.latency_at(1));
        assert!(s.latency_at(1) > s.latency_at(2));
        assert!(s.latency_at(2) >= 1.0);
    }

    #[test]
    fn far_probability_is_below_inverse_latency() {
        // The paper's whole point: the long-range rate is lower than the
        // inverse latency by a factor n^a, so squares are inactive when their
        // leader goes long-range.
        let s = PaperSchedule::new(128, 2, 1e-2, 1e-2, 1.0);
        for depth in 0..2 {
            assert!(s.far_probability_at(depth) <= 1.0 / s.latency_at(depth));
            assert!(s.far_probability_at(depth) > 0.0);
        }
    }

    #[test]
    fn literal_constants_are_astronomical() {
        // Even for a modest network the paper's latency at the root exceeds
        // 10^40 ticks — the quantitative justification for the practical
        // schedule substitution (README.md, "Paper substitutions", item 4).
        let s = PaperSchedule::new(1024, 3, 1e-3, 1e-2, 1.0);
        assert!(s.latency_at(0) > 1e40);
    }

    #[test]
    fn single_level_schedule_is_valid() {
        let s = PaperSchedule::new(64, 1, 0.1, 0.1, 0.5);
        assert_eq!(s.levels(), 1);
        assert!(s.latency_at(0) > 0.0);
        assert_eq!(s.epsilon_at(0), 0.1);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn rejects_bad_epsilon() {
        let _ = PaperSchedule::new(64, 2, 1.5, 0.1, 1.0);
    }

    #[test]
    fn accessors_expose_inputs() {
        let s = PaperSchedule::new(32, 2, 0.1, 0.05, 2.0);
        assert_eq!(s.n(), 32);
        assert_eq!(s.a(), 2.0);
        assert_eq!(s.delta_at(0), 0.05);
    }
}
