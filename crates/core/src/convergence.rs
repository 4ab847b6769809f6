//! Empirical convergence-rate estimation.
//!
//! Lemma 1 predicts a per-tick contraction factor of `E‖x(t)‖²` below
//! `1 − 1/2n`; the Section-3 argument predicts that `O(√n·log(n/ε))` leader
//! rounds suffice at the top level. The helpers here turn measured norm
//! trajectories into per-step contraction estimates so experiments E1 and E8
//! can compare measurement against prediction.

/// Estimates the average per-step contraction factor of a squared-norm
/// trajectory: the geometric mean of `‖x(t+1)‖²/‖x(t)‖²` over the trajectory.
///
/// Steps where the norm is zero (already converged) are skipped. Returns
/// `None` when fewer than two usable samples exist.
///
/// # Example
///
/// ```
/// use geogossip_core::convergence::contraction_rate;
/// // A perfectly geometric decay with ratio 0.9 per step.
/// let traj: Vec<f64> = (0..10).map(|t| 0.9f64.powi(t)).collect();
/// let rate = contraction_rate(&traj).unwrap();
/// assert!((rate - 0.9).abs() < 1e-12);
/// ```
pub fn contraction_rate(squared_norms: &[f64]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for w in squared_norms.windows(2) {
        if w[0] > 0.0 && w[1] > 0.0 {
            log_sum += (w[1] / w[0]).ln();
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some((log_sum / count as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contraction_rate_of_geometric_decay() {
        let traj: Vec<f64> = (0..20).map(|t| 100.0 * 0.8f64.powi(t)).collect();
        assert!((contraction_rate(&traj).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn contraction_rate_ignores_zero_norm_steps() {
        let traj = vec![4.0, 2.0, 0.0, 0.0, 0.0];
        // Only the 4 → 2 transition is usable.
        assert!((contraction_rate(&traj).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contraction_rate_needs_two_samples() {
        assert!(contraction_rate(&[]).is_none());
        assert!(contraction_rate(&[1.0]).is_none());
        assert!(contraction_rate(&[0.0, 0.0]).is_none());
    }
}
