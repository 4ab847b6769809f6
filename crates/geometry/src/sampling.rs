//! Reproducible random placement of sensors and related sampling helpers.
//!
//! Every experiment in the workspace is seeded, so that the tables of the
//! E1–E10 modules in the root package's `src/experiments/` can be regenerated
//! bit-for-bit. The helpers here are thin wrappers over [`rand`] that keep
//! the sampling conventions (uniform over the unit square, uniform over a
//! rectangle, exponential inter-arrival times) in one place.

use crate::point::Point;
use crate::rect::Rect;
use rand::Rng;

/// Samples `n` points independently and uniformly at random from the unit
/// square, the placement model of the paper (Section 2).
///
/// # Example
///
/// ```
/// use geogossip_geometry::sampling::sample_unit_square;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// let pts = sample_unit_square(100, &mut ChaCha8Rng::seed_from_u64(1));
/// assert_eq!(pts.len(), 100);
/// assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
/// ```
pub fn sample_unit_square<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

/// Samples `n` points independently and uniformly at random from `rect`.
pub fn sample_rect<R: Rng + ?Sized>(rect: Rect, n: usize, rng: &mut R) -> Vec<Point> {
    (0..n).map(|_| uniform_point_in(rect, rng)).collect()
}

/// Samples a single point uniformly at random from `rect`.
pub fn uniform_point_in<R: Rng + ?Sized>(rect: Rect, rng: &mut R) -> Point {
    let x = rect.min().x + rng.gen::<f64>() * rect.width();
    let y = rect.min().y + rng.gen::<f64>() * rect.height();
    Point::new(x, y)
}

/// Samples `n` points from a clustered deployment: `clusters` cluster centers
/// are drawn uniformly from the unit square, then each sensor picks a center
/// uniformly at random and lands at a uniform offset within `±spread` of it
/// (clamped back into the unit square).
///
/// This models the "sensors dropped in batches" deployments where the uniform
/// placement assumption of the paper is stressed: cell occupancy becomes
/// non-uniform and greedy routing must cross sparse gaps.
///
/// # Panics
///
/// Panics if `clusters` is zero or `spread` is not strictly positive and
/// finite.
pub fn sample_clustered<R: Rng + ?Sized>(
    n: usize,
    clusters: usize,
    spread: f64,
    rng: &mut R,
) -> Vec<Point> {
    assert!(
        clusters > 0,
        "clustered placement needs at least one cluster"
    );
    assert!(
        spread.is_finite() && spread > 0.0,
        "cluster spread must be positive and finite"
    );
    let centers: Vec<Point> = (0..clusters)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    (0..n)
        .map(|_| {
            let c = centers[rng.gen_range(0..clusters)];
            let dx = (2.0 * rng.gen::<f64>() - 1.0) * spread;
            let dy = (2.0 * rng.gen::<f64>() - 1.0) * spread;
            Point::new(c.x + dx, c.y + dy).clamp_unit()
        })
        .collect()
}

/// Samples `n` points uniformly from the unit square **minus** the `hole`
/// rectangle, by rejection.
///
/// The perforated square models an obstacle (a lake, a building) in the
/// deployment area: greedy geographic routing can dead-end on the hole's
/// boundary, which is exactly the failure mode the paper's w.h.p. routing
/// guarantees exclude for the uniform deployment.
///
/// # Panics
///
/// Panics if the hole covers the whole unit square (nothing left to sample)
/// or is so large that rejection sampling becomes pathological (the hole's
/// overlap with the square above 99% of it). A hole extending beyond the unit
/// square is fine — only the overlap matters.
pub fn sample_perforated<R: Rng + ?Sized>(n: usize, hole: Rect, rng: &mut R) -> Vec<Point> {
    let covered = hole.intersection_area(crate::unit_square());
    assert!(
        covered < 0.99,
        "hole covers (almost) the whole unit square; nothing left to sample"
    );
    (0..n)
        .map(|_| loop {
            let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            if !hole.contains(p) {
                break p;
            }
        })
        .collect()
}

/// Samples an `Exp(rate)` inter-arrival time.
///
/// The paper models each sensor's clock as a unit-rate Poisson process
/// (Section 2); the simulator draws inter-tick gaps from this helper.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive and finite.
pub fn exponential<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "exponential rate must be positive and finite"
    );
    // Inverse-CDF sampling; `1 - U` avoids ln(0).
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).ln() / rate
}

/// Draws an index in `0..n` uniformly at random, excluding `excluded`.
///
/// Used when a node must pick "a square other than its own" or "a node other
/// than itself" uniformly at random.
///
/// # Panics
///
/// Panics if `n < 2` or `excluded >= n` (there would be nothing to draw).
pub fn uniform_index_excluding<R: Rng + ?Sized>(n: usize, excluded: usize, rng: &mut R) -> usize {
    assert!(n >= 2, "need at least two alternatives to exclude one");
    assert!(excluded < n, "excluded index out of range");
    let draw = rng.gen_range(0..n - 1);
    if draw >= excluded {
        draw + 1
    } else {
        draw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit_square;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn unit_square_samples_are_inside() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let pts = sample_unit_square(1000, &mut rng);
        assert!(pts.iter().all(|p| unit_square().contains(*p)));
    }

    #[test]
    fn sampling_is_reproducible_for_same_seed() {
        let a = sample_unit_square(50, &mut ChaCha8Rng::seed_from_u64(9));
        let b = sample_unit_square(50, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn rect_samples_are_inside_rect() {
        let rect = Rect::new(Point::new(0.25, 0.5), Point::new(0.5, 0.75));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let pts = sample_rect(rect, 500, &mut rng);
        assert!(pts.iter().all(|p| rect.contains(*p)));
    }

    #[test]
    fn clustered_samples_stay_inside_and_cluster() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let pts = sample_clustered(500, 3, 0.05, &mut rng);
        assert_eq!(pts.len(), 500);
        assert!(pts.iter().all(|p| unit_square().contains(*p)));
        // With spread 0.05 around 3 centers the points can touch at most
        // 3 · (0.1 + cell)² of the square; most of a 10×10 occupancy grid
        // stays empty, unlike a uniform sample of the same size.
        let mut occupied = [false; 100];
        for p in &pts {
            let col = (p.x * 10.0).min(9.0) as usize;
            let row = (p.y * 10.0).min(9.0) as usize;
            occupied[row * 10 + col] = true;
        }
        let occupied_cells = occupied.iter().filter(|&&c| c).count();
        assert!(
            occupied_cells <= 30,
            "clustered sample touched {occupied_cells}/100 cells"
        );
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn clustered_rejects_zero_clusters() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let _ = sample_clustered(10, 0, 0.1, &mut rng);
    }

    #[test]
    fn perforated_samples_avoid_the_hole() {
        let hole = Rect::new(Point::new(0.4, 0.4), Point::new(0.6, 0.6));
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let pts = sample_perforated(800, hole, &mut rng);
        assert_eq!(pts.len(), 800);
        assert!(pts.iter().all(|p| !hole.contains(*p)));
        assert!(pts.iter().all(|p| unit_square().contains(*p)));
    }

    #[test]
    #[should_panic(expected = "whole unit square")]
    fn perforated_rejects_total_hole() {
        let hole = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let _ = sample_perforated(10, hole, &mut rng);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let rate = 4.0;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(rate, &mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01,
            "mean {mean} far from {}",
            1.0 / rate
        );
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        assert!((0..1000).all(|_| exponential(1.0, &mut rng) >= 0.0));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn exponential_rejects_bad_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let _ = exponential(0.0, &mut rng);
    }

    #[test]
    fn uniform_index_excluding_never_returns_excluded() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..5000 {
            let x = uniform_index_excluding(7, 3, &mut rng);
            assert!(x < 7 && x != 3);
        }
    }

    #[test]
    fn uniform_index_excluding_hits_everything_else() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut seen = [false; 5];
        for _ in 0..2000 {
            seen[uniform_index_excluding(5, 2, &mut rng)] = true;
        }
        assert_eq!(seen, [true, true, false, true, true]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn uniform_index_excluding_rejects_singleton() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let _ = uniform_index_excluding(1, 0, &mut rng);
    }
}
