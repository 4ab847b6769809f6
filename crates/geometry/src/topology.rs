//! Surface topologies for the unit square.
//!
//! The paper places its sensors on the plain unit square, where boundary
//! sensors have asymmetric neighborhoods. Wrapping the square into a torus
//! (periodic boundary conditions) removes the boundary effects, which is the
//! standard trick for isolating bulk behaviour from edge behaviour in
//! geometric-random-graph experiments. [`Topology`] selects the metric; the
//! graph layer threads it through adjacency construction.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// The surface the unit square's points live on, i.e. the metric used for
/// radio connectivity.
///
/// # Example
///
/// ```
/// use geogossip_geometry::{Point, Topology};
/// let a = Point::new(0.05, 0.5);
/// let b = Point::new(0.95, 0.5);
/// assert!((Topology::UnitSquare.distance(a, b) - 0.9).abs() < 1e-12);
/// // On the torus the two points are near-neighbors across the seam.
/// assert!((Topology::Torus.distance(a, b) - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// The plain unit square `[0,1]²` with the Euclidean metric — the paper's
    /// model.
    #[default]
    UnitSquare,
    /// The unit torus: opposite edges identified, distances measured with
    /// per-axis wrap-around. Every point then has a statistically identical
    /// neighborhood.
    Torus,
}

impl Topology {
    /// Squared distance between `a` and `b` under this topology.
    ///
    /// For the torus each axis contributes `min(|d|, 1 − |d|)²`; for points
    /// inside the unit square this is never larger than the Euclidean
    /// distance, so torus neighborhoods are supersets of unit-square
    /// neighborhoods at equal radius (the property test in
    /// `tests/topology_properties.rs` pins this).
    pub fn distance_squared(self, a: Point, b: Point) -> f64 {
        match self {
            Topology::UnitSquare => a.distance_squared(b),
            Topology::Torus => {
                let dx = wrap_delta(a.x - b.x);
                let dy = wrap_delta(a.y - b.y);
                dx * dx + dy * dy
            }
        }
    }

    /// Distance between `a` and `b` under this topology.
    pub fn distance(self, a: Point, b: Point) -> f64 {
        self.distance_squared(a, b).sqrt()
    }

    /// The stable token used in scenario JSON and on the CLI.
    pub fn token(self) -> &'static str {
        match self {
            Topology::UnitSquare => "unit-square",
            Topology::Torus => "torus",
        }
    }

    /// Parses a [`Topology::token`] back into a topology.
    pub fn parse(token: &str) -> Option<Topology> {
        match token {
            "unit-square" => Some(Topology::UnitSquare),
            "torus" => Some(Topology::Torus),
            _ => None,
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.token())
    }
}

/// Wraps a coordinate difference onto the torus: the representative of `d`
/// (mod 1) with the smallest absolute value.
///
/// Exposed so hot loops (grid queries, greedy routing) can form wrapped
/// squared distances from raw coordinate deltas without going through
/// [`Topology::distance_squared`]'s enum dispatch per pair.
#[inline]
pub fn wrap_delta(d: f64) -> f64 {
    let d = d.abs() % 1.0;
    d.min(1.0 - d)
}

/// [`wrap_delta`] for the difference of two coordinates in `[0, 1]`, folded
/// by reflection: `min(|d|, 1 − |d|)`.
///
/// Equal to [`wrap_delta`] bit for bit whenever `|d| ≤ 1` — there `|d| % 1`
/// is `|d|` exactly (or `0` at `|d| = 1`, where both forms give `0`) — but
/// without the libm `fmod`, so a filter loop over it stays branch-free and
/// can vectorize. Outside that domain it does not wrap: callers must know
/// their coordinates lie in the unit square (the graph build asserts it).
#[inline]
pub fn wrap_unit_delta(d: f64) -> f64 {
    let d = d.abs();
    d.min(1.0 - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_distance_never_exceeds_euclidean() {
        for &(ax, ay, bx, by) in &[
            (0.0, 0.0, 1.0, 1.0),
            (0.02, 0.5, 0.98, 0.5),
            (0.5, 0.01, 0.5, 0.99),
            (0.25, 0.25, 0.75, 0.75),
            (0.1, 0.9, 0.9, 0.1),
        ] {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            assert!(
                Topology::Torus.distance(a, b) <= Topology::UnitSquare.distance(a, b) + 1e-15,
                "torus exceeded euclidean for {a} -> {b}"
            );
        }
    }

    #[test]
    fn torus_wraps_the_seam() {
        let a = Point::new(0.01, 0.0);
        let b = Point::new(0.99, 0.0);
        assert!((Topology::Torus.distance(a, b) - 0.02).abs() < 1e-12);
        // Opposite corners are 1/√2·... actually √(0.02² + 0.02²) apart.
        let c = Point::new(0.01, 0.01);
        let d = Point::new(0.99, 0.99);
        let expected = (2.0 * 0.02_f64 * 0.02).sqrt();
        assert!((Topology::Torus.distance(c, d) - expected).abs() < 1e-12);
    }

    #[test]
    fn torus_distance_is_symmetric_and_bounded() {
        let a = Point::new(0.1, 0.7);
        let b = Point::new(0.8, 0.2);
        let ab = Topology::Torus.distance(a, b);
        let ba = Topology::Torus.distance(b, a);
        assert!((ab - ba).abs() < 1e-15);
        // No two torus points are farther apart than the half-diagonal.
        assert!(ab <= (0.5f64 * 0.5 + 0.5 * 0.5).sqrt() + 1e-15);
    }

    #[test]
    fn unit_square_matches_point_distance() {
        let a = Point::new(0.3, 0.4);
        let b = Point::new(0.6, 0.8);
        assert_eq!(Topology::UnitSquare.distance(a, b), a.distance(b));
    }

    #[test]
    fn wrap_unit_delta_is_wrap_delta_on_unit_differences() {
        use rand::{Rng, SeedableRng};
        let tiny = f64::from_bits(1); // the smallest subnormal
        let mut edges = vec![
            0.0,
            0.5,
            0.5f64.next_down(),
            0.5f64.next_up(),
            1.0,
            1.0f64.next_down(),
            f64::EPSILON,
            tiny,
            f64::MIN_POSITIVE.next_down(), // the largest subnormal
            f64::MIN_POSITIVE,
        ];
        edges.extend(edges.clone().iter().map(|d| -d));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let sweep = (0..100_000).map(|_| rng.gen::<f64>() - rng.gen::<f64>());
        for d in edges.into_iter().chain(sweep) {
            assert_eq!(
                wrap_unit_delta(d).to_bits(),
                wrap_delta(d).to_bits(),
                "fold differs at d = {d:e}"
            );
        }
    }

    #[test]
    fn tokens_round_trip() {
        for topology in [Topology::UnitSquare, Topology::Torus] {
            assert_eq!(Topology::parse(topology.token()), Some(topology));
            assert_eq!(topology.to_string(), topology.token());
        }
        assert_eq!(Topology::parse("klein-bottle"), None);
        assert_eq!(Topology::default(), Topology::UnitSquare);
    }
}
