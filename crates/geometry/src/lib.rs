//! 2-D geometry substrate for geographic gossip on geometric random graphs.
//!
//! The crate provides the spatial primitives that every other crate in the
//! workspace builds on:
//!
//! * [`Point`] and [`Rect`] — positions in (and sub-rectangles of) the unit
//!   square `□ = [0,1]²` in which the paper places its `n` sensors.
//! * [`grid::UniformGrid`] — a spatial hash used to answer "which sensors are
//!   within distance `r` of this position" queries in expected `O(1)` time per
//!   reported neighbor; this is what makes geometric-random-graph construction
//!   `O(n)` instead of `O(n²)`.
//! * [`partition`] — the hierarchical square partition `□_{i₁…i_r}` of
//!   Section 4.1 of the paper: the unit square is split into `~√n` sub-squares,
//!   each of which is split again while its expected population exceeds a
//!   threshold, producing a tree of depth `Θ(log log n)`.
//! * [`sampling`] — reproducible uniform placement of sensors and helpers for
//!   seeding the deterministic RNG streams used throughout the workspace.
//!
//! # Example
//!
//! ```
//! use geogossip_geometry::{Point, Rect, partition::PartitionConfig, partition::SquarePartition};
//! use geogossip_geometry::sampling::sample_unit_square;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let points = sample_unit_square(1024, &mut rng);
//! let partition = SquarePartition::build(&points, PartitionConfig::practical(points.len()));
//! assert!(partition.depth() >= 1);
//! // Every point belongs to exactly one leaf cell.
//! assert_eq!(partition.leaves().map(|c| c.members().len()).sum::<usize>(), points.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod partition;
pub mod point;
pub mod rect;
pub mod sampling;
pub mod topology;

pub use grid::UniformGrid;
pub use partition::{CellId, PartitionConfig, SquarePartition};
pub use point::Point;
pub use rect::Rect;
pub use topology::Topology;

/// The unit square `[0,1] × [0,1]` in which all sensors are placed.
///
/// # Example
///
/// ```
/// use geogossip_geometry::{unit_square, Point};
/// assert!(unit_square().contains(Point::new(0.5, 0.5)));
/// ```
pub fn unit_square() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
}

/// The Gupta–Kumar connectivity radius `r(n) = c · sqrt(log n / n)`.
///
/// For `c` above a constant threshold (≈1 for the unit square), the geometric
/// random graph `G(n, r)` is connected with probability `1 − n^{-Θ(1)}`
/// (Gupta & Kumar 2000, cited as \[4\] in the paper). The paper assumes
/// `r = Θ(sqrt(log n / n))` throughout (Section 2.1).
///
/// # Panics
///
/// Panics if `n < 2` (a connectivity radius is meaningless for fewer than two
/// sensors).
///
/// # Example
///
/// ```
/// use geogossip_geometry::connectivity_radius;
/// let r = connectivity_radius(1000, 1.5);
/// assert!(r > 0.0 && r < 1.0);
/// ```
pub fn connectivity_radius(n: usize, c: f64) -> f64 {
    assert!(n >= 2, "connectivity radius requires at least two sensors");
    let n_f = n as f64;
    c * (n_f.ln() / n_f).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_square_has_unit_area() {
        assert!((unit_square().area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity_radius_decreases_with_n() {
        let r1 = connectivity_radius(100, 1.0);
        let r2 = connectivity_radius(10_000, 1.0);
        assert!(r1 > r2);
    }

    #[test]
    fn connectivity_radius_scales_linearly_with_constant() {
        let r1 = connectivity_radius(500, 1.0);
        let r2 = connectivity_radius(500, 2.0);
        assert!((r2 - 2.0 * r1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two sensors")]
    fn connectivity_radius_rejects_tiny_n() {
        let _ = connectivity_radius(1, 1.0);
    }
}
