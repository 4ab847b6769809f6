//! Selection of a (roughly) uniformly random node by geographic addressing.
//!
//! A sensor cannot draw a uniformly random *node* directly — it only knows its
//! own position. Geographic gossip (Dimakis et al. \[5\], inherited by the
//! paper) instead draws a uniformly random *position* in the unit square and
//! contacts the node nearest to it. The probability of contacting node `v` is
//! then proportional to the area of `v`'s Voronoi cell, which is only
//! approximately uniform; rejection sampling (accepting a contacted node with
//! probability inversely proportional to its Voronoi area) flattens the
//! distribution. Experiment E9 quantifies both variants.

use geogossip_geometry::point::NodeId;
use geogossip_geometry::sampling::uniform_point_in;
use geogossip_geometry::unit_square;
use geogossip_graph::GeometricGraph;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Strategy for drawing the gossip partner of a round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TargetSelector {
    /// Contact the node nearest a uniformly random position (no correction).
    /// The node distribution is proportional to Voronoi-cell areas.
    NearestToUniformPosition,
    /// Rejection-sampled variant: a contacted node is accepted with
    /// probability `min_area_estimate / own_area_estimate`, where the area
    /// estimates are Monte-Carlo Voronoi masses computed once per graph. Up to
    /// `max_attempts` positions are tried before giving up and accepting the
    /// last candidate (so a partner is always produced).
    RejectionSampled {
        /// Per-node acceptance probabilities in `[0, 1]`.
        acceptance: Vec<f64>,
        /// Maximum number of rejected candidates before accepting anyway.
        max_attempts: usize,
    },
    /// Contact a node drawn uniformly at random by index. This needs global
    /// knowledge that real sensors do not have; it is provided as the ideal
    /// reference the other two are compared against in experiment E9.
    UniformByIndex,
}

impl TargetSelector {
    /// Builds the rejection-sampled selector for a graph, estimating each
    /// node's Voronoi mass with `samples` uniform probe positions.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or `samples` is zero.
    pub fn rejection_sampled<R: Rng + ?Sized>(
        graph: &GeometricGraph,
        samples: usize,
        max_attempts: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            !graph.is_empty(),
            "cannot build a target selector for an empty graph"
        );
        assert!(samples > 0, "need at least one probe sample");
        let mut hits = vec![0usize; graph.len()];
        for _ in 0..samples {
            let p = uniform_point_in(unit_square(), rng);
            if let Some(node) = graph.nearest_node(p) {
                hits[node.index()] += 1;
            }
        }
        // Acceptance probability inversely proportional to estimated Voronoi
        // mass; nodes never hit get acceptance 1 (they are already rare).
        let min_positive = hits
            .iter()
            .copied()
            .filter(|&h| h > 0)
            .min()
            .unwrap_or(1)
            .max(1) as f64;
        let acceptance = hits
            .iter()
            .map(|&h| {
                if h == 0 {
                    1.0
                } else {
                    (min_positive / h as f64).min(1.0)
                }
            })
            .collect();
        TargetSelector::RejectionSampled {
            acceptance,
            max_attempts: max_attempts.max(1),
        }
    }

    /// Draws a gossip partner for `caller`.
    ///
    /// The partner is always distinct from `caller` (candidates equal to the
    /// caller are redrawn), and `None` is returned only when the graph has
    /// fewer than two nodes.
    pub fn draw<R: Rng + ?Sized>(
        &self,
        graph: &GeometricGraph,
        caller: NodeId,
        rng: &mut R,
    ) -> Option<NodeId> {
        if graph.len() < 2 {
            return None;
        }
        match self {
            TargetSelector::UniformByIndex => loop {
                let idx = rng.gen_range(0..graph.len());
                if idx != caller.index() {
                    return Some(NodeId(idx));
                }
            },
            TargetSelector::NearestToUniformPosition => loop {
                let p = uniform_point_in(unit_square(), rng);
                let node = graph.nearest_node(p)?;
                if node != caller {
                    return Some(node);
                }
            },
            TargetSelector::RejectionSampled {
                acceptance,
                max_attempts,
            } => {
                let mut last = None;
                for _ in 0..*max_attempts {
                    let p = uniform_point_in(unit_square(), rng);
                    let node = graph.nearest_node(p)?;
                    if node == caller {
                        continue;
                    }
                    last = Some(node);
                    if rng.gen::<f64>() <= acceptance[node.index()] {
                        return Some(node);
                    }
                }
                // Fall back to the last candidate (or any non-caller node) so
                // the protocol always makes progress.
                last.or_else(|| (0..graph.len()).map(NodeId).find(|&v| v != caller))
            }
        }
    }
}

/// Empirical distribution of drawn partners, used by experiment E9 to compare
/// selectors against the uniform ideal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetStats {
    /// Number of draws per node.
    pub counts: Vec<usize>,
    /// Total number of draws.
    pub total: usize,
}

impl TargetStats {
    /// Collects `draws` partner selections made by `caller` under `selector`.
    pub fn collect<R: Rng + ?Sized>(
        graph: &GeometricGraph,
        selector: &TargetSelector,
        caller: NodeId,
        draws: usize,
        rng: &mut R,
    ) -> Self {
        let mut counts = vec![0usize; graph.len()];
        let mut total = 0usize;
        for _ in 0..draws {
            if let Some(node) = selector.draw(graph, caller, rng) {
                counts[node.index()] += 1;
                total += 1;
            }
        }
        TargetStats { counts, total }
    }

    /// Ratio of the maximum per-node frequency to the uniform frequency
    /// `1/(n-1)`; 1.0 is perfectly uniform, larger is more skewed.
    pub fn max_over_uniform(&self, caller: NodeId) -> f64 {
        let n = self.counts.len();
        if n < 2 || self.total == 0 {
            return 1.0;
        }
        let uniform = self.total as f64 / (n - 1) as f64;
        self.counts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != caller.index())
            .map(|(_, &c)| c as f64 / uniform)
            .fold(0.0, f64::max)
    }

    /// Chi-square-style dispersion statistic against the uniform distribution
    /// over the `n − 1` possible partners, normalised by the number of
    /// categories (≈1 when the draws are uniform).
    pub fn normalized_chi_square(&self, caller: NodeId) -> f64 {
        let n = self.counts.len();
        if n < 2 || self.total == 0 {
            return 0.0;
        }
        let expected = self.total as f64 / (n - 1) as f64;
        let chi: f64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != caller.index())
            .map(|(_, &c)| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        chi / (n - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_geometry::sampling::sample_unit_square;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: usize, seed: u64) -> GeometricGraph {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        GeometricGraph::build_at_connectivity_radius(pts, 2.0)
    }

    #[test]
    fn draws_never_return_the_caller() {
        let g = graph(100, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let selectors = vec![
            TargetSelector::UniformByIndex,
            TargetSelector::NearestToUniformPosition,
            TargetSelector::rejection_sampled(&g, 2000, 10, &mut rng),
        ];
        for sel in &selectors {
            for _ in 0..200 {
                let v = sel.draw(&g, NodeId(5), &mut rng).unwrap();
                assert_ne!(v, NodeId(5));
            }
        }
    }

    #[test]
    fn single_node_graph_has_no_partner() {
        use geogossip_geometry::Point;
        let g = GeometricGraph::build(vec![Point::new(0.5, 0.5)], 0.1);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(TargetSelector::UniformByIndex
            .draw(&g, NodeId(0), &mut rng)
            .is_none());
    }

    #[test]
    fn uniform_by_index_is_nearly_uniform() {
        let g = graph(50, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let stats = TargetStats::collect(
            &g,
            &TargetSelector::UniformByIndex,
            NodeId(0),
            20_000,
            &mut rng,
        );
        assert!(stats.max_over_uniform(NodeId(0)) < 1.3);
        assert!(stats.normalized_chi_square(NodeId(0)) < 2.0);
    }

    #[test]
    fn rejection_sampling_reduces_skew() {
        let g = graph(200, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let plain = TargetStats::collect(
            &g,
            &TargetSelector::NearestToUniformPosition,
            NodeId(0),
            30_000,
            &mut rng,
        );
        let rejection = TargetSelector::rejection_sampled(&g, 50_000, 20, &mut rng);
        let corrected = TargetStats::collect(&g, &rejection, NodeId(0), 30_000, &mut rng);
        let skew_plain = corrected_skew(&plain);
        let skew_corrected = corrected_skew(&corrected);
        assert!(
            skew_corrected <= skew_plain,
            "rejection sampling should not increase dispersion: {skew_corrected} > {skew_plain}"
        );
    }

    fn corrected_skew(stats: &TargetStats) -> f64 {
        stats.normalized_chi_square(NodeId(0))
    }

    #[test]
    fn stats_totals_match_draw_count() {
        let g = graph(60, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let stats = TargetStats::collect(
            &g,
            &TargetSelector::UniformByIndex,
            NodeId(1),
            500,
            &mut rng,
        );
        assert_eq!(stats.total, 500);
        assert_eq!(stats.counts.iter().sum::<usize>(), 500);
        assert_eq!(stats.counts[1], 0);
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn rejection_selector_rejects_empty_graph() {
        let g = GeometricGraph::build(Vec::new(), 0.1);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let _ = TargetSelector::rejection_sampled(&g, 100, 5, &mut rng);
    }
}
