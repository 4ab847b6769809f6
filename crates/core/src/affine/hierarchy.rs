//! The hierarchical partition coupled to a concrete geometric graph, and the
//! parts of the affine mechanism both implementations share.
//!
//! [`geogossip_geometry::SquarePartition`] knows about cells, members and
//! leaders purely from positions; [`Hierarchy`] couples it to the
//! [`GeometricGraph`] the protocol actually runs on, validates that the
//! partition is usable (at least two populated top-level cells, every
//! populated cell has a leader), and provides the cell-level queries the
//! protocols need (siblings, populated children, leader lookups, level of a
//! node). The round-based recursion and the state machine also share the
//! one leader exchange (`leader_exchange`) and the one in-cell partner table
//! (`CellRows`) from here.

use crate::affine::round_based::CoefficientRule;
use crate::error::ProtocolError;
use crate::state::GossipState;
use crate::update::affine_exchange;
use geogossip_geometry::point::NodeId;
use geogossip_geometry::{PartitionConfig, SquarePartition};
use geogossip_graph::{CsrAdjacency, GeometricGraph};
use geogossip_routing::greedy::route_terminus_to_node;
use geogossip_sim::fault::FaultContext;
use geogossip_sim::metrics::TransmissionCounter;
use serde::{Deserialize, Serialize};

/// The hierarchical square partition bound to a geometric graph.
///
/// # Example
///
/// ```
/// use geogossip_core::affine::Hierarchy;
/// use geogossip_geometry::{PartitionConfig, sampling::sample_unit_square};
/// use geogossip_graph::GeometricGraph;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let pts = sample_unit_square(512, &mut ChaCha8Rng::seed_from_u64(1));
/// let graph = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
/// let hierarchy = Hierarchy::build(&graph, PartitionConfig::practical(512)).unwrap();
/// assert!(hierarchy.levels() >= 2);
/// assert!(hierarchy.populated_children(0).len() >= 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hierarchy {
    partition: SquarePartition,
    /// Arena indices of populated (non-empty) cells per depth.
    populated_by_depth: Vec<Vec<usize>>,
    /// Arena indices of each cell's populated children, in child order.
    populated_children: Vec<Vec<usize>>,
}

impl Hierarchy {
    /// Builds the hierarchy for `graph` under the given partition
    /// configuration.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::EmptyNetwork`] when the graph has no nodes.
    /// * [`ProtocolError::DegeneratePartition`] when the root splits but
    ///   fewer than two of its cells are populated (the protocol needs
    ///   someone to exchange with). This happens only for pathological
    ///   placements; a partition that never splits (very small `n`) is one
    ///   cell and is accepted.
    pub fn build(graph: &GeometricGraph, config: PartitionConfig) -> Result<Self, ProtocolError> {
        if graph.is_empty() {
            return Err(ProtocolError::EmptyNetwork);
        }
        let partition = SquarePartition::build(graph.positions(), config);
        let mut populated_by_depth = vec![Vec::new(); partition.levels()];
        let mut populated_children = vec![Vec::new(); partition.num_cells()];
        // A parent's children have increasing arena indices, so this visits
        // them in child order.
        for (idx, cell) in partition.cells().iter().enumerate() {
            if !cell.members().is_empty() {
                populated_by_depth[cell.depth()].push(idx);
                if let Some(parent) = cell.parent() {
                    populated_children[parent].push(idx);
                }
            }
        }
        let hierarchy = Hierarchy {
            partition,
            populated_by_depth,
            populated_children,
        };
        if hierarchy.levels() >= 2 && hierarchy.populated_cells_at_depth(1).len() < 2 {
            return Err(ProtocolError::DegeneratePartition);
        }
        Ok(hierarchy)
    }

    /// The underlying square partition.
    pub fn partition(&self) -> &SquarePartition {
        &self.partition
    }

    /// Number of levels `ℓ` of the hierarchy (1 = no split happened).
    pub fn levels(&self) -> usize {
        self.partition.levels()
    }

    /// Arena indices of populated cells at `depth`.
    pub fn populated_cells_at_depth(&self, depth: usize) -> &[usize] {
        self.populated_by_depth
            .get(depth)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Arena indices of the populated children of cell `cell_idx`, in the
    /// partition's child order.
    pub fn populated_children(&self, cell_idx: usize) -> &[usize] {
        &self.populated_children[cell_idx]
    }

    /// The leader of cell `cell_idx`, if the cell is populated.
    pub fn leader(&self, cell_idx: usize) -> Option<NodeId> {
        self.partition.cell(cell_idx).leader()
    }

    /// The expected population `E#(□)` of cell `cell_idx` under uniform
    /// placement — the quantity the paper's affine coefficient is based on.
    pub fn expected_count(&self, cell_idx: usize) -> f64 {
        self.partition.cell(cell_idx).expected_count()
    }

    /// The actual members of cell `cell_idx`.
    pub fn members(&self, cell_idx: usize) -> &[usize] {
        self.partition.cell(cell_idx).members()
    }

    /// The paper's level of a node (0 for ordinary sensors, `ℓ` for the root
    /// leader).
    pub fn level_of(&self, node: NodeId) -> usize {
        self.partition.level_of(node)
    }

    /// Arena index of the leaf cell containing `node`.
    pub fn leaf_of(&self, node: NodeId) -> usize {
        self.partition.leaf_of(node)
    }

    /// Maximum observed relative deviation `|#(□)/E#(□) − 1|` over the
    /// populated cells at `depth` — the Chernoff-concentration quantity of
    /// Section 3 (experiment E7 reports it for depth 1).
    pub fn max_occupancy_deviation(&self, depth: usize) -> f64 {
        self.partition
            .cells_at_depth(depth)
            .map(|(_, c)| {
                let expected = c.expected_count();
                if expected == 0.0 {
                    0.0
                } else {
                    (c.members().len() as f64 / expected - 1.0).abs()
                }
            })
            .fold(0.0, f64::max)
    }

    /// Number of sensors that lead more than one square (zero w.h.p. per the
    /// paper's separation argument; reported by experiment E10).
    pub fn leader_conflicts(&self) -> usize {
        self.partition.leader_conflicts()
    }
}

/// One leader-to-leader affine exchange between the populated cells `a`
/// and `b`: route out and back, charge both walks as routing, then apply
/// `x ← x + α(x' − x)` with `α` from `rule` at the smaller realized
/// population of the two cells (README.md, "Paper substitutions", item 2).
/// A dropped exchange pays for the round trip and applies nothing; a stale
/// leader keeps its value. Returns how many walks dead-ended and whether
/// the update landed.
pub(crate) fn leader_exchange(
    graph: &GeometricGraph,
    hierarchy: &Hierarchy,
    state: &mut GossipState,
    rule: CoefficientRule,
    [a, b]: [usize; 2],
    tx: &mut TransmissionCounter,
    faults: &FaultContext<'_>,
) -> (u64, bool) {
    let (Some(la), Some(lb)) = (hierarchy.leader(a), hierarchy.leader(b)) else {
        return (0, false);
    };
    let (out, out_delivered) = route_terminus_to_node(graph, la, lb);
    let (back, back_delivered) = route_terminus_to_node(graph, lb, la);
    let failed = u64::from(!out_delivered) + u64::from(!back_delivered);
    tx.charge_routing((out.hops + back.hops) as u64);
    if faults.dropped {
        return (failed, false);
    }
    let population = hierarchy.members(a).len().min(hierarchy.members(b).len()) as f64;
    let alpha = rule.coefficient(population);
    let (na, nb) = affine_exchange(state.value(la.index()), state.value(lb.index()), alpha);
    for (leader, value) in [(la, na), (lb, nb)] {
        if !faults.is_stale(leader.index()) {
            state.set(leader.index(), value);
        }
    }
    (failed, true)
}

/// The in-cell partner table, by arena cell index: row `k` of cell `c`
/// lists the graph neighbours of `members(c)[k]` that are members of `c`, in
/// graph row order, so a draw from it picks the partner a filter over the
/// graph row would. A cell's rows are built on its first use.
#[derive(Debug, Clone)]
pub(crate) struct CellRows(Vec<Option<CsrAdjacency>>);

impl CellRows {
    /// An empty table for `hierarchy`'s cells.
    pub(crate) fn new(hierarchy: &Hierarchy) -> Self {
        CellRows(vec![None; hierarchy.partition().num_cells()])
    }

    /// The rows of `cell`. Members are listed in ascending index order, so
    /// membership is a binary search.
    pub(crate) fn of(
        &mut self,
        graph: &GeometricGraph,
        hierarchy: &Hierarchy,
        cell: usize,
    ) -> &CsrAdjacency {
        self.0[cell].get_or_insert_with(|| {
            let members = hierarchy.members(cell);
            debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
            let mut offsets = Vec::with_capacity(members.len() + 1);
            let mut neighbors = Vec::new();
            offsets.push(0);
            for &u in members {
                let row = graph.neighbors(NodeId(u)).iter();
                neighbors.extend(row.filter(|&&v| members.binary_search(&(v as usize)).is_ok()));
                offsets.push(neighbors.len() as u32);
            }
            neighbors.shrink_to_fit();
            CsrAdjacency::from_raw_parts(offsets, neighbors)
        })
    }

    /// Every cell's rows, `None` until the cell's first use.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> &[Option<CsrAdjacency>] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_geometry::sampling::sample_unit_square;
    use geogossip_geometry::Point;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build(n: usize, seed: u64) -> (GeometricGraph, Hierarchy) {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let graph = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
        let hierarchy = Hierarchy::build(&graph, PartitionConfig::practical(n)).unwrap();
        (graph, hierarchy)
    }

    #[test]
    fn empty_graph_is_rejected() {
        let graph = GeometricGraph::build(Vec::new(), 0.1);
        assert!(matches!(
            Hierarchy::build(&graph, PartitionConfig::practical(0)),
            Err(ProtocolError::EmptyNetwork)
        ));
    }

    #[test]
    fn populated_cells_have_leaders() {
        let (_, h) = build(600, 1);
        for depth in 0..h.levels() {
            for &idx in h.populated_cells_at_depth(depth) {
                assert!(
                    h.leader(idx).is_some(),
                    "populated cell {idx} has no leader"
                );
            }
        }
    }

    #[test]
    fn populated_children_are_populated_and_children() {
        let (_, h) = build(900, 2);
        let kids = h.populated_children(0);
        assert!(kids.len() >= 2);
        for &k in kids {
            assert!(!h.members(k).is_empty());
            assert_eq!(h.partition().cell(k).parent(), Some(0));
        }
    }

    #[test]
    fn top_level_occupancy_concentrates_at_large_n() {
        // Section 3's Chernoff claim: |#(□_i)/√n − 1| < 1/10 w.h.p. The
        // concentration improves with n; at n = 8192 the deviation should
        // already be well below 1 (it approaches 0.1 only for much larger n,
        // so we assert a looser bound here and report the curve in E7).
        let (_, h) = build(8192, 3);
        assert!(h.max_occupancy_deviation(1) < 1.0);
    }

    #[test]
    fn levels_and_leaf_lookup_are_consistent() {
        let (_, h) = build(700, 4);
        let root_leader = h.leader(0).unwrap();
        assert_eq!(h.level_of(root_leader), h.levels());
        for i in 0..700 {
            let leaf = h.leaf_of(NodeId(i));
            assert!(h.members(leaf).contains(&i));
        }
    }

    #[test]
    fn tiny_clustered_network_is_degenerate() {
        // All sensors in one corner: only one top-level cell is populated.
        let pts: Vec<Point> = (0..20)
            .map(|i| Point::new(0.01 + 0.001 * i as f64, 0.01))
            .collect();
        let graph = GeometricGraph::build(pts, 0.5);
        let result = Hierarchy::build(&graph, PartitionConfig::top_level_only(20));
        assert!(matches!(result, Err(ProtocolError::DegeneratePartition)));
    }
}
