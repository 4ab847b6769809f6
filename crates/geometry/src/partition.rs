//! The hierarchical square partition of Section 4.1 of the paper.
//!
//! The unit square `□` is split into `n₁` sub-squares, where `n₁` is the
//! integer nearest to `√n` that is the square of an even number. Any sub-square
//! whose *expected* sensor population still exceeds a threshold is split again
//! by the same rule (applied to its expected population), producing a tree of
//! depth `ℓ − 1 ~ log log n`. The sensor nearest the center of a square is its
//! *leader* `s(□)` (Definition 1), and leaders are assigned levels
//! `ℓ − depth`, with ordinary sensors at level 0.
//!
//! The paper's split threshold is `(log n)^8`, which exceeds `n` for every
//! simulable `n`; [`PartitionConfig::practical`] therefore substitutes a
//! laptop-scale threshold (`max(16, 4·ln n)`) while
//! [`PartitionConfig::paper_faithful`] keeps the literal constant. README.md,
//! "Paper substitutions", item 1 documents this substitution.

use crate::point::{NodeId, Point};
use crate::rect::Rect;
use crate::unit_square;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a cell in the hierarchical partition: the path of child
/// indices from the root, `□_{i₁…i_r}` in the paper's notation.
///
/// The root square `□` has the empty path.
///
/// # Example
///
/// ```
/// use geogossip_geometry::CellId;
/// let id = CellId::from_path(vec![3, 1]);
/// assert_eq!(id.depth(), 2);
/// assert_eq!(format!("{id}"), "□[3.1]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct CellId {
    path: Vec<u32>,
}

impl CellId {
    /// The root cell (the whole unit square).
    pub fn root() -> Self {
        CellId { path: Vec::new() }
    }

    /// Builds a cell id from an explicit child-index path.
    pub fn from_path(path: Vec<u32>) -> Self {
        CellId { path }
    }

    /// The child-index path from the root.
    pub fn path(&self) -> &[u32] {
        &self.path
    }

    /// Depth of the cell (`r` in `□_{i₁…i_r}`); the root has depth 0.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// The id of the child obtained by appending `index` to the path.
    pub fn child(&self, index: u32) -> CellId {
        let mut path = self.path.clone();
        path.push(index);
        CellId { path }
    }

    /// The id of the parent cell, or `None` for the root.
    pub fn parent(&self) -> Option<CellId> {
        if self.path.is_empty() {
            None
        } else {
            Some(CellId {
                path: self.path[..self.path.len() - 1].to_vec(),
            })
        }
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "□")
        } else {
            let parts: Vec<String> = self.path.iter().map(|p| p.to_string()).collect();
            write!(f, "□[{}]", parts.join("."))
        }
    }
}

/// Rule deciding when a cell is split further.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SplitRule {
    /// Split while the expected population exceeds a fixed threshold.
    Threshold(f64),
    /// Split while the expected population exceeds `(log n)^8`, the paper's
    /// literal constant (Section 4.1). For any simulable `n` this yields a
    /// hierarchy of depth 1 (only the top-level `~√n` split).
    PaperFaithful,
    /// Never split below the top level; the result is exactly the Section 3
    /// overview: a single level of `~√n` cells.
    TopLevelOnly,
}

/// Configuration for building a [`SquarePartition`].
///
/// # Example
///
/// ```
/// use geogossip_geometry::PartitionConfig;
/// let cfg = PartitionConfig::practical(4096);
/// assert_eq!(cfg.n(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    n: usize,
    rule: SplitRule,
    max_depth: usize,
}

impl PartitionConfig {
    /// Laptop-scale configuration: split while the expected population exceeds
    /// `max(16, 4·ln n)`, capped at 8 levels. This preserves the paper's
    /// `Θ(log log n)` depth (poly-logarithmic leaf populations) at sizes a
    /// simulation can actually reach; see README.md, "Paper substitutions",
    /// item 1.
    pub fn practical(n: usize) -> Self {
        let ln = (n.max(2) as f64).ln();
        PartitionConfig {
            n,
            rule: SplitRule::Threshold((4.0 * ln).max(16.0)),
            max_depth: 8,
        }
    }

    /// The paper's literal `(log n)^8` split threshold (Section 4.1).
    pub fn paper_faithful(n: usize) -> Self {
        PartitionConfig {
            n,
            rule: SplitRule::PaperFaithful,
            max_depth: 8,
        }
    }

    /// A single level of `~√n` cells, matching the Section 3 overview.
    pub fn top_level_only(n: usize) -> Self {
        PartitionConfig {
            n,
            rule: SplitRule::TopLevelOnly,
            max_depth: 1,
        }
    }

    /// Explicit threshold configuration.
    pub fn with_threshold(n: usize, threshold: f64) -> Self {
        PartitionConfig {
            n,
            rule: SplitRule::Threshold(threshold),
            max_depth: 8,
        }
    }

    /// Caps the recursion depth (levels below the root).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth.max(1);
        self
    }

    /// The number of sensors the configuration was created for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The split rule in force.
    pub fn rule(&self) -> SplitRule {
        self.rule
    }

    /// Whether a cell with expected population `expected` at depth `depth`
    /// should be split further.
    fn should_split(&self, expected: f64, depth: usize) -> bool {
        if depth >= self.max_depth {
            return false;
        }
        let threshold = match self.rule {
            SplitRule::Threshold(t) => t,
            SplitRule::PaperFaithful => {
                let ln = (self.n.max(2) as f64).ln();
                ln.powi(8)
            }
            SplitRule::TopLevelOnly => return depth == 0,
        };
        expected > threshold
    }
}

/// The integer nearest to `x` that is the square of an even number, and at
/// least 4 (the paper's `n_r` branching factors; Section 4.1).
///
/// # Example
///
/// ```
/// use geogossip_geometry::partition::nearest_even_square;
/// assert_eq!(nearest_even_square(30.0), 36);  // 6² beats 4²
/// assert_eq!(nearest_even_square(17.0), 16);  // 4² beats 6²
/// assert_eq!(nearest_even_square(1.0), 4);    // floor of 4
/// ```
pub fn nearest_even_square(x: f64) -> usize {
    if !x.is_finite() || x <= 4.0 {
        return 4;
    }
    let k = (x.sqrt() / 2.0).round().max(1.0) as usize;
    let candidates = [k.saturating_sub(1).max(1), k, k + 1];
    candidates
        .iter()
        .map(|&k| (2 * k) * (2 * k))
        .min_by(|a, b| {
            let da = (*a as f64 - x).abs();
            let db = (*b as f64 - x).abs();
            da.partial_cmp(&db).unwrap()
        })
        .unwrap()
        .max(4)
}

/// One square of the hierarchical partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    id: CellId,
    rect: Rect,
    depth: usize,
    expected_count: f64,
    parent: Option<usize>,
    children: Vec<usize>,
    members: Vec<usize>,
    leader: Option<usize>,
}

impl Cell {
    /// Identifier (path) of the cell.
    pub fn id(&self) -> &CellId {
        &self.id
    }

    /// Spatial extent of the cell.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Depth `r` of the cell (root = 0).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Expected sensor population `E#(□)` of the cell under uniform placement.
    pub fn expected_count(&self) -> f64 {
        self.expected_count
    }

    /// Index of the parent cell in the partition's cell arena, `None` for the
    /// root.
    pub fn parent(&self) -> Option<usize> {
        self.parent
    }

    /// Arena indices of the child cells (empty for leaves).
    pub fn children(&self) -> &[usize] {
        &self.children
    }

    /// Whether the cell is a leaf of the hierarchy.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Indices of the sensors located inside the cell, in ascending order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The leader `s(□)`: the member sensor closest to the cell center, if the
    /// cell is non-empty.
    pub fn leader(&self) -> Option<NodeId> {
        self.leader.map(NodeId)
    }
}

/// The hierarchical square partition of the unit square, with per-cell
/// membership and leaders.
///
/// Cells are stored in an arena (`Vec<Cell>`); index 0 is always the root.
///
/// # Example
///
/// ```
/// use geogossip_geometry::{PartitionConfig, SquarePartition};
/// use geogossip_geometry::sampling::sample_unit_square;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let pts = sample_unit_square(512, &mut ChaCha8Rng::seed_from_u64(2));
/// let part = SquarePartition::build(&pts, PartitionConfig::practical(pts.len()));
/// assert!(part.levels() >= 2);
/// let root = part.cell(0);
/// assert_eq!(root.members().len(), 512);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SquarePartition {
    cells: Vec<Cell>,
    config: PartitionConfig,
    /// `leaf_of[i]` is the arena index of the leaf cell containing sensor `i`.
    leaf_of: Vec<usize>,
    /// `level_of[i]` is the paper's level of sensor `i` (0 = ordinary sensor).
    level_of: Vec<usize>,
    /// Number of levels `ℓ = 1 + max depth`.
    levels: usize,
}

impl SquarePartition {
    /// Builds the partition for the given sensor positions.
    ///
    /// The branching factor at each level follows the paper: the integer
    /// nearest to the square root of the *expected* population that is the
    /// square of an even number. Splitting stops according to
    /// [`PartitionConfig`].
    pub fn build(points: &[Point], config: PartitionConfig) -> Self {
        let n = points.len();
        let root_expected = n as f64;
        let mut cells = vec![Cell {
            id: CellId::root(),
            rect: unit_square(),
            depth: 0,
            expected_count: root_expected,
            parent: None,
            children: Vec::new(),
            members: (0..n).collect(),
            leader: None,
        }];

        // Breadth-first expansion of the cell arena.
        let mut frontier = vec![0usize];
        while let Some(cell_idx) = frontier.pop() {
            let (expected, depth) = {
                let c = &cells[cell_idx];
                (c.expected_count, c.depth)
            };
            if !config.should_split(expected, depth) {
                continue;
            }
            let branch = nearest_even_square(expected.sqrt());
            let side = (branch as f64).sqrt().round() as usize;
            let child_rects = cells[cell_idx].rect.split_grid(side, side);
            let child_expected = expected / branch as f64;

            // Distribute members among children.
            let parent_rect = cells[cell_idx].rect;
            let members = std::mem::take(&mut cells[cell_idx].members);
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); branch];
            for &m in &members {
                let idx = parent_rect.grid_index_of(points[m], side, side);
                buckets[idx].push(m);
            }
            cells[cell_idx].members = members;

            let parent_id = cells[cell_idx].id.clone();
            for (child_pos, (rect, bucket)) in child_rects.into_iter().zip(buckets).enumerate() {
                let child_idx = cells.len();
                cells.push(Cell {
                    id: parent_id.child(child_pos as u32),
                    rect,
                    depth: depth + 1,
                    expected_count: child_expected,
                    parent: Some(cell_idx),
                    children: Vec::new(),
                    members: bucket,
                    leader: None,
                });
                cells[cell_idx].children.push(child_idx);
                frontier.push(child_idx);
            }
        }

        // Leaders: member nearest to the cell center.
        for cell in cells.iter_mut() {
            let center = cell.rect.center();
            cell.leader = cell
                .members
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    points[a]
                        .distance_squared(center)
                        .partial_cmp(&points[b].distance_squared(center))
                        .unwrap()
                })
                .filter(|_| !cell.members.is_empty());
        }

        let max_depth = cells.iter().map(|c| c.depth).max().unwrap_or(0);
        let levels = max_depth + 1;

        // Leaf assignment per sensor.
        let mut leaf_of = vec![0usize; n];
        for (idx, cell) in cells.iter().enumerate() {
            if cell.is_leaf() {
                for &m in &cell.members {
                    leaf_of[m] = idx;
                }
            }
        }

        // Level assignment: leader of a depth-r cell has level ℓ − r; ordinary
        // sensors have level 0. When a sensor leads several cells (possible at
        // small n although w.h.p. unique, Section 4.1), it keeps the highest
        // level; `leader_conflicts` reports how often this happens.
        let mut level_of = vec![0usize; n];
        for cell in &cells {
            if let Some(NodeId(leader)) = cell.leader() {
                let level = levels - cell.depth;
                if level > level_of[leader] {
                    level_of[leader] = level;
                }
            }
        }

        SquarePartition {
            cells,
            config,
            leaf_of,
            level_of,
            levels,
        }
    }

    /// The configuration the partition was built with.
    pub fn config(&self) -> PartitionConfig {
        self.config
    }

    /// Number of levels `ℓ = 1 + max cell depth` (the paper's `ℓ`).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Maximum cell depth (`ℓ − 1`).
    pub fn depth(&self) -> usize {
        self.levels - 1
    }

    /// Total number of cells in the hierarchy (including the root).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The cell stored at arena index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn cell(&self, idx: usize) -> &Cell {
        &self.cells[idx]
    }

    /// All cells, in arena order (root first, then breadth-first-ish).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Iterator over the leaf cells.
    pub fn leaves(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().filter(|c| c.is_leaf())
    }

    /// Iterator over `(arena index, cell)` pairs at a given depth.
    pub fn cells_at_depth(&self, depth: usize) -> impl Iterator<Item = (usize, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .filter(move |(_, c)| c.depth == depth)
    }

    /// Arena index of the leaf cell containing sensor `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the point set the partition was
    /// built from.
    pub fn leaf_of(&self, node: NodeId) -> usize {
        self.leaf_of[node.index()]
    }

    /// The paper's level of sensor `node` (0 for ordinary sensors, `ℓ` for the
    /// root leader).
    pub fn level_of(&self, node: NodeId) -> usize {
        self.level_of[node.index()]
    }

    /// The root leader `s(□)`, if any sensor exists.
    pub fn root_leader(&self) -> Option<NodeId> {
        self.cells[0].leader()
    }

    /// Number of sensors that lead more than one square.
    ///
    /// The paper argues this is zero w.h.p. because cell centers are well
    /// separated; at small `n` collisions can occur, and experiments report
    /// this count (experiment E10).
    pub fn leader_conflicts(&self) -> usize {
        let mut lead_count = std::collections::HashMap::new();
        for cell in &self.cells {
            if let Some(NodeId(l)) = cell.leader() {
                *lead_count.entry(l).or_insert(0usize) += 1;
            }
        }
        lead_count.values().filter(|&&c| c > 1).count()
    }

    /// Sibling cells of the cell at arena index `idx` (cells sharing its
    /// parent), excluding the cell itself. The root has no siblings.
    pub fn siblings(&self, idx: usize) -> Vec<usize> {
        match self.cells[idx].parent {
            None => Vec::new(),
            Some(p) => self.cells[p]
                .children
                .iter()
                .copied()
                .filter(|&c| c != idx)
                .collect(),
        }
    }

    /// Arena index of the depth-`depth` ancestor (or the cell itself when its
    /// depth equals `depth`).
    ///
    /// # Panics
    ///
    /// Panics if the cell is shallower than `depth`.
    pub fn ancestor_at_depth(&self, mut idx: usize, depth: usize) -> usize {
        assert!(
            self.cells[idx].depth >= depth,
            "cell at depth {} has no ancestor at depth {depth}",
            self.cells[idx].depth
        );
        while self.cells[idx].depth > depth {
            idx = self.cells[idx]
                .parent
                .expect("non-root cell must have a parent");
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::sample_unit_square;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build(n: usize, seed: u64) -> (Vec<Point>, SquarePartition) {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let part = SquarePartition::build(&pts, PartitionConfig::practical(n));
        (pts, part)
    }

    #[test]
    fn nearest_even_square_examples() {
        assert_eq!(nearest_even_square(4.0), 4);
        assert_eq!(nearest_even_square(16.0), 16);
        assert_eq!(nearest_even_square(32.0), 36);
        assert_eq!(nearest_even_square(20.0), 16);
        assert_eq!(nearest_even_square(100.0), 100);
        assert_eq!(nearest_even_square(0.5), 4);
    }

    #[test]
    fn root_contains_everything() {
        let (_, part) = build(300, 1);
        assert_eq!(part.cell(0).members().len(), 300);
        assert_eq!(part.cell(0).depth(), 0);
        assert!(part.cell(0).parent().is_none());
    }

    #[test]
    fn leaves_partition_the_sensors() {
        let (_, part) = build(777, 2);
        let total: usize = part.leaves().map(|c| c.members().len()).sum();
        assert_eq!(total, 777);
        // No sensor appears in two different leaves.
        let mut seen = vec![false; 777];
        for leaf in part.leaves() {
            for &m in leaf.members() {
                assert!(!seen[m], "sensor {m} in two leaves");
                seen[m] = true;
            }
        }
    }

    #[test]
    fn leaves_cover_the_unit_square_area() {
        let (_, part) = build(500, 3);
        let area: f64 = part.leaves().map(|c| c.rect().area()).sum();
        assert!((area - 1.0).abs() < 1e-9);
    }

    #[test]
    fn members_lie_inside_their_cells() {
        let (pts, part) = build(400, 4);
        for cell in part.cells() {
            for &m in cell.members() {
                assert!(cell.rect().contains(pts[m]), "sensor {m} outside its cell");
            }
        }
    }

    #[test]
    fn leader_is_member_closest_to_center() {
        let (pts, part) = build(600, 5);
        for cell in part.cells() {
            if let Some(leader) = cell.leader() {
                let c = cell.rect().center();
                let ld = pts[leader.index()].distance_squared(c);
                for &m in cell.members() {
                    assert!(pts[m].distance_squared(c) >= ld - 1e-15);
                }
            } else {
                assert!(cell.members().is_empty());
            }
        }
    }

    #[test]
    fn top_level_only_has_two_levels() {
        let pts = sample_unit_square(1000, &mut ChaCha8Rng::seed_from_u64(6));
        let part = SquarePartition::build(&pts, PartitionConfig::top_level_only(1000));
        assert_eq!(part.levels(), 2);
        // Top-level branching is the nearest even square to sqrt(1000) ~ 31.6 → 36.
        assert_eq!(part.cells_at_depth(1).count(), 36);
    }

    #[test]
    fn paper_faithful_threshold_gives_single_split_at_small_n() {
        let pts = sample_unit_square(2000, &mut ChaCha8Rng::seed_from_u64(7));
        let part = SquarePartition::build(&pts, PartitionConfig::paper_faithful(2000));
        // (ln 2000)^8 ≈ 1.1e7 > 2000, so not even the root splits... except the
        // root: should_split compares 2000 > 1.1e7 which is false, so the
        // hierarchy is trivial (a single cell).
        assert_eq!(part.levels(), 1);
        assert_eq!(part.num_cells(), 1);
    }

    #[test]
    fn practical_config_recurses_at_moderate_n() {
        let (_, part) = build(4096, 8);
        assert!(
            part.levels() >= 3,
            "expected at least 3 levels, got {}",
            part.levels()
        );
    }

    #[test]
    fn members_are_in_ascending_order() {
        let (_, part) = build(350, 9);
        for cell in part.cells() {
            assert!(cell.members().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn leaf_of_is_consistent_with_membership() {
        let (_, part) = build(350, 9);
        for (idx, cell) in part.cells().iter().enumerate() {
            if cell.is_leaf() {
                for &m in cell.members() {
                    assert_eq!(part.leaf_of(NodeId(m)), idx);
                }
            }
        }
    }

    #[test]
    fn levels_assigned_consistently() {
        let (_, part) = build(800, 10);
        let levels = part.levels();
        // Root leader has the top level.
        let root_leader = part.root_leader().unwrap();
        assert_eq!(part.level_of(root_leader), levels);
        // Every level is at most ℓ.
        for i in 0..800 {
            assert!(part.level_of(NodeId(i)) <= levels);
        }
        // Some ordinary sensors exist at level 0.
        assert!((0..800).any(|i| part.level_of(NodeId(i)) == 0));
    }

    #[test]
    fn ancestor_at_depth_walks_up() {
        let (_, part) = build(2048, 11);
        let leaf_idx = part
            .cells()
            .iter()
            .enumerate()
            .find(|(_, c)| c.is_leaf() && c.depth() >= 2)
            .map(|(i, _)| i)
            .expect("expected a leaf at depth >= 2");
        let anc = part.ancestor_at_depth(leaf_idx, 1);
        assert_eq!(part.cell(anc).depth(), 1);
        let root = part.ancestor_at_depth(leaf_idx, 0);
        assert_eq!(root, 0);
    }

    #[test]
    fn siblings_share_parent() {
        let (_, part) = build(900, 12);
        let child = part.cell(0).children()[0];
        let sibs = part.siblings(child);
        assert!(!sibs.is_empty());
        for s in sibs {
            assert_eq!(part.cell(s).parent(), Some(0));
        }
        assert!(part.siblings(0).is_empty());
    }

    #[test]
    fn empty_point_set_builds_trivial_partition() {
        let part = SquarePartition::build(&[], PartitionConfig::practical(0));
        assert_eq!(part.num_cells(), 1);
        assert!(part.root_leader().is_none());
        assert_eq!(part.levels(), 1);
    }

    #[test]
    fn cell_id_navigation() {
        let id = CellId::root().child(2).child(5);
        assert_eq!(id.depth(), 2);
        assert_eq!(id.parent().unwrap(), CellId::root().child(2));
        assert_eq!(CellId::root().parent(), None);
        assert_eq!(format!("{}", CellId::root()), "□");
    }

    #[test]
    fn expected_counts_telescope() {
        let (_, part) = build(4096, 13);
        for cell in part.cells() {
            if !cell.is_leaf() {
                let child_sum: f64 = cell
                    .children()
                    .iter()
                    .map(|&c| part.cell(c).expected_count())
                    .sum();
                assert!((child_sum - cell.expected_count()).abs() < 1e-6);
            }
        }
    }
}
