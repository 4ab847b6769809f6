//! Uniform spatial grid (spatial hash) over the unit square.
//!
//! Geometric-random-graph construction and greedy geographic routing both need
//! "all sensors within distance `r` of position `p`" queries. A uniform grid
//! with cell side `≥ r` answers these by scanning only the small block of
//! cells around `p`, which is expected `O(1)` work per reported neighbor when
//! points are uniform — exactly the regime of the paper.
//!
//! The grid stores its buckets in a flat CSR-style layout (one offset array
//! plus one concatenated entry array, built by counting sort) instead of a
//! `Vec<Vec<usize>>`: construction is two linear passes with exactly two heap
//! allocations regardless of `n`, and bucket scans stream contiguous memory.
//! The cell count is additionally capped at `O(n)` (see
//! [`UniformGrid::build`]), so a tiny-but-valid radius can never allocate an
//! unbounded number of empty cells.

use crate::point::{NodeId, Point};
use crate::rect::Rect;
use crate::topology::wrap_delta;
use serde::{Deserialize, Serialize};

/// Cell-count cap: the grid never allocates more than `max(1024, 4·n)` cells.
///
/// Cells only ever *grow* when the cap binds (fewer, larger cells), so
/// radius-`r` queries stay complete; the cap merely stops a radius far below
/// the point spacing (e.g. `1e-7`) from requesting `~10¹⁴` empty cells.
const MIN_CELL_CAP: usize = 1024;

/// A spatial hash of point indices over a bounding rectangle.
///
/// The grid stores *indices* into the caller's position slice rather than the
/// positions themselves, so it can be kept alongside whatever per-node state a
/// protocol needs.
///
/// # Example
///
/// ```
/// use geogossip_geometry::{Point, UniformGrid, unit_square};
/// let pts = vec![Point::new(0.1, 0.1), Point::new(0.12, 0.11), Point::new(0.9, 0.9)];
/// let grid = UniformGrid::build(unit_square(), &pts, 0.05);
/// let near: Vec<_> = grid.neighbors_within(&pts, Point::new(0.1, 0.1), 0.05).collect();
/// assert_eq!(near.len(), 2); // the two clustered points, not the far one
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UniformGrid {
    bounds: Rect,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
    /// `entries[bucket_offsets[c] .. bucket_offsets[c + 1]]` lists the indices
    /// of the points in cell `c` (row-major), ascending by point index.
    bucket_offsets: Vec<u32>,
    /// Concatenated per-cell point-index lists.
    entries: Vec<u32>,
    len: usize,
}

impl UniformGrid {
    /// Builds a grid over `bounds` containing every point of `points`.
    ///
    /// `cell_side` is a *lower bound* on the side length of a grid cell; the
    /// actual side is `bounds.side / cols` with
    /// `cols ≤ floor(bounds.side / cell_side)`, so the grid tiles the bounds
    /// exactly and radius-`r` queries are complete whenever `cell_side ≥ r`.
    ///
    /// The total cell count is capped at `max(1024, 4·points.len())`: when
    /// `cell_side` is far below the point spacing the grid uses fewer, larger
    /// cells rather than allocating memory proportional to `1 / cell_side²`.
    /// Larger cells keep queries complete (only their cost degrades, and only
    /// in the regime where the graph is empty anyway).
    ///
    /// # Panics
    ///
    /// Panics if `cell_side` is not strictly positive or not finite, or if
    /// `points.len()` exceeds `u32::MAX` (entries are stored as `u32`).
    pub fn build(bounds: Rect, points: &[Point], cell_side: f64) -> Self {
        assert!(
            cell_side.is_finite() && cell_side > 0.0,
            "grid cell side must be positive and finite"
        );
        assert!(
            points.len() <= u32::MAX as usize,
            "grid entries are stored as u32"
        );
        let mut cols = ((bounds.width() / cell_side).floor() as usize).max(1);
        let mut rows = ((bounds.height() / cell_side).floor() as usize).max(1);
        let cap = MIN_CELL_CAP.max(4 * points.len());
        if cols.saturating_mul(rows) > cap {
            // Shrink both axes by the same factor so cells stay near-square;
            // fewer cells means larger cells, which preserves completeness.
            let scale = (cap as f64 / (cols as f64 * rows as f64)).sqrt();
            cols = ((cols as f64 * scale).floor() as usize).max(1);
            rows = ((rows as f64 * scale).floor() as usize).max(1);
            // For extremely anisotropic bounds the sqrt shrink can clamp one
            // axis at 1 while the other still exceeds the cap; enforce the
            // invariant axis-by-axis so `cols × rows ≤ cap` always holds.
            cols = cols.min(cap);
            rows = rows.min((cap / cols).max(1));
        }
        let cell_w = bounds.width() / cols as f64;
        let cell_h = bounds.height() / rows as f64;

        // Counting sort: per-cell counts, exclusive prefix sum, then scatter.
        // Scattering in point order leaves every bucket ascending by index.
        let cell_count = cols * rows;
        let mut bucket_offsets = vec![0u32; cell_count + 1];
        for &p in points {
            bucket_offsets[bounds.grid_index_of(p, cols, rows) + 1] += 1;
        }
        for c in 0..cell_count {
            bucket_offsets[c + 1] += bucket_offsets[c];
        }
        let mut cursor: Vec<u32> = bucket_offsets[..cell_count].to_vec();
        let mut entries = vec![0u32; points.len()];
        for (i, &p) in points.iter().enumerate() {
            let cell = bounds.grid_index_of(p, cols, rows);
            entries[cursor[cell] as usize] = i as u32;
            cursor[cell] += 1;
        }

        UniformGrid {
            bounds,
            cols,
            rows,
            cell_w,
            cell_h,
            bucket_offsets,
            entries,
            len: points.len(),
        }
    }

    /// Number of points indexed by the grid.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid indexes no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells (`cols × rows`); bounded by
    /// `max(1024, 4·len)` — the construction invariant that keeps tiny radii
    /// from allocating unbounded memory.
    pub fn cell_count(&self) -> usize {
        self.cols * self.rows
    }

    /// The bounding rectangle the grid was built over.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The concatenated per-cell point-index lists, cell-major: the slot
    /// range of cell `(col, row)` is [`UniformGrid::cell_range`]. Callers
    /// that stream candidates (the graph build) mirror the *positions* into
    /// this order once, so distance checks read memory sequentially instead
    /// of gathering `points[j]` per candidate.
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Slot range (into [`UniformGrid::entries`]) of cell `(col, row)`.
    #[inline]
    pub fn cell_range(&self, col: usize, row: usize) -> std::ops::Range<usize> {
        let cell = row * self.cols + col;
        self.bucket_offsets[cell] as usize..self.bucket_offsets[cell + 1] as usize
    }

    /// The point indices bucketed in cell `(col, row)`, ascending.
    #[inline]
    fn cell_points(&self, col: usize, row: usize) -> &[u32] {
        &self.entries[self.cell_range(col, row)]
    }

    /// Column of the cell containing x-coordinate `x`, *unclamped*: queries
    /// left of the bounds yield negative values, queries right of the bounds
    /// yield values `≥ cols`. Uses the same normalisation as
    /// [`Rect::grid_index_of`] so in-bounds points agree with their bucket.
    #[inline]
    fn col_of_unclamped(&self, x: f64) -> isize {
        (((x - self.bounds.min().x) / self.bounds.width()) * self.cols as f64).floor() as isize
    }

    /// Row counterpart of [`UniformGrid::col_of_unclamped`].
    #[inline]
    fn row_of_unclamped(&self, y: f64) -> isize {
        (((y - self.bounds.min().y) / self.bounds.height()) * self.rows as f64).floor() as isize
    }

    /// Calls `f` with the entry-slot range ([`UniformGrid::entries`] /
    /// [`UniformGrid::cell_range`]) of every cell that can contain a point
    /// within Euclidean distance `radius` of `query`.
    ///
    /// The candidate block is exact (`±ceil(r / cell_side)` cells around the
    /// query's unclamped cell, clipped to the grid), so an in-range query
    /// visits at most a 3×3 block when the grid was built with
    /// `cell_side ≥ radius`. Out-of-bounds queries are handled without
    /// clamping slack: the block is computed from the query's virtual cell.
    #[inline]
    pub fn for_each_candidate_range(
        &self,
        query: Point,
        radius: f64,
        mut f: impl FnMut(std::ops::Range<usize>),
    ) {
        let (row_lo, row_end) = clip_window(
            self.row_of_unclamped(query.y),
            (radius / self.cell_h).ceil() as isize,
            self.rows,
        );
        let (col_lo, col_end) = clip_window(
            self.col_of_unclamped(query.x),
            (radius / self.cell_w).ceil() as isize,
            self.cols,
        );
        if col_lo >= col_end {
            return;
        }
        for row in row_lo..row_end {
            // Adjacent columns of one grid row are adjacent slot ranges, so
            // the whole row of candidate cells is a single contiguous range.
            f(self.cell_range(col_lo, row).start..self.cell_range(col_end - 1, row).end);
        }
    }

    /// Calls `f` with the entry-slot ranges that together hold every cell
    /// that can contain a point within *wrapped* (torus) distance `radius`
    /// of `query`, each cell's slots **at most once**.
    ///
    /// The candidate block is the wrapped window of `±ceil(r / cell_side)`
    /// cells around the query's cell, enumerated as wrapped cell coordinates
    /// (`(qcol + d) mod cols`) instead of periodic images of the point, so a
    /// bucket — and therefore a point — can never be reported through two
    /// images: the per-row dedup of torus adjacency holds by construction,
    /// even at radii approaching `1/2`. Like
    /// [`UniformGrid::for_each_candidate_range`], each grid row of the window
    /// is handed over as whole column runs: one slot range where the window
    /// stays clear of the seam or spans every column, two where it crosses
    /// the seam. A query at the graph build's `r/3` cells therefore hands
    /// its 49 cells over as 7–14 ranges. The grid must have been built over
    /// the unit square (the only surface the torus metric is defined on).
    #[inline]
    pub fn for_each_candidate_range_torus(
        &self,
        query: Point,
        radius: f64,
        f: impl FnMut(std::ops::Range<usize>),
    ) {
        self.torus_runs(query, radius).for_each(f);
    }

    /// The slot ranges behind [`UniformGrid::for_each_candidate_range_torus`]:
    /// per wrapped window row, one range per wrapped column run
    /// ([`wrapped_runs`]).
    #[inline]
    fn torus_runs(
        &self,
        query: Point,
        radius: f64,
    ) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        debug_assert!(
            self.bounds.min() == Point::new(0.0, 0.0) && self.bounds.max() == Point::new(1.0, 1.0),
            "torus queries require a unit-square grid"
        );
        let col_runs = wrapped_runs(
            self.col_of_unclamped(query.x),
            (radius / self.cell_w).ceil() as isize,
            self.cols,
        );
        let row_runs = wrapped_runs(
            self.row_of_unclamped(query.y),
            (radius / self.cell_h).ceil() as isize,
            self.rows,
        );
        row_runs.into_iter().flatten().flat_map(move |row| {
            col_runs
                .clone()
                .into_iter()
                .filter(|run| !run.is_empty())
                .map(move |run| {
                    self.cell_range(run.start, row).start..self.cell_range(run.end - 1, row).end
                })
        })
    }

    /// Iterates over the indices of all points within Euclidean distance
    /// `radius` of `query` (excluding points at distance strictly greater than
    /// `radius`; a point coincident with `query` *is* reported).
    ///
    /// `points` must be the same slice the grid was built from.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `points.len()` differs from the length the
    /// grid was built with.
    pub fn neighbors_within<'a>(
        &'a self,
        points: &'a [Point],
        query: Point,
        radius: f64,
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(
            points.len(),
            self.len,
            "grid built over a different point set"
        );
        let r2 = radius * radius;
        let (row_lo, row_end) = clip_window(
            self.row_of_unclamped(query.y),
            (radius / self.cell_h).ceil() as isize,
            self.rows,
        );
        let (col_lo, col_end) = clip_window(
            self.col_of_unclamped(query.x),
            (radius / self.cell_w).ceil() as isize,
            self.cols,
        );
        (row_lo..row_end)
            .flat_map(move |row| {
                (col_lo..col_end).flat_map(move |col| self.cell_points(col, row).iter().copied())
            })
            .map(|i| i as usize)
            .filter(move |&i| points[i].distance_squared(query) <= r2)
    }

    /// Returns the index of the point nearest to `query` under the Euclidean
    /// metric, or `None` when the grid is empty.
    ///
    /// This is the primitive behind both greedy geographic routing ("node
    /// nearest to the random target position") and leader election ("sensor
    /// closest to the center of the square", Definition 1 of the paper). The
    /// search expands ring by ring outward from the query's cell, so the cost
    /// is proportional to the local point density rather than `n`.
    pub fn nearest(&self, points: &[Point], query: Point) -> Option<usize> {
        debug_assert_eq!(
            points.len(),
            self.len,
            "grid built over a different point set"
        );
        if self.len == 0 {
            return None;
        }
        let qc = self.bounds.grid_index_of(query, self.cols, self.rows);
        let (qcol, qrow) = (qc % self.cols, qc / self.cols);
        let mut best: Option<(usize, f64)> = None;
        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            // Once a candidate is found, one extra ring is enough to be exact:
            // any closer point must lie within `best_dist` of the query, and a
            // ring at Chebyshev distance `ring` is at Euclidean distance at
            // least `(ring - 1) * min(cell_w, cell_h)` from the query point.
            if let Some((_, best_d2)) = best {
                let ring_clearance = (ring as f64 - 1.0).max(0.0) * self.cell_w.min(self.cell_h);
                if ring_clearance * ring_clearance > best_d2 {
                    break;
                }
            }
            for (col, row) in ring_cells(qcol, qrow, ring, self.cols, self.rows) {
                for &i in self.cell_points(col, row) {
                    let d2 = points[i as usize].distance_squared(query);
                    if best.is_none_or(|(_, bd)| d2 < bd) {
                        best = Some((i as usize, d2));
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Returns the index of the point nearest to `query` under the *wrapped*
    /// (torus) metric, or `None` when the grid is empty.
    ///
    /// Rings wrap around the grid instead of being clipped at its edges, so a
    /// query near the seam finds its true wrapped-nearest point. The same
    /// clearance argument as [`UniformGrid::nearest`] applies: a cell at
    /// wrapped Chebyshev ring `k` is first visited at ring `k`, and its points
    /// are at wrapped distance at least `(k − 1)·min(cell_w, cell_h)`.
    pub fn nearest_torus(&self, points: &[Point], query: Point) -> Option<usize> {
        debug_assert_eq!(
            points.len(),
            self.len,
            "grid built over a different point set"
        );
        if self.len == 0 {
            return None;
        }
        let qc = self.bounds.grid_index_of(query, self.cols, self.rows);
        let (qcol, qrow) = (qc % self.cols, qc / self.cols);
        let mut best: Option<(usize, f64)> = None;
        // Every cell is within wrapped Chebyshev distance ceil(extent / 2).
        let max_ring = self.cols.max(self.rows).div_ceil(2);
        for ring in 0..=max_ring {
            if let Some((_, best_d2)) = best {
                let ring_clearance = (ring as f64 - 1.0).max(0.0) * self.cell_w.min(self.cell_h);
                if ring_clearance * ring_clearance > best_d2 {
                    break;
                }
            }
            for (col, row) in ring_cells_torus(qcol, qrow, ring, self.cols, self.rows) {
                for &i in self.cell_points(col, row) {
                    let dx = wrap_delta(points[i as usize].x - query.x);
                    let dy = wrap_delta(points[i as usize].y - query.y);
                    let d2 = dx * dx + dy * dy;
                    if best.is_none_or(|(_, bd)| d2 < bd) {
                        best = Some((i as usize, d2));
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Convenience wrapper around [`UniformGrid::nearest`] returning a
    /// [`NodeId`].
    pub fn nearest_node(&self, points: &[Point], query: Point) -> Option<NodeId> {
        self.nearest(points, query).map(NodeId)
    }
}

/// Clips the window `base ± span` to `[0, extent)`, returned as a half-open
/// `(lo, end)` range (empty as `(0, 0)` when the window misses the axis).
#[inline]
fn clip_window(base: isize, span: isize, extent: usize) -> (usize, usize) {
    let lo = (base - span).max(0);
    let end = (base + span + 1).min(extent as isize);
    if end <= lo {
        (0, 0)
    } else {
        (lo as usize, end as usize)
    }
}

/// The wrapped window `base ± span` on an axis of `extent` cells, as two
/// disjoint runs of coordinates (the second possibly empty): the whole axis
/// when the window is at least as wide, one run when the window stays clear
/// of the seam, and the runs on either side of the seam when it crosses it.
/// No coordinate appears twice — the structural guarantee that a torus query
/// reports each cell at most once.
#[inline]
fn wrapped_runs(base: isize, span: isize, extent: usize) -> [std::ops::Range<usize>; 2] {
    let width = span.saturating_mul(2).saturating_add(1);
    if width >= extent as isize {
        return [0..extent, 0..0];
    }
    let lo = (base - span).rem_euclid(extent as isize) as usize;
    let end = lo + width as usize;
    if end <= extent {
        [lo..end, 0..0]
    } else {
        [lo..extent, 0..end - extent]
    }
}

/// Cells at Chebyshev distance exactly `ring` from `(qcol, qrow)`, clipped to
/// the grid.
fn ring_cells(
    qcol: usize,
    qrow: usize,
    ring: usize,
    cols: usize,
    rows: usize,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let (qcol, qrow, ring) = (qcol as isize, qrow as isize, ring as isize);
    let in_bounds =
        |c: isize, r: isize| c >= 0 && r >= 0 && (c as usize) < cols && (r as usize) < rows;
    if ring == 0 {
        if in_bounds(qcol, qrow) {
            out.push((qcol as usize, qrow as usize));
        }
        return out;
    }
    for dc in -ring..=ring {
        for &dr in &[-ring, ring] {
            if in_bounds(qcol + dc, qrow + dr) {
                out.push(((qcol + dc) as usize, (qrow + dr) as usize));
            }
        }
    }
    for dr in (-ring + 1)..ring {
        for &dc in &[-ring, ring] {
            if in_bounds(qcol + dc, qrow + dr) {
                out.push(((qcol + dc) as usize, (qrow + dr) as usize));
            }
        }
    }
    out
}

/// Cells at Chebyshev distance exactly `ring` from `(qcol, qrow)` with
/// wrap-around, deduplicated (wrapping can fold several ring positions onto
/// one cell once `2·ring + 1` exceeds an axis extent).
fn ring_cells_torus(
    qcol: usize,
    qrow: usize,
    ring: usize,
    cols: usize,
    rows: usize,
) -> Vec<(usize, usize)> {
    if ring == 0 {
        return vec![(qcol, qrow)];
    }
    let mut out = Vec::new();
    let (qcol, qrow, ring) = (qcol as isize, qrow as isize, ring as isize);
    let (cols, rows) = (cols as isize, rows as isize);
    let mut push = |c: isize, r: isize| {
        out.push((c.rem_euclid(cols) as usize, r.rem_euclid(rows) as usize));
    };
    for dc in -ring..=ring {
        push(qcol + dc, qrow - ring);
        push(qcol + dc, qrow + ring);
    }
    for dr in (-ring + 1)..ring {
        push(qcol - ring, qrow + dr);
        push(qcol + ring, qrow + dr);
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::sample_unit_square;
    use crate::topology::Topology;
    use crate::unit_square;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn brute_force_within(points: &[Point], q: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(q) <= r)
            .map(|(i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    fn brute_force_within_torus(points: &[Point], q: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| Topology::Torus.distance(**p, q) <= r)
            .map(|(i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn neighbors_match_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let pts = sample_unit_square(500, &mut rng);
        let grid = UniformGrid::build(unit_square(), &pts, 0.08);
        for &q in pts.iter().step_by(37) {
            let mut got: Vec<usize> = grid.neighbors_within(&pts, q, 0.08).collect();
            got.sort_unstable();
            assert_eq!(got, brute_force_within(&pts, q, 0.08));
        }
    }

    #[test]
    fn torus_neighbors_match_brute_force_and_never_duplicate() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let pts = sample_unit_square(400, &mut rng);
        for radius in [0.03, 0.11, 0.3, 0.49] {
            let grid = UniformGrid::build(unit_square(), &pts, radius);
            for &q in pts.iter().step_by(29) {
                // The graph build's query: the candidate ranges, then the
                // wrapped-distance filter.
                let mut got = Vec::new();
                grid.for_each_candidate_range_torus(q, radius, |run| {
                    for &i in &grid.entries()[run] {
                        let p = pts[i as usize];
                        let (dx, dy) = (wrap_delta(p.x - q.x), wrap_delta(p.y - q.y));
                        if dx * dx + dy * dy <= radius * radius {
                            got.push(i as usize);
                        }
                    }
                });
                let mut sorted = got.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), got.len(), "duplicate reports at r={radius}");
                assert_eq!(sorted, brute_force_within_torus(&pts, q, radius));
            }
        }
    }

    #[test]
    fn torus_ranges_cover_the_wrapped_window_once_in_row_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let pts = sample_unit_square(600, &mut rng);
        let edge = [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0];
        let mut queries: Vec<Point> = edge
            .iter()
            .flat_map(|&x| edge.iter().map(move |&y| Point::new(x, y)))
            .collect();
        queries.extend(pts.iter().step_by(53).copied());
        let mut spans_every_column = false;
        for radius in [0.01, 0.03, 0.07, 0.11, 0.2, 0.3, 0.41, 0.49] {
            // The graph build's cell side, and one cell per radius.
            for cell_side in [radius / 3.0, radius] {
                let grid = UniformGrid::build(unit_square(), &pts, cell_side);
                let col_span = (radius / grid.cell_w).ceil() as isize;
                let row_span = (radius / grid.cell_h).ceil() as isize;
                let (cols, rows) = (grid.cols as isize, grid.rows as isize);
                spans_every_column |= 2 * col_span + 1 >= cols;
                for &q in &queries {
                    let (qcol, qrow) = (grid.col_of_unclamped(q.x), grid.row_of_unclamped(q.y));
                    let mut want: Vec<usize> = (-row_span..=row_span)
                        .flat_map(|dr| (-col_span..=col_span).map(move |dc| (dc, dr)))
                        .map(|(dc, dr)| {
                            let col = (qcol + dc).rem_euclid(cols) as usize;
                            let row = (qrow + dr).rem_euclid(rows) as usize;
                            row * grid.cols + col
                        })
                        .collect();
                    want.sort_unstable();
                    want.dedup();
                    let want: Vec<usize> = want
                        .into_iter()
                        .flat_map(|cell| grid.cell_range(cell % grid.cols, cell / grid.cols))
                        .collect();
                    let mut got = Vec::new();
                    let mut calls = 0;
                    grid.for_each_candidate_range_torus(q, radius, |range| {
                        calls += 1;
                        got.extend(range);
                    });
                    let window_rows = (2 * row_span + 1).min(rows) as usize;
                    assert!(
                        calls <= 2 * window_rows,
                        "{calls} ranges for {window_rows} window rows at r={radius}, q={q}"
                    );
                    let handed = got.len();
                    got.sort_unstable();
                    got.dedup();
                    assert_eq!(got.len(), handed, "overlapping ranges at r={radius}, q={q}");
                    assert_eq!(got, want, "window slots differ at r={radius}, q={q}");
                }
            }
        }
        assert!(spans_every_column, "no window spanned every column");
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let pts = sample_unit_square(300, &mut rng);
        let grid = UniformGrid::build(unit_square(), &pts, 0.05);
        for &q in &[
            Point::new(0.5, 0.5),
            Point::new(0.01, 0.99),
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.3333, 0.7777),
        ] {
            let got = grid.nearest(&pts, q).unwrap();
            let want = pts
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.distance_squared(q)
                        .partial_cmp(&b.1.distance_squared(q))
                        .unwrap()
                })
                .map(|(i, _)| i)
                .unwrap();
            assert!(
                (pts[got].distance(q) - pts[want].distance(q)).abs() < 1e-12,
                "nearest mismatch at {q}"
            );
        }
    }

    #[test]
    fn nearest_torus_matches_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let pts = sample_unit_square(300, &mut rng);
        let grid = UniformGrid::build(unit_square(), &pts, 0.05);
        for &q in &[
            Point::new(0.005, 0.5),
            Point::new(0.995, 0.5),
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.5, 0.001),
            Point::new(0.62, 0.97),
        ] {
            let got = grid.nearest_torus(&pts, q).unwrap();
            let want = pts
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    Topology::Torus
                        .distance_squared(*a.1, q)
                        .partial_cmp(&Topology::Torus.distance_squared(*b.1, q))
                        .unwrap()
                })
                .map(|(i, _)| i)
                .unwrap();
            assert!(
                (Topology::Torus.distance(pts[got], q) - Topology::Torus.distance(pts[want], q))
                    .abs()
                    < 1e-12,
                "wrapped nearest mismatch at {q}"
            );
        }
    }

    #[test]
    fn empty_grid_has_no_nearest() {
        let grid = UniformGrid::build(unit_square(), &[], 0.1);
        assert!(grid.nearest(&[], Point::new(0.5, 0.5)).is_none());
        assert!(grid.nearest_torus(&[], Point::new(0.5, 0.5)).is_none());
        assert!(grid.is_empty());
    }

    #[test]
    fn single_point_is_always_nearest() {
        let pts = vec![Point::new(0.25, 0.75)];
        let grid = UniformGrid::build(unit_square(), &pts, 0.1);
        assert_eq!(grid.nearest(&pts, Point::new(0.9, 0.1)), Some(0));
        assert_eq!(
            grid.nearest_node(&pts, Point::new(0.9, 0.1)),
            Some(NodeId(0))
        );
    }

    #[test]
    fn grid_dimensions_respect_cell_side() {
        let grid = UniformGrid::build(unit_square(), &[], 0.26);
        // floor(1.0 / 0.26) = 3 columns/rows of side 1/3 >= 0.26.
        assert_eq!(grid.cols(), 3);
        assert_eq!(grid.rows(), 3);
        assert_eq!(grid.cell_count(), 9);
    }

    #[test]
    fn tiny_cell_side_is_capped_at_order_n_cells() {
        // Without the cap this would request ~10^14 cells and abort.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let pts = sample_unit_square(100, &mut rng);
        let grid = UniformGrid::build(unit_square(), &pts, 1e-7);
        assert!(
            grid.cell_count() <= 1024,
            "cap violated: {} cells",
            grid.cell_count()
        );
        // Queries remain complete despite the coarser cells.
        let q = pts[17];
        let got: Vec<usize> = grid.neighbors_within(&pts, q, 1e-7).collect();
        assert_eq!(got, brute_force_within(&pts, q, 1e-7));
    }

    #[test]
    fn cap_holds_for_anisotropic_bounds() {
        // The sqrt shrink alone can clamp one axis at 1 while the other still
        // exceeds the cap; the axis-by-axis clamp must keep the invariant.
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 1e-4));
        let grid = UniformGrid::build(bounds, &[], 1e-9);
        assert!(
            grid.cell_count() <= 1024,
            "cap violated: {} cells",
            grid.cell_count()
        );
    }

    #[test]
    fn cap_scales_with_point_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let pts = sample_unit_square(2000, &mut rng);
        let grid = UniformGrid::build(unit_square(), &pts, 1e-9);
        assert!(grid.cell_count() <= 4 * pts.len());
        assert!(grid.cell_count() > 1024);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_zero_cell_side() {
        let _ = UniformGrid::build(unit_square(), &[], 0.0);
    }

    #[test]
    fn ring_cells_cover_square_annulus() {
        let cells = ring_cells(5, 5, 2, 11, 11);
        // A full ring at Chebyshev distance 2 has 16 cells.
        assert_eq!(cells.len(), 16);
        assert!(cells.iter().all(|&(c, r)| {
            let dc = (c as isize - 5).abs();
            let dr = (r as isize - 5).abs();
            dc.max(dr) == 2
        }));
    }

    #[test]
    fn torus_ring_cells_wrap_and_dedup() {
        // Full ring away from the seam: same 16 cells as the clipped version.
        let cells = ring_cells_torus(5, 5, 2, 11, 11);
        assert_eq!(cells.len(), 16);
        // Ring at the corner wraps instead of clipping: still 16 distinct.
        let wrapped = ring_cells_torus(0, 0, 2, 11, 11);
        assert_eq!(wrapped.len(), 16);
        // Ring wider than the grid folds onto itself without duplicates.
        let folded = ring_cells_torus(1, 1, 2, 3, 3);
        let mut sorted = folded.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(folded.len(), sorted.len());
        assert!(folded.iter().all(|&(c, r)| c < 3 && r < 3));
    }
}
