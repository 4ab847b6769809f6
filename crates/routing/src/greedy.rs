//! Greedy geographic routing.
//!
//! A packet at node `u` headed for target position `t` is forwarded to the
//! neighbor of `u` that is closest to `t`, provided that neighbor is strictly
//! closer to `t` than `u` itself; otherwise the packet stops. On a geometric
//! random graph at the connectivity radius this succeeds w.h.p. and uses
//! `O(sqrt(n / log n))` hops (Dimakis et al., cited as \[5\]; the paper uses the
//! coarser `O(√n)` bound). Experiment E5 measures the constant.
//!
//! "Closest" is measured in the metric of the [`Topology`] the graph was
//! built with: Euclidean on the unit square, wrapped distance on the torus.
//! A torus packet therefore routes *across* the seam when that is shorter,
//! matching the adjacency (which also wraps) instead of fighting it.
//!
//! # Fast path vs. path-recording API
//!
//! The gossip protocols route twice per clock tick and only need the terminus
//! and the hop count, so the hot entry points ([`route_terminus`],
//! [`route_terminus_to_node`], [`round_trip`]) are **allocation-free**: the
//! greedy walk scans each hop's packed neighbor row (coordinates and indices
//! in one contiguous block) and carries only scalars. The path-recording API
//! ([`route_to_position`], [`route_to_node`], and the scratch-buffer variant
//! [`route_to_position_into`]) wraps the same walk for experiments that
//! inspect the actual path.
//!
//! The per-hop argmin is a two-pass filtered scan: pass 1 streams the
//! graph's half-width `f32` scan mirror (8 bytes/neighbor — the walk is
//! memory-bound at large `n`) through a chunked, unrolled multi-accumulator
//! min-reduction the compiler vectorizes (`min_d2_scan`); pass 2 confirms
//! the few neighbors inside a provably conservative error window with exact
//! `f64` distances, so the selected hop is **bit-identical** to the
//! preserved all-`f64` scalar walk ([`route_terminus_reference`]) — including
//! tie-breaking, which always selects the **lowest neighbor index** among
//! equidistant neighbors (CSR rows are sorted, and both walks resolve ties
//! to the first occurrence).

use geogossip_geometry::point::NodeId;
use geogossip_geometry::topology::wrap_delta;
use geogossip_geometry::{Point, Topology};
use geogossip_graph::GeometricGraph;
use serde::{Deserialize, Serialize};

/// Result of routing one packet.
///
/// `transmissions` counts one transmission per hop actually taken; a routing
/// round-trip (request out, reply back) therefore costs
/// `2 × transmissions` when both directions succeed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteOutcome {
    /// The node the packet started at.
    pub source: NodeId,
    /// The node the packet stopped at.
    pub terminus: NodeId,
    /// Whether the packet reached the intended destination.
    pub delivered: bool,
    /// Number of hops taken (= transmissions used).
    pub hops: usize,
    /// The full path, including source and terminus.
    pub path: Vec<NodeId>,
}

impl RouteOutcome {
    /// Number of one-hop transmissions consumed by this routing.
    pub fn transmissions(&self) -> usize {
        self.hops
    }
}

/// Result of the allocation-free greedy walk: terminus and hop count only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FastRoute {
    /// The node the packet started at.
    pub source: NodeId,
    /// The node the packet stopped at.
    pub terminus: NodeId,
    /// Number of hops taken (= transmissions used).
    pub hops: usize,
}

impl FastRoute {
    /// Number of one-hop transmissions consumed by this routing.
    pub fn transmissions(&self) -> usize {
        self.hops
    }
}

/// Squared distance-to-target from raw coordinate deltas. Implementations are
/// zero-sized tokens, so the walk monomorphises into one tight loop per
/// metric: the unit-square loop is exactly the historical branch-free scan,
/// and the torus loop folds each delta through [`wrap_delta`] inline. The
/// `f32` companion backs the half-width approximate scan pass
/// ([`min_d2_scan`]); its torus fold is branch-free (`min`-of-two) so the
/// pass vectorizes on both metrics.
trait RouteMetric: Copy {
    /// Squared distance corresponding to coordinate deltas `(dx, dy)`.
    fn d2(self, dx: f64, dy: f64) -> f64;

    /// `f32` squared distance for the approximate scan pass. Must track
    /// [`RouteMetric::d2`] within [`SCAN_ABS_ERROR`] for deltas produced by
    /// unit-square coordinates rounded to `f32`.
    fn d2_f32(self, dx: f32, dy: f32) -> f32;
}

/// Plain Euclidean metric — the paper's unit-square model.
#[derive(Clone, Copy)]
struct EuclideanMetric;

impl RouteMetric for EuclideanMetric {
    #[inline(always)]
    fn d2(self, dx: f64, dy: f64) -> f64 {
        dx * dx + dy * dy
    }

    #[inline(always)]
    fn d2_f32(self, dx: f32, dy: f32) -> f32 {
        dx * dx + dy * dy
    }
}

/// Wrapped (torus) metric: per-axis deltas fold onto `[0, 1/2]` before
/// squaring, so a target across the seam is correctly seen as close.
#[derive(Clone, Copy)]
struct TorusMetric;

impl RouteMetric for TorusMetric {
    #[inline(always)]
    fn d2(self, dx: f64, dy: f64) -> f64 {
        let dx = wrap_delta(dx);
        let dy = wrap_delta(dy);
        dx * dx + dy * dy
    }

    #[inline(always)]
    fn d2_f32(self, dx: f32, dy: f32) -> f32 {
        // `wrap_delta` restricted to |d| ≤ 1 (unit-square coordinate deltas):
        // fold by reflection instead of `%` so the scan pass stays free of
        // libm calls and vectorizes. Identical to `wrap_delta` on that
        // domain; 1-Lipschitz, so the f32 error bound carries through.
        let dx = dx.abs();
        let dx = if dx > 0.5 { 1.0 - dx } else { dx };
        let dy = dy.abs();
        let dy = if dy > 0.5 { 1.0 - dy } else { dy };
        dx * dx + dy * dy
    }
}

/// The greedy walk itself, shared by every routing entry point.
///
/// Distance comparisons use the metric of the topology the graph was built
/// with: Euclidean on the unit square, wrapped distance on the torus (so a
/// packet near the seam correctly hops *across* it instead of trekking the
/// long way around — the seam defect fixed by this dispatch is pinned in
/// `tests/torus_routing.rs`). The dispatch happens once per walk; the
/// inner loop stays monomorphised and branch-free.
///
/// Invokes `on_hop` with each node the packet moves to (excluding the source)
/// and returns `(terminus, hops)`. Inlined so the no-op callback of the fast
/// path compiles away entirely.
#[inline(always)]
fn greedy_walk(
    graph: &GeometricGraph,
    source: NodeId,
    target: Point,
    on_hop: impl FnMut(NodeId),
) -> (NodeId, usize) {
    match graph.topology() {
        Topology::UnitSquare => greedy_walk_metric(graph, source, target, EuclideanMetric, on_hop),
        Topology::Torus => greedy_walk_metric(graph, source, target, TorusMetric, on_hop),
    }
}

/// Lane count of the chunked min-reduction in [`min_d2_scan`]: eight
/// independent `f32` accumulators fill one 256-bit vector register (or two
/// 128-bit ones) and break the serial `min` dependency chain of the scalar
/// scan.
const SCAN_LANES: usize = 8;

/// Upper bound on `|d2_f32 − d2|` over the scan's whole input domain
/// (unit-square coordinates and targets, both rounded to `f32` before the
/// subtraction), with a ≥4× safety margin.
///
/// Derivation: each coordinate rounds with error ≤ 2⁻²⁴; each delta is then
/// off by ≤ 2·2⁻²⁴ plus half an ulp of the subtraction, so `|δdx| ≤ 1.9e-7`
/// with `|dx| ≤ 1` (the torus fold is 1-Lipschitz and only shrinks deltas).
/// Squaring and summing: `|d2_f32 − d2| ≤ 2(|dx| + |dy|)·1.9e-7` plus three
/// `f32` roundings of values ≤ 2, together ≤ 9e-7. The candidate window in
/// [`greedy_hop`] needs twice that (error on the minimum plus error
/// on the probe) plus one more `f32` add rounding; `4e-6` covers it all with
/// margin.
const SCAN_ABS_ERROR: f32 = 4e-6;

/// Capacity of the scan scratch buffer (one per walk or step), in neighbors.
/// Degrees at the connectivity radius are `Θ(log n)` (≈ 160 even at
/// `n = 2²⁰`), so the buffered fast path virtually always applies; wider rows
/// fall back to the buffer-free scan, which is bit-identical.
const SCAN_BUF: usize = 512;

/// Pass 1 of the per-hop argmin: computes every approximate squared
/// distance-to-target over a node's half-width scan row
/// ([`GeometricGraph::scan_block`]) into `buf`, returning their minimum — a
/// chunked, unrolled multi-accumulator `f32` scan.
///
/// The body processes [`SCAN_LANES`] neighbors per iteration into
/// independent accumulators (no cross-lane dependency, no bounds checks —
/// the lanes come from `chunks_exact`, the min is a branch-free select),
/// which is the shape the compiler auto-vectorizes; the remainder folds
/// scalar. Reading 8 bytes of coordinates per neighbor instead of 16 `f64`
/// bytes also halves the random-access memory traffic the walk is bound by
/// at large `n`. The stored distances let pass 2 test the candidate window
/// without recomputing; the minimum is only used to open a
/// [`SCAN_ABS_ERROR`]-wide window that provably contains the exact argmin —
/// see [`greedy_hop`].
///
/// # Panics
///
/// Panics if `buf` is shorter than the row (callers slice it to length).
#[inline(always)]
fn min_d2_scan<M: RouteMetric>(
    metric: M,
    xs: &[u32],
    ys: &[u32],
    buf: &mut [f32],
    tx: f32,
    ty: f32,
) -> f32 {
    let mut acc = [f32::INFINITY; SCAN_LANES];
    let mut chunks_x = xs.chunks_exact(SCAN_LANES);
    let mut chunks_y = ys.chunks_exact(SCAN_LANES);
    let mut chunks_buf = buf.chunks_exact_mut(SCAN_LANES);
    for ((px, py), pb) in (&mut chunks_x).zip(&mut chunks_y).zip(&mut chunks_buf) {
        for lane in 0..SCAN_LANES {
            // `from_bits` is a free reinterpretation of the packed row.
            let d = metric.d2_f32(f32::from_bits(px[lane]) - tx, f32::from_bits(py[lane]) - ty);
            pb[lane] = d;
            acc[lane] = if d < acc[lane] { d } else { acc[lane] };
        }
    }
    let mut min_dist = f32::INFINITY;
    for lane_min in acc {
        min_dist = min_dist.min(lane_min);
    }
    let tail = chunks_buf.into_remainder();
    for ((&x, &y), b) in chunks_x
        .remainder()
        .iter()
        .zip(chunks_y.remainder())
        .zip(tail)
    {
        let d = metric.d2_f32(f32::from_bits(x) - tx, f32::from_bits(y) - ty);
        *b = d;
        min_dist = min_dist.min(d);
    }
    min_dist
}

/// One hop of the greedy walk: the per-hop argmin that every unmasked entry
/// point shares. [`greedy_walk_metric`] loops it and [`greedy_step`] calls it
/// once, so the walk and the stateless step cannot drift apart.
///
/// **Pass 1** streams `current`'s half-width `f32` scan row into `scratch`
/// and finds the approximate minimum ([`min_d2_scan`], vectorized, 8
/// bytes/neighbor). **Pass 2** walks the (L1-hot) buffer and, for every
/// neighbor within [`SCAN_ABS_ERROR`] of the approximate minimum — the
/// window provably contains every exact minimizer, see the constant's docs —
/// gathers the **exact** `f64` distance from [`GeometricGraph::position`]
/// and keeps the strictly-smallest, first-encountered winner. Since CSR rows
/// are sorted and the window is conservative, the selected neighbor, its
/// exact distance, and the tie-breaking (lowest neighbor index on equal
/// distance) are **bit-identical** to the preserved all-`f64` scalar walk
/// ([`greedy_walk_reference`]), which property tests pin.
///
/// One hop touches exactly one random-access stream — the packed scan row
/// `[x_bits… y_bits… idx…]` — plus the position table for the few exact
/// confirmations (small enough to stay cache-resident). Nothing is
/// allocated.
///
/// Returns the winner's exact squared distance and index; an empty row
/// returns `(f64::INFINITY, u32::MAX)`. The caller applies the progress rule.
#[inline(always)]
fn greedy_hop<M: RouteMetric>(
    graph: &GeometricGraph,
    current: NodeId,
    target: Point,
    metric: M,
    scratch: &mut [f32; SCAN_BUF],
) -> (f64, u32) {
    let tx = target.x as f32;
    let ty = target.y as f32;
    let (xs32, ys32, idx) = graph.scan_block(current);
    let mut min_dist = f64::INFINITY;
    let mut best = u32::MAX;
    if xs32.len() <= SCAN_BUF {
        let buf = &mut scratch[..xs32.len()];
        let approx_min = min_d2_scan(metric, xs32, ys32, buf, tx, ty);
        // Every exact minimizer's approximate distance lies within the
        // window (an empty row leaves it at infinity).
        let window = approx_min + SCAN_ABS_ERROR;
        for (k, &d32) in buf.iter().enumerate() {
            if d32 <= window {
                let p = graph.position(NodeId(idx[k] as usize));
                let d = metric.d2(p.x - target.x, p.y - target.y);
                // Strict `<` keeps the first-encountered minimum: the
                // lowest neighbor index, CSR rows being sorted.
                if d < min_dist {
                    min_dist = d;
                    best = idx[k];
                }
            }
        }
    } else {
        // Rows wider than the scratch buffer (far above any
        // connectivity-radius degree) recompute the approximate distances
        // in pass 2 — same window, same winner.
        let mut approx_min = f32::INFINITY;
        for (&x, &y) in xs32.iter().zip(ys32) {
            approx_min =
                approx_min.min(metric.d2_f32(f32::from_bits(x) - tx, f32::from_bits(y) - ty));
        }
        let window = approx_min + SCAN_ABS_ERROR;
        for (k, (&x32, &y32)) in xs32.iter().zip(ys32).enumerate() {
            if metric.d2_f32(f32::from_bits(x32) - tx, f32::from_bits(y32) - ty) <= window {
                let p = graph.position(NodeId(idx[k] as usize));
                let d = metric.d2(p.x - target.x, p.y - target.y);
                if d < min_dist {
                    min_dist = d;
                    best = idx[k];
                }
            }
        }
    }
    (min_dist, best)
}

/// Monomorphised walk body behind [`greedy_walk`]: [`greedy_hop`] until no
/// neighbor is strictly closer to the target than the current node. The
/// distance carried from hop to hop is the winner's exact `f64` squared
/// distance, computed from [`GeometricGraph::position`] in pass 2 — the same
/// value [`greedy_step`] derives afresh at every node.
#[inline(always)]
fn greedy_walk_metric<M: RouteMetric>(
    graph: &GeometricGraph,
    source: NodeId,
    target: Point,
    metric: M,
    mut on_hop: impl FnMut(NodeId),
) -> (NodeId, usize) {
    let mut current = source;
    let src = graph.position(source);
    let mut current_dist = metric.d2(src.x - target.x, src.y - target.y);
    // Per-walk scratch for pass 1's approximate distances (stack, zeroed
    // once per walk, reused across hops).
    let mut scratch = [0f32; SCAN_BUF];
    let mut hops = 0usize;
    loop {
        let (min_dist, best) = greedy_hop(graph, current, target, metric, &mut scratch);
        // A neighbor must be strictly closer than the current node to make
        // progress; otherwise the packet stops here.
        if min_dist >= current_dist {
            return (current, hops);
        }
        current = NodeId(best as usize);
        current_dist = min_dist;
        hops += 1;
        on_hop(current);
    }
}

/// The preserved pre-overhaul walk (the same keep-the-reference discipline
/// as `GeometricGraph::build_reference`): an all-`f64` two-pass scan of the
/// CSR neighbor row with coordinates read from [`GeometricGraph::position`]
/// — pass 1 a plain left-to-right min-reduction over the squared distances,
/// pass 2 recovering the winning index by recomputing until the
/// bit-identical minimum reappears (first occurrence = lowest neighbor
/// index, CSR rows being sorted). Backs [`route_terminus_reference`] so
/// property tests can pin the `f32`-filtered production walk against it on
/// the same instances.
#[inline(always)]
fn greedy_walk_reference<M: RouteMetric>(
    graph: &GeometricGraph,
    source: NodeId,
    target: Point,
    metric: M,
) -> (NodeId, usize) {
    let mut current = source.index();
    let src = graph.position(source);
    let mut current_dist = metric.d2(src.x - target.x, src.y - target.y);
    let mut hops = 0usize;
    let dist = |j: u32| {
        let p = graph.position(NodeId(j as usize));
        metric.d2(p.x - target.x, p.y - target.y)
    };
    loop {
        let nbrs = graph.neighbors(NodeId(current));
        let mut min_dist = f64::INFINITY;
        for &j in nbrs {
            min_dist = min_dist.min(dist(j));
        }
        if min_dist >= current_dist {
            return (NodeId(current), hops);
        }
        let mut best = 0usize;
        for (k, &j) in nbrs.iter().enumerate() {
            if dist(j) == min_dist {
                best = k;
                break;
            }
        }
        current = nbrs[best] as usize;
        current_dist = min_dist;
        hops += 1;
    }
}

/// Liveness-masked greedy walk for fault-injection scenarios: the per-hop
/// argmin considers only neighbors marked alive, so packets route *around*
/// crashed nodes. An all-`f64` scalar scan modeled on
/// [`greedy_walk_reference`], reading each live neighbor's coordinates from
/// [`GeometricGraph::position`] — the public entry points only reach it with
/// a non-empty mask, i.e. while churn has actually killed nodes, so it
/// trades the vectorized fast path for the simplest correct scan. Same progress
/// rule and tie-breaking (strictly closer or stop; lowest neighbor index on
/// equal distance, CSR rows being sorted), so with an all-alive mask the
/// walk is bit-identical to the unmasked reference.
///
/// Graceful degradation: when every closer neighbor is dead the walk stops at
/// the nearest **live** local minimum; if the source cannot move at all, the
/// terminus is the source itself with zero hops (callers treat a self-partner
/// as a free no-op). Indices beyond `alive`'s length count as alive.
#[inline(always)]
fn greedy_walk_masked<M: RouteMetric>(
    graph: &GeometricGraph,
    source: NodeId,
    target: Point,
    metric: M,
    alive: &[bool],
) -> (NodeId, usize) {
    let mut current = source.index();
    let src = graph.position(source);
    let mut current_dist = metric.d2(src.x - target.x, src.y - target.y);
    let mut hops = 0usize;
    loop {
        let mut min_dist = f64::INFINITY;
        let mut best = usize::MAX;
        for &j in graph.neighbors(NodeId(current)) {
            if !alive.get(j as usize).copied().unwrap_or(true) {
                continue;
            }
            let p = graph.position(NodeId(j as usize));
            let d = metric.d2(p.x - target.x, p.y - target.y);
            if d < min_dist {
                min_dist = d;
                best = j as usize;
            }
        }
        if min_dist >= current_dist {
            return (NodeId(current), hops);
        }
        current = best;
        current_dist = min_dist;
        hops += 1;
    }
}

/// [`route_terminus`] restricted to live nodes: routes from `source` towards
/// the *position* `target`, skipping neighbors whose entry in `alive` is
/// `false` (see `greedy_walk_masked` for the degradation semantics).
///
/// An empty `alive` means every node is alive and takes the vectorized
/// [`route_terminus`] walk, so callers pass their mask as is and never choose
/// between the two walks themselves.
///
/// # Panics
///
/// Panics if `source` is out of range for the graph.
pub fn route_terminus_masked(
    graph: &GeometricGraph,
    source: NodeId,
    target: Point,
    alive: &[bool],
) -> FastRoute {
    if alive.is_empty() {
        return route_terminus(graph, source, target);
    }
    let (terminus, hops) = match graph.topology() {
        Topology::UnitSquare => greedy_walk_masked(graph, source, target, EuclideanMetric, alive),
        Topology::Torus => greedy_walk_masked(graph, source, target, TorusMetric, alive),
    };
    FastRoute {
        source,
        terminus,
        hops,
    }
}

/// [`route_terminus_to_node`] restricted to live nodes — greedy-routes
/// towards `destination`'s position through [`route_terminus_masked`],
/// returning the walk plus whether it actually reached `destination` (a dead
/// destination region shows up as `delivered == false`, never a panic).
///
/// # Panics
///
/// Panics if `source` or `destination` is out of range for the graph.
pub fn route_terminus_to_node_masked(
    graph: &GeometricGraph,
    source: NodeId,
    destination: NodeId,
    alive: &[bool],
) -> (FastRoute, bool) {
    let route = route_terminus_masked(graph, source, graph.position(destination), alive);
    let delivered = route.terminus == destination;
    (route, delivered)
}

/// Allocation-free variant of [`route_to_position`]: routes a packet from
/// `source` towards the *position* `target` and returns only the stopping node
/// and hop count.
///
/// # Panics
///
/// Panics if `source` is out of range for the graph.
pub fn route_terminus(graph: &GeometricGraph, source: NodeId, target: Point) -> FastRoute {
    let (terminus, hops) = greedy_walk(graph, source, target, |_| {});
    FastRoute {
        source,
        terminus,
        hops,
    }
}

/// [`route_terminus`] through the preserved scalar reference walk, for
/// property tests that pin the chunked vectorizable scan
/// bit-identical to the pre-overhaul implementation (same terminus, same hop
/// count, same tie-breaking). Production callers should use
/// [`route_terminus`].
///
/// # Panics
///
/// Panics if `source` is out of range for the graph.
pub fn route_terminus_reference(
    graph: &GeometricGraph,
    source: NodeId,
    target: Point,
) -> FastRoute {
    let (terminus, hops) = match graph.topology() {
        Topology::UnitSquare => greedy_walk_reference(graph, source, target, EuclideanMetric),
        Topology::Torus => greedy_walk_reference(graph, source, target, TorusMetric),
    };
    FastRoute {
        source,
        terminus,
        hops,
    }
}

/// [`route_terminus_to_node`] through the preserved scalar reference walk —
/// see [`route_terminus_reference`].
///
/// # Panics
///
/// Panics if `source` or `destination` is out of range for the graph.
pub fn route_terminus_to_node_reference(
    graph: &GeometricGraph,
    source: NodeId,
    destination: NodeId,
) -> (FastRoute, bool) {
    let route = route_terminus_reference(graph, source, graph.position(destination));
    let delivered = route.terminus == destination;
    (route, delivered)
}

/// Allocation-free variant of [`route_to_node`]: greedy-routes from `source`
/// towards `destination`'s position, returning the walk plus whether it
/// actually reached `destination`.
///
/// # Panics
///
/// Panics if `source` or `destination` is out of range for the graph.
pub fn route_terminus_to_node(
    graph: &GeometricGraph,
    source: NodeId,
    destination: NodeId,
) -> (FastRoute, bool) {
    let route = route_terminus(graph, source, graph.position(destination));
    let delivered = route.terminus == destination;
    (route, delivered)
}

/// Routes a packet from `source` towards the *position* `target`, recording
/// the full path into the caller-supplied scratch buffer (cleared first).
///
/// This keeps the path-returning behaviour available without a fresh heap
/// allocation per call; experiments that route in a loop can reuse one buffer.
///
/// # Panics
///
/// Panics if `source` is out of range for the graph.
pub fn route_to_position_into(
    graph: &GeometricGraph,
    source: NodeId,
    target: Point,
    path: &mut Vec<NodeId>,
) -> FastRoute {
    path.clear();
    path.push(source);
    let (terminus, hops) = greedy_walk(graph, source, target, |node| path.push(node));
    FastRoute {
        source,
        terminus,
        hops,
    }
}

/// Routes a packet from `source` towards the *position* `target` and stops at
/// the node closest to it that greedy forwarding can reach.
///
/// This is the primitive used by geographic gossip: the sender does not know
/// which node is nearest the target position; the packet simply stops when no
/// neighbor makes progress, and the stopping node is the contacted partner.
/// `delivered` is `true` whenever the walk made at least the source's best
/// effort (it is only `false` if the source itself has no position, which
/// cannot happen here), so callers interested in "did we reach the globally
/// nearest node" should use [`route_to_node`] instead. Hot paths that do not
/// need the path should use [`route_terminus`].
///
/// # Panics
///
/// Panics if `source` is out of range for the graph.
pub fn route_to_position(graph: &GeometricGraph, source: NodeId, target: Point) -> RouteOutcome {
    let mut path = Vec::new();
    let route = route_to_position_into(graph, source, target, &mut path);
    RouteOutcome {
        source,
        terminus: route.terminus,
        delivered: true,
        hops: route.hops,
        path,
    }
}

/// Routes a packet from `source` to the specific node `destination` by greedy
/// geographic forwarding towards the destination's position.
///
/// `delivered` is `true` only when the greedy walk actually terminates at
/// `destination`; a dead end short of it is reported as a failure (the
/// experiments count these rather than silently retrying).
///
/// # Panics
///
/// Panics if `source` or `destination` is out of range for the graph.
pub fn route_to_node(graph: &GeometricGraph, source: NodeId, destination: NodeId) -> RouteOutcome {
    let target = graph.position(destination);
    let mut outcome = route_to_position(graph, source, target);
    outcome.delivered = outcome.terminus == destination;
    outcome
}

/// Routes a round trip `a → b → a` (value exchange), returning the total
/// number of transmissions and whether both directions were delivered.
///
/// The paper's `Far(s)` subroutine is exactly this pattern: `s` routes its
/// value to `s'`, then `s'` routes its own value back to `s` (Section 4.2).
/// Built on the allocation-free walk — no path is materialised.
pub fn round_trip(graph: &GeometricGraph, a: NodeId, b: NodeId) -> (usize, bool) {
    let (out, out_ok) = route_terminus_to_node(graph, a, b);
    let (back, back_ok) = route_terminus_to_node(graph, b, a);
    (
        out.transmissions() + back.transmissions(),
        out_ok && back_ok,
    )
}

/// One hop of the greedy walk, **stateless**: the neighbor of `current` that
/// is strictly closer to `target` than `current` itself (lowest neighbor
/// index on ties), or `None` when `current` is a local minimum and the packet
/// stops here.
///
/// This is the per-node forwarding decision of the message-passing runtime
/// (`geogossip-net`), where no walker carries state between hops. It is one
/// iteration of the walk behind [`route_terminus`] — the same `greedy_hop`
/// scan — so iterating it from a source reproduces [`route_terminus`]
/// **bit-identically** (same terminus, same hop count): the walk's carried
/// current-distance is exactly the chosen neighbor's `f64` squared distance
/// from [`GeometricGraph::position`], which this function recomputes. The
/// parity is pinned by `iterated_greedy_step_matches_route_terminus` and, on
/// ties, seam ties and rows wider than the scan scratch, by the routing
/// property tests.
///
/// # Panics
///
/// Panics if `current` is out of range for the graph.
pub fn greedy_step(graph: &GeometricGraph, current: NodeId, target: Point) -> Option<NodeId> {
    match graph.topology() {
        Topology::UnitSquare => greedy_step_metric(graph, current, target, EuclideanMetric),
        Topology::Torus => greedy_step_metric(graph, current, target, TorusMetric),
    }
}

/// Monomorphised body of [`greedy_step`]: [`greedy_hop`] once, on a stack
/// scratch buffer, plus the walk's progress rule against `current`'s own
/// distance.
#[inline]
fn greedy_step_metric<M: RouteMetric>(
    graph: &GeometricGraph,
    current: NodeId,
    target: Point,
    metric: M,
) -> Option<NodeId> {
    let pos = graph.position(current);
    let current_dist = metric.d2(pos.x - target.x, pos.y - target.y);
    let mut scratch = [0f32; SCAN_BUF];
    let (min_dist, best) = greedy_hop(graph, current, target, metric, &mut scratch);
    (min_dist < current_dist).then_some(NodeId(best as usize))
}

/// [`greedy_step`] restricted to live neighbors: the per-hop forwarding
/// decision of the message-passing runtime under node churn. Same mask
/// semantics as `greedy_walk_masked`, same progress rule and tie-breaking —
/// iterating it from a live source reproduces [`route_terminus_masked`]
/// **bit-identically** (same terminus, same hop count), pinned by
/// `iterated_greedy_step_masked_matches_route_terminus_masked`. An empty
/// `alive` means every node is alive and takes [`greedy_step`] itself.
///
/// # Panics
///
/// Panics if `current` is out of range for the graph.
#[inline]
pub fn greedy_step_masked(
    graph: &GeometricGraph,
    current: NodeId,
    target: Point,
    alive: &[bool],
) -> Option<NodeId> {
    if alive.is_empty() {
        return greedy_step(graph, current, target);
    }
    match graph.topology() {
        Topology::UnitSquare => {
            greedy_step_masked_metric(graph, current, target, EuclideanMetric, alive)
        }
        Topology::Torus => greedy_step_masked_metric(graph, current, target, TorusMetric, alive),
    }
}

/// Monomorphised body of [`greedy_step_masked`]: one iteration of
/// [`greedy_walk_masked`]'s scan, recomputing the current distance from
/// [`GeometricGraph::position`] (the same `f64` the walk carries, bit for
/// bit — both read every coordinate from the one position table).
#[inline]
fn greedy_step_masked_metric<M: RouteMetric>(
    graph: &GeometricGraph,
    current: NodeId,
    target: Point,
    metric: M,
    alive: &[bool],
) -> Option<NodeId> {
    let pos = graph.position(current);
    let current_dist = metric.d2(pos.x - target.x, pos.y - target.y);
    let mut min_dist = f64::INFINITY;
    let mut best = 0u32;
    for &j in graph.neighbors(current) {
        if !alive.get(j as usize).copied().unwrap_or(true) {
            continue;
        }
        let p = graph.position(NodeId(j as usize));
        let d = metric.d2(p.x - target.x, p.y - target.y);
        if d < min_dist {
            min_dist = d;
            best = j;
        }
    }
    if min_dist >= current_dist {
        None
    } else {
        Some(NodeId(best as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_geometry::sampling::sample_unit_square;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: usize, c: f64, seed: u64) -> GeometricGraph {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        GeometricGraph::build_at_connectivity_radius(pts, c)
    }

    #[test]
    fn routes_to_self_in_zero_hops() {
        let g = graph(100, 2.0, 1);
        let out = route_to_node(&g, NodeId(7), NodeId(7));
        assert!(out.delivered);
        assert_eq!(out.hops, 0);
        assert_eq!(out.path, vec![NodeId(7)]);
    }

    #[test]
    fn routes_to_adjacent_node_in_one_hop() {
        let g = graph(300, 2.0, 2);
        let src = NodeId(0);
        let nbr = NodeId(g.neighbors(src)[0] as usize);
        let out = route_to_node(&g, src, nbr);
        assert!(out.delivered);
        assert_eq!(out.hops, 1);
    }

    #[test]
    fn delivery_succeeds_on_connected_graph_whp() {
        let g = graph(600, 2.0, 3);
        assert!(g.is_connected());
        let mut delivered = 0;
        let total = 50;
        for i in 0..total {
            let src = NodeId(i * 7 % g.len());
            let dst = NodeId((i * 13 + 5) % g.len());
            if route_to_node(&g, src, dst).delivered {
                delivered += 1;
            }
        }
        assert!(
            delivered >= total * 9 / 10,
            "only {delivered}/{total} delivered"
        );
    }

    #[test]
    fn path_nodes_are_successively_adjacent() {
        let g = graph(400, 2.0, 4);
        let out = route_to_node(&g, NodeId(1), NodeId(399));
        for w in out.path.windows(2) {
            assert!(g.are_adjacent(w[0], w[1]));
        }
        assert_eq!(out.hops, out.path.len() - 1);
    }

    #[test]
    fn distance_to_target_is_monotone_along_path() {
        let g = graph(400, 2.0, 5);
        let dst = NodeId(200);
        let t = g.position(dst);
        let out = route_to_node(&g, NodeId(3), dst);
        let mut prev = f64::INFINITY;
        for &node in &out.path {
            let d = g.position(node).distance(t);
            assert!(d < prev + 1e-15, "greedy path moved away from the target");
            prev = d;
        }
    }

    #[test]
    fn dead_end_is_reported_not_hidden() {
        // A path graph bent around an obstacle: the greedy walk from node 0
        // towards node 2 gets stuck at node 1's dead end when geometry
        // misleads it. Construct a tiny graph where greedy fails: target is
        // close in space but the only connecting path goes "backwards".
        let pts = vec![
            Point::new(0.10, 0.50), // 0 source
            Point::new(0.20, 0.50), // 1 neighbor of 0, closest to target, dead end
            Point::new(0.30, 0.90), // 2 detour node (far from target)
            Point::new(0.40, 0.50), // 3 target, only adjacent to 2
        ];
        // radius 0.12 connects 0-1 only; 2 and 3 are isolated from them but
        // within 0.45 of each other? Use explicit radius so 0-1 adjacent,
        // 1-3 NOT adjacent (0.2 apart > 0.12), so greedy stops at 1.
        let g = GeometricGraph::build(pts, 0.12);
        let out = route_to_node(&g, NodeId(0), NodeId(3));
        assert!(!out.delivered);
        assert_eq!(out.terminus, NodeId(1));
        let (fast, delivered) = route_terminus_to_node(&g, NodeId(0), NodeId(3));
        assert!(!delivered);
        assert_eq!(fast.terminus, NodeId(1));
    }

    #[test]
    fn fast_route_matches_path_route_across_many_instances() {
        // The allocation-free walk and the path-recording walk must agree on
        // terminus and hop count for every source/target pair tried, across
        // several random graphs.
        for seed in 0..8u64 {
            let g = graph(300, 1.5, seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
            let mut scratch = Vec::new();
            for _ in 0..40 {
                let pts = sample_unit_square(2, &mut rng);
                let src = g.nearest_node(pts[0]).unwrap();
                let target = pts[1];
                let full = route_to_position(&g, src, target);
                let fast = route_terminus(&g, src, target);
                assert_eq!(fast.terminus, full.terminus);
                assert_eq!(fast.hops, full.hops);
                let buffered = route_to_position_into(&g, src, target, &mut scratch);
                assert_eq!(buffered.terminus, full.terminus);
                assert_eq!(scratch, full.path);
            }
        }
    }

    #[test]
    fn round_trip_costs_both_directions() {
        let g = graph(500, 2.0, 6);
        let (tx, ok) = round_trip(&g, NodeId(0), NodeId(499));
        if ok {
            let one_way = route_to_node(&g, NodeId(0), NodeId(499)).transmissions();
            assert!(tx >= one_way, "round trip cheaper than one way");
        }
    }

    #[test]
    fn masked_walk_with_all_alive_matches_the_reference() {
        for seed in 0..6u64 {
            let g = graph(300, 1.5, seed);
            let alive = vec![true; g.len()];
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xa11e);
            for _ in 0..30 {
                let pts = sample_unit_square(2, &mut rng);
                let src = g.nearest_node(pts[0]).unwrap();
                let masked = route_terminus_masked(&g, src, pts[1], &alive);
                let reference = route_terminus_reference(&g, src, pts[1]);
                assert_eq!(masked, reference);
                // An empty mask also degenerates to the unmasked walk.
                assert_eq!(route_terminus_masked(&g, src, pts[1], &[]), reference);
            }
        }
    }

    #[test]
    fn masked_walk_routes_around_a_dead_node() {
        // Line graph 0 – 1 – 2 – 3 with node 1 dead: greedy from 0 towards 3
        // cannot advance (its only closer neighbor is dead), so the walk
        // degrades gracefully to a zero-hop self-terminus.
        let pts = vec![
            Point::new(0.10, 0.50),
            Point::new(0.20, 0.50),
            Point::new(0.30, 0.50),
            Point::new(0.40, 0.50),
        ];
        let g = GeometricGraph::build(pts, 0.12);
        let mut alive = vec![true; 4];
        alive[1] = false;
        let (route, delivered) = route_terminus_to_node_masked(&g, NodeId(0), NodeId(3), &alive);
        assert!(!delivered);
        assert_eq!(route.terminus, NodeId(0));
        assert_eq!(route.hops, 0);
        // From node 2 the path to 3 avoids the dead node entirely.
        let (route, delivered) = route_terminus_to_node_masked(&g, NodeId(2), NodeId(3), &alive);
        assert!(delivered);
        assert_eq!(route.hops, 1);
    }

    #[test]
    fn masked_walk_stops_at_nearest_live_local_minimum() {
        // Dense graph: kill the destination and its surroundings; the walk
        // must stop at a live node without ever visiting a dead one.
        let g = graph(500, 2.0, 9);
        let dst = NodeId(250);
        let t = g.position(dst);
        let mut alive = vec![true; g.len()];
        for (i, live) in alive.iter_mut().enumerate() {
            if g.position(NodeId(i)).distance(t) < 0.1 {
                *live = false;
            }
        }
        let src = (0..g.len())
            .map(NodeId)
            .find(|&i| alive[i.index()])
            .unwrap();
        let route = route_terminus_masked(&g, src, t, &alive);
        assert!(alive[route.terminus.index()], "terminus must be live");
    }

    #[test]
    fn hop_count_scales_like_sqrt_n_over_log_n() {
        // With r = c·sqrt(log n/n), a route across the unit square takes about
        // 1/r = sqrt(n/log n)/c hops. Check the order of magnitude.
        let n = 2000;
        let c = 1.5;
        let g = graph(n, c, 7);
        let expected = (n as f64 / (n as f64).ln()).sqrt() / c;
        let out = route_to_position(
            &g,
            g.nearest_node(Point::new(0.02, 0.02)).unwrap(),
            Point::new(0.98, 0.98),
        );
        let hops = out.hops as f64;
        assert!(
            hops > 0.4 * expected && hops < 4.0 * expected,
            "hops {hops} not within a small factor of {expected}"
        );
    }

    #[test]
    fn iterated_greedy_step_matches_route_terminus() {
        // The message-passing runtime forwards packets with the stateless
        // per-hop decision; iterating it must reproduce the stateful walk
        // bit-for-bit (terminus AND hop count), on both topologies, including
        // routes that dead-end short of a node destination.
        use geogossip_geometry::Topology;
        for (seed, topology) in [
            (3u64, Topology::UnitSquare),
            (4, Topology::Torus),
            (5, Topology::UnitSquare),
            (6, Topology::Torus),
        ] {
            let pts = sample_unit_square(300, &mut ChaCha8Rng::seed_from_u64(seed));
            let radius = geogossip_geometry::connectivity_radius(300, 1.5).min(0.49);
            let g = GeometricGraph::build_with_topology(pts, radius, topology);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57e9);
            for trial in 0..40 {
                let pts = sample_unit_square(2, &mut rng);
                let src = g.nearest_node(pts[0]).unwrap();
                // Alternate position targets and node targets (the two
                // forwarding modes of the net layer).
                let target = if trial % 2 == 0 {
                    pts[1]
                } else {
                    g.position(NodeId((trial * 31) % g.len()))
                };
                let walk = route_terminus(&g, src, target);
                let mut current = src;
                let mut hops = 0usize;
                while let Some(next) = greedy_step(&g, current, target) {
                    current = next;
                    hops += 1;
                    assert!(hops <= g.len(), "stateless walk failed to terminate");
                }
                assert_eq!(current, walk.terminus, "terminus diverged (seed {seed})");
                assert_eq!(hops, walk.hops, "hop count diverged (seed {seed})");
            }
        }
    }

    #[test]
    fn iterated_greedy_step_masked_matches_route_terminus_masked() {
        // The net layer's per-hop forwarding under churn must reproduce the
        // stateful masked walk bit-for-bit, and with an empty mask it must
        // degenerate to the unmasked step.
        use geogossip_geometry::Topology;
        for (seed, topology) in [(13u64, Topology::UnitSquare), (14, Topology::Torus)] {
            let pts = sample_unit_square(300, &mut ChaCha8Rng::seed_from_u64(seed));
            let radius = geogossip_geometry::connectivity_radius(300, 1.5).min(0.49);
            let g = GeometricGraph::build_with_topology(pts, radius, topology);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6d2b);
            // Kill a third of the nodes.
            let alive: Vec<bool> = (0..g.len()).map(|i| i % 3 != 0).collect();
            for trial in 0..40 {
                let pts = sample_unit_square(2, &mut rng);
                let src = {
                    let mut s = g.nearest_node(pts[0]).unwrap();
                    // Masked walks start at a live node in production (dead
                    // sensors are never activated and never forward).
                    while !alive[s.index()] {
                        s = NodeId((s.index() + 1) % g.len());
                    }
                    s
                };
                let target = if trial % 2 == 0 {
                    pts[1]
                } else {
                    g.position(NodeId((trial * 31) % g.len()))
                };
                let walk = route_terminus_masked(&g, src, target, &alive);
                let mut current = src;
                let mut hops = 0usize;
                while let Some(next) = greedy_step_masked(&g, current, target, &alive) {
                    current = next;
                    hops += 1;
                    assert!(hops <= g.len(), "stateless masked walk failed to terminate");
                }
                assert_eq!(current, walk.terminus, "terminus diverged (seed {seed})");
                assert_eq!(hops, walk.hops, "hop count diverged (seed {seed})");
                // Empty mask ⇔ unmasked step, hop by hop from the source.
                assert_eq!(
                    greedy_step_masked(&g, src, target, &[]),
                    greedy_step(&g, src, target)
                );
            }
        }
    }
}
