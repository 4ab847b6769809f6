//! Pins the liveness-masked walk and step against a brute-force masked scan.
//!
//! The masked entry points (`route_terminus_masked`, `greedy_step_masked`)
//! share the vectorized two-pass hop of the unmasked walk: pass 1 computes
//! approximate `f32` distances for the whole row, the window reopens at the
//! minimum over the *live* neighbors, and pass 2 confirms the live
//! candidates with exact `f64` distances. The reference here is the plain
//! definition: scan every live neighbor in row order with exact `f64`
//! distances, keep the strictly smallest (lowest index on ties), and move
//! only when it is strictly closer than the current node. Both must agree on
//! every hop, under random masks (short masks too: an index past the mask's
//! end counts as alive), around nodes whose neighbors are all dead, on rows
//! wider than the scan's scratch buffer, and on both topologies.

use geogossip_geometry::point::NodeId;
use geogossip_geometry::sampling::{sample_unit_square, uniform_point_in};
use geogossip_geometry::topology::wrap_delta;
use geogossip_geometry::{unit_square, Point, Topology};
use geogossip_graph::GeometricGraph;
use geogossip_routing::greedy::{greedy_step_masked, route_terminus_masked, FastRoute};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Exact squared distance in the graph's metric, wrapped on the torus.
fn d2(topology: Topology, p: Point, target: Point) -> f64 {
    let (dx, dy) = (p.x - target.x, p.y - target.y);
    let (dx, dy) = match topology {
        Topology::UnitSquare => (dx, dy),
        Topology::Torus => (wrap_delta(dx), wrap_delta(dy)),
    };
    dx * dx + dy * dy
}

/// The brute-force masked hop: every live neighbor, exact distances, first
/// strict minimum, then the progress rule against `current`.
fn brute_step(
    g: &GeometricGraph,
    current: NodeId,
    target: Point,
    alive: &[bool],
) -> Option<NodeId> {
    let metric = |j: usize| d2(g.topology(), g.position(NodeId(j)), target);
    let mut best = None;
    let mut min = f64::INFINITY;
    for &j in g.neighbors(current) {
        let j = j as usize;
        if alive.get(j).copied().unwrap_or(true) && metric(j) < min {
            min = metric(j);
            best = Some(NodeId(j));
        }
    }
    best.filter(|_| min < metric(current.index()))
}

/// Walks `step` from `source` until it stops.
fn walk(source: NodeId, mut step: impl FnMut(NodeId) -> Option<NodeId>, n: usize) -> FastRoute {
    let mut terminus = source;
    let mut hops = 0;
    while let Some(next) = step(terminus) {
        terminus = next;
        hops += 1;
        assert!(hops <= n, "masked walk failed to terminate");
    }
    FastRoute {
        source,
        terminus,
        hops,
    }
}

/// A mask of random length in `1..=n` with each entry dead with probability
/// `dead`; entries past its end count as alive.
fn random_mask(n: usize, dead: f64, rng: &mut ChaCha8Rng) -> Vec<bool> {
    let len = rng.gen_range(1..n + 1);
    (0..len).map(|_| rng.gen::<f64>() >= dead).collect()
}

/// Checks `k` walks from live sources on `g` under `alive`: the masked walk,
/// the iterated masked step and the brute-force walk agree, hop by hop.
fn check_walks(g: &GeometricGraph, alive: &[bool], k: usize, rng: &mut ChaCha8Rng) {
    let n = g.len();
    let is_alive = |i: usize| alive.get(i).copied().unwrap_or(true);
    for trial in 0..k {
        let mut src = rng.gen_range(0..n);
        while !is_alive(src) {
            src = (src + 1) % n;
        }
        let src = NodeId(src);
        // Alternate position targets and node targets.
        let target = if trial % 2 == 0 {
            uniform_point_in(unit_square(), rng)
        } else {
            g.position(NodeId(rng.gen_range(0..n)))
        };
        let expected = walk(src, |u| brute_step(g, u, target, alive), n);
        assert_eq!(route_terminus_masked(g, src, target, alive), expected);
        let stepped = walk(
            src,
            |u| {
                let next = greedy_step_masked(g, u, target, alive);
                assert_eq!(next, brute_step(g, u, target, alive), "hop from {u:?}");
                next
            },
            n,
        );
        assert_eq!(stepped, expected);
    }
}

fn topology(torus: usize) -> Topology {
    if torus == 1 {
        Topology::Torus
    } else {
        Topology::UnitSquare
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random masks on connectivity-radius graphs: rows fit the scratch
    /// buffer, and the nearest neighbor to the target is often dead, so the
    /// window must reopen at the live minimum.
    #[test]
    fn masked_walks_and_steps_match_brute_force(
        n in 2usize..400,
        seed in 0u64..1000,
        c in 0.8f64..2.5,
        dead in 0.05f64..0.8,
        torus in 0usize..2,
    ) {
        let topology = topology(torus);
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let radius = geogossip_geometry::connectivity_radius(n, c).min(0.49);
        let g = GeometricGraph::build_with_topology(pts, radius, topology);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let alive = random_mask(n, dead, &mut rng);
        check_walks(&g, &alive, 12, &mut rng);
    }
}

/// A wide-row graph: every row outgrows the scan's 512-neighbor scratch
/// buffer on both topologies.
fn wide_graph(seed: u64, topology: Topology) -> GeometricGraph {
    let pts = sample_unit_square(1000, &mut ChaCha8Rng::seed_from_u64(seed));
    let radius = match topology {
        Topology::Torus => 0.45,
        Topology::UnitSquare => 0.9,
    };
    let g = GeometricGraph::build_with_topology(pts, radius, topology);
    assert!(
        (0..g.len()).all(|i| g.neighbors(NodeId(i)).len() > 512),
        "rows must outgrow the scratch buffer"
    );
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rows wider than the scan's scratch buffer take the buffer-free
    /// fallback, which must skip dead neighbors and reopen the window alike.
    #[test]
    fn wide_row_masked_walks_match_brute_force(
        seed in 0u64..200,
        dead in 0.05f64..0.8,
        torus in 0usize..2,
    ) {
        let g = wide_graph(seed, topology(torus));
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x3de);
        let alive = random_mask(g.len(), dead, &mut rng);
        check_walks(&g, &alive, 4, &mut rng);
    }

    /// A live node whose neighbors are all dead cannot forward: the step
    /// returns `None` and the walk ends at the source with zero hops, on
    /// narrow and wide rows alike.
    #[test]
    fn a_node_with_only_dead_neighbors_stays_put(
        seed in 0u64..500,
        wide in 0usize..2,
        torus in 0usize..2,
    ) {
        let g = if wide == 1 {
            wide_graph(seed, topology(torus))
        } else {
            let pts = sample_unit_square(300, &mut ChaCha8Rng::seed_from_u64(seed));
            let radius = geogossip_geometry::connectivity_radius(300, 1.5);
            GeometricGraph::build_with_topology(pts, radius, topology(torus))
        };
        let n = g.len();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x10e);
        let src = NodeId(rng.gen_range(0..n));
        let mut alive = vec![true; n];
        for &j in g.neighbors(src) {
            alive[j as usize] = false;
        }
        for _ in 0..4 {
            let target = uniform_point_in(unit_square(), &mut rng);
            prop_assert_eq!(greedy_step_masked(&g, src, target, &alive), None);
            let route = route_terminus_masked(&g, src, target, &alive);
            prop_assert_eq!(route.terminus, src);
            prop_assert_eq!(route.hops, 0);
        }
        // The rest of the graph still routes as the brute force does.
        check_walks(&g, &alive, 4, &mut rng);
    }
}
