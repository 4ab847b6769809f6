//! Property tests for the allocation-free routing fast path: on arbitrary
//! random instances and targets, `route_terminus` / `route_terminus_to_node` /
//! the scratch-buffer variant must agree exactly with the path-returning API,
//! and the chunked vectorizable argmin scan — walked by `route_terminus` or
//! iterated hop by hop through `greedy_step` — must agree exactly with the
//! preserved scalar reference walk (`route_terminus_reference`).

use geogossip_geometry::point::NodeId;
use geogossip_geometry::sampling::{sample_unit_square, uniform_point_in};
use geogossip_geometry::unit_square;
use geogossip_geometry::{Point, Topology};
use geogossip_graph::GeometricGraph;
use geogossip_routing::greedy::{
    greedy_step, round_trip, route_terminus, route_terminus_reference, route_terminus_to_node,
    route_to_node, route_to_position, route_to_position_into, FastRoute,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Iterates the stateless `greedy_step` from `source` until it stops, as the
/// message-passing runtime forwards a packet hop by hop.
fn iterated_step(graph: &GeometricGraph, source: NodeId, target: Point) -> FastRoute {
    let mut terminus = source;
    let mut hops = 0;
    while let Some(next) = greedy_step(graph, terminus, target) {
        terminus = next;
        hops += 1;
        assert!(
            hops <= graph.len(),
            "iterated greedy_step failed to terminate"
        );
    }
    FastRoute {
        source,
        terminus,
        hops,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fast position-routing variant returns the same terminus and hop
    /// count as the path-returning one, for arbitrary graphs and targets.
    #[test]
    fn fast_position_route_matches_path_route(
        n in 2usize..300,
        seed in 0u64..1000,
        c in 0.8f64..2.5,
    ) {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let g = GeometricGraph::build_at_connectivity_radius(pts, c);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let mut scratch = Vec::new();
        for _ in 0..10 {
            let src = NodeId((seed as usize + n) % n);
            let target = uniform_point_in(unit_square(), &mut rng);
            let full = route_to_position(&g, src, target);
            let fast = route_terminus(&g, src, target);
            prop_assert_eq!(fast.terminus, full.terminus);
            prop_assert_eq!(fast.hops, full.hops);
            prop_assert_eq!(fast.transmissions(), full.transmissions());
            let buffered = route_to_position_into(&g, src, target, &mut scratch);
            prop_assert_eq!(buffered.terminus, full.terminus);
            prop_assert_eq!(buffered.hops, full.hops);
            prop_assert_eq!(&scratch, &full.path);
        }
    }

    /// The fast node-routing variant agrees with the path-returning one on
    /// terminus, hops, and the delivered flag.
    #[test]
    fn fast_node_route_matches_path_route(
        n in 2usize..300,
        seed in 0u64..1000,
        dst_pick in 0usize..10_000,
    ) {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        // A slightly sub-critical radius keeps dead ends in the mix so the
        // `delivered` flag is exercised in both outcomes.
        let g = GeometricGraph::build_at_connectivity_radius(pts, 1.0);
        let src = NodeId(seed as usize % n);
        let dst = NodeId(dst_pick % n);
        let full = route_to_node(&g, src, dst);
        let (fast, delivered) = route_terminus_to_node(&g, src, dst);
        prop_assert_eq!(fast.terminus, full.terminus);
        prop_assert_eq!(fast.hops, full.hops);
        prop_assert_eq!(delivered, full.delivered);
    }

    /// The chunked, unrolled argmin scan is bit-identical to the preserved
    /// scalar reference walk — same terminus, same hop count — on arbitrary
    /// graphs (both topologies, dead ends included) and arbitrary targets.
    /// Degree sweeps past the scan's lane width in both directions, so the
    /// chunked body and the scalar remainder are both exercised.
    #[test]
    fn vectorized_scan_matches_scalar_reference(
        n in 2usize..300,
        seed in 0u64..1000,
        c in 0.8f64..2.5,
        torus in 0usize..2,
    ) {
        let topology = if torus == 1 { Topology::Torus } else { Topology::UnitSquare };
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        // Torus adjacency requires radius < 1/2; small n at a generous
        // connectivity constant can exceed it, so clamp.
        let radius = geogossip_geometry::connectivity_radius(n, c).min(0.49);
        let g = GeometricGraph::build_with_topology(pts, radius, topology);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfa57);
        for k in 0..12 {
            let src = NodeId((seed as usize + k) % n);
            let target = uniform_point_in(unit_square(), &mut rng);
            let fast = route_terminus(&g, src, target);
            let reference = route_terminus_reference(&g, src, target);
            prop_assert_eq!(fast, reference);
            prop_assert_eq!(iterated_step(&g, src, target), reference);
        }
    }

    /// Degrees beyond the scan's stack scratch capacity take the buffer-free
    /// fallback; it must agree with the reference exactly too, walked or
    /// stepped. A radius of 0.9 on 600 nodes makes nearly every row wider
    /// than the buffer.
    #[test]
    fn dense_rows_beyond_scratch_capacity_match_reference(
        seed in 0u64..200,
    ) {
        let n = 600;
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let g = GeometricGraph::build(pts, 0.9);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdee9);
        for k in 0..6 {
            let src = NodeId((seed as usize + k) % n);
            let target = uniform_point_in(unit_square(), &mut rng);
            let fast = route_terminus(&g, src, target);
            let reference = route_terminus_reference(&g, src, target);
            prop_assert_eq!(fast, reference);
            prop_assert_eq!(iterated_step(&g, src, target), reference);
        }
    }

    /// Round trips cost exactly the sum of the two one-way fast routes.
    #[test]
    fn round_trip_is_sum_of_both_legs(n in 2usize..200, seed in 0u64..500) {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let g = GeometricGraph::build_at_connectivity_radius(pts, 1.5);
        let a = NodeId(0);
        let b = NodeId(n - 1);
        let (tx, ok) = round_trip(&g, a, b);
        let out = route_to_node(&g, a, b);
        let back = route_to_node(&g, b, a);
        prop_assert_eq!(tx, out.hops + back.hops);
        prop_assert_eq!(ok, out.delivered && back.delivered);
    }
}
