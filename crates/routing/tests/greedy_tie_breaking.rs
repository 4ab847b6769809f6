//! Pins greedy tie-breaking: among neighbors **exactly** equidistant from the
//! target, the walk always forwards to the lowest neighbor index.
//!
//! The configurations are constructed, not sampled: ring nodes sit at dyadic
//! offsets mirrored around the target, so their squared distances are equal
//! bit-for-bit (not merely close), and the insertion order — hence the node
//! indices — is shuffled per case. This is the contract that keeps the
//! vectorized argmin scan (and any future scan) from silently changing
//! termini: pass 2 of the walk recovers the first index attaining the
//! minimum, CSR rows are sorted, so equal distances must resolve to the
//! lowest index. The production walk, the stateless `greedy_step` iterated
//! hop by hop, and the preserved scalar reference are asserted against the
//! same expectation.

use geogossip_geometry::point::NodeId;
use geogossip_geometry::topology::wrap_delta;
use geogossip_geometry::{Point, Topology};
use geogossip_graph::GeometricGraph;
use geogossip_routing::greedy::{greedy_step, route_terminus, route_terminus_reference, FastRoute};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Shuffles `items` deterministically (Fisher–Yates under a seeded ChaCha).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Builds the instance: `ring` positions exactly equidistant from `target`
/// plus one `source` farther away, insertion order shuffled by `seed`.
/// Returns the graph, the source id, and the ids of the ring nodes.
fn tie_instance(
    ring: Vec<Point>,
    source: Point,
    radius: f64,
    topology: Topology,
    seed: u64,
) -> (GeometricGraph, NodeId, Vec<NodeId>) {
    let mut tagged: Vec<(bool, Point)> = ring.into_iter().map(|p| (true, p)).collect();
    tagged.push((false, source));
    shuffle(&mut tagged, seed);
    let positions: Vec<Point> = tagged.iter().map(|&(_, p)| p).collect();
    let source_id = NodeId(tagged.iter().position(|&(is_ring, _)| !is_ring).unwrap());
    let ring_ids: Vec<NodeId> = tagged
        .iter()
        .enumerate()
        .filter(|(_, &(is_ring, _))| is_ring)
        .map(|(i, _)| NodeId(i))
        .collect();
    let graph = GeometricGraph::build_with_topology(positions, radius, topology);
    (graph, source_id, ring_ids)
}

/// Asserts the walk from `source` towards `target` forwards to the lowest
/// ring index in one hop and stops there (no node is closer than the ring),
/// on the production scan, the iterated `greedy_step` and the scalar
/// reference.
fn assert_lowest_index_wins(
    graph: &GeometricGraph,
    source: NodeId,
    target: Point,
    ring_ids: &[NodeId],
) {
    let expected = *ring_ids.iter().min_by_key(|id| id.index()).unwrap();
    let fast = route_terminus(graph, source, target);
    assert_eq!(
        fast.terminus, expected,
        "tie must resolve to the lowest neighbor index"
    );
    assert_eq!(fast.hops, 1, "the tie decides the first and only hop");
    let reference = route_terminus_reference(graph, source, target);
    assert_eq!(fast, reference, "fast scan diverged from scalar reference");
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
    let stepped = FastRoute {
        source,
        terminus,
        hops,
    };
    assert_eq!(
        stepped, reference,
        "iterated greedy_step diverged from scalar reference"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unit square: four (or eight, when `ka != kb`) nodes mirrored around
    /// the target at dyadic offsets `(±a, ±b)` are bitwise equidistant; the
    /// walk must pick the lowest index regardless of insertion order.
    #[test]
    fn equidistant_neighbors_resolve_to_lowest_index(
        ka in 1usize..33,
        kb in 1usize..33,
        seed in 0u64..10_000,
    ) {
        let a = ka as f64 / 256.0;
        let b = kb as f64 / 256.0;
        let target = Point::new(0.5, 0.5);
        let mut ring = vec![
            Point::new(0.5 + a, 0.5 + b),
            Point::new(0.5 + a, 0.5 - b),
            Point::new(0.5 - a, 0.5 + b),
            Point::new(0.5 - a, 0.5 - b),
        ];
        if ka != kb {
            ring.extend([
                Point::new(0.5 + b, 0.5 + a),
                Point::new(0.5 + b, 0.5 - a),
                Point::new(0.5 - b, 0.5 + a),
                Point::new(0.5 - b, 0.5 - a),
            ]);
        }
        // The offsets are exact in binary, so the squared distances tie
        // bit-for-bit — assert it rather than assume it.
        let d2: Vec<u64> = ring
            .iter()
            .map(|p| {
                let (dx, dy) = (p.x - target.x, p.y - target.y);
                (dx * dx + dy * dy).to_bits()
            })
            .collect();
        prop_assert!(d2.windows(2).all(|w| w[0] == w[1]), "ring is not a tie");

        // Source below the ring, strictly farther from the target; radius
        // comfortably connects it to every ring node.
        let source = Point::new(0.5, 0.25);
        let (graph, source_id, ring_ids) =
            tie_instance(ring, source, 0.45, Topology::UnitSquare, seed);
        assert_lowest_index_wins(&graph, source_id, target, &ring_ids);
    }

    /// Torus: the tie spans the seam — two nodes at `x = a` and two at
    /// `x = 1 − a` are wrapped-equidistant from a target on the seam — so the
    /// pin also covers the wrapped metric's folded deltas.
    #[test]
    fn equidistant_neighbors_across_the_seam_resolve_to_lowest_index(
        ka in 1usize..33,
        kb in 1usize..33,
        seed in 0u64..10_000,
    ) {
        let a = ka as f64 / 256.0;
        let b = kb as f64 / 256.0;
        let target = Point::new(0.0, 0.5);
        let ring = vec![
            Point::new(a, 0.5 + b),
            Point::new(a, 0.5 - b),
            Point::new(1.0 - a, 0.5 + b),
            Point::new(1.0 - a, 0.5 - b),
        ];
        let d2: Vec<u64> = ring
            .iter()
            .map(|p| {
                let dx = wrap_delta(p.x - target.x);
                let dy = wrap_delta(p.y - target.y);
                (dx * dx + dy * dy).to_bits()
            })
            .collect();
        prop_assert!(d2.windows(2).all(|w| w[0] == w[1]), "ring is not a tie");

        let source = Point::new(0.25, 0.5);
        let (graph, source_id, ring_ids) = tie_instance(ring, source, 0.45, Topology::Torus, seed);
        assert_lowest_index_wins(&graph, source_id, target, &ring_ids);
    }
}
