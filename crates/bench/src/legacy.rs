//! The seed's pre-optimization hot path, preserved verbatim for benchmarking.
//!
//! The perf acceptance criterion for the CSR/allocation-free overhaul is a
//! speedup **measured in the same tree**: this module re-implements the
//! geographic-gossip hot path exactly as the seed had it — `Vec<Vec<usize>>`
//! adjacency, a heap-allocated `path` vector per routing call, and
//! per-neighbor position gathering — so the `bench_baseline` binary can put
//! old and new side by side on the same machine and the same instances.
//! Nothing outside benchmarking should use this module.

use geogossip_geometry::point::NodeId;
use geogossip_geometry::sampling::uniform_point_in;
use geogossip_geometry::{unit_square, Point};
use geogossip_graph::GeometricGraph;
use rand::Rng;

/// The seed's graph representation: positions plus nested-`Vec` adjacency.
pub struct LegacyGraph {
    positions: Vec<Point>,
    adjacency: Vec<Vec<usize>>,
}

impl LegacyGraph {
    /// Copies a [`GeometricGraph`] into the seed's `Vec<Vec<usize>>` layout.
    pub fn from_graph(graph: &GeometricGraph) -> Self {
        let adjacency = (0..graph.len())
            .map(|u| {
                graph
                    .neighbors(NodeId(u))
                    .iter()
                    .map(|&v| v as usize)
                    .collect()
            })
            .collect();
        LegacyGraph {
            positions: graph.positions().to_vec(),
            adjacency,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// The seed's `route_to_position`: one heap-allocated path per call, one
/// position gather per scanned neighbor.
pub fn legacy_route_to_position(
    graph: &LegacyGraph,
    source: NodeId,
    target: Point,
) -> (NodeId, usize, Vec<NodeId>) {
    let mut current = source.index();
    let mut path = vec![NodeId(current)];
    let mut current_dist = graph.positions[current].distance_squared(target);
    loop {
        let mut best: Option<(usize, f64)> = None;
        for &nbr in &graph.adjacency[current] {
            let d = graph.positions[nbr].distance_squared(target);
            if d < current_dist && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((nbr, d));
            }
        }
        match best {
            Some((next, d)) => {
                current = next;
                current_dist = d;
                path.push(NodeId(current));
            }
            None => break,
        }
    }
    (NodeId(current), path.len() - 1, path)
}

/// One geographic-gossip clock tick against the legacy layout: route to the
/// node nearest a uniform position, route the reply back, average. Returns
/// the total hop count (so callers can keep the work observable).
pub fn legacy_geographic_tick<R: Rng + ?Sized>(
    graph: &LegacyGraph,
    values: &mut [f64],
    activated: NodeId,
    rng: &mut R,
) -> usize {
    let target = uniform_point_in(unit_square(), rng);
    let (partner, out_hops, _path) = legacy_route_to_position(graph, activated, target);
    if partner == activated {
        return 0;
    }
    let (_, back_hops, _path) =
        legacy_route_to_position(graph, partner, graph.positions[activated.index()]);
    let avg = (values[activated.index()] + values[partner.index()]) / 2.0;
    values[activated.index()] = avg;
    values[partner.index()] = avg;
    out_hops + back_hops
}

/// The same tick against the CSR graph using the allocation-free fast path —
/// the exact per-tick work `GeographicGossip::on_tick` now performs.
pub fn csr_geographic_tick<R: Rng + ?Sized>(
    graph: &GeometricGraph,
    values: &mut [f64],
    activated: NodeId,
    rng: &mut R,
) -> usize {
    use geogossip_routing::greedy::{route_terminus, route_terminus_to_node};
    let target = uniform_point_in(unit_square(), rng);
    let out = route_terminus(graph, activated, target);
    let partner = out.terminus;
    if partner == activated {
        return 0;
    }
    let (back, _) = route_terminus_to_node(graph, partner, activated);
    let avg = (values[activated.index()] + values[partner.index()]) / 2.0;
    values[activated.index()] = avg;
    values[partner.index()] = avg;
    out.hops + back.hops
}

/// The full pre-overhaul geographic-gossip protocol: the exact per-tick work
/// `GeographicGossip` performed before the engine/routing tick-loop overhaul,
/// with the **preserved scalar reference walk**
/// ([`geogossip_routing::greedy::route_terminus_reference`]) for both legs
/// and no squared-domain stop hook (so `AsyncEngine::run_reference` checks
/// convergence with the exact sqrt/divide comparison every tick, exactly as
/// the pre-overhaul loop did).
///
/// Driving this through `AsyncEngine::run_reference` therefore reproduces
/// the complete pre-PR tick loop in the current tree, which is what
/// `bench_baseline --append-tick-large` measures the overhauled loop
/// against; the two runs are asserted to produce identical reports, so the
/// speedup is apples to apples.
pub struct ReferenceGeographicGossip<'a> {
    graph: &'a GeometricGraph,
    state: geogossip_core::GossipState,
}

impl<'a> ReferenceGeographicGossip<'a> {
    /// Wraps a graph and an initial value vector.
    pub fn new(graph: &'a GeometricGraph, initial_values: Vec<f64>) -> Self {
        ReferenceGeographicGossip {
            graph,
            state: geogossip_core::GossipState::new(initial_values),
        }
    }
}

impl geogossip_sim::Activation for ReferenceGeographicGossip<'_> {
    fn on_tick(
        &mut self,
        tick: geogossip_sim::Tick,
        tx: &mut geogossip_sim::TransmissionCounter,
        rng: &mut dyn rand::RngCore,
    ) {
        use geogossip_routing::greedy::{
            route_terminus_reference, route_terminus_to_node_reference,
        };
        if self.graph.len() < 2 {
            return;
        }
        let s = tick.node;
        // Identical RNG draws and update sequence to `GeographicGossip::step`
        // with the default selector; only the walk implementation differs.
        let target = uniform_point_in(unit_square(), rng);
        let outcome = route_terminus_reference(self.graph, s, target);
        let (partner, outbound_hops) = (outcome.terminus, outcome.hops);
        if partner == s {
            return;
        }
        let (back, _) = route_terminus_to_node_reference(self.graph, partner, s);
        let (new_s, new_p) = geogossip_core::update::convex_average(
            self.state.value(s.index()),
            self.state.value(partner.index()),
        );
        self.state.set(s.index(), new_s);
        self.state.set(partner.index(), new_p);
        tx.charge_routing((outbound_hops + back.hops) as u64);
    }

    fn relative_error(&self) -> f64 {
        self.state.relative_error()
    }

    fn name(&self) -> &str {
        "geographic (pre-overhaul reference)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_geometry::sampling::sample_unit_square;
    use geogossip_routing::greedy::route_to_position;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn legacy_and_csr_routing_agree() {
        let pts = sample_unit_square(400, &mut ChaCha8Rng::seed_from_u64(1));
        let graph = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
        let legacy = LegacyGraph::from_graph(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..50 {
            let src = NodeId(rng.gen_range(0..graph.len()));
            let target = uniform_point_in(unit_square(), &mut rng);
            let (lt, lh, lpath) = legacy_route_to_position(&legacy, src, target);
            let new = route_to_position(&graph, src, target);
            assert_eq!(lt, new.terminus);
            assert_eq!(lh, new.hops);
            assert_eq!(lpath, new.path);
        }
    }

    #[test]
    fn legacy_and_csr_ticks_do_the_same_exchange() {
        let pts = sample_unit_square(300, &mut ChaCha8Rng::seed_from_u64(3));
        let graph = GeometricGraph::build_at_connectivity_radius(pts, 2.0);
        let legacy = LegacyGraph::from_graph(&graph);
        let mut values_a: Vec<f64> = (0..graph.len()).map(|i| i as f64).collect();
        let mut values_b = values_a.clone();
        for step in 0..50u64 {
            let activated = NodeId((step as usize * 13) % graph.len());
            let ha = legacy_geographic_tick(
                &legacy,
                &mut values_a,
                activated,
                &mut ChaCha8Rng::seed_from_u64(step),
            );
            let hb = csr_geographic_tick(
                &graph,
                &mut values_b,
                activated,
                &mut ChaCha8Rng::seed_from_u64(step),
            );
            assert_eq!(ha, hb);
            assert_eq!(values_a, values_b);
        }
    }
}
