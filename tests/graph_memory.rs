//! The graph keeps one `f64` copy of every coordinate. Routing, the engine's
//! protocols and the message-passing runtime under churn read `positions`
//! and the `f32` scan rows, never the CSR-aligned `f64` view that
//! `neighbor_block` gathers on first call. `heap_bytes` pins both halves: it
//! does not move while every reader runs, and it grows by exactly the view's
//! 16 B per directed edge once something asks for the view.

use geogossip::core::prelude::*;
use geogossip::geometry::point::NodeId;
use geogossip::geometry::sampling::sample_unit_square;
use geogossip::geometry::{Point, Topology};
use geogossip::graph::GeometricGraph;
use geogossip::net::NetRuntime;
use geogossip::routing::greedy::{greedy_step, greedy_step_masked};
use geogossip::routing::{route_terminus, route_terminus_masked};
use geogossip::sim::batch::resolve_plan;
use geogossip::sim::scenario::{ProtocolFactory, ProtocolSpec};
use geogossip::sim::transport::{LatencyModel, ReliabilitySpec, TransportRuntime, TransportSpec};
use geogossip::sim::{AsyncEngine, ChurnEvent, FaultSpec, StopCondition, TickPlan};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const N: usize = 256;

fn graph(topology: Topology) -> GeometricGraph {
    let pts = sample_unit_square(N, &mut ChaCha8Rng::seed_from_u64(20));
    let radius = geogossip::geometry::connectivity_radius(N, 2.0);
    GeometricGraph::build_with_topology(pts, radius, topology)
}

/// Calls every production reader of the graph's coordinates once or more.
fn drive_every_reader(g: &GeometricGraph) {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    // A quarter of the sensors dead: the masked walks and steps scan.
    let alive: Vec<bool> = (0..N).map(|i| i % 4 != 0).collect();
    for _ in 0..64 {
        let target = Point::new(rng.gen(), rng.gen());
        let source = NodeId(rng.gen_range(0..N));
        let live = NodeId(source.index() | 1);
        route_terminus(g, source, target);
        greedy_step(g, source, target);
        route_terminus_masked(g, live, target, &alive);
        greedy_step_masked(g, live, target, &alive);
        resolve_plan(g, live, &TickPlan::RoutePosition { target }, &alive);
        let node = NodeId(rng.gen_range(0..N));
        resolve_plan(g, source, &TickPlan::RouteNode { target: node }, &[]);
    }

    let stop = StopCondition::at_epsilon(0.1).with_max_ticks(50_000);
    let registry = ProtocolRegistry::builtin();
    for name in ["pairwise", "geographic", "affine-recursive"] {
        let values = InitialCondition::Spike.generate(N, &mut rng);
        let mut protocol = registry
            .build(&ProtocolSpec::named(name), g, values, 0.1, &mut rng)
            .expect("built-in protocol builds");
        AsyncEngine::new(N).run(protocol.as_mut(), stop, &mut rng);
    }

    let transport = TransportSpec {
        latency: LatencyModel::Fixed(0.002),
        reliability: ReliabilitySpec {
            drop: 0.1,
            ..ReliabilitySpec::default()
        },
    };
    let faults = FaultSpec {
        churn: vec![ChurnEvent {
            fraction: 0.25,
            at_tick: 10,
            rejoin_tick: None,
        }],
        ..FaultSpec::default()
    };
    let values = InitialCondition::Spike.generate(N, &mut rng);
    let trial = NetRuntime
        .run_trial(
            &ProtocolSpec::named("geographic"),
            &transport,
            &faults,
            g,
            values,
            stop,
            &mut rng,
            &mut ChaCha8Rng::seed_from_u64(22),
            ChaCha8Rng::seed_from_u64(23),
            None,
        )
        .expect("lossy churned geographic trial runs");
    let dead = trial
        .metrics
        .iter()
        .find(|(key, _)| key == "dead_activations")
        .map(|&(_, value)| value);
    assert!(dead.unwrap_or(0.0) > 0.0, "churn never killed a sensor");
}

#[test]
fn no_reader_builds_the_f64_neighbor_view() {
    for topology in [Topology::Torus, Topology::UnitSquare] {
        let g = graph(topology);
        let before = g.heap_bytes();
        drive_every_reader(&g);
        assert_eq!(
            g.heap_bytes(),
            before,
            "{topology:?}: a reader grew the graph"
        );

        let directed_edges = g.adjacency().entry_count();
        assert!(directed_edges > 0);
        let _ = g.neighbor_block(NodeId(0));
        assert_eq!(
            g.heap_bytes(),
            before + 16 * directed_edges,
            "{topology:?}: the view is two f64 per directed edge"
        );
        let _ = g.neighbor_block(NodeId(1));
        assert_eq!(g.heap_bytes(), before + 16 * directed_edges);
    }
}
