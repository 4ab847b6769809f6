//! Layer replays timed from outside: the routing layer's two walk forms and
//! the batched Poisson clock, driven on a workload's trial-0 graph with
//! inputs drawn from the workload seed.

use crate::median;
use geogossip_geometry::point::NodeId;
use geogossip_geometry::sampling::uniform_point_in;
use geogossip_geometry::{unit_square, Point};
use geogossip_graph::GeometricGraph;
use geogossip_routing::greedy::{greedy_step, route_terminus, route_to_position_into};
use geogossip_sim::clock::BatchedPoissonClock;
use geogossip_sim::SeedStream;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Routes per routing replay.
pub const REPLAY_ROUTES: usize = 8192;
/// Ticks per clock replay.
pub const REPLAY_TICKS: usize = 2_000_000;
/// Timed repetitions of each replay; the median is reported.
const REPEATS: usize = 5;

/// The routing replay's figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingReplay {
    /// Routes walked.
    pub routes: u64,
    /// Hops over all routes.
    pub hops: u64,
    /// Neighbour entries scanned over all routes (every node on a route,
    /// the terminus included, scans its whole row).
    pub neighbors_scanned: u64,
    /// Median seconds for all routes through `route_terminus`.
    pub walk_s: f64,
    /// Median seconds for all routes by iterating `greedy_step`.
    pub step_s: f64,
    /// Routes whose iterated `greedy_step` walk ended elsewhere or took a
    /// different number of hops than `route_terminus`.
    pub mismatches: u64,
}

impl RoutingReplay {
    /// Hops per route.
    pub fn hops_per_route(&self) -> f64 {
        self.hops as f64 / self.routes as f64
    }

    /// Nanoseconds per hop of the whole-walk form.
    pub fn ns_per_hop(&self) -> f64 {
        self.walk_s * 1e9 / self.hops.max(1) as f64
    }

    /// Nanoseconds per scanned neighbour of the whole-walk form.
    pub fn ns_per_neighbor(&self) -> f64 {
        self.walk_s * 1e9 / self.neighbors_scanned.max(1) as f64
    }

    /// Nanoseconds per hop of the iterated single-step form.
    pub fn step_ns_per_hop(&self) -> f64 {
        self.step_s * 1e9 / self.hops.max(1) as f64
    }
}

/// The geographic selector's draw: the clock's uniformly random sensor as
/// source, a uniform position in the unit square as target.
fn draw_routes(graph: &GeometricGraph, seed: u64, routes: usize) -> Vec<(NodeId, Point)> {
    let mut rng = SeedStream::new(seed).stream("perfbench.routes");
    (0..routes)
        .map(|_| {
            let source = NodeId(rng.gen_range(0..graph.len()));
            (source, uniform_point_in(unit_square(), &mut rng))
        })
        .collect()
}

/// Replays `routes` geographic routes on `graph` through both walk forms.
pub fn routing(graph: &GeometricGraph, seed: u64, routes: usize) -> RoutingReplay {
    let pairs = draw_routes(graph, seed, routes);
    let mut path = Vec::new();
    let mut neighbors_scanned = 0u64;
    let mut expected = Vec::with_capacity(pairs.len());
    for &(source, target) in &pairs {
        let route = route_to_position_into(graph, source, target, &mut path);
        neighbors_scanned += path.iter().map(|&v| graph.degree(v) as u64).sum::<u64>();
        expected.push(route);
    }
    let hops: u64 = expected.iter().map(|r| r.hops as u64).sum();

    let walk_s = median(
        (0..REPEATS)
            .map(|_| {
                let start = Instant::now();
                for &(source, target) in &pairs {
                    black_box(route_terminus(graph, black_box(source), black_box(target)));
                }
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );

    let mut mismatches = 0u64;
    let step_s = median(
        (0..REPEATS)
            .map(|_| {
                mismatches = 0;
                let start = Instant::now();
                for (&(source, target), want) in pairs.iter().zip(&expected) {
                    let mut at = black_box(source);
                    let mut steps = 0usize;
                    while let Some(next) = greedy_step(graph, at, black_box(target)) {
                        at = next;
                        steps += 1;
                    }
                    if at != want.terminus || steps != want.hops {
                        mismatches += 1;
                    }
                }
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );

    RoutingReplay {
        routes: pairs.len() as u64,
        hops,
        neighbors_scanned,
        walk_s,
        step_s,
        mismatches,
    }
}

/// Median nanoseconds per `BatchedPoissonClock::next_tick` for an
/// `n`-sensor clock.
pub fn clock_ns_per_tick(n: usize, seed: u64, ticks: usize) -> f64 {
    median(
        (0..REPEATS)
            .map(|_| {
                let mut rng = SeedStream::new(seed).stream("perfbench.clock");
                let mut clock = BatchedPoissonClock::new(n);
                let start = Instant::now();
                for _ in 0..ticks {
                    black_box(clock.next_tick(&mut rng));
                }
                black_box(clock.now());
                start.elapsed().as_nanos() as f64 / ticks as f64
            })
            .collect(),
    )
}
