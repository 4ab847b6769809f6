//! Three-way parity pin for intra-trial parallelism.
//!
//! `AsyncEngine::run_parallel` (pre-drawn tick batches, batch-wide concurrent
//! route resolution, draw-order commits) must be **bit-identical** to
//! both `AsyncEngine::run` and the preserved pre-overhaul loop
//! `AsyncEngine::run_reference` — same `EngineReport` (reason, ticks,
//! simulation time, transmissions, final error, every trace point), same
//! simulation-time bits, and same RNG end state — at *every* thread count and
//! batch size, including a single thread and a batch of one. Parallelism is an
//! execution strategy here, never a semantics change; this file is the pin
//! that keeps it that way.

use geogossip::core::prelude::*;
use geogossip::graph::GeometricGraph;
use geogossip::sim::{AsyncEngine, BatchActivation, EngineReport, ParallelSpec, StopCondition};
use geogossip_geometry::sampling::sample_unit_square;
use geogossip_geometry::Topology;
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Thread counts exercised by the deterministic sweeps: the degenerate single
/// worker, a small even split, and a prime that never divides the batch.
const THREADS: [usize; 3] = [1, 2, 7];
/// Batch sizes: one tick per batch (maximum rewind pressure), a mid-size
/// batch, and one larger than most whole runs (a single draw covers the run).
const BATCHES: [usize; 3] = [1, 64, 4096];

/// Runs `build_protocol`'s instance through all three engine paths from
/// identically seeded RNGs and asserts the reports and RNG end states match.
fn assert_parallel_parity<'a, P, F>(
    n: usize,
    stop: StopCondition,
    run_seed: u64,
    par: ParallelSpec,
    mut build_protocol: F,
) where
    P: BatchActivation + 'a,
    F: FnMut() -> P,
{
    let mut rng_parallel = ChaCha8Rng::seed_from_u64(run_seed);
    let mut rng_sequential = rng_parallel.clone();
    let mut rng_reference = rng_parallel.clone();

    let mut parallel_protocol = build_protocol();
    let parallel: EngineReport =
        AsyncEngine::new(n).run_parallel(&mut parallel_protocol, stop, &mut rng_parallel, par);

    let mut sequential_protocol = build_protocol();
    let sequential: EngineReport =
        AsyncEngine::new(n).run(&mut sequential_protocol, stop, &mut rng_sequential);

    let mut reference_protocol = build_protocol();
    let reference: EngineReport =
        AsyncEngine::new(n).run_reference(&mut reference_protocol, stop, &mut rng_reference);

    assert_eq!(
        parallel, sequential,
        "parallel vs sequential EngineReports diverged ({par:?})"
    );
    assert_eq!(
        parallel, reference,
        "parallel vs reference EngineReports diverged ({par:?})"
    );
    assert_eq!(
        parallel.time.to_bits(),
        sequential.time.to_bits(),
        "simulation time not bit-identical ({par:?})"
    );
    assert_eq!(
        parallel_protocol.metrics(),
        sequential_protocol.metrics(),
        "protocol metrics diverged ({par:?})"
    );
    for _ in 0..4 {
        let expected = rng_sequential.next_u64();
        assert_eq!(
            rng_parallel.next_u64(),
            expected,
            "parallel RNG consumption diverged ({par:?})"
        );
        assert_eq!(
            rng_reference.next_u64(),
            expected,
            "reference RNG consumption diverged"
        );
    }
}

fn graph(n: usize, c: f64, topology: Topology, seed: u64) -> GeometricGraph {
    let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
    let radius = geogossip_geometry::connectivity_radius(n, c).min(0.49);
    GeometricGraph::build_with_topology(pts, radius, topology)
}

/// The full deterministic cross: both protocols × both topologies × every
/// thread count × every batch size, converging stop conditions.
#[test]
fn thread_and_batch_cross_is_bit_identical() {
    for (torus, topology) in [(0u64, Topology::UnitSquare), (1, Topology::Torus)] {
        let n = 112;
        let g = graph(n, 2.0, topology, 21 + torus);
        let spike = InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(5 + torus));
        let bimodal =
            InitialCondition::Bimodal.generate(n, &mut ChaCha8Rng::seed_from_u64(6 + torus));
        let stop = StopCondition::at_epsilon(0.05).with_max_ticks(40_000);
        for threads in THREADS {
            for batch in BATCHES {
                let par = ParallelSpec::with_threads(threads).with_batch(batch);
                assert_parallel_parity(n, stop, 77 ^ torus, par, || {
                    GeographicGossip::new(&g, spike.clone()).expect("valid instance")
                });
                assert_parallel_parity(n, stop, 78 ^ torus, par, || {
                    PairwiseGossip::new(&g, bimodal.clone()).expect("valid instance")
                });
            }
        }
    }
}

/// Stops that land mid-batch (tick caps and transmission budgets that are not
/// multiples of the batch size) must rewind the RNG to the committed prefix.
#[test]
fn mid_batch_stops_leave_the_sequential_rng_state() {
    let n = 96;
    let g = graph(n, 2.0, Topology::UnitSquare, 8);
    let values = InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(9));
    // Caps chosen to be coprime with every batch size above.
    for max_ticks in [1u64, 97, 1013] {
        let stop = StopCondition::at_epsilon(1e-12).with_max_ticks(max_ticks);
        for batch in BATCHES {
            let par = ParallelSpec::with_threads(7).with_batch(batch);
            assert_parallel_parity(n, stop, 31, par, || {
                GeographicGossip::new(&g, values.clone()).expect("valid instance")
            });
        }
    }
    for max_tx in [50u64, 733, 4999] {
        let stop = StopCondition::at_epsilon(1e-12)
            .with_max_ticks(100_000)
            .with_max_transmissions(max_tx);
        for batch in BATCHES {
            let par = ParallelSpec::with_threads(2).with_batch(batch);
            assert_parallel_parity(n, stop, 32, par, || {
                PairwiseGossip::new(&g, values.clone()).expect("valid instance")
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Geographic gossip (routing-heavy, shares the RNG with the clock) on
    /// both topologies, with thread count and batch size drawn adversarially.
    #[test]
    fn geographic_parallel_runs_are_bit_identical(
        n in 24usize..160,
        seed in 0u64..500,
        torus in 0usize..2,
        epsilon in 0.02f64..0.6,
        max_ticks in 200u64..20_000,
        threads in 1usize..9,
        batch_index in 0usize..3,
    ) {
        let topology = if torus == 1 { Topology::Torus } else { Topology::UnitSquare };
        let g = graph(n, 2.0, topology, seed);
        let values =
            InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(seed ^ 0xf1e1d));
        let stop = StopCondition::at_epsilon(epsilon).with_max_ticks(max_ticks);
        let par = ParallelSpec::with_threads(threads).with_batch(BATCHES[batch_index]);
        assert_parallel_parity(n, stop, seed ^ 0x9e0, par, || {
            GeographicGossip::new(&g, values.clone()).expect("valid instance")
        });
    }

    /// Pairwise gossip, including transmission-budget stops.
    #[test]
    fn pairwise_parallel_runs_are_bit_identical(
        n in 16usize..200,
        seed in 0u64..500,
        epsilon in 0.01f64..0.5,
        max_tx in 100u64..50_000,
        threads in 1usize..9,
        batch_index in 0usize..3,
    ) {
        let g = graph(n, 2.0, Topology::UnitSquare, seed);
        let values =
            InitialCondition::Bimodal.generate(n, &mut ChaCha8Rng::seed_from_u64(seed ^ 0xb1));
        let stop = StopCondition::at_epsilon(epsilon)
            .with_max_ticks(100_000)
            .with_max_transmissions(max_tx);
        let par = ParallelSpec::with_threads(threads).with_batch(BATCHES[batch_index]);
        assert_parallel_parity(n, stop, seed ^ 0x7a17, par, || {
            PairwiseGossip::new(&g, values.clone()).expect("valid instance")
        });
    }
}

/// The squared-domain stop pre-filter runs inside the commit replay too:
/// knife-edge epsilons harvested from a reference run's own error trajectory
/// (exact crossings, then ±1 ulp) must stop the parallel engine at the same
/// tick as both sequential paths.
#[test]
fn knife_edge_epsilons_stop_the_parallel_engine_at_the_same_tick() {
    let n = 64;
    let g = graph(n, 2.0, Topology::UnitSquare, 42);
    let values = InitialCondition::Spike.generate(n, &mut ChaCha8Rng::seed_from_u64(43));

    let mut probe = GeographicGossip::new(&g, values.clone()).expect("valid instance");
    let report = AsyncEngine::new(n).sample_every(13).run_reference(
        &mut probe,
        StopCondition::at_epsilon(0.05).with_max_ticks(20_000),
        &mut ChaCha8Rng::seed_from_u64(44),
    );
    let harvested: Vec<f64> = report
        .trace
        .points()
        .iter()
        .map(|p| p.relative_error)
        .filter(|e| *e > 0.0 && e.is_finite())
        .collect();
    assert!(harvested.len() >= 4, "probe run produced too few samples");

    for &error in harvested.iter().take(8) {
        for epsilon in [
            error,
            f64::from_bits(error.to_bits() + 1),
            f64::from_bits(error.to_bits() - 1),
        ] {
            let stop = StopCondition::at_epsilon(epsilon).with_max_ticks(20_000);
            for batch in BATCHES {
                let par = ParallelSpec::with_threads(7).with_batch(batch);
                assert_parallel_parity(n, stop, 44, par, || {
                    GeographicGossip::new(&g, values.clone()).expect("valid instance")
                });
            }
        }
    }
}
