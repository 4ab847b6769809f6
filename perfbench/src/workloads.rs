//! The benchmark's workloads: one scenario spec each, built from the seed.
//!
//! Each spec carries tick and transmission budgets of about twice its
//! converged count at the default seed, so a change that stops a workload
//! converging shows up as failed trials within seconds instead of a run that
//! never ends. README.md explains why each workload exists.

use geogossip_geometry::Topology;
use geogossip_sim::batch::ParallelSpec;
use geogossip_sim::fault::FaultSpec;
use geogossip_sim::field::Field;
use geogossip_sim::scenario::{
    PlacementSpec, ProtocolSpec, RadiusSpec, ScenarioSpec, TopologySpec,
};
use geogossip_sim::transport::{LatencyModel, ReliabilitySpec, RetryPolicy, TransportSpec};
use geogossip_sim::StopCondition;

/// The seed the per-trial figures in README.md were measured at.
pub const DEFAULT_SEED: u64 = 20_070_612;

/// How large the instances are: the benchmark's own sizes, or tiny ones for
/// the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny instances that finish in well under a second.
    Smoke,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Geographic gossip on a 32 768-node torus, sequential engine.
    GeoTorus,
    /// The paper's recursive affine hierarchy.
    AffineRecursive,
    /// Geographic gossip over the lossy message-passing runtime.
    GeoNetLossy,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::GeoTorus,
        Workload::AffineRecursive,
        Workload::GeoNetLossy,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GeoTorus => "geo-torus",
            Workload::AffineRecursive => "affine-recursive",
            Workload::GeoNetLossy => "geo-net-lossy",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's scenario spec for `seed`.
    pub fn spec(self, seed: u64, scale: Scale) -> ScenarioSpec {
        let (protocol, full_n, surface, epsilon) = match self {
            Workload::GeoTorus => ("geographic", 32_768, Topology::Torus, 0.1),
            Workload::AffineRecursive => ("affine-recursive", 2048, Topology::UnitSquare, 0.01),
            Workload::GeoNetLossy => ("geographic", 4096, Topology::Torus, 0.1),
        };
        let n = match scale {
            Scale::Full => full_n,
            Scale::Smoke => 256,
        };
        // Twice the converged count at the default seed (README.md); the
        // smoke instances keep the standard generous caps.
        let (max_ticks, max_transmissions) = match (scale, self) {
            (Scale::Smoke, _) => (200_000_000, 1_000_000_000),
            (Scale::Full, Workload::GeoTorus) => (330_000, 10_500_000),
            (Scale::Full, Workload::AffineRecursive) => (600, 12_300_000),
            (Scale::Full, Workload::GeoNetLossy) => (50_000, 700_000),
        };
        let transport = (self == Workload::GeoNetLossy).then_some(TransportSpec {
            latency: LatencyModel::Exponential { mean: 0.002 },
            reliability: ReliabilitySpec {
                drop: 0.1,
                duplicate: 0.02,
                retry: RetryPolicy {
                    timeout: 0.25,
                    backoff: 2.0,
                    max_retries: 3,
                },
            },
        });
        ScenarioSpec {
            name: self.name().to_string(),
            topology: TopologySpec {
                n,
                placement: PlacementSpec::UniformSquare,
                radius: RadiusSpec::ConnectivityConstant(1.5),
                surface,
            },
            field: Field::SpatialGradient,
            protocol: ProtocolSpec::named(protocol),
            stop: StopCondition {
                epsilon,
                max_ticks: Some(max_ticks),
                max_transmissions: Some(max_transmissions),
            },
            faults: FaultSpec::default(),
            transport,
            parallelism: None,
            trials: 1,
            seed,
        }
    }

    /// The spec's twin on the batched parallel engine with two threads,
    /// for the workload whose traced pass measures `sim::batch` and the
    /// pool. The twin is no end-to-end workload of its own: two threads on
    /// two shared vCPUs spread too widely (README.md).
    pub fn parallel_twin(self, seed: u64, scale: Scale) -> Option<ScenarioSpec> {
        (self == Workload::GeoTorus).then(|| ScenarioSpec {
            name: "geo-torus-par".to_string(),
            parallelism: Some(ParallelSpec::with_threads(2)),
            ..self.spec(seed, scale)
        })
    }
}
