//! Asynchronous discrete-event simulation substrate.
//!
//! The paper's time model (Section 2): every sensor owns a clock that ticks as
//! an independent unit-rate Poisson process, which is equivalent to a single
//! global Poisson clock of rate `n` whose ticks are assigned to sensors
//! uniformly at random. Communication and packet forwarding are assumed to be
//! instantaneous relative to the mean slot length `1/n`. The cost of an
//! algorithm is the expected number of one-hop **transmissions** until the
//! ℓ₂ error drops below the target.
//!
//! This crate provides:
//!
//! * [`clock`] — Poisson clock processes (global-clock and per-node views).
//! * [`batch`] — the draw → resolve → commit stages that state every
//!   pairwise and geographic tick, and the engine's intra-trial parallel
//!   path built on them (pre-drawn tick plans, concurrent route resolution,
//!   draw-order commits), bit-identical to the sequential engine and opted
//!   into per scenario via the `parallelism` key.
//! * [`event`] — a time-ordered event queue for protocols that need to
//!   schedule future work (timeouts, deferred deactivations).
//! * [`metrics`] — transmission accounting and error-vs-cost trace recording;
//!   every experiment figure is produced from these traces.
//! * [`engine`] — a small driver that repeatedly draws the next clock tick,
//!   invokes a protocol callback ([`engine::Activation`], an object-safe
//!   trait), and stops on a caller-supplied condition; its
//!   [`engine::RunKernel`] holds the stopping rule and trace every tick
//!   loop shares.
//! * [`fault`] — deterministic fault injection (lossy transmissions, node
//!   churn, stale-value nodes) layered over any fault-aware protocol, with
//!   one node-fault state ([`fault::NodeFaults`]) shared by the engine and
//!   the message-passing runtime; a no-fault spec runs the bare protocol,
//!   bit-identically to before faults existed.
//! * [`transport`] — the optional execution-transport schema (latency models,
//!   the dedicated `"net"` seed stream) plus the [`transport::TransportRuntime`]
//!   trait the message-passing `geogossip-net` crate implements.
//! * [`rng`] — deterministic seed management so experiments are reproducible.
//!
//! The engine, the fault layer, and the scenario runner also accept a
//! telemetry [`Probe`](geogossip_telemetry::Probe) (`run_probed` /
//! `run_parallel_probed` / `Runner::run_probed`): deterministic structured
//! events streamed off the hot path. An unprobed run monomorphizes over the
//! zero-sized `NoProbe` and stays bit-identical to a probe-free build.
//! * [`field`] — initial measurement fields (spike, ramp, spatial gradient…).
//! * [`error`] — the [`ProtocolError`] shared by protocol constructors and
//!   scenario validation.
//! * [`scenario`] — scenarios as data: a serde [`scenario::ScenarioSpec`]
//!   (topology × field × protocol × stop condition × trials) and a
//!   [`scenario::Runner`] facade that executes specs with rayon-parallel,
//!   bit-deterministic trials.
//!
//! # Example
//!
//! ```
//! use geogossip_sim::clock::GlobalPoissonClock;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let mut clock = GlobalPoissonClock::new(100);
//! let tick = clock.next_tick(&mut rng);
//! assert!(tick.time > 0.0);
//! assert!(tick.node.index() < 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod clock;
pub mod engine;
pub mod error;
pub mod event;
pub mod fault;
pub mod field;
pub mod metrics;
pub mod rng;
pub mod scenario;
mod schema;
pub mod transport;

pub use batch::{BatchActivation, ParallelSpec, ResolvedPlan, TickPlan, DEFAULT_TICK_BATCH};
pub use clock::{BatchedPoissonClock, GlobalPoissonClock, Tick};
pub use engine::{
    Activation, AsyncEngine, Clocking, EngineReport, SquaredError, StopCondition, StopReason,
};
pub use error::ProtocolError;
pub use event::{EventQueue, ScheduledEvent};
pub use fault::{ChurnEvent, FaultContext, FaultSpec, FaultSupport, FaultyActivation, NodeFaults};
pub use field::{Field, InitialCondition};
pub use metrics::{ConvergenceTrace, TracePoint, TransmissionCounter};
pub use rng::SeedStream;
pub use transport::{
    LatencyModel, TransportRuntime, TransportSpec, TransportTrial, NET_STREAM_LABEL,
};
