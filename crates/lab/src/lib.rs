//! # geogossip-lab
//!
//! The **sweep lab**: parameter-grid campaigns with checkpointed execution,
//! streaming aggregation, and scaling-law verdicts.
//!
//! The paper's headline result is a scaling *comparison* — transmissions to
//! ε-average grow like `n²` for nearest-neighbor gossip (Boyd et al.),
//! `~n^{3/2}√log n` for geographic gossip (Dimakis–Sarwate–Wainwright) and
//! `n^{1+o(1)}` for the affine hierarchy (this paper). This crate turns that
//! comparison into one machine-checkable pipeline:
//!
//! 1. **Declare** the grid as a [`SweepSpec`](geogossip_sim::scenario::SweepSpec)
//!    (axes over `n`, protocol, placement, radius regime, surface, ε, faults
//!    and transport) — it
//!    expands deterministically into a scenario matrix with per-cell seeds
//!    derived from `(master_seed, cell_index)`.
//! 2. **Execute** it with [`run_sweep`]: cells run in index order through the
//!    scenario [`Runner`](geogossip_sim::scenario::Runner) (trials
//!    rayon-parallel, bit-deterministic), each completed cell streaming to an
//!    append-only JSONL [`ResultsLog`]. Re-running skips cells already on
//!    disk, so a campaign can be **killed and resumed bit-identically**
//!    (modulo wall-clock fields).
//! 3. **Aggregate** the log with [`SweepAggregator`]: per-cell mean/CI
//!    (`Summary`) and median/p95 (`P2Quantile`, streaming) statistics, then
//!    per-`(protocol, coordinates)` log–log power-law fits with exponent
//!    confidence intervals, and [`Verdict`]s stating whether the fitted
//!    exponents reproduce the paper's claims and whether each degradation
//!    ladder (cells alike but for their faults, latency or wire loss)
//!    degrades gracefully.
//! 4. **Report** with [`SweepReport`]: Markdown + CSV + JSON, wall-clock kept
//!    in a separate `timing.csv` so the report set is byte-reproducible.
//!
//! The `geogossip sweep` CLI subcommand is a thin wrapper over exactly this
//! crate; `scenarios/sweeps/scaling_headline.json` is the committed
//! three-protocol exponent comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod error;
pub mod log;
pub mod report;
pub mod run;

pub use aggregate::{
    CellSummary, GroupFit, SweepAggregate, SweepAggregator, Verdict, GEOGRAPHIC_EXPONENT_RANGE,
};
pub use error::LabError;
pub use log::{CellCoords, CellRecord, FaultLevel, LogContents, ResultsLog, TrialOutcome, Wire};
pub use report::SweepReport;
pub use run::{
    check_sweep, run_sweep, run_sweep_probed, SweepOptions, SweepOutcome, SweepProgress,
};
