//! The paper's contribution: hierarchical geographic gossip via affine
//! combinations.
//!
//! The construction has three ingredients (Sections 3 and 4):
//!
//! 1. **A hierarchical square partition** of the unit square into cells whose
//!    expected population shrinks by a square root per level
//!    ([`hierarchy::Hierarchy`], built on
//!    [`geogossip_geometry::SquarePartition`]). Each cell has a *leader*, the
//!    sensor closest to its center.
//! 2. **Non-convex affine exchanges between leaders** of sibling cells, with
//!    coefficient `(2/5)·E#(□)` — about `2√n/5` at the top level. After the
//!    two cells are re-averaged internally, the *cell sums* evolve exactly as
//!    the Lemma-1 dynamics on a complete graph over the cells
//!    ([`crate::update::cell_sum_exchange`]).
//! 3. **A schedule** that keeps local averaging and long-range exchanges from
//!    interfering: each leader activates its cell, lets it average locally,
//!    deactivates it, and only then (at a much lower rate) engages in
//!    long-range exchanges ([`state_machine`], with the paper's literal rate
//!    formulas in [`schedule`]).
//!
//! Two implementations are provided:
//!
//! * [`round_based::RoundBasedAffineGossip`] — the idealised recursion of the
//!   Section-3 overview, which drives the scaling experiments (E3, E4, E8).
//! * [`state_machine::AffineStateMachine`] — the literal asynchronous protocol
//!   of Section 4.2 (`Near` / `Far` / `Activate.square` / `Deactivate.square`
//!   with `local.state` / `global.state` / `counter`), runnable with practical
//!   schedule parameters and, for small instances, with the paper's own
//!   constants.
//!
//! Both share, from [`hierarchy`], one leader exchange (the recursion's
//! rounds and the state machine's `Far`) and one in-cell partner table (the
//! recursion's leaf gossip and the state machine's `Near`), so they route,
//! charge, update and draw partners alike.

pub mod hierarchy;
pub mod round_based;
pub mod schedule;
pub mod state_machine;

pub use hierarchy::Hierarchy;
pub use round_based::{CoefficientRule, LocalAveraging, RoundBasedAffineGossip, RoundBasedConfig};
pub use schedule::PaperSchedule;
pub use state_machine::{AffineStateMachine, ScheduleParams};
