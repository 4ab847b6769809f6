//! Initial measurement fields.
//!
//! [`Field`] extends the position-independent
//! [`InitialCondition`](crate::state::InitialCondition)s with spatially
//! correlated fields; every experiment and scenario describes its `x(0)`
//! through this type. The definition lives in [`geogossip_sim::field`] (the
//! scenario runner materialises fields below the protocol layer); this module
//! is the protocol-facing re-export.

pub use geogossip_sim::field::Field;
