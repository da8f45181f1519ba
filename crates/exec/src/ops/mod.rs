//! The operator library (paper §2.4, §2.7).
//!
//! Operators work on materialised per-fragment tuple batches; the phase
//! driver ([`crate::phase`]) runs them per node and
//! [`crate::phase::exchange`] moves their outputs between nodes.

pub mod basic;
pub mod closest;
pub mod spatial_join;
