#![warn(missing_docs)]

//! Collective communication for torus networks.
//!
//! The paper situates complete exchange among the collective operations of
//! wormhole-routed machines (\[4\], \[6\]); a library a downstream user
//! would adopt must cover the rest of the family. This crate implements
//! the standard collectives with **dimension-ordered ring schedules** on
//! the same contention-verifying simulator used by the all-to-all
//! algorithms — every step of every collective is checked against the
//! one-port wormhole model, and every operation verifies its semantic
//! postcondition (who holds what, or the reduced value itself).
//!
//! | operation | schedule | steps |
//! |---|---|---|
//! | [`broadcast`] | per-dimension bidirectional ring pipeline | `Σ (1 + ⌈(a_d−1)/2⌉)` |
//! | [`scatter`] | per-dimension recursive halving (power-of-two rings), pipeline otherwise | `Σ log₂ a_d` |
//! | [`gather`] | per-dimension combining pipeline toward the root | `Σ (a_d − 1)` |
//! | [`allgather`] | per-dimension unidirectional ring pipeline | `Σ (a_d − 1)` |
//! | [`reduce()`](fn@reduce) | per-dimension combining wave toward the root | `Σ (a_d − 1)` |
//! | [`allreduce`] | reduce + broadcast | sum of both |
//!
//! All operations return a [`CollectiveReport`] with the same critical-path
//! cost counts the all-to-all evaluation uses, so collectives can be
//! compared under the Section 2 parameters.

pub mod bcast;
pub mod gatherscatter;
pub mod reduce;
pub mod ring;

use cost_model::{CommParams, CompletionTime, CostCounts};
use torus_topology::TorusShape;

pub use bcast::{allgather, broadcast};
pub use gatherscatter::{gather, scatter};
pub use reduce::{allreduce, reduce};

/// Outcome of one collective operation.
#[derive(Clone, Debug)]
pub struct CollectiveReport {
    /// Operation name.
    pub name: &'static str,
    /// Shape executed on.
    pub shape: TorusShape,
    /// Measured critical-path counts.
    pub counts: CostCounts,
    /// Completion time under the run's parameters.
    pub elapsed: CompletionTime,
    /// Whether the semantic postcondition held.
    pub verified: bool,
}

impl CollectiveReport {
    /// Total modeled time (µs).
    pub fn total_time(&self) -> f64 {
        self.elapsed.total()
    }
}

/// Shared error type.
#[derive(Clone, Debug, PartialEq)]
pub enum CollectiveError {
    /// The simulator rejected a step (a scheduling bug).
    Sim(String),
    /// Postcondition violated.
    Verification(String),
    /// Unsupported argument.
    BadArgument(String),
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::Sim(s) => write!(f, "simulation rejected a step: {s}"),
            CollectiveError::Verification(s) => write!(f, "verification failed: {s}"),
            CollectiveError::BadArgument(s) => write!(f, "bad argument: {s}"),
        }
    }
}

impl std::error::Error for CollectiveError {}

/// Convenience: build a report from a finished engine.
pub(crate) fn report_from_engine(
    name: &'static str,
    shape: &TorusShape,
    engine: &torus_sim::Engine,
    verified: bool,
) -> CollectiveReport {
    CollectiveReport {
        name,
        shape: shape.clone(),
        counts: engine.counts(),
        elapsed: engine.elapsed(),
        verified,
    }
}

/// Convenience used by tests and benches: unit parameters.
pub fn unit_params() -> CommParams {
    CommParams::unit()
}
