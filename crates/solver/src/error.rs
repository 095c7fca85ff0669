//! Solver error type.

use std::fmt;
use tiga_model::ModelError;

/// Errors raised by the timed-game solver.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolverError {
    /// The model or the test purpose could not be evaluated (guards,
    /// invariants, updates, the purpose's predicate).
    Model(ModelError),
    /// Exploration exceeded the configured state limit.
    StateLimitExceeded {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// The fixpoint was not reached within the configured round budget
    /// ([`SolveOptions::max_rounds`](crate::SolveOptions::max_rounds)):
    /// the federations are partial, so no verdict can be given.
    RoundLimitExceeded {
        /// The configured budget that ran out.
        limit: usize,
    },
    /// The requested objective is not supported by this solver entry point.
    Unsupported(String),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Model(e) => write!(f, "model error: {e}"),
            SolverError::StateLimitExceeded { limit } => {
                write!(
                    f,
                    "symbolic exploration exceeded the limit of {limit} discrete states"
                )
            }
            SolverError::RoundLimitExceeded { limit } => {
                write!(
                    f,
                    "the fixpoint was not reached within the round budget of {limit} (max rounds)"
                )
            }
            SolverError::Unsupported(what) => write!(f, "unsupported objective: {what}"),
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SolverError {
    fn from(e: ModelError) -> Self {
        SolverError::Model(e)
    }
}
