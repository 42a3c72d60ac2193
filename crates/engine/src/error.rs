//! Error type for the release engine.

use crate::release::Knob;
use privpath_core::CoreError;
use privpath_dp::DpError;
use privpath_graph::GraphError;
use std::error::Error;
use std::fmt;

/// Errors produced by the engine layer.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A mechanism-layer error.
    Core(CoreError),
    /// A privacy-substrate error.
    Dp(DpError),
    /// A release would exceed the engine's privacy budget; nothing was
    /// run and no noise was drawn. Carries the requested and remaining
    /// `(eps, delta)` so servers and CLIs can report budget state without
    /// parsing messages.
    BudgetExhausted {
        /// The epsilon the refused release would have cost.
        requested_eps: f64,
        /// The delta the refused release would have cost.
        requested_delta: f64,
        /// Epsilon still available under the budget.
        remaining_eps: f64,
        /// Delta still available under the budget.
        remaining_delta: f64,
    },
    /// No epsilon attains the requested accuracy target — the mechanism
    /// has no utility theorem, or the target lies below the bound's
    /// epsilon-independent floor (e.g. a bounded-weight detour `2 k M`).
    CalibrationFailed {
        /// The mechanism's name.
        mechanism: &'static str,
        /// The requested per-query error bound.
        alpha: f64,
        /// The requested failure probability.
        gamma: f64,
    },
    /// A kind needs a knob that has no default and none was given
    /// (e.g. `bounded-weight` without its `max-weight` promise).
    MissingKnob {
        /// The kind's name.
        mechanism: &'static str,
        /// The missing knob.
        knob: Knob,
    },
    /// The referenced release id is not registered in the engine.
    UnknownRelease(u64),
    /// The release kind does not support the requested query (e.g. a
    /// distance query against an MST release).
    UnsupportedQuery {
        /// The release kind's name.
        kind: &'static str,
        /// The query that was attempted.
        query: &'static str,
    },
    /// A vertex id was outside the release's vertex range.
    NodeOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of vertices the release covers.
        num_nodes: usize,
    },
    /// A persistence failure (I/O or malformed stored release).
    Persist(String),
    /// A [`BudgetPlan`](crate::BudgetPlan) with no requested releases was
    /// asked for a split — there is nothing to allocate the total to.
    EmptyBudgetPlan,
    /// Scaling a calibrated epsilon by the plan's common factor left the
    /// valid epsilon domain (underflowed to zero or overflowed): the plan
    /// is too oversubscribed (or the total too extreme) to honor this
    /// request's share.
    DegenerateAllocation {
        /// The label of the request whose allocation degenerated.
        label: String,
        /// The calibrated epsilon the request asked for.
        calibrated_eps: f64,
        /// The plan's scale factor (`total / sum of requests`).
        scale_factor: f64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "mechanism error: {e}"),
            EngineError::Dp(e) => write!(f, "privacy error: {e}"),
            EngineError::BudgetExhausted {
                requested_eps,
                requested_delta,
                remaining_eps,
                remaining_delta,
            } => write!(
                f,
                "privacy budget exhausted: requested (eps {requested_eps}, delta \
                 {requested_delta}) exceeds remaining (eps {remaining_eps}, delta \
                 {remaining_delta})"
            ),
            EngineError::CalibrationFailed {
                mechanism,
                alpha,
                gamma,
            } => write!(
                f,
                "cannot calibrate `{mechanism}` to error <= {alpha} with probability \
                 {} (no epsilon attains the target, or the mechanism declares no \
                 accuracy contract)",
                1.0 - gamma
            ),
            EngineError::MissingKnob { mechanism, knob } => {
                write!(f, "mechanism `{mechanism}` needs `{knob}`")
            }
            EngineError::UnknownRelease(id) => write!(f, "no release with id r{id}"),
            EngineError::UnsupportedQuery { kind, query } => {
                write!(
                    f,
                    "release kind `{kind}` does not support `{query}` queries"
                )
            }
            EngineError::NodeOutOfRange { index, num_nodes } => {
                write!(
                    f,
                    "vertex {index} outside the release's range 0..{num_nodes}"
                )
            }
            EngineError::Persist(msg) => write!(f, "persistence error: {msg}"),
            EngineError::EmptyBudgetPlan => {
                write!(f, "budget plan has no requested releases")
            }
            EngineError::DegenerateAllocation {
                label,
                calibrated_eps,
                scale_factor,
            } => write!(
                f,
                "allocation for {label:?} degenerates: calibrated eps \
                 {calibrated_eps} scaled by {scale_factor} leaves the valid \
                 epsilon domain"
            ),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Dp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<DpError> for EngineError {
    fn from(e: DpError) -> Self {
        EngineError::Dp(e)
    }
}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Core(CoreError::Graph(e))
    }
}
