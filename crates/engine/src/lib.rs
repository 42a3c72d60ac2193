//! # privpath-engine — the release-once/query-many layer
//!
//! Sealfon's mechanisms (and the APSD line of work that followed) share
//! one architecture: **release once, query many**. A mechanism touches the
//! private edge weights exactly once and emits a release object; every
//! query thereafter is post-processing, free of further privacy cost. This
//! crate makes that architecture a first-class API:
//!
//! * [`Mechanism`] — one trait over all seven paper mechanisms
//!   (Algorithms 1–3, bounded-weight distances, MST, matching, the
//!   Section 4 baselines) plus the heavy-path extension. Each declares its
//!   exact `(eps, delta)` cost via [`Mechanism::privacy_cost`] before
//!   running, **and** its accuracy contract: an [`AccuracyContract`]
//!   naming the paper theorem behind [`Mechanism::error_bound`], with
//!   [`Mechanism::calibrate`] solving the bound backwards for the
//!   smallest epsilon meeting an [`ErrorTarget`] — so callers ask for
//!   accuracy and the engine derives the budget, not the other way
//!   around. [`ReleaseEngine::release_with_accuracy`] runs that loop
//!   end-to-end, and [`BudgetPlan`] splits one total budget across
//!   several calibrated releases proportionally.
//! * [`DistanceRelease`] — the object-safe serving surface
//!   (`distance`, `distance_batch`, optional `path`) implemented by every
//!   distance-capable release type. `distance_batch` is the serving hot
//!   path: graph-replaying releases share one Dijkstra per distinct
//!   source across a batch.
//! * [`ReleaseEngine`] — the exclusive **write path**: owns one weight
//!   database and an [`Accountant`](privpath_dp::Accountant); debits the
//!   declared cost per release (budget checked **before** noise is
//!   drawn) and registers releases under [`ReleaseId`]s.
//! * [`QueryService`] — the shared **read path**: an immutable `Send +
//!   Sync` snapshot of the registry ([`ReleaseEngine::snapshot`]) or of
//!   stored release files ([`QueryService::from_stored`]) that any
//!   number of threads query in parallel with no locks. Queries are
//!   post-processing, so a snapshot answers unboundedly many of them at
//!   zero privacy cost while the engine keeps releasing.
//! * [`ReleaseKind`] — the one table of per-kind declarations: wire
//!   name, the [`Knob`]s a kind takes, whether the live store can hold
//!   it, and (via [`ReleaseKind::dispatch`] and a [`MechanismVisitor`])
//!   the mechanism and parameter object it runs. The spec grammar, the
//!   CLI, and the store all derive from it.
//! * [`persist`] — a unified tagged storage format covering every
//!   storable release kind.
//!
//! ## Example
//!
//! ```
//! use privpath_engine::{mechanisms, ReleaseEngine};
//! use privpath_core::shortest_path::ShortestPathParams;
//! use privpath_core::tree_distance::TreeDistanceParams;
//! use privpath_dp::{Delta, Epsilon};
//! use privpath_graph::generators::{path_graph, uniform_weights};
//! use privpath_graph::NodeId;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let topo = path_graph(32);
//! let weights = uniform_weights(topo.num_edges(), 1.0, 5.0, &mut rng);
//!
//! // One database, one budget, several releases.
//! let mut engine = ReleaseEngine::with_budget(
//!     topo,
//!     weights,
//!     Epsilon::new(2.0)?,
//!     Delta::zero(),
//! )?;
//! let sp = engine.release(
//!     &mechanisms::ShortestPaths,
//!     &ShortestPathParams::new(Epsilon::new(1.0)?, 0.05)?,
//!     &mut rng,
//! )?;
//! let tree = engine.release(
//!     &mechanisms::TreeAllPairs,
//!     &TreeDistanceParams::new(Epsilon::new(1.0)?),
//!     &mut rng,
//! )?;
//! assert_eq!(engine.spent(), (2.0, 0.0));
//!
//! // Serve queries from either release; both are pure post-processing.
//! let (u, v) = (NodeId::new(0), NodeId::new(31));
//! let d1 = engine.query(sp)?.distance(u, v)?;
//! let d2 = engine.query(tree)?.distance(u, v)?;
//! assert!(d1.is_finite() && d2.is_finite());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod mechanism;
pub mod persist;
mod plan;
mod release;
mod service;

pub use engine::{ParseReleaseIdError, ReleaseEngine, ReleaseId, ReleaseRecord};
pub use error::EngineError;
pub use mechanism::{Mechanism, PrivacyCost};
pub use persist::{read_release, write_release, SharedTopology, StoredRelease};
pub use plan::BudgetPlan;
pub use release::{AnyRelease, DistanceRelease, Knob, Knobs, MechanismVisitor, ReleaseKind};
pub use service::QueryService;

// The accuracy-contract vocabulary is defined next to the bound formulas
// in `privpath_core::bounds`; re-export it here because the engine is
// where callers speak it (error_bound / calibrate / release_with_accuracy).
pub use privpath_core::bounds::{
    AccuracyContract, ErrorBound, ErrorTarget, Theorem, DEFAULT_GAMMA,
};

/// The mechanism singletons implementing [`Mechanism`].
pub mod mechanisms {
    pub use crate::mechanism::{
        AllPairsBaseline, AllPairsBaselineParams, BoundedWeight, HldTree, Matching, Mst,
        ShortcutApsp, ShortestPaths, SyntheticGraph, SyntheticGraphParams, TreeAllPairs,
    };
}
