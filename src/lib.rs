//! # privpath — Shortest Paths and Distances with Differential Privacy
//!
//! A from-scratch Rust implementation of Adam Sealfon's *Shortest Paths and
//! Distances with Differential Privacy* (PODS 2016): differentially private
//! graph analysis in the **private edge-weight model**, where the topology
//! is public and only the edge weights are sensitive.
//!
//! This facade crate re-exports the four layers:
//!
//! * [`graph`] — the graph substrate (topology/weight separation, shortest
//!   paths, MST, matching, trees, coverings, generators).
//! * [`dp`] — the differential-privacy substrate (Laplace distribution and
//!   mechanism, composition, accounting).
//! * [`core`] — the paper's mechanisms (Algorithms 1–3, bounded-weight
//!   all-pairs distances, private MST/matching, the reconstruction-attack
//!   lower bounds, baselines, and closed-form error bounds).
//! * [`engine`] — the release-once/query-many layer: the
//!   [`Mechanism`](engine::Mechanism) and
//!   [`DistanceRelease`](engine::DistanceRelease) traits, the
//!   budget-accounted write path ([`ReleaseEngine`](engine::ReleaseEngine)),
//!   the shared `Send + Sync` read path
//!   ([`QueryService`](engine::QueryService) snapshots), and unified
//!   release persistence.
//! * [`store`] — the live release store: multi-tenant, epoch-versioned
//!   namespaces ([`ReleaseStore`](store::ReleaseStore)) with hot-swap
//!   snapshots, budget-metered re-release under weight updates
//!   ([`ReleaseSpec`](store::ReleaseSpec)), crash-safe manifests, and a
//!   read-path source cache.
//! * [`geo`] — the road-network workload: streaming DIMACS `.gr`/`.co`
//!   parsers, a deterministic road-network generator, and the quad-tree
//!   [`SpatialIndex`](geo::SpatialIndex) that snaps lat/lon queries to
//!   network nodes (public-data preprocessing, no privacy budget).
//! * [`serve`] — the network serve path: the typed
//!   [`QueryRequest`](serve::QueryRequest) /
//!   [`QueryResponse`](serve::QueryResponse) line protocol (release refs
//!   optionally namespace-qualified), the [admin verbs](serve::admin)
//!   driving a live store, the one request handler
//!   [`StoreHandler`](serve::StoreHandler) — over a live store or a
//!   frozen release set served as one read-only namespace — and a
//!   dependency-free thread-pooled TCP [`server`](serve::server) with a
//!   matching [`client`](serve::client).
//!
//! See `README.md` for a tour (including the engine architecture) and
//! `EXPERIMENTS.md` for the reproduction of every theorem-level claim.
//!
//! ## Quickstart
//!
//! A toy road network: the topology is public, the weights (travel times)
//! are private. One engine owns the database and a privacy budget; every
//! release debits the budget once, and queries are free post-processing.
//!
//! ```
//! use privpath::prelude::*;
//! use rand::SeedableRng;
//!
//! let topo = privpath::graph::generators::path_graph(8);
//! let weights = EdgeWeights::constant(topo.num_edges(), 3.0);
//!
//! // An engine with a total privacy budget of eps = 2.
//! let mut engine =
//!     ReleaseEngine::with_budget(topo, weights, Epsilon::new(2.0)?, Delta::zero())?;
//!
//! // Release all shortest paths with eps-DP (Algorithm 3).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let params = ShortestPathParams::new(Epsilon::new(1.0)?, 0.05)?;
//! let id = engine.release(&mechanisms::ShortestPaths, &params, &mut rng)?;
//!
//! // Query any pair through the released object (pure post-processing).
//! let oracle = engine.query(id)?;
//! let d = oracle.distance(NodeId::new(0), NodeId::new(7))?;
//! let path = oracle.path(NodeId::new(0), NodeId::new(7)).expect("route-capable")?;
//! assert_eq!(path.source(), NodeId::new(0));
//! assert_eq!(path.target(), NodeId::new(7));
//! assert!(d.is_finite());
//!
//! // The ledger saw exactly one eps = 1 release.
//! assert_eq!(engine.spent(), (1.0, 0.0));
//! assert_eq!(engine.remaining(), Some((1.0, 0.0)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The direct mechanism functions (`private_shortest_paths`,
//! `tree_all_pairs_distances`, ...) remain available for one-off use and
//! for the experiment harness; the engine is the supported path for
//! serving systems that compose several releases over one database.

pub use privpath_core as core;
pub use privpath_dp as dp;
pub use privpath_engine as engine;
pub use privpath_geo as geo;
pub use privpath_graph as graph;
pub use privpath_serve as serve;
pub use privpath_store as store;

/// One-stop imports for the most common API surface.
pub mod prelude {
    pub use privpath_core::attack::{MatchingAttack, MstAttack, PathAttack, ReconstructionOutcome};
    pub use privpath_core::baselines::{
        all_pairs_advanced_composition, all_pairs_basic_composition, laplace_distance_oracle,
        single_source_advanced_composition, synthetic_graph_release,
    };
    pub use privpath_core::bounded::{
        bounded_weight_all_pairs, BoundedWeightParams, BoundedWeightRelease, CoveringStrategy,
    };
    pub use privpath_core::matching::{
        private_matching, private_matching_objective, MatchingObjective, MatchingParams,
    };
    pub use privpath_core::mst::{private_mst, MstParams};
    pub use privpath_core::shortcut::{shortcut_apsp, ShortcutApspParams, ShortcutApspRelease};
    pub use privpath_core::shortest_path::{
        private_shortest_paths, ShortestPathParams, ShortestPathRelease,
    };
    pub use privpath_core::tree_distance::{
        tree_all_pairs_distances, tree_single_source_distances, TreeDistanceParams,
    };
    pub use privpath_core::tree_hld::{hld_tree_all_pairs, HldTreeRelease};
    pub use privpath_dp::{Accountant, Delta, Epsilon, NoiseSource, RngNoise, ZeroNoise};
    pub use privpath_engine::{
        mechanisms, AccuracyContract, AnyRelease, BudgetPlan, DistanceRelease, EngineError,
        ErrorBound, ErrorTarget, Mechanism, PrivacyCost, QueryService, ReleaseEngine, ReleaseId,
        ReleaseKind, StoredRelease, Theorem, DEFAULT_GAMMA,
    };
    pub use privpath_geo::{
        generate_road_network, GeoBounds, GeoError, GeoPoint, RoadNetwork, SnapError, Snapped,
        SpatialIndex,
    };
    pub use privpath_graph::{EdgeId, EdgeWeights, GraphError, NodeId, Path, Topology};
    pub use privpath_serve::{
        AdminRequest, AdminResponse, Client, QueryRequest, QueryResponse, ReleaseRef,
        ReleaseSummary, Server, StoreHandler,
    };
    pub use privpath_store::{
        ContinualStatus, NamespaceSnapshot, NamespaceStats, PublishReceipt, ReleaseSpec,
        ReleaseStore, StoreError, UpdateReceipt,
    };
}
