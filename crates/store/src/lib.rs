//! # privpath-store — the live release store
//!
//! Sealfon's model fixes the topology as public and the weights as
//! private, which makes *re-release under changing weights* a natural,
//! budget-metered operation: when conditions shift (traffic moves, a
//! fleet re-routes), the curator pays fresh privacy budget to re-run a
//! mechanism over the new weights, and every query thereafter is free
//! post-processing again. This crate turns that lifecycle into a serving
//! system — the fifth layer, above the engine and beside the network
//! serve path:
//!
//! * [`ReleaseStore`] — concurrent and **multi-tenant**: named
//!   namespaces, each with its own topology, private weights, and
//!   [`Accountant`](privpath_dp::Accountant) budget.
//! * **Epoch-versioned snapshots** — every committed mutation (publish,
//!   update-weights, drop) bumps the namespace epoch and installs a
//!   fresh immutable [`NamespaceSnapshot`] as one pointer swap; readers
//!   clone the current `Arc` and then run lock-free, never observing a
//!   half-applied mutation.
//! * [`ReleaseSpec`] — the re-runnable description of a release
//!   (mechanism + knobs) the store persists so `update-weights` can
//!   re-run every live release against fresh weights, debiting the
//!   namespace budget through the engine's check-before-noise
//!   accounting.
//! * **Crash-safe persistence** — per-namespace manifest plus
//!   generation-suffixed binary files (`v4` releases naming the
//!   write-once topology by checksum, private weights, continual tree
//!   state), written temp-then-rename with fsync ahead of the manifest
//!   rename that commits them; [`ReleaseStore::open`] replays the
//!   manifest (ledger first, then weights and releases) and discards
//!   unreferenced crash leftovers.
//! * **Read-path source cache** — each snapshot carries a sharded
//!   `(release, source)` → distance-vector cache, so repeated-source
//!   workloads skip recomputation; epoch bumps invalidate structurally
//!   (a new snapshot starts with an empty cache).
//! * **Geo namespaces** — [`ReleaseStore::create_namespace_geo`]
//!   attaches one public lat/lon coordinate per node, builds a
//!   [`SpatialIndex`] (quad tree) once, persists it crash-safely next
//!   to the manifest, and exposes it on every snapshot via
//!   [`NamespaceSnapshot::geo`] so the serve layer can snap query
//!   coordinates to nodes for free (public-data preprocessing, no
//!   budget).
//! * **Continual-release namespaces** —
//!   [`ReleaseStore::create_namespace_continual`] fixes an update
//!   horizon `T` and routes every weight update through a binary-tree
//!   composer (Chan–Shi–Song over Sealfon's neighboring weightings):
//!   Gaussian noise on `O(log T)` dyadic partial sums, a zCDP rho
//!   allowance split across tree levels, and an eps ledger debited only
//!   when the stream crosses a power of two — polylog total spend over
//!   the stream where naive re-release pays per update. Releases on such
//!   a namespace are exact post-processing of the tree estimate and
//!   carry a `ContinualRelease` accuracy contract.
//!
//! ## Example
//!
//! ```
//! use privpath_dp::Epsilon;
//! use privpath_engine::{ReleaseKind, ReleaseId};
//! use privpath_graph::generators::{path_graph, uniform_weights};
//! use privpath_graph::{EdgeWeights, NodeId};
//! use privpath_store::{ReleaseSpec, ReleaseStore};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let dir = std::env::temp_dir().join(format!("privpath-store-doc-{}", std::process::id()));
//! let store = ReleaseStore::open(&dir)?.with_seed(7);
//!
//! // A tenant: public topology, private weights, its own budget.
//! let mut rng = StdRng::seed_from_u64(1);
//! let topo = path_graph(16);
//! let weights = uniform_weights(topo.num_edges(), 1.0, 5.0, &mut rng);
//! store.create_namespace("metro", topo.clone(), weights, None)?;
//!
//! // Publish, query, update the weights, query again: the second answer
//! // comes from a new epoch and freshly re-noised data.
//! let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, Epsilon::new(2.0)?)?;
//! let receipt = store.publish("metro", &spec)?;
//! let (u, v) = (NodeId::new(0), NodeId::new(15));
//! let before = store.snapshot("metro")?;
//! let d1 = before.distance(receipt.id, u, v)?;
//!
//! let update = store.update_weights("metro", EdgeWeights::constant(15, 9.0))?;
//! let after = store.snapshot("metro")?;
//! assert_eq!(after.epoch(), before.epoch() + 1);
//! let d2 = after.distance(receipt.id, u, v)?;
//! assert!(d1.is_finite() && d2.is_finite());
//!
//! // Both generations were paid for.
//! let stats = store.stats_for("metro")?;
//! assert_eq!(stats.spent_eps, 4.0);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod continual;
mod error;
mod manifest;
mod spec;
mod store;

pub use continual::ContinualStatus;
pub use error::StoreError;
pub use spec::ReleaseSpec;
pub use store::{
    is_valid_namespace, NamespaceSnapshot, NamespaceStats, PublishReceipt, ReleaseStore,
    UpdateReceipt, FROZEN_NAMESPACE,
};
// Re-exported so the serve layer (and embedders) can snap and type geo
// results without a direct dependency on the geo crate.
pub use privpath_geo::{GeoBounds, GeoPoint, SnapError, Snapped, SpatialIndex};
