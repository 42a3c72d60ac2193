//! # privpath-serve — the serve path over DP release snapshots
//!
//! The paper's architecture — release once, query many — makes the read
//! path embarrassingly shareable: a DP release answers unboundedly many
//! queries at zero further privacy cost, so serving is pure fan-out over
//! an immutable artifact. This crate is that fan-out:
//!
//! * [`protocol`] — the typed [`QueryRequest`] / [`QueryResponse`] pairs
//!   with a line-delimited text codec (grammar in the module docs),
//!   shared by the server, the client, and the CLI. Release refs are
//!   optionally namespace-qualified ([`ReleaseRef`]) for multi-tenant
//!   live stores.
//! * [`admin`] — the namespace-scoped write verbs against a live store:
//!   `publish`, `update-weights`, `drop`, `epoch`, `stats`
//!   (budget-gated; typed [`AdminRequest`] / [`AdminResponse`]).
//! * [`live`] — [`StoreHandler`], the one request handler: it resolves
//!   a namespace, then answers against that namespace's immutable
//!   snapshot. The namespaces are a live
//!   [`ReleaseStore`](privpath_store::ReleaseStore)'s
//!   ([`StoreHandler::new`], [`StoreHandler::read_only`]) or one frozen
//!   release set served read-only as the namespace
//!   [`FROZEN_NAMESPACE`](privpath_store::FROZEN_NAMESPACE)
//!   ([`StoreHandler::frozen`]).
//! * [`server`] — a dependency-free `std::net` TCP server: fixed-size
//!   worker pool multiplexing connections over a shared
//!   [`StoreHandler`] ([`Server::bind`]), with per-connection error
//!   isolation and a graceful `shutdown` control line.
//! * [`client`] — a small blocking client for the same protocol.
//!
//! ## Example
//!
//! ```
//! use privpath_engine::{mechanisms, ReleaseEngine};
//! use privpath_serve::{Client, QueryRequest, QueryResponse, Server, StoreHandler};
//! use privpath_store::NamespaceSnapshot;
//! use privpath_core::shortest_path::ShortestPathParams;
//! use privpath_dp::Epsilon;
//! use privpath_graph::generators::{path_graph, uniform_weights};
//! use privpath_graph::NodeId;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Write path: release once under a budget.
//! let mut rng = StdRng::seed_from_u64(1);
//! let topo = path_graph(16);
//! let weights = uniform_weights(topo.num_edges(), 1.0, 5.0, &mut rng);
//! let mut engine = ReleaseEngine::new(topo, weights)?;
//! let id = engine.release(
//!     &mechanisms::ShortestPaths,
//!     &ShortestPathParams::new(Epsilon::new(1.0)?, 0.05)?,
//!     &mut rng,
//! )?;
//!
//! // Read path: freeze the releases into one read-only namespace, serve
//! // it over TCP, query from a client.
//! let handler = StoreHandler::frozen(NamespaceSnapshot::frozen(engine.snapshot()));
//! let server = Server::bind("127.0.0.1:0", handler)?.with_threads(2);
//! let running = server.spawn()?;
//! let mut client = Client::connect(running.addr())?;
//! let resp = client.request(&QueryRequest::Distance {
//!     release: id.into(),
//!     from: NodeId::new(0),
//!     to: NodeId::new(15),
//!     gamma: Some(0.05), // also return the ±bound at 95% confidence
//! })?;
//! assert!(matches!(
//!     resp,
//!     QueryResponse::Distance { value, bound: Some(b) } if value.is_finite() && b > 0.0
//! ));
//! drop(client);
//! running.shutdown()?; // graceful: drains connections, returns stats
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod client;
pub mod live;
pub mod protocol;
pub mod server;

pub use admin::{AdminRequest, AdminResponse, TraceEntry};
pub use client::{Client, ClientError};
pub use live::StoreHandler;
pub use protocol::{
    ErrorCode, ParseLineError, QueryRequest, QueryResponse, ReleaseRef, ReleaseSummary,
};
pub use server::{RunningServer, Server, ServerStats, MAX_LINE_BYTES};
