//! The one request handler: [`StoreHandler`] answers every verb against
//! namespaces, whether they come from a live multi-tenant
//! [`ReleaseStore`] or from one frozen release set.
//!
//! Query verbs resolve their namespace first — an explicit `ns/r0`
//! prefix picks the namespace; a bare `r0` is accepted when there is
//! exactly one namespace (the common single-tenant deployment, and
//! always the case for a frozen set) — then answer against that
//! namespace's **current snapshot**: an immutable, epoch-stamped view
//! obtained by one `Arc` clone, so queries never block on writers and
//! never observe a half-applied mutation. `distance`/`batch` go through
//! the snapshot's source cache when it has one.
//!
//! A frozen release set ([`StoreHandler::frozen`]) is one such snapshot,
//! named [`FROZEN_NAMESPACE`] and built by
//! [`NamespaceSnapshot::frozen`]: epoch 0, no cache, no spatial index.
//! Namespace resolution is the only place it differs from a live store;
//! every answer is the same code path.
//!
//! Admin verbs ([`crate::admin`]) call straight into the store's write
//! path, which serializes per namespace, debits the namespace budget
//! before drawing noise, persists, and hot-swaps the snapshot. Read-only
//! and frozen handlers refuse them.

use crate::admin::{AdminRequest, AdminResponse, TraceEntry, ADMIN_VERBS};
use crate::protocol::{engine_error_code, ErrorCode, QueryRequest, QueryResponse, ReleaseSummary};
use privpath_engine::{EngineError, QueryService, ReleaseId, DEFAULT_GAMMA};
use privpath_graph::{EdgeId, NodeId};
use privpath_store::{
    NamespaceSnapshot, ReleaseStore, SnapError, SpatialIndex, StoreError, FROZEN_NAMESPACE,
};
use std::sync::Arc;

/// The query request verbs, for dispatch before parsing.
pub(crate) const QUERY_VERBS: [&str; 10] = [
    "distance",
    "batch",
    "path",
    "geo-distance",
    "geo-route",
    "geo-batch",
    "accuracy",
    "list",
    "budget",
    "metrics",
];

/// Where a handler's namespaces come from.
enum Namespaces {
    /// Every namespace of a live store, at its current snapshot.
    Live(Arc<ReleaseStore>),
    /// One frozen release set, served as the namespace
    /// [`FROZEN_NAMESPACE`].
    Frozen(Arc<NamespaceSnapshot>),
}

/// Answers request lines — query verbs and admin verbs — against a live
/// [`ReleaseStore`] or a frozen release set. Shared by every worker
/// thread of a [`Server`](crate::Server).
pub struct StoreHandler {
    namespaces: Namespaces,
    admin_enabled: bool,
}

impl StoreHandler {
    /// Wraps a store with the full surface: query verbs **and** the
    /// mutating admin verbs. Admin verbs are unauthenticated — bind this
    /// handler to an operator-local endpoint only (see [`crate::admin`]).
    pub fn new(store: Arc<ReleaseStore>) -> Self {
        StoreHandler {
            namespaces: Namespaces::Live(store),
            admin_enabled: true,
        }
    }

    /// Wraps a store **read-only**: query verbs answer from the live
    /// snapshots, every admin verb is refused with `error unsupported`.
    /// This is the handler to expose publicly; pair it with a
    /// [`new`](Self::new) handler on a local admin port over the same
    /// `Arc<ReleaseStore>` (the CLI's `serve --store ... --admin-port`
    /// does exactly that).
    pub fn read_only(store: Arc<ReleaseStore>) -> Self {
        StoreHandler {
            namespaces: Namespaces::Live(store),
            admin_enabled: false,
        }
    }

    /// Serves one frozen release set (see [`NamespaceSnapshot::frozen`])
    /// as the single read-only namespace [`FROZEN_NAMESPACE`]: refs
    /// answer bare (`r0`) or qualified (`frozen/r0`), any other
    /// namespace is `unknown-release`, geo verbs are `unsupported` (no
    /// spatial index), and admin verbs are refused as on
    /// [`read_only`](Self::read_only).
    pub fn frozen(snapshot: NamespaceSnapshot) -> Self {
        StoreHandler {
            namespaces: Namespaces::Frozen(Arc::new(snapshot)),
            admin_enabled: false,
        }
    }

    /// Resolves an optional namespace qualifier to a snapshot: explicit
    /// names must exist; a bare ref works only when there is exactly one
    /// namespace.
    fn resolve(&self, namespace: Option<&str>) -> Result<Arc<NamespaceSnapshot>, QueryResponse> {
        let not_found = |msg: String| QueryResponse::Error {
            code: ErrorCode::UnknownRelease,
            message: msg,
        };
        let store = match &self.namespaces {
            Namespaces::Live(store) => store,
            Namespaces::Frozen(snap) => {
                return match namespace {
                    None | Some(FROZEN_NAMESPACE) => Ok(Arc::clone(snap)),
                    Some(ns) => Err(not_found(format!(
                        "no namespace {ns:?} on this server (its only namespace is \
                         {FROZEN_NAMESPACE:?})"
                    ))),
                };
            }
        };
        match namespace {
            Some(ns) => store.snapshot(ns).map_err(|e| not_found(e.to_string())),
            None => {
                let names = store.namespaces();
                match names.as_slice() {
                    [] => Err(not_found("the store has no namespaces yet".into())),
                    [only] => store.snapshot(only).map_err(|e| not_found(e.to_string())),
                    _ => Err(not_found(format!(
                        "this store is multi-tenant ({}); qualify the release as \
                         <namespace>/r<N>",
                        names.join(", ")
                    ))),
                }
            }
        }
    }

    /// The store admin verbs mutate, or `None` on a read-only or frozen
    /// handler.
    fn admin_store(&self) -> Option<&ReleaseStore> {
        match &self.namespaces {
            Namespaces::Live(store) if self.admin_enabled => Some(store),
            _ => None,
        }
    }

    /// Answers one trimmed, non-empty request line with one response
    /// line (no trailing newline). The server handles framing, the
    /// `shutdown` control line, and connection lifecycle.
    pub fn handle(&self, line: &str) -> String {
        let verb = line.split_whitespace().next().unwrap_or_default();
        if QUERY_VERBS.contains(&verb) {
            // Span op names come from the known-verb set (compile-time
            // constants), never from raw client bytes.
            let mut span = privpath_obs::Span::enter(crate::server::known_verb(line));
            match line.parse::<QueryRequest>() {
                Ok(req) => {
                    span.phase("parse");
                    let resp = self.answer(&req);
                    span.phase("search");
                    let rendered = resp.to_string();
                    span.phase("encode");
                    rendered
                }
                Err(e) => QueryResponse::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                }
                .to_string(),
            }
        } else if ADMIN_VERBS.contains(&verb) {
            let Some(store) = self.admin_store() else {
                return AdminResponse::Error {
                    code: ErrorCode::Unsupported,
                    message: format!(
                        "`{verb}` refused: this endpoint is read-only (admin verbs \
                         live on a live store's operator-local admin endpoint)"
                    ),
                }
                .to_string();
            };
            match line.parse::<AdminRequest>() {
                Ok(req) => answer_admin(store, &req).to_string(),
                Err(e) => AdminResponse::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                }
                .to_string(),
            }
        } else {
            QueryResponse::Error {
                code: ErrorCode::Malformed,
                message: format!(
                    "unknown verb {verb:?} (query: {}; admin: {})",
                    QUERY_VERBS.join(", "),
                    ADMIN_VERBS.join(", ")
                ),
            }
            .to_string()
        }
    }

    /// Answers one typed query request: the in-process form of
    /// [`handle`](Self::handle) for query verbs.
    pub fn answer(&self, req: &QueryRequest) -> QueryResponse {
        match req {
            QueryRequest::Distance {
                release,
                from,
                to,
                gamma,
            } => {
                let snap = match self.resolve(release.namespace()) {
                    Ok(s) => s,
                    Err(resp) => return resp,
                };
                match (
                    snap.distance(release.id(), *from, *to),
                    error_bar(snap.service(), release.id(), *gamma),
                ) {
                    (Ok(d), Ok(bound)) => QueryResponse::Distance { value: d, bound },
                    (Ok(_), Err(resp)) => resp,
                    (Err(e), _) => QueryResponse::from_engine_error(&e),
                }
            }
            QueryRequest::DistanceBatch {
                release,
                pairs,
                gamma,
            } => {
                let snap = match self.resolve(release.namespace()) {
                    Ok(s) => s,
                    Err(resp) => return resp,
                };
                match (
                    snap.distance_batch(release.id(), pairs),
                    error_bar(snap.service(), release.id(), *gamma),
                ) {
                    (Ok(ds), Ok(bound)) => QueryResponse::Distances { values: ds, bound },
                    (Ok(_), Err(resp)) => resp,
                    (Err(e), _) => QueryResponse::from_engine_error(&e),
                }
            }
            QueryRequest::Path { release, from, to } => {
                let snap = match self.resolve(release.namespace()) {
                    Ok(s) => s,
                    Err(resp) => return resp,
                };
                match route(snap.service(), release.id(), *from, *to) {
                    Ok(nodes) => QueryResponse::Path(nodes),
                    Err(resp) => resp,
                }
            }
            QueryRequest::GeoDistance {
                release,
                from,
                to,
                gamma,
            } => {
                let snap = match self.resolve(release.namespace()) {
                    Ok(s) => s,
                    Err(resp) => return resp,
                };
                let index = match geo_index(&snap) {
                    Ok(i) => i,
                    Err(resp) => return resp,
                };
                let (su, sv) = match (index.snap(from.0, from.1), index.snap(to.0, to.1)) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(e), _) | (_, Err(e)) => return snap_error(&e),
                };
                match (
                    snap.distance(release.id(), su.node, sv.node),
                    error_bar(snap.service(), release.id(), *gamma),
                ) {
                    (Ok(d), Ok(bound)) => QueryResponse::GeoDistance {
                        from: su.node,
                        to: sv.node,
                        value: d,
                        bound,
                    },
                    (Ok(_), Err(resp)) => resp,
                    (Err(e), _) => QueryResponse::from_engine_error(&e),
                }
            }
            QueryRequest::GeoRoute { release, from, to } => {
                let snap = match self.resolve(release.namespace()) {
                    Ok(s) => s,
                    Err(resp) => return resp,
                };
                let index = match geo_index(&snap) {
                    Ok(i) => i,
                    Err(resp) => return resp,
                };
                let (su, sv) = match (index.snap(from.0, from.1), index.snap(to.0, to.1)) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(e), _) | (_, Err(e)) => return snap_error(&e),
                };
                match route(snap.service(), release.id(), su.node, sv.node) {
                    Ok(nodes) => QueryResponse::GeoRoute {
                        from: su.node,
                        to: sv.node,
                        nodes,
                    },
                    Err(resp) => resp,
                }
            }
            QueryRequest::GeoBatch {
                release,
                pairs,
                gamma,
            } => {
                let snap = match self.resolve(release.namespace()) {
                    Ok(s) => s,
                    Err(resp) => return resp,
                };
                let index = match geo_index(&snap) {
                    Ok(i) => i,
                    Err(resp) => return resp,
                };
                let mut snapped = Vec::with_capacity(pairs.len());
                for (i, (from, to)) in pairs.iter().enumerate() {
                    match (index.snap(from.0, from.1), index.snap(to.0, to.1)) {
                        (Ok(a), Ok(b)) => snapped.push((a.node, b.node)),
                        (Err(e), _) | (_, Err(e)) => return snap_error_at(i, &e),
                    }
                }
                match (
                    snap.distance_batch(release.id(), &snapped),
                    error_bar(snap.service(), release.id(), *gamma),
                ) {
                    (Ok(ds), Ok(bound)) => QueryResponse::GeoDistances {
                        triples: snapped
                            .iter()
                            .zip(ds)
                            .map(|(&(u, v), d)| (u, v, d))
                            .collect(),
                        bound,
                    },
                    (Ok(_), Err(resp)) => resp,
                    (Err(e), _) => QueryResponse::from_engine_error(&e),
                }
            }
            QueryRequest::Accuracy { release, gamma } => {
                let snap = match self.resolve(release.namespace()) {
                    Ok(s) => s,
                    Err(resp) => return resp,
                };
                match snap.service().accuracy(release.id(), *gamma) {
                    Ok(bound) => QueryResponse::Accuracy(bound),
                    Err(e) => QueryResponse::from_engine_error(&e),
                }
            }
            QueryRequest::ListReleases { namespace } => {
                let snap = match self.resolve(namespace.as_deref()) {
                    Ok(s) => s,
                    Err(resp) => return resp,
                };
                QueryResponse::Releases(
                    snap.service()
                        .releases()
                        .map(|r| ReleaseSummary {
                            id: r.id(),
                            kind: r.kind(),
                            eps: r.eps(),
                            delta: r.delta(),
                            num_nodes: r.release().as_distance().map(|o| o.num_nodes()),
                            accuracy: r.error_bound(DEFAULT_GAMMA),
                        })
                        .collect(),
                )
            }
            QueryRequest::BudgetStatus { namespace } => {
                let snap = match self.resolve(namespace.as_deref()) {
                    Ok(s) => s,
                    Err(resp) => return resp,
                };
                let (spent_eps, spent_delta) = snap.service().spent();
                QueryResponse::Budget {
                    spent_eps,
                    spent_delta,
                    remaining: snap.service().remaining(),
                }
            }
            // Telemetry is process-wide, not namespace-scoped; answer
            // straight from the global registry without resolving.
            QueryRequest::Metrics => QueryResponse::Metrics {
                lines: privpath_obs::MetricRegistry::global().render_lines(),
            },
        }
    }
}

/// Answers one admin request against the store it mutates.
fn answer_admin(store: &ReleaseStore, req: &AdminRequest) -> AdminResponse {
    match req {
        AdminRequest::Publish { namespace, spec } => match store.publish(namespace, spec) {
            Ok(r) => AdminResponse::Published {
                namespace: r.namespace,
                id: r.id,
                epoch: r.epoch,
                eps: r.eps,
                delta: r.delta,
            },
            Err(e) => admin_error(&e),
        },
        AdminRequest::UpdateWeights {
            namespace,
            updates,
            full,
        } => {
            let updates: Vec<(EdgeId, f64)> =
                updates.iter().map(|&(e, w)| (EdgeId::new(e), w)).collect();
            let outcome = if *full {
                store.update_weights_full(namespace, &updates)
            } else {
                store.update_weights_sparse(namespace, &updates)
            };
            match outcome {
                Ok(r) => AdminResponse::Updated {
                    namespace: r.namespace,
                    epoch: r.epoch,
                    rereleased: r.rereleased,
                    eps: r.eps,
                    delta: r.delta,
                },
                Err(e) => admin_error(&e),
            }
        }
        AdminRequest::Drop {
            namespace,
            release: Some(id),
        } => match store.drop_release(namespace, *id) {
            Ok(epoch) => AdminResponse::Dropped {
                namespace: namespace.clone(),
                release: Some(*id),
                epoch: Some(epoch),
            },
            Err(e) => admin_error(&e),
        },
        AdminRequest::Drop {
            namespace,
            release: None,
        } => match store.drop_namespace(namespace) {
            Ok(()) => AdminResponse::Dropped {
                namespace: namespace.clone(),
                release: None,
                epoch: None,
            },
            Err(e) => admin_error(&e),
        },
        AdminRequest::Epoch { namespace } => match store.epoch(namespace) {
            Ok(epoch) => AdminResponse::Epoch {
                namespace: namespace.clone(),
                epoch,
            },
            Err(e) => admin_error(&e),
        },
        AdminRequest::Stats { namespace } => match namespace {
            Some(ns) => match store.stats_for(ns) {
                Ok(s) => AdminResponse::Stats(vec![s]),
                Err(e) => admin_error(&e),
            },
            None => AdminResponse::Stats(store.stats()),
        },
        AdminRequest::Trace { limit } => AdminResponse::Traces(
            privpath_obs::recent_traces(*limit)
                .into_iter()
                .map(|t| TraceEntry {
                    op: t.op.to_string(),
                    total_us: t.total_us,
                    phases: t
                        .phases
                        .iter()
                        .map(|&(name, us)| (name.to_string(), us))
                        .collect(),
                })
                .collect(),
        ),
    }
}

/// The namespace's spatial index, or the `unsupported` refusal for a
/// namespace created without coordinates.
fn geo_index(snap: &NamespaceSnapshot) -> Result<&SpatialIndex, QueryResponse> {
    snap.geo().ok_or_else(|| QueryResponse::Error {
        code: ErrorCode::Unsupported,
        message: format!(
            "namespace {:?} carries no spatial index: geo verbs need a namespace \
             created with coordinates (`store init --from-gr G.gr --coords G.co`)",
            snap.namespace()
        ),
    })
}

/// The released route between two nodes, or the error answer (a
/// value-only release carries no routes).
fn route(
    service: &QueryService,
    release: ReleaseId,
    from: NodeId,
    to: NodeId,
) -> Result<Vec<NodeId>, QueryResponse> {
    let oracle = service
        .query(release)
        .map_err(|e| QueryResponse::from_engine_error(&e))?;
    match oracle.path(from, to) {
        Some(Ok(path)) => Ok(path.nodes().to_vec()),
        Some(Err(e)) => Err(QueryResponse::from_engine_error(&e)),
        None => Err(QueryResponse::Error {
            code: ErrorCode::Unsupported,
            message: format!("release {release} does not carry routes (value-only release)"),
        }),
    }
}

/// The error bar for a distance/batch request that asked for one.
///
/// Lenient on contract availability — a bar-less answer is still an
/// answer, so a release without a contract (or an unknown id, which the
/// distance query itself will report) yields `Ok(None)`. Strict on the
/// input — an invalid `gamma` fails the request, exactly as it fails an
/// `accuracy` request, instead of being silently indistinguishable from
/// "no contract".
fn error_bar(
    service: &QueryService,
    release: ReleaseId,
    gamma: Option<f64>,
) -> Result<Option<f64>, QueryResponse> {
    let Some(g) = gamma else { return Ok(None) };
    match service.accuracy(release, g) {
        Ok(bound) => Ok(Some(bound.alpha())),
        Err(EngineError::UnsupportedQuery { .. }) | Err(EngineError::UnknownRelease(_)) => Ok(None),
        Err(e) => Err(QueryResponse::from_engine_error(&e)),
    }
}

/// Maps a snap refusal onto a wire error: a coordinate outside the
/// network's snap bounds is `out-of-range` (the query was well-formed,
/// the place just isn't on this network); a non-finite coordinate is
/// `malformed` (the parser already rejects these on the wire path, so
/// this arm covers embedded callers).
fn snap_error(e: &SnapError) -> QueryResponse {
    QueryResponse::Error {
        code: match e {
            SnapError::NonFinite { .. } => ErrorCode::Malformed,
            SnapError::OutOfBounds { .. } => ErrorCode::OutOfRange,
        },
        message: e.to_string(),
    }
}

/// [`snap_error`] with the failing pair's index, for batch requests.
fn snap_error_at(pair: usize, e: &SnapError) -> QueryResponse {
    match snap_error(e) {
        QueryResponse::Error { code, message } => QueryResponse::Error {
            code,
            message: format!("pair {pair}: {message}"),
        },
        other => other,
    }
}

/// Maps a store failure onto a wire error code.
fn admin_error(e: &StoreError) -> AdminResponse {
    let code = match e {
        StoreError::Engine(inner) => engine_error_code(inner),
        StoreError::UnknownNamespace(_) => ErrorCode::UnknownRelease,
        StoreError::InvalidNamespace(_)
        | StoreError::InvalidSpec(_)
        | StoreError::InvalidUpdate(_) => ErrorCode::Malformed,
        StoreError::NamespaceExists(_) => ErrorCode::Query,
        // An exhausted stream is a budget condition: the horizon was the
        // privacy analysis's input, not a parse problem.
        StoreError::ContinualHorizon { .. } => ErrorCode::Budget,
        StoreError::ContinualAccountant(_) => ErrorCode::Malformed,
        // Geo failures reaching the wire are bad inputs (malformed
        // DIMACS, coordinate/topology mismatch), not server faults.
        StoreError::Geo(_) => ErrorCode::Malformed,
        StoreError::Io { .. } | StoreError::Manifest { .. } | StoreError::WriterPoisoned(_) => {
            ErrorCode::Internal
        }
    };
    AdminResponse::Error {
        code,
        message: e.to_string(),
    }
}
