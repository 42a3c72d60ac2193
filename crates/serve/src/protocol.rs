//! The typed wire protocol: [`QueryRequest`] / [`QueryResponse`] with a
//! line-delimited text codec.
//!
//! One request per line, one response line per request. Fields are
//! space-separated; floats use Rust's `{:?}` formatting (the same
//! convention as the `privpath-release` persistence format) so values
//! round-trip exactly. Variable-length lists are preceded by their count.
//!
//! ```text
//! request  := "distance" ref node node ["gamma" float]
//!           | "batch" ref count pair* ["gamma" float]    pair := node ":" node
//!           | "path" ref node node
//!           | "geo-distance" ref lat lon lat lon ["gamma" float]
//!           | "geo-route" ref lat lon lat lon
//!           | "geo-batch" ref count (lat lon lat lon)* ["gamma" float]
//!           | "accuracy" ref float
//!           | "list" [ns]
//!           | "budget" [ns]
//! ref      := [ns "/"] id                                ns := [A-Za-z0-9_-]{1,64}
//! response := "distance" float ["bound" float]
//!           | "distances" count float* ["bound" float]
//!           | "path" count node*
//!           | "geo-distance" node node float ["bound" float]
//!           | "geo-route" node node count node*
//!           | "geo-distances" count (node node float)* ["bound" float]
//!           | "accuracy" theorem float float
//!           | "releases" count (id kind float float nodes acc)*
//!           | "budget" "spent" float float ("remaining" float float | "unbounded")
//!           | "error" code message...
//! ```
//!
//! `ref` is a [`ReleaseRef`]: a [`ReleaseId`] in its `r<N>` display form,
//! optionally prefixed by a namespace (`city/r0`) when the server fronts
//! a multi-tenant live store ([admin verbs](crate::admin) manage the
//! namespaces; a frozen release set is the one namespace `frozen`).
//! `list`/`budget` take the namespace as an optional trailing argument
//! for the same reason. `nodes` in a release record is a vertex count or
//! `-` for kinds without a distance surface. Distance values may be `inf` — the uniform unreachable-target
//! answer (see [`privpath_engine::DistanceRelease`]); Rust's `{:?}` float
//! form round-trips it. The optional `gamma` on `distance`/`batch` asks the server to
//! attach the release's accuracy contract evaluated at that failure
//! probability: the response then carries `bound <alpha>`, the `±alpha`
//! error bar every returned value honors with probability `1 - gamma`
//! (omitted when the release carries no contract). `accuracy` asks for
//! the contract alone; `theorem` is a
//! [`Theorem`](privpath_engine::Theorem) wire name (e.g. `thm-4.2`, or
//! `cnx-shortcut` for the hierarchical shortcut mechanism), and
//! `acc` in a release record is `-` or `theorem:alpha:gamma` evaluated at
//! the default confidence
//! ([`DEFAULT_GAMMA`](privpath_engine::DEFAULT_GAMMA)). The `error`
//! message is free text extending to the end of the line (newlines are
//! squashed on encode so framing survives).
//!
//! The `geo-*` verbs take **lat/lon coordinates** instead of vertex
//! ids: a live geo namespace (one created with coordinates, see
//! [`privpath_store::ReleaseStore::create_namespace_geo`]) snaps each
//! coordinate to its nearest network node through the namespace's
//! public spatial index — free, data-independent preprocessing — and
//! answers the released distance/route between the snapped endpoints.
//! Geo responses lead with the snapped node ids so callers learn what
//! the query actually resolved to. Coordinates must be finite (a NaN
//! or infinite value is `malformed`); a coordinate outside the
//! network's snap bounds is refused with `out-of-range` rather than
//! snapped to a far-away boundary node. A namespace without an index
//! (a frozen release set among them) answers every geo verb with
//! `unsupported`.

use privpath_engine::{EngineError, ErrorBound, ReleaseId, ReleaseKind, Theorem};
use privpath_graph::NodeId;
use privpath_store::is_valid_namespace;
use std::fmt;
use std::str::FromStr;

/// A reference to a release: its registry id, optionally qualified by
/// the namespace that owns it (live-store servers are multi-tenant; a
/// bare ref resolves on a server with exactly one namespace).
///
/// Renders as `r3` or `city/r3` and parses back from the same forms:
///
/// ```
/// use privpath_serve::ReleaseRef;
/// let r: ReleaseRef = "city/r3".parse()?;
/// assert_eq!(r.namespace(), Some("city"));
/// assert_eq!(r.id().value(), 3);
/// assert_eq!(r.to_string().parse::<ReleaseRef>()?, r);
/// # Ok::<(), privpath_serve::ParseLineError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReleaseRef {
    namespace: Option<String>,
    id: ReleaseId,
}

impl ReleaseRef {
    /// An unqualified reference, resolved against the server's only
    /// namespace.
    pub fn local(id: ReleaseId) -> Self {
        ReleaseRef {
            namespace: None,
            id,
        }
    }

    /// A namespace-qualified reference.
    ///
    /// # Errors
    /// [`ParseLineError`] when the namespace name is not wire-safe (see
    /// [`privpath_store::is_valid_namespace`]).
    pub fn namespaced(namespace: impl Into<String>, id: ReleaseId) -> Result<Self, ParseLineError> {
        let namespace = namespace.into();
        if !is_valid_namespace(&namespace) {
            return Err(ParseLineError::new(format!(
                "invalid namespace {namespace:?} (expected 1-64 chars from [A-Za-z0-9_-])"
            )));
        }
        Ok(ReleaseRef {
            namespace: Some(namespace),
            id,
        })
    }

    /// The namespace, when qualified.
    pub fn namespace(&self) -> Option<&str> {
        self.namespace.as_deref()
    }

    /// The registry id.
    pub fn id(&self) -> ReleaseId {
        self.id
    }
}

impl From<ReleaseId> for ReleaseRef {
    fn from(id: ReleaseId) -> Self {
        ReleaseRef::local(id)
    }
}

impl fmt::Display for ReleaseRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.namespace {
            Some(ns) => write!(f, "{ns}/{}", self.id),
            None => write!(f, "{}", self.id),
        }
    }
}

impl FromStr for ReleaseRef {
    type Err = ParseLineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ns, id_tok) = match s.split_once('/') {
            Some((ns, rest)) => (Some(ns), rest),
            None => (None, s),
        };
        let id: ReleaseId = id_tok
            .parse()
            .map_err(|e| ParseLineError::new(format!("{e}")))?;
        match ns {
            Some(ns) => ReleaseRef::namespaced(ns, id),
            None => Ok(ReleaseRef::local(id)),
        }
    }
}

/// A single query against a served release set.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryRequest {
    /// The released estimate of `d(from, to)` under one release.
    Distance {
        /// The release to query.
        release: ReleaseRef,
        /// Source vertex.
        from: NodeId,
        /// Target vertex.
        to: NodeId,
        /// When set, attach the release's error bound at this failure
        /// probability to the response.
        gamma: Option<f64>,
    },
    /// Released estimates for many pairs under one release, answered
    /// with shared per-source work.
    DistanceBatch {
        /// The release to query.
        release: ReleaseRef,
        /// The `(from, to)` pairs.
        pairs: Vec<(NodeId, NodeId)>,
        /// When set, attach the release's error bound at this failure
        /// probability to the response (the paper bounds are uniform
        /// over pairs, so one bound covers the whole batch).
        gamma: Option<f64>,
    },
    /// The released route between two vertices, for route-capable kinds.
    Path {
        /// The release to query.
        release: ReleaseRef,
        /// Source vertex.
        from: NodeId,
        /// Target vertex.
        to: NodeId,
    },
    /// The released distance between the network nodes nearest two
    /// lat/lon coordinates (live geo namespaces only).
    GeoDistance {
        /// The release to query.
        release: ReleaseRef,
        /// Source coordinate as `(lat, lon)` degrees.
        from: (f64, f64),
        /// Target coordinate as `(lat, lon)` degrees.
        to: (f64, f64),
        /// When set, attach the release's error bound at this failure
        /// probability to the response.
        gamma: Option<f64>,
    },
    /// The released route between the network nodes nearest two lat/lon
    /// coordinates (live geo namespaces, route-capable kinds).
    GeoRoute {
        /// The release to query.
        release: ReleaseRef,
        /// Source coordinate as `(lat, lon)` degrees.
        from: (f64, f64),
        /// Target coordinate as `(lat, lon)` degrees.
        to: (f64, f64),
    },
    /// Released distances for many snapped coordinate pairs, answered
    /// with shared per-source work (live geo namespaces only).
    GeoBatch {
        /// The release to query.
        release: ReleaseRef,
        /// The `(from, to)` coordinate pairs, each `(lat, lon)` degrees.
        pairs: Vec<((f64, f64), (f64, f64))>,
        /// When set, attach the release's error bound at this failure
        /// probability to the response.
        gamma: Option<f64>,
    },
    /// The release's accuracy contract evaluated at a failure
    /// probability: what error it guarantees with probability
    /// `1 - gamma`.
    Accuracy {
        /// The release to query.
        release: ReleaseRef,
        /// The failure probability to evaluate the contract at.
        gamma: f64,
    },
    /// Metadata for every release in one namespace's snapshot.
    ListReleases {
        /// The namespace to list, when the server is multi-tenant.
        namespace: Option<String>,
    },
    /// The ledger totals of one namespace's snapshot.
    BudgetStatus {
        /// The namespace to report, when the server is multi-tenant.
        namespace: Option<String>,
    },
    /// The process-wide metric registry in Prometheus text exposition
    /// format. Read-only telemetry: answered by live stores, read-only
    /// endpoints, **and** frozen release sets alike. Every exported
    /// value is a function of public data (counts, timings, epochs) —
    /// the `metrics-taint` lint rule machine-checks that nothing
    /// weight- or noise-derived can be recorded.
    Metrics,
}

/// One release's metadata as reported by [`QueryResponse::Releases`]:
/// kind, spent privacy cost, query surface, and the accuracy contract —
/// everything a caller needs to pick a release without issuing separate
/// `budget`/`accuracy` queries per id.
#[derive(Clone, Debug, PartialEq)]
pub struct ReleaseSummary {
    /// The registry id.
    pub id: ReleaseId,
    /// The release's kind.
    pub kind: ReleaseKind,
    /// The epsilon the release cost.
    pub eps: f64,
    /// The delta the release cost.
    pub delta: f64,
    /// Vertex count, for kinds with a distance surface.
    pub num_nodes: Option<usize>,
    /// The accuracy contract evaluated at the default confidence
    /// ([`privpath_engine::DEFAULT_GAMMA`]), where the release carries
    /// one.
    pub accuracy: Option<ErrorBound>,
}

/// Stable error codes the server reports, so clients can branch without
/// parsing messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line did not parse.
    Malformed,
    /// The release id is not in the served snapshot.
    UnknownRelease,
    /// The release kind does not support the requested query.
    Unsupported,
    /// A vertex id was outside the release's range.
    OutOfRange,
    /// A budget violation (surfaces the engine's structured budget
    /// state).
    Budget,
    /// The query itself failed (e.g. a disconnected pair).
    Query,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// The code's wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownRelease => "unknown-release",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::OutOfRange => "out-of-range",
            ErrorCode::Budget => "budget",
            ErrorCode::Query => "query",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "malformed" => ErrorCode::Malformed,
            "unknown-release" => ErrorCode::UnknownRelease,
            "unsupported" => ErrorCode::Unsupported,
            "out-of-range" => ErrorCode::OutOfRange,
            "budget" => ErrorCode::Budget,
            "query" => ErrorCode::Query,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single response line.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::Distance`].
    Distance {
        /// The released estimate.
        value: f64,
        /// The `±` error bar at the requested `gamma`, when the request
        /// asked for one and the release carries a contract.
        bound: Option<f64>,
    },
    /// Answer to [`QueryRequest::DistanceBatch`], in request order.
    Distances {
        /// The released estimates, in request order.
        values: Vec<f64>,
        /// The shared `±` error bar at the requested `gamma` (uniform
        /// over pairs), when requested and available.
        bound: Option<f64>,
    },
    /// Answer to [`QueryRequest::Path`]: the route's vertices in order.
    Path(Vec<NodeId>),
    /// Answer to [`QueryRequest::GeoDistance`]: the snapped endpoints
    /// and the released estimate between them.
    GeoDistance {
        /// The node the source coordinate snapped to.
        from: NodeId,
        /// The node the target coordinate snapped to.
        to: NodeId,
        /// The released estimate.
        value: f64,
        /// The `±` error bar at the requested `gamma`, when requested
        /// and the release carries a contract.
        bound: Option<f64>,
    },
    /// Answer to [`QueryRequest::GeoRoute`]: the snapped endpoints and
    /// the route's vertices in order.
    GeoRoute {
        /// The node the source coordinate snapped to.
        from: NodeId,
        /// The node the target coordinate snapped to.
        to: NodeId,
        /// The route's vertices, source to target inclusive.
        nodes: Vec<NodeId>,
    },
    /// Answer to [`QueryRequest::GeoBatch`], in request order: each
    /// pair's snapped endpoints and released estimate.
    GeoDistances {
        /// `(snapped from, snapped to, estimate)` per request pair.
        triples: Vec<(NodeId, NodeId, f64)>,
        /// The shared `±` error bar at the requested `gamma` (uniform
        /// over pairs), when requested and available.
        bound: Option<f64>,
    },
    /// Answer to [`QueryRequest::Accuracy`]: the theorem-named bound.
    Accuracy(ErrorBound),
    /// Answer to [`QueryRequest::ListReleases`].
    Releases(Vec<ReleaseSummary>),
    /// Answer to [`QueryRequest::BudgetStatus`].
    Budget {
        /// Total epsilon spent at snapshot time.
        spent_eps: f64,
        /// Total delta spent at snapshot time.
        spent_delta: f64,
        /// Remaining `(eps, delta)`, or `None` for an uncapped ledger.
        remaining: Option<(f64, f64)>,
    },
    /// Answer to [`QueryRequest::Metrics`]: the raw exposition lines.
    ///
    /// This is the protocol's only multi-line response: the wire form is
    /// a `metrics <n>` header line followed by `n` verbatim exposition
    /// lines, so the scrape stays framed even though exposition lines
    /// contain spaces and braces the token codec would mangle.
    Metrics {
        /// Prometheus text exposition lines, in registry render order.
        lines: Vec<String>,
    },
    /// The request failed; the query slot carries a code and a message.
    Error {
        /// Stable machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl QueryResponse {
    /// A bare distance answer (no error bar requested).
    pub fn distance(value: f64) -> Self {
        QueryResponse::Distance { value, bound: None }
    }

    /// A bare batch answer (no error bar requested).
    pub fn distances(values: Vec<f64>) -> Self {
        QueryResponse::Distances {
            values,
            bound: None,
        }
    }

    /// The error response for an engine-level failure, mapping the
    /// structured error variants onto wire codes.
    pub fn from_engine_error(e: &EngineError) -> Self {
        QueryResponse::Error {
            code: engine_error_code(e),
            message: e.to_string(),
        }
    }
}

/// The wire code for an engine-level failure (shared by the query and
/// admin response paths).
pub(crate) fn engine_error_code(e: &EngineError) -> ErrorCode {
    match e {
        EngineError::UnknownRelease(_) => ErrorCode::UnknownRelease,
        EngineError::UnsupportedQuery { .. } | EngineError::CalibrationFailed { .. } => {
            ErrorCode::Unsupported
        }
        EngineError::NodeOutOfRange { .. } => ErrorCode::OutOfRange,
        EngineError::BudgetExhausted { .. }
        | EngineError::EmptyBudgetPlan
        | EngineError::DegenerateAllocation { .. } => ErrorCode::Budget,
        EngineError::Core(_) | EngineError::Dp(_) | EngineError::MissingKnob { .. } => {
            ErrorCode::Query
        }
        EngineError::Persist(_) => ErrorCode::Internal,
    }
}

/// Canonical wire form for floats (Rust `{:?}` — round-trips exactly);
/// shared by the query and admin codecs so the two halves of the
/// protocol can never drift apart.
pub(crate) fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

impl fmt::Display for QueryRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryRequest::Distance {
                release,
                from,
                to,
                gamma,
            } => {
                write!(f, "distance {release} {} {}", from.index(), to.index())?;
                if let Some(g) = gamma {
                    write!(f, " gamma {}", fmt_f64(*g))?;
                }
                Ok(())
            }
            QueryRequest::DistanceBatch {
                release,
                pairs,
                gamma,
            } => {
                write!(f, "batch {release} {}", pairs.len())?;
                for (u, v) in pairs {
                    write!(f, " {}:{}", u.index(), v.index())?;
                }
                if let Some(g) = gamma {
                    write!(f, " gamma {}", fmt_f64(*g))?;
                }
                Ok(())
            }
            QueryRequest::Path { release, from, to } => {
                write!(f, "path {release} {} {}", from.index(), to.index())
            }
            QueryRequest::GeoDistance {
                release,
                from,
                to,
                gamma,
            } => {
                write!(
                    f,
                    "geo-distance {release} {} {} {} {}",
                    fmt_f64(from.0),
                    fmt_f64(from.1),
                    fmt_f64(to.0),
                    fmt_f64(to.1)
                )?;
                if let Some(g) = gamma {
                    write!(f, " gamma {}", fmt_f64(*g))?;
                }
                Ok(())
            }
            QueryRequest::GeoRoute { release, from, to } => {
                write!(
                    f,
                    "geo-route {release} {} {} {} {}",
                    fmt_f64(from.0),
                    fmt_f64(from.1),
                    fmt_f64(to.0),
                    fmt_f64(to.1)
                )
            }
            QueryRequest::GeoBatch {
                release,
                pairs,
                gamma,
            } => {
                write!(f, "geo-batch {release} {}", pairs.len())?;
                for (from, to) in pairs {
                    write!(
                        f,
                        " {} {} {} {}",
                        fmt_f64(from.0),
                        fmt_f64(from.1),
                        fmt_f64(to.0),
                        fmt_f64(to.1)
                    )?;
                }
                if let Some(g) = gamma {
                    write!(f, " gamma {}", fmt_f64(*g))?;
                }
                Ok(())
            }
            QueryRequest::Accuracy { release, gamma } => {
                write!(f, "accuracy {release} {}", fmt_f64(*gamma))
            }
            QueryRequest::ListReleases { namespace } => match namespace {
                Some(ns) => write!(f, "list {ns}"),
                None => f.write_str("list"),
            },
            QueryRequest::BudgetStatus { namespace } => match namespace {
                Some(ns) => write!(f, "budget {ns}"),
                None => f.write_str("budget"),
            },
            QueryRequest::Metrics => f.write_str("metrics"),
        }
    }
}

/// Error parsing a protocol line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLineError(String);

impl ParseLineError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ParseLineError(msg.into())
    }
}

impl fmt::Display for ParseLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseLineError {}

struct Tokens<'a> {
    iter: std::iter::Peekable<std::str::SplitWhitespace<'a>>,
}

impl<'a> Tokens<'a> {
    fn new(s: &'a str) -> Self {
        Tokens {
            iter: s.split_whitespace().peekable(),
        }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, ParseLineError> {
        self.iter
            .next()
            .ok_or_else(|| ParseLineError::new(format!("missing {what}")))
    }

    fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, ParseLineError> {
        let tok = self.next(what)?;
        tok.parse()
            .map_err(|_| ParseLineError::new(format!("invalid {what}: {tok:?}")))
    }

    fn node(&mut self, what: &str) -> Result<NodeId, ParseLineError> {
        Ok(NodeId::new(self.parse::<usize>(what)?))
    }

    /// A float that must be finite (geo coordinates: a NaN or infinite
    /// lat/lon is rejected at parse time, before any snap is attempted).
    fn finite_f64(&mut self, what: &str) -> Result<f64, ParseLineError> {
        let v: f64 = self.parse(what)?;
        if !v.is_finite() {
            return Err(ParseLineError::new(format!("non-finite {what}: {v:?}")));
        }
        Ok(v)
    }

    /// A `(lat, lon)` coordinate: two finite floats.
    fn coord(&mut self, what: &str) -> Result<(f64, f64), ParseLineError> {
        let lat = self.finite_f64(&format!("{what} latitude"))?;
        let lon = self.finite_f64(&format!("{what} longitude"))?;
        Ok((lat, lon))
    }

    /// Consumes a trailing optional namespace argument (`list [ns]`,
    /// `budget [ns]`).
    fn optional_namespace(&mut self) -> Result<Option<String>, ParseLineError> {
        match self.iter.next() {
            None => Ok(None),
            Some(tok) if is_valid_namespace(tok) => Ok(Some(tok.to_string())),
            Some(tok) => Err(ParseLineError::new(format!(
                "invalid namespace {tok:?} (expected 1-64 chars from [A-Za-z0-9_-])"
            ))),
        }
    }

    /// Consumes `keyword <float>` if the next token is `keyword`.
    fn optional_keyed_f64(&mut self, keyword: &str) -> Result<Option<f64>, ParseLineError> {
        if self.iter.peek() == Some(&keyword) {
            self.iter.next();
            Ok(Some(self.parse(keyword)?))
        } else {
            Ok(None)
        }
    }

    fn finish(mut self) -> Result<(), ParseLineError> {
        match self.iter.next() {
            Some(extra) => Err(ParseLineError::new(format!(
                "unexpected trailing token {extra:?}"
            ))),
            None => Ok(()),
        }
    }
}

fn parse_theorem(tok: &str) -> Result<Theorem, ParseLineError> {
    Theorem::parse(tok).ok_or_else(|| ParseLineError::new(format!("unknown theorem {tok:?}")))
}

impl FromStr for QueryRequest {
    type Err = ParseLineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut t = Tokens::new(s);
        let req = match t.next("request verb")? {
            "distance" => QueryRequest::Distance {
                release: t.parse("release ref")?,
                from: t.node("source vertex")?,
                to: t.node("target vertex")?,
                gamma: t.optional_keyed_f64("gamma")?,
            },
            "batch" => {
                let release = t.parse("release ref")?;
                let count: usize = t.parse("pair count")?;
                let mut pairs = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let tok = t.next("pair")?;
                    let (u, v) = tok
                        .split_once(':')
                        .ok_or_else(|| ParseLineError::new(format!("invalid pair {tok:?}")))?;
                    let u: usize = u
                        .parse()
                        .map_err(|_| ParseLineError::new(format!("invalid pair {tok:?}")))?;
                    let v: usize = v
                        .parse()
                        .map_err(|_| ParseLineError::new(format!("invalid pair {tok:?}")))?;
                    pairs.push((NodeId::new(u), NodeId::new(v)));
                }
                QueryRequest::DistanceBatch {
                    release,
                    pairs,
                    gamma: t.optional_keyed_f64("gamma")?,
                }
            }
            "path" => QueryRequest::Path {
                release: t.parse("release ref")?,
                from: t.node("source vertex")?,
                to: t.node("target vertex")?,
            },
            "geo-distance" => QueryRequest::GeoDistance {
                release: t.parse("release ref")?,
                from: t.coord("source")?,
                to: t.coord("target")?,
                gamma: t.optional_keyed_f64("gamma")?,
            },
            "geo-route" => QueryRequest::GeoRoute {
                release: t.parse("release ref")?,
                from: t.coord("source")?,
                to: t.coord("target")?,
            },
            "geo-batch" => {
                let release = t.parse("release ref")?;
                let count: usize = t.parse("pair count")?;
                let mut pairs = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let from = t.coord("pair source")?;
                    let to = t.coord("pair target")?;
                    pairs.push((from, to));
                }
                QueryRequest::GeoBatch {
                    release,
                    pairs,
                    gamma: t.optional_keyed_f64("gamma")?,
                }
            }
            "accuracy" => QueryRequest::Accuracy {
                release: t.parse("release ref")?,
                gamma: t.parse("gamma")?,
            },
            "list" => QueryRequest::ListReleases {
                namespace: t.optional_namespace()?,
            },
            "budget" => QueryRequest::BudgetStatus {
                namespace: t.optional_namespace()?,
            },
            "metrics" => QueryRequest::Metrics,
            other => {
                return Err(ParseLineError::new(format!(
                    "unknown request verb {other:?} (expected distance, batch, path, \
                     geo-distance, geo-route, geo-batch, accuracy, list, budget, or \
                     metrics)"
                )))
            }
        };
        t.finish()?;
        Ok(req)
    }
}

impl fmt::Display for QueryResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryResponse::Distance { value, bound } => {
                write!(f, "distance {}", fmt_f64(*value))?;
                if let Some(b) = bound {
                    write!(f, " bound {}", fmt_f64(*b))?;
                }
                Ok(())
            }
            QueryResponse::Distances { values, bound } => {
                write!(f, "distances {}", values.len())?;
                for d in values {
                    write!(f, " {}", fmt_f64(*d))?;
                }
                if let Some(b) = bound {
                    write!(f, " bound {}", fmt_f64(*b))?;
                }
                Ok(())
            }
            QueryResponse::Path(nodes) => {
                write!(f, "path {}", nodes.len())?;
                for n in nodes {
                    write!(f, " {}", n.index())?;
                }
                Ok(())
            }
            QueryResponse::GeoDistance {
                from,
                to,
                value,
                bound,
            } => {
                write!(
                    f,
                    "geo-distance {} {} {}",
                    from.index(),
                    to.index(),
                    fmt_f64(*value)
                )?;
                if let Some(b) = bound {
                    write!(f, " bound {}", fmt_f64(*b))?;
                }
                Ok(())
            }
            QueryResponse::GeoRoute { from, to, nodes } => {
                write!(
                    f,
                    "geo-route {} {} {}",
                    from.index(),
                    to.index(),
                    nodes.len()
                )?;
                for n in nodes {
                    write!(f, " {}", n.index())?;
                }
                Ok(())
            }
            QueryResponse::GeoDistances { triples, bound } => {
                write!(f, "geo-distances {}", triples.len())?;
                for (u, v, d) in triples {
                    write!(f, " {} {} {}", u.index(), v.index(), fmt_f64(*d))?;
                }
                if let Some(b) = bound {
                    write!(f, " bound {}", fmt_f64(*b))?;
                }
                Ok(())
            }
            QueryResponse::Accuracy(b) => {
                write!(
                    f,
                    "accuracy {} {} {}",
                    b.theorem(),
                    fmt_f64(b.alpha()),
                    fmt_f64(b.gamma())
                )
            }
            QueryResponse::Releases(rs) => {
                write!(f, "releases {}", rs.len())?;
                for r in rs {
                    write!(
                        f,
                        " {} {} {} {}",
                        r.id,
                        r.kind,
                        fmt_f64(r.eps),
                        fmt_f64(r.delta)
                    )?;
                    match r.num_nodes {
                        Some(n) => write!(f, " {n}")?,
                        None => write!(f, " -")?,
                    }
                    match &r.accuracy {
                        // Colon-joined so each record stays fixed-arity.
                        Some(b) => write!(
                            f,
                            " {}:{}:{}",
                            b.theorem(),
                            fmt_f64(b.alpha()),
                            fmt_f64(b.gamma())
                        )?,
                        None => write!(f, " -")?,
                    }
                }
                Ok(())
            }
            QueryResponse::Budget {
                spent_eps,
                spent_delta,
                remaining,
            } => {
                write!(
                    f,
                    "budget spent {} {}",
                    fmt_f64(*spent_eps),
                    fmt_f64(*spent_delta)
                )?;
                match remaining {
                    Some((e, d)) => write!(f, " remaining {} {}", fmt_f64(*e), fmt_f64(*d)),
                    None => write!(f, " unbounded"),
                }
            }
            QueryResponse::Metrics { lines } => {
                // The only multi-line response: `metrics <n>` header,
                // then n verbatim exposition lines. Embedded newlines in
                // a line would break the count-framing, so squash them.
                write!(f, "metrics {}", lines.len())?;
                for line in lines {
                    let line = line.replace(['\n', '\r'], " ");
                    write!(f, "\n{line}")?;
                }
                Ok(())
            }
            QueryResponse::Error { code, message } => {
                // Squash newlines so the line-delimited framing survives
                // arbitrary error text.
                let message = message.replace(['\n', '\r'], " ");
                write!(f, "error {code} {message}")
            }
        }
    }
}

impl FromStr for QueryResponse {
    type Err = ParseLineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // The metrics response is the protocol's only multi-line frame;
        // split on raw newlines before the whitespace tokenizer (which
        // would otherwise merge exposition lines into one token soup).
        if s.split_whitespace().next() == Some("metrics") {
            let mut body = s.lines();
            let header = body.next().unwrap_or_default();
            let mut t = Tokens::new(header);
            let _verb = t.next("response verb")?;
            let count: usize = t.parse("metrics line count")?;
            t.finish()?;
            let lines: Vec<String> = body.map(str::to_string).collect();
            if lines.len() != count {
                return Err(ParseLineError::new(format!(
                    "metrics frame promised {count} lines, carried {}",
                    lines.len()
                )));
            }
            return Ok(QueryResponse::Metrics { lines });
        }
        let mut t = Tokens::new(s);
        let resp = match t.next("response verb")? {
            "distance" => QueryResponse::Distance {
                value: t.parse("distance value")?,
                bound: t.optional_keyed_f64("bound")?,
            },
            "distances" => {
                let count: usize = t.parse("value count")?;
                let mut values = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    values.push(t.parse("distance value")?);
                }
                QueryResponse::Distances {
                    values,
                    bound: t.optional_keyed_f64("bound")?,
                }
            }
            "path" => {
                let count: usize = t.parse("vertex count")?;
                let mut nodes = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    nodes.push(t.node("path vertex")?);
                }
                QueryResponse::Path(nodes)
            }
            "geo-distance" => QueryResponse::GeoDistance {
                from: t.node("snapped source")?,
                to: t.node("snapped target")?,
                value: t.parse("distance value")?,
                bound: t.optional_keyed_f64("bound")?,
            },
            "geo-route" => {
                let from = t.node("snapped source")?;
                let to = t.node("snapped target")?;
                let count: usize = t.parse("vertex count")?;
                let mut nodes = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    nodes.push(t.node("route vertex")?);
                }
                QueryResponse::GeoRoute { from, to, nodes }
            }
            "geo-distances" => {
                let count: usize = t.parse("triple count")?;
                let mut triples = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let u = t.node("snapped source")?;
                    let v = t.node("snapped target")?;
                    let d: f64 = t.parse("distance value")?;
                    triples.push((u, v, d));
                }
                QueryResponse::GeoDistances {
                    triples,
                    bound: t.optional_keyed_f64("bound")?,
                }
            }
            "accuracy" => {
                let theorem = parse_theorem(t.next("theorem")?)?;
                let alpha = t.parse("alpha")?;
                let gamma = t.parse("gamma")?;
                QueryResponse::Accuracy(ErrorBound::new(theorem, alpha, gamma))
            }
            "releases" => {
                let count: usize = t.parse("release count")?;
                let mut rs = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let id = t.parse("release id")?;
                    let kind_tok = t.next("release kind")?;
                    let kind = ReleaseKind::parse(kind_tok).ok_or_else(|| {
                        ParseLineError::new(format!("unknown release kind {kind_tok:?}"))
                    })?;
                    let eps = t.parse("eps")?;
                    let delta = t.parse("delta")?;
                    let nodes_tok = t.next("vertex count")?;
                    let num_nodes = if nodes_tok == "-" {
                        None
                    } else {
                        Some(nodes_tok.parse::<usize>().map_err(|_| {
                            ParseLineError::new(format!("invalid vertex count {nodes_tok:?}"))
                        })?)
                    };
                    let acc_tok = t.next("accuracy")?;
                    let accuracy = if acc_tok == "-" {
                        None
                    } else {
                        fn part<'a>(
                            p: Option<&'a str>,
                            what: &str,
                            tok: &str,
                        ) -> Result<&'a str, ParseLineError> {
                            p.ok_or_else(|| {
                                ParseLineError::new(format!("missing {what} in {tok:?}"))
                            })
                        }
                        let mut parts = acc_tok.split(':');
                        let theorem = parse_theorem(part(parts.next(), "theorem", acc_tok)?)?;
                        let alpha: f64 = part(parts.next(), "alpha", acc_tok)?
                            .parse()
                            .map_err(|_| ParseLineError::new(format!("invalid {acc_tok:?}")))?;
                        let gamma: f64 = part(parts.next(), "gamma", acc_tok)?
                            .parse()
                            .map_err(|_| ParseLineError::new(format!("invalid {acc_tok:?}")))?;
                        if parts.next().is_some() {
                            return Err(ParseLineError::new(format!(
                                "trailing accuracy fields in {acc_tok:?}"
                            )));
                        }
                        Some(ErrorBound::new(theorem, alpha, gamma))
                    };
                    rs.push(ReleaseSummary {
                        id,
                        kind,
                        eps,
                        delta,
                        num_nodes,
                        accuracy,
                    });
                }
                QueryResponse::Releases(rs)
            }
            "budget" => {
                let spent_tok = t.next("`spent`")?;
                if spent_tok != "spent" {
                    return Err(ParseLineError::new(format!(
                        "expected `spent`, got {spent_tok:?}"
                    )));
                }
                let spent_eps = t.parse("spent eps")?;
                let spent_delta = t.parse("spent delta")?;
                let remaining = match t.next("`remaining` or `unbounded`")? {
                    "remaining" => Some((t.parse("remaining eps")?, t.parse("remaining delta")?)),
                    "unbounded" => None,
                    other => {
                        return Err(ParseLineError::new(format!(
                            "expected `remaining` or `unbounded`, got {other:?}"
                        )))
                    }
                };
                QueryResponse::Budget {
                    spent_eps,
                    spent_delta,
                    remaining,
                }
            }
            "error" => {
                let code_tok = t.next("error code")?;
                let code = ErrorCode::parse(code_tok).ok_or_else(|| {
                    ParseLineError::new(format!("unknown error code {code_tok:?}"))
                })?;
                // The message is the rest of the line, whitespace-joined.
                let message: Vec<&str> = t.iter.collect();
                return Ok(QueryResponse::Error {
                    code,
                    message: message.join(" "),
                });
            }
            other => {
                return Err(ParseLineError::new(format!(
                    "unknown response verb {other:?}"
                )))
            }
        };
        t.finish()?;
        Ok(resp)
    }
}
