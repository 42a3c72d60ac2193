//! The admin half of the wire protocol: namespace-scoped write
//! operations against a **live store** server.
//!
//! Query verbs ([`crate::protocol`]) are pure post-processing and safe
//! to expose broadly; admin verbs mutate the store — they draw fresh
//! noise, debit the namespace budget (they are budget-gated by the
//! namespace [`Accountant`](privpath_dp::Accountant): an unaffordable
//! `publish`/`update-weights` is refused with an `error budget ...`
//! line before any noise is drawn), and `update-weights` carries
//! **private weight data** on the wire. Run the admin surface on an
//! operator-local endpoint.
//!
//! ```text
//! admin    := "publish" ns spec
//!           | "update-weights" ns ["full"] count (edge ":" float)*
//!           | "drop" ns [id]
//!           | "epoch" ns
//!           | "stats" [ns]
//!           | "trace" [limit]
//! spec     := mechanism "eps" float ["delta" float] ["gamma" float]
//!             ["max-weight" float]
//! response := "published" ns id "epoch" u64 "eps" float "delta" float
//!           | "updated" ns "epoch" u64 "rereleased" count "eps" float "delta" float
//!           | "dropped" ns (id "epoch" u64 | "namespace")
//!           | "epoch" ns u64
//!           | "stats" count entry*
//!           | "traces" count trace*
//! trace    := op total_us nphases (phase ":" u64)*
//! entry    := ns epoch releases "spent" float float
//!             ("remaining" float float | "unbounded") "cache" u64 u64 mode
//! mode     := "standard" | "continual" position horizon "rho" float float
//! ```
//!
//! `spec` is a [`ReleaseSpec`] in its canonical token form; the `full`
//! marker on `update-weights` declares a whole-vector replacement (the
//! server refuses it unless exactly one weight per edge is carried, so
//! a truncated file can never silently half-update a namespace); `drop`
//! without an id drops the whole namespace. A frozen release set —
//! or a live store served read-only — answers every admin verb with
//! `error unsupported ...`.

use crate::protocol::{fmt_f64, ErrorCode, ParseLineError};
use privpath_engine::ReleaseId;
use privpath_store::{is_valid_namespace, ContinualStatus, NamespaceStats, ReleaseSpec};
use std::fmt;
use std::str::FromStr;

/// A namespace-scoped write operation.
#[derive(Clone, Debug, PartialEq)]
pub enum AdminRequest {
    /// Run a mechanism as a new release in a namespace.
    Publish {
        /// The namespace to publish into.
        namespace: String,
        /// What to run.
        spec: ReleaseSpec,
    },
    /// Apply weight updates and re-release every live release in the
    /// namespace against the new weights.
    UpdateWeights {
        /// The namespace to update.
        namespace: String,
        /// `(edge index, new weight)` pairs; later entries win in the
        /// sparse form.
        updates: Vec<(usize, f64)>,
        /// `true` declares a **full replacement**: the server refuses
        /// the update unless it carries exactly one weight per edge of
        /// the namespace (no silent partial replacement from a short
        /// list). `false` applies the pairs onto the current weights.
        full: bool,
    },
    /// Drop one release, or the whole namespace when `release` is
    /// `None`.
    Drop {
        /// The namespace.
        namespace: String,
        /// The release to drop, or `None` for the namespace itself.
        release: Option<ReleaseId>,
    },
    /// The namespace's current epoch.
    Epoch {
        /// The namespace.
        namespace: String,
    },
    /// Per-namespace counters (all namespaces, or one).
    Stats {
        /// Restrict to one namespace.
        namespace: Option<String>,
    },
    /// The newest completed request traces from the in-process ring,
    /// newest first. Trace op/phase names are compile-time constants and
    /// timings are wall-clock — weight-independent by construction —
    /// but the verb stays admin-gated like `stats`.
    Trace {
        /// How many traces to return, at most.
        limit: usize,
    },
}

/// One completed span on the wire: the owned form of
/// [`privpath_obs::TraceRecord`] (whose names are `&'static str`).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// The traced operation.
    pub op: String,
    /// Total wall-clock duration, microseconds.
    pub total_us: u64,
    /// `(phase name, duration in microseconds)` in completion order.
    pub phases: Vec<(String, u64)>,
}

/// The server's answer to an [`AdminRequest`].
#[derive(Clone, Debug, PartialEq)]
pub enum AdminResponse {
    /// Answer to [`AdminRequest::Publish`].
    Published {
        /// The namespace published into.
        namespace: String,
        /// The new release's id.
        id: ReleaseId,
        /// The namespace epoch after the publish.
        epoch: u64,
        /// The epsilon debited.
        eps: f64,
        /// The delta debited.
        delta: f64,
    },
    /// Answer to [`AdminRequest::UpdateWeights`].
    Updated {
        /// The namespace updated.
        namespace: String,
        /// The namespace epoch after the update.
        epoch: u64,
        /// How many releases were re-run.
        rereleased: usize,
        /// Total epsilon debited.
        eps: f64,
        /// Total delta debited.
        delta: f64,
    },
    /// Answer to [`AdminRequest::Drop`].
    Dropped {
        /// The namespace.
        namespace: String,
        /// The dropped release, or `None` when the namespace was
        /// dropped.
        release: Option<ReleaseId>,
        /// The namespace epoch after a release drop (`None` when the
        /// namespace itself was dropped).
        epoch: Option<u64>,
    },
    /// Answer to [`AdminRequest::Epoch`].
    Epoch {
        /// The namespace.
        namespace: String,
        /// Its current epoch.
        epoch: u64,
    },
    /// Answer to [`AdminRequest::Stats`].
    Stats(Vec<NamespaceStats>),
    /// Answer to [`AdminRequest::Trace`]: recent traces, newest first.
    Traces(Vec<TraceEntry>),
    /// The request failed.
    Error {
        /// Stable machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn err(msg: impl Into<String>) -> ParseLineError {
    ParseLineError::new(msg)
}

impl fmt::Display for AdminRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdminRequest::Publish { namespace, spec } => {
                write!(f, "publish {namespace} {}", spec.to_line())
            }
            AdminRequest::UpdateWeights {
                namespace,
                updates,
                full,
            } => {
                write!(f, "update-weights {namespace}")?;
                if *full {
                    write!(f, " full")?;
                }
                write!(f, " {}", updates.len())?;
                for (e, w) in updates {
                    write!(f, " {e}:{}", fmt_f64(*w))?;
                }
                Ok(())
            }
            AdminRequest::Drop { namespace, release } => match release {
                Some(id) => write!(f, "drop {namespace} {id}"),
                None => write!(f, "drop {namespace}"),
            },
            AdminRequest::Epoch { namespace } => write!(f, "epoch {namespace}"),
            AdminRequest::Stats { namespace } => match namespace {
                Some(ns) => write!(f, "stats {ns}"),
                None => f.write_str("stats"),
            },
            AdminRequest::Trace { limit } => write!(f, "trace {limit}"),
        }
    }
}

/// The admin request verbs, for dispatch before parsing.
pub(crate) const ADMIN_VERBS: [&str; 6] = [
    "publish",
    "update-weights",
    "drop",
    "epoch",
    "stats",
    "trace",
];

fn namespace_token<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<String, ParseLineError> {
    let tok = tokens.next().ok_or_else(|| err("missing namespace"))?;
    if !is_valid_namespace(tok) {
        return Err(err(format!(
            "invalid namespace {tok:?} (expected 1-64 chars from [A-Za-z0-9_-])"
        )));
    }
    Ok(tok.to_string())
}

fn finish<'a>(mut tokens: impl Iterator<Item = &'a str>) -> Result<(), ParseLineError> {
    match tokens.next() {
        Some(extra) => Err(err(format!("unexpected trailing token {extra:?}"))),
        None => Ok(()),
    }
}

impl FromStr for AdminRequest {
    type Err = ParseLineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut t = s.split_whitespace();
        let verb = t.next().ok_or_else(|| err("missing admin verb"))?;
        let req = match verb {
            "publish" => {
                let namespace = namespace_token(&mut t)?;
                let spec = ReleaseSpec::parse_tokens(&mut t).map_err(|e| err(e.to_string()))?;
                AdminRequest::Publish { namespace, spec }
            }
            "update-weights" => {
                let namespace = namespace_token(&mut t)?;
                let mut t = t.peekable();
                let full = t.peek() == Some(&"full");
                if full {
                    t.next();
                }
                let count: usize = t
                    .next()
                    .and_then(|tok| tok.parse().ok())
                    .ok_or_else(|| err("missing or invalid update count"))?;
                let mut updates = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let tok = t.next().ok_or_else(|| err("missing update pair"))?;
                    let (e, w) = tok
                        .split_once(':')
                        .ok_or_else(|| err(format!("invalid update {tok:?}")))?;
                    let e: usize = e
                        .parse()
                        .map_err(|_| err(format!("invalid edge in {tok:?}")))?;
                    let w: f64 = w
                        .parse()
                        .map_err(|_| err(format!("invalid weight in {tok:?}")))?;
                    updates.push((e, w));
                }
                // `t` was rebound to a peekable in this arm; finish here.
                finish(t)?;
                return Ok(AdminRequest::UpdateWeights {
                    namespace,
                    updates,
                    full,
                });
            }
            "drop" => {
                let namespace = namespace_token(&mut t)?;
                let release = match t.next() {
                    Some(tok) => Some(tok.parse::<ReleaseId>().map_err(|e| err(e.to_string()))?),
                    None => None,
                };
                AdminRequest::Drop { namespace, release }
            }
            "epoch" => AdminRequest::Epoch {
                namespace: namespace_token(&mut t)?,
            },
            "stats" => AdminRequest::Stats {
                namespace: match t.next() {
                    Some(tok) if is_valid_namespace(tok) => Some(tok.to_string()),
                    Some(tok) => return Err(err(format!("invalid namespace {tok:?}"))),
                    None => None,
                },
            },
            "trace" => AdminRequest::Trace {
                limit: match t.next() {
                    Some(tok) => tok
                        .parse()
                        .map_err(|_| err(format!("invalid trace limit {tok:?}")))?,
                    None => 16,
                },
            },
            other => return Err(err(format!("unknown admin verb {other:?}"))),
        };
        finish(t)?;
        Ok(req)
    }
}

impl fmt::Display for AdminResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdminResponse::Published {
                namespace,
                id,
                epoch,
                eps,
                delta,
            } => write!(
                f,
                "published {namespace} {id} epoch {epoch} eps {} delta {}",
                fmt_f64(*eps),
                fmt_f64(*delta)
            ),
            AdminResponse::Updated {
                namespace,
                epoch,
                rereleased,
                eps,
                delta,
            } => write!(
                f,
                "updated {namespace} epoch {epoch} rereleased {rereleased} eps {} delta {}",
                fmt_f64(*eps),
                fmt_f64(*delta)
            ),
            AdminResponse::Dropped {
                namespace,
                release,
                epoch,
            } => match (release, epoch) {
                (Some(id), Some(e)) => write!(f, "dropped {namespace} {id} epoch {e}"),
                _ => write!(f, "dropped {namespace} namespace"),
            },
            AdminResponse::Epoch { namespace, epoch } => write!(f, "epoch {namespace} {epoch}"),
            AdminResponse::Stats(entries) => {
                write!(f, "stats {}", entries.len())?;
                for s in entries {
                    write!(
                        f,
                        " {} {} {} spent {} {}",
                        s.namespace,
                        s.epoch,
                        s.releases,
                        fmt_f64(s.spent_eps),
                        fmt_f64(s.spent_delta)
                    )?;
                    match s.remaining {
                        Some((e, d)) => write!(f, " remaining {} {}", fmt_f64(e), fmt_f64(d))?,
                        None => write!(f, " unbounded")?,
                    }
                    write!(f, " cache {} {}", s.cache_hits, s.cache_misses)?;
                    // The mode marker is mandatory (not keyed off a
                    // keyword that could collide with a namespace name).
                    match &s.continual {
                        None => write!(f, " standard")?,
                        Some(c) => write!(
                            f,
                            " continual {} {} rho {} {}",
                            c.position,
                            c.horizon,
                            fmt_f64(c.rho_spent),
                            fmt_f64(c.rho_total)
                        )?,
                    }
                }
                Ok(())
            }
            AdminResponse::Traces(entries) => {
                write!(f, "traces {}", entries.len())?;
                for t in entries {
                    write!(f, " {} {} {}", t.op, t.total_us, t.phases.len())?;
                    for (name, us) in &t.phases {
                        write!(f, " {name}:{us}")?;
                    }
                }
                Ok(())
            }
            AdminResponse::Error { code, message } => {
                let message = message.replace(['\n', '\r'], " ");
                write!(f, "error {code} {message}")
            }
        }
    }
}

impl FromStr for AdminResponse {
    type Err = ParseLineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut t = s.split_whitespace();
        let mut next = |what: &str| t.next().ok_or_else(|| err(format!("missing {what}")));
        fn parse<T: FromStr>(tok: &str, what: &str) -> Result<T, ParseLineError> {
            tok.parse()
                .map_err(|_| err(format!("invalid {what}: {tok:?}")))
        }
        fn keyword(tok: &str, expect: &str) -> Result<(), ParseLineError> {
            if tok == expect {
                Ok(())
            } else {
                Err(err(format!("expected `{expect}`, got {tok:?}")))
            }
        }
        let verb = next("response verb")?;
        let resp = match verb {
            "published" => {
                let namespace = next("namespace")?.to_string();
                let id = parse(next("release id")?, "release id")?;
                keyword(next("`epoch`")?, "epoch")?;
                let epoch = parse(next("epoch")?, "epoch")?;
                keyword(next("`eps`")?, "eps")?;
                let eps = parse(next("eps")?, "eps")?;
                keyword(next("`delta`")?, "delta")?;
                let delta = parse(next("delta")?, "delta")?;
                AdminResponse::Published {
                    namespace,
                    id,
                    epoch,
                    eps,
                    delta,
                }
            }
            "updated" => {
                let namespace = next("namespace")?.to_string();
                keyword(next("`epoch`")?, "epoch")?;
                let epoch = parse(next("epoch")?, "epoch")?;
                keyword(next("`rereleased`")?, "rereleased")?;
                let rereleased = parse(next("rereleased")?, "rereleased count")?;
                keyword(next("`eps`")?, "eps")?;
                let eps = parse(next("eps")?, "eps")?;
                keyword(next("`delta`")?, "delta")?;
                let delta = parse(next("delta")?, "delta")?;
                AdminResponse::Updated {
                    namespace,
                    epoch,
                    rereleased,
                    eps,
                    delta,
                }
            }
            "dropped" => {
                let namespace = next("namespace")?.to_string();
                let what = next("release id or `namespace`")?;
                if what == "namespace" {
                    AdminResponse::Dropped {
                        namespace,
                        release: None,
                        epoch: None,
                    }
                } else {
                    let release = parse(what, "release id")?;
                    keyword(next("`epoch`")?, "epoch")?;
                    let epoch = parse(next("epoch")?, "epoch")?;
                    AdminResponse::Dropped {
                        namespace,
                        release: Some(release),
                        epoch: Some(epoch),
                    }
                }
            }
            "epoch" => AdminResponse::Epoch {
                namespace: next("namespace")?.to_string(),
                epoch: parse(next("epoch")?, "epoch")?,
            },
            "stats" => {
                let count: usize = parse(next("entry count")?, "entry count")?;
                let mut entries = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let namespace = next("namespace")?.to_string();
                    let epoch = parse(next("epoch")?, "epoch")?;
                    let releases = parse(next("release count")?, "release count")?;
                    keyword(next("`spent`")?, "spent")?;
                    let spent_eps = parse(next("spent eps")?, "spent eps")?;
                    let spent_delta = parse(next("spent delta")?, "spent delta")?;
                    let remaining = match next("`remaining` or `unbounded`")? {
                        "remaining" => Some((
                            parse(next("remaining eps")?, "remaining eps")?,
                            parse(next("remaining delta")?, "remaining delta")?,
                        )),
                        "unbounded" => None,
                        other => {
                            return Err(err(format!(
                                "expected `remaining` or `unbounded`, got {other:?}"
                            )))
                        }
                    };
                    keyword(next("`cache`")?, "cache")?;
                    let cache_hits = parse(next("cache hits")?, "cache hits")?;
                    let cache_misses = parse(next("cache misses")?, "cache misses")?;
                    let continual = match next("`standard` or `continual`")? {
                        "standard" => None,
                        "continual" => {
                            let position = parse(next("stream position")?, "stream position")?;
                            let horizon = parse(next("horizon")?, "horizon")?;
                            keyword(next("`rho`")?, "rho")?;
                            let rho_spent = parse(next("rho spent")?, "rho spent")?;
                            let rho_total = parse(next("rho total")?, "rho total")?;
                            Some(ContinualStatus {
                                position,
                                horizon,
                                rho_spent,
                                rho_total,
                            })
                        }
                        other => {
                            return Err(err(format!(
                                "expected `standard` or `continual`, got {other:?}"
                            )))
                        }
                    };
                    entries.push(NamespaceStats {
                        namespace,
                        epoch,
                        releases,
                        spent_eps,
                        spent_delta,
                        remaining,
                        cache_hits,
                        cache_misses,
                        continual,
                    });
                }
                AdminResponse::Stats(entries)
            }
            "traces" => {
                let count: usize = parse(next("trace count")?, "trace count")?;
                let mut entries = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let op = next("trace op")?.to_string();
                    let total_us = parse(next("trace total")?, "trace total")?;
                    let nphases: usize = parse(next("phase count")?, "phase count")?;
                    let mut phases = Vec::with_capacity(nphases.min(1 << 16));
                    for _ in 0..nphases {
                        let tok = next("phase")?;
                        let (name, us) = tok
                            .split_once(':')
                            .ok_or_else(|| err(format!("invalid phase {tok:?}")))?;
                        phases.push((name.to_string(), parse(us, "phase duration")?));
                    }
                    entries.push(TraceEntry {
                        op,
                        total_us,
                        phases,
                    });
                }
                AdminResponse::Traces(entries)
            }
            "error" => {
                let code_tok = next("error code")?;
                let code = ErrorCode::parse(code_tok)
                    .ok_or_else(|| err(format!("unknown error code {code_tok:?}")))?;
                let message: Vec<&str> = t.collect();
                return Ok(AdminResponse::Error {
                    code,
                    message: message.join(" "),
                });
            }
            other => return Err(err(format!("unknown admin response verb {other:?}"))),
        };
        finish(t)?;
        Ok(resp)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use privpath_dp::Epsilon;
    use privpath_engine::ReleaseKind;

    fn spec() -> ReleaseSpec {
        ReleaseSpec::new(ReleaseKind::ShortestPath, Epsilon::new(1.5).unwrap()).unwrap()
    }

    #[test]
    fn admin_requests_round_trip() {
        let reqs = [
            AdminRequest::Publish {
                namespace: "metro".into(),
                spec: spec(),
            },
            AdminRequest::UpdateWeights {
                namespace: "metro".into(),
                updates: vec![(0, 2.5), (17, 0.125)],
                full: false,
            },
            AdminRequest::UpdateWeights {
                namespace: "metro".into(),
                updates: vec![(0, 2.5), (1, 0.125)],
                full: true,
            },
            AdminRequest::Drop {
                namespace: "metro".into(),
                release: Some(ReleaseId::new(3)),
            },
            AdminRequest::Drop {
                namespace: "metro".into(),
                release: None,
            },
            AdminRequest::Epoch {
                namespace: "metro".into(),
            },
            AdminRequest::Stats { namespace: None },
            AdminRequest::Stats {
                namespace: Some("metro".into()),
            },
        ];
        for req in reqs {
            let line = req.to_string();
            assert_eq!(line.parse::<AdminRequest>().unwrap(), req, "{line}");
        }
    }

    #[test]
    fn admin_responses_round_trip() {
        let resps = [
            AdminResponse::Published {
                namespace: "metro".into(),
                id: ReleaseId::new(0),
                epoch: 1,
                eps: 1.5,
                delta: 0.0,
            },
            AdminResponse::Updated {
                namespace: "metro".into(),
                epoch: 2,
                rereleased: 3,
                eps: 4.5,
                delta: 1e-6,
            },
            AdminResponse::Dropped {
                namespace: "metro".into(),
                release: Some(ReleaseId::new(1)),
                epoch: Some(3),
            },
            AdminResponse::Dropped {
                namespace: "metro".into(),
                release: None,
                epoch: None,
            },
            AdminResponse::Epoch {
                namespace: "metro".into(),
                epoch: 9,
            },
            AdminResponse::Stats(vec![
                NamespaceStats {
                    namespace: "metro".into(),
                    epoch: 4,
                    releases: 2,
                    spent_eps: 3.0,
                    spent_delta: 0.0,
                    remaining: Some((1.0, 0.0)),
                    cache_hits: 10,
                    cache_misses: 4,
                    continual: None,
                },
                // A namespace literally named "continual": the mandatory
                // mode marker keeps the entry unambiguous.
                NamespaceStats {
                    namespace: "continual".into(),
                    epoch: 7,
                    releases: 1,
                    spent_eps: 0.5,
                    spent_delta: 1e-6,
                    remaining: Some((0.25, 0.0)),
                    cache_hits: 0,
                    cache_misses: 2,
                    continual: Some(ContinualStatus {
                        position: 12,
                        horizon: 64,
                        rho_spent: 0.125,
                        rho_total: 0.5,
                    }),
                },
            ]),
            AdminResponse::Stats(vec![]),
            AdminResponse::Error {
                code: ErrorCode::Budget,
                message: "privacy budget exhausted".into(),
            },
        ];
        for resp in resps {
            let line = resp.to_string();
            assert_eq!(line.parse::<AdminResponse>().unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn malformed_admin_lines_are_rejected() {
        for line in [
            "publish",
            "publish bad/ns shortest-path eps 1.0",
            "publish metro mst eps 1.0",
            "update-weights metro 2 0:1.0",
            "drop metro r1 extra",
            "epoch",
            "frobnicate metro",
        ] {
            assert!(line.parse::<AdminRequest>().is_err(), "{line:?}");
        }
    }
}
