//! The traced run's per-layer numbers.
//!
//! The workload's op sequence is replayed in-process through each
//! crate's public functions, from this file, on a store built from the
//! same seeded network. Every layer call gets one span; the spans of one
//! op share its id and hang under the op's root span, so a layer's self
//! time is its span minus its child spans. Probes time the inner layers
//! (search, release, noise) on their own. Spans stay in memory and are
//! written out when the run ends.

use crate::load::{self, Expect};
use crate::proc::Result;
use crate::stats::median;
use crate::workload::{Kind, Network, Plan, Rng, Spec, RELEASE_EPS};
use crate::{metric, Metric};
use privpath::dp::{Delta, Epsilon, NoiseSource, RngNoise};
use privpath::engine::{AnyRelease, ReleaseKind};
use privpath::geo::{read_co_path, read_gr_path};
use privpath::graph::algo::DijkstraWorkspace;
use privpath::graph::{EdgeId, NodeId};
use privpath::serve::{QueryRequest, QueryResponse};
use privpath::store::{ReleaseSpec, ReleaseStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Read ops replayed per workload (from connection 0's sequence).
fn replayed_reads(kind: Kind) -> usize {
    match kind {
        Kind::GeoP2p => 150,
        Kind::HotBatch => 5_000,
        Kind::UpdateMix => usize::MAX,
    }
}
/// Updates replayed from the trailing write phase.
const REPLAYED_WRITES: usize = 20;
/// Fresh sources timed cold then warm, and through search alone.
const PROBE_SOURCES: usize = 20;
const RELEASE_PROBES: usize = 10;
const SNAP_PROBES: usize = 1_000;
const NOISE_CHUNKS: usize = 10;
const NOISE_DRAWS_PER_CHUNK: usize = 100_000;
const RTT_PROBES: usize = 200;

/// Figures the traced run takes from its TCP phase.
pub struct TcpFigures {
    pub read_p50_ms: f64,
    pub bytes_per_read: f64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub write_bytes_per_update: f64,
    pub rtt_us: f64,
}

/// Median round trip of a trivial admin verb against the live server.
pub fn rtt_us(addr: &str, ns: &str) -> Result<f64> {
    let mut conn = load::Conn::new(load::connect(addr)?)?;
    let line = format!("epoch {ns}\n");
    let mut samples = Vec::with_capacity(RTT_PROBES);
    for _ in 0..RTT_PROBES {
        let start = Instant::now();
        conn.call(&line)?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples).unwrap_or(0.0))
}

struct Span {
    op: u64,
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn enter(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            op,
            parent,
            name,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn exit(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    fn span<R>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(op, parent, name);
        let r = black_box(f());
        self.exit(id);
        r
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start).as_secs_f64();
            }
        }
        own
    }

    /// Median self time of the spans named `name`, in seconds.
    fn median_self(&self, own: &[f64], name: &str) -> f64 {
        let samples: Vec<f64> = self
            .spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .collect();
        median(&samples).unwrap_or(0.0)
    }

    fn write(&self, path: &Path) -> Result<()> {
        let mut out = String::from("op\tspan\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replays the workload in-process and returns every per-layer metric.
pub fn per_layer(
    spec: &Spec,
    seed: u64,
    plan: &Plan,
    net: &Network,
    work: &Path,
    spans_dir: &Path,
    tcp: &TcpFigures,
) -> Result<Vec<Metric>> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    privpath::graph::algo::set_default_search_threads(nproc);
    let gr = read_gr_path(&net.gr).map_err(err)?;
    let coords = read_co_path(&net.co, Some(spec.nodes)).map_err(err)?;
    let release_spec = ReleaseSpec::new(
        ReleaseKind::ShortestPath,
        Epsilon::new(RELEASE_EPS).map_err(err)?,
    )
    .map_err(err)?;
    let budget = (plan.updates() + 2) as f64 * RELEASE_EPS;
    let store = ReleaseStore::open(work.join("replay"))
        .map_err(err)?
        .with_seed(seed);
    store
        .create_namespace_geo(
            spec.ns,
            gr.topology.clone(),
            gr.weights.clone(),
            coords,
            Some((
                Epsilon::new(budget).map_err(err)?,
                Delta::new(0.0).map_err(err)?,
            )),
        )
        .map_err(err)?;
    let id = store.publish(spec.ns, &release_spec).map_err(err)?.id;
    let mut snapshot = store.snapshot(spec.ns).map_err(err)?;
    if let Expect::Batch { pairs } = &plan.first.expect {
        snapshot
            .distance_batch(id, &node_pairs(pairs))
            .map_err(err)?;
    }

    let mut tracer = Tracer::new();
    let mut op_id = 0u64;
    let mut used_sources = HashSet::new();
    let mut read_ops = Vec::new();
    let mut reads_left = replayed_reads(spec.kind);
    let writes = plan.writes.iter().take(REPLAYED_WRITES);
    for op in plan.conns[0].iter().chain(writes) {
        op_id += 1;
        match &op.expect {
            Expect::Update { pairs } => {
                let updates: Vec<(EdgeId, f64)> =
                    pairs.iter().map(|&(e, w)| (EdgeId::new(e), w)).collect();
                tracer
                    .span(op_id, None, "store.update", || {
                        store.update_weights_sparse(spec.ns, &updates)
                    })
                    .map_err(err)?;
                snapshot = store.snapshot(spec.ns).map_err(err)?;
            }
            read => {
                if reads_left == 0 {
                    continue;
                }
                reads_left -= 1;
                let root = tracer.enter(op_id, None, "op");
                read_ops.push(root);
                let line = op.line.trim_end();
                let request = tracer
                    .span(op_id, Some(root), "serve.parse", || {
                        line.parse::<QueryRequest>()
                    })
                    .map_err(err)?;
                let response = match (read, request) {
                    (Expect::Geo { .. }, QueryRequest::GeoDistance { from, to, .. }) => {
                        let index = snapshot.geo().ok_or("namespace has no spatial index")?;
                        let u = tracer
                            .span(op_id, Some(root), "geo.snap", || index.snap(from.0, from.1))
                            .map_err(err)?
                            .node;
                        let v = tracer
                            .span(op_id, Some(root), "geo.snap", || index.snap(to.0, to.1))
                            .map_err(err)?
                            .node;
                        used_sources.insert(u.index());
                        let value = tracer
                            .span(op_id, Some(root), "store.read", || {
                                snapshot.distance(id, u, v)
                            })
                            .map_err(err)?;
                        QueryResponse::GeoDistance {
                            from: u,
                            to: v,
                            value,
                            bound: None,
                        }
                    }
                    (Expect::Batch { .. }, QueryRequest::DistanceBatch { pairs, .. }) => {
                        used_sources.extend(pairs.iter().map(|p| p.0.index()));
                        let values = tracer
                            .span(op_id, Some(root), "store.read", || {
                                snapshot.distance_batch(id, &pairs)
                            })
                            .map_err(err)?;
                        QueryResponse::Distances {
                            values,
                            bound: None,
                        }
                    }
                    (_, other) => return Err(format!("cannot replay {other:?}")),
                };
                tracer.span(op_id, Some(root), "serve.encode", || response.to_string());
                tracer.exit(root);
            }
        }
    }

    // Probes on sources no replayed op touched: the store read cold then
    // warm, and the layers under it on their own.
    let mut rng = Rng::new(seed, 0x7ace);
    let batch_len = match &plan.conns[0][0].expect {
        Expect::Batch { pairs } => pairs.len(),
        _ => 1,
    };
    let mut fresh = || loop {
        let s = rng.below(spec.nodes);
        if used_sources.insert(s) {
            return s;
        }
    };
    let mut probes: Vec<Vec<(NodeId, NodeId)>> = Vec::new();
    for _ in 0..PROBE_SOURCES {
        probes.push(
            (0..batch_len)
                .map(|_| (NodeId::new(fresh()), NodeId::new(fresh())))
                .collect(),
        );
    }
    for pairs in &probes {
        op_id += 1;
        for name in ["store.read_cold", "store.read_warm"] {
            if batch_len == 1 {
                let (u, v) = pairs[0];
                tracer
                    .span(op_id, None, name, || snapshot.distance(id, u, v))
                    .map_err(err)?;
            } else {
                tracer
                    .span(op_id, None, name, || snapshot.distance_batch(id, pairs))
                    .map_err(err)?;
            }
        }
    }
    let oracle = snapshot.service().query(id).map_err(err)?;
    for pairs in &probes {
        op_id += 1;
        tracer
            .span(op_id, None, "engine.source_distances", || {
                oracle.source_distances(pairs[0].0)
            })
            .map_err(err)?;
    }
    let mut staged = None;
    for k in 0..RELEASE_PROBES {
        op_id += 1;
        let mut noise = RngNoise::new(StdRng::seed_from_u64(seed.wrapping_add(k as u64)));
        staged = Some(
            tracer
                .span(op_id, None, "engine.release", || {
                    release_spec.run(&gr.topology, &gr.weights, &mut noise)
                })
                .map_err(err)?,
        );
    }
    let Some(AnyRelease::ShortestPath(released)) = staged.map(|s| s.release) else {
        return Err("the release probe did not stage a shortest-path release".into());
    };
    let mut ws = DijkstraWorkspace::new();
    for pairs in &probes {
        op_id += 1;
        let (s, t) = pairs[0];
        tracer.span(op_id, None, "graph.sssp", || {
            ws.run_unchecked(released.topology(), released.released_weights(), s);
            ws.distance(t)
        });
    }
    let index = snapshot.geo().ok_or("namespace has no spatial index")?;
    let bounds = index.bounds();
    for _ in 0..SNAP_PROBES {
        op_id += 1;
        let lat = bounds.min_lat() + (bounds.max_lat() - bounds.min_lat()) * rng.unit();
        let lon = bounds.min_lon() + (bounds.max_lon() - bounds.min_lon()) * rng.unit();
        tracer
            .span(op_id, None, "geo.snap", || index.snap(lat, lon))
            .map_err(err)?;
    }
    let mut noise = RngNoise::new(StdRng::seed_from_u64(seed));
    for _ in 0..NOISE_CHUNKS {
        op_id += 1;
        tracer.span(op_id, None, "dp.noise", || {
            (0..NOISE_DRAWS_PER_CHUNK).fold(0.0, |acc, _| acc + noise.laplace(1.0))
        });
    }

    let own = tracer.self_times();
    let at = |name: &str| tracer.median_self(&own, name);
    // The server-side path of one read, summed over its layers' self
    // times (the root span's own glue excluded).
    let in_process: Vec<f64> = read_ops
        .iter()
        .map(|&root| {
            tracer
                .spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.parent == Some(root))
                .map(|(_, &t)| t)
                .sum()
        })
        .collect();
    let release_ms = at("engine.release") * 1e3;
    let update_ms = at("store.update") * 1e3;
    let metrics = vec![
        metric("geo.snap_us", at("geo.snap") * 1e6, "us"),
        metric("graph.sssp_ms", at("graph.sssp") * 1e3, "ms"),
        metric(
            "engine.source_distances_ms",
            at("engine.source_distances") * 1e3,
            "ms",
        ),
        metric("engine.release_ms", release_ms, "ms"),
        metric(
            "dp.noise_ns_per_draw",
            at("dp.noise") * 1e9 / NOISE_DRAWS_PER_CHUNK as f64,
            "ns",
        ),
        metric("store.read_hit_us", at("store.read_warm") * 1e6, "us"),
        metric("store.read_miss_ms", at("store.read_cold") * 1e3, "ms"),
        metric(
            "store.cache_hit_ratio",
            tcp.cache_hits as f64 / tcp.cache_lookups.max(1) as f64,
            "ratio",
        ),
        metric("store.cache_lookups", tcp.cache_lookups as f64, "count"),
        metric("store.update_ms", update_ms, "ms"),
        metric("store.commit_ms", update_ms - release_ms, "ms"),
        metric(
            "store.write_bytes_per_update",
            tcp.write_bytes_per_update,
            "B",
        ),
        metric("serve.parse_us", at("serve.parse") * 1e6, "us"),
        metric("serve.encode_us", at("serve.encode") * 1e6, "us"),
        metric("serve.rtt_us", tcp.rtt_us, "us"),
        metric("serve.bytes_per_read", tcp.bytes_per_read, "B"),
        metric(
            "serve.wire_residual_ms",
            tcp.read_p50_ms - median(&in_process).unwrap_or(0.0) * 1e3,
            "ms",
        ),
    ];

    std::fs::create_dir_all(spans_dir).map_err(err)?;
    tracer.write(&spans_dir.join(format!("{}-seed{seed}.tsv", spec.name)))?;
    Ok(metrics)
}

fn node_pairs(pairs: &[(usize, usize)]) -> Vec<(NodeId, NodeId)> {
    pairs
        .iter()
        .map(|&(u, v)| (NodeId::new(u), NodeId::new(v)))
        .collect()
}
