//! The three workloads: their networks, set-up, seeded op sequences,
//! and the checks every answer must pass.
//!
//! Each workload runs a fixed number of operations derived from
//! `--seconds` (never a fixed duration), so cache fill, RSS and the
//! update count compare exactly across runs and commits.

use crate::load::{self, Expect, Op, Outcome};
use crate::proc::{self, Result, Server};
use privpath::geo::{read_co_path, GeoBounds, SpatialIndex};
use privpath::serve::{AdminResponse, QueryResponse};
use privpath::store::NamespaceStats;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Epsilon of the one shortest-path release each namespace serves; every
/// update re-runs it at the same cost.
pub const RELEASE_EPS: f64 = 1.0;
/// Edges changed by one sparse `update-weights`.
const EDGES_PER_UPDATE: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Uniform random lat/lon pairs on a 10^5-node road network: every
    /// source is new, so search dominates and the cache is bypassed.
    GeoP2p,
    /// Node-id batches whose sources come from a pool warmed into the
    /// cache during set-up: wire, parse, cache lookup and encode only.
    HotBatch,
    /// Reads from a few hot origins interleaved with sparse weight
    /// updates at fixed positions: re-release, commit, cache refill.
    UpdateMix,
}

pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// The store namespace the workload serves.
    pub ns: &'static str,
    pub nodes: usize,
}

impl Spec {
    pub fn by_name(name: &str) -> Result<Spec> {
        let (kind, name, ns, nodes) = match name {
            "geo-p2p" => (Kind::GeoP2p, "geo-p2p", "geo", 100_000),
            "hot-batch" => (Kind::HotBatch, "hot-batch", "hot", 30_000),
            "update-mix" => (Kind::UpdateMix, "update-mix", "mix", 20_000),
            other => {
                return Err(format!(
                    "unknown workload {other:?} (expected geo-p2p, hot-batch or update-mix)"
                ))
            }
        };
        Ok(Spec {
            kind,
            name,
            ns,
            nodes,
        })
    }

    /// Reads in the measured phase, over all connections: enough that
    /// p99 has at least ten samples beyond it. Sized so a run of the
    /// current server on two cores takes about `seconds`.
    fn reads(&self, seconds: u64) -> usize {
        let per_second = match self.kind {
            Kind::GeoP2p => 50,
            Kind::HotBatch => 1_000,
            Kind::UpdateMix => 500,
        };
        (per_second * seconds as usize).max(1_000)
    }

    /// Updates per run: enough that p90 has at least ten samples beyond
    /// it.
    fn updates(&self, seconds: u64) -> usize {
        let per_second = match self.kind {
            Kind::GeoP2p | Kind::HotBatch => 8,
            Kind::UpdateMix => 40,
        };
        (per_second * seconds as usize).max(100)
    }
}

/// splitmix64: a small seeded generator for the op sequences.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The benchmark's own view of a workload's public network: the same
/// seeded files the set-ups generate, and a spatial index over the
/// `.co` to check every snapped answer against.
pub struct Network {
    pub gr: PathBuf,
    pub co: PathBuf,
    pub edges: usize,
    pub index: SpatialIndex,
}

impl Network {
    pub fn generate(bin: &Path, spec: &Spec, seed: u64, dir: &Path) -> Result<Network> {
        let prefix = dir.join("net");
        let (gr, co) = (prefix.with_extension("gr"), prefix.with_extension("co"));
        gen(bin, spec, seed, &prefix)?;
        let edges = edge_count(&gr)?;
        let points = read_co_path(&co, Some(spec.nodes)).map_err(|e| e.to_string())?;
        let index = SpatialIndex::build(points).map_err(|e| e.to_string())?;
        Ok(Network {
            gr,
            co,
            edges,
            index,
        })
    }
}

fn gen(bin: &Path, spec: &Spec, seed: u64, prefix: &Path) -> Result<()> {
    proc::run(
        bin,
        &[
            "geo",
            "gen",
            "--nodes",
            &spec.nodes.to_string(),
            "--out-prefix",
            path_str(prefix)?,
            "--seed",
            &seed.to_string(),
        ],
    )
}

fn path_str(p: &Path) -> Result<&str> {
    p.to_str()
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}

/// The arc count from a DIMACS `.gr` header (`p sp N M`).
fn edge_count(gr: &Path) -> Result<usize> {
    use std::io::BufRead;
    let file = std::fs::File::open(gr).map_err(|e| format!("{}: {e}", gr.display()))?;
    std::io::BufReader::new(file)
        .lines()
        .map_while(std::result::Result::ok)
        .find_map(|l| {
            l.strip_prefix("p sp ")
                .and_then(|r| r.split_whitespace().nth(1)?.parse().ok())
        })
        .ok_or_else(|| format!("no `p sp` header in {}", gr.display()))
}

/// Every request a run sends, fixed by the seed before anything is
/// timed.
pub struct Plan {
    /// The first query of a set-up; on `hot-batch` it also warms the
    /// source pool into the cache.
    pub first: Op,
    /// The measured phase, one op sequence per connection.
    pub conns: Vec<Vec<Op>>,
    /// Updates sent after the measured phase on one connection (the
    /// read-only workloads); `update-mix` sends its updates inside the
    /// measured phase instead.
    pub writes: Vec<Op>,
}

impl Plan {
    pub fn new(spec: &Spec, seed: u64, seconds: u64, conns: usize, net: &Network) -> Plan {
        let mut rng = Rng::new(seed, 0);
        let bounds = net.index.bounds();
        let ns = spec.ns;
        let per_conn = spec.reads(seconds).div_ceil(conns);
        let updates = spec.updates(seconds);
        let (first, conn_ops, writes) = match spec.kind {
            Kind::GeoP2p => {
                let first = geo_op(
                    ns,
                    &net.index,
                    point(&mut rng, &bounds),
                    point(&mut rng, &bounds),
                );
                let ops = (0..conns)
                    .map(|c| {
                        let mut rng = Rng::new(seed, 1 + c as u64);
                        (0..per_conn)
                            .map(|_| {
                                let (a, b) = (point(&mut rng, &bounds), point(&mut rng, &bounds));
                                geo_op(ns, &net.index, a, b)
                            })
                            .collect()
                    })
                    .collect();
                let writes = (0..updates)
                    .map(|_| update_op(ns, &mut rng, net.edges))
                    .collect();
                (first, ops, writes)
            }
            Kind::HotBatch => {
                // A source pool far smaller than the 4096-vector cache.
                // Targets come from a pool too, so every pair recurs many
                // times: each answer can be checked against the warm-up's.
                const POOL: usize = 512;
                const TARGETS: usize = 64;
                const BATCH: usize = 16;
                let mut seen = std::collections::HashSet::new();
                let mut pool = Vec::with_capacity(POOL);
                while pool.len() < POOL {
                    let s = rng.below(spec.nodes);
                    if seen.insert(s) {
                        pool.push(s);
                    }
                }
                let targets: Vec<usize> = (0..TARGETS).map(|_| rng.below(spec.nodes)).collect();
                let warm = pool.iter().enumerate();
                let first = batch_op(ns, warm.map(|(i, &s)| (s, targets[i % TARGETS])).collect());
                let ops = (0..conns)
                    .map(|c| {
                        let mut rng = Rng::new(seed, 1 + c as u64);
                        (0..per_conn)
                            .map(|_| {
                                let pairs = (0..BATCH)
                                    .map(|_| (pool[rng.below(POOL)], targets[rng.below(TARGETS)]))
                                    .collect();
                                batch_op(ns, pairs)
                            })
                            .collect()
                    })
                    .collect();
                let writes = (0..updates)
                    .map(|_| update_op(ns, &mut rng, net.edges))
                    .collect();
                (first, ops, writes)
            }
            Kind::UpdateMix => {
                // Few origins next to the graph, but more than the reads
                // one epoch lasts for: most reads refill a source the last
                // update invalidated, so the median read is a search over
                // freshly released weights, not a cache hit.
                const HOT_ORIGINS: usize = 32;
                let origins: Vec<(f64, f64)> =
                    (0..HOT_ORIGINS).map(|_| point(&mut rng, &bounds)).collect();
                let first = geo_op(ns, &net.index, origins[0], point(&mut rng, &bounds));
                let updates_per_conn = updates.div_ceil(conns);
                // Updates sit at fixed positions: every `stride`-th op.
                let stride = (per_conn / updates_per_conn).max(2);
                let ops = (0..conns)
                    .map(|c| {
                        let mut rng = Rng::new(seed, 1 + c as u64);
                        (0..stride * updates_per_conn)
                            .map(|i| {
                                if i % stride == stride - 1 {
                                    update_op(ns, &mut rng, net.edges)
                                } else {
                                    let from = origins[rng.below(HOT_ORIGINS)];
                                    geo_op(ns, &net.index, from, point(&mut rng, &bounds))
                                }
                            })
                            .collect()
                    })
                    .collect();
                (first, ops, Vec::new())
            }
        };
        Plan {
            first,
            conns: conn_ops,
            writes,
        }
    }

    pub fn reads(&self) -> usize {
        self.conns
            .iter()
            .flatten()
            .filter(|op| !op.is_update())
            .count()
    }

    pub fn updates(&self) -> usize {
        self.conns
            .iter()
            .flatten()
            .chain(&self.writes)
            .filter(|op| op.is_update())
            .count()
    }
}

/// A uniform point inside the network's bounding box, rounded to the
/// six decimals the request line carries (so the benchmark snaps
/// exactly the coordinate the server parses).
fn point(rng: &mut Rng, b: &GeoBounds) -> (f64, f64) {
    let round = |v: f64| (v * 1e6).round() / 1e6;
    let lat = b.min_lat() + rng.unit() * (b.max_lat() - b.min_lat());
    let lon = b.min_lon() + rng.unit() * (b.max_lon() - b.min_lon());
    (round(lat), round(lon))
}

fn geo_op(ns: &str, index: &SpatialIndex, from: (f64, f64), to: (f64, f64)) -> Op {
    let snap = |(lat, lon): (f64, f64)| {
        index
            .snap(lat, lon)
            .expect("points are drawn inside the network's bounds")
            .node
            .index()
    };
    Op {
        line: format!(
            "geo-distance {ns}/r0 {:.6} {:.6} {:.6} {:.6}\n",
            from.0, from.1, to.0, to.1
        ),
        expect: Expect::Geo {
            from: snap(from),
            to: snap(to),
        },
    }
}

fn batch_op(ns: &str, pairs: Vec<(usize, usize)>) -> Op {
    let mut line = format!("batch {ns}/r0 {}", pairs.len());
    for (u, v) in &pairs {
        line.push_str(&format!(" {u}:{v}"));
    }
    line.push('\n');
    Op {
        line,
        expect: Expect::Batch { pairs },
    }
}

fn update_op(ns: &str, rng: &mut Rng, edges: usize) -> Op {
    let pairs: Vec<(usize, f64)> = (0..EDGES_PER_UPDATE)
        .map(|_| (rng.below(edges), 10.0 + rng.below(99_000) as f64 / 100.0))
        .collect();
    let mut line = format!("update-weights {ns} {}", pairs.len());
    for (e, w) in &pairs {
        line.push_str(&format!(" {e}:{w:?}"));
    }
    line.push('\n');
    Op {
        line,
        expect: Expect::Update { pairs },
    }
}

/// One set-up, timed from an empty directory to the first answered
/// query: generate, ingest and index, start the server, publish, query.
/// Returns the server, the seconds taken and the first answer.
pub fn setup(
    bin: &Path,
    spec: &Spec,
    seed: u64,
    dir: &Path,
    threads: usize,
    budget_eps: f64,
    first: &Op,
) -> Result<(Server, f64, String)> {
    let start = Instant::now();
    let prefix = dir.join("net");
    gen(bin, spec, seed, &prefix)?;
    let store = dir.join("store");
    proc::run(
        bin,
        &[
            "store",
            "init",
            "--dir",
            path_str(&store)?,
            "--namespace",
            spec.ns,
            "--from-gr",
            path_str(&prefix.with_extension("gr"))?,
            "--coords",
            path_str(&prefix.with_extension("co"))?,
            "--budget-eps",
            &budget_eps.to_string(),
        ],
    )?;
    let server = Server::start(bin, &store, threads)?;
    let published = load::round_trip(
        server.addr(),
        &format!("publish {} shortest-path eps {RELEASE_EPS:?}\n", spec.ns),
    )?;
    if !matches!(published.parse(), Ok(AdminResponse::Published { id, .. }) if id.value() == 0) {
        return Err(format!("publish refused: {published}"));
    }
    let answer = load::round_trip(server.addr(), &first.line)?;
    let secs = start.elapsed().as_secs_f64();
    let mut check = Check::default();
    check.op(first, load::answer(&answer), None);
    if check.failed + check.mismatches.len() > 0 {
        return Err(format!("first query failed: {answer}"));
    }
    Ok((server, secs, answer))
}

/// The outcome of checking responses.
#[derive(Default)]
pub struct Check {
    /// Ops that got no response or an `error` response.
    pub failed: usize,
    /// Answers that disagree with the benchmark's expectation.
    pub mismatches: Vec<String>,
    /// Updates the server accepted.
    pub updates_ok: usize,
}

impl Check {
    /// Checks one op's response. `repeats`, when given, holds the bits
    /// of every `batch` pair answered so far in this epoch: a repeated
    /// pair must come back bit-identical, so answers served from the
    /// cache agree with the searches that filled it.
    pub fn op(
        &mut self,
        op: &Op,
        answer: Option<&str>,
        repeats: Option<&mut HashMap<(usize, usize), u64>>,
    ) {
        let Some(response) = answer else {
            self.failed += 1;
            return;
        };
        match &op.expect {
            Expect::Geo { from, to } => match response.parse::<QueryResponse>() {
                Ok(QueryResponse::GeoDistance {
                    from: f,
                    to: t,
                    value,
                    ..
                }) => {
                    if (f.index(), t.index()) != (*from, *to) {
                        self.mismatches.push(format!(
                            "snapped {}->{} but the benchmark's index gives {from}->{to}",
                            f.index(),
                            t.index()
                        ));
                    } else if !value.is_finite() {
                        self.mismatches
                            .push(format!("non-finite distance {from}->{to}"));
                    }
                }
                _ => self
                    .mismatches
                    .push(format!("unexpected geo response {response:?}")),
            },
            Expect::Batch { pairs } => match response.parse::<QueryResponse>() {
                Ok(QueryResponse::Distances { values, .. }) if values.len() == pairs.len() => {
                    if values.iter().any(|v| !v.is_finite()) {
                        self.mismatches.push("non-finite value in a batch".into());
                    }
                    if let Some(seen) = repeats {
                        for (pair, v) in pairs.iter().zip(&values) {
                            let bits = *seen.entry(*pair).or_insert(v.to_bits());
                            if bits != v.to_bits() {
                                self.mismatches
                                    .push(format!("pair {pair:?} changed within one epoch"));
                            }
                        }
                    }
                }
                _ => self.mismatches.push(format!(
                    "batch of {} pairs got {:.80}",
                    pairs.len(),
                    response
                )),
            },
            Expect::Update { .. } => match response.parse::<AdminResponse>() {
                Ok(AdminResponse::Updated { rereleased: 1, .. }) => self.updates_ok += 1,
                _ => self
                    .mismatches
                    .push(format!("unexpected update response {response:?}")),
            },
        }
    }

    /// Checks a phase's outcomes against its op sequences.
    pub fn phase(
        &mut self,
        plans: &[Vec<Op>],
        outcomes: &[Vec<Outcome>],
        mut repeats: Option<&mut HashMap<(usize, usize), u64>>,
    ) {
        for (ops, outs) in plans.iter().zip(outcomes) {
            for (op, out) in ops.iter().zip(outs) {
                self.op(op, out.answer(), repeats.as_deref_mut());
            }
        }
    }

    /// After all writes: the epoch counts the publish plus every
    /// accepted update, and the ledger debited each of them once.
    pub fn ledger(&mut self, ns: &str, epoch: u64, stats: &NamespaceStats) {
        let expected = 1 + self.updates_ok as u64;
        if epoch != expected {
            self.mismatches
                .push(format!("epoch {epoch}, expected {expected}"));
        }
        let spent = expected as f64 * RELEASE_EPS;
        if (stats.spent_eps - spent).abs() > 1e-9 * spent {
            self.mismatches.push(format!(
                "{ns} spent eps {}, expected {spent}",
                stats.spent_eps
            ));
        }
    }
}

/// The namespace's epoch and stats over the admin verbs.
pub fn ledger(addr: &str, ns: &str) -> Result<(u64, NamespaceStats)> {
    let epoch = match load::round_trip(addr, &format!("epoch {ns}\n"))?.parse::<AdminResponse>() {
        Ok(AdminResponse::Epoch { epoch, .. }) => epoch,
        other => return Err(format!("unexpected epoch response {other:?}")),
    };
    let stats = match load::round_trip(addr, &format!("stats {ns}\n"))?.parse::<AdminResponse>() {
        Ok(AdminResponse::Stats(mut entries)) if entries.len() == 1 => entries.remove(0),
        other => return Err(format!("unexpected stats response {other:?}")),
    };
    Ok((epoch, stats))
}
