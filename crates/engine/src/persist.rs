//! Unified persistence for engine releases: store any storable release
//! once, serve queries from it forever (post-processing carries the
//! original privacy guarantee unchanged).
//!
//! One tagged container format: text header lines, then one binary body
//! (see [`privpath_graph::io`]) holding every vector — released weights,
//! tree estimates, bounded-weight and all-pairs matrices, shortcut
//! triples — as little-endian bytes under a 64-bit checksum.
//!
//! ```text
//! privpath-release v4
//! kind <mechanism-name>
//! label <spend label>
//! eps <f64>
//! delta <f64>
//! accuracy none | accuracy <contract tag + fields>
//! <kind-specific scalar and count lines>
//! topology inline <bytes>  |  topology shared <checksum>
//! body <bytes> <checksum>
//! <body bytes>
//! ```
//!
//! The `accuracy` line is the release's [`AccuracyContract`] in its
//! [`to_line`](privpath_core::bounds::AccuracyContract::to_line) form, so
//! a stored release carries the theorem-named error bound it was created
//! under and the serve path can report it at any confidence.
//!
//! The topology is public and epoch-invariant (Sealfon's model), so a
//! store writes it once per namespace and its release files name it:
//! `topology shared` carries the
//! [`checksum64`](privpath_graph::io::checksum64) of the namespace's
//! `privpath-topology v1` file, and reading such a file needs that
//! [`SharedTopology`]. A standalone file (`privpath release`, `serve
//! --store-dir`) is `topology inline`: the body starts with the topology
//! in its text form, `<bytes>` long, so one checksum covers it too. The
//! all-pairs baseline has no topology line.
//!
//! Any other header — including the retired `privpath-release v3`, `v2`
//! and `privpath-sp-release v1` formats — is a `bad header`
//! [`EngineError::Persist`]. A truncated or altered body, bytes after
//! it, and a shared checksum that is not the supplied topology's are
//! `Persist` errors too. The `shortcut-apsp` kind persists its level structure — radius, centers,
//! sorted shortcut triples (`u32`, `u32`, `f64`, 16 bytes each). Kinds
//! the [`ReleaseKind`] table marks unstorable (MST, matching, hld-tree)
//! have no format here.

use crate::engine::{ReleaseEngine, ReleaseId};
use crate::error::EngineError;
use crate::release::{AnyRelease, ReleaseKind};
use privpath_core::baselines::{AllPairsDistanceRelease, SyntheticGraphRelease};
use privpath_core::bounded::BoundedWeightRelease;
use privpath_core::bounds::AccuracyContract;
use privpath_core::model::NeighborScale;
use privpath_core::shortcut::ShortcutApspRelease;
use privpath_core::shortest_path::{ShortestPathParams, ShortestPathRelease};
use privpath_core::tree_distance::{TreeAllPairsRelease, TreeSingleSourceRelease};
use privpath_dp::Epsilon;
use privpath_graph::io::{
    put_f64s, read_body, read_topology, take_bytes, take_f64s, write_body, write_topology,
};
use privpath_graph::{EdgeWeights, NodeId, Topology};
use std::borrow::Cow;
use std::io::{BufRead, Write};

const HEADER: &str = "privpath-release v4";

/// Bytes per persisted shortcut triple: `u32` endpoints and an `f64`.
const TRIPLE_BYTES: usize = 16;

/// A namespace's write-once public topology as its release files name
/// it: the topology plus the
/// [`checksum64`](privpath_graph::io::checksum64) of the bytes of its
/// `privpath-topology v1` file.
#[derive(Clone, Copy, Debug)]
pub struct SharedTopology<'a> {
    /// The topology every release in the namespace runs on.
    pub topology: &'a Topology,
    /// The checksum of the topology file, computed once when the
    /// namespace is created or opened.
    pub checksum: u64,
}

/// A release as read from storage: the object plus its accounting
/// metadata, ready for [`ReleaseEngine::adopt`] or direct querying.
#[derive(Clone, Debug)]
pub struct StoredRelease {
    /// The spend label the release was registered under.
    pub label: String,
    /// The epsilon the release cost.
    pub eps: f64,
    /// The delta the release cost.
    pub delta: f64,
    /// The accuracy contract the release was created under (`None` for
    /// kinds without a utility theorem).
    pub accuracy: Option<AccuracyContract>,
    /// The release object.
    pub release: AnyRelease,
}

fn persist_err(msg: impl Into<String>) -> EngineError {
    EngineError::Persist(msg.into())
}

fn io_err(e: impl std::fmt::Display) -> EngineError {
    persist_err(e.to_string())
}

fn ids_line(ids: &[NodeId]) -> String {
    let ids: Vec<String> = ids.iter().map(|c| c.index().to_string()).collect();
    ids.join(" ")
}

/// Writes a release in the v4 container format. With `shared`, the file
/// names that topology by checksum (a store release file); without, the
/// body embeds the release's own topology (a standalone file).
///
/// # Errors
/// [`EngineError::UnsupportedQuery`] for kinds without persistence (MST,
/// matching, hld-tree); [`EngineError::Persist`] for I/O failures and
/// for a `shared` topology whose size is not the release's.
pub fn write_release(
    out: &mut impl Write,
    label: &str,
    eps: f64,
    delta: f64,
    accuracy: Option<&AccuracyContract>,
    release: &AnyRelease,
    shared: Option<SharedTopology<'_>>,
) -> Result<(), EngineError> {
    let kind = release.kind();
    let unsupported = || EngineError::UnsupportedQuery {
        kind: kind.as_str(),
        query: "persist",
    };
    if !kind.is_storable() {
        return Err(unsupported());
    }
    writeln!(out, "{HEADER}").map_err(io_err)?;
    writeln!(out, "kind {}", kind.as_str()).map_err(io_err)?;
    writeln!(out, "label {label}").map_err(io_err)?;
    writeln!(out, "eps {eps:?}").map_err(io_err)?;
    writeln!(out, "delta {delta:?}").map_err(io_err)?;
    match accuracy {
        Some(contract) => writeln!(out, "accuracy {}", contract.to_line()).map_err(io_err)?,
        None => writeln!(out, "accuracy none").map_err(io_err)?,
    }
    let mut vectors = Vec::new();
    let topology = match release {
        AnyRelease::ShortestPath(r) => {
            let p = r.params();
            writeln!(out, "gamma {:?}", p.gamma()).map_err(io_err)?;
            writeln!(out, "scale {:?}", p.scale().value()).map_err(io_err)?;
            writeln!(out, "shift_enabled {}", p.shift_enabled()).map_err(io_err)?;
            writeln!(out, "shift_amount {:?}", r.shift_amount()).map_err(io_err)?;
            writeln!(out, "weights {}", r.released_weights().len()).map_err(io_err)?;
            put_f64s(&mut vectors, r.released_weights().as_slice());
            Some(r.topology())
        }
        AnyRelease::Tree(r) => {
            let s = r.single_source();
            writeln!(out, "root {}", s.root().index()).map_err(io_err)?;
            writeln!(out, "noise_scale {:?}", s.noise_scale()).map_err(io_err)?;
            writeln!(out, "depth {}", s.decomposition_depth()).map_err(io_err)?;
            writeln!(out, "num_queries {}", s.num_queries()).map_err(io_err)?;
            writeln!(out, "estimates {}", s.estimates().len()).map_err(io_err)?;
            put_f64s(&mut vectors, s.estimates());
            // The topology is needed to rebuild the (public) LCA index.
            Some(r.topology())
        }
        AnyRelease::BoundedWeight(r) => {
            writeln!(out, "k {}", r.k()).map_err(io_err)?;
            writeln!(out, "noise_scale {:?}", r.noise_scale()).map_err(io_err)?;
            writeln!(out, "centers {}", r.centers().len()).map_err(io_err)?;
            writeln!(out, "{}", ids_line(r.centers())).map_err(io_err)?;
            writeln!(out, "matrix {}", r.released_matrix().len()).map_err(io_err)?;
            put_f64s(&mut vectors, r.released_matrix());
            Some(r.topology())
        }
        AnyRelease::SyntheticGraph(r) => {
            writeln!(out, "noise_scale {:?}", r.noise_scale()).map_err(io_err)?;
            writeln!(out, "weights {}", r.released_weights().len()).map_err(io_err)?;
            put_f64s(&mut vectors, r.released_weights().as_slice());
            Some(r.topology())
        }
        AnyRelease::AllPairsBaseline(r) => {
            writeln!(out, "n {}", r.num_nodes()).map_err(io_err)?;
            writeln!(out, "noise_scale {:?}", r.noise_scale()).map_err(io_err)?;
            writeln!(out, "matrix {}", r.matrix().len()).map_err(io_err)?;
            put_f64s(&mut vectors, r.matrix());
            None
        }
        AnyRelease::ShortcutApsp(r) => {
            writeln!(out, "noise_scale {:?}", r.noise_scale()).map_err(io_err)?;
            writeln!(out, "max_weight {:?}", r.max_weight()).map_err(io_err)?;
            writeln!(out, "levels {}", r.levels().len()).map_err(io_err)?;
            for level in r.levels() {
                writeln!(out, "k {}", level.k()).map_err(io_err)?;
                writeln!(out, "centers {}", level.centers().len()).map_err(io_err)?;
                writeln!(out, "{}", ids_line(level.centers())).map_err(io_err)?;
                writeln!(out, "shortcuts {}", level.values().len()).map_err(io_err)?;
                for &(i, j, value) in level.values() {
                    vectors.extend_from_slice(&i.to_le_bytes());
                    vectors.extend_from_slice(&j.to_le_bytes());
                    vectors.extend_from_slice(&value.to_le_bytes());
                }
            }
            Some(r.topology())
        }
        AnyRelease::Mst(_) | AnyRelease::Matching(_) | AnyRelease::HldTree(_) => {
            return Err(unsupported())
        }
    };
    let body = match (topology, shared) {
        (None, _) => vectors,
        (Some(topo), Some(shared)) => {
            if (shared.topology.num_nodes(), shared.topology.num_edges())
                != (topo.num_nodes(), topo.num_edges())
            {
                return Err(persist_err(
                    "the shared topology is not the one the release runs on",
                ));
            }
            writeln!(out, "topology shared {:016x}", shared.checksum).map_err(io_err)?;
            vectors
        }
        (Some(topo), None) => {
            let mut body = Vec::new();
            write_topology(&mut body, topo).map_err(io_err)?;
            writeln!(out, "topology inline {}", body.len()).map_err(io_err)?;
            body.extend_from_slice(&vectors);
            body
        }
    };
    write_body(out, &body).map_err(io_err)
}

fn next_line(reader: &mut dyn BufRead, expect: &str) -> Result<String, EngineError> {
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(io_err)?;
    if n == 0 {
        return Err(persist_err(format!(
            "unexpected end of input, expected {expect}"
        )));
    }
    Ok(line.trim_end().to_string())
}

/// Reads a `topology` line, then the body: the inline topology (if any)
/// followed by `vector_bytes` more bytes (`None`: the header's counts
/// overflowed). Returns the topology and the vector bytes.
fn read_topology_and_body<'t>(
    reader: &mut dyn BufRead,
    vector_bytes: Option<usize>,
    shared: Option<SharedTopology<'t>>,
) -> Result<(Cow<'t, Topology>, Vec<u8>), EngineError> {
    let line = next_line(reader, "topology")?;
    let rest = line
        .strip_prefix("topology ")
        .ok_or_else(|| persist_err(format!("expected `topology ...`, got {line:?}")))?;
    if let Some(len) = rest.strip_prefix("inline ") {
        let len: usize = len
            .parse()
            .map_err(|_| persist_err(format!("invalid inline topology length {len:?}")))?;
        let body = read_body(
            &mut &mut *reader,
            vector_bytes.and_then(|v| v.checked_add(len)),
        )
        .map_err(io_err)?;
        let (topo, vectors) = body.split_at(len);
        let topo = read_topology(topo).map_err(io_err)?;
        return Ok((Cow::Owned(topo), vectors.to_vec()));
    }
    let sum = rest
        .strip_prefix("shared ")
        .filter(|sum| sum.len() == 16)
        .and_then(|sum| u64::from_str_radix(sum, 16).ok())
        .ok_or_else(|| persist_err(format!("invalid topology line {line:?}")))?;
    let topo = match shared {
        Some(s) if s.checksum == sum => s.topology,
        Some(s) => {
            return Err(persist_err(format!(
                "release names topology {sum:016x} but the namespace's is {:016x}",
                s.checksum
            )))
        }
        None => {
            return Err(persist_err(format!(
                "release names shared topology {sum:016x}, which was not supplied"
            )))
        }
    };
    let body = read_body(&mut &mut *reader, vector_bytes).map_err(io_err)?;
    Ok((Cow::Borrowed(topo), body))
}

fn read_centers(reader: &mut dyn BufRead) -> Result<Vec<NodeId>, EngineError> {
    let z = parse_field_usize(&next_line(reader, "centers")?, "centers ")?;
    let centers: Vec<NodeId> = next_line(reader, "center ids")?
        .split_whitespace()
        .map(|t| t.parse::<usize>().map(NodeId::new))
        .collect::<Result<_, _>>()
        .map_err(|_| persist_err("invalid center id"))?;
    if centers.len() != z {
        return Err(persist_err(format!(
            "expected {z} centers, found {}",
            centers.len()
        )));
    }
    Ok(centers)
}

/// Reads a release written by [`write_release`]. A `topology shared`
/// file needs the `shared` topology it names; an inline file reads
/// standalone (and ignores `shared`).
///
/// # Errors
/// [`EngineError::Persist`] for malformed input, including any header
/// but `privpath-release v4`, a body that is truncated, fails its
/// checksum or is followed by more bytes, and a shared topology that is
/// missing or has another checksum.
pub fn read_release(
    mut input: impl BufRead,
    shared: Option<SharedTopology<'_>>,
) -> Result<StoredRelease, EngineError> {
    let reader: &mut dyn BufRead = &mut input;
    let header = next_line(reader, "header")?;
    if header != HEADER {
        return Err(persist_err(format!("bad header {header:?}")));
    }
    let kind_line = next_line(reader, "kind")?;
    let kind_str = kind_line
        .strip_prefix("kind ")
        .ok_or_else(|| persist_err("expected `kind <name>`"))?;
    let kind = ReleaseKind::parse(kind_str)
        .ok_or_else(|| persist_err(format!("unknown release kind {kind_str:?}")))?;
    let label = next_line(reader, "label")?
        .strip_prefix("label ")
        .ok_or_else(|| persist_err("expected `label <text>`"))?
        .to_string();
    let eps = parse_field_f64(&next_line(reader, "eps")?, "eps ")?;
    let delta = parse_field_f64(&next_line(reader, "delta")?, "delta ")?;
    let accuracy_line = next_line(reader, "accuracy")?;
    let spec = accuracy_line
        .strip_prefix("accuracy ")
        .ok_or_else(|| persist_err("expected `accuracy <contract>` or `accuracy none`"))?;
    let accuracy = if spec.trim() == "none" {
        None
    } else {
        Some(
            AccuracyContract::parse_line(spec)
                .ok_or_else(|| persist_err(format!("invalid accuracy contract {spec:?}")))?,
        )
    };
    let f64_bytes = |count: usize| count.checked_mul(8);

    let release = match kind {
        ReleaseKind::ShortestPath => {
            let gamma = parse_field_f64(&next_line(reader, "gamma")?, "gamma ")?;
            let scale = parse_field_f64(&next_line(reader, "scale")?, "scale ")?;
            let shift_line = next_line(reader, "shift_enabled")?;
            let shift_enabled: bool = shift_line
                .strip_prefix("shift_enabled ")
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| persist_err("expected `shift_enabled <bool>`"))?;
            let shift_amount =
                parse_field_f64(&next_line(reader, "shift_amount")?, "shift_amount ")?;
            let len = parse_field_usize(&next_line(reader, "weights")?, "weights ")?;
            let (topo, body) = read_topology_and_body(reader, f64_bytes(len), shared)?;
            let weights = EdgeWeights::new(take_f64s(&mut body.as_slice(), len).map_err(io_err)?)
                .map_err(io_err)?;
            let eps_p = Epsilon::new(eps).map_err(io_err)?;
            let mut params = ShortestPathParams::new(eps_p, gamma).map_err(io_err)?;
            params = params.with_scale(NeighborScale::new(scale).map_err(io_err)?);
            if !shift_enabled {
                params = params.without_shift();
            }
            AnyRelease::ShortestPath(
                ShortestPathRelease::from_parts(topo.into_owned(), weights, params, shift_amount)
                    .map_err(io_err)?,
            )
        }
        ReleaseKind::Tree => {
            let root = parse_field_usize(&next_line(reader, "root")?, "root ")?;
            let noise_scale = parse_field_f64(&next_line(reader, "noise_scale")?, "noise_scale ")?;
            let depth = parse_field_usize(&next_line(reader, "depth")?, "depth ")?;
            let num_queries =
                parse_field_usize(&next_line(reader, "num_queries")?, "num_queries ")?;
            let count = parse_field_usize(&next_line(reader, "estimates")?, "estimates ")?;
            let (topo, body) = read_topology_and_body(reader, f64_bytes(count), shared)?;
            let estimates = take_f64s(&mut body.as_slice(), count).map_err(io_err)?;
            let single = TreeSingleSourceRelease::from_parts(
                NodeId::new(root),
                estimates,
                noise_scale,
                depth,
                num_queries,
            )
            .map_err(io_err)?;
            AnyRelease::Tree(TreeAllPairsRelease::from_parts(&topo, single).map_err(io_err)?)
        }
        ReleaseKind::BoundedWeight => {
            let k = parse_field_usize(&next_line(reader, "k")?, "k ")?;
            let noise_scale = parse_field_f64(&next_line(reader, "noise_scale")?, "noise_scale ")?;
            let centers = read_centers(reader)?;
            let count = parse_field_usize(&next_line(reader, "matrix")?, "matrix ")?;
            let (topo, body) = read_topology_and_body(reader, f64_bytes(count), shared)?;
            let matrix = take_f64s(&mut body.as_slice(), count).map_err(io_err)?;
            AnyRelease::BoundedWeight(
                BoundedWeightRelease::from_parts(&topo, centers, k, matrix, noise_scale)
                    .map_err(io_err)?,
            )
        }
        ReleaseKind::SyntheticGraph => {
            let noise_scale = parse_field_f64(&next_line(reader, "noise_scale")?, "noise_scale ")?;
            let len = parse_field_usize(&next_line(reader, "weights")?, "weights ")?;
            let (topo, body) = read_topology_and_body(reader, f64_bytes(len), shared)?;
            let weights = EdgeWeights::new(take_f64s(&mut body.as_slice(), len).map_err(io_err)?)
                .map_err(io_err)?;
            AnyRelease::SyntheticGraph(
                SyntheticGraphRelease::from_parts(topo.into_owned(), weights, noise_scale)
                    .map_err(io_err)?,
            )
        }
        ReleaseKind::AllPairsBaseline => {
            let n = parse_field_usize(&next_line(reader, "n")?, "n ")?;
            let noise_scale = parse_field_f64(&next_line(reader, "noise_scale")?, "noise_scale ")?;
            let count = parse_field_usize(&next_line(reader, "matrix")?, "matrix ")?;
            let body = read_body(&mut &mut *reader, f64_bytes(count)).map_err(io_err)?;
            let matrix = take_f64s(&mut body.as_slice(), count).map_err(io_err)?;
            AnyRelease::AllPairsBaseline(
                AllPairsDistanceRelease::from_parts(n, matrix, noise_scale).map_err(io_err)?,
            )
        }
        ReleaseKind::ShortcutApsp => {
            let noise_scale = parse_field_f64(&next_line(reader, "noise_scale")?, "noise_scale ")?;
            let max_weight = parse_field_f64(&next_line(reader, "max_weight")?, "max_weight ")?;
            let num_levels = parse_field_usize(&next_line(reader, "levels")?, "levels ")?;
            let mut shapes = Vec::new();
            let mut total = Some(0usize);
            for _ in 0..num_levels {
                let k = parse_field_usize(&next_line(reader, "k")?, "k ")?;
                let centers = read_centers(reader)?;
                let count = parse_field_usize(&next_line(reader, "shortcuts")?, "shortcuts ")?;
                total = total.and_then(|t| t.checked_add(count.checked_mul(TRIPLE_BYTES)?));
                shapes.push((k, centers, count));
            }
            let (topo, body) = read_topology_and_body(reader, total, shared)?;
            let mut rest = body.as_slice();
            let mut levels = Vec::with_capacity(shapes.len());
            for (k, centers, count) in shapes {
                let bytes =
                    take_bytes(&mut rest, count.checked_mul(TRIPLE_BYTES)).map_err(io_err)?;
                let values = bytes
                    .chunks_exact(TRIPLE_BYTES)
                    .map(|t| {
                        let mut i = [0u8; 4];
                        let mut j = [0u8; 4];
                        let mut v = [0u8; 8];
                        i.copy_from_slice(&t[..4]);
                        j.copy_from_slice(&t[4..8]);
                        v.copy_from_slice(&t[8..]);
                        (
                            u32::from_le_bytes(i),
                            u32::from_le_bytes(j),
                            f64::from_le_bytes(v),
                        )
                    })
                    .collect();
                levels.push((k, centers, values));
            }
            AnyRelease::ShortcutApsp(
                ShortcutApspRelease::from_parts(&topo, levels, noise_scale, max_weight)
                    .map_err(io_err)?,
            )
        }
        ReleaseKind::Mst | ReleaseKind::Matching | ReleaseKind::HldTree => {
            return Err(persist_err(format!(
                "release kind `{kind}` has no persistence format"
            )));
        }
    };

    Ok(StoredRelease {
        label,
        eps,
        delta,
        accuracy,
        release,
    })
}

fn parse_field_f64(line: &str, prefix: &str) -> Result<f64, EngineError> {
    line.strip_prefix(prefix)
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| persist_err(format!("expected `{prefix}<float>`, got {line:?}")))
}

fn parse_field_usize(line: &str, prefix: &str) -> Result<usize, EngineError> {
    line.strip_prefix(prefix)
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| persist_err(format!("expected `{prefix}<int>`, got {line:?}")))
}

impl ReleaseEngine {
    /// Persists a registered release as a standalone v4 file (topology
    /// inline), including its accuracy contract.
    ///
    /// # Errors
    /// [`EngineError::UnknownRelease`] for an unregistered id; otherwise
    /// as [`write_release`].
    pub fn save(&self, id: ReleaseId, out: &mut impl Write) -> Result<(), EngineError> {
        let record = self
            .get(id)
            .ok_or(EngineError::UnknownRelease(id.value()))?;
        write_release(
            out,
            record.label(),
            record.eps(),
            record.delta(),
            record.accuracy(),
            record.release(),
            None,
        )
    }

    /// Loads a standalone stored release into the registry, debiting its
    /// recorded cost (see [`ReleaseEngine::adopt`]).
    ///
    /// # Errors
    /// As [`read_release`] and [`ReleaseEngine::adopt`].
    pub fn restore(&mut self, input: impl BufRead) -> Result<ReleaseId, EngineError> {
        let stored = read_release(input, None)?;
        self.adopt(
            stored.label,
            stored.eps,
            stored.delta,
            stored.accuracy,
            stored.release,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_core::shortest_path::private_shortest_paths;
    use privpath_graph::generators::{connected_gnm, uniform_weights};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn round_trip(release: ShortestPathRelease) -> (ShortestPathRelease, ShortestPathRelease) {
        let eps = release.params().eps().value();
        let any = AnyRelease::ShortestPath(release);
        let mut buf = Vec::new();
        write_release(&mut buf, "shortest-path#0", eps, 0.0, None, &any, None).unwrap();
        let stored = read_release(buf.as_slice(), None).unwrap();
        match (any, stored.release) {
            (AnyRelease::ShortestPath(a), AnyRelease::ShortestPath(b)) => (a, b),
            (_, other) => panic!("read back a {} release", other.kind()),
        }
    }

    #[test]
    fn release_roundtrip_answers_identically() {
        let mut rng = StdRng::seed_from_u64(300);
        let topo = connected_gnm(30, 70, &mut rng);
        let w = uniform_weights(70, 0.0, 10.0, &mut rng);
        let params = ShortestPathParams::new(Epsilon::new(0.7).unwrap(), 0.05).unwrap();
        let (release, restored) =
            round_trip(private_shortest_paths(&topo, &w, &params, &mut rng).unwrap());

        assert_eq!(
            restored.released_weights().as_slice(),
            release.released_weights().as_slice()
        );
        assert_eq!(
            restored.shift_amount().to_bits(),
            release.shift_amount().to_bits()
        );
        assert_eq!(restored.params().eps().value(), 0.7);
        for (s, t) in [(0usize, 29usize), (5, 17)] {
            let (s, t) = (NodeId::new(s), NodeId::new(t));
            assert_eq!(
                restored.path(s, t).unwrap().edges(),
                release.path(s, t).unwrap().edges()
            );
        }
    }

    #[test]
    fn no_shift_release_roundtrip() {
        let mut rng = StdRng::seed_from_u64(301);
        let topo = connected_gnm(10, 20, &mut rng);
        let w = uniform_weights(20, 0.0, 3.0, &mut rng);
        let params = ShortestPathParams::new(Epsilon::new(1.0).unwrap(), 0.1)
            .unwrap()
            .without_shift();
        let (_, restored) =
            round_trip(private_shortest_paths(&topo, &w, &params, &mut rng).unwrap());
        assert!(!restored.params().shift_enabled());
        assert_eq!(restored.shift_amount(), 0.0);
    }

    #[test]
    fn corrupt_header_rejected() {
        // Garbage, and the retired v1 (shortest-path only), v2 (no
        // accuracy line) and v3 (text vectors) headers: all the same
        // typed error.
        for header in [
            "nope",
            "privpath-sp-release v1",
            "privpath-release v2",
            "privpath-release v3",
        ] {
            let input = format!("{header}\nkind shortest-path\n");
            match read_release(input.as_bytes(), None) {
                Err(EngineError::Persist(msg)) => {
                    assert!(msg.starts_with("bad header"), "{header}: {msg}")
                }
                other => panic!("{header}: expected a bad-header error, got {other:?}"),
            }
        }
    }

    #[test]
    fn mismatched_weights_rejected() {
        // Handcraft a file whose weights length disagrees with the topology.
        let topo = "privpath-topology v1\nnodes 2\ndirected false\nedges 1\n0 1\n";
        let mut body = topo.as_bytes().to_vec();
        put_f64s(&mut body, &[1.0, 2.0]);
        let mut input = format!(
            "privpath-release v4\nkind shortest-path\nlabel shortest-path#0\neps 1.0\n\
             delta 0.0\naccuracy none\ngamma 0.1\nscale 1.0\nshift_enabled true\n\
             shift_amount 0.5\nweights 2\ntopology inline {}\n",
            topo.len()
        )
        .into_bytes();
        write_body(&mut input, &body).unwrap();
        assert!(matches!(
            read_release(input.as_slice(), None),
            Err(EngineError::Persist(_))
        ));
    }

    /// A small shortest-path release and its topology.
    fn sample() -> (Topology, AnyRelease) {
        let mut rng = StdRng::seed_from_u64(302);
        let topo = connected_gnm(12, 30, &mut rng);
        let w = uniform_weights(30, 0.0, 5.0, &mut rng);
        let params = ShortestPathParams::new(Epsilon::new(1.0).unwrap(), 0.1).unwrap();
        let release = private_shortest_paths(&topo, &w, &params, &mut rng).unwrap();
        (topo, AnyRelease::ShortestPath(release))
    }

    fn write(release: &AnyRelease, shared: Option<SharedTopology<'_>>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_release(&mut buf, "sp#0", 1.0, 0.0, None, release, shared).unwrap();
        buf
    }

    fn persist_error(input: &[u8], shared: Option<SharedTopology<'_>>) -> String {
        match read_release(input, shared) {
            Err(EngineError::Persist(msg)) => msg,
            other => panic!("expected a persist error, got {other:?}"),
        }
    }

    #[test]
    fn shared_topology_is_named_by_checksum() {
        let (topo, release) = sample();
        let shared = SharedTopology {
            topology: &topo,
            checksum: 0x0123_4567_89ab_cdef,
        };
        let buf = write(&release, Some(shared));
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("\ntopology shared 0123456789abcdef\n"));
        assert!(!text.contains("privpath-topology"), "topology re-embedded");
        // The body is exactly the released weights.
        assert!(text.contains(&format!("\nbody {} ", 30 * 8)));
        let stored = read_release(buf.as_slice(), Some(shared)).unwrap();
        let (AnyRelease::ShortestPath(a), AnyRelease::ShortestPath(b)) =
            (&release, &stored.release)
        else {
            panic!("kind changed");
        };
        assert_eq!(a.released_weights(), b.released_weights());
        // Without the topology, or with another one, the file is refused.
        assert!(persist_error(&buf, None).contains("not supplied"));
        let other = SharedTopology {
            checksum: 1,
            ..shared
        };
        assert!(persist_error(&buf, Some(other)).contains("names topology"));
    }

    #[test]
    fn truncated_or_altered_body_rejected() {
        let (_, release) = sample();
        let buf = write(&release, None);
        assert!(read_release(buf.as_slice(), None).is_ok());
        // Every proper prefix that reaches into the body is refused.
        let body_start = buf.len() - 30 * 8;
        for cut in [body_start - 1, body_start, body_start + 7, buf.len() - 1] {
            persist_error(&buf[..cut], None);
        }
        // One flipped byte inside the weight vector.
        let mut flipped = buf.clone();
        flipped[body_start + 8 * 17 + 3] ^= 0x10;
        assert!(persist_error(&flipped, None).contains("checksum"));
        // Bytes after the body.
        let mut longer = buf.clone();
        longer.push(b'\n');
        assert!(persist_error(&longer, None).contains("trailing"));
    }
}
