//! Unified persistence for engine releases: store any storable release
//! once, serve queries from it forever (post-processing carries the
//! original privacy guarantee unchanged).
//!
//! One tagged container format:
//!
//! ```text
//! privpath-release v3
//! kind <mechanism-name>
//! label <spend label>
//! eps <f64>
//! delta <f64>
//! accuracy none | accuracy <contract tag + fields>
//! <kind-specific body, reusing the substrate's topology/weights blocks>
//! ```
//!
//! The `accuracy` line is the release's [`AccuracyContract`] in its
//! [`to_line`](privpath_core::bounds::AccuracyContract::to_line) form, so
//! a stored release carries the theorem-named error bound it was created
//! under and the serve path can report it at any confidence. Any other
//! header — including the retired `privpath-release v2` and
//! `privpath-sp-release v1` formats — is a `bad header`
//! [`EngineError::Persist`]. The `shortcut-apsp` kind persists its level
//! structure — radius, centers, sorted shortcut triples. Kinds the
//! [`ReleaseKind`] table marks unstorable (MST, matching, hld-tree) have
//! no format here.

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
use privpath_graph::io::{read_topology, read_weights, write_topology, write_weights};
use privpath_graph::NodeId;
use std::io::{BufRead, Write};

const HEADER_V3: &str = "privpath-release v3";

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

/// Writes a release in the v3 container format.
///
/// # Errors
/// [`EngineError::UnsupportedQuery`] for kinds without persistence (MST,
/// matching, hld-tree); [`EngineError::Persist`] for I/O failures.
pub fn write_release(
    out: &mut impl Write,
    label: &str,
    eps: f64,
    delta: f64,
    accuracy: Option<&AccuracyContract>,
    release: &AnyRelease,
) -> Result<(), EngineError> {
    let kind = release.kind();
    let unsupported = || EngineError::UnsupportedQuery {
        kind: kind.as_str(),
        query: "persist",
    };
    if !kind.is_storable() {
        return Err(unsupported());
    }
    writeln!(out, "{HEADER_V3}").map_err(io_err)?;
    writeln!(out, "kind {}", kind.as_str()).map_err(io_err)?;
    writeln!(out, "label {label}").map_err(io_err)?;
    writeln!(out, "eps {eps:?}").map_err(io_err)?;
    writeln!(out, "delta {delta:?}").map_err(io_err)?;
    match accuracy {
        Some(contract) => writeln!(out, "accuracy {}", contract.to_line()).map_err(io_err)?,
        None => writeln!(out, "accuracy none").map_err(io_err)?,
    }
    match release {
        AnyRelease::ShortestPath(r) => {
            let p = r.params();
            writeln!(out, "gamma {:?}", p.gamma()).map_err(io_err)?;
            writeln!(out, "scale {:?}", p.scale().value()).map_err(io_err)?;
            writeln!(out, "shift_enabled {}", p.shift_enabled()).map_err(io_err)?;
            writeln!(out, "shift_amount {:?}", r.shift_amount()).map_err(io_err)?;
            write_topology(out, r.topology()).map_err(io_err)?;
            write_weights(out, r.released_weights()).map_err(io_err)?;
        }
        AnyRelease::Tree(r) => {
            let s = r.single_source();
            writeln!(out, "root {}", s.root().index()).map_err(io_err)?;
            writeln!(out, "noise_scale {:?}", s.noise_scale()).map_err(io_err)?;
            writeln!(out, "depth {}", s.decomposition_depth()).map_err(io_err)?;
            writeln!(out, "num_queries {}", s.num_queries()).map_err(io_err)?;
            writeln!(out, "estimates {}", s.estimates().len()).map_err(io_err)?;
            for e in s.estimates() {
                writeln!(out, "{e:?}").map_err(io_err)?;
            }
            // The topology is needed to rebuild the (public) LCA index.
            write_topology(out, r.topology()).map_err(io_err)?;
        }
        AnyRelease::BoundedWeight(r) => {
            writeln!(out, "k {}", r.k()).map_err(io_err)?;
            writeln!(out, "noise_scale {:?}", r.noise_scale()).map_err(io_err)?;
            let centers: Vec<String> = r.centers().iter().map(|c| c.index().to_string()).collect();
            writeln!(out, "centers {}", centers.len()).map_err(io_err)?;
            writeln!(out, "{}", centers.join(" ")).map_err(io_err)?;
            writeln!(out, "matrix {}", r.released_matrix().len()).map_err(io_err)?;
            for v in r.released_matrix() {
                writeln!(out, "{v:?}").map_err(io_err)?;
            }
            write_topology(out, r.topology()).map_err(io_err)?;
        }
        AnyRelease::SyntheticGraph(r) => {
            writeln!(out, "noise_scale {:?}", r.noise_scale()).map_err(io_err)?;
            write_topology(out, r.topology()).map_err(io_err)?;
            write_weights(out, r.released_weights()).map_err(io_err)?;
        }
        AnyRelease::AllPairsBaseline(r) => {
            writeln!(out, "n {}", r.num_nodes()).map_err(io_err)?;
            writeln!(out, "noise_scale {:?}", r.noise_scale()).map_err(io_err)?;
            writeln!(out, "matrix {}", r.matrix().len()).map_err(io_err)?;
            for v in r.matrix() {
                writeln!(out, "{v:?}").map_err(io_err)?;
            }
        }
        AnyRelease::ShortcutApsp(r) => {
            writeln!(out, "noise_scale {:?}", r.noise_scale()).map_err(io_err)?;
            writeln!(out, "max_weight {:?}", r.max_weight()).map_err(io_err)?;
            writeln!(out, "levels {}", r.levels().len()).map_err(io_err)?;
            for level in r.levels() {
                writeln!(out, "k {}", level.k()).map_err(io_err)?;
                let centers: Vec<String> = level
                    .centers()
                    .iter()
                    .map(|c| c.index().to_string())
                    .collect();
                writeln!(out, "centers {}", centers.len()).map_err(io_err)?;
                writeln!(out, "{}", centers.join(" ")).map_err(io_err)?;
                writeln!(out, "shortcuts {}", level.values().len()).map_err(io_err)?;
                for &(i, j, value) in level.values() {
                    writeln!(out, "{i} {j} {value:?}").map_err(io_err)?;
                }
            }
            write_topology(out, r.topology()).map_err(io_err)?;
        }
        AnyRelease::Mst(_) | AnyRelease::Matching(_) | AnyRelease::HldTree(_) => {
            return Err(unsupported())
        }
    }
    Ok(())
}

/// Reads a release written by [`write_release`].
///
/// # Errors
/// [`EngineError::Persist`] for malformed input, including any header
/// but `privpath-release v3`.
pub fn read_release(mut reader: impl BufRead) -> Result<StoredRelease, EngineError> {
    let mut line = String::new();
    let mut next_line = |reader: &mut dyn BufRead, expect: &str| -> Result<String, EngineError> {
        line.clear();
        let n = reader.read_line(&mut line).map_err(io_err)?;
        if n == 0 {
            return Err(persist_err(format!(
                "unexpected end of input, expected {expect}"
            )));
        }
        Ok(line.trim_end().to_string())
    };

    let header = next_line(&mut reader, "header")?;
    if header != HEADER_V3 {
        return Err(persist_err(format!("bad header {header:?}")));
    }
    let kind_line = next_line(&mut reader, "kind")?;
    let kind_str = kind_line
        .strip_prefix("kind ")
        .ok_or_else(|| persist_err("expected `kind <name>`"))?;
    let kind = ReleaseKind::parse(kind_str)
        .ok_or_else(|| persist_err(format!("unknown release kind {kind_str:?}")))?;
    let label = next_line(&mut reader, "label")?
        .strip_prefix("label ")
        .ok_or_else(|| persist_err("expected `label <text>`"))?
        .to_string();
    let eps = parse_field_f64(&next_line(&mut reader, "eps")?, "eps ")?;
    let delta = parse_field_f64(&next_line(&mut reader, "delta")?, "delta ")?;
    let accuracy_line = next_line(&mut reader, "accuracy")?;
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

    let release = match kind {
        ReleaseKind::ShortestPath => {
            let gamma = parse_field_f64(&next_line(&mut reader, "gamma")?, "gamma ")?;
            let scale = parse_field_f64(&next_line(&mut reader, "scale")?, "scale ")?;
            let shift_line = next_line(&mut reader, "shift_enabled")?;
            let shift_enabled: bool = shift_line
                .strip_prefix("shift_enabled ")
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| persist_err("expected `shift_enabled <bool>`"))?;
            let shift_amount =
                parse_field_f64(&next_line(&mut reader, "shift_amount")?, "shift_amount ")?;
            let topo = read_topology(&mut reader).map_err(io_err)?;
            let weights = read_weights(&mut reader).map_err(io_err)?;
            let eps_p = Epsilon::new(eps).map_err(io_err)?;
            let mut params = ShortestPathParams::new(eps_p, gamma).map_err(io_err)?;
            params = params.with_scale(NeighborScale::new(scale).map_err(io_err)?);
            if !shift_enabled {
                params = params.without_shift();
            }
            AnyRelease::ShortestPath(
                ShortestPathRelease::from_parts(topo, weights, params, shift_amount)
                    .map_err(io_err)?,
            )
        }
        ReleaseKind::Tree => {
            let root = parse_field_usize(&next_line(&mut reader, "root")?, "root ")?;
            let noise_scale =
                parse_field_f64(&next_line(&mut reader, "noise_scale")?, "noise_scale ")?;
            let depth = parse_field_usize(&next_line(&mut reader, "depth")?, "depth ")?;
            let num_queries =
                parse_field_usize(&next_line(&mut reader, "num_queries")?, "num_queries ")?;
            let count = parse_field_usize(&next_line(&mut reader, "estimates")?, "estimates ")?;
            let mut estimates = Vec::with_capacity(count);
            for _ in 0..count {
                let v: f64 = next_line(&mut reader, "estimate value")?
                    .trim()
                    .parse()
                    .map_err(|_| persist_err("invalid estimate value"))?;
                estimates.push(v);
            }
            let topo = read_topology(&mut reader).map_err(io_err)?;
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
            let k = parse_field_usize(&next_line(&mut reader, "k")?, "k ")?;
            let noise_scale =
                parse_field_f64(&next_line(&mut reader, "noise_scale")?, "noise_scale ")?;
            let z = parse_field_usize(&next_line(&mut reader, "centers")?, "centers ")?;
            let centers_line = next_line(&mut reader, "center ids")?;
            let centers: Vec<NodeId> = centers_line
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
            let count = parse_field_usize(&next_line(&mut reader, "matrix")?, "matrix ")?;
            let mut matrix = Vec::with_capacity(count);
            for _ in 0..count {
                let v: f64 = next_line(&mut reader, "matrix value")?
                    .trim()
                    .parse()
                    .map_err(|_| persist_err("invalid matrix value"))?;
                matrix.push(v);
            }
            let topo = read_topology(&mut reader).map_err(io_err)?;
            AnyRelease::BoundedWeight(
                BoundedWeightRelease::from_parts(&topo, centers, k, matrix, noise_scale)
                    .map_err(io_err)?,
            )
        }
        ReleaseKind::SyntheticGraph => {
            let noise_scale =
                parse_field_f64(&next_line(&mut reader, "noise_scale")?, "noise_scale ")?;
            let topo = read_topology(&mut reader).map_err(io_err)?;
            let weights = read_weights(&mut reader).map_err(io_err)?;
            AnyRelease::SyntheticGraph(
                SyntheticGraphRelease::from_parts(topo, weights, noise_scale).map_err(io_err)?,
            )
        }
        ReleaseKind::AllPairsBaseline => {
            let n = parse_field_usize(&next_line(&mut reader, "n")?, "n ")?;
            let noise_scale =
                parse_field_f64(&next_line(&mut reader, "noise_scale")?, "noise_scale ")?;
            let count = parse_field_usize(&next_line(&mut reader, "matrix")?, "matrix ")?;
            let mut matrix = Vec::with_capacity(count);
            for _ in 0..count {
                let v: f64 = next_line(&mut reader, "matrix value")?
                    .trim()
                    .parse()
                    .map_err(|_| persist_err("invalid matrix value"))?;
                matrix.push(v);
            }
            AnyRelease::AllPairsBaseline(
                AllPairsDistanceRelease::from_parts(n, matrix, noise_scale).map_err(io_err)?,
            )
        }
        ReleaseKind::ShortcutApsp => {
            let noise_scale =
                parse_field_f64(&next_line(&mut reader, "noise_scale")?, "noise_scale ")?;
            let max_weight =
                parse_field_f64(&next_line(&mut reader, "max_weight")?, "max_weight ")?;
            let num_levels = parse_field_usize(&next_line(&mut reader, "levels")?, "levels ")?;
            let mut levels = Vec::with_capacity(num_levels);
            for _ in 0..num_levels {
                let k = parse_field_usize(&next_line(&mut reader, "k")?, "k ")?;
                let z = parse_field_usize(&next_line(&mut reader, "centers")?, "centers ")?;
                let centers_line = next_line(&mut reader, "center ids")?;
                let centers: Vec<NodeId> = centers_line
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
                let count = parse_field_usize(&next_line(&mut reader, "shortcuts")?, "shortcuts ")?;
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    let line = next_line(&mut reader, "shortcut triple")?;
                    let mut t = line.split_whitespace();
                    let triple = (|| {
                        let i: u32 = t.next()?.parse().ok()?;
                        let j: u32 = t.next()?.parse().ok()?;
                        let value: f64 = t.next()?.parse().ok()?;
                        t.next().is_none().then_some((i, j, value))
                    })()
                    .ok_or_else(|| persist_err(format!("invalid shortcut triple {line:?}")))?;
                    values.push(triple);
                }
                levels.push((k, centers, values));
            }
            let topo = read_topology(&mut reader).map_err(io_err)?;
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
    /// Persists a registered release in the v3 container format,
    /// including its accuracy contract.
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
        )
    }

    /// Loads a stored release into the registry, debiting its recorded
    /// cost (see [`ReleaseEngine::adopt`]).
    ///
    /// # Errors
    /// As [`read_release`] and [`ReleaseEngine::adopt`].
    pub fn restore(&mut self, input: impl BufRead) -> Result<ReleaseId, EngineError> {
        let stored = read_release(input)?;
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
        write_release(&mut buf, "shortest-path#0", eps, 0.0, None, &any).unwrap();
        let stored = read_release(buf.as_slice()).unwrap();
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
        // Garbage, and the retired v1 (shortest-path only) and v2 (no
        // accuracy line) headers: all the same typed error.
        for header in ["nope", "privpath-sp-release v1", "privpath-release v2"] {
            let input = format!("{header}\nkind shortest-path\n");
            match read_release(input.as_bytes()) {
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
        let input = "privpath-release v3\n\
                     kind shortest-path\n\
                     label shortest-path#0\n\
                     eps 1.0\n\
                     delta 0.0\n\
                     accuracy none\n\
                     gamma 0.1\n\
                     scale 1.0\n\
                     shift_enabled true\n\
                     shift_amount 0.5\n\
                     privpath-topology v1\n\
                     nodes 2\n\
                     directed false\n\
                     edges 1\n\
                     0 1\n\
                     privpath-weights v1\n\
                     len 2\n\
                     1.0\n\
                     2.0\n";
        assert!(matches!(
            read_release(input.as_bytes()),
            Err(EngineError::Persist(_))
        ));
    }
}
