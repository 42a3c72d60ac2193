//! The serve-side query surface: the object-safe [`DistanceRelease`]
//! trait and the [`AnyRelease`] sum type the engine's registry stores.
//!
//! Everything here is **post-processing** of an already-made DP release:
//! queries are free of further privacy cost, which is exactly why the
//! release-once/query-many architecture works.
//!
//! Unreachable targets are uniform across kinds: `distance` /
//! `distance_batch` answer `+inf` for a pair with no connecting path
//! (graph-replaying releases on disconnected topologies), never an error
//! and never a silent `0`. Errors are reserved for invalid queries
//! (out-of-range ids, unsupported kinds); `path` still reports
//! `Disconnected` because there is no route to return.

use crate::error::EngineError;
use crate::{mechanisms, Mechanism};
use privpath_core::baselines::{AllPairsDistanceRelease, SyntheticGraphRelease};
use privpath_core::bounded::{BoundedWeightParams, BoundedWeightRelease};
use privpath_core::bounds::DEFAULT_GAMMA;
use privpath_core::matching::{MatchingParams, MatchingRelease};
use privpath_core::mst::{MstParams, MstRelease};
use privpath_core::shortcut::{ShortcutApspParams, ShortcutApspRelease};
use privpath_core::shortest_path::{ShortestPathParams, ShortestPathRelease};
use privpath_core::tree_distance::{TreeAllPairsRelease, TreeDistanceParams};
use privpath_core::tree_hld::HldTreeRelease;
use privpath_core::CoreError;
use privpath_dp::{Delta, Epsilon};
use privpath_graph::{GraphError, NodeId, Path};
use std::collections::HashMap;

/// An object-safe distance oracle over a stored DP release.
///
/// Implementations answer every query by post-processing the release —
/// no additional privacy is ever spent. `distance_batch` exists because
/// the serving hot path is dominated by per-query setup for
/// graph-replaying releases (a Dijkstra per source); batching lets those
/// implementations share work across queries with the same source.
///
/// The `Send + Sync` supertraits make `&dyn DistanceRelease` shareable
/// across serving threads: queries take `&self` and every release type
/// is immutable after construction.
pub trait DistanceRelease: Send + Sync {
    /// Number of vertices the release answers queries for.
    fn num_nodes(&self) -> usize;

    /// The released estimate of `d(u, v)`; `+inf` when `v` is
    /// unreachable from `u` (uniform across every release kind — an
    /// unreachable target is an answer, not an error).
    ///
    /// # Errors
    /// [`EngineError::NodeOutOfRange`] for invalid ids.
    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError>;

    /// Released estimates for many pairs at once. Equivalent to mapping
    /// [`distance`](Self::distance) but implementations may share
    /// per-source work. On error, reports the first failing pair.
    ///
    /// # Errors
    /// Same conditions as [`distance`](Self::distance).
    fn distance_batch(&self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<f64>, EngineError> {
        pairs.iter().map(|&(u, v)| self.distance(u, v)).collect()
    }

    /// Every released distance from one source, indexed by target
    /// (unreachable targets are `+inf`). This is the serve-path **cache
    /// slot**: one vector answers every `(source, *)` query against the
    /// release, so a read-path cache keyed by `(release, source)` turns
    /// repeated-source workloads into array lookups. Graph-replaying
    /// releases override it to pay exactly one Dijkstra; the default maps
    /// [`distance`](Self::distance) over all targets (cheap for
    /// table-backed kinds).
    ///
    /// # Errors
    /// Same conditions as [`distance`](Self::distance).
    fn source_distances(&self, u: NodeId) -> Result<Vec<f64>, EngineError> {
        (0..self.num_nodes())
            .map(|v| self.distance(u, NodeId::new(v)))
            .collect()
    }

    /// Distance rows for many sources at once: row `i` is
    /// [`source_distances`](Self::source_distances) of `sources[i]`.
    ///
    /// The default maps `source_distances` sequentially (fine for
    /// table-backed kinds, whose rows are array reads); graph-replaying
    /// kinds override it to fan the per-source Dijkstras over the default
    /// search thread pool. Overrides must stay bit-for-bit identical to
    /// the sequential mapping — callers (the store's snapshot cache) rely
    /// on replayed answers being byte-stable.
    ///
    /// # Errors
    /// Same conditions as [`distance`](Self::distance).
    fn source_distance_rows(&self, sources: &[NodeId]) -> Result<Vec<Vec<f64>>, EngineError> {
        sources.iter().map(|&s| self.source_distances(s)).collect()
    }

    /// The released route from `u` to `v`, for release kinds that carry
    /// one (`None` for value-only releases).
    ///
    /// # Errors
    /// Same conditions as [`distance`](Self::distance).
    fn path(&self, u: NodeId, v: NodeId) -> Option<Result<Path, EngineError>> {
        let _ = (u, v);
        None
    }
}

fn check_node(index: usize, num_nodes: usize) -> Result<(), EngineError> {
    if index >= num_nodes {
        return Err(EngineError::NodeOutOfRange { index, num_nodes });
    }
    Ok(())
}

/// Maps a core-level `Disconnected` error to the uniform unreachable
/// answer `+inf`; every other error passes through.
fn disconnected_is_infinite(e: CoreError) -> Result<f64, EngineError> {
    match e {
        CoreError::Graph(GraphError::Disconnected { .. }) => Ok(f64::INFINITY),
        other => Err(EngineError::Core(other)),
    }
}

/// Shared batching core for graph-replaying releases: one Dijkstra per
/// distinct source, shared across every pair with that source;
/// unreachable targets answer `+inf`.
///
/// `rows_for_sources` receives every distinct source (sorted by id) in
/// one call, so implementations can fan the per-source Dijkstras over the
/// default search thread pool; row `i` must be the full distance vector
/// from source `i`. Results are identical to a sequential per-source loop
/// because the parallel drivers are bit-for-bit deterministic.
fn batch_by_source(
    num_nodes: usize,
    pairs: &[(NodeId, NodeId)],
    rows_for_sources: impl FnOnce(&[NodeId]) -> Result<Vec<Vec<f64>>, EngineError>,
) -> Result<Vec<f64>, EngineError> {
    let mut by_source: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, &(u, v)) in pairs.iter().enumerate() {
        check_node(u.index(), num_nodes)?;
        check_node(v.index(), num_nodes)?;
        by_source.entry(u.index()).or_default().push(i);
    }
    let mut source_ids: Vec<usize> = by_source.keys().copied().collect();
    source_ids.sort_unstable();
    let sources: Vec<NodeId> = source_ids.iter().map(|&s| NodeId::new(s)).collect();
    let rows = rows_for_sources(&sources)?;
    let mut out = vec![0.0; pairs.len()];
    for (s, dists) in source_ids.iter().zip(&rows) {
        for &i in &by_source[s] {
            let (_, v) = pairs[i];
            out[i] = dists[v.index()];
        }
    }
    Ok(out)
}

impl DistanceRelease for ShortestPathRelease {
    fn num_nodes(&self) -> usize {
        self.topology().num_nodes()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        // Normalize range errors across kinds: every release reports
        // NodeOutOfRange rather than its substrate's own variant.
        check_node(u.index(), DistanceRelease::num_nodes(self))?;
        check_node(v.index(), DistanceRelease::num_nodes(self))?;
        self.estimated_distance(u, v)
            .or_else(disconnected_is_infinite)
    }

    fn distance_batch(&self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<f64>, EngineError> {
        batch_by_source(DistanceRelease::num_nodes(self), pairs, |sources| {
            Ok(self.distances_for_sources(sources)?)
        })
    }

    fn source_distances(&self, u: NodeId) -> Result<Vec<f64>, EngineError> {
        check_node(u.index(), DistanceRelease::num_nodes(self))?;
        Ok(self.paths_from(u)?.distances().to_vec())
    }

    fn source_distance_rows(&self, sources: &[NodeId]) -> Result<Vec<Vec<f64>>, EngineError> {
        for &s in sources {
            check_node(s.index(), DistanceRelease::num_nodes(self))?;
        }
        Ok(self.distances_for_sources(sources)?)
    }

    fn path(&self, u: NodeId, v: NodeId) -> Option<Result<Path, EngineError>> {
        Some(ShortestPathRelease::path(self, u, v).map_err(EngineError::from))
    }
}

impl DistanceRelease for TreeAllPairsRelease {
    fn num_nodes(&self) -> usize {
        TreeAllPairsRelease::num_nodes(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), self.num_nodes())?;
        check_node(v.index(), self.num_nodes())?;
        Ok(TreeAllPairsRelease::distance(self, u, v))
    }
}

impl DistanceRelease for HldTreeRelease {
    fn num_nodes(&self) -> usize {
        HldTreeRelease::num_nodes(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), self.num_nodes())?;
        check_node(v.index(), self.num_nodes())?;
        Ok(HldTreeRelease::distance(self, u, v))
    }
}

impl DistanceRelease for BoundedWeightRelease {
    fn num_nodes(&self) -> usize {
        BoundedWeightRelease::num_nodes(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), self.num_nodes())?;
        check_node(v.index(), self.num_nodes())?;
        Ok(BoundedWeightRelease::distance(self, u, v))
    }
}

impl DistanceRelease for SyntheticGraphRelease {
    fn num_nodes(&self) -> usize {
        self.topology().num_nodes()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), DistanceRelease::num_nodes(self))?;
        check_node(v.index(), DistanceRelease::num_nodes(self))?;
        SyntheticGraphRelease::distance(self, u, v).or_else(disconnected_is_infinite)
    }

    fn distance_batch(&self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<f64>, EngineError> {
        batch_by_source(DistanceRelease::num_nodes(self), pairs, |sources| {
            Ok(self.distances_for_sources(sources)?)
        })
    }

    fn source_distances(&self, u: NodeId) -> Result<Vec<f64>, EngineError> {
        check_node(u.index(), DistanceRelease::num_nodes(self))?;
        Ok(self.distances_from(u)?)
    }

    fn source_distance_rows(&self, sources: &[NodeId]) -> Result<Vec<Vec<f64>>, EngineError> {
        for &s in sources {
            check_node(s.index(), DistanceRelease::num_nodes(self))?;
        }
        Ok(self.distances_for_sources(sources)?)
    }
}

impl DistanceRelease for AllPairsDistanceRelease {
    fn num_nodes(&self) -> usize {
        AllPairsDistanceRelease::num_nodes(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), self.num_nodes())?;
        check_node(v.index(), self.num_nodes())?;
        Ok(AllPairsDistanceRelease::distance(self, u, v))
    }
}

impl DistanceRelease for ShortcutApspRelease {
    fn num_nodes(&self) -> usize {
        ShortcutApspRelease::num_nodes(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), self.num_nodes())?;
        check_node(v.index(), self.num_nodes())?;
        Ok(ShortcutApspRelease::distance(self, u, v))
    }
}

/// A stable tag identifying a release's kind in the registry, the CLI,
/// and the persistence format.
///
/// This enum is the **one table** of per-kind declarations: the wire
/// name, the knobs beyond `eps` the kind's parameters take, how far it
/// reaches into the live store (one private `decl` match), and the
/// [`Mechanism`] singleton plus parameter object it runs
/// ([`dispatch`](Self::dispatch)). Every other layer — the spec grammar,
/// the CLI, the store's continual check — derives from these two
/// matches; data formats (the [`AnyRelease`] variants and their persist
/// bodies) are not declarations and live beside the release types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseKind {
    /// Algorithm 3 shortest paths.
    ShortestPath,
    /// Algorithm 1 / Theorem 4.2 tree distances.
    Tree,
    /// Heavy-path tree extension.
    HldTree,
    /// Algorithm 2 bounded-weight distances.
    BoundedWeight,
    /// Appendix B.1 spanning tree.
    Mst,
    /// Appendix B.2 matching.
    Matching,
    /// Laplace synthetic graph baseline.
    SyntheticGraph,
    /// All-pairs composition baseline.
    AllPairsBaseline,
    /// CNX-style hierarchical shortcut APSP (bounded weights).
    ShortcutApsp,
}

/// A parameter a release kind may take beyond `eps`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Knob {
    /// Approximate DP (`delta > 0`) for the composition-based kinds;
    /// defaults to zero (pure DP).
    Delta,
    /// The shift confidence of Algorithm 3; defaults to
    /// [`DEFAULT_GAMMA`].
    Gamma,
    /// The bounded-weight promise `M`. It has no default, so a kind
    /// that takes it cannot run without it.
    MaxWeight,
}

impl Knob {
    /// Every knob, in spec-grammar order.
    pub const ALL: [Knob; 3] = [Knob::Delta, Knob::Gamma, Knob::MaxWeight];

    /// The knob's name in the spec grammar and as a CLI flag.
    pub fn as_str(self) -> &'static str {
        match self {
            Knob::Delta => "delta",
            Knob::Gamma => "gamma",
            Knob::MaxWeight => "max-weight",
        }
    }

    /// The kinds that take this knob, comma-separated (for messages).
    pub fn kinds(self) -> String {
        let names: Vec<&str> = ReleaseKind::ALL
            .iter()
            .filter(|k| k.takes(self))
            .map(ReleaseKind::as_str)
            .collect();
        names.join(", ")
    }
}

impl std::fmt::Display for Knob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The values a kind's parameter object is built from. A kind reads
/// only the knobs it takes ([`ReleaseKind::takes`]); the rest are
/// ignored, so callers refuse misplaced knobs before building these.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Knobs {
    /// The privacy budget of one run.
    pub eps: Epsilon,
    /// [`Knob::Delta`].
    pub delta: Delta,
    /// [`Knob::Gamma`].
    pub gamma: f64,
    /// [`Knob::MaxWeight`] (`None`: not given).
    pub max_weight: Option<f64>,
}

impl Knobs {
    /// `eps` with every other knob at its default.
    pub fn new(eps: Epsilon) -> Self {
        Knobs {
            eps,
            delta: Delta::zero(),
            gamma: DEFAULT_GAMMA,
            max_weight: None,
        }
    }
}

/// How far a kind reaches into the live store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reach {
    /// Library and `calibrate` only: no persistence format or no
    /// distance queries, so no store can hold or replay it.
    Library,
    /// Storable: a distance surface and a persistence format.
    Store,
    /// Storable and servable from a continual namespace: exact given
    /// its input weights, so a zero-noise re-run over the tree
    /// composer's estimate is pure post-processing. (The bounded-weight
    /// kinds carry a structural detour error the continual contract
    /// cannot absorb.)
    Continual,
}

/// One row of the kind table.
struct Decl {
    name: &'static str,
    knobs: &'static [Knob],
    reach: Reach,
}

/// A computation over whichever [`Mechanism`] a [`ReleaseKind`] binds
/// to: [`ReleaseKind::dispatch`] builds the kind's parameter object and
/// hands it, with the kind's mechanism singleton, to
/// [`visit`](Self::visit).
pub trait MechanismVisitor {
    /// What the visit produces.
    type Output;

    /// Runs the computation for one mechanism.
    fn visit<M: Mechanism>(self, mechanism: &M, params: &M::Params) -> Self::Output
    where
        AnyRelease: From<M::Release>;
}

impl ReleaseKind {
    /// Every kind, in declaration order.
    pub const ALL: [ReleaseKind; 9] = [
        ReleaseKind::ShortestPath,
        ReleaseKind::Tree,
        ReleaseKind::HldTree,
        ReleaseKind::BoundedWeight,
        ReleaseKind::Mst,
        ReleaseKind::Matching,
        ReleaseKind::SyntheticGraph,
        ReleaseKind::AllPairsBaseline,
        ReleaseKind::ShortcutApsp,
    ];

    /// The kind table's row for `self`.
    fn decl(self) -> Decl {
        use Knob::{Delta, Gamma, MaxWeight};
        use Reach::{Continual, Library, Store};
        let (name, knobs, reach): (_, &'static [Knob], _) = match self {
            ReleaseKind::ShortestPath => ("shortest-path", &[Gamma], Continual),
            ReleaseKind::Tree => ("tree", &[], Continual),
            ReleaseKind::HldTree => ("hld-tree", &[], Library),
            ReleaseKind::BoundedWeight => ("bounded-weight", &[Delta, MaxWeight], Store),
            ReleaseKind::Mst => ("mst", &[], Library),
            ReleaseKind::Matching => ("matching", &[], Library),
            ReleaseKind::SyntheticGraph => ("synthetic-graph", &[], Continual),
            ReleaseKind::AllPairsBaseline => ("all-pairs-baseline", &[Delta], Continual),
            ReleaseKind::ShortcutApsp => ("shortcut-apsp", &[Delta, MaxWeight], Store),
        };
        Decl { name, knobs, reach }
    }

    /// The kind's stable name (also [`Mechanism::name`] of the
    /// mechanism it binds).
    pub fn as_str(&self) -> &'static str {
        self.decl().name
    }

    /// Parses a kind name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// The knobs beyond `eps` this kind's parameters take.
    pub fn knobs(self) -> &'static [Knob] {
        self.decl().knobs
    }

    /// Whether this kind's parameters take `knob`.
    pub fn takes(self, knob: Knob) -> bool {
        self.knobs().contains(&knob)
    }

    /// Whether a release of this kind can live in the store: it has a
    /// distance surface *and* a persistence format, so the store can
    /// both serve it and replay it from disk.
    pub fn is_storable(self) -> bool {
        self.decl().reach != Reach::Library
    }

    /// Whether a release of this kind can be served from a continual
    /// namespace (a zero-noise re-run over the tree composer's estimate
    /// must be exact post-processing).
    pub fn is_continual_servable(self) -> bool {
        self.decl().reach == Reach::Continual
    }

    /// Builds this kind's parameter object from `knobs` and runs
    /// `visitor` with the kind's mechanism singleton.
    ///
    /// # Errors
    /// [`EngineError::MissingKnob`] when the kind needs
    /// [`Knob::MaxWeight`] and `knobs` has none; otherwise the parameter
    /// constructor's own validation errors.
    pub fn dispatch<V: MechanismVisitor>(
        self,
        knobs: &Knobs,
        visitor: V,
    ) -> Result<V::Output, EngineError> {
        let Knobs {
            eps,
            delta,
            gamma,
            max_weight,
        } = *knobs;
        let max_weight = || {
            max_weight.ok_or(EngineError::MissingKnob {
                mechanism: self.as_str(),
                knob: Knob::MaxWeight,
            })
        };
        Ok(match self {
            ReleaseKind::ShortestPath => visitor.visit(
                &mechanisms::ShortestPaths,
                &ShortestPathParams::new(eps, gamma)?,
            ),
            ReleaseKind::Tree => {
                visitor.visit(&mechanisms::TreeAllPairs, &TreeDistanceParams::new(eps))
            }
            ReleaseKind::HldTree => {
                visitor.visit(&mechanisms::HldTree, &TreeDistanceParams::new(eps))
            }
            ReleaseKind::BoundedWeight => {
                let params = if delta.is_pure() {
                    BoundedWeightParams::pure(eps, max_weight()?)
                } else {
                    BoundedWeightParams::approx(eps, delta, max_weight()?)
                };
                visitor.visit(&mechanisms::BoundedWeight, &params?)
            }
            ReleaseKind::Mst => visitor.visit(&mechanisms::Mst, &MstParams::new(eps)),
            ReleaseKind::Matching => {
                visitor.visit(&mechanisms::Matching::default(), &MatchingParams::new(eps))
            }
            ReleaseKind::SyntheticGraph => visitor.visit(
                &mechanisms::SyntheticGraph,
                &mechanisms::SyntheticGraphParams::new(eps),
            ),
            ReleaseKind::AllPairsBaseline => {
                let params = if delta.is_pure() {
                    mechanisms::AllPairsBaselineParams::basic(eps)
                } else {
                    mechanisms::AllPairsBaselineParams::advanced(eps, delta)?
                };
                visitor.visit(&mechanisms::AllPairsBaseline, &params)
            }
            ReleaseKind::ShortcutApsp => {
                let params = if delta.is_pure() {
                    ShortcutApspParams::pure(eps, max_weight()?)
                } else {
                    ShortcutApspParams::approx(eps, delta, max_weight()?)
                };
                visitor.visit(&mechanisms::ShortcutApsp, &params?)
            }
        })
    }
}

impl std::fmt::Display for ReleaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Any release the engine can hold: the union of every mechanism's output
/// type. Distance-capable variants expose a [`DistanceRelease`] view via
/// [`as_distance`](Self::as_distance).
#[derive(Clone, Debug)]
pub enum AnyRelease {
    /// Algorithm 3 output.
    ShortestPath(ShortestPathRelease),
    /// Algorithm 1 / Theorem 4.2 output.
    Tree(TreeAllPairsRelease),
    /// Heavy-path extension output.
    HldTree(HldTreeRelease),
    /// Algorithm 2 output.
    BoundedWeight(BoundedWeightRelease),
    /// Appendix B.1 output.
    Mst(MstRelease),
    /// Appendix B.2 output.
    Matching(MatchingRelease),
    /// Synthetic-graph baseline output.
    SyntheticGraph(SyntheticGraphRelease),
    /// Composition baseline output.
    AllPairsBaseline(AllPairsDistanceRelease),
    /// Hierarchical shortcut output.
    ShortcutApsp(ShortcutApspRelease),
}

impl AnyRelease {
    /// The release's kind tag.
    pub fn kind(&self) -> ReleaseKind {
        match self {
            AnyRelease::ShortestPath(_) => ReleaseKind::ShortestPath,
            AnyRelease::Tree(_) => ReleaseKind::Tree,
            AnyRelease::HldTree(_) => ReleaseKind::HldTree,
            AnyRelease::BoundedWeight(_) => ReleaseKind::BoundedWeight,
            AnyRelease::Mst(_) => ReleaseKind::Mst,
            AnyRelease::Matching(_) => ReleaseKind::Matching,
            AnyRelease::SyntheticGraph(_) => ReleaseKind::SyntheticGraph,
            AnyRelease::AllPairsBaseline(_) => ReleaseKind::AllPairsBaseline,
            AnyRelease::ShortcutApsp(_) => ReleaseKind::ShortcutApsp,
        }
    }

    /// A distance-oracle view, for the kinds that answer distance
    /// queries (`None` for MST and matching releases, which release a
    /// structure rather than a distance table).
    pub fn as_distance(&self) -> Option<&dyn DistanceRelease> {
        match self {
            AnyRelease::ShortestPath(r) => Some(r),
            AnyRelease::Tree(r) => Some(r),
            AnyRelease::HldTree(r) => Some(r),
            AnyRelease::BoundedWeight(r) => Some(r),
            AnyRelease::SyntheticGraph(r) => Some(r),
            AnyRelease::AllPairsBaseline(r) => Some(r),
            AnyRelease::ShortcutApsp(r) => Some(r),
            AnyRelease::Mst(_) | AnyRelease::Matching(_) => None,
        }
    }
}

impl From<ShortestPathRelease> for AnyRelease {
    fn from(r: ShortestPathRelease) -> Self {
        AnyRelease::ShortestPath(r)
    }
}

impl From<TreeAllPairsRelease> for AnyRelease {
    fn from(r: TreeAllPairsRelease) -> Self {
        AnyRelease::Tree(r)
    }
}

impl From<HldTreeRelease> for AnyRelease {
    fn from(r: HldTreeRelease) -> Self {
        AnyRelease::HldTree(r)
    }
}

impl From<BoundedWeightRelease> for AnyRelease {
    fn from(r: BoundedWeightRelease) -> Self {
        AnyRelease::BoundedWeight(r)
    }
}

impl From<MstRelease> for AnyRelease {
    fn from(r: MstRelease) -> Self {
        AnyRelease::Mst(r)
    }
}

impl From<MatchingRelease> for AnyRelease {
    fn from(r: MatchingRelease) -> Self {
        AnyRelease::Matching(r)
    }
}

impl From<SyntheticGraphRelease> for AnyRelease {
    fn from(r: SyntheticGraphRelease) -> Self {
        AnyRelease::SyntheticGraph(r)
    }
}

impl From<AllPairsDistanceRelease> for AnyRelease {
    fn from(r: AllPairsDistanceRelease) -> Self {
        AnyRelease::AllPairsBaseline(r)
    }
}

impl From<ShortcutApspRelease> for AnyRelease {
    fn from(r: ShortcutApspRelease) -> Self {
        AnyRelease::ShortcutApsp(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_dp::ZeroNoise;
    use privpath_graph::generators::{path_graph, uniform_weights};
    use privpath_graph::{EdgeWeights, Topology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Everything observable about what a dispatch built, from public
    /// inputs: the bound kind, declared cost and contract, and one
    /// zero-noise answer.
    struct Observe<'a> {
        topo: &'a Topology,
        weights: &'a EdgeWeights,
    }

    impl MechanismVisitor for Observe<'_> {
        type Output = String;

        fn visit<M: Mechanism>(self, mechanism: &M, params: &M::Params) -> String
        where
            AnyRelease: From<M::Release>,
        {
            let last = NodeId::new(self.topo.num_nodes() - 1);
            let answer = mechanism
                .release_with(self.topo, self.weights, params, &mut ZeroNoise)
                .ok()
                .map(AnyRelease::from)
                .and_then(|r| r.as_distance()?.distance(NodeId::new(0), last).ok());
            format!(
                "{} {:?} {:?} {answer:?}",
                mechanism.name(),
                mechanism.privacy_cost(params),
                mechanism.accuracy_contract(self.topo, params),
            )
        }
    }

    #[test]
    fn each_kind_binds_its_mechanism_and_reads_exactly_its_knobs() {
        let topo = path_graph(12);
        let weights = uniform_weights(topo.num_edges(), 0.0, 1.0, &mut StdRng::seed_from_u64(5));
        let observe = |kind: ReleaseKind, knobs: &Knobs| {
            kind.dispatch(
                knobs,
                Observe {
                    topo: &topo,
                    weights: &weights,
                },
            )
        };
        let defaults = Knobs::new(Epsilon::new(1.0).unwrap());
        let base = Knobs {
            max_weight: Some(1.0),
            ..defaults
        };
        for kind in ReleaseKind::ALL {
            // `max-weight` has no default: a kind that takes it refuses
            // to run without it, with a typed error.
            let missing = kind
                .takes(Knob::MaxWeight)
                .then_some(EngineError::MissingKnob {
                    mechanism: kind.as_str(),
                    knob: Knob::MaxWeight,
                });
            assert_eq!(observe(kind, &defaults).err(), missing, "{kind}");

            let seen = observe(kind, &base).unwrap();
            assert!(seen.starts_with(&format!("{kind} ")), "{kind}: {seen}");
            for knob in Knob::ALL {
                let mut moved = base;
                match knob {
                    Knob::Delta => moved.delta = Delta::new(1e-6).unwrap(),
                    Knob::Gamma => moved.gamma = 0.3,
                    Knob::MaxWeight => moved.max_weight = Some(2.0),
                }
                let moved_seen = observe(kind, &moved).unwrap();
                assert_eq!(
                    kind.takes(knob),
                    moved_seen != seen,
                    "{kind} {knob}: {seen} vs {moved_seen}"
                );
            }
        }
    }
}
