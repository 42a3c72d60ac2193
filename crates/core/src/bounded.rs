//! Algorithm 2 and Theorems 4.3/4.5/4.6/4.7: all-pairs distances for
//! bounded-weight graphs.
//!
//! For weights in `[0, M]`, pick a k-covering `Z` (every vertex within `k`
//! hops of a center, Definition 4.1), release noisy distances between all
//! pairs of centers, and answer a query `(u, v)` with the released
//! `d(z(u), z(v))`. The detour costs at most `2kM`; the noise costs
//! whatever composition over the `|Z|^2` released values demands:
//!
//! * **Approximate DP** (Theorem 4.5): each center-pair distance has
//!   sensitivity 1; advanced composition (Lemma 3.4, inverted numerically)
//!   gives a per-query epsilon and a noise scale
//!   `O(Z sqrt(ln 1/delta) / eps)`.
//! * **Pure DP** (Theorem 4.6): basic composition forces noise scale
//!   `num_pairs / eps`.
//!
//! Balancing `kM` against the noise yields Theorem 4.3's auto-`k`:
//! `k = floor(sqrt(V / (M eps)))` for approximate DP and
//! `k = floor(V^{2/3} / (M eps)^{1/3})` for pure DP. For specific
//! topologies a smaller covering beats Lemma 4.4 — Theorem 4.7's grid
//! covering is exposed through [`CoveringStrategy::Custom`].
//!
//! We release each unordered center pair once (`Z(Z-1)/2` values) rather
//! than the paper's `Z^2`; diagonal distances are identically zero
//! (sensitivity 0) and need no noise. Both choices satisfy the theorems.

use crate::model::NeighborScale;
use crate::CoreError;
use privpath_dp::composition::per_query_epsilon;
use privpath_dp::{Delta, Epsilon, NoiseSource, RngNoise};
use privpath_graph::algo::{
    is_connected, multi_source_distances_unchecked, multi_source_hop_assignment, CoverAssignment,
};
use privpath_graph::covering::{greedy_covering, meir_moon_covering, verify_covering};
use privpath_graph::{EdgeWeights, NodeId, Topology};
use rand::Rng;

/// How to obtain the k-covering `Z`.
#[derive(Clone, Debug)]
pub enum CoveringStrategy {
    /// The Meir–Moon construction of Lemma 4.4 with an explicit `k`.
    MeirMoon {
        /// The covering radius.
        k: usize,
    },
    /// Theorem 4.3's balanced `k` from `V`, `M` and `eps`, then Meir–Moon.
    AutoK,
    /// A caller-provided covering (e.g. Theorem 4.7's grid covering from
    /// [`privpath_graph::generators::GridGraph::modular_covering`]) with
    /// its radius `k`. The covering property is verified.
    Custom {
        /// The covering centers.
        centers: Vec<NodeId>,
        /// The claimed covering radius.
        k: usize,
    },
    /// The greedy covering heuristic with an explicit `k` (ablation).
    Greedy {
        /// The covering radius.
        k: usize,
    },
}

/// Parameters for [`bounded_weight_all_pairs`].
#[derive(Clone, Debug)]
pub struct BoundedWeightParams {
    eps: Epsilon,
    delta: Delta,
    max_weight: f64,
    strategy: CoveringStrategy,
    scale: NeighborScale,
}

impl BoundedWeightParams {
    /// Pure-DP parameters (Theorem 4.6): privacy `eps`, weights promised in
    /// `[0, max_weight]`.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if `max_weight` is not
    /// positive and finite.
    pub fn pure(eps: Epsilon, max_weight: f64) -> Result<Self, CoreError> {
        if !max_weight.is_finite() || max_weight <= 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "max_weight must be positive and finite, got {max_weight}"
            )));
        }
        Ok(BoundedWeightParams {
            eps,
            delta: Delta::zero(),
            max_weight,
            strategy: CoveringStrategy::AutoK,
            scale: NeighborScale::unit(),
        })
    }

    /// Approximate-DP parameters (Theorem 4.5).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if `max_weight` is invalid
    /// or `delta` is zero (use [`pure`](Self::pure) for pure DP).
    pub fn approx(eps: Epsilon, delta: Delta, max_weight: f64) -> Result<Self, CoreError> {
        if delta.is_pure() {
            return Err(CoreError::InvalidParameter(
                "approx parameters require delta > 0; use BoundedWeightParams::pure".into(),
            ));
        }
        let mut p = Self::pure(eps, max_weight)?;
        p.delta = delta;
        Ok(p)
    }

    /// Overrides the covering strategy.
    pub fn with_strategy(mut self, strategy: CoveringStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the neighbor scale.
    pub fn with_scale(mut self, scale: NeighborScale) -> Self {
        self.scale = scale;
        self
    }

    /// The same parameters at a different privacy budget — the engine's
    /// calibration reparameterizes a template this way (under
    /// [`CoveringStrategy::AutoK`] the balanced radius moves with it).
    pub fn with_eps(mut self, eps: Epsilon) -> Self {
        self.eps = eps;
        self
    }

    /// The privacy parameter.
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// The covering strategy.
    pub fn strategy(&self) -> &CoveringStrategy {
        &self.strategy
    }

    /// The neighbor scale.
    pub fn scale(&self) -> NeighborScale {
        self.scale
    }

    /// The privacy parameter delta (zero for pure DP).
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// The weight bound `M`.
    pub fn max_weight(&self) -> f64 {
        self.max_weight
    }

    /// Theorem 4.3's balanced covering radius for these parameters on a
    /// `v`-vertex graph, clamped to `[1, v - 1]`.
    pub fn auto_k(&self, v: usize) -> usize {
        let vf = v as f64;
        let me = self.max_weight * self.eps.value();
        let k = if self.delta.is_pure() {
            (vf.powf(2.0 / 3.0) / me.cbrt()).floor()
        } else {
            (vf / me).sqrt().floor()
        };
        (k as usize).clamp(1, v.saturating_sub(1).max(1))
    }
}

/// The released bounded-weight all-pairs distances.
#[derive(Clone, Debug)]
pub struct BoundedWeightRelease {
    topo: Topology,
    centers: Vec<NodeId>,
    /// `center_rank[v]` = index into `centers` of `z(v)`'s entry.
    center_rank: Vec<u32>,
    /// Dense symmetric matrix of released center-pair distances.
    noisy_dist: Vec<f64>,
    k: usize,
    noise_scale: f64,
    assignment: CoverAssignment,
}

impl BoundedWeightRelease {
    /// The covering centers `Z`.
    pub fn centers(&self) -> &[NodeId] {
        &self.centers
    }

    /// The covering radius `k` in use.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The Laplace scale applied to each released center-pair distance.
    pub fn noise_scale(&self) -> f64 {
        self.noise_scale
    }

    /// The center `z(v)` a vertex is assigned to.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn center_of(&self, v: NodeId) -> NodeId {
        self.assignment
            .center_of(v)
            .expect("connected graph covered")
    }

    /// The released estimate of `d(u, v)`: the noisy distance between
    /// `z(u)` and `z(v)` (Algorithm 2, step 3).
    ///
    /// # Panics
    /// Panics if either vertex is out of range.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        let z = self.centers.len();
        let (i, j) = (
            self.center_rank[u.index()] as usize,
            self.center_rank[v.index()] as usize,
        );
        self.noisy_dist[i * z + j]
    }

    /// Number of noisy values released (`Z(Z-1)/2`).
    pub fn num_released(&self) -> usize {
        let z = self.centers.len();
        z * (z - 1) / 2
    }

    /// Number of vertices the release answers queries for.
    pub fn num_nodes(&self) -> usize {
        self.center_rank.len()
    }

    /// The public topology the release answers queries on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The dense symmetric `|Z| x |Z|` matrix of released center-pair
    /// distances, row-major (the engine's persistence layer stores it).
    pub fn released_matrix(&self) -> &[f64] {
        &self.noisy_dist
    }

    /// Reassembles a release from stored parts: the public topology, the
    /// covering `centers` with radius `k`, and the released `|Z| x |Z|`
    /// distance matrix. The vertex-to-center assignment is recomputed from
    /// the (public) topology, exactly as the mechanism computed it.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] if the centers are not a
    /// `k`-covering, the matrix has the wrong size, or it contains
    /// non-finite entries; [`CoreError::Graph`] for invalid center ids.
    pub fn from_parts(
        topo: &Topology,
        centers: Vec<NodeId>,
        k: usize,
        noisy_dist: Vec<f64>,
        noise_scale: f64,
    ) -> Result<Self, CoreError> {
        let z = centers.len();
        if noisy_dist.len() != z * z {
            return Err(CoreError::InvalidParameter(format!(
                "stored matrix has {} entries, expected {}",
                noisy_dist.len(),
                z * z
            )));
        }
        if noisy_dist.iter().any(|d| !d.is_finite()) {
            return Err(CoreError::InvalidParameter(
                "stored center-distance matrix contains non-finite entries".into(),
            ));
        }
        if !noise_scale.is_finite() || noise_scale <= 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "invalid stored noise scale {noise_scale}"
            )));
        }
        if !verify_covering(topo, &centers, k)? {
            return Err(CoreError::InvalidParameter(format!(
                "stored centers are not a {k}-covering of the topology"
            )));
        }
        let (center_rank, assignment) = assign_centers(topo, &centers)?;
        Ok(BoundedWeightRelease {
            topo: topo.clone(),
            centers,
            center_rank,
            noisy_dist,
            k,
            noise_scale,
            assignment,
        })
    }
}

/// Assigns every vertex to its covering center and ranks centers.
fn assign_centers(
    topo: &Topology,
    centers: &[NodeId],
) -> Result<(Vec<u32>, CoverAssignment), CoreError> {
    let assignment = multi_source_hop_assignment(topo, centers)?;
    let mut center_rank = vec![0u32; topo.num_nodes()];
    let index_of = |c: NodeId| -> u32 {
        centers
            .iter()
            .position(|&x| x == c)
            .expect("assigned center is in Z") as u32
    };
    for v in topo.nodes() {
        let c = assignment.center_of(v).ok_or_else(|| {
            CoreError::InvalidParameter(format!("vertex {v} is not covered by any center"))
        })?;
        center_rank[v.index()] = index_of(c);
    }
    Ok((center_rank, assignment))
}

/// Runs Algorithm 2 with an explicit noise source.
///
/// # Errors
/// * [`CoreError::WeightOutOfBounds`] if any weight leaves `[0, M]`.
/// * [`CoreError::InvalidParameter`] for a disconnected graph or an
///   invalid custom covering.
/// * [`CoreError::Graph`] / [`CoreError::Dp`] for substrate failures.
pub fn bounded_weight_all_pairs_with(
    topo: &Topology,
    weights: &EdgeWeights,
    params: &BoundedWeightParams,
    noise: &mut impl NoiseSource,
) -> Result<BoundedWeightRelease, CoreError> {
    weights.validate_for(topo)?;
    if let Some((_, w)) = weights
        .iter()
        .find(|&(_, w)| w < 0.0 || w > params.max_weight)
    {
        return Err(CoreError::WeightOutOfBounds {
            value: w,
            max_weight: params.max_weight,
        });
    }
    if topo.num_nodes() == 0 {
        return Err(CoreError::Graph(privpath_graph::GraphError::EmptyGraph));
    }
    if !is_connected(topo) {
        return Err(CoreError::InvalidParameter(
            "bounded-weight all-pairs requires a connected graph".into(),
        ));
    }

    let (centers, k) = match &params.strategy {
        CoveringStrategy::MeirMoon { k } => (meir_moon_covering(topo, *k)?, *k),
        CoveringStrategy::AutoK => {
            let k = params.auto_k(topo.num_nodes());
            (meir_moon_covering(topo, k)?, k)
        }
        CoveringStrategy::Greedy { k } => (greedy_covering(topo, *k)?, *k),
        CoveringStrategy::Custom { centers, k } => {
            if !verify_covering(topo, centers, *k)? {
                return Err(CoreError::InvalidParameter(format!(
                    "provided centers are not a {k}-covering"
                )));
            }
            (centers.clone(), *k)
        }
    };

    let z = centers.len();
    let num_pairs = z * (z - 1) / 2;
    // Per-released-value noise scale.
    let noise_scale = if num_pairs == 0 {
        // Single center: nothing to release; keep a harmless scale.
        params.scale.value() / params.eps.value()
    } else if params.delta.is_pure() {
        // Theorem 4.6: basic composition over the released vector.
        params.scale.value() * num_pairs as f64 / params.eps.value()
    } else {
        // Theorem 4.5: invert advanced composition for the per-query eps.
        let per = per_query_epsilon(params.eps, num_pairs, params.delta.value())?;
        params.scale.value() / per.value()
    };

    // True center-pair distances: one Dijkstra per center, fanned over the
    // default search thread pool (bit-for-bit deterministic for any thread
    // count). The `[0, M]` bounds scan above already established the
    // nonnegativity precondition, so the unchecked entry avoids a second
    // O(E) scan. Noise is drawn afterwards on this thread in the same
    // (i, j) order as the sequential loop, preserving pinned-seed replays.
    let rows = multi_source_distances_unchecked(topo, weights, &centers, 0);
    let mut noisy_dist = vec![0.0; z * z];
    for (i, &zi) in centers.iter().enumerate() {
        for (j, &zj) in centers.iter().enumerate().skip(i + 1) {
            let d = rows[i][zj.index()];
            if !d.is_finite() {
                return Err(CoreError::Graph(privpath_graph::GraphError::Disconnected {
                    from: zi,
                    to: zj,
                }));
            }
            let released = d + noise.laplace(noise_scale);
            noisy_dist[i * z + j] = released;
            noisy_dist[j * z + i] = released;
        }
    }

    let (center_rank, assignment) = assign_centers(topo, &centers)?;

    Ok(BoundedWeightRelease {
        topo: topo.clone(),
        centers,
        center_rank,
        noisy_dist,
        k,
        noise_scale,
        assignment,
    })
}

/// Runs Algorithm 2 drawing noise from `rng`.
///
/// ```
/// use privpath_core::bounded::{bounded_weight_all_pairs, BoundedWeightParams};
/// use privpath_dp::{Delta, Epsilon};
/// use privpath_graph::generators::{connected_gnm, uniform_weights};
/// use privpath_graph::NodeId;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let topo = connected_gnm(80, 200, &mut rng);
/// let weights = uniform_weights(200, 0.0, 1.0, &mut rng); // bounded by M = 1
/// let params =
///     BoundedWeightParams::approx(Epsilon::new(1.0)?, Delta::new(1e-6)?, 1.0)?;
/// let release = bounded_weight_all_pairs(&topo, &weights, &params, &mut rng)?;
/// let estimate = release.distance(NodeId::new(0), NodeId::new(79));
/// assert!(estimate.is_finite());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
/// Same conditions as [`bounded_weight_all_pairs_with`].
pub fn bounded_weight_all_pairs(
    topo: &Topology,
    weights: &EdgeWeights,
    params: &BoundedWeightParams,
    rng: &mut impl Rng,
) -> Result<BoundedWeightRelease, CoreError> {
    // privlint: allow(budget-discipline, "rng-to-NoiseSource adapter in the paper-level convenience API; budgeted callers reach the *_with variant through the engine, which debits before running")
    let mut noise = RngNoise::new(rng);
    bounded_weight_all_pairs_with(topo, weights, params, &mut noise)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_dp::{RecordingNoise, ZeroNoise};
    use privpath_graph::algo::floyd_warshall;
    use privpath_graph::generators::{connected_gnm, path_graph, uniform_weights, GridGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn zero_noise_error_is_pure_detour_at_most_2km() {
        let mut rng = StdRng::seed_from_u64(30);
        let m_weight = 2.0;
        let topo = connected_gnm(60, 150, &mut rng);
        let w = uniform_weights(150, 0.0, m_weight, &mut rng);
        let k = 3;
        let params = BoundedWeightParams::pure(eps(1.0), m_weight)
            .unwrap()
            .with_strategy(CoveringStrategy::MeirMoon { k });
        let rel = bounded_weight_all_pairs_with(&topo, &w, &params, &mut ZeroNoise).unwrap();
        let fw = floyd_warshall(&topo, &w).unwrap();
        for u in topo.nodes() {
            for v in topo.nodes() {
                let truth = fw.get(u, v).unwrap();
                let err = (rel.distance(u, v) - truth).abs();
                assert!(
                    err <= 2.0 * k as f64 * m_weight + 1e-9,
                    "pair ({u},{v}): err {err}"
                );
            }
        }
    }

    #[test]
    fn same_center_pairs_get_zero_distance() {
        let topo = path_graph(5);
        let w = EdgeWeights::constant(4, 1.0);
        let params = BoundedWeightParams::pure(eps(1.0), 1.0)
            .unwrap()
            .with_strategy(CoveringStrategy::Custom {
                centers: vec![NodeId::new(2)],
                k: 2,
            });
        let rel = bounded_weight_all_pairs_with(&topo, &w, &params, &mut ZeroNoise).unwrap();
        assert_eq!(rel.distance(NodeId::new(0), NodeId::new(4)), 0.0);
        assert_eq!(rel.num_released(), 0);
    }

    #[test]
    fn pure_noise_scale_is_pairs_over_eps() {
        let topo = path_graph(20);
        let w = EdgeWeights::constant(19, 0.5);
        let params = BoundedWeightParams::pure(eps(2.0), 1.0)
            .unwrap()
            .with_strategy(CoveringStrategy::MeirMoon { k: 2 });
        let mut rec = RecordingNoise::new(ZeroNoise);
        let rel = bounded_weight_all_pairs_with(&topo, &w, &params, &mut rec).unwrap();
        let z = rel.centers().len();
        let pairs = z * (z - 1) / 2;
        assert_eq!(rec.len(), pairs);
        assert!((rel.noise_scale() - pairs as f64 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn approx_noise_scale_beats_pure_for_many_centers() {
        let mut rng = StdRng::seed_from_u64(31);
        let topo = connected_gnm(100, 200, &mut rng);
        let w = uniform_weights(200, 0.0, 1.0, &mut rng);
        let pure = BoundedWeightParams::pure(eps(1.0), 1.0)
            .unwrap()
            .with_strategy(CoveringStrategy::MeirMoon { k: 2 });
        let approx = BoundedWeightParams::approx(eps(1.0), Delta::new(1e-6).unwrap(), 1.0)
            .unwrap()
            .with_strategy(CoveringStrategy::MeirMoon { k: 2 });
        let rp = bounded_weight_all_pairs_with(&topo, &w, &pure, &mut ZeroNoise).unwrap();
        let ra = bounded_weight_all_pairs_with(&topo, &w, &approx, &mut ZeroNoise).unwrap();
        assert!(
            ra.noise_scale() < rp.noise_scale() / 2.0,
            "approx {} vs pure {}",
            ra.noise_scale(),
            rp.noise_scale()
        );
    }

    #[test]
    fn auto_k_matches_thm_4_3_formulas() {
        let approx = BoundedWeightParams::approx(eps(1.0), Delta::new(1e-6).unwrap(), 1.0).unwrap();
        // k = floor(sqrt(V / (M eps))) = floor(sqrt(400)) = 20.
        assert_eq!(approx.auto_k(400), 20);
        let pure = BoundedWeightParams::pure(eps(1.0), 1.0).unwrap();
        // k = floor(V^{2/3} / (M eps)^{1/3}) = floor(400^{2/3}) = 54.
        assert_eq!(pure.auto_k(400), 54);
        // Clamped to at least 1.
        assert_eq!(pure.auto_k(2), 1);
    }

    #[test]
    fn grid_covering_via_custom_strategy() {
        let grid = GridGraph::new(9, 9);
        let centers = grid.modular_covering(3).unwrap();
        let w = EdgeWeights::constant(grid.topology().num_edges(), 0.5);
        let params = BoundedWeightParams::pure(eps(1.0), 1.0)
            .unwrap()
            .with_strategy(CoveringStrategy::Custom {
                centers: centers.clone(),
                k: 6,
            });
        let rel =
            bounded_weight_all_pairs_with(grid.topology(), &w, &params, &mut ZeroNoise).unwrap();
        assert_eq!(rel.centers().len(), centers.len());
        assert_eq!(rel.k(), 6);
    }

    #[test]
    fn bad_custom_covering_rejected() {
        let topo = path_graph(10);
        let w = EdgeWeights::constant(9, 0.5);
        let params = BoundedWeightParams::pure(eps(1.0), 1.0)
            .unwrap()
            .with_strategy(CoveringStrategy::Custom {
                centers: vec![NodeId::new(0)],
                k: 2,
            });
        assert!(matches!(
            bounded_weight_all_pairs_with(&topo, &w, &params, &mut ZeroNoise),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn weights_out_of_bounds_rejected() {
        let topo = path_graph(4);
        let w = EdgeWeights::constant(3, 2.0);
        let params = BoundedWeightParams::pure(eps(1.0), 1.0).unwrap();
        assert!(matches!(
            bounded_weight_all_pairs_with(&topo, &w, &params, &mut ZeroNoise),
            Err(CoreError::WeightOutOfBounds { .. })
        ));
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = Topology::builder(4);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        b.add_edge(NodeId::new(2), NodeId::new(3));
        let topo = b.build();
        let w = EdgeWeights::constant(2, 0.5);
        let params = BoundedWeightParams::pure(eps(1.0), 1.0).unwrap();
        assert!(bounded_weight_all_pairs_with(&topo, &w, &params, &mut ZeroNoise).is_err());
    }

    #[test]
    fn delta_zero_approx_constructor_rejected() {
        assert!(BoundedWeightParams::approx(eps(1.0), Delta::zero(), 1.0).is_err());
        assert!(BoundedWeightParams::pure(eps(1.0), 0.0).is_err());
        assert!(BoundedWeightParams::pure(eps(1.0), f64::NAN).is_err());
    }

    #[test]
    fn released_distances_symmetric() {
        let mut rng = StdRng::seed_from_u64(32);
        let topo = connected_gnm(40, 80, &mut rng);
        let w = uniform_weights(80, 0.0, 1.0, &mut rng);
        let params = BoundedWeightParams::pure(eps(1.0), 1.0)
            .unwrap()
            .with_strategy(CoveringStrategy::MeirMoon { k: 2 });
        let rel = bounded_weight_all_pairs(&topo, &w, &params, &mut rng).unwrap();
        for u in topo.nodes() {
            for v in topo.nodes() {
                assert_eq!(rel.distance(u, v), rel.distance(v, u));
            }
        }
    }

    #[test]
    fn greedy_strategy_works() {
        let mut rng = StdRng::seed_from_u64(33);
        let topo = connected_gnm(30, 60, &mut rng);
        let w = uniform_weights(60, 0.0, 1.0, &mut rng);
        let params = BoundedWeightParams::pure(eps(1.0), 1.0)
            .unwrap()
            .with_strategy(CoveringStrategy::Greedy { k: 2 });
        let rel = bounded_weight_all_pairs_with(&topo, &w, &params, &mut ZeroNoise).unwrap();
        assert!(!rel.centers().is_empty());
    }
}
