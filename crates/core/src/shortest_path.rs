//! Algorithm 3: private shortest paths (Section 5.2).
//!
//! Release `w'(e) = w(e) + Lap(s/eps) + (s/eps) * ln(E/gamma)` for every
//! edge (one application of the Laplace mechanism on the identity query,
//! whose sensitivity is the neighbor scale `s`), then answer **every**
//! pair's shortest-path query by running Dijkstra on the released weights —
//! pure post-processing, so the whole release is `eps`-DP no matter how
//! many paths are extracted.
//!
//! Theorem 5.5: with probability `1 - gamma`, for every pair `(s, t)` and
//! every `k`-hop path of weight `W`, the released path weighs at most
//! `W + (2k * s / eps) * ln(E / gamma)` under the true weights. The
//! deliberate upward shift `(s/eps) ln(E/gamma)` is what makes the error
//! *hop-proportional*: it penalizes hop-heavy paths so that the mechanism
//! prefers compact routes, and it makes released weights nonnegative with
//! probability `1 - gamma`.

use crate::model::NeighborScale;
use crate::CoreError;
use privpath_dp::{Epsilon, NoiseSource, RngNoise};
use privpath_graph::algo::{
    multi_source_dijkstra_unchecked, multi_source_distances_unchecked, with_thread_workspace,
    ShortestPathTree,
};
use privpath_graph::{EdgeWeights, NodeId, Path, Topology};
use rand::Rng;

/// Parameters for [`private_shortest_paths`].
#[derive(Clone, Copy, Debug)]
pub struct ShortestPathParams {
    eps: Epsilon,
    gamma: f64,
    scale: NeighborScale,
    shift: bool,
}

impl ShortestPathParams {
    /// Standard parameters: privacy `eps`, failure probability `gamma` for
    /// the high-probability error bound, unit neighbor scale, shift on.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if `gamma` is outside
    /// `(0, 1)`.
    pub fn new(eps: Epsilon, gamma: f64) -> Result<Self, CoreError> {
        if !(gamma > 0.0 && gamma < 1.0) {
            return Err(CoreError::InvalidParameter(format!(
                "gamma must be in (0,1), got {gamma}"
            )));
        }
        Ok(ShortestPathParams {
            eps,
            gamma,
            scale: NeighborScale::unit(),
            shift: true,
        })
    }

    /// Overrides the neighbor scale (Section 1.2 "Scaling").
    pub fn with_scale(mut self, scale: NeighborScale) -> Self {
        self.scale = scale;
        self
    }

    /// The same parameters at a different privacy budget — the engine's
    /// calibration reparameterizes a template this way.
    pub fn with_eps(mut self, eps: Epsilon) -> Self {
        self.eps = eps;
        self
    }

    /// Disables the `(s/eps) ln(E/gamma)` shift. Without the shift the
    /// release is still `eps`-DP, but the error bound degrades from
    /// hop-proportional to the worst-case Corollary 5.6 form, and negative
    /// released weights are clamped to zero before Dijkstra.
    pub fn without_shift(mut self) -> Self {
        self.shift = false;
        self
    }

    /// The privacy parameter.
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// The failure probability.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The neighbor scale.
    pub fn scale(&self) -> NeighborScale {
        self.scale
    }

    /// Whether the hop-penalty shift is applied.
    pub fn shift_enabled(&self) -> bool {
        self.shift
    }
}

/// The output of Algorithm 3: a DP-released weight function over the public
/// topology. All queries are post-processing of this object.
#[derive(Clone, Debug)]
pub struct ShortestPathRelease {
    topo: Topology,
    released: EdgeWeights,
    params: ShortestPathParams,
    shift_amount: f64,
}

impl ShortestPathRelease {
    /// The released (noisy, shifted, clamped-at-zero) weights.
    pub fn released_weights(&self) -> &EdgeWeights {
        &self.released
    }

    /// The shift added to every edge
    /// (`(s / eps) * ln(E / gamma)`, or 0 if disabled).
    pub fn shift_amount(&self) -> f64 {
        self.shift_amount
    }

    /// The public topology the release answers queries on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The parameters the release was produced with.
    pub fn params(&self) -> &ShortestPathParams {
        &self.params
    }

    /// Reassembles a release from stored parts (see the engine's
    /// persistence layer). The weights must match the topology and be
    /// nonnegative (releases are stored clamped).
    ///
    /// # Errors
    /// [`CoreError::Graph`] on length mismatch;
    /// [`CoreError::InvalidParameter`] for negative stored weights or a
    /// negative shift.
    pub fn from_parts(
        topo: Topology,
        released: EdgeWeights,
        params: ShortestPathParams,
        shift_amount: f64,
    ) -> Result<Self, CoreError> {
        released.validate_for(&topo)?;
        if !released.is_nonnegative() {
            return Err(CoreError::InvalidParameter(
                "stored released weights must be nonnegative".into(),
            ));
        }
        if !shift_amount.is_finite() || shift_amount < 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "invalid stored shift amount {shift_amount}"
            )));
        }
        Ok(ShortestPathRelease {
            topo,
            released,
            params,
            shift_amount,
        })
    }

    /// The shortest-path tree from `s` in the released graph, from which
    /// paths to every target can be extracted. Prefer this over repeated
    /// [`path`](Self::path) calls when querying many targets.
    ///
    /// Runs on the calling thread's shared Dijkstra workspace: the released
    /// weights are nonnegative by construction (clamped, and re-checked in
    /// [`from_parts`](Self::from_parts)), so no per-query weight scan is
    /// needed.
    ///
    /// # Errors
    /// Returns [`CoreError::Graph`] if `s` is invalid.
    pub fn paths_from(&self, s: NodeId) -> Result<ShortestPathTree, CoreError> {
        self.topo.check_node(s)?;
        Ok(with_thread_workspace(|ws| {
            ws.run_unchecked(&self.topo, &self.released, s);
            ws.tree()
        }))
    }

    /// Shortest-path trees for a batch of sources, fanned over the default
    /// search thread pool; tree `i` is rooted at `sources[i]`. Outputs are
    /// bit-for-bit identical to repeated [`paths_from`](Self::paths_from)
    /// calls regardless of thread count.
    ///
    /// # Errors
    /// Returns [`CoreError::Graph`] if any source is invalid.
    pub fn paths_for_sources(
        &self,
        sources: &[NodeId],
    ) -> Result<Vec<ShortestPathTree>, CoreError> {
        for &s in sources {
            self.topo.check_node(s)?;
        }
        Ok(multi_source_dijkstra_unchecked(
            &self.topo,
            &self.released,
            sources,
            0,
        ))
    }

    /// Distance rows for a batch of sources (row `i` from `sources[i]`,
    /// `f64::INFINITY` for unreachable targets), fanned over the default
    /// search thread pool. The distance-only sibling of
    /// [`paths_for_sources`](Self::paths_for_sources): it skips
    /// materializing parent arrays, which is what batch distance queries
    /// want.
    ///
    /// # Errors
    /// Returns [`CoreError::Graph`] if any source is invalid.
    pub fn distances_for_sources(&self, sources: &[NodeId]) -> Result<Vec<Vec<f64>>, CoreError> {
        for &s in sources {
            self.topo.check_node(s)?;
        }
        Ok(multi_source_distances_unchecked(
            &self.topo,
            &self.released,
            sources,
            0,
        ))
    }

    /// The released path from `s` to `t`: the shortest `s`-`t` path under
    /// the released weights.
    ///
    /// # Errors
    /// Returns [`CoreError::Graph`] for invalid endpoints or a
    /// [`privpath_graph::GraphError::Disconnected`] pair.
    pub fn path(&self, s: NodeId, t: NodeId) -> Result<Path, CoreError> {
        self.topo.check_node(t)?;
        let tree = self.paths_from(s)?;
        tree.path_to(t)
            .ok_or(CoreError::Graph(privpath_graph::GraphError::Disconnected {
                from: s,
                to: t,
            }))
    }

    /// The `s`-`t` distance in the released graph. Biased upward by about
    /// `hops * shift_amount`; prefer dedicated distance mechanisms
    /// (Section 4) when the *value* rather than the *route* matters.
    ///
    /// # Errors
    /// Same conditions as [`path`](Self::path).
    pub fn estimated_distance(&self, s: NodeId, t: NodeId) -> Result<f64, CoreError> {
        self.topo.check_node(s)?;
        self.topo.check_node(t)?;
        // Distance-only query: skip materializing the tree's parent arrays.
        with_thread_workspace(|ws| {
            ws.run_unchecked(&self.topo, &self.released, s);
            ws.distance(t)
        })
        .ok_or(CoreError::Graph(privpath_graph::GraphError::Disconnected {
            from: s,
            to: t,
        }))
    }
}

/// Runs Algorithm 3 with an explicit noise source (tests use
/// [`privpath_dp::ZeroNoise`] / [`privpath_dp::RecordingNoise`]).
///
/// # Errors
/// * [`CoreError::Graph`] for weight/topology mismatches.
/// * [`CoreError::InvalidParameter`] via [`ShortestPathParams`].
pub fn private_shortest_paths_with(
    topo: &Topology,
    weights: &EdgeWeights,
    params: &ShortestPathParams,
    noise: &mut impl NoiseSource,
) -> Result<ShortestPathRelease, CoreError> {
    weights.validate_for(topo)?;
    let e_count = topo.num_edges();
    let b = params.scale.value() / params.eps.value();
    let shift_amount = if params.shift && e_count > 0 {
        b * ((e_count as f64) / params.gamma).ln().max(0.0)
    } else {
        0.0
    };
    let released = weights
        .map(|_, w| w + noise.laplace(b) + shift_amount)
        .clamp_nonnegative();
    Ok(ShortestPathRelease {
        topo: topo.clone(),
        released,
        params: *params,
        shift_amount,
    })
}

/// Runs Algorithm 3 drawing noise from `rng`.
///
/// # Errors
/// Same conditions as [`private_shortest_paths_with`].
pub fn private_shortest_paths(
    topo: &Topology,
    weights: &EdgeWeights,
    params: &ShortestPathParams,
    rng: &mut impl Rng,
) -> Result<ShortestPathRelease, CoreError> {
    // privlint: allow(budget-discipline, "rng-to-NoiseSource adapter in the paper-level convenience API; budgeted callers reach the *_with variant through the engine, which debits before running")
    let mut noise = RngNoise::new(rng);
    private_shortest_paths_with(topo, weights, params, &mut noise)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_dp::{RecordingNoise, ZeroNoise};
    use privpath_graph::algo::dijkstra;
    use privpath_graph::generators::{path_graph, planted_path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn zero_noise_without_shift_reproduces_true_shortest_paths() {
        let mut rng = StdRng::seed_from_u64(1);
        let planted = planted_path_graph(6, 12, &mut rng);
        let params = ShortestPathParams::new(eps(1.0), 0.05)
            .unwrap()
            .without_shift();
        let release =
            private_shortest_paths_with(&planted.topo, &planted.weights, &params, &mut ZeroNoise)
                .unwrap();
        let path = release.path(planted.s, planted.t).unwrap();
        assert_eq!(path.edges(), planted.planted_edges.as_slice());
        assert_eq!(release.shift_amount(), 0.0);
    }

    #[test]
    fn zero_noise_with_shift_selects_shifted_argmin() {
        // With zero noise the release is exactly Dijkstra on `w + shift`:
        // the shift penalizes every hop uniformly, so the selected route is
        // the argmin of `true weight + hops * shift` — which may legally
        // differ from the planted path when a low-hop heavy detour exists.
        let mut rng = StdRng::seed_from_u64(2);
        let planted = planted_path_graph(5, 10, &mut rng);
        let params = ShortestPathParams::new(eps(1.0), 0.05).unwrap();
        let release =
            private_shortest_paths_with(&planted.topo, &planted.weights, &params, &mut ZeroNoise)
                .unwrap();
        let path = release.path(planted.s, planted.t).unwrap();
        let shift = release.shift_amount();
        let shifted = planted.weights.map(|_, w| w + shift);
        let expected = dijkstra(&planted.topo, &shifted, planted.s)
            .unwrap()
            .path_to(planted.t)
            .unwrap();
        assert_eq!(path.edges(), expected.edges());
        // The chosen route's shifted cost never exceeds the planted
        // optimum's shifted cost (zero-noise Theorem 5.5).
        let true_weight = planted.weights.path_weight(&path);
        assert!(
            true_weight + path.hops() as f64 * shift
                <= planted.planted_weight + planted.hops as f64 * shift + 1e-9
        );
    }

    #[test]
    fn noise_draw_count_and_scale_match_analysis() {
        // Algorithm 3 draws exactly E Laplace variables at scale s/eps.
        let topo = path_graph(10);
        let w = EdgeWeights::constant(topo.num_edges(), 1.0);
        let params = ShortestPathParams::new(eps(0.5), 0.1).unwrap();
        let mut rec = RecordingNoise::new(ZeroNoise);
        let _ = private_shortest_paths_with(&topo, &w, &params, &mut rec).unwrap();
        assert_eq!(rec.len(), topo.num_edges());
        for &(scale, _) in rec.draws() {
            assert!((scale - 2.0).abs() < 1e-12); // 1 / 0.5
        }
    }

    #[test]
    fn shift_amount_matches_formula() {
        let topo = path_graph(5); // E = 4
        let w = EdgeWeights::constant(4, 1.0);
        let params = ShortestPathParams::new(eps(2.0), 0.1).unwrap();
        let release = private_shortest_paths_with(&topo, &w, &params, &mut ZeroNoise).unwrap();
        let expected = (1.0 / 2.0) * (4.0f64 / 0.1).ln();
        assert!((release.shift_amount() - expected).abs() < 1e-12);
        // Released weights = true + shift under zero noise.
        for (_, rw) in release.released_weights().iter() {
            assert!((rw - (1.0 + expected)).abs() < 1e-12);
        }
    }

    #[test]
    fn neighbor_scale_multiplies_noise_and_shift() {
        let topo = path_graph(4);
        let w = EdgeWeights::constant(3, 1.0);
        let params = ShortestPathParams::new(eps(1.0), 0.1)
            .unwrap()
            .with_scale(NeighborScale::new(4.0).unwrap());
        let mut rec = RecordingNoise::new(ZeroNoise);
        let release = private_shortest_paths_with(&topo, &w, &params, &mut rec).unwrap();
        for &(scale, _) in rec.draws() {
            assert!((scale - 4.0).abs() < 1e-12);
        }
        let expected_shift = 4.0 * (3.0f64 / 0.1).ln();
        assert!((release.shift_amount() - expected_shift).abs() < 1e-12);
    }

    #[test]
    fn released_weights_are_nonnegative_even_with_heavy_noise() {
        let topo = path_graph(50);
        let w = EdgeWeights::zeros(topo.num_edges());
        let params = ShortestPathParams::new(eps(0.1), 0.5)
            .unwrap()
            .without_shift();
        let mut rng = StdRng::seed_from_u64(3);
        let release = private_shortest_paths(&topo, &w, &params, &mut rng).unwrap();
        assert!(release.released_weights().is_nonnegative());
    }

    #[test]
    fn utility_bound_holds_with_high_probability() {
        // Theorem 5.5 at 1 - gamma: released path error <= (2k/eps) ln(E/gamma).
        let mut rng = StdRng::seed_from_u64(4);
        let mut violations = 0;
        let trials = 40;
        for t in 0..trials {
            let planted = planted_path_graph(8, 30, &mut rng);
            let params = ShortestPathParams::new(eps(1.0), 0.1).unwrap();
            let mut trial_rng = StdRng::seed_from_u64(1000 + t);
            let release =
                private_shortest_paths(&planted.topo, &planted.weights, &params, &mut trial_rng)
                    .unwrap();
            let path = release.path(planted.s, planted.t).unwrap();
            let err = planted.weights.path_weight(&path) - planted.planted_weight;
            let bound =
                crate::bounds::thm55_path_error(planted.hops, 1.0, planted.topo.num_edges(), 0.1);
            if err > bound {
                violations += 1;
            }
        }
        // gamma = 0.1; allow generous slack on 40 trials.
        assert!(violations <= 10, "{violations}/{trials} bound violations");
    }

    #[test]
    fn queries_are_postprocessing() {
        // Two different queries on the same release agree on shared
        // sub-paths (deterministic post-processing, no fresh noise).
        let topo = path_graph(6);
        let w = EdgeWeights::constant(5, 1.0);
        let params = ShortestPathParams::new(eps(1.0), 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let release = private_shortest_paths(&topo, &w, &params, &mut rng).unwrap();
        let p1 = release.path(NodeId::new(0), NodeId::new(5)).unwrap();
        let p2 = release.path(NodeId::new(0), NodeId::new(5)).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn disconnected_query_errors() {
        let mut b = Topology::builder(3);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        let topo = b.build();
        let w = EdgeWeights::constant(1, 1.0);
        let params = ShortestPathParams::new(eps(1.0), 0.1).unwrap();
        let release = private_shortest_paths_with(&topo, &w, &params, &mut ZeroNoise).unwrap();
        assert!(release.path(NodeId::new(0), NodeId::new(2)).is_err());
        assert!(release
            .estimated_distance(NodeId::new(0), NodeId::new(2))
            .is_err());
    }

    #[test]
    fn invalid_gamma_rejected() {
        assert!(ShortestPathParams::new(eps(1.0), 0.0).is_err());
        assert!(ShortestPathParams::new(eps(1.0), 1.0).is_err());
    }

    #[test]
    fn weight_mismatch_rejected() {
        let topo = path_graph(4);
        let w = EdgeWeights::zeros(7);
        let params = ShortestPathParams::new(eps(1.0), 0.1).unwrap();
        assert!(private_shortest_paths_with(&topo, &w, &params, &mut ZeroNoise).is_err());
    }
}
