//! The [`Mechanism`] trait: one uniform surface over every DP release
//! algorithm in the codebase.
//!
//! A mechanism consumes the public topology, the private weights, its
//! parameters, and a noise source, and produces a release object. Every
//! mechanism also *declares its privacy cost up front* via
//! [`Mechanism::privacy_cost`], which is what lets the
//! [`ReleaseEngine`](crate::ReleaseEngine) debit an
//! [`Accountant`](privpath_dp::Accountant) before any noise is drawn.
//!
//! Symmetrically, every mechanism with a utility theorem *declares its
//! accuracy contract up front*: [`Mechanism::accuracy_contract`] names
//! the paper theorem and its structural inputs,
//! [`Mechanism::error_bound`] evaluates it at a confidence, and
//! [`Mechanism::calibrate`] inverts it — the smallest epsilon whose
//! bound meets a requested [`ErrorTarget`]. Privacy cost and accuracy
//! are the two halves of the engine's declarative release surface.
//!
//! All seven paper mechanisms (Algorithms 1–3, the bounded-weight release,
//! MST, matching, and the Section 4 baselines) plus the heavy-path
//! extension and the [`ShortcutApsp`] hierarchical shortcut mechanism
//! (related work: CNX-style shortcutting for bounded weights) implement
//! the trait; the conformance test suite runs each one with
//! [`privpath_dp::ZeroNoise`] (exactness) and
//! [`privpath_dp::RecordingNoise`] (noise audit vs. the declared cost),
//! and the accuracy-audit suite measures every mechanism's observed
//! error against its declared contract.

use crate::error::EngineError;
use crate::release::ReleaseKind;
use privpath_core::baselines::{
    all_pairs_advanced_composition, all_pairs_basic_composition, synthetic_graph_release,
    AllPairsDistanceRelease, SyntheticGraphRelease,
};
use privpath_core::bounded::{
    bounded_weight_all_pairs_with, BoundedWeightParams, BoundedWeightRelease, CoveringStrategy,
};
use privpath_core::bounds::{log2_ceil, AccuracyContract, ErrorBound, ErrorTarget};
use privpath_core::matching::{
    private_matching_objective_with, MatchingObjective, MatchingParams, MatchingRelease,
};
use privpath_core::model::NeighborScale;
use privpath_core::mst::{private_mst_with, MstParams, MstRelease};
use privpath_core::shortcut::{
    build_plan, plan_noise_scale, shortcut_apsp_with, ShortcutApspParams, ShortcutApspRelease,
    ShortcutPlan,
};
use privpath_core::shortest_path::{
    private_shortest_paths_with, ShortestPathParams, ShortestPathRelease,
};
use privpath_core::tree_distance::{
    tree_all_pairs_distances_with, TreeAllPairsRelease, TreeDistanceParams,
};
use privpath_core::tree_hld::{hld_tree_all_pairs_with, HldTreeRelease};
use privpath_dp::calibration::{invert_shifted_union_bound, solve_min_eps};
use privpath_dp::composition::{advanced_composition_epsilon, per_query_epsilon};
use privpath_dp::{Delta, Epsilon, NoiseSource, RngNoise};
use privpath_graph::covering::greedy_covering;
use privpath_graph::{EdgeWeights, Topology};
use rand::Rng;

/// The `(eps, delta)` a single release debits from a budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacyCost {
    eps: Epsilon,
    delta: Delta,
}

impl PrivacyCost {
    /// A pure-DP cost.
    pub fn pure(eps: Epsilon) -> Self {
        PrivacyCost {
            eps,
            delta: Delta::zero(),
        }
    }

    /// An approximate-DP cost.
    pub fn approx(eps: Epsilon, delta: Delta) -> Self {
        PrivacyCost { eps, delta }
    }

    /// The epsilon component.
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// The delta component.
    pub fn delta(&self) -> Delta {
        self.delta
    }
}

/// A differentially private release algorithm over the private-edge-weight
/// model: public `Topology`, private `EdgeWeights`.
pub trait Mechanism {
    /// The mechanism's parameter object.
    type Params;
    /// The release object the mechanism produces.
    type Release;

    /// The release kind this mechanism implements — its row in the
    /// [`ReleaseKind`] table.
    const KIND: ReleaseKind;

    /// A stable machine-readable name (used as spend labels, CLI values,
    /// and persistence kind tags): the wire name of [`KIND`](Self::KIND).
    fn name(&self) -> &'static str {
        Self::KIND.as_str()
    }

    /// The `(eps, delta)` this release will cost under `params`. Must be
    /// exact: the engine debits precisely this amount.
    fn privacy_cost(&self, params: &Self::Params) -> PrivacyCost;

    /// The same parameters at a different privacy budget. Calibration
    /// uses this to re-evaluate the bound while solving for the smallest
    /// epsilon; every other knob (confidence, scale, covering strategy,
    /// ...) is carried over unchanged.
    fn with_eps(&self, params: &Self::Params, eps: Epsilon) -> Self::Params;

    /// The accuracy contract this release will honor under `params` over
    /// `topo` — the paper theorem plus its structural inputs — or `None`
    /// for mechanisms without a utility theorem. The contract depends on
    /// the **public** topology only, so declaring it costs no privacy.
    fn accuracy_contract(&self, topo: &Topology, params: &Self::Params)
        -> Option<AccuracyContract>;

    /// The evaluated per-query error bound at failure probability
    /// `gamma`: with probability at least `1 - gamma`, every query
    /// answered from the release errs by at most
    /// [`ErrorBound::alpha`].
    fn error_bound(
        &self,
        topo: &Topology,
        params: &Self::Params,
        gamma: f64,
    ) -> Option<ErrorBound> {
        self.accuracy_contract(topo, params)?.evaluate(gamma)
    }

    /// The smallest epsilon whose [`error_bound`](Self::error_bound)
    /// meets `target` — the inverse of the accuracy theorem, solved on
    /// the closed-form bound (linear `C / eps` bounds invert in two
    /// evaluations; eps-dependent structure falls back to bisection).
    /// `params` supplies every non-epsilon knob. Returns `None` when the
    /// mechanism has no contract or no epsilon attains the target (e.g.
    /// a bounded-weight detour floor above `alpha`).
    fn calibrate(
        &self,
        topo: &Topology,
        params: &Self::Params,
        target: &ErrorTarget,
    ) -> Option<Epsilon> {
        solve_calibration(self, topo, params, target)
    }

    /// Runs the mechanism with an explicit noise source.
    ///
    /// # Errors
    /// Mechanism-specific; see each implementation.
    fn release_with(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<Self::Release, EngineError>;

    /// Runs the mechanism drawing noise from `rng`.
    ///
    /// # Errors
    /// Same conditions as [`release_with`](Self::release_with).
    fn release(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        rng: &mut impl Rng,
    ) -> Result<Self::Release, EngineError> {
        let mut noise = RngNoise::new(rng);
        self.release_with(topo, weights, params, &mut noise)
    }
}

/// The generic solver behind [`Mechanism::calibrate`]: bisect (with a
/// linear fast path) on the mechanism's own `error_bound` over
/// reparameterized candidates. Free-standing so calibrate overrides can
/// delegate to it after preprocessing their parameters.
fn solve_calibration<M: Mechanism + ?Sized>(
    mechanism: &M,
    topo: &Topology,
    params: &M::Params,
    target: &ErrorTarget,
) -> Option<Epsilon> {
    let cal = solve_min_eps(
        |e| {
            let eps = Epsilon::new(e).ok()?;
            let candidate = mechanism.with_eps(params, eps);
            Some(
                mechanism
                    .error_bound(topo, &candidate, target.gamma())?
                    .alpha(),
            )
        },
        target.alpha(),
    )?;
    Epsilon::new(cal.eps).ok()
}

/// Algorithm 3: private shortest paths (Section 5.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShortestPaths;

impl Mechanism for ShortestPaths {
    type Params = ShortestPathParams;
    type Release = ShortestPathRelease;

    const KIND: ReleaseKind = ReleaseKind::ShortestPath;

    fn privacy_cost(&self, params: &Self::Params) -> PrivacyCost {
        PrivacyCost::pure(params.eps())
    }

    fn with_eps(&self, params: &Self::Params, eps: Epsilon) -> Self::Params {
        params.with_eps(eps)
    }

    fn accuracy_contract(
        &self,
        topo: &Topology,
        params: &Self::Params,
    ) -> Option<AccuracyContract> {
        // With the shift the bound is Corollary 5.6 exactly; without it
        // the error degrades *to* the same worst-case form (module docs
        // of `privpath_core::shortest_path`), so one contract covers
        // both configurations.
        Some(AccuracyContract::WorstCasePath {
            v: topo.num_nodes(),
            num_edges: topo.num_edges(),
            eps_eff: params.eps().value() / params.scale().value(),
        })
    }

    fn release_with(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<Self::Release, EngineError> {
        Ok(private_shortest_paths_with(topo, weights, params, noise)?)
    }
}

/// Algorithm 1 + Theorem 4.2: all-pairs distances on trees.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeAllPairs;

impl Mechanism for TreeAllPairs {
    type Params = TreeDistanceParams;
    type Release = TreeAllPairsRelease;

    const KIND: ReleaseKind = ReleaseKind::Tree;

    fn privacy_cost(&self, params: &Self::Params) -> PrivacyCost {
        PrivacyCost::pure(params.eps())
    }

    fn with_eps(&self, params: &Self::Params, eps: Epsilon) -> Self::Params {
        params.with_eps(eps)
    }

    fn accuracy_contract(
        &self,
        topo: &Topology,
        params: &Self::Params,
    ) -> Option<AccuracyContract> {
        Some(tree_contract(topo, params, false))
    }

    fn release_with(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<Self::Release, EngineError> {
        Ok(tree_all_pairs_distances_with(topo, weights, params, noise)?)
    }
}

/// Theorem 4.2's a-priori contract: depth at most `ceil(log2 V)` (both
/// the Algorithm 1 decomposition and the heavy-path ablation obey it),
/// per-query noise scale `depth * s / eps`.
fn tree_contract(topo: &Topology, params: &TreeDistanceParams, hld: bool) -> AccuracyContract {
    let v = topo.num_nodes();
    let depth = log2_ceil(v);
    AccuracyContract::TreeAllPairs {
        v,
        depth,
        noise_scale: depth as f64 * params.scale().value() / params.eps().value(),
        hld,
    }
}

/// The heavy-path-decomposition tree mechanism (extension ablation of
/// Algorithm 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct HldTree;

impl Mechanism for HldTree {
    type Params = TreeDistanceParams;
    type Release = HldTreeRelease;

    const KIND: ReleaseKind = ReleaseKind::HldTree;

    fn privacy_cost(&self, params: &Self::Params) -> PrivacyCost {
        PrivacyCost::pure(params.eps())
    }

    fn with_eps(&self, params: &Self::Params, eps: Epsilon) -> Self::Params {
        params.with_eps(eps)
    }

    fn accuracy_contract(
        &self,
        topo: &Topology,
        params: &Self::Params,
    ) -> Option<AccuracyContract> {
        Some(tree_contract(topo, params, true))
    }

    fn release_with(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<Self::Release, EngineError> {
        Ok(hld_tree_all_pairs_with(topo, weights, params, noise)?)
    }
}

/// Algorithm 2: all-pairs distances for bounded-weight graphs
/// (Theorems 4.3/4.5/4.6/4.7).
#[derive(Clone, Copy, Debug, Default)]
pub struct BoundedWeight;

impl Mechanism for BoundedWeight {
    type Params = BoundedWeightParams;
    type Release = BoundedWeightRelease;

    const KIND: ReleaseKind = ReleaseKind::BoundedWeight;

    fn privacy_cost(&self, params: &Self::Params) -> PrivacyCost {
        PrivacyCost::approx(params.eps(), params.delta())
    }

    fn with_eps(&self, params: &Self::Params, eps: Epsilon) -> Self::Params {
        params.clone().with_eps(eps)
    }

    fn accuracy_contract(
        &self,
        topo: &Topology,
        params: &Self::Params,
    ) -> Option<AccuracyContract> {
        let v = topo.num_nodes();
        // The covering size: Lemma 4.4's guarantee |Z| <= V / (k + 1)
        // where a Meir–Moon construction backs the theorem; the actual
        // center count where the caller pinned the covering (the greedy
        // heuristic carries no a-priori size bound, so it is run on the
        // public topology — no privacy is spent).
        let (k, z) = match params.strategy() {
            CoveringStrategy::AutoK => {
                let k = params.auto_k(v);
                (k, (v / (k + 1)).max(1))
            }
            CoveringStrategy::MeirMoon { k } => (*k, (v / (k + 1)).max(1)),
            CoveringStrategy::Custom { centers, k } => (*k, centers.len().max(1)),
            CoveringStrategy::Greedy { k } => (*k, greedy_covering(topo, *k).ok()?.len().max(1)),
        };
        let num_released = z * (z - 1) / 2;
        let s = params.scale().value();
        let noise_scale = if num_released == 0 {
            s / params.eps().value()
        } else if params.delta().is_pure() {
            // Theorem 4.6: basic composition over the released vector.
            s * num_released as f64 / params.eps().value()
        } else {
            // Theorem 4.5: invert advanced composition per query.
            let per = per_query_epsilon(params.eps(), num_released, params.delta().value()).ok()?;
            s / per.value()
        };
        Some(AccuracyContract::BoundedWeight {
            k,
            max_weight: params.max_weight(),
            noise_scale,
            num_released,
            pure: params.delta().is_pure(),
        })
    }

    fn calibrate(
        &self,
        topo: &Topology,
        params: &Self::Params,
        target: &ErrorTarget,
    ) -> Option<Epsilon> {
        // The greedy covering is epsilon-independent (k is fixed), but
        // the generic solver rebuilds the contract — and would re-run
        // the covering construction — on every bound evaluation. Pin
        // the centers once and solve on the equivalent Custom strategy.
        if let CoveringStrategy::Greedy { k } = params.strategy() {
            let k = *k;
            let centers = greedy_covering(topo, k).ok()?;
            let pinned = params
                .clone()
                .with_strategy(CoveringStrategy::Custom { centers, k });
            return solve_calibration(self, topo, &pinned, target);
        }
        solve_calibration(self, topo, params, target)
    }

    fn release_with(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<Self::Release, EngineError> {
        Ok(bounded_weight_all_pairs_with(topo, weights, params, noise)?)
    }
}

/// Appendix B.1: private almost-minimum spanning tree.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mst;

impl Mechanism for Mst {
    type Params = MstParams;
    type Release = MstRelease;

    const KIND: ReleaseKind = ReleaseKind::Mst;

    fn privacy_cost(&self, params: &Self::Params) -> PrivacyCost {
        PrivacyCost::pure(params.eps())
    }

    fn with_eps(&self, params: &Self::Params, eps: Epsilon) -> Self::Params {
        params.with_eps(eps)
    }

    fn accuracy_contract(
        &self,
        topo: &Topology,
        params: &Self::Params,
    ) -> Option<AccuracyContract> {
        Some(AccuracyContract::Mst {
            v: topo.num_nodes(),
            num_edges: topo.num_edges(),
            eps_eff: params.eps().value() / params.scale().value(),
        })
    }

    fn release_with(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<Self::Release, EngineError> {
        Ok(private_mst_with(topo, weights, params, noise)?)
    }
}

/// Appendix B.2: private low-weight matching, with a selectable objective.
#[derive(Clone, Copy, Debug)]
pub struct Matching {
    /// The matching objective to optimize (the paper's results carry over
    /// to all four variants).
    pub objective: MatchingObjective,
}

impl Default for Matching {
    fn default() -> Self {
        Matching {
            objective: MatchingObjective::MinPerfect,
        }
    }
}

impl Mechanism for Matching {
    type Params = MatchingParams;
    type Release = MatchingRelease;

    const KIND: ReleaseKind = ReleaseKind::Matching;

    fn privacy_cost(&self, params: &Self::Params) -> PrivacyCost {
        PrivacyCost::pure(params.eps())
    }

    fn with_eps(&self, params: &Self::Params, eps: Epsilon) -> Self::Params {
        params.with_eps(eps)
    }

    fn accuracy_contract(
        &self,
        topo: &Topology,
        params: &Self::Params,
    ) -> Option<AccuracyContract> {
        Some(AccuracyContract::Matching {
            v: topo.num_nodes(),
            num_edges: topo.num_edges(),
            eps_eff: params.eps().value() / params.scale().value(),
        })
    }

    fn release_with(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<Self::Release, EngineError> {
        Ok(private_matching_objective_with(
            topo,
            weights,
            params,
            self.objective,
            noise,
        )?)
    }
}

/// The CNX-style hierarchical shortcut mechanism for bounded-weight
/// graphs (related-work extension): a ladder of coverings whose top
/// level is Algorithm 2's balanced covering and whose finer levels
/// release hop-local shortcuts, so close pairs pay a detour
/// proportional to their own hop distance. The first mechanism in the
/// registry whose headline claim is *beating* a baseline
/// ([`AllPairsBaseline`]) rather than matching a paper theorem — the
/// accuracy-audit test suite measures exactly that.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShortcutApsp;

/// The shortcut contract a plan implies under `params`.
fn shortcut_contract(plan: &ShortcutPlan, params: &ShortcutApspParams) -> Option<AccuracyContract> {
    Some(AccuracyContract::ShortcutApsp {
        levels: plan.levels.len(),
        k_top: plan.k_top,
        max_weight: params.max_weight(),
        noise_scale: plan_noise_scale(plan, params).ok()?,
        num_released: plan.num_released,
    })
}

impl Mechanism for ShortcutApsp {
    type Params = ShortcutApspParams;
    type Release = ShortcutApspRelease;

    const KIND: ReleaseKind = ReleaseKind::ShortcutApsp;

    fn privacy_cost(&self, params: &Self::Params) -> PrivacyCost {
        PrivacyCost::approx(params.eps(), params.delta())
    }

    fn with_eps(&self, params: &Self::Params, eps: Epsilon) -> Self::Params {
        params.clone().with_eps(eps)
    }

    fn accuracy_contract(
        &self,
        topo: &Topology,
        params: &Self::Params,
    ) -> Option<AccuracyContract> {
        // The plan (coverings, local pair sets) is a function of the
        // public topology only — declaring the contract costs nothing.
        shortcut_contract(&build_plan(topo, params).ok()?, params)
    }

    fn calibrate(
        &self,
        topo: &Topology,
        params: &Self::Params,
        target: &ErrorTarget,
    ) -> Option<Epsilon> {
        // The bound is `2 k_top M + b ln(N / gamma)` where only `b`
        // moves smoothly with eps; `k_top` and `N` move in steps (the
        // balanced radius is eps-dependent). Fixed-point on the closed
        // form: invert the shifted union bound for the required scale,
        // map it back to a total epsilon under the plan's composition,
        // rebuild the plan there, and accept once the structure stops
        // moving and the realized bound verifies. Falls back to the
        // generic bisection when the structure oscillates or the target
        // sits below the current plan's detour floor (a coarser plan at
        // a larger eps may still attain it).
        let fixed_point = || -> Option<Epsilon> {
            let mut eps = params.eps();
            for _ in 0..8 {
                let candidate = self.with_eps(params, eps);
                let plan = build_plan(topo, &candidate).ok()?;
                let floor = 2.0 * plan.k_top as f64 * params.max_weight();
                let n = plan.num_released.max(1);
                let b =
                    invert_shifted_union_bound(target.alpha(), floor, n, target.gamma()).ok()?;
                let next = if params.delta().is_pure() {
                    Epsilon::new(params.scale().value() * n as f64 / b).ok()?
                } else {
                    let per = Epsilon::new(params.scale().value() / b).ok()?;
                    Epsilon::new(advanced_composition_epsilon(per, n, params.delta().value()).ok()?)
                        .ok()?
                };
                let solved = self.with_eps(params, next);
                let check = build_plan(topo, &solved).ok()?;
                if check.k_top == plan.k_top && check.num_released == plan.num_released {
                    let bound = shortcut_contract(&check, &solved)?.bound_at(target.gamma())?;
                    if bound <= target.alpha() + 1e-9 {
                        return Some(next);
                    }
                }
                eps = next;
            }
            None
        };
        fixed_point().or_else(|| solve_calibration(self, topo, params, target))
    }

    fn release_with(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<Self::Release, EngineError> {
        Ok(shortcut_apsp_with(topo, weights, params, noise)?)
    }
}

/// Parameters for the [`SyntheticGraph`] baseline.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticGraphParams {
    eps: Epsilon,
    scale: NeighborScale,
}

impl SyntheticGraphParams {
    /// Privacy `eps` at unit neighbor scale.
    pub fn new(eps: Epsilon) -> Self {
        SyntheticGraphParams {
            eps,
            scale: NeighborScale::unit(),
        }
    }

    /// Overrides the neighbor scale.
    pub fn with_scale(mut self, scale: NeighborScale) -> Self {
        self.scale = scale;
        self
    }

    /// The same parameters at a different privacy budget.
    pub fn with_eps(mut self, eps: Epsilon) -> Self {
        self.eps = eps;
        self
    }

    /// The privacy parameter.
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// The neighbor scale.
    pub fn scale(&self) -> NeighborScale {
        self.scale
    }
}

/// The Laplace synthetic-graph baseline (Section 4's opening discussion;
/// Algorithm 3 without its shift).
#[derive(Clone, Copy, Debug, Default)]
pub struct SyntheticGraph;

impl Mechanism for SyntheticGraph {
    type Params = SyntheticGraphParams;
    type Release = SyntheticGraphRelease;

    const KIND: ReleaseKind = ReleaseKind::SyntheticGraph;

    fn privacy_cost(&self, params: &Self::Params) -> PrivacyCost {
        PrivacyCost::pure(params.eps())
    }

    fn with_eps(&self, params: &Self::Params, eps: Epsilon) -> Self::Params {
        params.with_eps(eps)
    }

    fn accuracy_contract(
        &self,
        topo: &Topology,
        params: &Self::Params,
    ) -> Option<AccuracyContract> {
        // Algorithm 3 without its shift: the simultaneous worst-case
        // bound has the same Corollary 5.6 form.
        Some(AccuracyContract::WorstCasePath {
            v: topo.num_nodes(),
            num_edges: topo.num_edges(),
            eps_eff: params.eps().value() / params.scale().value(),
        })
    }

    fn release_with(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<Self::Release, EngineError> {
        Ok(synthetic_graph_release(
            topo,
            weights,
            params.eps(),
            params.scale(),
            noise,
        )?)
    }
}

/// Parameters for the [`AllPairsBaseline`] mechanism.
#[derive(Clone, Copy, Debug)]
pub struct AllPairsBaselineParams {
    eps: Epsilon,
    delta: Delta,
    scale: NeighborScale,
}

impl AllPairsBaselineParams {
    /// Basic composition (pure DP, Lemma 3.3): noise scale
    /// `V(V-1)/2 / eps` per pair.
    pub fn basic(eps: Epsilon) -> Self {
        AllPairsBaselineParams {
            eps,
            delta: Delta::zero(),
            scale: NeighborScale::unit(),
        }
    }

    /// Advanced composition (`(eps, delta)`-DP, Lemma 3.4).
    ///
    /// # Errors
    /// [`EngineError::Core`] for `delta = 0` (use [`basic`](Self::basic)).
    pub fn advanced(eps: Epsilon, delta: Delta) -> Result<Self, EngineError> {
        if delta.is_pure() {
            return Err(EngineError::Core(
                privpath_core::CoreError::InvalidParameter(
                    "advanced composition requires delta > 0".into(),
                ),
            ));
        }
        Ok(AllPairsBaselineParams {
            eps,
            delta,
            scale: NeighborScale::unit(),
        })
    }

    /// Overrides the neighbor scale.
    pub fn with_scale(mut self, scale: NeighborScale) -> Self {
        self.scale = scale;
        self
    }

    /// The same parameters at a different privacy budget.
    pub fn with_eps(mut self, eps: Epsilon) -> Self {
        self.eps = eps;
        self
    }

    /// The privacy parameter.
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// The privacy parameter delta (zero selects basic composition).
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// The neighbor scale.
    pub fn scale(&self) -> NeighborScale {
        self.scale
    }
}

/// The generic all-pairs composition baseline (Section 4's opening
/// discussion): release every pairwise distance under basic or advanced
/// composition.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllPairsBaseline;

impl Mechanism for AllPairsBaseline {
    type Params = AllPairsBaselineParams;
    type Release = AllPairsDistanceRelease;

    const KIND: ReleaseKind = ReleaseKind::AllPairsBaseline;

    fn privacy_cost(&self, params: &Self::Params) -> PrivacyCost {
        PrivacyCost::approx(params.eps(), params.delta())
    }

    fn with_eps(&self, params: &Self::Params, eps: Epsilon) -> Self::Params {
        params.with_eps(eps)
    }

    fn accuracy_contract(
        &self,
        topo: &Topology,
        params: &Self::Params,
    ) -> Option<AccuracyContract> {
        let n = topo.num_nodes();
        let num_released = n * n.saturating_sub(1) / 2;
        let s = params.scale().value();
        let advanced = !params.delta().is_pure();
        let noise_scale = if num_released == 0 {
            s / params.eps().value()
        } else if advanced {
            let per = per_query_epsilon(params.eps(), num_released, params.delta().value()).ok()?;
            s / per.value()
        } else {
            s * num_released as f64 / params.eps().value()
        };
        Some(AccuracyContract::Composition {
            num_released,
            noise_scale,
            advanced,
        })
    }

    fn release_with(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        params: &Self::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<Self::Release, EngineError> {
        if params.delta().is_pure() {
            Ok(all_pairs_basic_composition(
                topo,
                weights,
                params.eps(),
                params.scale(),
                noise,
            )?)
        } else {
            Ok(all_pairs_advanced_composition(
                topo,
                weights,
                params.eps(),
                params.delta(),
                params.scale(),
                noise,
            )?)
        }
    }
}
