//! The [`ReleaseEngine`]: one weight database, many budget-accounted
//! releases, one registry to query them from.
//!
//! The engine owns the public topology and the private weights, debits an
//! [`Accountant`] for every release (basic composition, Lemma 3.3), and
//! registers each release object under a [`ReleaseId`] so callers can
//! serve `distance` / `distance_batch` / `path` queries — or persist any
//! release — without ever touching the private weights again.

use crate::error::EngineError;
use crate::mechanism::Mechanism;
use crate::release::{AnyRelease, DistanceRelease, ReleaseKind};
use crate::service::QueryService;
use privpath_core::bounds::{AccuracyContract, ErrorBound, ErrorTarget};
use privpath_dp::{Accountant, Delta, Epsilon, NoiseSource, RngNoise};
use privpath_graph::{EdgeWeights, Topology};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Records one timed mechanism run. Only the mechanism's public name
/// and the elapsed wall time reach the registry — never the weights or
/// the release contents.
fn record_release_timing(mechanism_name: &str, seconds: f64) {
    if !privpath_obs::enabled() {
        return;
    }
    let reg = privpath_obs::MetricRegistry::global();
    reg.counter_with("engine_releases_total", &[("mechanism", mechanism_name)])
        .inc();
    reg.histogram_with("engine_release_seconds", &[("mechanism", mechanism_name)])
        .observe(seconds);
}

/// A registry handle for one release held by a [`ReleaseEngine`].
///
/// Renders as `r<N>` (e.g. `r3`) and parses back from the same form, so
/// the CLI and the wire protocol share one id syntax:
///
/// ```
/// use privpath_engine::ReleaseId;
/// let id: ReleaseId = "r3".parse()?;
/// assert_eq!(id.value(), 3);
/// assert_eq!(id.to_string().parse::<ReleaseId>()?, id);
/// # Ok::<(), privpath_engine::ParseReleaseIdError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReleaseId(u64);

impl ReleaseId {
    /// A handle for a raw id value (used by stores replaying a manifest
    /// that recorded ids explicitly; within one engine, ids come from the
    /// engine itself).
    pub fn new(value: u64) -> Self {
        ReleaseId(value)
    }

    /// The raw numeric id.
    pub fn value(&self) -> u64 {
        self.0
    }

    pub(crate) fn from_value(value: u64) -> Self {
        ReleaseId(value)
    }
}

impl std::fmt::Display for ReleaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Error parsing a [`ReleaseId`] from text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseReleaseIdError {
    input: String,
}

impl std::fmt::Display for ParseReleaseIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid release id {:?} (expected `r<N>`, e.g. `r0`)",
            self.input
        )
    }
}

impl std::error::Error for ParseReleaseIdError {}

impl std::str::FromStr for ReleaseId {
    type Err = ParseReleaseIdError;

    /// Accepts the canonical `r<N>` form produced by `Display`, or a bare
    /// numeral for convenience at the CLI.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s.strip_prefix('r').unwrap_or(s);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseReleaseIdError { input: s.into() });
        }
        digits
            .parse::<u64>()
            .map(ReleaseId)
            .map_err(|_| ParseReleaseIdError { input: s.into() })
    }
}

/// A registered release plus its accounting metadata and the accuracy
/// contract declared at release time.
#[derive(Clone, Debug)]
pub struct ReleaseRecord {
    id: ReleaseId,
    label: String,
    eps: f64,
    delta: f64,
    accuracy: Option<AccuracyContract>,
    release: AnyRelease,
}

impl ReleaseRecord {
    /// The registry id.
    pub fn id(&self) -> ReleaseId {
        self.id
    }

    /// The spend label recorded in the accountant.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The release's kind.
    pub fn kind(&self) -> ReleaseKind {
        self.release.kind()
    }

    /// The epsilon this release cost.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The delta this release cost.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The accuracy contract declared by the releasing mechanism
    /// (`None` for releases adopted without one).
    pub fn accuracy(&self) -> Option<&AccuracyContract> {
        self.accuracy.as_ref()
    }

    /// The contract evaluated at failure probability `gamma`: what error
    /// this release guarantees with probability `1 - gamma`.
    pub fn error_bound(&self, gamma: f64) -> Option<ErrorBound> {
        self.accuracy.as_ref()?.evaluate(gamma)
    }

    /// The release object.
    pub fn release(&self) -> &AnyRelease {
        &self.release
    }

    pub(crate) fn from_parts(
        id: ReleaseId,
        label: String,
        eps: f64,
        delta: f64,
        accuracy: Option<AccuracyContract>,
        release: AnyRelease,
    ) -> Self {
        ReleaseRecord {
            id,
            label,
            eps,
            delta,
            accuracy,
            release,
        }
    }
}

/// Owns one private weight database and composes releases over it under a
/// tracked privacy budget.
///
/// This is the exclusive **write path**: releasing mutates the ledger and
/// the registry, so it requires `&mut self`. The shared **read path** is a
/// [`QueryService`] obtained from [`snapshot`](Self::snapshot) — records
/// are stored as [`Arc<ReleaseRecord>`] precisely so a snapshot shares
/// them with zero copying and queries never contend with writers.
#[derive(Clone, Debug)]
pub struct ReleaseEngine {
    topo: Topology,
    weights: EdgeWeights,
    accountant: Accountant,
    records: BTreeMap<u64, Arc<ReleaseRecord>>,
    next_id: u64,
}

impl ReleaseEngine {
    /// An engine with an unbounded (tracking-only) budget.
    ///
    /// # Errors
    /// [`EngineError::Core`] on weight/topology mismatch.
    pub fn new(topo: Topology, weights: EdgeWeights) -> Result<Self, EngineError> {
        Self::with_accountant(topo, weights, Accountant::unbounded())
    }

    /// An engine enforcing a total `(eps, delta)` budget across all
    /// releases.
    ///
    /// # Errors
    /// [`EngineError::Core`] on weight/topology mismatch.
    pub fn with_budget(
        topo: Topology,
        weights: EdgeWeights,
        eps: Epsilon,
        delta: Delta,
    ) -> Result<Self, EngineError> {
        Self::with_accountant(topo, weights, Accountant::with_budget(eps, delta))
    }

    /// An engine over an explicit accountant (possibly carrying prior
    /// spends on the same database).
    ///
    /// # Errors
    /// [`EngineError::Core`] on weight/topology mismatch.
    pub fn with_accountant(
        topo: Topology,
        weights: EdgeWeights,
        accountant: Accountant,
    ) -> Result<Self, EngineError> {
        weights
            .validate_for(&topo)
            .map_err(privpath_core::CoreError::from)?;
        Ok(ReleaseEngine {
            topo,
            weights,
            accountant,
            records: BTreeMap::new(),
            next_id: 0,
        })
    }

    /// The public topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The private weight database.
    ///
    /// This is write-path-only surface: the engine *is* the component
    /// trusted with the private weights (it runs mechanisms over them),
    /// and live-store curators need the current vector to apply sparse
    /// updates and persist write-path state. Never expose this through a
    /// read path — [`snapshot`](Self::snapshot) deliberately carries
    /// releases only.
    pub fn weights(&self) -> &EdgeWeights {
        &self.weights
    }

    /// Replaces the private weight database (the topology stays fixed —
    /// it is public and every registered release was declared against
    /// it). Existing releases are untouched: they keep answering from the
    /// weights they were released over, which stays differentially
    /// private (post-processing) but grows stale;
    /// [`replace_release`](Self::replace_release) installs a re-run over
    /// the new weights under a fresh debit.
    ///
    /// # Errors
    /// [`EngineError::Core`] when the new vector's length does not match
    /// the topology. On error the old weights remain in place.
    pub fn update_weights(&mut self, weights: EdgeWeights) -> Result<(), EngineError> {
        weights
            .validate_for(&self.topo)
            .map_err(privpath_core::CoreError::from)?;
        self.weights = weights;
        Ok(())
    }

    /// Runs `mechanism` over the engine's database with an explicit noise
    /// source, debiting the accountant and registering the release.
    ///
    /// The budget is checked **before** any noise is drawn; an
    /// over-budget request leaves the engine untouched.
    ///
    /// # Errors
    /// [`EngineError::BudgetExhausted`] when the declared cost does not
    /// fit the remaining budget; otherwise the mechanism's own errors.
    pub fn release_with<M: Mechanism>(
        &mut self,
        mechanism: &M,
        params: &M::Params,
        noise: &mut impl NoiseSource,
    ) -> Result<ReleaseId, EngineError>
    where
        AnyRelease: From<M::Release>,
    {
        let cost = mechanism.privacy_cost(params);
        self.accountant
            .check(cost.eps(), cost.delta())
            .map_err(|_| self.budget_error(cost.eps(), cost.delta()))?;
        let accuracy = mechanism.accuracy_contract(&self.topo, params);
        let started = Instant::now();
        let release = mechanism.release_with(&self.topo, &self.weights, params, noise)?;
        record_release_timing(mechanism.name(), started.elapsed().as_secs_f64());
        let id = ReleaseId(self.next_id);
        let label = format!("{}#{}", mechanism.name(), id.value());
        self.accountant
            .spend(label.clone(), cost.eps(), cost.delta())
            .map_err(|_| self.budget_error(cost.eps(), cost.delta()))?;
        self.next_id += 1;
        self.records.insert(
            id.value(),
            Arc::new(ReleaseRecord::from_parts(
                id,
                label,
                cost.eps().value(),
                cost.delta().value(),
                accuracy,
                AnyRelease::from(release),
            )),
        );
        Ok(id)
    }

    /// Runs `mechanism` drawing noise from `rng`.
    ///
    /// # Errors
    /// Same conditions as [`release_with`](Self::release_with).
    pub fn release<M: Mechanism>(
        &mut self,
        mechanism: &M,
        params: &M::Params,
        rng: &mut impl Rng,
    ) -> Result<ReleaseId, EngineError>
    where
        AnyRelease: From<M::Release>,
    {
        let mut noise = RngNoise::new(rng);
        self.release_with(mechanism, params, &mut noise)
    }

    /// Releases under an **accuracy contract** instead of an explicit
    /// epsilon: calibrates the smallest epsilon whose bound meets
    /// `target` (via [`Mechanism::calibrate`]; every non-epsilon knob is
    /// taken from `template`), checks the budget, runs the mechanism,
    /// and debits the calibrated cost. Returns the registered id plus the
    /// evaluated [`ErrorBound`] the release now guarantees.
    ///
    /// # Errors
    /// [`EngineError::CalibrationFailed`] when the mechanism has no
    /// contract or no epsilon attains the target; otherwise as
    /// [`release_with`](Self::release_with).
    pub fn release_with_accuracy<M: Mechanism>(
        &mut self,
        mechanism: &M,
        template: &M::Params,
        target: &ErrorTarget,
        rng: &mut impl Rng,
    ) -> Result<(ReleaseId, ErrorBound), EngineError>
    where
        AnyRelease: From<M::Release>,
    {
        let mut noise = RngNoise::new(rng);
        self.release_with_accuracy_noise(mechanism, template, target, &mut noise)
    }

    /// [`release_with_accuracy`](Self::release_with_accuracy) with an
    /// explicit noise source (conformance tests drive this with
    /// [`privpath_dp::ZeroNoise`] / [`privpath_dp::RecordingNoise`]).
    ///
    /// # Errors
    /// Same conditions as
    /// [`release_with_accuracy`](Self::release_with_accuracy).
    pub fn release_with_accuracy_noise<M: Mechanism>(
        &mut self,
        mechanism: &M,
        template: &M::Params,
        target: &ErrorTarget,
        noise: &mut impl NoiseSource,
    ) -> Result<(ReleaseId, ErrorBound), EngineError>
    where
        AnyRelease: From<M::Release>,
    {
        let calibration_error = || EngineError::CalibrationFailed {
            mechanism: mechanism.name(),
            alpha: target.alpha(),
            gamma: target.gamma(),
        };
        let eps = mechanism
            .calibrate(&self.topo, template, target)
            .ok_or_else(calibration_error)?;
        let params = mechanism.with_eps(template, eps);
        let id = self.release_with(mechanism, &params, noise)?;
        let bound = self
            .get(id)
            .expect("just registered")
            .error_bound(target.gamma())
            .ok_or_else(calibration_error)?;
        Ok((id, bound))
    }

    /// Replaces the record at `id` with an **externally staged**
    /// re-release, debiting its recorded cost. This is the two-phase
    /// commit path live stores use: the mechanism is run *outside* the
    /// engine first (so a mid-generation failure stages nothing and
    /// leaves the registry untouched), then each staged release is
    /// installed here — budget checked, spend recorded, id stable. The
    /// replaced record's own spends stay in the ledger.
    ///
    /// # Errors
    /// [`EngineError::UnknownRelease`] for an unregistered id;
    /// [`EngineError::BudgetExhausted`] when the cost does not fit;
    /// [`EngineError::Dp`] for invalid `(eps, delta)` values. On error
    /// the old record remains registered.
    pub fn replace_release(
        &mut self,
        id: ReleaseId,
        label: impl Into<String>,
        eps: f64,
        delta: f64,
        accuracy: Option<AccuracyContract>,
        release: AnyRelease,
    ) -> Result<(), EngineError> {
        if !self.records.contains_key(&id.value()) {
            return Err(EngineError::UnknownRelease(id.value()));
        }
        let eps = Epsilon::new(eps)?;
        let delta = Delta::new(delta)?;
        let label = label.into();
        self.accountant
            .spend(label.clone(), eps, delta)
            .map_err(|_| self.budget_error(eps, delta))?;
        self.records.insert(
            id.value(),
            Arc::new(ReleaseRecord::from_parts(
                id,
                label,
                eps.value(),
                delta.value(),
                accuracy,
                release,
            )),
        );
        Ok(())
    }

    /// Unregisters a release and returns its record (shared snapshots
    /// holding the `Arc` keep working). The release's spends stay in the
    /// ledger — dropping an artifact does not un-spend the privacy that
    /// produced it.
    pub fn remove(&mut self, id: ReleaseId) -> Option<Arc<ReleaseRecord>> {
        self.records.remove(&id.value())
    }

    /// Registers a release at an **explicit id without debiting** — the
    /// ledger-replay path: a store reopening its manifest reconstructs
    /// the accountant from recorded spends first (which already cover
    /// every release and re-release, including spends on records since
    /// replaced or dropped) and then attaches the persisted records here.
    /// Debiting again via [`adopt`](Self::adopt) would double-count.
    ///
    /// `next_id` advances past `id` so subsequent releases never collide.
    ///
    /// # Errors
    /// [`EngineError::Persist`] when `id` is already registered (a
    /// manifest listing an id twice is corrupt).
    pub fn adopt_spent(
        &mut self,
        id: ReleaseId,
        label: impl Into<String>,
        eps: f64,
        delta: f64,
        accuracy: Option<AccuracyContract>,
        release: AnyRelease,
    ) -> Result<(), EngineError> {
        if self.records.contains_key(&id.value()) {
            return Err(EngineError::Persist(format!(
                "release id {id} adopted twice"
            )));
        }
        self.records.insert(
            id.value(),
            Arc::new(ReleaseRecord::from_parts(
                id,
                label.into(),
                eps,
                delta,
                accuracy,
                release,
            )),
        );
        self.next_id = self.next_id.max(id.value() + 1);
        Ok(())
    }

    /// Registers an externally produced release (e.g. loaded from disk),
    /// debiting its recorded `(eps, delta)` so the engine's ledger keeps
    /// covering every release that exists over this database. The stored
    /// accuracy contract, where one was persisted, rides along.
    ///
    /// # Errors
    /// [`EngineError::BudgetExhausted`] if the recorded cost does not fit
    /// the remaining budget; [`EngineError::Dp`] for invalid stored
    /// parameters.
    pub fn adopt(
        &mut self,
        label: impl Into<String>,
        eps: f64,
        delta: f64,
        accuracy: Option<AccuracyContract>,
        release: AnyRelease,
    ) -> Result<ReleaseId, EngineError> {
        let eps = Epsilon::new(eps)?;
        let delta = Delta::new(delta)?;
        self.accountant
            .check(eps, delta)
            .map_err(|_| self.budget_error(eps, delta))?;
        let id = ReleaseId(self.next_id);
        let label = label.into();
        self.accountant
            .spend(label.clone(), eps, delta)
            .map_err(|_| self.budget_error(eps, delta))?;
        self.next_id += 1;
        self.records.insert(
            id.value(),
            Arc::new(ReleaseRecord::from_parts(
                id,
                label,
                eps.value(),
                delta.value(),
                accuracy,
                release,
            )),
        );
        Ok(id)
    }

    /// Registers a release **without debiting** at the next id — the
    /// continual-release serving path: a release derived purely by
    /// post-processing an already-paid-for noisy stream estimate costs
    /// nothing further, so it is recorded with whatever `(eps, delta)`
    /// annotation the caller chooses (typically zero) and no ledger
    /// entry. The stream's own spends are debited separately through
    /// [`debit`](Self::debit).
    pub fn adopt_unspent(
        &mut self,
        label: impl Into<String>,
        eps: f64,
        delta: f64,
        accuracy: Option<AccuracyContract>,
        release: AnyRelease,
    ) -> ReleaseId {
        let id = ReleaseId(self.next_id);
        self.next_id += 1;
        self.records.insert(
            id.value(),
            Arc::new(ReleaseRecord::from_parts(
                id,
                label.into(),
                eps,
                delta,
                accuracy,
                release,
            )),
        );
        id
    }

    /// Swaps the record behind `id` **without debiting** — the continual
    /// re-release path, where each generation is free post-processing of
    /// the composer's estimate and the stream increments are debited
    /// separately through [`debit`](Self::debit).
    ///
    /// # Errors
    /// [`EngineError::UnknownRelease`] for an unregistered id.
    pub fn replace_release_unspent(
        &mut self,
        id: ReleaseId,
        label: impl Into<String>,
        eps: f64,
        delta: f64,
        accuracy: Option<AccuracyContract>,
        release: AnyRelease,
    ) -> Result<(), EngineError> {
        if !self.records.contains_key(&id.value()) {
            return Err(EngineError::UnknownRelease(id.value()));
        }
        self.records.insert(
            id.value(),
            Arc::new(ReleaseRecord::from_parts(
                id,
                label.into(),
                eps,
                delta,
                accuracy,
                release,
            )),
        );
        Ok(())
    }

    /// Records a ledger spend that is not tied to any single release —
    /// how a continual stream's telescoping budget increments enter the
    /// engine's `(eps, delta)` accounting.
    ///
    /// # Errors
    /// [`EngineError::BudgetExhausted`] when the spend does not fit.
    pub fn debit(
        &mut self,
        label: impl Into<String>,
        eps: Epsilon,
        delta: Delta,
    ) -> Result<(), EngineError> {
        self.accountant
            .spend(label, eps, delta)
            .map_err(|_| self.budget_error(eps, delta))
    }

    /// The structured budget error for a refused `(eps, delta)` request.
    fn budget_error(&self, eps: Epsilon, delta: Delta) -> EngineError {
        let (remaining_eps, remaining_delta) = self
            .accountant
            .remaining()
            .unwrap_or((f64::INFINITY, f64::INFINITY));
        EngineError::BudgetExhausted {
            requested_eps: eps.value(),
            requested_delta: delta.value(),
            remaining_eps,
            remaining_delta,
        }
    }

    /// The record for a registered release.
    pub fn get(&self, id: ReleaseId) -> Option<&ReleaseRecord> {
        self.records.get(&id.value()).map(Arc::as_ref)
    }

    /// An immutable, cheaply-cloneable view of every release registered so
    /// far, for the shared read path: the snapshot holds [`Arc`]s to the
    /// same records (no release data is copied) plus the ledger totals
    /// frozen at snapshot time. Releases made after the snapshot do not
    /// appear in it — take a new snapshot to publish them.
    pub fn snapshot(&self) -> QueryService {
        QueryService::from_records(self.records.clone(), self.spent(), self.remaining())
    }

    /// A distance-oracle view of a registered release.
    ///
    /// # Errors
    /// [`EngineError::UnknownRelease`] for an unregistered id;
    /// [`EngineError::UnsupportedQuery`] for kinds without a distance
    /// surface (MST, matching).
    pub fn query(&self, id: ReleaseId) -> Result<&dyn DistanceRelease, EngineError> {
        let record = self
            .records
            .get(&id.value())
            .ok_or(EngineError::UnknownRelease(id.value()))?;
        record
            .release()
            .as_distance()
            .ok_or(EngineError::UnsupportedQuery {
                kind: record.kind().as_str(),
                query: "distance",
            })
    }

    /// All registered releases, in id order.
    pub fn releases(&self) -> impl Iterator<Item = &ReleaseRecord> {
        self.records.values().map(Arc::as_ref)
    }

    /// Number of registered releases.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no release has been registered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The privacy ledger.
    pub fn accountant(&self) -> &Accountant {
        &self.accountant
    }

    /// Total `(eps, delta)` spent so far (basic composition).
    pub fn spent(&self) -> (f64, f64) {
        self.accountant.total()
    }

    /// Remaining `(eps, delta)`, or `None` for an unbounded engine.
    pub fn remaining(&self) -> Option<(f64, f64)> {
        self.accountant.remaining()
    }
}
