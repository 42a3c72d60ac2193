//! [`ReleaseSpec`]: a compact, re-runnable description of one release —
//! which mechanism and which knobs — that the store persists next to
//! every release so `update-weights` can re-run it against fresh weights.
//!
//! The spec is the store's unit of *reproducibility of intent*: a release
//! file records what came out, the spec records what to run again. It has
//! one token form shared by the manifest and the wire protocol:
//!
//! ```text
//! spec := <mechanism> "eps" <f64> ["delta" <f64>] ["gamma" <f64>]
//!         ["max-weight" <f64>]
//! ```
//!
//! Knobs are checked against the engine's kind table
//! ([`ReleaseKind::takes`]): a knob the spec's kind does not take is
//! refused rather than silently ignored, and a missing `max-weight`
//! (which has no default) fails the run. Kinds the table marks
//! unstorable (no persistence/serve surface) are rejected at spec
//! construction, so a store can never hold a release it cannot replay.

use crate::error::StoreError;
use privpath_core::bounds::AccuracyContract;
use privpath_dp::{Delta, Epsilon, NoiseSource};
use privpath_engine::{
    AnyRelease, EngineError, Knob, Knobs, Mechanism, MechanismVisitor, ReleaseKind, DEFAULT_GAMMA,
};
use privpath_graph::{EdgeWeights, Topology};

/// A re-runnable release request: mechanism plus every knob needed to
/// run it again on the same topology with different weights.
#[derive(Clone, Debug, PartialEq)]
pub struct ReleaseSpec {
    kind: ReleaseKind,
    knobs: Knobs,
}

fn invalid(msg: impl Into<String>) -> StoreError {
    StoreError::InvalidSpec(msg.into())
}

impl ReleaseSpec {
    /// A spec for `kind` at privacy `eps` (pure DP, default knobs).
    ///
    /// # Errors
    /// [`StoreError::InvalidSpec`] for kinds without a live-store surface
    /// ([`ReleaseKind::is_storable`]).
    pub fn new(kind: ReleaseKind, eps: Epsilon) -> Result<Self, StoreError> {
        if !kind.is_storable() {
            return Err(invalid(format!(
                "mechanism `{kind}` has no live-store surface (no persistence \
                 format or no distance queries)"
            )));
        }
        Ok(ReleaseSpec {
            kind,
            knobs: Knobs::new(eps),
        })
    }

    /// Refuses `knob` unless the spec's kind takes it (the knob would be
    /// silently ignored, which a typed spec refuses to do).
    fn check_takes(&self, knob: Knob) -> Result<(), StoreError> {
        if self.kind.takes(knob) {
            return Ok(());
        }
        let kind = self.kind;
        Err(invalid(match knob {
            Knob::Delta => format!("mechanism `{kind}` is pure-DP; `delta` does not apply"),
            Knob::Gamma => format!("`gamma` is a {} knob; mechanism is `{kind}`", knob.kinds()),
            Knob::MaxWeight => {
                format!("`max-weight` applies to bounded-weight kinds only; mechanism is `{kind}`")
            }
        }))
    }

    /// Selects approximate DP (`delta > 0`) for the composition-based
    /// kinds.
    ///
    /// # Errors
    /// [`StoreError::InvalidSpec`] for kinds whose mechanism is pure-DP
    /// only.
    pub fn with_delta(mut self, delta: Delta) -> Result<Self, StoreError> {
        if !delta.is_pure() {
            self.check_takes(Knob::Delta)?;
        }
        self.knobs.delta = delta;
        Ok(self)
    }

    /// Sets the `shortest-path` confidence knob.
    ///
    /// # Errors
    /// [`StoreError::InvalidSpec`] for kinds that do not take it.
    pub fn with_gamma(mut self, gamma: f64) -> Result<Self, StoreError> {
        self.check_takes(Knob::Gamma)?;
        self.knobs.gamma = gamma;
        Ok(self)
    }

    /// Sets the bounded-weight promise `M` (required by the kinds that
    /// take it).
    ///
    /// # Errors
    /// [`StoreError::InvalidSpec`] for kinds without a weight bound.
    pub fn with_max_weight(mut self, max_weight: f64) -> Result<Self, StoreError> {
        self.check_takes(Knob::MaxWeight)?;
        self.knobs.max_weight = Some(max_weight);
        Ok(self)
    }

    /// The mechanism this spec runs.
    pub fn kind(&self) -> ReleaseKind {
        self.kind
    }

    /// The epsilon one run of this spec costs.
    pub fn eps(&self) -> Epsilon {
        self.knobs.eps
    }

    /// The delta one run of this spec costs.
    pub fn delta(&self) -> Delta {
        self.knobs.delta
    }

    /// The `(eps, delta)` one run debits — every storable mechanism's
    /// declared [`privacy_cost`](privpath_engine::Mechanism::privacy_cost)
    /// equals its parameter budget, so the spec knows its cost without
    /// building params. Used to pre-check a whole `update-weights` pass
    /// against the budget before any noise is drawn.
    pub fn cost(&self) -> (f64, f64) {
        (self.knobs.eps.value(), self.knobs.delta.value())
    }

    /// The canonical token form (also valid inside a longer wire line).
    pub fn to_line(&self) -> String {
        let Knobs {
            eps,
            delta,
            gamma,
            max_weight,
        } = self.knobs;
        let mut line = format!("{} eps {:?}", self.kind, eps.value());
        if !delta.is_pure() {
            line.push_str(&format!(" delta {:?}", delta.value()));
        }
        if gamma != DEFAULT_GAMMA {
            line.push_str(&format!(" gamma {gamma:?}"));
        }
        if let Some(m) = max_weight {
            line.push_str(&format!(" max-weight {m:?}"));
        }
        line
    }

    /// Parses the canonical token form from a whole line.
    ///
    /// # Errors
    /// [`StoreError::InvalidSpec`] on unknown mechanisms, malformed
    /// numbers, misplaced knobs, or trailing tokens.
    pub fn parse_line(line: &str) -> Result<Self, StoreError> {
        let mut tokens = line.split_whitespace();
        let spec = Self::parse_tokens(&mut tokens)?;
        if let Some(extra) = tokens.next() {
            return Err(invalid(format!("unexpected trailing token {extra:?}")));
        }
        Ok(spec)
    }

    /// Parses the token form from an iterator, consuming exactly the
    /// spec's tokens (for embedding in wire lines).
    ///
    /// # Errors
    /// [`StoreError::InvalidSpec`] on unknown mechanisms, malformed
    /// numbers, or misplaced knobs. Note a knob keyword is only consumed
    /// when recognized, so a caller can append its own trailing fields.
    pub fn parse_tokens<'a>(
        tokens: &mut impl Iterator<Item = &'a str>,
    ) -> Result<Self, StoreError> {
        let kind_tok = tokens.next().ok_or_else(|| invalid("missing mechanism"))?;
        let kind = ReleaseKind::parse(kind_tok)
            .ok_or_else(|| invalid(format!("unknown mechanism {kind_tok:?}")))?;
        let mut eps = None;
        let mut delta = None;
        let mut gamma = None;
        let mut max_weight = None;
        // Peekable so an unrecognized token is left for the caller.
        let mut tokens = tokens.peekable();
        while let Some(&key) = tokens.peek() {
            let slot: &mut Option<f64> = match key {
                "eps" => &mut eps,
                "delta" => &mut delta,
                "gamma" => &mut gamma,
                "max-weight" => &mut max_weight,
                _ => break,
            };
            if slot.is_some() {
                return Err(invalid(format!("duplicate `{key}`")));
            }
            tokens.next();
            let val = tokens
                .next()
                .ok_or_else(|| invalid(format!("`{key}` needs a value")))?;
            *slot = Some(
                val.parse::<f64>()
                    .map_err(|_| invalid(format!("invalid `{key}` value {val:?}")))?,
            );
        }
        let eps = eps.ok_or_else(|| invalid("missing `eps`"))?;
        let mut spec = Self::new(kind, Epsilon::new(eps).map_err(|e| invalid(e.to_string()))?)?;
        if let Some(d) = delta {
            spec = spec.with_delta(Delta::new(d).map_err(|e| invalid(e.to_string()))?)?;
        }
        if let Some(g) = gamma {
            spec = spec.with_gamma(g)?;
        }
        if let Some(m) = max_weight {
            spec = spec.with_max_weight(m)?;
        }
        Ok(spec)
    }

    /// Runs the spec's mechanism over `(topo, weights)` **without
    /// touching any registry** — the staging half of the store's
    /// two-phase commit. The caller (under its write lock) installs the
    /// result via [`ReleaseEngine::adopt`] /
    /// [`ReleaseEngine::replace_release`] only after the whole
    /// generation staged successfully, so a mid-generation failure
    /// publishes nothing and debits nothing (noise that is discarded
    /// unobserved costs no privacy).
    ///
    /// # Errors
    /// [`StoreError::InvalidSpec`] for missing knobs; otherwise the
    /// mechanism's own errors.
    pub fn run(
        &self,
        topo: &Topology,
        weights: &EdgeWeights,
        noise: &mut impl NoiseSource,
    ) -> Result<StagedRelease, StoreError> {
        let staged = self
            .kind
            .dispatch(
                &self.knobs,
                Stage {
                    topo,
                    weights,
                    noise,
                },
            )
            .map_err(|e| match e {
                EngineError::MissingKnob { .. } => invalid(e.to_string()),
                other => StoreError::Engine(other),
            })?;
        Ok(staged?)
    }
}

/// The staging visitor behind [`ReleaseSpec::run`]: declares the cost
/// and contract, then runs the mechanism.
struct Stage<'a, N> {
    topo: &'a Topology,
    weights: &'a EdgeWeights,
    noise: &'a mut N,
}

impl<N: NoiseSource> MechanismVisitor for Stage<'_, N> {
    type Output = Result<StagedRelease, EngineError>;

    fn visit<M: Mechanism>(self, mechanism: &M, params: &M::Params) -> Self::Output
    where
        AnyRelease: From<M::Release>,
    {
        let cost = mechanism.privacy_cost(params);
        Ok(StagedRelease {
            eps: cost.eps().value(),
            delta: cost.delta().value(),
            accuracy: mechanism.accuracy_contract(self.topo, params),
            release: AnyRelease::from(mechanism.release_with(
                self.topo,
                self.weights,
                params,
                self.noise,
            )?),
        })
    }
}

/// A release run by a [`ReleaseSpec`] but not yet installed anywhere:
/// the staging unit of the store's two-phase commit.
#[derive(Clone, Debug)]
pub struct StagedRelease {
    /// The epsilon installing this release will debit.
    pub eps: f64,
    /// The delta installing this release will debit.
    pub delta: f64,
    /// The contract the mechanism declared (from the public topology).
    pub accuracy: Option<AccuracyContract>,
    /// The release object.
    pub release: AnyRelease,
}

impl std::fmt::Display for ReleaseSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_line())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn spec_line_round_trips() {
        let specs = [
            ReleaseSpec::new(ReleaseKind::ShortestPath, eps(1.5))
                .unwrap()
                .with_gamma(0.1)
                .unwrap(),
            ReleaseSpec::new(ReleaseKind::Tree, eps(0.25)).unwrap(),
            ReleaseSpec::new(ReleaseKind::BoundedWeight, eps(2.0))
                .unwrap()
                .with_delta(Delta::new(1e-6).unwrap())
                .unwrap()
                .with_max_weight(3.0)
                .unwrap(),
            ReleaseSpec::new(ReleaseKind::ShortcutApsp, eps(1.0))
                .unwrap()
                .with_max_weight(1.0)
                .unwrap(),
            ReleaseSpec::new(ReleaseKind::SyntheticGraph, eps(0.5)).unwrap(),
            ReleaseSpec::new(ReleaseKind::AllPairsBaseline, eps(4.0)).unwrap(),
        ];
        for spec in specs {
            let line = spec.to_line();
            assert_eq!(ReleaseSpec::parse_line(&line).unwrap(), spec, "{line}");
        }
    }

    #[test]
    fn unstorable_kinds_are_rejected() {
        for kind in [
            ReleaseKind::Mst,
            ReleaseKind::Matching,
            ReleaseKind::HldTree,
        ] {
            assert!(matches!(
                ReleaseSpec::new(kind, eps(1.0)),
                Err(StoreError::InvalidSpec(_))
            ));
        }
    }

    #[test]
    fn misplaced_knobs_are_rejected() {
        assert!(ReleaseSpec::new(ReleaseKind::Tree, eps(1.0))
            .unwrap()
            .with_gamma(0.1)
            .is_err());
        assert!(ReleaseSpec::new(ReleaseKind::Tree, eps(1.0))
            .unwrap()
            .with_delta(Delta::new(1e-6).unwrap())
            .is_err());
        assert!(ReleaseSpec::new(ReleaseKind::SyntheticGraph, eps(1.0))
            .unwrap()
            .with_max_weight(1.0)
            .is_err());
        assert!(ReleaseSpec::parse_line("tree eps 1.0 gamma 0.1").is_err());
        assert!(ReleaseSpec::parse_line("mst eps 1.0").is_err());
        assert!(ReleaseSpec::parse_line("shortest-path eps 1.0 eps 2.0").is_err());
        assert!(ReleaseSpec::parse_line("shortest-path").is_err());
    }
}
