//! The shared read path: [`QueryService`], an immutable snapshot of an
//! engine's release registry that any number of threads query in
//! parallel.
//!
//! The paper's architecture makes this split natural: a DP release is
//! computed **once** (the write path, [`crate::ReleaseEngine`], exclusive
//! and budget-accounted) and every query thereafter is free
//! post-processing (the read path, this type, lock-free and `Send +
//! Sync`). A snapshot holds [`Arc`]s to the engine's own records — taking
//! one copies no release data — and freezes the ledger totals at snapshot
//! time so budget reporting needs no lock either.

use crate::engine::{ReleaseId, ReleaseRecord};
use crate::error::EngineError;
use crate::persist::StoredRelease;
use crate::release::DistanceRelease;
use privpath_core::bounds::ErrorBound;
use privpath_core::CoreError;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An immutable, cheaply-cloneable view of a set of releases plus frozen
/// ledger totals.
///
/// Obtained from [`ReleaseEngine::snapshot`](crate::ReleaseEngine::snapshot)
/// (in-process serving alongside a live engine) or
/// [`QueryService::from_stored`] (serving a directory of release files
/// with no private weights in the process at all). Cloning bumps two
/// reference counts; every query method takes `&self`, so the hot path
/// has no locks.
#[derive(Clone, Debug)]
pub struct QueryService {
    records: Arc<BTreeMap<u64, Arc<ReleaseRecord>>>,
    spent: (f64, f64),
    remaining: Option<(f64, f64)>,
}

impl QueryService {
    pub(crate) fn from_records(
        records: BTreeMap<u64, Arc<ReleaseRecord>>,
        spent: (f64, f64),
        remaining: Option<(f64, f64)>,
    ) -> Self {
        QueryService {
            records: Arc::new(records),
            spent,
            remaining,
        }
    }

    /// A service over externally stored releases (e.g. loaded from a
    /// store directory), with ids assigned in input order starting at
    /// `r0`. The spent totals are the sum of the stored costs; there is
    /// no budget cap, so [`remaining`](Self::remaining) is `None`.
    ///
    /// This is the pure serving configuration: the process holds released
    /// objects only, never the private weights.
    pub fn from_stored(stored: impl IntoIterator<Item = StoredRelease>) -> Self {
        let mut records = BTreeMap::new();
        let mut spent = (0.0, 0.0);
        for (i, s) in stored.into_iter().enumerate() {
            let id = ReleaseId::from_value(i as u64);
            spent.0 += s.eps;
            spent.1 += s.delta;
            records.insert(
                id.value(),
                Arc::new(ReleaseRecord::from_parts(
                    id, s.label, s.eps, s.delta, s.accuracy, s.release,
                )),
            );
        }
        QueryService {
            records: Arc::new(records),
            spent,
            remaining: None,
        }
    }

    /// The record for a release, if it is in the snapshot.
    pub fn get(&self, id: ReleaseId) -> Option<&ReleaseRecord> {
        self.records.get(&id.value()).map(Arc::as_ref)
    }

    /// A distance-oracle view of a release in the snapshot.
    ///
    /// # Errors
    /// [`EngineError::UnknownRelease`] for an id not in the snapshot;
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

    /// The accuracy contract of a release in the snapshot, evaluated at
    /// failure probability `gamma`: what per-query error the release
    /// guarantees with probability `1 - gamma`. Contracts are declared
    /// from the public topology at release time, so answering costs no
    /// privacy — exactly like distance queries.
    ///
    /// # Errors
    /// [`EngineError::UnknownRelease`] for an id not in the snapshot;
    /// [`EngineError::UnsupportedQuery`] when the release carries no
    /// contract (adopted without one); [`EngineError::Core`] for `gamma`
    /// outside `(0, 1)`.
    pub fn accuracy(&self, id: ReleaseId, gamma: f64) -> Result<ErrorBound, EngineError> {
        let record = self
            .records
            .get(&id.value())
            .ok_or(EngineError::UnknownRelease(id.value()))?;
        let contract = record.accuracy().ok_or(EngineError::UnsupportedQuery {
            kind: record.kind().as_str(),
            query: "accuracy",
        })?;
        contract.evaluate(gamma).ok_or_else(|| {
            EngineError::Core(CoreError::InvalidParameter(format!(
                "accuracy gamma must be in (0,1), got {gamma}"
            )))
        })
    }

    /// All releases in the snapshot, in id order.
    pub fn releases(&self) -> impl Iterator<Item = &ReleaseRecord> {
        self.records.values().map(Arc::as_ref)
    }

    /// Number of releases in the snapshot.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot holds no releases.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total `(eps, delta)` spent at snapshot time.
    pub fn spent(&self) -> (f64, f64) {
        self.spent
    }

    /// Remaining `(eps, delta)` at snapshot time, or `None` when the
    /// source had no budget cap.
    pub fn remaining(&self) -> Option<(f64, f64)> {
        self.remaining
    }
}

// The whole point of the snapshot: many threads share one read path.
#[allow(dead_code)]
fn assert_send_sync(s: QueryService) -> impl Send + Sync {
    s
}
