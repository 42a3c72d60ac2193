//! [`ReleaseStore`]: the concurrent, multi-tenant write-and-serve path.
//!
//! One store owns any number of named **namespaces** (tenants). Each
//! namespace owns its private weight database, its own
//! [`Accountant`](privpath_dp::Accountant) budget, and an
//! **epoch-versioned** set of releases:
//!
//! * The **write path** (publish / update-weights / drop) serializes on a
//!   per-namespace mutex around a [`ReleaseEngine`], debits the
//!   namespace budget through the engine's check-before-noise
//!   accounting, persists crash-safe state (temp-write + fsync + rename;
//!   manifest replay on [`open`](ReleaseStore::open)), and finishes by
//!   swapping in a fresh immutable [`NamespaceSnapshot`] under a brief
//!   write lock.
//! * The **read path** clones the current snapshot `Arc` under a brief
//!   read lock and then runs entirely lock-free on immutable data:
//!   readers never observe a half-applied mutation, because the snapshot
//!   is replaced as one pointer swap after the mutation fully committed.
//!   Each snapshot carries its own [`source cache`](crate::cache), so an
//!   epoch bump structurally invalidates every cached answer.
//!
//! Epochs count committed mutations: publish, update-weights, and drop
//! each bump the namespace epoch by exactly one.

use crate::cache::{CacheCounters, SourceCache};
use crate::continual::{state_file_name, ContinualState, ContinualStatus};
use crate::error::StoreError;
use crate::manifest::{
    atomic_write, read_manifest, release_file_name, weights_file_name, write_manifest,
    ContinualManifest, ManifestData, GEO_INDEX_FILE, MANIFEST_FILE, TOPOLOGY_FILE,
};
use crate::spec::{ReleaseSpec, StagedRelease};
use privpath_core::model::WeightUpdate;
use privpath_dp::zcdp::max_rho_for_epsilon;
use privpath_dp::{Accountant, Delta, Epsilon, RngNoise, ZeroNoise};
use privpath_engine::{
    AccuracyContract, AnyRelease, EngineError, QueryService, ReleaseEngine, ReleaseId,
    SharedTopology,
};
use privpath_geo::{GeoPoint, SpatialIndex};
use privpath_graph::io::{
    checksum64, read_topology, read_weights_binary, write_topology, write_weights_binary,
};
use privpath_graph::{EdgeId, EdgeWeights, NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Records one committed write-path operation's wall time. Only the
/// operator-chosen namespace name and the elapsed time are exported.
fn record_commit_timing(metric: &str, ns: &str, seconds: f64) {
    if !privpath_obs::enabled() {
        return;
    }
    privpath_obs::MetricRegistry::global()
        .histogram_with(metric, &[("ns", ns)])
        .observe(seconds);
}

/// A noise-seed base that differs across processes and across opens:
/// OS-randomized hasher state mixed with the clock and the pid. The
/// store's noise stream **must not** repeat between runs — re-drawing
/// the same Laplace noise for a re-release would let an observer of two
/// generations cancel it out and recover the private weight change
/// exactly.
fn entropy_seed() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let mut h = RandomState::new().build_hasher();
    h.write_u64(u64::from(std::process::id()));
    if let Ok(d) = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        h.write_u128(d.as_nanos());
    }
    h.finish()
}

/// Default bound on cached source vectors per namespace snapshot.
const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Whether `name` is a valid namespace name: 1–64 characters from
/// `[A-Za-z0-9_-]`. Valid names are filesystem- and wire-safe (they name
/// the namespace directory and prefix release refs as `name/r0`).
pub fn is_valid_namespace(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// The namespace name of a [`NamespaceSnapshot::frozen`] release set:
/// its releases answer as `frozen/r0` as well as bare `r0`.
pub const FROZEN_NAMESPACE: &str = "frozen";

/// An immutable, epoch-stamped view of one namespace's releases.
///
/// Obtained from [`ReleaseStore::snapshot`]; shared by `Arc`, so holding
/// one is free and it keeps answering (from its own epoch's data) even
/// after the store moves on. Distance queries go through the snapshot's
/// source cache when the store has caching enabled.
#[derive(Debug)]
pub struct NamespaceSnapshot {
    namespace: String,
    epoch: u64,
    service: QueryService,
    cache: Option<SourceCache>,
    continual: Option<ContinualStatus>,
    /// Public spatial index over the node coordinates, for geo
    /// namespaces. Epoch-invariant (coordinates are public topology
    /// metadata), so every snapshot shares one `Arc`.
    geo: Option<Arc<SpatialIndex>>,
}

impl NamespaceSnapshot {
    /// A snapshot over a frozen release set (for example one loaded with
    /// [`QueryService::from_stored`]), outside any store: named
    /// [`FROZEN_NAMESPACE`], epoch 0, no source cache, no spatial index
    /// and no continual stream. Every read answers straight from the
    /// releases, so serving it does the same work as querying the
    /// [`QueryService`] directly.
    pub fn frozen(service: QueryService) -> Self {
        NamespaceSnapshot {
            namespace: FROZEN_NAMESPACE.to_string(),
            epoch: 0,
            service,
            cache: None,
            continual: None,
            geo: None,
        }
    }

    /// The namespace this snapshot belongs to.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// The epoch this snapshot was published at (counts committed
    /// mutations: publish, update-weights, drop).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying release registry view (list / accuracy / path /
    /// budget queries go through this).
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Continual-mode stream status at this epoch, or `None` for a
    /// standard namespace. Copied onto the snapshot at swap time so
    /// readers (and `stats`) never touch the writer lock.
    pub fn continual(&self) -> Option<ContinualStatus> {
        self.continual
    }

    /// The namespace's spatial index over its (public) node
    /// coordinates, or `None` for a namespace created without
    /// coordinates. Snapping a lat/lon query through this index is
    /// data-independent preprocessing — it reads only public geometry,
    /// so it costs no privacy budget.
    pub fn geo(&self) -> Option<&SpatialIndex> {
        self.geo.as_deref()
    }

    /// The released estimate of `d(u, v)`, via the source cache when
    /// enabled.
    ///
    /// # Errors
    /// As [`QueryService::query`] /
    /// [`privpath_engine::DistanceRelease::distance`].
    pub fn distance(&self, id: ReleaseId, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        let oracle = self.service.query(id)?;
        let Some(cache) = &self.cache else {
            return oracle.distance(u, v);
        };
        let n = oracle.num_nodes();
        check_node(u, n)?;
        check_node(v, n)?;
        let vector = cache.get_or_compute(id.value(), u.index(), || oracle.source_distances(u))?;
        Ok(vector[v.index()])
    }

    /// Released estimates for many pairs, sharing one cached source
    /// vector per distinct source.
    ///
    /// # Errors
    /// As [`distance`](Self::distance); reports the first failing pair.
    pub fn distance_batch(
        &self,
        id: ReleaseId,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<f64>, EngineError> {
        let oracle = self.service.query(id)?;
        let Some(cache) = &self.cache else {
            return oracle.distance_batch(pairs);
        };
        let n = oracle.num_nodes();
        let mut by_source: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            check_node(u, n)?;
            check_node(v, n)?;
            by_source.entry(u.index()).or_default().push(i);
        }
        let mut out = vec![0.0; pairs.len()];
        let mut sources: Vec<usize> = by_source.keys().copied().collect();
        sources.sort_unstable();
        // Serve what the cache already has, then compute every remaining
        // source in one batched oracle call — graph-replaying kinds fan
        // those Dijkstras over the search thread pool, and the rows are
        // bit-identical to one-at-a-time computation.
        let mut missing: Vec<usize> = Vec::new();
        for &s in &sources {
            match cache.peek(id.value(), s) {
                Some(vector) => {
                    for &i in &by_source[&s] {
                        out[i] = vector[pairs[i].1.index()];
                    }
                }
                None => missing.push(s),
            }
        }
        if !missing.is_empty() {
            let miss_nodes: Vec<NodeId> = missing.iter().map(|&s| NodeId::new(s)).collect();
            let rows = oracle.source_distance_rows(&miss_nodes)?;
            for (&s, row) in missing.iter().zip(rows) {
                let vector = cache.insert(id.value(), s, row);
                for &i in &by_source[&s] {
                    out[i] = vector[pairs[i].1.index()];
                }
            }
        }
        Ok(out)
    }
}

fn check_node(node: NodeId, num_nodes: usize) -> Result<(), EngineError> {
    if node.index() >= num_nodes {
        return Err(EngineError::NodeOutOfRange {
            index: node.index(),
            num_nodes,
        });
    }
    Ok(())
}

/// The receipt a successful [`ReleaseStore::publish`] returns.
#[derive(Clone, Debug, PartialEq)]
pub struct PublishReceipt {
    /// The namespace published into.
    pub namespace: String,
    /// The new release's id within the namespace.
    pub id: ReleaseId,
    /// The namespace epoch after the publish.
    pub epoch: u64,
    /// The epsilon debited.
    pub eps: f64,
    /// The delta debited.
    pub delta: f64,
}

/// The receipt a successful [`ReleaseStore::update_weights`] returns.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateReceipt {
    /// The namespace updated.
    pub namespace: String,
    /// The namespace epoch after the update.
    pub epoch: u64,
    /// How many releases were re-run against the new weights.
    pub rereleased: usize,
    /// Total epsilon debited by the re-releases.
    pub eps: f64,
    /// Total delta debited by the re-releases.
    pub delta: f64,
    /// `||new - old||_1`: the update's size in the neighboring metric.
    /// **Private** (a function of the weights) — write-path logs only,
    /// never served.
    pub l1_shift: f64,
    /// How many edges changed weight. Private, as above.
    pub changed_edges: usize,
}

/// One namespace's public counters, as reported by
/// [`ReleaseStore::stats`]. Everything here is already public: epochs
/// and ledger totals are DP post-processing metadata, cache counters are
/// server-side performance state.
#[derive(Clone, Debug, PartialEq)]
pub struct NamespaceStats {
    /// The namespace name.
    pub namespace: String,
    /// The current epoch.
    pub epoch: u64,
    /// Number of live releases.
    pub releases: usize,
    /// Total epsilon spent (including spends on replaced/dropped
    /// releases).
    pub spent_eps: f64,
    /// Total delta spent.
    pub spent_delta: f64,
    /// Remaining `(eps, delta)`, or `None` for an unbounded namespace.
    pub remaining: Option<(f64, f64)>,
    /// Cumulative read-path cache hits.
    pub cache_hits: u64,
    /// Cumulative read-path cache misses.
    pub cache_misses: u64,
    /// Continual-mode stream status, or `None` for a standard namespace.
    pub continual: Option<ContinualStatus>,
}

/// One live release's bookkeeping: its re-run spec and the (write-once,
/// generation-suffixed) file currently holding it.
#[derive(Clone)]
struct SpecEntry {
    spec: ReleaseSpec,
    file: String,
}

/// The serialized write-path state of one namespace.
struct NamespaceWriter {
    name: String,
    dir: PathBuf,
    engine: ReleaseEngine,
    /// The spec + file for every live release, by id.
    specs: BTreeMap<u64, SpecEntry>,
    epoch: u64,
    budget: Option<(f64, f64)>,
    /// The checksum of the namespace's write-once topology file, which
    /// every release file names instead of embedding the topology.
    topology_checksum: u64,
    /// The private-weights file the on-disk manifest references.
    weights_file: String,
    /// Continual mode: the tree-composer state plus the name of the
    /// state file the on-disk manifest currently references.
    continual: Option<(ContinualState, String)>,
    /// The namespace's spatial index, if it was created with
    /// coordinates. Written once at creation (the coordinates are as
    /// immutable as the topology) and shared with every snapshot.
    geo: Option<Arc<SpatialIndex>>,
}

impl NamespaceWriter {
    fn manifest_data(&self) -> ManifestData {
        ManifestData {
            namespace: self.name.clone(),
            epoch: self.epoch,
            budget: self.budget,
            weights: self.weights_file.clone(),
            continual: self
                .continual
                .as_ref()
                .map(|(state, file)| ContinualManifest {
                    horizon: state.horizon,
                    rho_total: state.rho_total,
                    delta: state.delta,
                    file: file.clone(),
                }),
            geo: self.geo.as_ref().map(|_| GEO_INDEX_FILE.to_string()),
            spends: self
                .engine
                .accountant()
                .spends()
                .iter()
                .map(|s| (s.label.clone(), s.eps, s.delta))
                .collect(),
            releases: self
                .specs
                .iter()
                .map(|(&id, entry)| (id, entry.file.clone(), entry.spec.clone()))
                .collect(),
        }
    }

    /// Writes one release to a (new, generation-suffixed) file that
    /// names the namespace topology (temp+fsync+rename).
    fn write_release_file(
        &self,
        file: &str,
        label: &str,
        (eps, delta): (f64, f64),
        accuracy: Option<&AccuracyContract>,
        release: &AnyRelease,
    ) -> Result<(), StoreError> {
        let mut bytes = Vec::new();
        privpath_engine::write_release(
            &mut bytes,
            label,
            eps,
            delta,
            accuracy,
            release,
            Some(SharedTopology {
                topology: self.engine.topology(),
                checksum: self.topology_checksum,
            }),
        )?;
        atomic_write(&self.dir.join(file), &bytes)
    }

    /// Writes the engine's record at `id` to `file`.
    fn write_record_file(&self, id: ReleaseId, file: &str) -> Result<(), StoreError> {
        let record = self
            .engine
            .get(id)
            .ok_or(EngineError::UnknownRelease(id.value()))?;
        let cost = (record.eps(), record.delta());
        self.write_release_file(
            file,
            record.label(),
            cost,
            record.accuracy(),
            record.release(),
        )
    }

    /// Writes a staged release to `file`.
    fn write_staged(&self, file: &str, label: &str, s: &StagedRelease) -> Result<(), StoreError> {
        let cost = (s.eps, s.delta);
        self.write_release_file(file, label, cost, s.accuracy.as_ref(), &s.release)
    }

    /// Writes `weights` to the (new) weights file of `epoch` and returns
    /// its name; the manifest rename commits it.
    fn write_weights_file(&self, weights: &EdgeWeights, epoch: u64) -> Result<String, StoreError> {
        let file = weights_file_name(epoch);
        let path = self.dir.join(&file);
        let mut bytes = Vec::new();
        write_weights_binary(&mut bytes, weights).map_err(|e| StoreError::io(&path, e))?;
        atomic_write(&path, &bytes)?;
        Ok(file)
    }

    /// Pre-checks a prospective total spend against the budget so no
    /// noise is ever drawn for a request that cannot be afforded.
    fn check_budget(&self, total_eps: f64, total_delta: f64) -> Result<(), StoreError> {
        let eps = Epsilon::new(total_eps).map_err(EngineError::Dp)?;
        let delta = Delta::new(total_delta).map_err(EngineError::Dp)?;
        if self.engine.accountant().check(eps, delta).is_err() {
            let (remaining_eps, remaining_delta) = self
                .engine
                .remaining()
                .unwrap_or((f64::INFINITY, f64::INFINITY));
            return Err(StoreError::Engine(EngineError::BudgetExhausted {
                requested_eps: total_eps,
                requested_delta: total_delta,
                remaining_eps,
                remaining_delta,
            }));
        }
        Ok(())
    }

    fn persist_manifest(&self) -> Result<(), StoreError> {
        write_manifest(&self.dir, &self.manifest_data())
    }
}

/// Writes a namespace's write-once topology file and returns its
/// checksum, which the namespace's release files name.
fn write_topology_file(dir: &Path, topo: &Topology) -> Result<u64, StoreError> {
    let path = dir.join(TOPOLOGY_FILE);
    let mut bytes = Vec::new();
    write_topology(&mut bytes, topo).map_err(|e| StoreError::io(&path, e))?;
    atomic_write(&path, &bytes)?;
    Ok(checksum64(&bytes))
}

/// One namespace: the serialized writer plus the hot-swapped snapshot.
struct Namespace {
    writer: Mutex<NamespaceWriter>,
    current: RwLock<Arc<NamespaceSnapshot>>,
    counters: CacheCounters,
}

impl Namespace {
    /// Locks the writer, refusing the operation when an earlier write
    /// panicked while holding the lock: the in-memory write state may
    /// sit between two-phase-commit steps, so writes on this namespace
    /// are rejected rather than risked. Readers are unaffected — they
    /// keep serving the last published snapshot.
    fn lock_writer(&self, name: &str) -> Result<MutexGuard<'_, NamespaceWriter>, StoreError> {
        self.writer
            .lock()
            .map_err(|_| StoreError::WriterPoisoned(name.to_string()))
    }

    /// The published snapshot. The lock only guards an `Arc` pointer
    /// swap, so even a poisoned lock still holds the last fully
    /// committed snapshot; recover it rather than cascade a writer
    /// panic into every reader.
    fn current_snapshot(&self) -> Arc<NamespaceSnapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publishes a new snapshot (same poisoning argument as
    /// [`current_snapshot`](Self::current_snapshot)).
    fn publish_snapshot(&self, snapshot: Arc<NamespaceSnapshot>) {
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = snapshot;
    }
}

/// The concurrent, multi-tenant, epoch-versioned release store.
///
/// See the [module docs](self) for the write/read split. All methods
/// take `&self`: per-namespace writer mutexes serialize mutations, and
/// readers only ever touch immutable snapshots.
pub struct ReleaseStore {
    root: PathBuf,
    cache_enabled: bool,
    cache_capacity: usize,
    seed: AtomicU64,
    namespaces: RwLock<BTreeMap<String, Arc<Namespace>>>,
}

impl ReleaseStore {
    /// Opens (or creates) a store rooted at `root`, replaying every
    /// namespace manifest found under it. Release files a manifest does
    /// not reference (crash leftovers) are deleted — their noise is
    /// never served.
    ///
    /// # Errors
    /// [`StoreError::Io`] / [`StoreError::Manifest`] on unreadable or
    /// corrupt state (a corrupt namespace fails the whole open: serving
    /// a subset silently would misreport the store's privacy ledger).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StoreError::io(&root, e))?;
        let store = ReleaseStore {
            root: root.clone(),
            cache_enabled: true,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            // Entropy by default: the noise stream must differ across
            // opens (see `entropy_seed`); `with_seed` pins it for tests.
            seed: AtomicU64::new(entropy_seed()),
            namespaces: RwLock::new(BTreeMap::new()),
        };
        let entries = fs::read_dir(&root).map_err(|e| StoreError::io(&root, e))?;
        let mut loaded = BTreeMap::new();
        for entry in entries {
            let path = entry.map_err(|e| StoreError::io(&root, e))?.path();
            if path.is_dir() && path.join(MANIFEST_FILE).is_file() {
                let (name, ns) = store.load_namespace(&path)?;
                loaded.insert(name, Arc::new(ns));
            }
        }
        *store.map_write() = loaded;
        Ok(store)
    }

    /// Disables or re-enables the read-path source cache (applies to
    /// snapshots taken after the call; builder-style, call before
    /// serving).
    #[must_use]
    pub fn with_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Bounds the number of cached source vectors per namespace
    /// snapshot.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Pins the base of the store's internal noise-seed sequence (each
    /// write operation draws the next seed; same base + same operation
    /// order = same releases). **Testing/benchmarking only**: a pinned
    /// base replays the identical noise stream on every open, which
    /// breaks differential privacy the moment two generations built from
    /// the same stream are both observable (their shared noise cancels).
    /// Production stores keep the default entropy seed.
    #[must_use]
    pub fn with_seed(self, base: u64) -> Self {
        self.seed.store(base, Ordering::Relaxed);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether the read-path cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// The namespace names, sorted.
    pub fn namespaces(&self) -> Vec<String> {
        self.map_read().keys().cloned().collect()
    }

    /// Number of namespaces.
    pub fn len(&self) -> usize {
        self.map_read().len()
    }

    /// Whether the store holds no namespaces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Creates a namespace: its own topology, private weights, and
    /// budget (`None` = unbounded, tracking only). Persists the
    /// namespace directory before it becomes visible.
    ///
    /// # Errors
    /// [`StoreError::InvalidNamespace`] / [`StoreError::NamespaceExists`]
    /// on bad names; [`StoreError::Engine`] on weight/topology mismatch;
    /// [`StoreError::Io`] on persistence failure.
    pub fn create_namespace(
        &self,
        name: &str,
        topo: Topology,
        weights: EdgeWeights,
        budget: Option<(Epsilon, Delta)>,
    ) -> Result<(), StoreError> {
        self.create_namespace_inner(name, topo, weights, budget, None)
    }

    /// Creates a **geo** namespace: like
    /// [`create_namespace`](Self::create_namespace), plus one public
    /// lat/lon coordinate per node. The coordinates are indexed into a
    /// quad tree once, persisted crash-safely next to the manifest
    /// (`geo.index`, temp-write + fsync + rename, referenced by a
    /// `geo file` manifest line), and replayed with full structural
    /// validation on [`open`](Self::open). The index is epoch-invariant:
    /// weight updates never touch it, because coordinates — like the
    /// topology — are public data.
    ///
    /// # Errors
    /// [`StoreError::Geo`] when `coords` and the topology disagree on
    /// the node count or a coordinate is non-finite; otherwise as
    /// [`create_namespace`](Self::create_namespace).
    pub fn create_namespace_geo(
        &self,
        name: &str,
        topo: Topology,
        weights: EdgeWeights,
        coords: Vec<GeoPoint>,
        budget: Option<(Epsilon, Delta)>,
    ) -> Result<(), StoreError> {
        if coords.len() != topo.num_nodes() {
            return Err(privpath_geo::GeoError::CoordTopologyMismatch {
                nodes: topo.num_nodes(),
                coords: coords.len(),
            }
            .into());
        }
        let index = SpatialIndex::build(coords)?;
        self.create_namespace_inner(name, topo, weights, budget, Some(Arc::new(index)))
    }

    fn create_namespace_inner(
        &self,
        name: &str,
        topo: Topology,
        weights: EdgeWeights,
        budget: Option<(Epsilon, Delta)>,
        geo: Option<Arc<SpatialIndex>>,
    ) -> Result<(), StoreError> {
        if !is_valid_namespace(name) {
            return Err(StoreError::InvalidNamespace(name.into()));
        }
        let mut map = self.map_write();
        if map.contains_key(name) {
            return Err(StoreError::NamespaceExists(name.into()));
        }
        let dir = self.root.join(name);
        if dir.join(MANIFEST_FILE).is_file() {
            return Err(StoreError::NamespaceExists(name.into()));
        }
        let accountant = match budget {
            Some((e, d)) => Accountant::with_budget(e, d),
            None => Accountant::unbounded(),
        };
        let engine = ReleaseEngine::with_accountant(topo, weights, accountant)?;
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        let topology_checksum = write_topology_file(&dir, engine.topology())?;
        let mut writer = NamespaceWriter {
            name: name.to_string(),
            dir: dir.clone(),
            engine,
            specs: BTreeMap::new(),
            epoch: 0,
            budget: budget.map(|(e, d)| (e.value(), d.value())),
            topology_checksum,
            weights_file: String::new(),
            continual: None,
            geo,
        };
        writer.weights_file = writer.write_weights_file(writer.engine.weights(), 0)?;
        // The index before the manifest that references it: a crash
        // between the two leaves an unreferenced file for GC, never a
        // manifest pointing at nothing.
        if let Some(index) = &writer.geo {
            atomic_write(&dir.join(GEO_INDEX_FILE), index.to_text().as_bytes())?;
        }
        writer.persist_manifest()?;
        let ns = self.namespace_from_writer(writer);
        map.insert(name.to_string(), Arc::new(ns));
        Ok(())
    }

    /// Creates a **continual-release** namespace: a fixed update horizon
    /// `T`, a mandatory `(eps, delta)` budget converted through the
    /// tight zCDP inverse into a rho allowance, and a binary-tree
    /// composer whose capacity is `T + 1` (the base weights are stream
    /// item 1, so every later prefix sum *is* the current weights).
    /// Weight updates on this namespace route through the composer and
    /// debit the ledger only when the stream crosses a power of two —
    /// polylog total spend over the whole stream instead of a fresh full
    /// debit per update.
    ///
    /// # Errors
    /// [`StoreError::ContinualAccountant`] when `delta == 0` (a pure-DP
    /// ledger admits no Gaussian tree noise to compose) or `horizon` is
    /// zero; otherwise as [`create_namespace`](Self::create_namespace).
    pub fn create_namespace_continual(
        &self,
        name: &str,
        topo: Topology,
        weights: EdgeWeights,
        budget: (Epsilon, Delta),
        horizon: u64,
    ) -> Result<(), StoreError> {
        let (eps, delta) = budget;
        if delta.value() <= 0.0 {
            return Err(StoreError::ContinualAccountant(
                "continual mode needs an approximate-DP budget (delta > 0): a pure-DP \
                 ledger admits no Gaussian tree noise to compose"
                    .into(),
            ));
        }
        if horizon == 0 {
            return Err(StoreError::ContinualAccountant(
                "continual horizon must be at least 1".into(),
            ));
        }
        if !is_valid_namespace(name) {
            return Err(StoreError::InvalidNamespace(name.into()));
        }
        let mut map = self.map_write();
        if map.contains_key(name) {
            return Err(StoreError::NamespaceExists(name.into()));
        }
        let dir = self.root.join(name);
        if dir.join(MANIFEST_FILE).is_file() {
            return Err(StoreError::NamespaceExists(name.into()));
        }
        let rho_total = max_rho_for_epsilon(eps.value(), delta.value())
            .map_err(|e| StoreError::ContinualAccountant(e.to_string()))?;
        let mut state = ContinualState::new(horizon, rho_total, delta.value(), weights.len())?;
        let accountant = Accountant::with_budget(eps, delta);
        let mut engine = ReleaseEngine::with_accountant(topo, weights, accountant)?;
        // Stream item 1 is the base weight vector itself. Debit the
        // telescoped increment (plus the one-time delta) before any
        // noise is drawn — check-before-noise, as everywhere else.
        let (inc_eps, inc_delta) = state.prospective_debit()?;
        engine.debit(
            "continual@1",
            Epsilon::new(inc_eps).map_err(EngineError::Dp)?,
            Delta::new(inc_delta).map_err(EngineError::Dp)?,
        )?;
        let base = engine.weights().as_slice().to_vec();
        let mut rng = self.next_rng();
        state
            .composer
            .push(&base, &mut rng)
            .map_err(|e| StoreError::ContinualAccountant(e.to_string()))?;
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        let state_file = state_file_name(0);
        state.write_state(&dir, &state_file)?;
        let topology_checksum = write_topology_file(&dir, engine.topology())?;
        let mut writer = NamespaceWriter {
            name: name.to_string(),
            dir: dir.clone(),
            engine,
            specs: BTreeMap::new(),
            epoch: 0,
            budget: Some((eps.value(), delta.value())),
            topology_checksum,
            weights_file: String::new(),
            continual: Some((state, state_file)),
            geo: None,
        };
        writer.weights_file = writer.write_weights_file(writer.engine.weights(), 0)?;
        writer.persist_manifest()?;
        let ns = self.namespace_from_writer(writer);
        map.insert(name.to_string(), Arc::new(ns));
        Ok(())
    }

    /// Runs `spec` as a new release in `namespace`: budget pre-checked,
    /// staged, installed, persisted, then published to readers via an
    /// epoch bump.
    ///
    /// # Errors
    /// [`StoreError::UnknownNamespace`]; the engine's budget/mechanism
    /// errors; [`StoreError::Io`] when persistence fails (the registry is
    /// rolled back so memory matches the on-disk manifest; the in-memory
    /// spend of the discarded noise is kept conservatively but, like the
    /// noise, never published).
    pub fn publish(
        &self,
        namespace: &str,
        spec: &ReleaseSpec,
    ) -> Result<PublishReceipt, StoreError> {
        let started = Instant::now();
        let ns = self.get(namespace)?;
        let mut rng = self.next_rng();
        let mut w = ns.lock_writer(namespace)?;
        // Stage first: a mechanism failure touches nothing. A continual
        // namespace serves releases as **post-processing** of the tree
        // composer's estimate — exact mechanisms over already-noised
        // weights, zero marginal ledger cost — so only kinds whose
        // mechanism is exact under `ZeroNoise` are admissible.
        let staged = if let Some((state, _)) = &w.continual {
            if !spec.kind().is_continual_servable() {
                return Err(StoreError::InvalidSpec(format!(
                    "{} releases cannot be served continually: the mechanism perturbs \
                     per-release structure instead of post-processing the tree estimate",
                    spec.kind()
                )));
            }
            // The record keeps the spec's *nominal* eps (it doubles as
            // the persisted mechanism parameter); the actual ledger
            // debit is zero and the receipt reports that.
            let mut s = spec.run(
                w.engine.topology(),
                &state.estimate_weights(),
                // privlint: allow(budget-discipline, "continual serving is exact post-processing of the already-debited tree estimate; ZeroNoise draws nothing")
                &mut ZeroNoise,
            )?;
            s.accuracy =
                Some(state.contract(w.engine.topology().num_nodes(), w.engine.weights().len()));
            s
        } else {
            let (cost_eps, cost_delta) = spec.cost();
            w.check_budget(cost_eps, cost_delta)?;
            spec.run(
                w.engine.topology(),
                w.engine.weights(),
                // privlint: allow(budget-discipline, "check_budget pre-approved the full spec cost just above, so this draw is the debited one")
                &mut RngNoise::new(&mut rng),
            )?
        };
        let continual = w.continual.is_some();
        let new_epoch = w.epoch + 1;
        let (eps, delta) = if continual {
            (0.0, 0.0)
        } else {
            (staged.eps, staged.delta)
        };
        let label = format!("{}#e{new_epoch}", staged.release.kind());
        let id = if continual {
            w.engine.adopt_unspent(
                label,
                staged.eps,
                staged.delta,
                staged.accuracy,
                staged.release,
            )
        } else {
            w.engine.adopt(
                label,
                staged.eps,
                staged.delta,
                staged.accuracy,
                staged.release,
            )?
        };
        let file = release_file_name(id.value(), new_epoch);
        if let Err(e) = w.write_record_file(id, &file) {
            w.engine.remove(id);
            return Err(e);
        }
        w.specs.insert(
            id.value(),
            SpecEntry {
                spec: spec.clone(),
                file: file.clone(),
            },
        );
        w.epoch = new_epoch;
        if let Err(e) = w.persist_manifest() {
            // Roll back so memory matches the (old) manifest on disk; the
            // unreferenced file is deleted, never served.
            w.engine.remove(id);
            w.specs.remove(&id.value());
            w.epoch = new_epoch - 1;
            let _ = fs::remove_file(w.dir.join(&file));
            return Err(e);
        }
        let receipt = PublishReceipt {
            namespace: namespace.to_string(),
            id,
            epoch: w.epoch,
            eps,
            delta,
        };
        self.swap_snapshot(&ns, &w);
        record_commit_timing(
            "store_publish_seconds",
            namespace,
            started.elapsed().as_secs_f64(),
        );
        Ok(receipt)
    }

    /// Replaces `namespace`'s private weights and re-runs **every** live
    /// release against them, each under a fresh debit, then publishes
    /// the whole new generation to readers as one epoch bump (readers
    /// never see a mix of old- and new-weight releases).
    ///
    /// The pass is a two-phase commit. The total cost is checked against
    /// the budget **before any noise is drawn**; the whole generation is
    /// then *staged* — every mechanism run against the new weights with
    /// the registry untouched, so a mid-generation failure publishes and
    /// debits nothing — and written to fresh generation-suffixed files.
    /// Only then is the registry updated and the manifest renamed over
    /// (the commit point); the previous generation's files are deleted
    /// after the commit, so a crash at any step replays either entirely
    /// the old state or entirely the new one.
    ///
    /// # Errors
    /// [`StoreError::UnknownNamespace`]; [`StoreError::Engine`] on
    /// length-mismatched weights, weights a mechanism rejects (e.g.
    /// above a bounded-weight promise), or budget exhaustion;
    /// [`StoreError::Io`] on persistence failure. On any of these the
    /// old generation keeps serving.
    pub fn update_weights(
        &self,
        namespace: &str,
        new_weights: EdgeWeights,
    ) -> Result<UpdateReceipt, StoreError> {
        let started = Instant::now();
        let ns = self.get(namespace)?;
        let mut rng = self.next_rng();
        let mut w = ns.lock_writer(namespace)?;
        let update = WeightUpdate::measure(w.engine.weights(), &new_weights)?;

        if w.continual.is_some() {
            let result = self.update_weights_continual(
                namespace,
                &ns,
                &mut w,
                new_weights,
                &update,
                &mut rng,
            );
            if result.is_ok() {
                record_commit_timing(
                    "store_update_seconds",
                    namespace,
                    started.elapsed().as_secs_f64(),
                );
            }
            return result;
        }

        // Pre-check the whole pass so a partial re-release generation is
        // never even staged for budget reasons.
        let (total_eps, total_delta) = w.specs.values().fold((0.0, 0.0), |(e, d), entry| {
            (e + entry.spec.cost().0, d + entry.spec.cost().1)
        });
        if !w.specs.is_empty() {
            w.check_budget(total_eps, total_delta)?;
        }

        // Phase 1 — stage: run every mechanism against the new weights;
        // nothing (registry, ledger, disk) moves yet.
        let new_epoch = w.epoch + 1;
        let mut staged: Vec<(u64, String, String, StagedRelease)> = Vec::new();
        for (&id, entry) in &w.specs {
            let s = entry.spec.run(
                w.engine.topology(),
                &new_weights,
                // privlint: allow(budget-discipline, "the whole generation cost was pre-checked via check_budget before staging began")
                &mut RngNoise::new(&mut rng),
            )?;
            let label = format!("{}#{id}@e{new_epoch}", s.release.kind());
            staged.push((id, release_file_name(id, new_epoch), label, s));
        }

        // Phase 2 — persist the new generation, weights included, under
        // write-once names (old files untouched). An abort here deletes
        // the shadows and leaves memory and the manifest as they were.
        let abort_files = |w: &NamespaceWriter, upto: &[(u64, String, String, StagedRelease)]| {
            for (_, file, _, _) in upto {
                let _ = fs::remove_file(w.dir.join(file));
            }
        };
        for i in 0..staged.len() {
            let (_, file, label, s) = &staged[i];
            if let Err(e) = w.write_staged(file, label, s) {
                abort_files(&w, &staged[..=i]);
                return Err(e);
            }
        }
        let weights_file = match w.write_weights_file(&new_weights, new_epoch) {
            Ok(file) => file,
            Err(e) => {
                abort_files(&w, &staged);
                return Err(e);
            }
        };

        // Phase 3 — install and commit: registry + ledger, then the
        // manifest rename (the commit point), then GC the old files.
        w.engine.update_weights(new_weights)?;
        let (mut eps_spent, mut delta_spent) = (0.0, 0.0);
        let mut old_files = Vec::with_capacity(staged.len());
        for (id, file, label, s) in staged {
            eps_spent += s.eps;
            delta_spent += s.delta;
            w.engine.replace_release(
                ReleaseId::new(id),
                label,
                s.eps,
                s.delta,
                s.accuracy,
                s.release,
            )?;
            // privlint: allow(panic-freedom, "id iterates w.specs keys above; get_mut on the same untouched map cannot miss")
            #[allow(clippy::disallowed_methods)]
            let entry = w.specs.get_mut(&id).expect("staged from the spec map");
            old_files.push(std::mem::replace(&mut entry.file, file));
        }
        old_files.push(std::mem::replace(&mut w.weights_file, weights_file));
        w.epoch = new_epoch;
        w.persist_manifest()?;
        for file in old_files {
            let _ = fs::remove_file(w.dir.join(file));
        }
        let receipt = UpdateReceipt {
            namespace: namespace.to_string(),
            epoch: w.epoch,
            rereleased: w.specs.len(),
            eps: eps_spent,
            delta: delta_spent,
            l1_shift: update.l1_shift(),
            changed_edges: update.changed_edges(),
        };
        self.swap_snapshot(&ns, &w);
        record_commit_timing(
            "store_update_seconds",
            namespace,
            started.elapsed().as_secs_f64(),
        );
        Ok(receipt)
    }

    /// The continual-mode weight update: the delta against the current
    /// private weights becomes the next binary-tree stream item, every
    /// live release is re-staged as exact post-processing of the new
    /// tree estimate, and the ledger is debited only by the telescoped
    /// increment (zero except when the stream crosses a power of two).
    /// The tree state and the private weights persist to write-once
    /// epoch-suffixed files before the manifest rename, so the rename
    /// atomically commits stream position, weights, ledger and releases
    /// together.
    fn update_weights_continual(
        &self,
        namespace: &str,
        ns: &Namespace,
        w: &mut NamespaceWriter,
        new_weights: EdgeWeights,
        update: &WeightUpdate,
        rng: &mut StdRng,
    ) -> Result<UpdateReceipt, StoreError> {
        // privlint: allow(panic-freedom, "update_weights dispatches here only when w.continual is Some, under the same writer lock")
        #[allow(clippy::disallowed_methods)]
        let state = w.continual.as_ref().expect("checked by caller").0.clone();
        if state.position() >= state.horizon {
            return Err(StoreError::ContinualHorizon {
                namespace: w.name.clone(),
                horizon: state.horizon,
            });
        }
        let (inc_eps, inc_delta) = state.prospective_debit()?;
        if inc_eps > 0.0 || inc_delta > 0.0 {
            w.check_budget(inc_eps, inc_delta)?;
        }

        // Phase 1 — stage on a clone: the stream item is the true
        // per-edge delta; a failure anywhere below touches nothing.
        let mut new_state = state;
        let item = new_state.composer.items() + 1;
        let delta_vec: Vec<f64> = new_weights
            .as_slice()
            .iter()
            .zip(w.engine.weights().as_slice())
            .map(|(new, old)| new - old)
            .collect();
        new_state
            .composer
            .push(&delta_vec, rng)
            .map_err(|e| StoreError::ContinualAccountant(e.to_string()))?;
        let estimate = new_state.estimate_weights();
        let new_epoch = w.epoch + 1;
        let contract =
            new_state.contract(w.engine.topology().num_nodes(), w.engine.weights().len());
        let mut staged: Vec<(u64, String, String, StagedRelease)> = Vec::new();
        for (&id, entry) in &w.specs {
            let mut s = entry
                .spec
                // privlint: allow(budget-discipline, "re-staging is exact post-processing of the debited tree estimate; ZeroNoise draws nothing")
                .run(w.engine.topology(), &estimate, &mut ZeroNoise)?;
            s.accuracy = Some(contract);
            let label = format!("{}#{id}@e{new_epoch}", s.release.kind());
            staged.push((id, release_file_name(id, new_epoch), label, s));
        }

        // Phase 2 — persist the shadows, the new true weights, and the
        // new tree state under write-once names (old files untouched).
        let state_file = state_file_name(new_epoch);
        let abort_files = |w: &NamespaceWriter, upto: &[(u64, String, String, StagedRelease)]| {
            for (_, file, _, _) in upto {
                let _ = fs::remove_file(w.dir.join(file));
            }
        };
        for i in 0..staged.len() {
            let (_, file, label, s) = &staged[i];
            if let Err(e) = w.write_staged(file, label, s) {
                abort_files(w, &staged[..=i]);
                return Err(e);
            }
        }
        let weights_file = match w.write_weights_file(&new_weights, new_epoch) {
            Ok(file) => file,
            Err(e) => {
                abort_files(w, &staged);
                return Err(e);
            }
        };
        if let Err(e) = new_state.write_state(&w.dir, &state_file) {
            abort_files(w, &staged);
            let _ = fs::remove_file(w.dir.join(&weights_file));
            let _ = fs::remove_file(w.dir.join(&state_file));
            return Err(e);
        }

        // Phase 3 — install and commit: true weights, the telescoped
        // debit (skipped when zero: the ledger records only crossings),
        // the post-processed releases, then the manifest rename.
        w.engine.update_weights(new_weights)?;
        if inc_eps > 0.0 || inc_delta > 0.0 {
            w.engine.debit(
                format!("continual@{item}"),
                Epsilon::new(inc_eps).map_err(EngineError::Dp)?,
                Delta::new(inc_delta).map_err(EngineError::Dp)?,
            )?;
        }
        let mut old_files = Vec::with_capacity(staged.len());
        for (id, file, label, s) in staged {
            w.engine.replace_release_unspent(
                ReleaseId::new(id),
                label,
                s.eps,
                s.delta,
                s.accuracy,
                s.release,
            )?;
            // privlint: allow(panic-freedom, "id iterates w.specs keys above; get_mut on the same untouched map cannot miss")
            #[allow(clippy::disallowed_methods)]
            let entry = w.specs.get_mut(&id).expect("staged from the spec map");
            old_files.push(std::mem::replace(&mut entry.file, file));
        }
        let old_state_file = {
            // privlint: allow(panic-freedom, "guarded by the is_some dispatch in update_weights; the writer lock is held throughout")
            #[allow(clippy::disallowed_methods)]
            let slot = w.continual.as_mut().expect("checked by caller");
            slot.0 = new_state;
            std::mem::replace(&mut slot.1, state_file)
        };
        old_files.push(old_state_file);
        old_files.push(std::mem::replace(&mut w.weights_file, weights_file));
        w.epoch = new_epoch;
        w.persist_manifest()?;
        for file in old_files {
            let _ = fs::remove_file(w.dir.join(file));
        }
        let receipt = UpdateReceipt {
            namespace: namespace.to_string(),
            epoch: w.epoch,
            rereleased: w.specs.len(),
            eps: inc_eps,
            delta: inc_delta,
            l1_shift: update.l1_shift(),
            changed_edges: update.changed_edges(),
        };
        self.swap_snapshot(ns, w);
        Ok(receipt)
    }

    /// [`update_weights`](Self::update_weights) from a sparse set of
    /// `(edge, new weight)` updates applied to the current weights.
    ///
    /// # Errors
    /// As [`update_weights`](Self::update_weights), plus
    /// [`StoreError::Engine`] for out-of-range edges or non-finite
    /// values.
    pub fn update_weights_sparse(
        &self,
        namespace: &str,
        updates: &[(EdgeId, f64)],
    ) -> Result<UpdateReceipt, StoreError> {
        let new_weights = {
            let ns = self.get(namespace)?;
            let w = ns.lock_writer(namespace)?;
            w.engine.weights().with_updates(updates)?
        };
        // The writer lock is released and retaken: a racing full update
        // between the two would make this one's base stale, which is the
        // same outcome as the two arriving in the other order.
        self.update_weights(namespace, new_weights)
    }

    /// [`update_weights`](Self::update_weights) from pairs declared to be
    /// a **full replacement**: exactly one weight per edge of the
    /// namespace, no silent partial updates. A pair list that is too
    /// short, too long, out of range, or carries duplicate edges is
    /// refused before anything runs — this is the wire form of "replace
    /// the whole weight vector" (the sparse form is
    /// [`update_weights_sparse`](Self::update_weights_sparse)).
    ///
    /// # Errors
    /// [`StoreError::InvalidUpdate`] when the pairs are not exactly one
    /// per edge; otherwise as [`update_weights`](Self::update_weights).
    pub fn update_weights_full(
        &self,
        namespace: &str,
        updates: &[(EdgeId, f64)],
    ) -> Result<UpdateReceipt, StoreError> {
        let num_edges = {
            let ns = self.get(namespace)?;
            let w = ns.lock_writer(namespace)?;
            w.engine.weights().len()
        };
        if updates.len() != num_edges {
            return Err(StoreError::InvalidUpdate(format!(
                "full replacement carries {} weights but the namespace has {} edges",
                updates.len(),
                num_edges
            )));
        }
        let mut values: Vec<Option<f64>> = vec![None; num_edges];
        for &(e, v) in updates {
            if e.index() >= num_edges {
                return Err(StoreError::from(
                    privpath_graph::GraphError::EdgeOutOfRange { edge: e, num_edges },
                ));
            }
            if values[e.index()].replace(v).is_some() {
                return Err(StoreError::InvalidUpdate(format!(
                    "edge {} specified twice in a full replacement",
                    e.index()
                )));
            }
        }
        // Length matches and every index is distinct and in range, so
        // every slot is filled.
        #[allow(clippy::disallowed_methods)]
        let new_weights = EdgeWeights::new(
            values
                .into_iter()
                // privlint: allow(panic-freedom, "length equals num_edges and indices are distinct and in range, so every slot was filled")
                .map(|v| v.expect("every slot filled"))
                .collect(),
        )?;
        self.update_weights(namespace, new_weights)
    }

    /// Unregisters one release. The manifest commits first and the file
    /// is deleted after (a crash between the two leaves an unreferenced
    /// file that [`open`](Self::open) garbage-collects — never a
    /// manifest pointing at a missing file). The ledger keeps every
    /// spend that produced the release.
    ///
    /// # Errors
    /// [`StoreError::UnknownNamespace`];
    /// [`StoreError::Engine`]([`EngineError::UnknownRelease`]) for an
    /// unknown id; [`StoreError::Io`] on persistence failure (rolled
    /// back: the release keeps serving).
    pub fn drop_release(&self, namespace: &str, id: ReleaseId) -> Result<u64, StoreError> {
        let ns = self.get(namespace)?;
        let mut w = ns.lock_writer(namespace)?;
        let Some(entry) = w.specs.get(&id.value()).cloned() else {
            return Err(StoreError::Engine(EngineError::UnknownRelease(id.value())));
        };
        #[allow(clippy::disallowed_methods)]
        let removed = w
            .engine
            .remove(id)
            // privlint: allow(panic-freedom, "entry was just found in w.specs; spec map and registry insert and remove together under the writer lock")
            .expect("spec map and registry agree on live ids");
        w.specs.remove(&id.value());
        w.epoch += 1;
        if let Err(e) = w.persist_manifest() {
            // Restore memory to match the manifest still on disk.
            w.epoch -= 1;
            w.specs.insert(id.value(), entry);
            let _ = w.engine.adopt_spent(
                id,
                removed.label().to_string(),
                removed.eps(),
                removed.delta(),
                removed.accuracy().cloned(),
                removed.release().clone(),
            );
            return Err(e);
        }
        let _ = fs::remove_file(w.dir.join(&entry.file));
        let epoch = w.epoch;
        self.swap_snapshot(&ns, &w);
        Ok(epoch)
    }

    /// Removes a whole namespace from the store and deletes its
    /// directory (releases, weights, manifest). Readers holding a
    /// snapshot keep answering from it.
    ///
    /// # Errors
    /// [`StoreError::UnknownNamespace`]; [`StoreError::Io`] if the
    /// directory cannot be removed (the namespace is already gone from
    /// serving at that point).
    pub fn drop_namespace(&self, namespace: &str) -> Result<(), StoreError> {
        let removed = self
            .map_write()
            .remove(namespace)
            .ok_or_else(|| StoreError::UnknownNamespace(namespace.into()))?;
        // `dir` never mutates after construction, so it survives even a
        // poisoned writer — and the directory must still be deleted.
        let dir = removed
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dir
            .clone();
        fs::remove_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))
    }

    /// The current epoch of a namespace.
    ///
    /// # Errors
    /// [`StoreError::UnknownNamespace`].
    pub fn epoch(&self, namespace: &str) -> Result<u64, StoreError> {
        Ok(self.snapshot(namespace)?.epoch())
    }

    /// The current snapshot of a namespace: two brief shared-lock reads,
    /// then entirely lock-free.
    ///
    /// # Errors
    /// [`StoreError::UnknownNamespace`].
    pub fn snapshot(&self, namespace: &str) -> Result<Arc<NamespaceSnapshot>, StoreError> {
        let ns = self.get(namespace)?;
        Ok(ns.current_snapshot())
    }

    /// Per-namespace counters, sorted by name.
    pub fn stats(&self) -> Vec<NamespaceStats> {
        let map = self.map_read();
        map.values()
            .map(|ns| {
                let snap = ns.current_snapshot();
                let (spent_eps, spent_delta) = snap.service().spent();
                NamespaceStats {
                    namespace: snap.namespace().to_string(),
                    epoch: snap.epoch(),
                    releases: snap.service().len(),
                    spent_eps,
                    spent_delta,
                    remaining: snap.service().remaining(),
                    cache_hits: ns.counters.hits(),
                    cache_misses: ns.counters.misses(),
                    continual: snap.continual(),
                }
            })
            .collect()
    }

    /// [`stats`](Self::stats) for one namespace.
    ///
    /// # Errors
    /// [`StoreError::UnknownNamespace`].
    pub fn stats_for(&self, namespace: &str) -> Result<NamespaceStats, StoreError> {
        self.stats()
            .into_iter()
            .find(|s| s.namespace == namespace)
            .ok_or_else(|| StoreError::UnknownNamespace(namespace.into()))
    }

    /// Namespace-map access. The map only ever holds fully constructed
    /// `Arc<Namespace>` entries (values are built before insertion and
    /// removed whole), so even a poisoned lock guards a structurally
    /// valid map; recover it rather than cascade an unrelated panic.
    fn map_read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<Namespace>>> {
        self.namespaces
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to the namespace map (see
    /// [`map_read`](Self::map_read) for the poisoning argument).
    fn map_write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Arc<Namespace>>> {
        self.namespaces
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, namespace: &str) -> Result<Arc<Namespace>, StoreError> {
        self.map_read()
            .get(namespace)
            .cloned()
            .ok_or_else(|| StoreError::UnknownNamespace(namespace.into()))
    }

    fn next_rng(&self) -> StdRng {
        let n = self.seed.fetch_add(1, Ordering::Relaxed);
        StdRng::seed_from_u64(n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn build_snapshot(
        &self,
        writer: &NamespaceWriter,
        counters: &CacheCounters,
    ) -> NamespaceSnapshot {
        NamespaceSnapshot {
            namespace: writer.name.clone(),
            epoch: writer.epoch,
            service: writer.engine.snapshot(),
            cache: self
                .cache_enabled
                .then(|| SourceCache::new(self.cache_capacity, counters.clone())),
            continual: writer.continual.as_ref().map(|(s, _)| s.status()),
            geo: writer.geo.clone(),
        }
    }

    fn namespace_from_writer(&self, writer: NamespaceWriter) -> Namespace {
        let counters = CacheCounters::for_namespace(&writer.name);
        let snapshot = Arc::new(self.build_snapshot(&writer, &counters));
        Namespace {
            writer: Mutex::new(writer),
            current: RwLock::new(snapshot),
            counters,
        }
    }

    /// Publishes the writer's state to readers: one pointer swap under a
    /// brief write lock, after the mutation fully committed.
    fn swap_snapshot(&self, ns: &Namespace, writer: &NamespaceWriter) {
        // Every swap is a committed epoch bump (publish, update, drop,
        // continual update) — count it where they all converge.
        privpath_obs::MetricRegistry::global()
            .counter_with("store_epoch_bumps_total", &[("ns", &writer.name)])
            .inc();
        let snapshot = Arc::new(self.build_snapshot(writer, &ns.counters));
        ns.publish_snapshot(snapshot);
    }

    /// Replays one namespace directory: manifest, ledger, release files.
    fn load_namespace(&self, dir: &Path) -> Result<(String, Namespace), StoreError> {
        let data = read_manifest(dir)?;
        let dir_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if data.namespace != dir_name {
            return Err(StoreError::manifest(
                &dir.join(MANIFEST_FILE),
                format!(
                    "manifest names namespace {:?} but lives in directory {:?}",
                    data.namespace, dir_name
                ),
            ));
        }
        if !is_valid_namespace(&data.namespace) {
            return Err(StoreError::InvalidNamespace(data.namespace));
        }

        // The topology file's checksum is computed once here; every
        // release file must name it.
        let topo_path = dir.join(TOPOLOGY_FILE);
        let topo_bytes = fs::read(&topo_path).map_err(|e| StoreError::io(&topo_path, e))?;
        let topology_checksum = checksum64(&topo_bytes);
        let topo =
            read_topology(topo_bytes.as_slice()).map_err(|e| StoreError::io(&topo_path, e))?;
        let weights_path = dir.join(&data.weights);
        let weights = read_weights_binary(BufReader::new(
            File::open(&weights_path).map_err(|e| StoreError::io(&weights_path, e))?,
        ))
        .map_err(|e| StoreError::io(&weights_path, e))?;

        // Continual state replays from its own file; the manifest's
        // horizon/rho/delta must agree with it or the namespace refuses
        // to load (a mismatch means the stream position is unaccounted).
        let continual = match &data.continual {
            Some(cm) => {
                let state = ContinualState::read_state(dir, &cm.file, weights.len())?;
                // Both sides are parsed from files we wrote, so the
                // cross-check is exact bit equality, not float `==`.
                if state.horizon != cm.horizon
                    || state.rho_total.to_bits() != cm.rho_total.to_bits()
                    || state.delta.to_bits() != cm.delta.to_bits()
                {
                    return Err(StoreError::manifest(
                        &dir.join(MANIFEST_FILE),
                        format!(
                            "continual state file {:?} disagrees with the manifest's \
                             horizon/rho/delta",
                            cm.file
                        ),
                    ));
                }
                Some((state, cm.file.clone()))
            }
            None => None,
        };

        // The spatial index replays from its own file with full
        // structural validation; a point count disagreeing with the
        // topology means the artifact belongs to a different network,
        // so the namespace refuses to load.
        let geo = match &data.geo {
            Some(file) => {
                let path = dir.join(file);
                let text = fs::read_to_string(&path).map_err(|e| StoreError::io(&path, e))?;
                let index = SpatialIndex::from_text(&text)?;
                if index.len() != topo.num_nodes() {
                    return Err(StoreError::manifest(
                        &dir.join(MANIFEST_FILE),
                        format!(
                            "geo index {file:?} holds {} points but the topology has {} nodes",
                            index.len(),
                            topo.num_nodes()
                        ),
                    ));
                }
                Some(Arc::new(index))
            }
            None => None,
        };

        // The ledger first: spends cover every release and re-release,
        // including generations since replaced.
        let mut accountant = match data.budget {
            Some((e, d)) => Accountant::with_budget(
                Epsilon::new(e).map_err(EngineError::Dp)?,
                Delta::new(d).map_err(EngineError::Dp)?,
            ),
            None => Accountant::unbounded(),
        };
        for (label, eps, delta) in &data.spends {
            accountant
                .spend(
                    label.clone(),
                    Epsilon::new(*eps).map_err(EngineError::Dp)?,
                    Delta::new(*delta).map_err(EngineError::Dp)?,
                )
                .map_err(|e| {
                    StoreError::manifest(
                        &dir.join(MANIFEST_FILE),
                        format!("ledger replay failed at spend {label:?}: {e}"),
                    )
                })?;
        }
        let mut engine = ReleaseEngine::with_accountant(topo, weights, accountant)?;

        let mut specs = BTreeMap::new();
        for (id, file, spec) in &data.releases {
            let path = dir.join(file);
            let shared = SharedTopology {
                topology: engine.topology(),
                checksum: topology_checksum,
            };
            let stored = privpath_engine::read_release(
                BufReader::new(File::open(&path).map_err(|e| StoreError::io(&path, e))?),
                Some(shared),
            )
            .map_err(|e| StoreError::io(&path, e))?;
            if stored.release.kind() != spec.kind() {
                return Err(StoreError::manifest(
                    &dir.join(MANIFEST_FILE),
                    format!(
                        "release {id} is a {} file but its spec says {}",
                        stored.release.kind(),
                        spec.kind()
                    ),
                ));
            }
            engine.adopt_spent(
                ReleaseId::new(*id),
                stored.label,
                stored.eps,
                stored.delta,
                stored.accuracy,
                stored.release,
            )?;
            specs.insert(
                *id,
                SpecEntry {
                    spec: spec.clone(),
                    file: file.clone(),
                },
            );
        }

        // Crash leftovers: temp files and release files the manifest does
        // not reference are never served — delete them.
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                let referenced = data.releases.iter().any(|(_, f, _)| *f == name)
                    || data.continual.as_ref().is_some_and(|c| c.file == name)
                    || data.geo.as_deref() == Some(name.as_str())
                    || name == MANIFEST_FILE
                    || name == data.weights
                    || name == TOPOLOGY_FILE;
                if !referenced && path.is_file() {
                    let _ = fs::remove_file(&path);
                }
            }
        }

        let writer = NamespaceWriter {
            name: data.namespace.clone(),
            dir: dir.to_path_buf(),
            engine,
            specs,
            epoch: data.epoch,
            budget: data.budget,
            topology_checksum,
            weights_file: data.weights.clone(),
            continual,
            geo,
        };
        Ok((data.namespace.clone(), self.namespace_from_writer(writer)))
    }
}

impl std::fmt::Debug for ReleaseStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReleaseStore")
            .field("root", &self.root)
            .field("cache_enabled", &self.cache_enabled)
            .field("namespaces", &self.namespaces())
            .finish()
    }
}
