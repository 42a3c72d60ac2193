//! Empirical accuracy audit: every mechanism's *measured* error against
//! its *declared* `AccuracyContract`.
//!
//! For each of the nine mechanisms the audit releases on seeded random
//! inputs, measures the observed error over a pinned query workload
//! (max distance error for distance mechanisms, weight excess over the
//! exact optimum for MST/matching), and asserts the declared
//! `error_bound(GAMMA)` holds at empirical rate at least `1 - GAMMA`
//! across [`TRIALS`] seeded trials. The audit iterates
//! [`ReleaseKind::ALL`] through an exhaustive match on the kind: adding
//! a mechanism without adding its audit entry fails to compile, and
//! every entry `expect`s a declared contract, so a kind without one
//! fails at runtime — the `tests-audit` CI job catches both.
//!
//! Live-store re-releases are audited the same way: an `update-weights`
//! pass re-runs every release against fresh weights, and
//! [`run_rerelease_audit`] (its own exhaustive match) asserts each
//! re-released generation honors the contract its record declares.
//!
//! The headline assertions live at the bottom: the shortcut-APSP
//! mechanism's measured error must be *strictly below* the all-pairs
//! baseline's on bounded-weight graphs (the first mechanism whose claim
//! is beating a baseline, not matching a theorem), checked fast at
//! `n = 256` and, in the compute-heavy ignored tests the `tests-audit`
//! CI job runs with `--release -- --include-ignored`, at `n = 1024`.

use privpath::engine::{mechanisms, DistanceRelease, Mechanism, ReleaseKind};
use privpath::graph::algo::{dijkstra, min_weight_perfect_matching, minimum_spanning_forest};
use privpath::graph::generators::{connected_gnm, random_tree_prufer, uniform_weights};
use privpath::prelude::*;
use privpath::store::StoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded trials per mechanism (the issue floor is 100).
const TRIALS: usize = 100;
/// The audited failure probability: bounds must hold at empirical rate
/// at least `1 - GAMMA`.
const GAMMA: f64 = 0.05;
/// The bounded-weight promise used by every graph workload here.
const MAX_WEIGHT: f64 = 1.0;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn delta() -> Delta {
    Delta::new(1e-6).unwrap()
}

/// A connected bounded-weight graph workload, seeded.
fn graph_workload(v: usize, m: usize, seed: u64) -> (Topology, EdgeWeights) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = connected_gnm(v, m, &mut rng);
    let w = uniform_weights(m, 0.0, MAX_WEIGHT, &mut rng);
    (topo, w)
}

/// A random tree workload, seeded.
fn tree_workload(v: usize, seed: u64) -> (Topology, EdgeWeights) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_tree_prufer(v, &mut rng);
    let w = uniform_weights(topo.num_edges(), 0.0, MAX_WEIGHT, &mut rng);
    (topo, w)
}

/// A complete bipartite workload with a perfect matching, seeded.
fn bipartite_workload(n_half: usize, seed: u64) -> (Topology, EdgeWeights) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Topology::builder(2 * n_half);
    for i in 0..n_half {
        for j in 0..n_half {
            b.add_edge(NodeId::new(i), NodeId::new(n_half + j));
        }
    }
    let topo = b.build();
    let w = uniform_weights(topo.num_edges(), 0.0, MAX_WEIGHT, &mut rng);
    (topo, w)
}

/// A pinned query workload: `sources` vertices, `per_source` targets
/// each, drawn from a seeded stream.
fn query_pairs(v: usize, sources: usize, per_source: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(sources * per_source);
    for _ in 0..sources {
        let s = rng.gen_range(0..v);
        for _ in 0..per_source {
            let mut t = rng.gen_range(0..v);
            if t == s {
                t = (t + 1) % v;
            }
            pairs.push((NodeId::new(s), NodeId::new(t)));
        }
    }
    pairs
}

/// True distances for a pinned workload: one Dijkstra per distinct
/// source.
fn true_distances(topo: &Topology, w: &EdgeWeights, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let mut cache: std::collections::HashMap<usize, Vec<f64>> = std::collections::HashMap::new();
    pairs
        .iter()
        .map(|&(s, t)| {
            let dists = cache
                .entry(s.index())
                .or_insert_with(|| dijkstra(topo, w, s).unwrap().distances().to_vec());
            dists[t.index()]
        })
        .collect()
}

/// One mechanism's audit result: the declared bound and the per-trial
/// measured errors.
struct AuditOutcome {
    theorem: Theorem,
    alpha: f64,
    measured: Vec<f64>,
}

impl std::fmt::Display for AuditOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: bound {:.3}, worst measured {:.3}",
            self.theorem,
            self.alpha,
            self.measured.iter().cloned().fold(0.0, f64::max)
        )
    }
}

impl AuditOutcome {
    /// Trials whose measured error stayed within the declared bound.
    fn within(&self) -> usize {
        self.measured.iter().filter(|&&m| m <= self.alpha).count()
    }

    fn assert_rate(&self, name: &str) {
        assert!(
            self.alpha.is_finite() && self.alpha > 0.0,
            "{name}: degenerate declared bound {}",
            self.alpha
        );
        let need = ((1.0 - GAMMA) * self.measured.len() as f64).ceil() as usize;
        assert!(
            self.within() >= need,
            "{name}: only {}/{} trials within declared bound {} (worst measured {})",
            self.within(),
            self.measured.len(),
            self.alpha,
            self.measured.iter().cloned().fold(0.0, f64::max),
        );
    }

    fn max_measured(&self) -> f64 {
        self.measured.iter().cloned().fold(0.0, f64::max)
    }
}

/// Audits a distance mechanism: releases per trial, measures the max
/// `|released - true|` over the pinned workload.
fn audit_distance<M: Mechanism>(
    mech: &M,
    params: &M::Params,
    topo: &Topology,
    weights: &EdgeWeights,
    trials: usize,
    seed: u64,
) -> AuditOutcome
where
    M::Release: DistanceRelease,
{
    let bound = mech
        .error_bound(topo, params, GAMMA)
        .expect("mechanism declares a contract");
    let pairs = query_pairs(topo.num_nodes(), 8, 5, seed ^ 0x5eed);
    let truth = true_distances(topo, weights, &pairs);
    let measured = (0..trials)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
            let release = mech
                .release(topo, weights, params, &mut rng)
                .expect("release succeeds");
            let est = release.distance_batch(&pairs).expect("workload in range");
            est.iter()
                .zip(&truth)
                .map(|(e, t)| (e - t).abs())
                .fold(0.0, f64::max)
        })
        .collect();
    AuditOutcome {
        theorem: bound.theorem(),
        alpha: bound.alpha(),
        measured,
    }
}

/// Audits a structure mechanism (MST / matching): measures the released
/// structure's true-weight excess over the exact optimum.
#[allow(clippy::too_many_arguments)]
fn audit_structure<M: Mechanism>(
    mech: &M,
    params: &M::Params,
    topo: &Topology,
    weights: &EdgeWeights,
    optimum: f64,
    released_weight: impl Fn(&M::Release, &EdgeWeights) -> f64,
    trials: usize,
    seed: u64,
) -> AuditOutcome {
    let bound = mech
        .error_bound(topo, params, GAMMA)
        .expect("mechanism declares a contract");
    let measured = (0..trials)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
            let release = mech
                .release(topo, weights, params, &mut rng)
                .expect("release succeeds");
            (released_weight(&release, weights) - optimum).max(0.0)
        })
        .collect();
    AuditOutcome {
        theorem: bound.theorem(),
        alpha: bound.alpha(),
        measured,
    }
}

/// The audit entry for one mechanism kind. **Exhaustive on purpose**:
/// a new `ReleaseKind` variant fails to compile until it gets an audit
/// entry here, and the `tests-audit` CI job runs this file.
fn run_audit(kind: ReleaseKind, trials: usize) -> AuditOutcome {
    let e = eps(1.0);
    match kind {
        ReleaseKind::ShortestPath => {
            let (topo, w) = graph_workload(48, 120, 11);
            let params = ShortestPathParams::new(e, GAMMA).unwrap();
            audit_distance(&mechanisms::ShortestPaths, &params, &topo, &w, trials, 100)
        }
        ReleaseKind::Tree => {
            let (topo, w) = tree_workload(48, 12);
            let params = TreeDistanceParams::new(e);
            audit_distance(&mechanisms::TreeAllPairs, &params, &topo, &w, trials, 200)
        }
        ReleaseKind::HldTree => {
            let (topo, w) = tree_workload(48, 13);
            let params = TreeDistanceParams::new(e);
            audit_distance(&mechanisms::HldTree, &params, &topo, &w, trials, 300)
        }
        ReleaseKind::BoundedWeight => {
            let (topo, w) = graph_workload(48, 120, 14);
            let params = BoundedWeightParams::approx(e, delta(), MAX_WEIGHT).unwrap();
            audit_distance(&mechanisms::BoundedWeight, &params, &topo, &w, trials, 400)
        }
        ReleaseKind::Mst => {
            let (topo, w) = graph_workload(40, 100, 15);
            let optimum = minimum_spanning_forest(&topo, &w).unwrap().total_weight;
            audit_structure(
                &mechanisms::Mst,
                &MstParams::new(e),
                &topo,
                &w,
                optimum,
                |r, w| r.weight_under(w),
                trials,
                500,
            )
        }
        ReleaseKind::Matching => {
            let (topo, w) = bipartite_workload(8, 16);
            let optimum = min_weight_perfect_matching(&topo, &w).unwrap().total_weight;
            audit_structure(
                &mechanisms::Matching::default(),
                &MatchingParams::new(e),
                &topo,
                &w,
                optimum,
                |r, w| r.weight_under(w),
                trials,
                600,
            )
        }
        ReleaseKind::SyntheticGraph => {
            let (topo, w) = graph_workload(48, 120, 17);
            let params = mechanisms::SyntheticGraphParams::new(e);
            audit_distance(&mechanisms::SyntheticGraph, &params, &topo, &w, trials, 700)
        }
        ReleaseKind::AllPairsBaseline => {
            let (topo, w) = graph_workload(48, 120, 18);
            let params = mechanisms::AllPairsBaselineParams::basic(e);
            audit_distance(
                &mechanisms::AllPairsBaseline,
                &params,
                &topo,
                &w,
                trials,
                800,
            )
        }
        ReleaseKind::ShortcutApsp => {
            let (topo, w) = graph_workload(48, 120, 19);
            let params = ShortcutApspParams::approx(e, delta(), MAX_WEIGHT).unwrap();
            audit_distance(&mechanisms::ShortcutApsp, &params, &topo, &w, trials, 900)
        }
    }
}

/// The audit's coverage roster is the kind table itself: every name
/// parses back to its kind, and no two kinds share a name.
#[test]
fn audit_roster_is_complete_and_unique() {
    for (i, kind) in ReleaseKind::ALL.iter().enumerate() {
        assert_eq!(ReleaseKind::parse(kind.as_str()), Some(*kind));
        assert!(
            ReleaseKind::ALL[..i]
                .iter()
                .all(|other| other.as_str() != kind.as_str()),
            "duplicate kind name {kind}"
        );
    }
}

#[test]
fn every_mechanism_meets_its_declared_bound_empirically() {
    for kind in ReleaseKind::ALL {
        let outcome = run_audit(kind, TRIALS);
        println!("{kind} — {outcome}");
        outcome.assert_rate(kind.as_str());
    }
}

/// The observed error must not just sit under the bound — it must be a
/// *meaningful* measurement: a release with noise produces nonzero error
/// somewhere across 100 trials for every distance mechanism.
#[test]
fn audit_measurements_are_nondegenerate() {
    for name in ["shortest-path", "bounded-weight", "shortcut-apsp"] {
        let outcome = run_audit(ReleaseKind::parse(name).unwrap(), 10);
        assert!(
            outcome.max_measured() > 0.0,
            "{name}: audit measured exactly zero error across trials"
        );
    }
}

// ---------------------------------------------------------------------------
// Live-store re-release audit: an `update-weights` re-release must honor
// the same declared contract as a first release.
// ---------------------------------------------------------------------------

/// Audits one storable kind through the live store: publish once, then
/// repeatedly swap in fresh seeded weights (each swap re-releases under
/// a fresh debit) and measure the observed error of the re-released
/// generation against the contract the record declares. **Exhaustive on
/// purpose**, like [`run_audit`]: a new `ReleaseKind` fails to compile
/// until it either gets a re-release audit entry or is explicitly
/// recorded here as having no store surface.
fn run_rerelease_audit(kind: ReleaseKind, trials: usize) -> Option<AuditOutcome> {
    let e = eps(1.0);
    let v = 32;
    let m = 80;
    let (topo, w0, spec, seed) = match kind {
        ReleaseKind::ShortestPath => {
            let (topo, w) = graph_workload(v, m, 31);
            let spec = ReleaseSpec::new(kind, e)
                .unwrap()
                .with_gamma(GAMMA)
                .unwrap();
            (topo, w, spec, 3100)
        }
        ReleaseKind::Tree => {
            let (topo, w) = tree_workload(v, 32);
            (topo, w, ReleaseSpec::new(kind, e).unwrap(), 3200)
        }
        ReleaseKind::BoundedWeight => {
            let (topo, w) = graph_workload(v, m, 33);
            let spec = ReleaseSpec::new(kind, e)
                .unwrap()
                .with_delta(delta())
                .unwrap()
                .with_max_weight(MAX_WEIGHT)
                .unwrap();
            (topo, w, spec, 3300)
        }
        ReleaseKind::ShortcutApsp => {
            let (topo, w) = graph_workload(v, m, 34);
            let spec = ReleaseSpec::new(kind, e)
                .unwrap()
                .with_delta(delta())
                .unwrap()
                .with_max_weight(MAX_WEIGHT)
                .unwrap();
            (topo, w, spec, 3400)
        }
        ReleaseKind::SyntheticGraph => {
            let (topo, w) = graph_workload(v, m, 35);
            (topo, w, ReleaseSpec::new(kind, e).unwrap(), 3500)
        }
        ReleaseKind::AllPairsBaseline => {
            let (topo, w) = graph_workload(v, m, 36);
            (topo, w, ReleaseSpec::new(kind, e).unwrap(), 3600)
        }
        // No live-store surface: no persistence format (hld-tree) or no
        // distance queries (mst, matching). Their *first* releases are
        // audited by `run_audit` above; the store refuses to hold them
        // at all (checked in `store_refuses_unstorable_kinds`).
        ReleaseKind::HldTree | ReleaseKind::Mst | ReleaseKind::Matching => return None,
    };

    let num_edges = topo.num_edges();
    let dir = std::env::temp_dir().join(format!(
        "privpath-audit-{}-{}",
        kind.as_str(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ReleaseStore::open(&dir).unwrap().with_seed(seed);
    store
        .create_namespace("audit", topo.clone(), w0, None)
        .unwrap();
    let id = store.publish("audit", &spec).unwrap().id;
    let pairs = query_pairs(v, 8, 5, seed ^ 0x5eed);

    let mut theorem = None;
    let mut alpha = f64::NAN;
    let measured = (0..trials)
        .map(|t| {
            // Fresh weights each trial: the re-released generation is
            // measured against *its own* ground truth.
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1 + t as u64));
            let w = uniform_weights(num_edges, 0.0, MAX_WEIGHT, &mut rng);
            store.update_weights("audit", w.clone()).unwrap();
            let snap = store.snapshot("audit").unwrap();
            let bound = snap
                .service()
                .get(id)
                .expect("release survives updates")
                .error_bound(GAMMA)
                .expect("re-release declares a contract");
            theorem = Some(bound.theorem());
            alpha = bound.alpha();
            let truth = true_distances(&topo, &w, &pairs);
            let est = snap.distance_batch(id, &pairs).expect("workload in range");
            est.iter()
                .zip(&truth)
                .map(|(e, t)| (e - t).abs())
                .fold(0.0, f64::max)
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    Some(AuditOutcome {
        theorem: theorem.unwrap(),
        alpha,
        measured,
    })
}

/// Every storable kind's `update-weights` re-release honors its declared
/// `error_bound(GAMMA)` at empirical rate `>= 1 - GAMMA`, exactly like a
/// first release.
#[test]
fn store_rerelease_meets_declared_bound_empirically() {
    for kind in ReleaseKind::ALL {
        let outcome = run_rerelease_audit(kind, 30);
        assert_eq!(
            outcome.is_some(),
            kind.is_storable(),
            "{kind}: every storable kind, and only those, is re-release audited"
        );
        if let Some(outcome) = outcome {
            println!("rerelease {kind} — {outcome}");
            outcome.assert_rate(&format!("rerelease {kind}"));
        }
    }
}

/// The kinds the re-release audit skips are exactly the kinds the store
/// refuses to hold — nothing can ship through the store unaudited.
#[test]
fn store_refuses_unstorable_kinds() {
    for kind in ReleaseKind::ALL {
        match ReleaseSpec::new(kind, eps(1.0)) {
            Ok(_) => assert!(kind.is_storable(), "{kind}"),
            Err(e) => assert!(
                !kind.is_storable() && matches!(e, StoreError::InvalidSpec(_)),
                "{kind}: {e}"
            ),
        }
    }
}

/// Measured max distance error for one mechanism over a shared workload
/// on a shared graph.
#[allow(clippy::too_many_arguments)]
fn measured_on<M: Mechanism>(
    mech: &M,
    params: &M::Params,
    topo: &Topology,
    weights: &EdgeWeights,
    pairs: &[(NodeId, NodeId)],
    truth: &[f64],
    trials: usize,
    seed: u64,
) -> (f64, f64)
where
    M::Release: DistanceRelease,
{
    let alpha = mech
        .error_bound(topo, params, GAMMA)
        .expect("contract declared")
        .alpha();
    let worst = (0..trials)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed + t as u64);
            let release = mech.release(topo, weights, params, &mut rng).unwrap();
            let est = release.distance_batch(pairs).unwrap();
            est.iter()
                .zip(truth)
                .map(|(e, t)| (e - t).abs())
                .fold(0.0, f64::max)
        })
        .fold(0.0, f64::max);
    (worst, alpha)
}

/// Shortcut-APSP vs the all-pairs baseline on one bounded-weight graph:
/// the new mechanism must beat the baseline's measured error strictly
/// and stay within its own declared bound.
fn assert_shortcut_beats_baseline(v: usize, m: usize, trials: usize) {
    let (topo, w) = graph_workload(v, m, 77);
    let pairs = query_pairs(v, 16, 8, 7777);
    let truth = true_distances(&topo, &w, &pairs);
    let e = eps(1.0);

    let shortcut_params = ShortcutApspParams::approx(e, delta(), MAX_WEIGHT).unwrap();
    let (shortcut_err, shortcut_alpha) = measured_on(
        &mechanisms::ShortcutApsp,
        &shortcut_params,
        &topo,
        &w,
        &pairs,
        &truth,
        trials,
        9000,
    );
    let baseline_params = mechanisms::AllPairsBaselineParams::basic(e);
    let (baseline_err, _) = measured_on(
        &mechanisms::AllPairsBaseline,
        &baseline_params,
        &topo,
        &w,
        &pairs,
        &truth,
        trials,
        9100,
    );

    assert!(
        shortcut_err <= shortcut_alpha,
        "shortcut-apsp measured {shortcut_err} exceeds its declared bound {shortcut_alpha} \
         at n = {v}"
    );
    assert!(
        shortcut_err < baseline_err,
        "shortcut-apsp measured {shortcut_err} does not beat all-pairs-baseline's \
         {baseline_err} at n = {v}"
    );
}

#[test]
fn shortcut_beats_all_pairs_baseline_at_n_256() {
    assert_shortcut_beats_baseline(256, 640, 3);
}

/// The acceptance-criteria scale. Compute-heavy: the `tests-audit` CI
/// job runs it with `--release -- --include-ignored`.
#[test]
#[ignore = "compute-heavy: run by the tests-audit CI job in --release"]
fn shortcut_beats_all_pairs_baseline_at_n_1024() {
    assert_shortcut_beats_baseline(1024, 3072, 3);
}

/// Prints the README "Validated accuracy" table (n = 1024, eps = 1,
/// gamma = 0.05). Compute-heavy; the `tests-audit` CI job runs it, and
/// its output is pasted into README.md.
#[test]
#[ignore = "compute-heavy: run by the tests-audit CI job in --release"]
fn validated_accuracy_table_n_1024() {
    let e = eps(1.0);
    let v = 1024;
    let (gtopo, gw) = graph_workload(v, 3 * v, 77);
    let (ttopo, tw) = tree_workload(v, 78);
    let pairs = query_pairs(v, 16, 8, 7777);
    let gtruth = true_distances(&gtopo, &gw, &pairs);
    let ttruth = true_distances(&ttopo, &tw, &pairs);
    let trials = 3;

    println!("| mechanism | theorem | declared bound | measured max error |");
    println!("|---|---|---:|---:|");
    let row = |name: &str, theorem: Theorem, alpha: f64, measured: f64| {
        println!("| {name} | {theorem} | {alpha:.1} | {measured:.1} |");
        assert!(
            measured <= alpha,
            "{name}: measured {measured} above declared {alpha}"
        );
    };

    let p = ShortestPathParams::new(e, GAMMA).unwrap();
    let (m, a) = measured_on(
        &mechanisms::ShortestPaths,
        &p,
        &gtopo,
        &gw,
        &pairs,
        &gtruth,
        trials,
        1,
    );
    row("shortest-path", Theorem::Cor56, a, m);

    let p = TreeDistanceParams::new(e);
    let (m, a) = measured_on(
        &mechanisms::TreeAllPairs,
        &p,
        &ttopo,
        &tw,
        &pairs,
        &ttruth,
        trials,
        2,
    );
    row("tree", Theorem::Thm42, a, m);
    let (m, a) = measured_on(
        &mechanisms::HldTree,
        &p,
        &ttopo,
        &tw,
        &pairs,
        &ttruth,
        trials,
        3,
    );
    row("hld-tree", Theorem::Thm42, a, m);

    let p = BoundedWeightParams::approx(e, delta(), MAX_WEIGHT).unwrap();
    let (m, a) = measured_on(
        &mechanisms::BoundedWeight,
        &p,
        &gtopo,
        &gw,
        &pairs,
        &gtruth,
        trials,
        4,
    );
    row("bounded-weight", Theorem::Thm45, a, m);

    let p = ShortcutApspParams::approx(e, delta(), MAX_WEIGHT).unwrap();
    let (m, a) = measured_on(
        &mechanisms::ShortcutApsp,
        &p,
        &gtopo,
        &gw,
        &pairs,
        &gtruth,
        trials,
        5,
    );
    row("shortcut-apsp", Theorem::CnxShortcut, a, m);

    let p = mechanisms::SyntheticGraphParams::new(e);
    let (m, a) = measured_on(
        &mechanisms::SyntheticGraph,
        &p,
        &gtopo,
        &gw,
        &pairs,
        &gtruth,
        trials,
        6,
    );
    row("synthetic-graph", Theorem::Cor56, a, m);

    let p = mechanisms::AllPairsBaselineParams::basic(e);
    let (m, a) = measured_on(
        &mechanisms::AllPairsBaseline,
        &p,
        &gtopo,
        &gw,
        &pairs,
        &gtruth,
        trials,
        7,
    );
    row("all-pairs-baseline", Theorem::Lem33, a, m);
}

// ---------------------------------------------------------------------------
// Continual-release stream audit: a long weight-update stream served
// through the tree composer must honor the `ContinualRelease` contract
// its release declares, at every epoch along the stream.
// ---------------------------------------------------------------------------

/// Streams [`STREAM_LEN`] weight updates through a continual namespace
/// and measures, at every epoch, the served release's max distance
/// error against exact Dijkstra on the *true* current weights. The
/// declared `ContinualRelease` bound must hold at empirical rate at
/// least `1 - GAMMA` across the stream — one measurement per update,
/// 200 in total, the issue's stream-audit floor.
#[test]
fn continual_stream_meets_declared_bound_across_200_updates() {
    const STREAM_LEN: usize = 200;
    let v = 32;
    let m = 80;
    let (topo, w0) = graph_workload(v, m, 41);
    let num_edges = topo.num_edges();
    let pairs = query_pairs(v, 8, 5, 4100 ^ 0x5eed);

    let dir = std::env::temp_dir().join(format!("privpath-audit-continual-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ReleaseStore::open(&dir).unwrap().with_seed(4100);
    store
        .create_namespace_continual(
            "stream",
            topo.clone(),
            w0,
            (eps(4.0), delta()),
            STREAM_LEN as u64,
        )
        .unwrap();
    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(1.0))
        .unwrap()
        .with_gamma(GAMMA)
        .unwrap();
    let id = store.publish("stream", &spec).unwrap().id;

    // The continual contract is declared once at publish and does not
    // drift with the stream position: the tree's per-node noise scale
    // is fixed by (rho, T) at init.
    let declared = store
        .snapshot("stream")
        .unwrap()
        .service()
        .accuracy(id, GAMMA)
        .unwrap();
    let alpha = declared.alpha();

    let mut rng = StdRng::seed_from_u64(4200);
    let measured: Vec<f64> = (0..STREAM_LEN)
        .map(|_| {
            let w = uniform_weights(num_edges, 0.0, MAX_WEIGHT, &mut rng);
            store.update_weights("stream", w.clone()).unwrap();
            let snap = store.snapshot("stream").unwrap();
            let truth = true_distances(&topo, &w, &pairs);
            let est = snap.distance_batch(id, &pairs).expect("workload in range");
            est.iter()
                .zip(&truth)
                .map(|(e, t)| (e - t).abs())
                .fold(0.0, f64::max)
        })
        .collect();
    let outcome = AuditOutcome {
        theorem: declared.theorem(),
        alpha,
        measured,
    };
    println!("continual stream — {outcome}");
    outcome.assert_rate("continual stream");

    // The stream consumed exactly its horizon within the standing
    // budget: position at the horizon, rho inside the conversion total.
    let stats = store.stats_for("stream").unwrap();
    let status = stats.continual.expect("continual namespace");
    assert_eq!(status.position, STREAM_LEN as u64);
    assert_eq!(status.horizon, STREAM_LEN as u64);
    assert!(
        status.rho_spent <= status.rho_total + 1e-12,
        "rho overspent: {} of {}",
        status.rho_spent,
        status.rho_total
    );
    assert!(
        stats.spent_eps <= 4.0 + 1e-9,
        "ledger overspent: {}",
        stats.spent_eps
    );
    std::fs::remove_dir_all(&dir).ok();
}
