//! Conformance suite for the engine's `Mechanism` implementations.
//!
//! Every mechanism must satisfy two contracts:
//!
//! 1. **ZeroNoise exactness** — run with `ZeroNoise`, the release must
//!    reproduce the exact (non-private) quantity its algorithm computes,
//!    isolating the combinatorial logic from the randomness.
//! 2. **Noise audit vs. declared cost** — run with `RecordingNoise`
//!    through a `ReleaseEngine`, the number and scale of Laplace draws
//!    must match the `(eps, delta)` the engine debited from its
//!    `Accountant`: the declared cost is only honest if the noise
//!    actually drawn implements a mechanism of exactly that cost.
//!
//! Plus engine-level contracts: budget refusal happens *before* any noise
//! is drawn, and persistence round-trips preserve query answers.

use privpath::dp::composition::per_query_epsilon;
use privpath::dp::{RecordingNoise, ZeroNoise};
use privpath::engine::{mechanisms, read_release, ReleaseEngine};
use privpath::graph::algo::{floyd_warshall, min_weight_perfect_matching, minimum_spanning_forest};
use privpath::graph::generators::{connected_gnm, random_tree_prufer, uniform_weights};
use privpath::graph::tree::{weighted_depths, RootedTree};
use privpath::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::BufReader;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn graph_workload(v: usize, m: usize, seed: u64) -> (Topology, EdgeWeights) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = connected_gnm(v, m, &mut rng);
    let w = uniform_weights(topo.num_edges(), 0.0, 1.0, &mut rng);
    (topo, w)
}

fn tree_workload(v: usize, seed: u64) -> (Topology, EdgeWeights) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_tree_prufer(v, &mut rng);
    let w = uniform_weights(topo.num_edges(), 0.5, 4.0, &mut rng);
    (topo, w)
}

fn bipartite_workload(n_half: usize, seed: u64) -> (Topology, EdgeWeights) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Topology::builder(2 * n_half);
    for i in 0..n_half {
        for j in 0..n_half {
            b.add_edge(NodeId::new(i), NodeId::new(n_half + j));
        }
    }
    let topo = b.build();
    let w = uniform_weights(topo.num_edges(), 0.0, 10.0, &mut rng);
    (topo, w)
}

// ---------------------------------------------------------------------------
// Contract 1: ZeroNoise releases equal the exact algorithm.
// ---------------------------------------------------------------------------

#[test]
fn zero_noise_shortest_paths_is_exact() {
    let (topo, w) = graph_workload(40, 110, 1);
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let params = ShortestPathParams::new(eps(1.0), 0.05)
        .unwrap()
        .without_shift();
    let id = engine
        .release_with(&mechanisms::ShortestPaths, &params, &mut ZeroNoise)
        .unwrap();
    let oracle = engine.query(id).unwrap();
    let fw = floyd_warshall(&topo, &w).unwrap();
    for s in topo.nodes().step_by(5) {
        for t in topo.nodes().step_by(3) {
            let truth = fw.get(s, t).unwrap();
            assert!(
                (oracle.distance(s, t).unwrap() - truth).abs() < 1e-9,
                "pair ({s},{t})"
            );
        }
    }
}

#[test]
fn zero_noise_tree_mechanisms_are_exact() {
    let (topo, w) = tree_workload(50, 2);
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let params = TreeDistanceParams::new(eps(1.0));
    let tree_id = engine
        .release_with(&mechanisms::TreeAllPairs, &params, &mut ZeroNoise)
        .unwrap();
    let hld_id = engine
        .release_with(&mechanisms::HldTree, &params, &mut ZeroNoise)
        .unwrap();
    for x in topo.nodes().step_by(4) {
        let rt = RootedTree::new(&topo, x).unwrap();
        let truth = weighted_depths(&rt, &w).unwrap();
        for y in topo.nodes().step_by(3) {
            let t = truth[y.index()];
            for id in [tree_id, hld_id] {
                let d = engine.query(id).unwrap().distance(x, y).unwrap();
                assert!(
                    (d - t).abs() < 1e-9,
                    "release {id} pair ({x},{y}): {d} vs {t}"
                );
            }
        }
    }
}

#[test]
fn zero_noise_bounded_weight_error_is_detour_only() {
    let (topo, w) = graph_workload(50, 130, 3);
    let k = 2;
    let max_w = 1.0;
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let params = BoundedWeightParams::pure(eps(1.0), max_w)
        .unwrap()
        .with_strategy(CoveringStrategy::MeirMoon { k });
    let id = engine
        .release_with(&mechanisms::BoundedWeight, &params, &mut ZeroNoise)
        .unwrap();
    let oracle = engine.query(id).unwrap();
    let fw = floyd_warshall(&topo, &w).unwrap();
    for s in topo.nodes().step_by(7) {
        for t in topo.nodes().step_by(5) {
            let truth = fw.get(s, t).unwrap();
            let err = (oracle.distance(s, t).unwrap() - truth).abs();
            assert!(
                err <= 2.0 * k as f64 * max_w + 1e-9,
                "pair ({s},{t}): {err}"
            );
        }
    }
}

#[test]
fn zero_noise_mst_and_matching_are_exact() {
    let (topo, w) = graph_workload(30, 80, 4);
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let id = engine
        .release_with(&mechanisms::Mst, &MstParams::new(eps(1.0)), &mut ZeroNoise)
        .unwrap();
    let truth = minimum_spanning_forest(&topo, &w).unwrap();
    match engine.get(id).unwrap().release() {
        AnyRelease::Mst(rel) => {
            assert!((rel.weight_under(&w) - truth.total_weight).abs() < 1e-9);
        }
        other => panic!("unexpected kind {:?}", other.kind()),
    }

    let (btopo, bw) = bipartite_workload(6, 5);
    let mut engine = ReleaseEngine::new(btopo.clone(), bw.clone()).unwrap();
    let id = engine
        .release_with(
            &mechanisms::Matching::default(),
            &MatchingParams::new(eps(1.0)),
            &mut ZeroNoise,
        )
        .unwrap();
    let truth = min_weight_perfect_matching(&btopo, &bw).unwrap();
    match engine.get(id).unwrap().release() {
        AnyRelease::Matching(rel) => {
            assert!((rel.weight_under(&bw) - truth.total_weight).abs() < 1e-9);
        }
        other => panic!("unexpected kind {:?}", other.kind()),
    }
}

#[test]
fn zero_noise_baselines_are_exact() {
    let (topo, w) = graph_workload(25, 60, 6);
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let synth_id = engine
        .release_with(
            &mechanisms::SyntheticGraph,
            &mechanisms::SyntheticGraphParams::new(eps(1.0)),
            &mut ZeroNoise,
        )
        .unwrap();
    let basic_id = engine
        .release_with(
            &mechanisms::AllPairsBaseline,
            &mechanisms::AllPairsBaselineParams::basic(eps(1.0)),
            &mut ZeroNoise,
        )
        .unwrap();
    let adv_id = engine
        .release_with(
            &mechanisms::AllPairsBaseline,
            &mechanisms::AllPairsBaselineParams::advanced(eps(1.0), Delta::new(1e-6).unwrap())
                .unwrap(),
            &mut ZeroNoise,
        )
        .unwrap();
    let fw = floyd_warshall(&topo, &w).unwrap();
    for s in topo.nodes().step_by(3) {
        for t in topo.nodes().step_by(2) {
            let truth = fw.get(s, t).unwrap();
            for id in [synth_id, basic_id, adv_id] {
                let d = engine.query(id).unwrap().distance(s, t).unwrap();
                assert!((d - truth).abs() < 1e-9, "release {id} pair ({s},{t})");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Contract 2: RecordingNoise draws match the accountant spend the engine
// recorded for the release.
// ---------------------------------------------------------------------------

/// Asserts the last spend matches the declared cost and returns it.
fn last_spend(engine: &ReleaseEngine) -> (String, f64, f64) {
    let spend = engine
        .accountant()
        .spends()
        .last()
        .expect("one spend per release");
    (spend.label.clone(), spend.eps, spend.delta)
}

#[test]
fn noise_audit_shortest_paths() {
    let (topo, w) = graph_workload(30, 80, 10);
    let mut engine = ReleaseEngine::new(topo.clone(), w).unwrap();
    let mut rec = RecordingNoise::new(ZeroNoise);
    let params = ShortestPathParams::new(eps(0.5), 0.05).unwrap();
    let id = engine
        .release_with(&mechanisms::ShortestPaths, &params, &mut rec)
        .unwrap();
    let (label, spent_eps, spent_delta) = last_spend(&engine);
    assert_eq!(label, engine.get(id).unwrap().label());
    assert_eq!((spent_eps, spent_delta), (0.5, 0.0));
    // Algorithm 3 is one Laplace mechanism on the identity query: E draws
    // at scale s/eps — exactly an eps-DP spend, matching the ledger.
    assert_eq!(rec.len(), topo.num_edges());
    for &(scale, _) in rec.draws() {
        assert!((scale - 1.0 / spent_eps).abs() < 1e-12);
    }
}

#[test]
fn noise_audit_tree() {
    let (topo, w) = tree_workload(64, 11);
    let mut engine = ReleaseEngine::new(topo.clone(), w).unwrap();
    let mut rec = RecordingNoise::new(ZeroNoise);
    let id = engine
        .release_with(
            &mechanisms::TreeAllPairs,
            &TreeDistanceParams::new(eps(2.0)),
            &mut rec,
        )
        .unwrap();
    let (_, spent_eps, _) = last_spend(&engine);
    let record = engine.get(id).unwrap();
    let single = match record.release() {
        AnyRelease::Tree(rel) => rel.single_source(),
        other => panic!("unexpected kind {:?}", other.kind()),
    };
    // Algorithm 1: num_queries draws at scale depth * s / eps; disjoint
    // levels make the query vector's sensitivity = depth, so this is one
    // eps-DP Laplace mechanism — matching the debited eps.
    assert_eq!(rec.len(), single.num_queries());
    let expected_scale = single.decomposition_depth() as f64 / spent_eps;
    for &(scale, _) in rec.draws() {
        assert!((scale - expected_scale).abs() < 1e-12);
    }
}

#[test]
fn noise_audit_hld_tree() {
    let (topo, w) = tree_workload(64, 12);
    let mut engine = ReleaseEngine::new(topo.clone(), w).unwrap();
    let mut rec = RecordingNoise::new(ZeroNoise);
    let id = engine
        .release_with(
            &mechanisms::HldTree,
            &TreeDistanceParams::new(eps(1.0)),
            &mut rec,
        )
        .unwrap();
    let (_, spent_eps, _) = last_spend(&engine);
    let rel = match engine.get(id).unwrap().release() {
        AnyRelease::HldTree(rel) => rel,
        other => panic!("unexpected kind {:?}", other.kind()),
    };
    assert_eq!(rec.len(), rel.num_released());
    let expected_scale = rel.sensitivity_levels() as f64 / spent_eps;
    for &(scale, _) in rec.draws() {
        assert!((scale - expected_scale).abs() < 1e-12);
    }
}

#[test]
fn noise_audit_bounded_pure_and_approx() {
    let (topo, w) = graph_workload(40, 100, 13);

    // Pure DP: basic composition forces scale num_pairs * s / eps.
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let mut rec = RecordingNoise::new(ZeroNoise);
    let params = BoundedWeightParams::pure(eps(1.0), 1.0)
        .unwrap()
        .with_strategy(CoveringStrategy::MeirMoon { k: 2 });
    let id = engine
        .release_with(&mechanisms::BoundedWeight, &params, &mut rec)
        .unwrap();
    let (_, spent_eps, spent_delta) = last_spend(&engine);
    assert_eq!(spent_delta, 0.0);
    let rel = match engine.get(id).unwrap().release() {
        AnyRelease::BoundedWeight(rel) => rel,
        other => panic!("unexpected kind {:?}", other.kind()),
    };
    assert_eq!(rec.len(), rel.num_released());
    let expected = rel.num_released() as f64 / spent_eps;
    for &(scale, _) in rec.draws() {
        assert!((scale - expected).abs() < 1e-12);
    }

    // Approximate DP: advanced composition's inverted per-query epsilon.
    let mut engine = ReleaseEngine::new(topo.clone(), w).unwrap();
    let mut rec = RecordingNoise::new(ZeroNoise);
    let delta = Delta::new(1e-6).unwrap();
    let params = BoundedWeightParams::approx(eps(1.0), delta, 1.0)
        .unwrap()
        .with_strategy(CoveringStrategy::MeirMoon { k: 2 });
    let id = engine
        .release_with(&mechanisms::BoundedWeight, &params, &mut rec)
        .unwrap();
    let (_, spent_eps, spent_delta) = last_spend(&engine);
    assert_eq!((spent_eps, spent_delta), (1.0, 1e-6));
    let rel = match engine.get(id).unwrap().release() {
        AnyRelease::BoundedWeight(rel) => rel,
        other => panic!("unexpected kind {:?}", other.kind()),
    };
    assert_eq!(rec.len(), rel.num_released());
    let per = per_query_epsilon(eps(spent_eps), rel.num_released(), spent_delta).unwrap();
    let expected = 1.0 / per.value();
    for &(scale, _) in rec.draws() {
        assert!((scale - expected).abs() < 1e-12);
    }
}

#[test]
fn noise_audit_mst_matching_and_baselines() {
    let (topo, w) = graph_workload(24, 60, 14);
    let e_count = topo.num_edges();
    let v = topo.num_nodes();

    // MST and synthetic graph: E draws at s/eps.
    for run in 0..2 {
        let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
        let mut rec = RecordingNoise::new(ZeroNoise);
        if run == 0 {
            engine
                .release_with(&mechanisms::Mst, &MstParams::new(eps(0.5)), &mut rec)
                .unwrap();
        } else {
            engine
                .release_with(
                    &mechanisms::SyntheticGraph,
                    &mechanisms::SyntheticGraphParams::new(eps(0.5)),
                    &mut rec,
                )
                .unwrap();
        }
        let (_, spent_eps, _) = last_spend(&engine);
        assert_eq!(rec.len(), e_count);
        for &(scale, _) in rec.draws() {
            assert!((scale - 1.0 / spent_eps).abs() < 1e-12);
        }
    }

    // Matching: E draws at s/eps on a bipartite workload.
    let (btopo, bw) = bipartite_workload(5, 15);
    let mut engine = ReleaseEngine::new(btopo.clone(), bw).unwrap();
    let mut rec = RecordingNoise::new(ZeroNoise);
    engine
        .release_with(
            &mechanisms::Matching::default(),
            &MatchingParams::new(eps(0.25)),
            &mut rec,
        )
        .unwrap();
    let (_, spent_eps, _) = last_spend(&engine);
    assert_eq!(rec.len(), btopo.num_edges());
    for &(scale, _) in rec.draws() {
        assert!((scale - 1.0 / spent_eps).abs() < 1e-12);
    }

    // All-pairs basic composition: V(V-1)/2 draws at pairs * s / eps.
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let mut rec = RecordingNoise::new(ZeroNoise);
    engine
        .release_with(
            &mechanisms::AllPairsBaseline,
            &mechanisms::AllPairsBaselineParams::basic(eps(1.0)),
            &mut rec,
        )
        .unwrap();
    let (_, spent_eps, _) = last_spend(&engine);
    let pairs = v * (v - 1) / 2;
    assert_eq!(rec.len(), pairs);
    for &(scale, _) in rec.draws() {
        assert!((scale - pairs as f64 / spent_eps).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Engine-level contracts.
// ---------------------------------------------------------------------------

#[test]
fn budget_is_checked_before_noise_is_drawn() {
    let (topo, w) = graph_workload(20, 40, 16);
    let mut engine = ReleaseEngine::with_budget(topo, w, eps(1.0), Delta::zero()).unwrap();
    let params = ShortestPathParams::new(eps(0.8), 0.05).unwrap();
    let mut rec = RecordingNoise::new(ZeroNoise);
    engine
        .release_with(&mechanisms::ShortestPaths, &params, &mut rec)
        .unwrap();
    let drawn_after_first = rec.len();
    assert!(drawn_after_first > 0);

    // Second release exceeds the budget: refused with NO additional draws.
    let err = engine
        .release_with(&mechanisms::ShortestPaths, &params, &mut rec)
        .unwrap_err();
    // The structured variant reports the request and what was left, so
    // servers can surface budget state without parsing messages.
    match err {
        EngineError::BudgetExhausted {
            requested_eps,
            requested_delta,
            remaining_eps,
            remaining_delta,
        } => {
            assert!((requested_eps - 0.8).abs() < 1e-12);
            assert_eq!(requested_delta, 0.0);
            assert!((remaining_eps - 0.2).abs() < 1e-12);
            assert_eq!(remaining_delta, 0.0);
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
    assert_eq!(
        rec.len(),
        drawn_after_first,
        "refused release must not draw noise"
    );
    assert_eq!(engine.len(), 1);
    assert_eq!(engine.accountant().spends().len(), 1);

    // A smaller release still fits.
    let params = ShortestPathParams::new(eps(0.2), 0.05).unwrap();
    engine
        .release_with(&mechanisms::ShortestPaths, &params, &mut rec)
        .unwrap();
    assert_eq!(engine.remaining(), Some((0.0, 0.0)));
}

#[test]
fn queries_reject_out_of_range_and_wrong_kind() {
    let (topo, w) = graph_workload(12, 24, 17);
    let mut engine = ReleaseEngine::new(topo, w).unwrap();
    let sp = engine
        .release_with(
            &mechanisms::ShortestPaths,
            &ShortestPathParams::new(eps(1.0), 0.05).unwrap(),
            &mut ZeroNoise,
        )
        .unwrap();
    let mst = engine
        .release_with(&mechanisms::Mst, &MstParams::new(eps(1.0)), &mut ZeroNoise)
        .unwrap();

    let oracle = engine.query(sp).unwrap();
    assert!(oracle.distance(NodeId::new(0), NodeId::new(99)).is_err());
    assert!(oracle
        .distance_batch(&[(NodeId::new(0), NodeId::new(99))])
        .is_err());
    let err = match engine.query(mst) {
        Ok(_) => panic!("MST releases must not answer distance queries"),
        Err(e) => e,
    };
    assert!(matches!(err, EngineError::UnsupportedQuery { .. }), "{err}");
}

#[test]
fn distance_batch_agrees_with_single_queries() {
    let (topo, w) = graph_workload(40, 110, 18);
    let mut rng = StdRng::seed_from_u64(19);
    let mut engine = ReleaseEngine::new(topo.clone(), w).unwrap();
    let ids = [
        engine
            .release(
                &mechanisms::ShortestPaths,
                &ShortestPathParams::new(eps(1.0), 0.05).unwrap(),
                &mut rng,
            )
            .unwrap(),
        engine
            .release(
                &mechanisms::SyntheticGraph,
                &mechanisms::SyntheticGraphParams::new(eps(1.0)),
                &mut rng,
            )
            .unwrap(),
        engine
            .release(
                &mechanisms::AllPairsBaseline,
                &mechanisms::AllPairsBaselineParams::basic(eps(1.0)),
                &mut rng,
            )
            .unwrap(),
    ];
    let pairs: Vec<(NodeId, NodeId)> = (0..topo.num_nodes())
        .step_by(3)
        .flat_map(|s| {
            (0..topo.num_nodes())
                .step_by(7)
                .map(move |t| (NodeId::new(s), NodeId::new(t)))
        })
        .collect();
    for id in ids {
        let oracle = engine.query(id).unwrap();
        let batch = oracle.distance_batch(&pairs).unwrap();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let single = oracle.distance(s, t).unwrap();
            assert_eq!(batch[i].to_bits(), single.to_bits(), "{id} pair ({s},{t})");
        }
    }
}

// ---------------------------------------------------------------------------
// Persistence round-trips.
// ---------------------------------------------------------------------------

#[test]
fn persistence_roundtrips_preserve_answers() {
    let (topo, w) = graph_workload(30, 75, 20);
    let (ttopo, tw) = tree_workload(30, 21);
    let mut rng = StdRng::seed_from_u64(22);

    // Graph-based kinds.
    let mut engine = ReleaseEngine::new(topo.clone(), w).unwrap();
    let mut ids = vec![
        engine
            .release(
                &mechanisms::ShortestPaths,
                &ShortestPathParams::new(eps(0.7), 0.05).unwrap(),
                &mut rng,
            )
            .unwrap(),
        engine
            .release(
                &mechanisms::SyntheticGraph,
                &mechanisms::SyntheticGraphParams::new(eps(0.9)),
                &mut rng,
            )
            .unwrap(),
        engine
            .release(
                &mechanisms::BoundedWeight,
                &BoundedWeightParams::pure(eps(1.0), 1.0)
                    .unwrap()
                    .with_strategy(CoveringStrategy::MeirMoon { k: 2 }),
                &mut rng,
            )
            .unwrap(),
        engine
            .release(
                &mechanisms::AllPairsBaseline,
                &mechanisms::AllPairsBaselineParams::basic(eps(1.0)),
                &mut rng,
            )
            .unwrap(),
    ];
    // Tree kind runs on its own (tree) database.
    let mut tree_engine = ReleaseEngine::new(ttopo.clone(), tw).unwrap();
    ids.push(
        tree_engine
            .release(
                &mechanisms::TreeAllPairs,
                &TreeDistanceParams::new(eps(1.0)),
                &mut rng,
            )
            .unwrap(),
    );

    for (i, id) in ids.into_iter().enumerate() {
        let (eng, n) = if i == 4 {
            (&tree_engine, ttopo.num_nodes())
        } else {
            (&engine, topo.num_nodes())
        };
        let mut buf = Vec::new();
        eng.save(id, &mut buf).unwrap();
        let stored = read_release(BufReader::new(buf.as_slice()), None).unwrap();
        let record = eng.get(id).unwrap();
        assert_eq!(stored.label, record.label());
        assert_eq!(stored.eps, record.eps());
        assert_eq!(stored.delta, record.delta());
        assert_eq!(stored.release.kind(), record.kind());

        let restored = stored.release.as_distance().expect("distance-capable");
        let original = eng.query(id).unwrap();
        for s in (0..n).step_by(4) {
            for t in (0..n).step_by(3) {
                let (s, t) = (NodeId::new(s), NodeId::new(t));
                assert_eq!(
                    original.distance(s, t).unwrap().to_bits(),
                    restored.distance(s, t).unwrap().to_bits(),
                    "kind {} pair ({s},{t})",
                    record.kind()
                );
            }
        }
    }
}

#[test]
fn restore_debits_the_adopting_engine() {
    let (topo, w) = graph_workload(20, 50, 25);
    let mut rng = StdRng::seed_from_u64(26);
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let id = engine
        .release(
            &mechanisms::ShortestPaths,
            &ShortestPathParams::new(eps(0.6), 0.05).unwrap(),
            &mut rng,
        )
        .unwrap();
    let mut buf = Vec::new();
    engine.save(id, &mut buf).unwrap();

    // A fresh engine over the same database adopts the stored release and
    // its ledger reflects the already-paid cost.
    let mut serving = ReleaseEngine::with_budget(topo, w, eps(1.0), Delta::zero()).unwrap();
    let rid = serving.restore(BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(serving.spent(), (0.6, 0.0));
    assert!(serving.query(rid).is_ok());

    // Adopting again exceeds the eps = 1 budget.
    let err = serving.restore(BufReader::new(buf.as_slice())).unwrap_err();
    assert!(matches!(err, EngineError::BudgetExhausted { .. }), "{err}");
}

// ---------------------------------------------------------------------------
// Contract 3: accuracy contracts — every mechanism names its theorem, and
// calibration round-trips (error_bound(calibrate(target)) <= target).
// ---------------------------------------------------------------------------

/// Asserts the mechanism declares `expected` and that calibration is the
/// bound's inverse: for targets below/at/above the eps = 1 bound, the
/// calibrated epsilon meets the target within 1e-9, and (for bounds with
/// no epsilon-independent floor, `check_minimal`) half the calibrated
/// epsilon misses it — the solver really found the smallest epsilon.
fn assert_accuracy_round_trip<M: privpath::engine::Mechanism>(
    mechanism: &M,
    topo: &Topology,
    template: &M::Params,
    expected: Theorem,
    check_minimal: bool,
) {
    let gamma = 0.05;
    let at_unit = mechanism
        .error_bound(topo, template, gamma)
        .unwrap_or_else(|| panic!("{} declares no contract", mechanism.name()));
    assert_eq!(at_unit.theorem(), expected, "{}", mechanism.name());
    assert_eq!(at_unit.gamma(), gamma);
    assert!(
        at_unit.alpha().is_finite() && at_unit.alpha() > 0.0,
        "{} bound degenerate: {}",
        mechanism.name(),
        at_unit.alpha()
    );

    for factor in [0.37, 1.0, 7.3] {
        let alpha = at_unit.alpha() * factor;
        let target = ErrorTarget::new(alpha, gamma).unwrap();
        let eps = mechanism
            .calibrate(topo, template, &target)
            .unwrap_or_else(|| panic!("{} fails to calibrate to {alpha}", mechanism.name()));
        let achieved = mechanism
            .error_bound(topo, &mechanism.with_eps(template, eps), gamma)
            .unwrap();
        assert!(
            achieved.alpha() <= alpha + 1e-9,
            "{}: calibrated eps {} achieves {} > target {alpha}",
            mechanism.name(),
            eps.value(),
            achieved.alpha()
        );
        if check_minimal {
            let half = mechanism
                .error_bound(
                    topo,
                    &mechanism.with_eps(template, Epsilon::new(eps.value() / 2.0).unwrap()),
                    gamma,
                )
                .unwrap();
            assert!(
                half.alpha() > alpha,
                "{}: half the calibrated eps still meets the target — not minimal",
                mechanism.name()
            );
        }
    }
}

#[test]
fn every_mechanism_names_its_theorem_and_calibrates() {
    let (topo, _) = tree_workload(40, 61);
    let sp = ShortestPathParams::new(eps(1.0), 0.05).unwrap();
    assert_accuracy_round_trip(&mechanisms::ShortestPaths, &topo, &sp, Theorem::Cor56, true);
    let tree = TreeDistanceParams::new(eps(1.0));
    assert_accuracy_round_trip(
        &mechanisms::TreeAllPairs,
        &topo,
        &tree,
        Theorem::Thm42,
        true,
    );
    assert_accuracy_round_trip(&mechanisms::HldTree, &topo, &tree, Theorem::Thm42, true);
    let synth = mechanisms::SyntheticGraphParams::new(eps(1.0));
    assert_accuracy_round_trip(
        &mechanisms::SyntheticGraph,
        &topo,
        &synth,
        Theorem::Cor56,
        true,
    );
    let basic = mechanisms::AllPairsBaselineParams::basic(eps(1.0));
    assert_accuracy_round_trip(
        &mechanisms::AllPairsBaseline,
        &topo,
        &basic,
        Theorem::Lem33,
        true,
    );
    let advanced =
        mechanisms::AllPairsBaselineParams::advanced(eps(1.0), Delta::new(1e-6).unwrap()).unwrap();
    assert_accuracy_round_trip(
        &mechanisms::AllPairsBaseline,
        &topo,
        &advanced,
        Theorem::Lem34,
        // Advanced composition is super-linear in eps; minimality still
        // holds but the bound has no clean halving law — skip that probe.
        false,
    );
    assert_accuracy_round_trip(
        &mechanisms::Mst,
        &topo,
        &MstParams::new(eps(1.0)),
        Theorem::ThmB3,
        true,
    );

    // Bounded-weight on a connected graph: pure (Thm 4.6) and approx
    // (Thm 4.5). The detour floor 2kM makes minimality conditional.
    let (gtopo, _) = graph_workload(40, 110, 62);
    let pure = BoundedWeightParams::pure(eps(1.0), 1.0).unwrap();
    assert_accuracy_round_trip(
        &mechanisms::BoundedWeight,
        &gtopo,
        &pure,
        Theorem::Thm46,
        false,
    );
    let approx = BoundedWeightParams::approx(eps(1.0), Delta::new(1e-6).unwrap(), 1.0).unwrap();
    assert_accuracy_round_trip(
        &mechanisms::BoundedWeight,
        &gtopo,
        &approx,
        Theorem::Thm45,
        false,
    );

    // Matching wants a bipartite workload.
    let (btopo, _) = bipartite_workload(6, 63);
    assert_accuracy_round_trip(
        &mechanisms::Matching::default(),
        &btopo,
        &MatchingParams::new(eps(1.0)),
        Theorem::ThmB6,
        true,
    );
}

#[test]
fn bounded_weight_target_below_detour_floor_fails_to_calibrate() {
    let (topo, _) = graph_workload(40, 110, 64);
    let params = BoundedWeightParams::pure(eps(1.0), 1.0)
        .unwrap()
        .with_strategy(privpath::core::bounded::CoveringStrategy::MeirMoon { k: 3 });
    // The detour term alone is 2 * 3 * 1 = 6; no epsilon beats alpha = 5.
    let target = ErrorTarget::new(5.0, 0.05).unwrap();
    assert!(mechanisms::BoundedWeight
        .calibrate(&topo, &params, &target)
        .is_none());
}

#[test]
fn release_with_accuracy_calibrates_debits_and_stores_the_contract() {
    let (topo, w) = tree_workload(40, 65);
    let template = TreeDistanceParams::new(eps(1.0));
    let at_unit = mechanisms::TreeAllPairs
        .error_bound(&topo, &template, 0.05)
        .unwrap();
    // Ask for 3x the eps = 1 error: a third of the budget should do.
    let target = ErrorTarget::new(at_unit.alpha() * 3.0, 0.05).unwrap();
    let expected_eps = mechanisms::TreeAllPairs
        .calibrate(&topo, &template, &target)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(66);
    let mut engine = ReleaseEngine::with_budget(topo, w, eps(1.0), Delta::zero()).unwrap();
    let (id, bound) = engine
        .release_with_accuracy(&mechanisms::TreeAllPairs, &template, &target, &mut rng)
        .unwrap();
    assert!(bound.alpha() <= target.alpha() + 1e-9);
    assert_eq!(bound.theorem(), Theorem::Thm42);
    let record = engine.get(id).unwrap();
    assert_eq!(record.eps(), expected_eps.value(), "debited != calibrated");
    assert_eq!(engine.spent(), (expected_eps.value(), 0.0));
    // The stored contract re-evaluates to the same bound.
    assert_eq!(record.error_bound(0.05), Some(bound));
    // And tightening the confidence loosens the bound.
    assert!(record.error_bound(0.001).unwrap().alpha() > bound.alpha());
}

#[test]
fn release_with_accuracy_respects_the_budget_check() {
    let (topo, w) = tree_workload(30, 67);
    let template = TreeDistanceParams::new(eps(1.0));
    let at_unit = mechanisms::TreeAllPairs
        .error_bound(&topo, &template, 0.05)
        .unwrap();
    // A tiny target alpha needs eps far above the budget of 0.5.
    let target = ErrorTarget::new(at_unit.alpha() / 100.0, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(68);
    let mut engine =
        ReleaseEngine::with_budget(topo, w, Epsilon::new(0.5).unwrap(), Delta::zero()).unwrap();
    let err = engine
        .release_with_accuracy(&mechanisms::TreeAllPairs, &template, &target, &mut rng)
        .unwrap_err();
    assert!(matches!(err, EngineError::BudgetExhausted { .. }), "{err}");
    assert!(engine.is_empty());
    assert_eq!(engine.spent(), (0.0, 0.0));
}

#[test]
fn zero_noise_release_with_accuracy_is_exact_and_contracted() {
    let (topo, w) = tree_workload(24, 69);
    let template = TreeDistanceParams::new(eps(1.0));
    let at_unit = mechanisms::TreeAllPairs
        .error_bound(&topo, &template, 0.05)
        .unwrap();
    let target = ErrorTarget::new(at_unit.alpha(), 0.05).unwrap();
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let (id, bound) = engine
        .release_with_accuracy_noise(
            &mechanisms::TreeAllPairs,
            &template,
            &target,
            &mut ZeroNoise,
        )
        .unwrap();
    assert!(bound.alpha() <= target.alpha() + 1e-9);
    // Calibration changes only epsilon, never correctness: with zero
    // noise the release still answers exactly.
    let rt = RootedTree::new(&topo, NodeId::new(0)).unwrap();
    let truth = weighted_depths(&rt, &w).unwrap();
    let oracle = engine.query(id).unwrap();
    for v in topo.nodes().step_by(3) {
        assert!((oracle.distance(NodeId::new(0), v).unwrap() - truth[v.index()]).abs() < 1e-9);
    }
}

#[test]
fn budget_plan_splits_proportionally_and_preserves_contract_ratios() {
    let (topo, w) = tree_workload(36, 70);
    let gamma = 0.05;
    let tree = TreeDistanceParams::new(eps(1.0));
    let sp = ShortestPathParams::new(eps(1.0), gamma).unwrap();
    let tree_target = ErrorTarget::new(40.0, gamma).unwrap();
    let sp_target = ErrorTarget::new(900.0, gamma).unwrap();
    let tree_eps = mechanisms::TreeAllPairs
        .calibrate(&topo, &tree, &tree_target)
        .unwrap();
    let sp_eps = mechanisms::ShortestPaths
        .calibrate(&topo, &sp, &sp_target)
        .unwrap();

    let total = Epsilon::new((tree_eps.value() + sp_eps.value()) / 2.0).unwrap();
    let mut plan = BudgetPlan::new(total);
    plan.request("tree", tree_eps);
    plan.request("shortest-path", sp_eps);
    let factor = plan.scale_factor().unwrap();
    assert!((factor - 0.5).abs() < 1e-12);
    let allocs = plan.allocations().unwrap();
    let granted: f64 = allocs.iter().map(|(_, e)| e.value()).sum();
    assert!(
        (granted - total.value()).abs() < 1e-9,
        "plan must spend the whole budget"
    );

    // Releasing at the allocations fits the budget exactly, and each
    // bound inflates by the same 1/factor (the C/eps law).
    let mut rng = StdRng::seed_from_u64(71);
    let mut engine = ReleaseEngine::with_budget(topo.clone(), w, total, Delta::zero()).unwrap();
    let tree_id = engine
        .release(
            &mechanisms::TreeAllPairs,
            &tree.with_eps(allocs[0].1),
            &mut rng,
        )
        .unwrap();
    let sp_id = engine
        .release(
            &mechanisms::ShortestPaths,
            &sp.with_eps(allocs[1].1),
            &mut rng,
        )
        .unwrap();
    assert!(engine.remaining().unwrap().0 < 1e-9);
    let tree_bound = engine.get(tree_id).unwrap().error_bound(gamma).unwrap();
    let sp_bound = engine.get(sp_id).unwrap().error_bound(gamma).unwrap();
    assert!((tree_bound.alpha() - tree_target.alpha() / factor).abs() < 1e-6);
    assert!((sp_bound.alpha() - sp_target.alpha() / factor).abs() < 1e-6);
}

#[test]
fn persistence_round_trips_the_accuracy_contract() {
    let (topo, w) = tree_workload(20, 72);
    let mut rng = StdRng::seed_from_u64(73);
    let mut engine = ReleaseEngine::new(topo, w).unwrap();
    engine
        .release(
            &mechanisms::ShortestPaths,
            &ShortestPathParams::new(eps(1.0), 0.05).unwrap(),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::TreeAllPairs,
            &TreeDistanceParams::new(eps(0.7)),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::BoundedWeight,
            &BoundedWeightParams::pure(eps(1.0), 10.0).unwrap(),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::SyntheticGraph,
            &mechanisms::SyntheticGraphParams::new(eps(2.0)),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::AllPairsBaseline,
            &mechanisms::AllPairsBaselineParams::basic(eps(1.0)),
            &mut rng,
        )
        .unwrap();

    for record in engine.releases() {
        let mut buf = Vec::new();
        engine.save(record.id(), &mut buf).unwrap();
        // The header lines are text; the body after them is binary.
        assert!(buf.starts_with(b"privpath-release v4\n"), "header bumped");
        assert!(
            buf.windows(10).any(|w| w == b"\naccuracy "),
            "contract line missing"
        );
        let stored = read_release(BufReader::new(buf.as_slice()), None).unwrap();
        assert_eq!(
            stored.accuracy.as_ref(),
            record.accuracy(),
            "{} contract did not round-trip",
            record.kind()
        );
    }
}

#[test]
fn greedy_covering_calibration_agrees_with_pinned_custom_covering() {
    use privpath::core::bounded::CoveringStrategy;
    use privpath::graph::covering::greedy_covering;

    let (topo, _) = graph_workload(60, 160, 74);
    let greedy = BoundedWeightParams::pure(eps(1.0), 1.0)
        .unwrap()
        .with_strategy(CoveringStrategy::Greedy { k: 2 });
    let centers = greedy_covering(&topo, 2).unwrap();
    let custom = BoundedWeightParams::pure(eps(1.0), 1.0)
        .unwrap()
        .with_strategy(CoveringStrategy::Custom { centers, k: 2 });

    let alpha = mechanisms::BoundedWeight
        .error_bound(&topo, &greedy, 0.05)
        .unwrap()
        .alpha();
    let target = ErrorTarget::new(alpha * 1.3, 0.05).unwrap();
    // The Greedy calibrate override pins the covering once; it must
    // land exactly where solving on the equivalent Custom strategy does.
    let via_greedy = mechanisms::BoundedWeight
        .calibrate(&topo, &greedy, &target)
        .unwrap();
    let via_custom = mechanisms::BoundedWeight
        .calibrate(&topo, &custom, &target)
        .unwrap();
    assert_eq!(via_greedy.value(), via_custom.value());
    let achieved = mechanisms::BoundedWeight
        .error_bound(
            &topo,
            &mechanisms::BoundedWeight.with_eps(&greedy, via_greedy),
            0.05,
        )
        .unwrap();
    assert!(achieved.alpha() <= target.alpha() + 1e-9);
}

// ---------------------------------------------------------------------------
// Shortcut-APSP conformance: the ninth mechanism obeys the same three
// contracts (ZeroNoise exactness-up-to-detour, noise audit vs. declared
// cost, theorem-named calibration) as the paper mechanisms.
// ---------------------------------------------------------------------------

#[test]
fn zero_noise_shortcut_error_is_detour_only() {
    let (topo, w) = graph_workload(60, 150, 80);
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let params = ShortcutApspParams::approx(eps(1.0), Delta::new(1e-6).unwrap(), 1.0).unwrap();
    let id = engine
        .release_with(&mechanisms::ShortcutApsp, &params, &mut ZeroNoise)
        .unwrap();
    let rel = match engine.get(id).unwrap().release() {
        AnyRelease::ShortcutApsp(rel) => rel,
        other => panic!("unexpected kind {:?}", other.kind()),
    };
    let fw = floyd_warshall(&topo, &w).unwrap();
    let detour = 2.0 * rel.k_top() as f64 * 1.0;
    for s in topo.nodes().step_by(5) {
        for t in topo.nodes().step_by(3) {
            let truth = fw.get(s, t).unwrap();
            let d = engine.query(id).unwrap().distance(s, t).unwrap();
            assert!((d - truth).abs() <= detour + 1e-9, "pair ({s},{t})");
        }
    }
}

#[test]
fn noise_audit_shortcut_apsp() {
    let (topo, w) = graph_workload(60, 150, 81);
    let mut engine = ReleaseEngine::new(topo.clone(), w).unwrap();
    let mut rec = RecordingNoise::new(ZeroNoise);
    let delta = Delta::new(1e-6).unwrap();
    let params = ShortcutApspParams::approx(eps(1.0), delta, 1.0).unwrap();
    let id = engine
        .release_with(&mechanisms::ShortcutApsp, &params, &mut rec)
        .unwrap();
    let (_, spent_eps, spent_delta) = last_spend(&engine);
    assert_eq!((spent_eps, spent_delta), (1.0, 1e-6));
    let rel = match engine.get(id).unwrap().release() {
        AnyRelease::ShortcutApsp(rel) => rel,
        other => panic!("unexpected kind {:?}", other.kind()),
    };
    assert_eq!(rec.len(), rel.num_released());
    let per = per_query_epsilon(eps(spent_eps), rel.num_released(), spent_delta).unwrap();
    let expected = 1.0 / per.value();
    for &(scale, _) in rec.draws() {
        assert!((scale - expected).abs() < 1e-12);
    }
    // The declared contract states exactly the realized noise scale.
    match engine.get(id).unwrap().accuracy() {
        Some(AccuracyContract::ShortcutApsp {
            noise_scale,
            num_released,
            k_top,
            ..
        }) => {
            assert!((noise_scale - expected).abs() < 1e-12);
            assert_eq!(*num_released, rel.num_released());
            assert_eq!(*k_top, rel.k_top());
        }
        other => panic!("unexpected contract {other:?}"),
    }
}

#[test]
fn shortcut_apsp_names_its_theorem_and_calibrates() {
    let (topo, _) = graph_workload(60, 160, 82);
    let pure = ShortcutApspParams::pure(eps(1.0), 1.0).unwrap();
    assert_accuracy_round_trip(
        &mechanisms::ShortcutApsp,
        &topo,
        &pure,
        Theorem::CnxShortcut,
        // The detour floor (and the eps-dependent ladder) break the
        // clean halving law; feasibility is what the probe checks.
        false,
    );
    let approx = ShortcutApspParams::approx(eps(1.0), Delta::new(1e-6).unwrap(), 1.0).unwrap();
    assert_accuracy_round_trip(
        &mechanisms::ShortcutApsp,
        &topo,
        &approx,
        Theorem::CnxShortcut,
        false,
    );
}

#[test]
fn shortcut_persistence_roundtrips_answers_and_contract() {
    let (topo, w) = graph_workload(50, 130, 83);
    let mut rng = StdRng::seed_from_u64(84);
    let mut engine = ReleaseEngine::new(topo.clone(), w).unwrap();
    let params = ShortcutApspParams::approx(eps(1.0), Delta::new(1e-6).unwrap(), 1.0).unwrap();
    let id = engine
        .release(&mechanisms::ShortcutApsp, &params, &mut rng)
        .unwrap();
    let mut buf = Vec::new();
    engine.save(id, &mut buf).unwrap();
    assert!(buf.starts_with(b"privpath-release v4\nkind shortcut-apsp\n"));
    let stored = read_release(BufReader::new(buf.as_slice()), None).unwrap();
    assert_eq!(stored.accuracy.as_ref(), engine.get(id).unwrap().accuracy());
    let oracle = engine.query(id).unwrap();
    let restored = stored.release.as_distance().unwrap();
    for s in topo.nodes().step_by(7) {
        for t in topo.nodes().step_by(5) {
            assert_eq!(
                oracle.distance(s, t).unwrap().to_bits(),
                restored.distance(s, t).unwrap().to_bits()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Unreachable-target conformance: `distance` / `distance_batch` answer
// `+inf` for pairs with no connecting path, uniformly across every kind
// that can hold a disconnected topology; kinds that require
// connectivity reject it at release time instead. Pinned per kind so a
// new release kind must take a documented position.
// ---------------------------------------------------------------------------

/// Two components: a connected gnm block on [0, v) plus an isolated
/// edge (v, v+1).
fn disconnected_workload(v: usize, m: usize, seed: u64) -> (Topology, EdgeWeights) {
    let mut rng = StdRng::seed_from_u64(seed);
    let block = connected_gnm(v, m, &mut rng);
    let mut b = Topology::builder(v + 2);
    for e in block.edge_ids() {
        let (s, t) = block.endpoints(e);
        b.add_edge(s, t);
    }
    b.add_edge(NodeId::new(v), NodeId::new(v + 1));
    let topo = b.build();
    let w = uniform_weights(topo.num_edges(), 0.0, 1.0, &mut rng);
    (topo, w)
}

#[test]
fn disconnected_pairs_answer_infinity_uniformly() {
    let v = 20;
    let (topo, w) = disconnected_workload(v, 50, 90);
    let mut engine = ReleaseEngine::new(topo.clone(), w.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(91);

    // Kinds that hold disconnected topologies: shortest-path and
    // synthetic-graph (per-edge releases replay the public graph).
    let sp = engine
        .release(
            &mechanisms::ShortestPaths,
            &ShortestPathParams::new(eps(1.0), 0.05).unwrap(),
            &mut rng,
        )
        .unwrap();
    let synth = engine
        .release(
            &mechanisms::SyntheticGraph,
            &mechanisms::SyntheticGraphParams::new(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    let (inside, island) = (NodeId::new(0), NodeId::new(v));
    for id in [sp, synth] {
        let oracle = engine.query(id).unwrap();
        // Unreachable: +inf, not an error, not 0.
        let d = oracle.distance(inside, island).unwrap();
        assert!(d.is_infinite() && d > 0.0, "release {id}: {d}");
        // Reachable pairs stay finite, in both directions of the batch.
        let batch = oracle
            .distance_batch(&[
                (inside, NodeId::new(1)),
                (inside, island),
                (island, NodeId::new(v + 1)),
                (island, inside),
            ])
            .unwrap();
        assert!(batch[0].is_finite());
        assert!(batch[1].is_infinite() && batch[1] > 0.0);
        assert!(batch[2].is_finite());
        assert!(batch[3].is_infinite() && batch[3] > 0.0);
        // Routes cannot be returned for unreachable pairs: still an
        // error there (there is no path object to hand back).
        if let Some(result) = oracle.path(inside, island) {
            assert!(result.is_err());
        }
    }

    // Kinds that require connectivity reject the topology at release
    // time — they can never hold an unreachable pair.
    assert!(engine
        .release(
            &mechanisms::BoundedWeight,
            &BoundedWeightParams::pure(eps(1.0), 1.0).unwrap(),
            &mut rng,
        )
        .is_err());
    assert!(engine
        .release(
            &mechanisms::ShortcutApsp,
            &ShortcutApspParams::pure(eps(1.0), 1.0).unwrap(),
            &mut rng,
        )
        .is_err());
    assert!(engine
        .release(
            &mechanisms::AllPairsBaseline,
            &mechanisms::AllPairsBaselineParams::basic(eps(1.0)),
            &mut rng,
        )
        .is_err());
    // Tree mechanisms require a tree, which is connected by definition.
    assert!(engine
        .release(
            &mechanisms::TreeAllPairs,
            &TreeDistanceParams::new(eps(1.0)),
            &mut rng,
        )
        .is_err());
    assert!(engine
        .release(
            &mechanisms::HldTree,
            &TreeDistanceParams::new(eps(1.0)),
            &mut rng,
        )
        .is_err());
}
