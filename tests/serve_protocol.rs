//! Serve-path conformance: the wire codec round-trips, the request
//! handler over a frozen release set agrees with the oracles on every
//! release kind, and concurrent `QueryService` readers agree with
//! single-threaded serving.

use privpath::prelude::*;
use privpath::store::FROZEN_NAMESPACE;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// An engine over one random tree workload carrying a release of every
/// distance-capable kind (trees support all seven mechanisms at once).
fn all_kinds_engine(n: usize, seed: u64) -> ReleaseEngine {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = privpath::graph::generators::random_tree_prufer(n, &mut rng);
    let weights =
        privpath::graph::generators::uniform_weights(topo.num_edges(), 1.0, 9.0, &mut rng);
    let mut engine = ReleaseEngine::new(topo, weights).unwrap();
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
            &TreeDistanceParams::new(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::HldTree,
            &TreeDistanceParams::new(eps(1.0)),
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
            &mechanisms::SyntheticGraphParams::new(eps(1.0)),
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
    engine
        .release(
            &mechanisms::ShortcutApsp,
            &ShortcutApspParams::pure(eps(1.0), 10.0).unwrap(),
            &mut rng,
        )
        .unwrap();
    engine
}

fn shuffled<T>(mut items: Vec<T>, rng: &mut StdRng) -> Vec<T> {
    // Fisher-Yates; the vendored rand has no shuffle helper.
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
    items
}

/// The handler `serve --store-dir` runs: the snapshot as the one frozen,
/// read-only namespace.
fn frozen(service: QueryService) -> StoreHandler {
    StoreHandler::frozen(NamespaceSnapshot::frozen(service))
}

#[test]
fn handler_matches_oracle_answers_for_every_kind() {
    let n = 24;
    let engine = all_kinds_engine(n, 41);
    let service = engine.snapshot();
    assert_eq!(service.len(), 7);
    let handler = frozen(service.clone());

    // A mixed, shuffled workload: every release kind, heavy source reuse.
    let mut rng = StdRng::seed_from_u64(7);
    let mut requests = Vec::new();
    for record in service.releases() {
        for _ in 0..4 {
            let from = NodeId::new(rng.gen_range(0..n));
            for _ in 0..6 {
                requests.push(QueryRequest::Distance {
                    release: record.id().into(),
                    from,
                    to: NodeId::new(rng.gen_range(0..n)),
                    gamma: None,
                });
            }
        }
    }
    let requests = shuffled(requests, &mut rng);

    for req in &requests {
        let QueryRequest::Distance {
            release, from, to, ..
        } = req
        else {
            unreachable!()
        };
        let expected = service
            .query(release.id())
            .unwrap()
            .distance(*from, *to)
            .unwrap();
        // The frozen set is the namespace `frozen`: the qualified ref
        // answers bit-identically to the bare one.
        let qualified = QueryRequest::Distance {
            release: ReleaseRef::namespaced(FROZEN_NAMESPACE, release.id()).unwrap(),
            from: *from,
            to: *to,
            gamma: None,
        };
        for r in [req, &qualified] {
            match handler.answer(r) {
                QueryResponse::Distance { value, bound } => {
                    assert_eq!(
                        value.to_bits(),
                        expected.to_bits(),
                        "handler disagrees with the oracle on {r}"
                    );
                    assert!(bound.is_none(), "no gamma requested, no bound expected");
                }
                other => panic!("expected a distance for {r}, got {other}"),
            }
        }
    }

    // One batch per release answers exactly the per-query values.
    for record in service.releases() {
        let pairs: Vec<(NodeId, NodeId)> = requests
            .iter()
            .filter_map(|r| match r {
                QueryRequest::Distance {
                    release, from, to, ..
                } if release.id() == record.id() => Some((*from, *to)),
                _ => None,
            })
            .collect();
        let batch = QueryRequest::DistanceBatch {
            release: record.id().into(),
            pairs: pairs.clone(),
            gamma: None,
        };
        let QueryResponse::Distances { values, .. } = handler.answer(&batch) else {
            panic!("expected distances for {batch}");
        };
        let oracle = service.query(record.id()).unwrap();
        for (&(u, v), value) in pairs.iter().zip(values) {
            assert_eq!(value.to_bits(), oracle.distance(u, v).unwrap().to_bits());
        }
    }
}

#[test]
fn handler_answers_every_query_kind() {
    let engine = all_kinds_engine(12, 44);
    let service = engine.snapshot();
    let handler = frozen(service.clone());
    let sp = service.releases().next().unwrap().id();
    let requests = [
        QueryRequest::BudgetStatus { namespace: None },
        QueryRequest::Distance {
            release: sp.into(),
            from: NodeId::new(0),
            to: NodeId::new(5),
            gamma: None,
        },
        QueryRequest::ListReleases { namespace: None },
        QueryRequest::Path {
            release: sp.into(),
            from: NodeId::new(0),
            to: NodeId::new(5),
        },
        QueryRequest::DistanceBatch {
            release: sp.into(),
            pairs: vec![
                (NodeId::new(1), NodeId::new(2)),
                (NodeId::new(1), NodeId::new(3)),
            ],
            gamma: None,
        },
        QueryRequest::Accuracy {
            release: sp.into(),
            gamma: 0.05,
        },
        // Out of range: fails alone, with its own wire code.
        QueryRequest::Distance {
            release: sp.into(),
            from: NodeId::new(0),
            to: NodeId::new(112),
            gamma: None,
        },
    ];
    let answers: Vec<QueryResponse> = requests.iter().map(|r| handler.answer(r)).collect();
    assert!(matches!(answers[0], QueryResponse::Budget { .. }));
    assert!(matches!(answers[1], QueryResponse::Distance { .. }));
    match &answers[2] {
        QueryResponse::Releases(rs) => assert_eq!(rs.len(), 7),
        other => panic!("expected releases, got {other}"),
    }
    match &answers[3] {
        QueryResponse::Path(nodes) => {
            assert_eq!(nodes.first(), Some(&NodeId::new(0)));
            assert_eq!(nodes.last(), Some(&NodeId::new(5)));
        }
        other => panic!("expected a path, got {other}"),
    }
    match &answers[4] {
        QueryResponse::Distances { values, bound } => {
            assert_eq!(values.len(), 2);
            assert!(bound.is_none());
        }
        other => panic!("expected distances, got {other}"),
    }
    match &answers[5] {
        QueryResponse::Accuracy(b) => {
            assert_eq!(b.theorem(), Theorem::Cor56);
            assert_eq!(b.gamma(), 0.05);
            assert!(b.alpha() > 0.0);
        }
        other => panic!("expected an accuracy bound, got {other}"),
    }
    assert!(
        matches!(
            answers[6],
            QueryResponse::Error {
                code: privpath::serve::ErrorCode::OutOfRange,
                ..
            }
        ),
        "{}",
        answers[6]
    );
}

#[test]
fn eight_concurrent_readers_agree_with_single_threaded_answers() {
    let n = 32;
    let engine = all_kinds_engine(n, 45);
    let service = engine.snapshot();

    // The reference answers, computed single-threaded.
    let mut rng = StdRng::seed_from_u64(99);
    let mut workload = Vec::new();
    for record in service.releases() {
        for _ in 0..20 {
            workload.push((
                record.id(),
                NodeId::new(rng.gen_range(0..n)),
                NodeId::new(rng.gen_range(0..n)),
            ));
        }
    }
    let reference: Vec<f64> = workload
        .iter()
        .map(|&(id, u, v)| service.query(id).unwrap().distance(u, v).unwrap())
        .collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..8 {
            let service = service.clone(); // two Arc bumps, no data copied
            let workload = &workload;
            let reference = &reference;
            handles.push(scope.spawn(move || {
                // Each thread walks the workload from a different offset
                // so threads hit different releases at the same time.
                let len = workload.len();
                for i in 0..len {
                    let idx = (i + t * len / 8) % len;
                    let (id, u, v) = workload[idx];
                    let d = service.query(id).unwrap().distance(u, v).unwrap();
                    assert_eq!(d, reference[idx], "thread {t} diverged at {idx}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn snapshot_is_isolated_from_later_releases() {
    let mut rng = StdRng::seed_from_u64(46);
    let topo = privpath::graph::generators::random_tree_prufer(10, &mut rng);
    let weights =
        privpath::graph::generators::uniform_weights(topo.num_edges(), 1.0, 5.0, &mut rng);
    let mut engine = ReleaseEngine::with_budget(topo, weights, eps(2.0), Delta::zero()).unwrap();
    engine
        .release(
            &mechanisms::TreeAllPairs,
            &TreeDistanceParams::new(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    let before = engine.snapshot();
    assert_eq!(before.len(), 1);
    assert_eq!(before.spent(), (1.0, 0.0));
    assert_eq!(before.remaining(), Some((1.0, 0.0)));

    // The engine keeps writing; the old snapshot must not see it.
    engine
        .release(
            &mechanisms::SyntheticGraph,
            &mechanisms::SyntheticGraphParams::new(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    assert_eq!(engine.len(), 2);
    assert_eq!(before.len(), 1);
    assert_eq!(before.spent(), (1.0, 0.0));
    let after = engine.snapshot();
    assert_eq!(after.len(), 2);
    assert_eq!(after.spent(), (2.0, 0.0));
}

#[test]
fn service_from_stored_assigns_sequential_ids() {
    let engine = all_kinds_engine(10, 47);
    let mut stored = Vec::new();
    for record in engine.releases() {
        // MST/matching are not persistable; all seven here are.
        let mut buf = Vec::new();
        if engine.save(record.id(), &mut buf).is_ok() {
            stored.push(
                privpath::engine::read_release(std::io::BufReader::new(buf.as_slice()), None)
                    .unwrap(),
            );
        }
    }
    // hld-tree has no persistence format; the other six round-trip.
    assert_eq!(stored.len(), 6);
    let service = QueryService::from_stored(stored);
    assert_eq!(service.len(), 6);
    let ids: Vec<u64> = service.releases().map(|r| r.id().value()).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(service.spent(), (6.0, 0.0));
    assert_eq!(service.remaining(), None);
    for record in service.releases() {
        let d = service
            .query(record.id())
            .unwrap()
            .distance(NodeId::new(0), NodeId::new(9))
            .unwrap();
        assert!(d.is_finite());
    }
}

#[test]
fn release_id_round_trips_and_rejects_garbage() {
    let id: ReleaseId = "r3".parse().unwrap();
    assert_eq!(id.value(), 3);
    assert_eq!(id.to_string(), "r3");
    assert_eq!(id.to_string().parse::<ReleaseId>().unwrap(), id);
    // Bare numerals are accepted for CLI convenience.
    assert_eq!("17".parse::<ReleaseId>().unwrap().value(), 17);
    for bad in ["", "r", "x3", "r3x", "r-1", "3.5", "r 3"] {
        assert!(
            bad.parse::<ReleaseId>().is_err(),
            "{bad:?} should not parse"
        );
    }
}

#[test]
fn unknown_release_and_unsupported_kind_map_to_wire_codes() {
    let mut rng = StdRng::seed_from_u64(48);
    let topo = privpath::graph::generators::random_tree_prufer(8, &mut rng);
    let weights =
        privpath::graph::generators::uniform_weights(topo.num_edges(), 1.0, 5.0, &mut rng);
    let mut engine = ReleaseEngine::new(topo, weights).unwrap();
    let mst = engine
        .release(
            &mechanisms::Mst,
            &privpath::core::mst::MstParams::new(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    let service = engine.snapshot();
    let handler = frozen(service.clone());

    let missing: ReleaseId = "r99".parse().unwrap();
    let resp = handler.answer(&QueryRequest::Distance {
        release: missing.into(),
        from: NodeId::new(0),
        to: NodeId::new(1),
        gamma: None,
    });
    assert!(matches!(
        resp,
        QueryResponse::Error {
            code: privpath::serve::ErrorCode::UnknownRelease,
            ..
        }
    ));

    let resp = handler.answer(&QueryRequest::Distance {
        release: mst.into(),
        from: NodeId::new(0),
        to: NodeId::new(1),
        gamma: None,
    });
    assert!(matches!(
        resp,
        QueryResponse::Error {
            code: privpath::serve::ErrorCode::Unsupported,
            ..
        }
    ));
}

// ---------------------------------------------------------------------------
// Codec round-trip properties.
// ---------------------------------------------------------------------------

/// Release refs with and without a namespace qualifier, so the codec
/// properties cover the live-store form too.
fn arb_release_ref() -> impl Strategy<Value = privpath::serve::ReleaseRef> {
    (0u64..10_000, any::<u64>()).prop_map(|(v, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let ns = match rng.gen_range(0..3) {
            0 => "",
            1 => "metro",
            _ => "Tenant_7-x",
        };
        if ns.is_empty() {
            format!("r{v}").parse().unwrap()
        } else {
            format!("{ns}/r{v}").parse().unwrap()
        }
    })
}

fn arb_namespace(rng: &mut StdRng) -> Option<String> {
    rng.gen_bool(0.5).then(|| "metro".to_string())
}

fn arb_gamma(rng: &mut StdRng) -> Option<f64> {
    rng.gen_bool(0.5).then(|| rng.gen_range(1e-6..0.999))
}

fn arb_request() -> impl Strategy<Value = QueryRequest> {
    (arb_release_ref(), 0usize..6, any::<u64>()).prop_map(|(release, variant, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match variant {
            0 => QueryRequest::Distance {
                release,
                from: NodeId::new(rng.gen_range(0..1000)),
                to: NodeId::new(rng.gen_range(0..1000)),
                gamma: arb_gamma(&mut rng),
            },
            1 => {
                let count = rng.gen_range(0..20);
                let pairs = (0..count)
                    .map(|_| {
                        (
                            NodeId::new(rng.gen_range(0..1000)),
                            NodeId::new(rng.gen_range(0..1000)),
                        )
                    })
                    .collect();
                let gamma = arb_gamma(&mut rng);
                QueryRequest::DistanceBatch {
                    release,
                    pairs,
                    gamma,
                }
            }
            2 => QueryRequest::Path {
                release,
                from: NodeId::new(rng.gen_range(0..1000)),
                to: NodeId::new(rng.gen_range(0..1000)),
            },
            3 => QueryRequest::Accuracy {
                release,
                gamma: rng.gen_range(1e-6..0.999),
            },
            4 => QueryRequest::ListReleases {
                namespace: arb_namespace(&mut rng),
            },
            _ => QueryRequest::BudgetStatus {
                namespace: arb_namespace(&mut rng),
            },
        }
    })
}

fn arb_float() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|s| match s % 4 {
        0 => 0.0,
        1 => f64::INFINITY,
        2 => 1.0e-12,
        _ => {
            let mut rng = StdRng::seed_from_u64(s);
            rng.gen_range(-1.0e9..1.0e9)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_codec_round_trips(req in arb_request()) {
        let line = req.to_string();
        let back: QueryRequest = line.parse().unwrap();
        prop_assert_eq!(back, req);
    }

    #[test]
    fn distance_response_round_trips(d in arb_float(), with_bound in any::<bool>()) {
        let resp = QueryResponse::Distance {
            value: d,
            bound: with_bound.then_some(d.abs() / 2.0),
        };
        let back: QueryResponse = resp.to_string().parse().unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn distances_response_round_trips(seed in any::<u64>(), count in 0usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds: Vec<f64> = (0..count).map(|_| rng.gen_range(0.0..1.0e6)).collect();
        let bound = rng.gen_bool(0.5).then(|| rng.gen_range(0.0..1.0e4));
        let resp = QueryResponse::Distances { values: ds, bound };
        let back: QueryResponse = resp.to_string().parse().unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn accuracy_response_round_trips(alpha in arb_float(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let theorems = [
            Theorem::Thm41, Theorem::Thm42, Theorem::Thm45, Theorem::Thm46,
            Theorem::Cor56, Theorem::Lem33, Theorem::Lem34, Theorem::ThmB3,
            Theorem::ThmB6, Theorem::CnxShortcut,
        ];
        let theorem = theorems[rng.gen_range(0..theorems.len())];
        let resp = QueryResponse::Accuracy(ErrorBound::new(
            theorem,
            alpha.abs(),
            rng.gen_range(1e-6..0.999),
        ));
        let back: QueryResponse = resp.to_string().parse().unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn budget_response_round_trips(e in arb_float(), d in arb_float(), capped in any::<bool>()) {
        let resp = QueryResponse::Budget {
            spent_eps: e.abs(),
            spent_delta: d.abs(),
            remaining: capped.then_some((e.abs() / 2.0, d.abs() / 2.0)),
        };
        let back: QueryResponse = resp.to_string().parse().unwrap();
        prop_assert_eq!(back, resp);
    }
}

#[test]
fn releases_and_error_responses_round_trip() {
    let resp = QueryResponse::Releases(vec![
        ReleaseSummary {
            id: "r0".parse().unwrap(),
            kind: ReleaseKind::ShortestPath,
            eps: 1.5,
            delta: 1e-6,
            num_nodes: Some(128),
            accuracy: Some(ErrorBound::new(Theorem::Cor56, 812.25, 0.05)),
        },
        ReleaseSummary {
            id: "r3".parse().unwrap(),
            kind: ReleaseKind::Mst,
            eps: 0.25,
            delta: 0.0,
            num_nodes: None,
            accuracy: None,
        },
        ReleaseSummary {
            id: "r4".parse().unwrap(),
            kind: ReleaseKind::ShortcutApsp,
            eps: 1.0,
            delta: 1e-6,
            num_nodes: Some(1024),
            accuracy: Some(ErrorBound::new(Theorem::CnxShortcut, 1970.5, 0.05)),
        },
    ]);
    let back: QueryResponse = resp.to_string().parse().unwrap();
    assert_eq!(back, resp);

    // Error messages may contain anything, including newlines; the codec
    // squashes them so line framing survives, and whitespace normalizes.
    let resp = QueryResponse::Error {
        code: privpath::serve::ErrorCode::Query,
        message: "no path\nfrom 3 to 9".into(),
    };
    let line = resp.to_string();
    assert!(!line.contains('\n'));
    let back: QueryResponse = line.parse().unwrap();
    match back {
        QueryResponse::Error { code, message } => {
            assert_eq!(code, privpath::serve::ErrorCode::Query);
            assert_eq!(message, "no path from 3 to 9");
        }
        other => panic!("expected an error, got {other}"),
    }
}

#[test]
fn stats_wire_line_is_byte_stable() {
    // Regression for the cache-counter migration onto the metrics
    // registry: the `stats` admin line must stay byte-identical —
    // including the `cache <hits> <misses>` segment — even though the
    // counters now live in registry cells instead of bespoke fields.
    use privpath::serve::AdminResponse;
    use privpath::store::{ContinualStatus, NamespaceStats};
    let resp = AdminResponse::Stats(vec![
        NamespaceStats {
            namespace: "metro".into(),
            epoch: 3,
            releases: 2,
            spent_eps: 1.5,
            spent_delta: 0.0,
            remaining: Some((0.5, 0.0)),
            cache_hits: 10,
            cache_misses: 4,
            continual: None,
        },
        NamespaceStats {
            namespace: "stream".into(),
            epoch: 7,
            releases: 1,
            spent_eps: 0.25,
            spent_delta: 0.0,
            remaining: None,
            cache_hits: 0,
            cache_misses: 2,
            continual: Some(ContinualStatus {
                position: 5,
                horizon: 64,
                rho_spent: 0.1,
                rho_total: 0.5,
            }),
        },
    ]);
    assert_eq!(
        resp.to_string(),
        "stats 2 \
         metro 3 2 spent 1.5 0.0 remaining 0.5 0.0 cache 10 4 standard \
         stream 7 1 spent 0.25 0.0 unbounded cache 0 2 continual 5 64 rho 0.1 0.5"
    );
    let back: AdminResponse = resp.to_string().parse().unwrap();
    assert_eq!(back, resp);
}

#[test]
fn metrics_codec_round_trips_and_rejects_torn_frames() {
    assert_eq!(QueryRequest::Metrics.to_string(), "metrics");
    assert_eq!(
        "metrics".parse::<QueryRequest>().unwrap(),
        QueryRequest::Metrics
    );

    // Empty and populated multi-line frames survive the codec.
    for lines in [
        vec![],
        vec![
            "# TYPE serve_requests_total counter".to_string(),
            "serve_requests_total{verb=\"distance\"} 42".to_string(),
            "serve_request_seconds_bucket{verb=\"distance\",le=\"+Inf\"} 42".to_string(),
        ],
    ] {
        let resp = QueryResponse::Metrics { lines };
        let back: QueryResponse = resp.to_string().parse().unwrap();
        assert_eq!(back, resp);
    }

    // A header that promises more lines than the frame carries is torn,
    // not silently truncated; a non-numeric count is malformed.
    assert!("metrics 3\nonly one line".parse::<QueryResponse>().is_err());
    assert!("metrics zebra".parse::<QueryResponse>().is_err());
}

#[test]
fn trace_admin_codec_round_trips() {
    use privpath::serve::{AdminRequest, AdminResponse, TraceEntry};

    let req = AdminRequest::Trace { limit: 5 };
    assert_eq!(req.to_string(), "trace 5");
    assert_eq!("trace 5".parse::<AdminRequest>().unwrap(), req);
    // A bare `trace` gets the default limit.
    assert_eq!(
        "trace".parse::<AdminRequest>().unwrap(),
        AdminRequest::Trace { limit: 16 }
    );
    assert!("trace zebra".parse::<AdminRequest>().is_err());

    for entries in [
        vec![],
        vec![
            TraceEntry {
                op: "distance".into(),
                total_us: 1203,
                phases: vec![
                    ("parse".into(), 11),
                    ("search".into(), 1100),
                    ("encode".into(), 92),
                ],
            },
            TraceEntry {
                op: "metrics".into(),
                total_us: 40,
                phases: vec![],
            },
        ],
    ] {
        let resp = AdminResponse::Traces(entries);
        let back: AdminResponse = resp.to_string().parse().unwrap();
        assert_eq!(back, resp);
    }
}

#[test]
fn malformed_lines_are_rejected_with_reasons() {
    for bad in [
        "",
        "frobnicate r0 1 2",
        "distance",
        "distance r0 1",
        "distance r0 1 2 3",
        "distance zebra 1 2",
        "batch r0 2 1:2",
        "batch r0 1 12",
        "path r0 x 2",
        "distance r0 1 2 gamma",
        "distance r0 1 2 gamma x",
        "accuracy r0",
        "accuracy r0 zebra",
        "accuracy r0 0.05 extra",
    ] {
        assert!(
            bad.parse::<QueryRequest>().is_err(),
            "{bad:?} should not parse"
        );
    }
}

// ---------------------------------------------------------------------------
// Accuracy over the wire.
// ---------------------------------------------------------------------------

#[test]
fn distance_queries_carry_error_bars_for_every_kind() {
    let n = 20;
    let engine = all_kinds_engine(n, 51);
    let service = engine.snapshot();
    let handler = frozen(service.clone());
    for record in service.releases() {
        let gamma = 0.1;
        let expected = service.accuracy(record.id(), gamma).unwrap();
        assert!(
            expected.alpha().is_finite() && expected.alpha() > 0.0,
            "{} bound degenerate",
            record.kind()
        );
        // The handler attaches the bar, and it must survive the wire
        // codec.
        let req = QueryRequest::Distance {
            release: record.id().into(),
            from: NodeId::new(0),
            to: NodeId::new(5),
            gamma: Some(gamma),
        };
        let direct = handler.answer(&req);
        let QueryResponse::Distance { value, bound } = direct.clone() else {
            panic!("expected a distance for {}", record.kind());
        };
        assert!(value.is_finite());
        assert_eq!(bound, Some(expected.alpha()), "{}", record.kind());
        let wire: QueryResponse = direct.to_string().parse().unwrap();
        assert_eq!(wire, direct, "error bar lost on the wire");
    }
}

#[test]
fn batch_queries_share_one_error_bar() {
    let engine = all_kinds_engine(16, 52);
    let service = engine.snapshot();
    let handler = frozen(service.clone());
    let id = service.releases().next().unwrap().id();
    let resp = handler.answer(&QueryRequest::DistanceBatch {
        release: id.into(),
        pairs: vec![
            (NodeId::new(0), NodeId::new(3)),
            (NodeId::new(2), NodeId::new(9)),
        ],
        gamma: Some(0.05),
    });
    let QueryResponse::Distances { values, bound } = resp else {
        panic!("expected distances");
    };
    assert_eq!(values.len(), 2);
    assert_eq!(
        bound,
        Some(service.accuracy(id, 0.05).unwrap().alpha()),
        "batch bar must equal the contract at the requested gamma"
    );
}

#[test]
fn accuracy_queries_report_tighter_bounds_for_looser_confidence() {
    let engine = all_kinds_engine(16, 53);
    let service = engine.snapshot();
    let handler = frozen(service.clone());
    for record in service.releases() {
        let tight = service.accuracy(record.id(), 0.01).unwrap();
        let loose = service.accuracy(record.id(), 0.5).unwrap();
        assert!(
            tight.alpha() >= loose.alpha(),
            "{}: shrinking gamma must not shrink the bound",
            record.kind()
        );
    }
    // Invalid gammas are Query errors on the wire, not crashes.
    let id = service.releases().next().unwrap().id();
    let resp = handler.answer(&QueryRequest::Accuracy {
        release: id.into(),
        gamma: 1.5,
    });
    assert!(matches!(
        resp,
        QueryResponse::Error {
            code: privpath::serve::ErrorCode::Query,
            ..
        }
    ));
}

#[test]
fn list_carries_kind_cost_and_accuracy_per_release() {
    let engine = all_kinds_engine(16, 54);
    let service = engine.snapshot();
    let handler = frozen(service.clone());
    let resp = handler.answer(&QueryRequest::ListReleases { namespace: None });
    let QueryResponse::Releases(rs) = &resp else {
        panic!("expected releases");
    };
    assert_eq!(rs.len(), 7);
    for (summary, record) in rs.iter().zip(service.releases()) {
        assert_eq!(summary.kind, record.kind());
        assert_eq!(summary.eps, record.eps());
        assert_eq!(summary.delta, record.delta());
        let expected = service.accuracy(record.id(), DEFAULT_GAMMA).unwrap();
        assert_eq!(summary.accuracy, Some(expected), "{}", record.kind());
    }
    // The whole summary — accuracy triple included — survives the codec.
    let wire: QueryResponse = resp.to_string().parse().unwrap();
    assert_eq!(wire, resp);
}

#[test]
fn invalid_gamma_on_distance_fails_like_accuracy_does() {
    let engine = all_kinds_engine(12, 55);
    let service = engine.snapshot();
    let handler = frozen(service.clone());
    let id = service.releases().next().unwrap().id();
    for gamma in [0.0, 1.0, 1.5, -0.2] {
        // A bad gamma must be an error, not a silently bar-less answer
        // (which would be indistinguishable from "no contract").
        for req in [
            QueryRequest::Distance {
                release: id.into(),
                from: NodeId::new(0),
                to: NodeId::new(3),
                gamma: Some(gamma),
            },
            QueryRequest::DistanceBatch {
                release: id.into(),
                pairs: vec![(NodeId::new(0), NodeId::new(3))],
                gamma: Some(gamma),
            },
        ] {
            let direct = handler.answer(&req);
            assert!(
                matches!(
                    direct,
                    QueryResponse::Error {
                        code: privpath::serve::ErrorCode::Query,
                        ..
                    }
                ),
                "gamma {gamma}: expected a query error, got {direct}"
            );
        }
    }
}

#[test]
fn shortcut_release_is_served_on_every_wire_surface() {
    // The new kind flows through list / accuracy / bound responses and
    // each survives the codec.
    let engine = all_kinds_engine(24, 91);
    let service = engine.snapshot();
    let handler = frozen(service.clone());
    let record = service
        .releases()
        .find(|r| r.kind() == ReleaseKind::ShortcutApsp)
        .expect("shortcut release registered");
    let id = record.id();

    // list: the record names the kind and an evaluated cnx-shortcut bound.
    let list = handler.answer(&QueryRequest::ListReleases { namespace: None });
    let QueryResponse::Releases(rs) = &list else {
        panic!("expected releases, got {list}");
    };
    let summary = rs.iter().find(|s| s.id == id).unwrap();
    assert_eq!(summary.kind, ReleaseKind::ShortcutApsp);
    let bound = summary.accuracy.as_ref().expect("contract declared");
    assert_eq!(bound.theorem(), Theorem::CnxShortcut);
    let wire: QueryResponse = list.to_string().parse().unwrap();
    assert_eq!(wire, list);

    // accuracy: re-evaluable at any gamma over the wire.
    let resp = handler.answer(&QueryRequest::Accuracy {
        release: id.into(),
        gamma: 0.2,
    });
    let QueryResponse::Accuracy(b) = &resp else {
        panic!("expected accuracy, got {resp}");
    };
    assert_eq!(b.theorem(), Theorem::CnxShortcut);
    assert!(b.alpha() < bound.alpha(), "looser gamma, smaller bound");
    let wire: QueryResponse = resp.to_string().parse().unwrap();
    assert_eq!(wire, resp);

    // distance / batch with gamma: answers carry the ±bound error bar.
    for req in [
        QueryRequest::Distance {
            release: id.into(),
            from: NodeId::new(0),
            to: NodeId::new(5),
            gamma: Some(0.05),
        },
        QueryRequest::DistanceBatch {
            release: id.into(),
            pairs: vec![
                (NodeId::new(0), NodeId::new(5)),
                (NodeId::new(2), NodeId::new(9)),
            ],
            gamma: Some(0.05),
        },
    ] {
        let resp = handler.answer(&req);
        let attached = match &resp {
            QueryResponse::Distance { bound, .. } => *bound,
            QueryResponse::Distances { bound, .. } => *bound,
            other => panic!("expected a distance answer, got {other}"),
        };
        assert_eq!(attached, Some(bound.alpha()));
        let wire: QueryResponse = resp.to_string().parse().unwrap();
        assert_eq!(wire, resp);
    }
}
