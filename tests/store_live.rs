//! End-to-end live serving: a TCP server over a `ReleaseStore` handles
//! publish → query → update-weights → query without restart, meters the
//! namespace budget over the wire, and replays its manifest after a
//! shutdown.

use privpath::engine::ReleaseKind;
use privpath::prelude::*;
use privpath::serve::ErrorCode;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("privpath-live-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// The acceptance-criteria flow, over a real socket: a live server can
/// publish, answer, absorb a weight update (fresh epoch, fresh noise,
/// fresh debit), and answer again — no restart anywhere.
#[test]
fn live_server_publishes_updates_and_serves_across_epochs() {
    let dir = temp_store("e2e");
    let n = 32;
    let topo = privpath::graph::generators::path_graph(n);
    {
        let store = ReleaseStore::open(&dir).unwrap();
        store
            .create_namespace(
                "metro",
                topo.clone(),
                EdgeWeights::constant(n - 1, 1.0),
                Some((eps(250.0), Delta::zero())),
            )
            .unwrap();
        store
            .create_namespace("fleet", topo, EdgeWeights::constant(n - 1, 3.0), None)
            .unwrap();
    }

    let store = Arc::new(ReleaseStore::open(&dir).unwrap().with_seed(21));
    let server = Server::bind("127.0.0.1:0", StoreHandler::new(Arc::clone(&store)))
        .unwrap()
        .with_threads(2);
    let running = server.spawn().unwrap();
    let mut client = Client::connect(running.addr()).unwrap();

    // publish (eps = 100: noise well under the generation gap).
    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(100.0)).unwrap();
    let resp = client
        .admin(&AdminRequest::Publish {
            namespace: "metro".into(),
            spec: spec.clone(),
        })
        .unwrap();
    let AdminResponse::Published {
        id,
        epoch,
        eps: spent,
        ..
    } = resp
    else {
        panic!("expected published, got {resp}");
    };
    assert_eq!(epoch, 1);
    assert_eq!(spent, 100.0);

    // query: namespaced ref, error bar attached.
    let release: ReleaseRef = format!("metro/{id}").parse().unwrap();
    let (u, v) = (NodeId::new(0), NodeId::new(n - 1));
    let req = QueryRequest::Distance {
        release: release.clone(),
        from: u,
        to: v,
        gamma: Some(0.05),
    };
    let QueryResponse::Distance { value: d1, bound } = client.request(&req).unwrap() else {
        panic!("expected a distance");
    };
    assert!((d1 - (n - 1) as f64).abs() < 10.0, "first answer {d1}");
    assert!(bound.unwrap() > 0.0);

    // A bare ref is ambiguous on a multi-tenant store.
    let bare = QueryRequest::Distance {
        release: id.into(),
        from: u,
        to: v,
        gamma: None,
    };
    match client.request(&bare).unwrap() {
        QueryResponse::Error { code, message } => {
            assert_eq!(code, ErrorCode::UnknownRelease);
            assert!(message.contains("multi-tenant"), "{message}");
        }
        other => panic!("expected ambiguity error, got {other}"),
    }

    // A declared-full update with a missing edge is refused up front
    // (no silent partial replacement)...
    let short: Vec<(usize, f64)> = (0..n - 2).map(|e| (e, 50.0)).collect();
    let resp = client
        .admin(&AdminRequest::UpdateWeights {
            namespace: "metro".into(),
            updates: short,
            full: true,
        })
        .unwrap();
    match resp {
        AdminResponse::Error { code, message } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(message.contains("full replacement"), "{message}");
        }
        other => panic!("short full update must be refused, got {other}"),
    }

    // ...then a real full update-weights over the wire (x50), and the
    // same ref answers from a new epoch with re-noised data.
    let updates: Vec<(usize, f64)> = (0..n - 1).map(|e| (e, 50.0)).collect();
    let resp = client
        .admin(&AdminRequest::UpdateWeights {
            namespace: "metro".into(),
            updates,
            full: true,
        })
        .unwrap();
    let AdminResponse::Updated {
        epoch,
        rereleased,
        eps: spent,
        ..
    } = resp
    else {
        panic!("expected updated, got {resp}");
    };
    assert_eq!(epoch, 2);
    assert_eq!(rereleased, 1);
    assert_eq!(spent, 100.0);

    let QueryResponse::Distance { value: d2, .. } = client.request(&req).unwrap() else {
        panic!("expected a distance");
    };
    assert!(
        (d2 - 50.0 * (n - 1) as f64).abs() < 100.0,
        "second answer must come from the new weights: {d2}"
    );
    assert!(d2 > d1 * 10.0, "second answer {d2} vs first {d1}");

    // epoch and stats over the wire: ledger shows both generations.
    let resp = client
        .admin(&AdminRequest::Epoch {
            namespace: "metro".into(),
        })
        .unwrap();
    assert_eq!(
        resp,
        AdminResponse::Epoch {
            namespace: "metro".into(),
            epoch: 2
        }
    );
    let resp = client
        .admin(&AdminRequest::Stats {
            namespace: Some("metro".into()),
        })
        .unwrap();
    let AdminResponse::Stats(entries) = resp else {
        panic!("expected stats, got {resp}");
    };
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].spent_eps, 200.0);
    assert_eq!(entries[0].remaining, Some((50.0, 0.0)));

    // Budget gating over the wire: the next re-release pass (100 > 50
    // remaining) is refused before any noise is drawn, epoch unchanged.
    let resp = client
        .admin(&AdminRequest::UpdateWeights {
            namespace: "metro".into(),
            updates: vec![(0, 2.0)],
            full: false,
        })
        .unwrap();
    let AdminResponse::Error { code, .. } = resp else {
        panic!("expected a budget error, got {resp}");
    };
    assert_eq!(code, ErrorCode::Budget);
    let resp = client
        .admin(&AdminRequest::Epoch {
            namespace: "metro".into(),
        })
        .unwrap();
    assert_eq!(
        resp,
        AdminResponse::Epoch {
            namespace: "metro".into(),
            epoch: 2
        }
    );

    // The second tenant is untouched: list + budget scoped by namespace.
    let resp = client
        .request(&QueryRequest::ListReleases {
            namespace: Some("fleet".into()),
        })
        .unwrap();
    let QueryResponse::Releases(rs) = resp else {
        panic!("expected releases");
    };
    assert!(rs.is_empty());
    let resp = client
        .request(&QueryRequest::BudgetStatus {
            namespace: Some("metro".into()),
        })
        .unwrap();
    let QueryResponse::Budget {
        spent_eps,
        remaining,
        ..
    } = resp
    else {
        panic!("expected budget");
    };
    assert_eq!(spent_eps, 200.0);
    assert_eq!(remaining, Some((50.0, 0.0)));

    drop(client);
    running.shutdown().unwrap();

    // Manifest replay: a fresh open sees the debits, the epoch, and the
    // new-generation release.
    let reopened = ReleaseStore::open(&dir).unwrap();
    let stats = reopened.stats_for("metro").unwrap();
    assert_eq!(stats.epoch, 2);
    assert_eq!(stats.spent_eps, 200.0);
    assert_eq!(stats.remaining, Some((50.0, 0.0)));
    let snap = reopened.snapshot("metro").unwrap();
    let d3 = snap.distance(id, u, v).unwrap();
    assert!(
        (d3 - d2).abs() < 1e-9,
        "replayed release must answer exactly as served before the restart \
         ({d3} vs {d2})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Dropping over the wire: a release drop bumps the epoch and the
/// release stops answering; a namespace drop removes the whole tenant.
#[test]
fn live_server_drops_releases_and_namespaces() {
    let dir = temp_store("drop");
    {
        let store = ReleaseStore::open(&dir).unwrap();
        let topo = privpath::graph::generators::path_graph(8);
        store
            .create_namespace("a", topo.clone(), EdgeWeights::constant(7, 1.0), None)
            .unwrap();
        store
            .create_namespace("b", topo, EdgeWeights::constant(7, 1.0), None)
            .unwrap();
    }
    let store = Arc::new(ReleaseStore::open(&dir).unwrap().with_seed(22));
    let running = Server::bind("127.0.0.1:0", StoreHandler::new(Arc::clone(&store)))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(running.addr()).unwrap();

    let spec = ReleaseSpec::new(ReleaseKind::Tree, eps(1.0)).unwrap();
    let AdminResponse::Published { id, .. } = client
        .admin(&AdminRequest::Publish {
            namespace: "a".into(),
            spec,
        })
        .unwrap()
    else {
        panic!("expected published");
    };

    let resp = client
        .admin(&AdminRequest::Drop {
            namespace: "a".into(),
            release: Some(id),
        })
        .unwrap();
    assert_eq!(
        resp,
        AdminResponse::Dropped {
            namespace: "a".into(),
            release: Some(id),
            epoch: Some(2),
        }
    );
    let req = QueryRequest::Distance {
        release: ReleaseRef::namespaced("a", id).unwrap(),
        from: NodeId::new(0),
        to: NodeId::new(7),
        gamma: None,
    };
    match client.request(&req).unwrap() {
        QueryResponse::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownRelease),
        other => panic!("dropped release still answers: {other}"),
    }

    let resp = client
        .admin(&AdminRequest::Drop {
            namespace: "b".into(),
            release: None,
        })
        .unwrap();
    assert_eq!(
        resp,
        AdminResponse::Dropped {
            namespace: "b".into(),
            release: None,
            epoch: None,
        }
    );
    let resp = client
        .admin(&AdminRequest::Epoch {
            namespace: "b".into(),
        })
        .unwrap();
    let AdminResponse::Error { code, .. } = resp else {
        panic!("dropped namespace still has an epoch: {resp}");
    };
    assert_eq!(code, ErrorCode::UnknownRelease);

    drop(client);
    running.shutdown().unwrap();
    // The drop persisted: a reopen sees one namespace, epoch 2.
    let reopened = ReleaseStore::open(&dir).unwrap();
    assert_eq!(reopened.namespaces(), vec!["a".to_string()]);
    assert_eq!(reopened.epoch("a").unwrap(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A frozen release set is served as the one read-only namespace
/// `frozen`: bare and `frozen/`-qualified refs answer identically, any
/// other namespace is unknown, and admin and geo verbs are refused
/// (the protocol is shared; the capability is not).
#[test]
fn frozen_server_refuses_admin_and_namespaced_refs() {
    use privpath::store::FROZEN_NAMESPACE;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let topo = privpath::graph::generators::path_graph(8);
    let weights = EdgeWeights::constant(7, 1.0);
    let mut engine = ReleaseEngine::new(topo, weights).unwrap();
    let id = engine
        .release(
            &mechanisms::ShortestPaths,
            &ShortestPathParams::new(eps(1.0), 0.05).unwrap(),
            &mut rng,
        )
        .unwrap();
    let handler = StoreHandler::frozen(NamespaceSnapshot::frozen(engine.snapshot()));
    let running = Server::bind("127.0.0.1:0", handler)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(running.addr()).unwrap();

    // Admin verbs, reads and writes alike: refused as read-only.
    for line in ["stats", "publish frozen shortest-path eps 1.0"] {
        let resp: QueryResponse = client.round_trip(line).unwrap().parse().unwrap();
        match resp {
            QueryResponse::Error { code, message } => {
                assert_eq!(code, ErrorCode::Unsupported, "{line}");
                assert!(message.contains("read-only"), "{message}");
            }
            other => panic!("{line}: expected unsupported, got {other}"),
        }
    }

    // Geo verbs: the frozen namespace carries no spatial index.
    let geo: QueryResponse = client
        .round_trip("geo-distance r0 0.0 0.0 1.0 1.0")
        .unwrap()
        .parse()
        .unwrap();
    match geo {
        QueryResponse::Error { code, message } => {
            assert_eq!(code, ErrorCode::Unsupported);
            assert!(message.contains("no spatial index"), "{message}");
        }
        other => panic!("expected unsupported, got {other}"),
    }

    // Any namespace but `frozen` is unknown...
    let distance = |release: ReleaseRef| QueryRequest::Distance {
        release,
        from: NodeId::new(0),
        to: NodeId::new(7),
        gamma: None,
    };
    match client
        .request(&distance(ReleaseRef::namespaced("metro", id).unwrap()))
        .unwrap()
    {
        QueryResponse::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownRelease),
        other => panic!("expected refusal, got {other}"),
    }
    // ...while `frozen/r0` answers bit-identically to bare `r0`.
    let value = |resp: QueryResponse| match resp {
        QueryResponse::Distance { value, .. } => value,
        other => panic!("expected a distance, got {other}"),
    };
    let bare = value(client.request(&distance(id.into())).unwrap());
    let qualified = value(
        client
            .request(&distance(
                ReleaseRef::namespaced(FROZEN_NAMESPACE, id).unwrap(),
            ))
            .unwrap(),
    );
    assert_eq!(bare.to_bits(), qualified.to_bits());

    drop(client);
    running.shutdown().unwrap();
}

/// A read-only live handler answers queries from the live snapshots but
/// refuses every admin verb — the shape a public endpoint takes while a
/// loopback admin endpoint (same `Arc<ReleaseStore>`) keeps write
/// access.
#[test]
fn read_only_live_endpoint_refuses_admin_but_serves_queries() {
    let dir = temp_store("readonly");
    let store = Arc::new(ReleaseStore::open(&dir).unwrap().with_seed(24));
    let topo = privpath::graph::generators::path_graph(8);
    store
        .create_namespace("only", topo, EdgeWeights::constant(7, 1.0), None)
        .unwrap();
    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(10.0)).unwrap();
    let id = store.publish("only", &spec).unwrap().id;

    let public = Server::bind("127.0.0.1:0", StoreHandler::read_only(Arc::clone(&store)))
        .unwrap()
        .spawn()
        .unwrap();
    let admin = Server::bind("127.0.0.1:0", StoreHandler::new(Arc::clone(&store)))
        .unwrap()
        .spawn()
        .unwrap();

    let mut client = Client::connect(public.addr()).unwrap();
    // Queries answer...
    assert!(matches!(
        client
            .request(&QueryRequest::Distance {
                release: id.into(),
                from: NodeId::new(0),
                to: NodeId::new(7),
                gamma: None,
            })
            .unwrap(),
        QueryResponse::Distance { .. }
    ));
    // ...every admin verb is refused, mutating or not.
    for line in [
        "stats",
        "epoch only",
        "publish only tree eps 1.0",
        "drop only",
    ] {
        let resp: AdminResponse = client.round_trip(line).unwrap().parse().unwrap();
        match resp {
            AdminResponse::Error { code, message } => {
                assert_eq!(code, ErrorCode::Unsupported, "{line}");
                assert!(message.contains("read-only"), "{message}");
            }
            other => panic!("{line}: expected refusal, got {other}"),
        }
    }
    // The loopback admin endpoint over the same store still works, and
    // its mutations are visible to the public endpoint's next snapshot.
    let mut op = Client::connect(admin.addr()).unwrap();
    let AdminResponse::Published { epoch, .. } = op
        .admin(&AdminRequest::Publish {
            namespace: "only".into(),
            spec: ReleaseSpec::new(ReleaseKind::Tree, eps(1.0)).unwrap(),
        })
        .unwrap()
    else {
        panic!("admin endpoint must publish");
    };
    assert_eq!(epoch, 2);
    assert!(matches!(
        client
            .request(&QueryRequest::ListReleases { namespace: None })
            .unwrap(),
        QueryResponse::Releases(rs) if rs.len() == 2
    ));

    drop(client);
    drop(op);
    public.shutdown().unwrap();
    admin.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A single-tenant live store accepts bare refs (the common deployment
/// needs no qualifiers) and still answers namespaced ones.
#[test]
fn single_tenant_store_accepts_bare_refs() {
    let dir = temp_store("single");
    let store = Arc::new(ReleaseStore::open(&dir).unwrap().with_seed(23));
    let topo = privpath::graph::generators::path_graph(8);
    store
        .create_namespace("only", topo, EdgeWeights::constant(7, 1.0), None)
        .unwrap();
    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(10.0)).unwrap();
    let id = store.publish("only", &spec).unwrap().id;

    let running = Server::bind("127.0.0.1:0", StoreHandler::new(Arc::clone(&store)))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(running.addr()).unwrap();
    for release in [
        ReleaseRef::from(id),
        ReleaseRef::namespaced("only", id).unwrap(),
    ] {
        let resp = client
            .request(&QueryRequest::Distance {
                release,
                from: NodeId::new(0),
                to: NodeId::new(7),
                gamma: None,
            })
            .unwrap();
        assert!(matches!(resp, QueryResponse::Distance { .. }), "{resp}");
    }
    // list/budget need no namespace either.
    assert!(matches!(
        client
            .request(&QueryRequest::ListReleases { namespace: None })
            .unwrap(),
        QueryResponse::Releases(rs) if rs.len() == 1
    ));
    drop(client);
    running.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
