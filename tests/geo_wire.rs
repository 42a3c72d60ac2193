//! Geo queries over the wire: the `geo-distance` / `geo-route` /
//! `geo-batch` verbs against a live store, out-of-bounds refusal,
//! update-weights epoch bumps observed through a geo query, and the
//! whole arrangement surviving a server restart.

use privpath::prelude::*;
use privpath::serve::ErrorCode;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("privpath-geow-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// A geo namespace plus a coordinate-less namespace over the same
/// generated network, with one shortest-path release each.
fn seed_store(dir: &PathBuf) -> (GeoBounds, ReleaseId) {
    let net = generate_road_network(400, 5).unwrap();
    let bounds = GeoBounds::from_points(&net.coords).unwrap();
    let store = ReleaseStore::open(dir).unwrap().with_seed(17);
    store
        .create_namespace_geo(
            "city",
            net.topology.clone(),
            net.weights.clone(),
            net.coords,
            Some((eps(1000.0), Delta::zero())),
        )
        .unwrap();
    store
        .create_namespace("blind", net.topology, net.weights, None)
        .unwrap();
    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(200.0)).unwrap();
    let id = store.publish("city", &spec).unwrap().id;
    store.publish("blind", &spec).unwrap();
    (bounds, id)
}

fn mid(bounds: &GeoBounds) -> (f64, f64) {
    (
        (bounds.min_lat() + bounds.max_lat()) / 2.0,
        (bounds.min_lon() + bounds.max_lon()) / 2.0,
    )
}

/// The three geo verbs answer over a real socket, error bars attach at
/// the requested confidence, and the route's endpoints are the snapped
/// nodes the distance verb reports.
#[test]
fn geo_verbs_answer_over_the_wire() {
    let dir = temp_store("verbs");
    let (bounds, id) = seed_store(&dir);
    let store = Arc::new(ReleaseStore::open(&dir).unwrap());
    let running = Server::bind("127.0.0.1:0", StoreHandler::new(store))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(running.addr()).unwrap();

    let release: ReleaseRef = format!("city/{id}").parse().unwrap();
    let from = mid(&bounds);
    let to = (bounds.max_lat(), bounds.max_lon());

    let resp = client
        .request(&QueryRequest::GeoDistance {
            release: release.clone(),
            from,
            to,
            gamma: Some(0.05),
        })
        .unwrap();
    let QueryResponse::GeoDistance {
        from: su,
        to: sv,
        value,
        bound,
    } = resp
    else {
        panic!("expected geo-distance, got {resp}");
    };
    assert!(value.is_finite() && value >= 0.0);
    assert!(bound.expect("gamma given, bound attached") > 0.0);

    let resp = client
        .request(&QueryRequest::GeoRoute {
            release: release.clone(),
            from,
            to,
        })
        .unwrap();
    let QueryResponse::GeoRoute {
        from: ru,
        to: rv,
        nodes,
    } = resp
    else {
        panic!("expected geo-route, got {resp}");
    };
    assert_eq!((ru, rv), (su, sv), "route snaps to the same nodes");
    assert_eq!(nodes.first(), Some(&su));
    assert_eq!(nodes.last(), Some(&sv));

    let resp = client
        .request(&QueryRequest::GeoBatch {
            release: release.clone(),
            pairs: vec![(from, to), (to, from)],
            gamma: Some(0.05),
        })
        .unwrap();
    let QueryResponse::GeoDistances { triples, bound } = resp else {
        panic!("expected geo-distances, got {resp}");
    };
    assert_eq!(triples.len(), 2);
    assert_eq!((triples[0].0, triples[0].1), (su, sv));
    assert_eq!((triples[1].0, triples[1].1), (sv, su));
    assert!(bound.expect("bound attached") > 0.0);

    drop(client);
    running.shutdown().unwrap();
}

/// Refusals: coordinates far outside the indexed region are
/// out-of-range, and a namespace created without coordinates refuses
/// geo verbs as unsupported rather than guessing.
#[test]
fn out_of_bounds_and_index_less_namespaces_are_refused() {
    let dir = temp_store("refusals");
    let (bounds, id) = seed_store(&dir);
    let store = Arc::new(ReleaseStore::open(&dir).unwrap());
    let running = Server::bind("127.0.0.1:0", StoreHandler::new(store))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(running.addr()).unwrap();

    let release: ReleaseRef = format!("city/{id}").parse().unwrap();
    let resp = client
        .request(&QueryRequest::GeoDistance {
            release,
            from: (-89.0, 0.0),
            to: mid(&bounds),
            gamma: None,
        })
        .unwrap();
    let QueryResponse::Error { code, message } = resp else {
        panic!("expected refusal, got {resp}");
    };
    assert_eq!(code, ErrorCode::OutOfRange);
    assert!(
        message.contains("indexed region"),
        "names the region: {message}"
    );

    let blind: ReleaseRef = "blind/r0".parse().unwrap();
    let resp = client
        .request(&QueryRequest::GeoDistance {
            release: blind,
            from: mid(&bounds),
            to: mid(&bounds),
            gamma: None,
        })
        .unwrap();
    let QueryResponse::Error { code, message } = resp else {
        panic!("expected refusal, got {resp}");
    };
    assert_eq!(code, ErrorCode::Unsupported);
    assert!(
        message.contains("spatial index"),
        "explains the fix: {message}"
    );

    drop(client);
    running.shutdown().unwrap();
}

/// A weight update observed entirely through the geo plane: the epoch
/// bumps, the same lat/lon pair still answers (fresh release, fresh
/// noise), and the snapped nodes are bit-identical — coordinates are
/// epoch-invariant.
#[test]
fn update_weights_epoch_bump_is_visible_through_geo_queries() {
    let dir = temp_store("epoch");
    let (bounds, id) = seed_store(&dir);
    let store = Arc::new(ReleaseStore::open(&dir).unwrap());
    let running = Server::bind("127.0.0.1:0", StoreHandler::new(Arc::clone(&store)))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(running.addr()).unwrap();

    let release: ReleaseRef = format!("city/{id}").parse().unwrap();
    let from = mid(&bounds);
    let to = (bounds.min_lat(), bounds.min_lon());
    let ask = |client: &mut Client| -> (NodeId, NodeId, f64) {
        let resp = client
            .request(&QueryRequest::GeoDistance {
                release: release.clone(),
                from,
                to,
                gamma: None,
            })
            .unwrap();
        let QueryResponse::GeoDistance {
            from: u,
            to: v,
            value,
            ..
        } = resp
        else {
            panic!("expected geo-distance, got {resp}");
        };
        (u, v, value)
    };
    let (u1, v1, d1) = ask(&mut client);

    // Full-replacement weight update over the wire: every travel time
    // becomes 9.0 minutes (the generator is deterministic, so the edge
    // count is re-derivable without touching private state).
    let n_edges = generate_road_network(400, 5).unwrap().topology.num_edges();
    let resp = client
        .admin(&AdminRequest::UpdateWeights {
            namespace: "city".into(),
            updates: (0..n_edges).map(|e| (e, 9.0)).collect(),
            full: true,
        })
        .unwrap();
    let AdminResponse::Updated { epoch, .. } = resp else {
        panic!("expected updated, got {resp}");
    };
    assert_eq!(epoch, 2);

    let (u2, v2, d2) = ask(&mut client);
    assert_eq!((u2, v2), (u1, v1), "snap is epoch-invariant");
    assert!(d1.is_finite() && d2.is_finite());

    drop(client);
    running.shutdown().unwrap();
}

/// The full arrangement survives a restart: server down, store dropped,
/// everything replayed from disk, and the same lat/lon query snaps to
/// the same nodes at the post-update epoch.
#[test]
fn geo_serving_survives_restart() {
    let dir = temp_store("restart");
    let (bounds, id) = seed_store(&dir);
    let release: ReleaseRef = format!("city/{id}").parse().unwrap();
    let from = mid(&bounds);
    let to = (bounds.max_lat(), bounds.min_lon());

    let first = {
        let store = Arc::new(ReleaseStore::open(&dir).unwrap());
        let running = Server::bind("127.0.0.1:0", StoreHandler::new(store))
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = Client::connect(running.addr()).unwrap();
        let resp = client
            .request(&QueryRequest::GeoDistance {
                release: release.clone(),
                from,
                to,
                gamma: None,
            })
            .unwrap();
        drop(client);
        running.shutdown().unwrap();
        resp
    };
    let QueryResponse::GeoDistance {
        from: u1, to: v1, ..
    } = first
    else {
        panic!("expected geo-distance, got {first}");
    };

    // Restart: fresh store replaying the persisted index and manifest.
    let store = Arc::new(ReleaseStore::open(&dir).unwrap());
    let running = Server::bind("127.0.0.1:0", StoreHandler::new(store))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(running.addr()).unwrap();
    let resp = client
        .request(&QueryRequest::GeoDistance {
            release,
            from,
            to,
            gamma: None,
        })
        .unwrap();
    let QueryResponse::GeoDistance {
        from: u2, to: v2, ..
    } = resp
    else {
        panic!("expected geo-distance, got {resp}");
    };
    assert_eq!((u2, v2), (u1, v1), "replayed index snaps identically");

    drop(client);
    running.shutdown().unwrap();
}

/// The geo wire grammar round-trips: every request and response form
/// renders to a line that parses back to itself.
#[test]
fn geo_protocol_lines_round_trip() {
    let release: ReleaseRef = "city/r3".parse().unwrap();
    let requests = vec![
        QueryRequest::GeoDistance {
            release: release.clone(),
            from: (40.25, -75.5),
            to: (40.75, -74.5),
            gamma: Some(0.01),
        },
        QueryRequest::GeoRoute {
            release: release.clone(),
            from: (40.0, -75.0),
            to: (41.0, -74.0),
        },
        QueryRequest::GeoBatch {
            release,
            pairs: vec![
                ((40.0, -75.0), (41.0, -74.0)),
                ((40.5, -74.5), (40.0, -75.0)),
            ],
            gamma: None,
        },
    ];
    for req in requests {
        let line = req.to_string();
        let back: QueryRequest = line.parse().unwrap();
        assert_eq!(back, req, "request line {line:?}");
    }

    let responses = vec![
        QueryResponse::GeoDistance {
            from: NodeId::new(3),
            to: NodeId::new(9),
            value: 12.5,
            bound: Some(4.25),
        },
        QueryResponse::GeoRoute {
            from: NodeId::new(0),
            to: NodeId::new(2),
            nodes: vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
        },
        QueryResponse::GeoDistances {
            triples: vec![(NodeId::new(1), NodeId::new(2), 7.5)],
            bound: None,
        },
    ];
    for resp in responses {
        let line = resp.to_string();
        let back: QueryResponse = line.parse().unwrap();
        assert_eq!(back, resp, "response line {line:?}");
    }
}
