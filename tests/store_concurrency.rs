//! Live-store concurrency: readers only ever observe complete epochs
//! (no torn snapshots), no stale cached answer survives an
//! `update-weights` epoch bump, a reader mid-update never sees a
//! mixed generation of releases, and the `metrics` scrape surface
//! stays monotone and untorn while traffic is in flight.

use privpath::engine::ReleaseKind;
use privpath::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

fn temp_store(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("privpath-store-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Publish-only history invariant: every committed publish bumps the
/// epoch by exactly one and adds exactly one release, so `epoch ==
/// releases` in *every* complete snapshot. A torn snapshot (records
/// visible before the epoch bump, or vice versa) breaks the equality.
#[test]
fn publish_while_querying_never_observes_a_torn_snapshot() {
    let dir = temp_store("torn");
    let store = ReleaseStore::open(&dir).unwrap().with_seed(11);
    let n = 24;
    let topo = privpath::graph::generators::path_graph(n);
    let weights = EdgeWeights::constant(topo.num_edges(), 2.0);
    store
        .create_namespace("metro", topo, weights, None)
        .unwrap();

    const PUBLISHES: usize = 24;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for t in 0..4 {
            let store = &store;
            let done = &done;
            readers.push(scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut observed = 0usize;
                while !done.load(Ordering::Relaxed) || observed == 0 {
                    let snap = store.snapshot("metro").unwrap();
                    let epoch = snap.epoch();
                    let len = snap.service().len() as u64;
                    assert_eq!(
                        epoch, len,
                        "reader {t}: torn snapshot (epoch {epoch}, {len} releases)"
                    );
                    assert!(
                        epoch >= last_epoch,
                        "reader {t}: epoch went backwards ({last_epoch} -> {epoch})"
                    );
                    last_epoch = epoch;
                    // Every release the snapshot claims must answer.
                    for id in 0..snap.service().len() {
                        let d = snap
                            .distance(
                                ReleaseId::new(id as u64),
                                NodeId::new(0),
                                NodeId::new(n - 1),
                            )
                            .unwrap();
                        assert!(d.is_finite());
                    }
                    observed += 1;
                }
                observed
            }));
        }

        let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(1.0)).unwrap();
        for i in 0..PUBLISHES {
            let receipt = store.publish("metro", &spec).unwrap();
            assert_eq!(receipt.epoch, i as u64 + 1);
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader made no observations");
        }
    });
    assert_eq!(store.epoch("metro").unwrap(), PUBLISHES as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// Cache invalidation: warm the cache on one generation, update the
/// weights by 100x, and assert no stale answer survives the epoch bump
/// — while a reader still holding the *old* snapshot keeps getting the
/// old generation's answers (snapshot isolation, not mutation).
#[test]
fn no_stale_cached_answer_survives_update_weights() {
    let dir = temp_store("stale");
    let store = ReleaseStore::open(&dir).unwrap().with_seed(12);
    let n = 64;
    let topo = privpath::graph::generators::path_graph(n);
    store
        .create_namespace("metro", topo, EdgeWeights::constant(n - 1, 1.0), None)
        .unwrap();
    // eps = 1000: per-edge noise ~1e-3, so the released path distance
    // tracks the true one closely and the two generations (true ~63 vs
    // ~6300) are unmistakable.
    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(1000.0)).unwrap();
    let id = store.publish("metro", &spec).unwrap().id;
    let (u, v) = (NodeId::new(0), NodeId::new(n - 1));

    let before = store.snapshot("metro").unwrap();
    let d_old = before.distance(id, u, v).unwrap();
    assert!((d_old - 63.0).abs() < 10.0, "old generation: {d_old}");
    // Warm the cache: repeats must be hits on the same source vector.
    for _ in 0..5 {
        assert_eq!(before.distance(id, u, v).unwrap(), d_old);
    }
    let stats = store.stats_for("metro").unwrap();
    assert!(stats.cache_hits >= 5, "expected cache hits, got {stats:?}");

    let update = store
        .update_weights("metro", EdgeWeights::constant(n - 1, 100.0))
        .unwrap();
    assert_eq!(update.epoch, before.epoch() + 1);
    assert_eq!(update.rereleased, 1);
    assert!((update.l1_shift - 99.0 * (n - 1) as f64).abs() < 1e-6);

    let after = store.snapshot("metro").unwrap();
    assert_eq!(after.epoch(), update.epoch);
    let d_new = after.distance(id, u, v).unwrap();
    assert!(
        (d_new - 6300.0).abs() < 100.0,
        "stale answer survived the epoch bump: {d_new} (old {d_old})"
    );
    // Batch path too: repeated sources through the fresh cache.
    let pairs: Vec<(NodeId, NodeId)> = (1..n).map(|t| (u, NodeId::new(t))).collect();
    let batch = after.distance_batch(id, &pairs).unwrap();
    assert!(batch.iter().all(|d| *d > 50.0), "stale batch entry");

    // The old snapshot is isolated, not mutated: still the old answers.
    assert_eq!(before.distance(id, u, v).unwrap(), d_old);
    std::fs::remove_dir_all(&dir).ok();
}

/// Generation atomicity: an `update-weights` re-releases every release
/// in the namespace, and readers see the whole new generation or none
/// of it — never release A from the old weights next to release B from
/// the new ones.
#[test]
fn readers_never_observe_a_mixed_release_generation() {
    let dir = temp_store("mixed");
    let store = ReleaseStore::open(&dir).unwrap().with_seed(13);
    let n = 48;
    let topo = privpath::graph::generators::path_graph(n);
    store
        .create_namespace("metro", topo, EdgeWeights::constant(n - 1, 1.0), None)
        .unwrap();
    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(1000.0)).unwrap();
    let a = store.publish("metro", &spec).unwrap().id;
    let b = store.publish("metro", &spec).unwrap().id;
    let (u, v) = (NodeId::new(0), NodeId::new(n - 1));

    // Old generation ~47, new generation ~9400: classify with huge slack.
    let classify = |d: f64| -> &'static str {
        if d < 1000.0 {
            "old"
        } else if d > 5000.0 {
            "new"
        } else {
            panic!("unclassifiable distance {d}")
        }
    };

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..4 {
            let store = &store;
            let done = &done;
            let classify = &classify;
            readers.push(scope.spawn(move || {
                let mut saw = [false, false];
                while !done.load(Ordering::Relaxed) {
                    let snap = store.snapshot("metro").unwrap();
                    let da = snap.distance(a, u, v).unwrap();
                    let db = snap.distance(b, u, v).unwrap();
                    let (ca, cb) = (classify(da), classify(db));
                    assert_eq!(
                        ca, cb,
                        "mixed generation in one snapshot: {a}={da} ({ca}), {b}={db} ({cb})"
                    );
                    saw[usize::from(ca == "new")] = true;
                }
                saw
            }));
        }
        store
            .update_weights("metro", EdgeWeights::constant(n - 1, 200.0))
            .unwrap();
        // Give readers a beat on the new generation before stopping.
        std::thread::sleep(std::time::Duration::from_millis(50));
        done.store(true, Ordering::Relaxed);
        let mut saw_new = false;
        for r in readers {
            let saw = r.join().unwrap();
            saw_new |= saw[1];
        }
        assert!(saw_new, "no reader observed the new generation");
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Tenants are isolated: budget exhaustion and epochs in one namespace
/// leave a sibling untouched, and dropping a release keeps its spends.
#[test]
fn namespaces_are_isolated_tenants() {
    let dir = temp_store("tenants");
    let store = ReleaseStore::open(&dir).unwrap().with_seed(14);
    let topo = privpath::graph::generators::path_graph(8);
    let w = EdgeWeights::constant(7, 1.0);
    store
        .create_namespace(
            "alpha",
            topo.clone(),
            w.clone(),
            Some((eps(1.0), Delta::zero())),
        )
        .unwrap();
    store.create_namespace("beta", topo, w, None).unwrap();

    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(1.0)).unwrap();
    store.publish("alpha", &spec).unwrap();
    // Alpha's budget is now exhausted; publishing again is refused...
    let err = store.publish("alpha", &spec).unwrap_err();
    assert!(matches!(
        err,
        StoreError::Engine(EngineError::BudgetExhausted { .. })
    ));
    // ...an update-weights re-release pass is refused up front too...
    let err = store
        .update_weights("alpha", EdgeWeights::constant(7, 2.0))
        .unwrap_err();
    assert!(matches!(
        err,
        StoreError::Engine(EngineError::BudgetExhausted { .. })
    ));
    // ...and the refusals did not commit anything.
    assert_eq!(store.epoch("alpha").unwrap(), 1);

    // Beta is unaffected.
    let receipt = store.publish("beta", &spec).unwrap();
    assert_eq!(receipt.epoch, 1);
    let dropped_epoch = store.drop_release("beta", receipt.id).unwrap();
    assert_eq!(dropped_epoch, 2);
    let stats = store.stats_for("beta").unwrap();
    assert_eq!(stats.releases, 0);
    // The drop keeps the spend: released noise cannot be un-spent.
    assert_eq!(stats.spent_eps, 1.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Continual-stream invariant: with exactly one publish followed only
/// by weight updates, every committed update advances the stream
/// position and the epoch by one each, so `position == epoch - 1` in
/// *every* complete snapshot. A torn view — the composer's new tree
/// state visible before the epoch bump, or a bumped epoch still
/// carrying the old tree — breaks the equality. The budget view must be
/// torn-free too: rho spend is a deterministic function of position, so
/// within one snapshot it can never exceed the total, and across
/// snapshots position and spend only move forward.
#[test]
fn continual_readers_never_observe_torn_tree_state() {
    let dir = temp_store("continual-torn");
    let store = ReleaseStore::open(&dir).unwrap().with_seed(13);
    let n = 24;
    let topo = privpath::graph::generators::path_graph(n);
    let num_edges = topo.num_edges();
    const UPDATES: u64 = 48;
    store
        .create_namespace_continual(
            "stream",
            topo,
            EdgeWeights::constant(num_edges, 3.0),
            (eps(1.0), Delta::new(1e-6).unwrap()),
            UPDATES,
        )
        .unwrap();
    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(1.0)).unwrap();
    let id = store.publish("stream", &spec).unwrap().id;

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for t in 0..4 {
            let store = &store;
            let done = &done;
            readers.push(scope.spawn(move || {
                let mut last_position = 0u64;
                let mut last_rho = 0.0f64;
                let mut observed = 0usize;
                while !done.load(Ordering::Relaxed) || observed == 0 {
                    let snap = store.snapshot("stream").unwrap();
                    let epoch = snap.epoch();
                    let status = snap
                        .continual()
                        .expect("continual namespace must always report stream status");
                    assert_eq!(
                        status.position,
                        epoch - 1,
                        "reader {t}: torn tree state (epoch {epoch}, position {})",
                        status.position
                    );
                    assert!(
                        status.position >= last_position,
                        "reader {t}: stream position went backwards ({last_position} -> {})",
                        status.position
                    );
                    assert!(
                        status.position <= status.horizon,
                        "reader {t}: position {} past horizon {}",
                        status.position,
                        status.horizon
                    );
                    assert!(
                        status.rho_spent >= last_rho && status.rho_spent <= status.rho_total,
                        "reader {t}: rho spend tore ({last_rho} -> {} of {})",
                        status.rho_spent,
                        status.rho_total
                    );
                    last_position = status.position;
                    last_rho = status.rho_spent;
                    // The continually re-released object must always answer.
                    let d = snap
                        .distance(id, NodeId::new(0), NodeId::new(n - 1))
                        .unwrap();
                    assert!(d.is_finite());
                    observed += 1;
                }
                observed
            }));
        }

        for i in 0..UPDATES {
            let w = 3.0 + (i as f64 + 1.0) * 0.01;
            let receipt = store
                .update_weights("stream", EdgeWeights::constant(num_edges, w))
                .unwrap();
            assert_eq!(receipt.epoch, i + 2);
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader made no observations");
        }
    });
    let status = store.stats_for("stream").unwrap().continual.unwrap();
    assert_eq!(status.position, UPDATES);
    assert_eq!(store.epoch("stream").unwrap(), UPDATES + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Observability under concurrency: closed-loop readers hammer a live
/// TCP store server while a scraper thread pulls `metrics` mid-traffic.
/// Per scrape, the per-verb request total must be monotone and every
/// histogram's `+Inf` cumulative bucket must equal its `_count` (the
/// count is derived from the bucket sums, so a scrape can never tear).
/// After quiescing, the counter and the latency histogram must both
/// agree exactly with the number of issued requests. The metric cells
/// are process-cumulative (the registry is global), so everything is
/// asserted as deltas against a baseline scrape.
#[test]
fn metrics_scrapes_are_monotone_and_untorn_under_load() {
    use privpath::serve::{Client, QueryRequest, QueryResponse, Server};
    use std::sync::Arc;

    let dir = temp_store("obs-scrape");
    let store = Arc::new(ReleaseStore::open(&dir).unwrap().with_seed(21));
    let n = 32;
    let topo = privpath::graph::generators::path_graph(n);
    store
        .create_namespace("obsmetro", topo, EdgeWeights::constant(n - 1, 1.0), None)
        .unwrap();
    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, eps(2.0)).unwrap();
    let id = store.publish("obsmetro", &spec).unwrap().id;

    let server = Server::bind("127.0.0.1:0", StoreHandler::new(Arc::clone(&store)))
        .unwrap()
        .with_threads(3);
    let running = server.spawn().unwrap();
    let addr = running.addr();

    fn scrape(client: &mut Client) -> Vec<String> {
        match client.request(&QueryRequest::Metrics).unwrap() {
            QueryResponse::Metrics { lines } => lines,
            other => panic!("unexpected metrics response: {other}"),
        }
    }
    fn series_value(lines: &[String], series: &str) -> Option<f64> {
        lines.iter().find_map(|l| {
            let (key, val) = l.rsplit_once(' ')?;
            if key == series {
                val.parse().ok()
            } else {
                None
            }
        })
    }
    const REQUESTS_TOTAL: &str = "serve_requests_total{verb=\"distance\"}";
    const LATENCY_COUNT: &str = "serve_request_seconds_count{verb=\"distance\"}";
    const LATENCY_INF: &str = "serve_request_seconds_bucket{verb=\"distance\",le=\"+Inf\"}";

    let mut probe = Client::connect(addr).unwrap();
    let baseline = scrape(&mut probe);
    let base_total = series_value(&baseline, REQUESTS_TOTAL).unwrap_or(0.0);
    let base_count = series_value(&baseline, LATENCY_COUNT).unwrap_or(0.0);

    const READERS: usize = 4;
    const PER_READER: usize = 50;
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                let mut c = Client::connect(addr).unwrap();
                for t in 0..PER_READER {
                    let resp = c
                        .request(&QueryRequest::Distance {
                            release: id.into(),
                            from: NodeId::new(0),
                            to: NodeId::new(1 + t % (n - 1)),
                            gamma: None,
                        })
                        .unwrap();
                    assert!(
                        matches!(resp, QueryResponse::Distance { .. }),
                        "reader got {resp}"
                    );
                }
            });
        }
        scope.spawn(|| {
            let mut c = Client::connect(addr).unwrap();
            let mut last_total = 0.0f64;
            for _ in 0..25 {
                let lines = scrape(&mut c);
                let count = series_value(&lines, LATENCY_COUNT).unwrap_or(0.0);
                let inf = series_value(&lines, LATENCY_INF).unwrap_or(0.0);
                assert_eq!(
                    count, inf,
                    "torn scrape: +Inf cumulative bucket {inf} != _count {count}"
                );
                let total = series_value(&lines, REQUESTS_TOTAL).unwrap_or(0.0);
                assert!(
                    total >= last_total,
                    "requests_total went backwards ({last_total} -> {total})"
                );
                last_total = total;
            }
        });
    });

    let after = scrape(&mut probe);
    let issued = (READERS * PER_READER) as f64;
    assert_eq!(
        series_value(&after, REQUESTS_TOTAL).unwrap() - base_total,
        issued,
        "per-verb counter disagrees with issued traffic"
    );
    assert_eq!(
        series_value(&after, LATENCY_COUNT).unwrap() - base_count,
        issued,
        "latency histogram count disagrees with issued traffic"
    );
    drop(probe);
    running.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
