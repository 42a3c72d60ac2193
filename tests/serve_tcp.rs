//! TCP serve-path tests: the in-process server speaks the line protocol,
//! isolates per-connection errors, serves concurrent clients from one
//! frozen release set, and shuts down gracefully.

use privpath::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// A served snapshot over a small tree with two releases, plus the
/// engine that made it (for reference answers).
fn serving_engine() -> ReleaseEngine {
    let mut rng = StdRng::seed_from_u64(71);
    let topo = privpath::graph::generators::random_tree_prufer(20, &mut rng);
    let weights =
        privpath::graph::generators::uniform_weights(topo.num_edges(), 1.0, 9.0, &mut rng);
    let mut engine = ReleaseEngine::with_budget(topo, weights, eps(2.0), Delta::zero()).unwrap();
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
}

/// The server-side handler over a snapshot: the frozen release set as
/// its one read-only namespace, exactly what `serve --store-dir` runs.
fn frozen(service: QueryService) -> StoreHandler {
    StoreHandler::frozen(NamespaceSnapshot::frozen(service))
}

fn round_trip(stream: &mut TcpStream, line: &str) -> String {
    writeln!(stream, "{line}").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    resp.trim_end().to_string()
}

/// Scrapes `metrics` through `client` and returns the value of one
/// exposition series (`name{labels}`), or 0 if it has no samples yet.
fn scrape_series(client: &mut Client, series: &str) -> f64 {
    match client.request(&QueryRequest::Metrics).unwrap() {
        QueryResponse::Metrics { lines } => lines
            .iter()
            .find_map(|l| {
                let (key, val) = l.rsplit_once(' ')?;
                (key == series).then(|| val.parse().ok()).flatten()
            })
            .unwrap_or(0.0),
        other => panic!("expected a metrics frame, got {other}"),
    }
}

#[test]
fn serves_typed_queries_over_tcp() {
    let engine = serving_engine();
    let service = engine.snapshot();
    let running = Server::bind("127.0.0.1:0", frozen(service.clone()))
        .unwrap()
        .with_threads(2)
        .spawn()
        .unwrap();

    let mut client = Client::connect(running.addr()).unwrap();
    let id: ReleaseId = "r0".parse().unwrap();
    let (u, v) = (NodeId::new(0), NodeId::new(19));
    let expected = service.query(id).unwrap().distance(u, v).unwrap();
    match client
        .request(&QueryRequest::Distance {
            release: id.into(),
            from: u,
            to: v,
            gamma: None,
        })
        .unwrap()
    {
        QueryResponse::Distance { value, bound } => {
            assert_eq!(value, expected, "wire answer must match local");
            assert!(bound.is_none());
        }
        other => panic!("expected a distance, got {other}"),
    }

    // With a gamma the same request carries the contract's error bar.
    match client
        .request(&QueryRequest::Distance {
            release: id.into(),
            from: u,
            to: v,
            gamma: Some(0.05),
        })
        .unwrap()
    {
        QueryResponse::Distance { value, bound } => {
            assert_eq!(value, expected);
            assert_eq!(bound, Some(service.accuracy(id, 0.05).unwrap().alpha()));
        }
        other => panic!("expected a distance, got {other}"),
    }

    match client
        .request(&QueryRequest::Accuracy {
            release: id.into(),
            gamma: 0.05,
        })
        .unwrap()
    {
        QueryResponse::Accuracy(b) => {
            assert_eq!(b, service.accuracy(id, 0.05).unwrap());
        }
        other => panic!("expected an accuracy bound, got {other}"),
    }

    match client
        .request(&QueryRequest::ListReleases { namespace: None })
        .unwrap()
    {
        QueryResponse::Releases(rs) => {
            assert_eq!(rs.len(), 2);
            assert_eq!(rs[0].kind, ReleaseKind::ShortestPath);
            assert_eq!(rs[1].kind, ReleaseKind::Tree);
        }
        other => panic!("expected releases, got {other}"),
    }

    match client
        .request(&QueryRequest::BudgetStatus { namespace: None })
        .unwrap()
    {
        QueryResponse::Budget {
            spent_eps,
            remaining,
            ..
        } => {
            assert_eq!(spent_eps, 2.0);
            assert_eq!(remaining, Some((0.0, 0.0)));
        }
        other => panic!("expected budget, got {other}"),
    }

    // Batches answer in request order over the wire too.
    let pairs = vec![
        (NodeId::new(1), NodeId::new(5)),
        (NodeId::new(1), NodeId::new(9)),
        (NodeId::new(4), NodeId::new(2)),
    ];
    match client
        .request(&QueryRequest::DistanceBatch {
            release: id.into(),
            pairs: pairs.clone(),
            gamma: None,
        })
        .unwrap()
    {
        QueryResponse::Distances { values, bound } => {
            let oracle = service.query(id).unwrap();
            for ((u, v), d) in pairs.iter().zip(&values) {
                assert_eq!(*d, oracle.distance(*u, *v).unwrap());
            }
            assert!(bound.is_none());
        }
        other => panic!("expected distances, got {other}"),
    }

    drop(client);
    let stats = running.shutdown().unwrap();
    assert!(stats.connections >= 1);
    assert_eq!(stats.requests, 6);
}

#[test]
fn malformed_lines_and_bad_connections_are_isolated() {
    let engine = serving_engine();
    let running = Server::bind("127.0.0.1:0", frozen(engine.snapshot()))
        .unwrap()
        .with_threads(2)
        .spawn()
        .unwrap();

    // A connection that sends garbage gets per-line error responses and
    // stays usable.
    let mut bad = TcpStream::connect(running.addr()).unwrap();
    let resp = round_trip(&mut bad, "frobnicate the database");
    assert!(resp.starts_with("error malformed "), "{resp}");
    let resp = round_trip(&mut bad, "distance r99 0 1");
    assert!(resp.starts_with("error unknown-release "), "{resp}");
    let resp = round_trip(&mut bad, "distance r0 0 1");
    assert!(resp.starts_with("distance "), "{resp}");

    // Meanwhile a well-behaved connection is unaffected.
    let mut good = TcpStream::connect(running.addr()).unwrap();
    let resp = round_trip(&mut good, "distance r0 0 19");
    assert!(resp.starts_with("distance "), "{resp}");

    // A connection dropped mid-line kills nobody.
    let mut rude = TcpStream::connect(running.addr()).unwrap();
    rude.write_all(b"distance r0 0").unwrap();
    drop(rude);
    let resp = round_trip(&mut good, "list");
    assert!(resp.starts_with("releases 2 "), "{resp}");

    drop(good);
    drop(bad);
    running.shutdown().unwrap();
}

#[test]
fn concurrent_tcp_clients_agree_with_local_answers() {
    let engine = serving_engine();
    let service = engine.snapshot();
    let running = Server::bind("127.0.0.1:0", frozen(service.clone()))
        .unwrap()
        .with_threads(4)
        .spawn()
        .unwrap();
    let addr = running.addr();

    let id: ReleaseId = "r1".parse().unwrap();
    let oracle = service.query(id).unwrap();
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let oracle = &oracle;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..10 {
                    let (u, v) = (NodeId::new((t + i) % 20), NodeId::new((3 * i + t) % 20));
                    match client
                        .request(&QueryRequest::Distance {
                            release: id.into(),
                            from: u,
                            to: v,
                            gamma: None,
                        })
                        .unwrap()
                    {
                        QueryResponse::Distance { value, .. } => {
                            assert_eq!(value, oracle.distance(u, v).unwrap())
                        }
                        other => panic!("expected a distance, got {other}"),
                    }
                }
            });
        }
    });

    let stats = running.shutdown().unwrap();
    assert_eq!(stats.requests, 80);
}

#[test]
fn idle_connections_do_not_starve_new_clients() {
    // One worker, and a client parked on an open idle connection: the
    // worker multiplexes, so a second client (and the shutdown control
    // line) must still be served.
    let engine = serving_engine();
    let running = Server::bind("127.0.0.1:0", frozen(engine.snapshot()))
        .unwrap()
        .with_threads(1)
        .spawn()
        .unwrap();

    let idle = TcpStream::connect(running.addr()).unwrap();
    let mut active = TcpStream::connect(running.addr()).unwrap();
    let resp = round_trip(&mut active, "distance r0 0 19");
    assert!(resp.starts_with("distance "), "{resp}");

    // The idle connection still works too.
    let mut idle = idle;
    let resp = round_trip(&mut idle, "budget");
    assert!(resp.starts_with("budget spent "), "{resp}");

    // Graceful shutdown goes through a third connection while both
    // others stay open.
    let stats = running.shutdown().unwrap();
    assert_eq!(stats.requests, 2);
}

#[test]
fn pipelining_client_does_not_starve_siblings_or_shutdown() {
    // One worker; one client pipelines hundreds of requests in a single
    // write. The per-pass cap must let a sibling connection (and the
    // shutdown line) interleave, and every pipelined request must still
    // be answered in order.
    let engine = serving_engine();
    let running = Server::bind("127.0.0.1:0", frozen(engine.snapshot()))
        .unwrap()
        .with_threads(1)
        .spawn()
        .unwrap();

    let mut pipeliner = TcpStream::connect(running.addr()).unwrap();
    let n = 300;
    let mut blob = String::new();
    for _ in 0..n {
        blob.push_str("distance r0 0 19\n");
    }
    pipeliner.write_all(blob.as_bytes()).unwrap();
    pipeliner.flush().unwrap();

    // A sibling on the same (sole) worker gets served while the
    // pipeliner's backlog is still draining.
    let mut sibling = TcpStream::connect(running.addr()).unwrap();
    let resp = round_trip(&mut sibling, "budget");
    assert!(resp.starts_with("budget spent "), "{resp}");

    // Every pipelined response arrives, in order.
    let mut reader = BufReader::new(pipeliner);
    let mut got = 0;
    let mut line = String::new();
    while got < n {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "eof at {got}");
        assert!(line.starts_with("distance "), "{line}");
        got += 1;
    }

    drop(reader);
    drop(sibling);
    let stats = running.shutdown().unwrap();
    assert_eq!(stats.requests, n as u64 + 1);
}

#[test]
fn oversized_lines_are_rejected_without_growing_forever() {
    let engine = serving_engine();
    let running = Server::bind("127.0.0.1:0", frozen(engine.snapshot()))
        .unwrap()
        .with_threads(2)
        .spawn()
        .unwrap();

    // A newline-free stream past the cap gets an error and a closed
    // connection rather than an unbounded buffer. The writes and the
    // final read may race the server-side close (EPIPE/RST), which is
    // fine — the contract under test is "rejected and dropped".
    let mut hog = TcpStream::connect(running.addr()).unwrap();
    let blob = vec![b'x'; privpath::serve::MAX_LINE_BYTES + 4096];
    let _ = hog.write_all(&blob);
    let _ = hog.flush();
    let mut reader = BufReader::new(hog.try_clone().unwrap());
    let mut resp = String::new();
    match reader.read_line(&mut resp) {
        Ok(0) | Err(_) => {} // closed before the error line was readable
        Ok(_) => assert!(resp.starts_with("error malformed "), "{resp}"),
    }
    // Either way the connection is dead: reads come back EOF or error.
    resp.clear();
    assert!(matches!(reader.read_line(&mut resp), Ok(0) | Err(_)));

    // Other clients are unaffected.
    let mut good = TcpStream::connect(running.addr()).unwrap();
    let resp = round_trip(&mut good, "distance r0 0 19");
    assert!(resp.starts_with("distance "), "{resp}");

    drop(good);
    let stats = running.shutdown().unwrap();
    assert!(stats.connection_errors >= 1);
}

#[test]
fn frozen_snapshot_server_answers_metrics_not_unsupported() {
    // Regression: telemetry is read-only, so a frozen-snapshot server
    // must serve the `metrics` verb instead of refusing it.
    let engine = serving_engine();
    let running = Server::bind("127.0.0.1:0", frozen(engine.snapshot()))
        .unwrap()
        .with_threads(2)
        .spawn()
        .unwrap();

    let mut client = Client::connect(running.addr()).unwrap();
    let id: ReleaseId = "r0".parse().unwrap();
    let resp = client
        .request(&QueryRequest::Distance {
            release: id.into(),
            from: NodeId::new(0),
            to: NodeId::new(19),
            gamma: None,
        })
        .unwrap();
    assert!(matches!(resp, QueryResponse::Distance { .. }));

    match client.request(&QueryRequest::Metrics).unwrap() {
        QueryResponse::Metrics { lines } => {
            assert!(
                lines.iter().any(|l| l.starts_with("serve_requests_total{")),
                "scrape carries no per-verb request counters"
            );
        }
        other => panic!("frozen server must answer metrics, got {other}"),
    }
    drop(client);
    running.shutdown().unwrap();
}

#[test]
fn error_paths_count_before_the_early_return() {
    // Regression: the per-request error counter must tick before the
    // response is written (a malformed line is visible in the next
    // scrape), and a connection torn down for an oversized line must
    // tick the connection-error counter before its early return.
    let engine = serving_engine();
    let running = Server::bind("127.0.0.1:0", frozen(engine.snapshot()))
        .unwrap()
        .with_threads(2)
        .spawn()
        .unwrap();
    let addr = running.addr();

    let mut probe = Client::connect(addr).unwrap();
    const MALFORMED: &str = "serve_errors_total{code=\"malformed\"}";
    const OVERSIZED: &str = "serve_connection_errors_total{cause=\"oversized-line\"}";
    let base_malformed = scrape_series(&mut probe, MALFORMED);
    let base_oversized = scrape_series(&mut probe, OVERSIZED);

    let mut bad = TcpStream::connect(addr).unwrap();
    let resp = round_trip(&mut bad, "frobnicate the database");
    assert!(resp.starts_with("error malformed "), "{resp}");
    assert!(
        scrape_series(&mut probe, MALFORMED) >= base_malformed + 1.0,
        "malformed response not counted in errors_total"
    );

    // An oversized newline-free blob: wait for the server-side close,
    // by which point the early-return path has already counted it.
    let mut hog = TcpStream::connect(addr).unwrap();
    let blob = vec![b'x'; privpath::serve::MAX_LINE_BYTES + 4096];
    let _ = hog.write_all(&blob);
    let _ = hog.flush();
    let mut reader = BufReader::new(hog);
    let mut sink = String::new();
    while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }
    assert!(
        scrape_series(&mut probe, OVERSIZED) >= base_oversized + 1.0,
        "oversized-line teardown not counted in connection errors"
    );

    drop(bad);
    drop(probe);
    running.shutdown().unwrap();
}

#[test]
fn graceful_shutdown_acknowledges_and_stops_accepting() {
    let engine = serving_engine();
    let running = Server::bind("127.0.0.1:0", frozen(engine.snapshot()))
        .unwrap()
        .spawn()
        .unwrap();
    let addr = running.addr();

    let mut client = Client::connect(addr).unwrap();
    client.shutdown_server().unwrap();
    drop(client);
    let stats = running.shutdown().err().map(|_| ()); // second shutdown may fail to connect
    let _ = stats;

    // The listener is gone (allow a moment for the accept loop to wind
    // down before asserting).
    let mut refused = false;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    assert!(refused, "listener still accepting after shutdown");
}

#[test]
fn malformed_corpus_never_kills_a_worker() {
    // The fuzz-style corpus: truncated floats, half-tokens, wrong
    // arities, unknown verbs, binary junk, and whitespace pathologies.
    // Every line gets exactly one error response on the same
    // connection, interleaved valid requests still answer, and the
    // worker pool survives to serve a fresh connection afterwards —
    // per-connection error isolation must never take a worker down.
    const CORPUS: &[&str] = &[
        "distance r0 0 1 gamma 0.0.5",       // truncated/duplicated float dot
        "distance r0 0 1 gamma .",           // bare dot
        "distance r0 0 1 gamma 1e",          // dangling exponent
        "batch r0 3 0:1 2:3",                // count exceeds provided pairs
        "batch r0 1 0:1:2",                  // malformed pair
        "batch r0 18446744073709551616 0:1", // count overflows u64
        "distance r0 0 1 2",                 // trailing token
        "accuracy r0 0x1p3",                 // hex float not in grammar
        "path r0 -1 2",                      // negative vertex
        "shutdown now please",               // control verb with arguments
        "\u{7f}\u{1b}[2Jdistance",           // control bytes
    ];
    // (Blank/whitespace-only lines are deliberately absent: the
    // protocol skips them without a response line.)

    let engine = serving_engine();
    let running = Server::bind("127.0.0.1:0", frozen(engine.snapshot()))
        .unwrap()
        .with_threads(2)
        .spawn()
        .unwrap();

    let mut fuzz = TcpStream::connect(running.addr()).unwrap();
    for (i, bad) in CORPUS.iter().enumerate() {
        let resp = round_trip(&mut fuzz, bad);
        assert!(
            resp.starts_with("error malformed "),
            "corpus line {i} {bad:?}: got {resp}"
        );
        // Interleave a valid request: the connection state machine must
        // recover after every malformed line.
        let resp = round_trip(&mut fuzz, "distance r0 0 1");
        assert!(
            resp.starts_with("distance "),
            "after corpus line {i}: {resp}"
        );
    }

    // A pipelined burst mixing malformed and valid lines answers one
    // response per line, in order.
    let mut pipelined = TcpStream::connect(running.addr()).unwrap();
    let burst = "distance r0 0 2\nbatch r0 1 0:3\ndistance r0 0 1 gamma 0.0.5\nlist\n";
    pipelined.write_all(burst.as_bytes()).unwrap();
    pipelined.flush().unwrap();
    let mut reader = BufReader::new(pipelined.try_clone().unwrap());
    let mut lines = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        lines.push(line.trim_end().to_string());
    }
    assert!(lines[0].starts_with("distance "), "{}", lines[0]);
    assert!(lines[1].starts_with("distances 1 "), "{}", lines[1]);
    assert!(lines[2].starts_with("error malformed "), "{}", lines[2]);
    assert!(lines[3].starts_with("releases 2 "), "{}", lines[3]);

    // Both workers are still alive: a fresh connection gets answered
    // while the fuzz connections are still open.
    let mut fresh = TcpStream::connect(running.addr()).unwrap();
    let resp = round_trip(&mut fresh, "budget");
    assert!(resp.starts_with("budget spent "), "{resp}");

    drop(fresh);
    drop(pipelined);
    drop(fuzz);
    let stats = running.shutdown().unwrap();
    assert!(stats.requests >= (2 * CORPUS.len() + 4 + 1) as u64);
}
