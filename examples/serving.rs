//! Serving: the write-path/read-path split, end to end over TCP.
//!
//! A `ReleaseEngine` (exclusive write path) releases two private
//! distance products once under a tracked budget; its `QueryService`
//! snapshot (shared read path) is frozen into one read-only namespace
//! and served by the same `StoreHandler` a live store uses — first
//! in-process, then from a thread-pooled TCP server that clients query
//! over the line protocol. Every answer is pure post-processing, free
//! of further privacy cost.
//!
//! Run with: `cargo run --release --example serving`

use privpath::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -- Write path: one database, one budget, two releases. ------------
    let mut rng = StdRng::seed_from_u64(2016);
    let topo = privpath::graph::generators::random_geometric_graph(64, 0.3, &mut rng).topo;
    let weights =
        privpath::graph::generators::uniform_weights(topo.num_edges(), 1.0, 9.0, &mut rng);
    let mut engine = ReleaseEngine::with_budget(topo, weights, Epsilon::new(2.0)?, Delta::zero())?;
    let sp = engine.release(
        &mechanisms::ShortestPaths,
        &ShortestPathParams::new(Epsilon::new(1.0)?, 0.05)?,
        &mut rng,
    )?;
    let synth = engine.release(
        &mechanisms::SyntheticGraph,
        &mechanisms::SyntheticGraphParams::new(Epsilon::new(1.0)?),
        &mut rng,
    )?;
    println!(
        "released {sp} (routes) and {synth} (distances); budget spent {:?}",
        engine.spent()
    );

    // -- Read path: snapshot and serve. ---------------------------------
    // The snapshot is immutable and Send + Sync; the engine could keep
    // releasing (later snapshots would include the new releases). Frozen,
    // it is the one namespace `frozen`: refs answer bare (`r0`) or
    // qualified (`frozen/r0`).
    let handler = StoreHandler::frozen(NamespaceSnapshot::frozen(engine.snapshot()));

    // In-process serving: the typed requests the TCP server answers per
    // line, answered directly by the handler.
    let requests = [
        QueryRequest::Distance {
            release: sp.into(),
            from: NodeId::new(0),
            to: NodeId::new(40),
            // Ask for the accuracy contract alongside the estimate: the
            // response carries the ±bound the value honors w.p. 95%.
            gamma: Some(0.05),
        },
        QueryRequest::Distance {
            release: synth.into(),
            from: NodeId::new(0),
            to: NodeId::new(40),
            gamma: None,
        },
        QueryRequest::Distance {
            release: ReleaseRef::namespaced("frozen", sp)?,
            from: NodeId::new(0),
            to: NodeId::new(63),
            gamma: Some(0.05),
        },
        QueryRequest::Accuracy {
            release: sp.into(),
            gamma: 0.01,
        },
        QueryRequest::BudgetStatus { namespace: None },
    ];
    for req in &requests {
        println!("  {req}  ->  {}", handler.answer(req));
    }

    // Over TCP: a dependency-free thread-pooled server on an ephemeral
    // port, queried by four concurrent clients.
    let running = Server::bind("127.0.0.1:0", handler)?
        .with_threads(4)
        .spawn()?;
    let addr = running.addr();
    println!("serving on {addr}");
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let to = NodeId::new(8 * worker + 7);
                let resp = client
                    .request(&QueryRequest::Distance {
                        release: sp.into(),
                        from: NodeId::new(0),
                        to,
                        gamma: None,
                    })
                    .expect("query");
                println!("  client {worker}: 0 -> {} answered {resp}", to.index());
            });
        }
    });

    // Graceful shutdown drains connections and reports totals.
    let stats = running.shutdown()?;
    println!(
        "served {} requests over {} connections, then shut down cleanly",
        stats.requests, stats.connections
    );
    Ok(())
}
