//! E17 — serve-path throughput: queries/sec against a frozen release
//! set as reader threads grow.
//!
//! The release-once/query-many architecture means the read path is pure
//! post-processing over an immutable snapshot, so serving should scale
//! near-linearly with reader threads until cores run out. This
//! experiment measures that claim on the production serve path (the
//! same `StoreHandler` the TCP server shares across its workers, here
//! over the frozen namespace `serve --store-dir` builds), on a
//! shortest-path release over a G(n, m) road network.

use super::context::Ctx;
use privpath_bench::{fmt, Table};
use privpath_core::shortest_path::ShortestPathParams;
use privpath_dp::Epsilon;
use privpath_graph::generators::{connected_gnm, uniform_weights};
use privpath_graph::NodeId;
use privpath_serve::{QueryRequest, StoreHandler};
use privpath_store::NamespaceSnapshot;
use rand::Rng;
use std::time::Instant;

pub fn run(ctx: &Ctx) {
    let v = 512;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Speedup tops out at the core count; on a single-core box a flat
    // curve is the expected result (and near-flat rather than degrading
    // is itself evidence the read path has no lock contention).
    println!("available parallelism: {cores} core(s)");
    let mut table = Table::new(
        "E17 serve-path throughput vs reader threads",
        &["threads", "queries", "wall_ms", "qps", "speedup_vs_1"],
    );

    let mut rng = ctx.rng(17);
    let topo = connected_gnm(v, 4 * v, &mut rng);
    let weights = uniform_weights(topo.num_edges(), 0.0, 10.0, &mut rng);
    let mut engine = ctx.engine(&topo, &weights);
    let params = ShortestPathParams::new(Epsilon::new(1.0).unwrap(), 0.05).unwrap();
    engine
        .release(
            &privpath_engine::mechanisms::ShortestPaths,
            &params,
            &mut rng,
        )
        .expect("release");
    let service = engine.snapshot();
    let id = service.releases().next().expect("one release").id();
    let handler = StoreHandler::frozen(NamespaceSnapshot::frozen(service));

    // A fixed workload with heavy source reuse, identical for every
    // thread count so the comparison is apples to apples.
    let sources = 32;
    let per_source = 8 * ctx.trials.max(1) as usize;
    let mut requests = Vec::with_capacity(sources * per_source);
    for _ in 0..sources {
        let s = NodeId::new(rng.gen_range(0..v));
        for _ in 0..per_source {
            requests.push(QueryRequest::Distance {
                release: id.into(),
                from: s,
                to: NodeId::new(rng.gen_range(0..v)),
                gamma: None,
            });
        }
    }

    let mut baseline_qps: Option<f64> = None;
    for &threads in &[1usize, 2, 4, 8] {
        let start = Instant::now();
        std::thread::scope(|scope| {
            let chunk = requests.len().div_ceil(threads);
            for shard in requests.chunks(chunk) {
                let handler = &handler;
                scope.spawn(move || {
                    for req in shard {
                        std::hint::black_box(handler.answer(req));
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let qps = requests.len() as f64 / secs;
        let speedup = qps / *baseline_qps.get_or_insert(qps);
        table.row(vec![
            threads.to_string(),
            requests.len().to_string(),
            fmt(secs * 1e3),
            fmt(qps),
            fmt(speedup),
        ]);
    }
    ctx.emit(&table);
}
